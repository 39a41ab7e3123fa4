"""Finite sets, maps between them, and brute-force (co)limit machinery.

Atoms are integers, tokens, or tuples of atoms.  Everything here
enumerates in a canonical sorted order so repeated runs produce identical
output: integers sort before tokens and tokens before tuples, a map is its
tuple of values over the sorted domain, a limit element is its tuple of
values over the sorted shape objects, and a colimit class is its least
``(j, x)`` pair.  A natural transformation between set-valued functors is,
as :func:`nattrans_values` yields it, the flat tuple of its components'
values over the sorted objects (:func:`nattrans_slices` says where each
component lies).

The limit and colimit kernels, :func:`presented_limit` and
:func:`presented_colimit`, take a diagram as a presentation: its sorted
objects, the value set of each, and edges ``(j, map, j2)`` whose maps
generate the diagram's (``kan`` presents each comma diagram along the lifts
of its source's generators).  The transformation kernel takes the squares
of the shape's ``generators`` only.  Generators decide every morphism for
functors (a square that commutes along f and g commutes along g . f), so
these diagrams must be functors, as the commands' ``require_functor`` gates
ensure.
"""

from __future__ import annotations

import math
from typing import Iterable

DEFAULT_ENUM_CAP = 10**6

# characters that would make the textual map encoding ambiguous
_RESERVED = ("{", "}", ",", "->")


class CapExceededError(Exception):
    """An enumeration would exceed the configured cap."""


class EncodingError(Exception):
    """An atom cannot be embedded in the textual encoding."""


def atom_key(a):
    """Sort key placing integers before tokens, and tokens before tuples,
    which compare entry by entry."""
    if isinstance(a, int) and not isinstance(a, bool):
        return (0, a)
    if isinstance(a, tuple):
        return (2, tuple(map(atom_key, a)))
    return (1, str(a))


class FinSetObj:
    """Immutable finite set of atoms, listed in ``atom_key`` order; ``index``
    maps each atom to its position in that list."""

    __slots__ = ("atoms", "index")

    def __init__(self, atoms: Iterable = ()):
        self._fill(sorted(set(atoms), key=atom_key))

    @classmethod
    def _of_sorted(cls, atoms: Iterable) -> "FinSetObj":
        """The set of ``atoms``, already distinct and in ``atom_key`` order."""
        new = cls.__new__(cls)
        new._fill(atoms)
        return new

    def _fill(self, atoms):
        ordered = tuple(atoms)
        object.__setattr__(self, "atoms", ordered)
        object.__setattr__(self, "index", {a: i for i, a in enumerate(ordered)})

    def __contains__(self, a):
        return a in self.index

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)

    def __eq__(self, other):
        return self is other or (isinstance(other, FinSetObj) and self.atoms == other.atoms)

    def __hash__(self):
        return hash(self.atoms)

    def __repr__(self):
        return "{" + ",".join(str(a) for a in self.atoms) + "}"

    def __reduce__(self):
        return FinSetObj, (self.atoms,)

    def __setattr__(self, *_):
        raise AttributeError("FinSetObj is immutable")


class FinSetMap:
    """Total map between finite sets; equality is extensional.

    ``values`` lists the image of each atom of ``dom``, in ``dom.atoms``
    order.  The constructor checks that there is one value per atom and that
    every value lies in ``cod``.
    """

    __slots__ = ("dom", "cod", "values")

    def __init__(self, dom: FinSetObj, cod: FinSetObj, values: Iterable):
        values = tuple(values)
        if len(values) != len(dom.atoms):
            raise ValueError(f"map has {len(values)} values for {len(dom.atoms)} domain atoms")
        for b in values:
            if b not in cod.index:
                raise ValueError(f"map value {b!r} not in codomain")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "values", values)

    def __call__(self, a):
        return self.values[self.dom.index[a]]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FinSetMap)
            and self.values == other.values
            and self.dom == other.dom
            and self.cod == other.cod
        )

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return encode_map(self)

    def __reduce__(self):
        return FinSetMap, (self.dom, self.cod, self.values)

    def __setattr__(self, *_):
        raise AttributeError("FinSetMap is immutable")


def identity_map(x: FinSetObj) -> FinSetMap:
    return FinSetMap(x, x, x.atoms)


def composite_values(g: FinSetMap, f: FinSetMap) -> tuple:
    """The values of g after f over ``f.dom``, read through ``g``'s domain
    index, with no map built; each value of ``f`` must lie in ``g.dom``."""
    return tuple(map(g.values.__getitem__, map(g.dom.index.__getitem__, f.values)))


def compose_maps(g: FinSetMap, f: FinSetMap) -> FinSetMap:
    """g after f."""
    if f.cod != g.dom:
        raise ValueError("maps not composable")
    return FinSetMap(f.dom, g.cod, composite_values(g, f))


class FinSetCat:
    """The ambient category of finite sets and maps; ``FINSET`` is its one
    instance.  It answers dom, cod, id_of and comp like a FinCat, so laws
    read the same whichever kind of category a functor lands in."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FinSetCat"

    def dom(self, m: FinSetMap) -> FinSetObj:
        return m.dom

    def cod(self, m: FinSetMap) -> FinSetObj:
        return m.cod

    def id_of(self, x: FinSetObj) -> FinSetMap:
        return identity_map(x)

    def comp(self, g: FinSetMap, f: FinSetMap) -> FinSetMap:
        """g after f."""
        return compose_maps(g, f)


FINSET = FinSetCat()


def check_encodable(atoms: Iterable) -> None:
    """Raise EncodingError at the first atom the map encoding cannot embed."""
    for a in atoms:
        s = str(a)
        if any(r in s for r in _RESERVED):
            raise EncodingError(f"atom {a!r} contains reserved characters")


def encode_map(m: FinSetMap) -> str:
    """Canonical one-line encoding "{a->x,b->y}" keyed by sorted domain.
    Only atoms that pass :func:`check_encodable` decode back."""
    return "{" + ",".join(f"{a}->{b}" for a, b in zip(m.dom.atoms, m.values)) + "}"


def decode_map(text: str, dom: FinSetObj, cod: FinSetObj) -> FinSetMap:
    """Inverse of encode_map given the intended dom and cod.  Each atom of
    ``dom`` must be named exactly once; a token names the first atom, in
    sorted order, that prints as it."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise EncodingError(f"not a map encoding: {text!r}")
    body = body[1:-1].strip()
    table = {}
    if body:
        # each text to its atom; on a clash, the first atom in sorted order
        dom_text = {str(a): a for a in reversed(dom.atoms)}
        cod_text = {str(a): a for a in reversed(cod.atoms)}
        for entry in body.split(","):
            if "->" not in entry:
                raise EncodingError(f"bad map entry {entry!r}")
            a, b = entry.split("->", 1)
            a, b = _match_atom(a.strip(), dom, dom_text), _match_atom(b.strip(), cod, cod_text)
            if a in table:
                raise EncodingError(f"atom {a!r} mapped twice")
            table[a] = b
    missing = [a for a in dom if a not in table]
    if missing:
        raise ValueError(f"map not total: missing {missing[0]!r}")
    return FinSetMap(dom, cod, map(table.__getitem__, dom.atoms))


def _match_atom(token: str, among: FinSetObj, by_text: dict):
    """The atom of ``among`` that ``by_text`` gives for ``token``."""
    try:
        return by_text[token]
    except KeyError:
        raise EncodingError(f"atom {token!r} not in {among!r}") from None


def _solve(variables, domains, constraints, cap):
    """Backtracking search over finite domains, the one enumeration loop.

    ``domains`` maps each variable to its candidate values.  A constraint
    ``(u, m, v)`` with a FinSetMap ``m`` demands ``value[v] == m(value[u])``
    and is checked as soon as both ends are assigned.  Yields one tuple of
    values per solution, in variable order and in lexicographic order of the
    domains.
    Raises CapExceededError before searching when the candidate product
    (the product of max(|domain|, 1)) exceeds ``cap``.
    """
    space = math.prod(max(len(domains[var]), 1) for var in variables)
    if space > cap:
        raise CapExceededError(f"search space of {space} candidates exceeds cap {cap}")
    position = {var: i for i, var in enumerate(variables)}
    checks = [[] for _ in variables]
    for u, m, v in constraints:
        i, j = position[u], position[v]
        checks[max(i, j)].append((i, m.dom.index, m.values, j))
    pools = [tuple(domains[var]) for var in variables]
    values = [None] * len(pools)
    tried = [0] * len(pools)
    depth = 0
    while depth >= 0:
        if depth == len(pools):
            yield tuple(values)
            depth -= 1
        elif tried[depth] == len(pools[depth]):
            tried[depth] = 0
            depth -= 1
        else:
            values[depth] = pools[depth][tried[depth]]
            tried[depth] += 1
            for i, index, images, j in checks[depth]:
                if images[index[values[i]]] != values[j]:
                    break
            else:
                depth += 1


def map_values(x: FinSetObj, y: FinSetObj, cap: int = DEFAULT_ENUM_CAP) -> list:
    """All maps x -> y as value tuples over the sorted domain, lexicographic."""
    return list(_solve(x.atoms, dict.fromkeys(x.atoms, y.atoms), (), cap))


def enumerate_maps(x: FinSetObj, y: FinSetObj, cap: int = DEFAULT_ENUM_CAP) -> list:
    """All maps x -> y in lexicographic order over the sorted domain."""
    return [FinSetMap(x, y, values) for values in map_values(x, y, cap)]


def presented_limit(objects, values, edges, cap: int = DEFAULT_ENUM_CAP):
    """Limit of a presented finite-set valued diagram: compatible families.

    The presentation is the shape's ``objects`` in sorted order, the value
    set ``values[j]`` of each, and ``edges`` ``(j, m, j2)`` whose maps
    ``m : values[j] -> values[j2]`` generate the diagram's maps.  Returns
    (carrier, projections).  An element of the carrier is a family's tuple
    of values over ``objects``, and projections maps each object, in that
    order, to its projection.  No objects give the one-point carrier {()}.
    """
    families = _solve(objects, values, edges, cap)  # lexicographic, so sorted
    carrier = FinSetObj._of_sorted(families)
    projections = {
        j: FinSetMap(carrier, values[j], (fam[i] for fam in carrier))
        for i, j in enumerate(objects)
    }
    return carrier, projections


def presented_colimit(objects, values, edges):
    """Colimit of a presented finite-set valued diagram (see
    :func:`presented_limit`): tagged union modulo the relation that the
    edges' maps generate.

    Returns (carrier, injections); a class is its least tagged atom, the
    pair ``(j, x)`` of an object and an element of its value, and
    injections maps each object, in the order of ``objects``, to its
    injection.
    """
    tagged = [(j, x) for j in objects for x in values[j]]
    parent = {t: t for t in tagged}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for j, m, j2 in edges:
        for x, y in zip(m.dom.atoms, m.values):
            ra, rb = find((j, x)), find((j2, y))
            if ra != rb:
                parent[rb] = ra

    # tagged runs in sorted order, so the first member met is its class's least
    least, rep = {}, {}
    for t in tagged:
        rep[t] = least.setdefault(find(t), t)
    carrier = FinSetObj._of_sorted(least.values())
    injections = {
        j: FinSetMap(values[j], carrier, (rep[(j, x)] for x in values[j])) for j in objects
    }
    return carrier, injections


def nattrans_values(f, g, cap: int = DEFAULT_ENUM_CAP) -> list:
    """All natural transformations between finite-set valued functors, each
    as its flat tuple of values: the components over sorted objects, each
    component's values in its domain's order.

    One search variable per object c and element a of f(c), valued in g(c);
    every generator h: c -> d adds the squares g(h)(alpha_c a) = alpha_d(f(h) a),
    so f and g must be functors.  Output order is the lexicographic order of
    the tuples.
    """
    if f.source != g.source:
        raise ValueError("functors have different sources")
    if not (f.target is FINSET and g.target is FINSET):
        raise ValueError("both functors must be finite-set valued")
    shape = f.source
    variables = [(c, a) for c in sorted(shape.objects) for a in f.object_map[c]]
    domains = {(c, a): g.object_map[c].atoms for c, a in variables}
    constraints = [
        ((shape.dom(h), a), g.morphism_map[h], (shape.cod(h), f.morphism_map[h](a)))
        for h in shape.generators
        for a in f.object_map[shape.dom(h)]
    ]
    return list(_solve(variables, domains, constraints, cap))


def nattrans_slices(f) -> dict:
    """Where each object's component lies in a flat tuple that
    :func:`nattrans_values` gives for transformations out of ``f``: each
    object, in sorted order, maps to its slice."""
    slices, start = {}, 0
    for c in sorted(f.source.objects):
        stop = start + len(f.object_map[c])
        slices[c] = slice(start, stop)
        start = stop
    return slices
