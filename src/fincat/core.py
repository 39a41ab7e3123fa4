"""Finite categories as explicit tables, with machine-checked laws.

A category is a finite table: objects, morphisms with dom/cod, an identity
assignment, and a composition table that must be total on composable pairs.
`validate_category` verifies every law as an obligation by exhaustive
enumeration, and a failing obligation always carries a concrete witness
(the identifiers violating the law) so the failure can be replayed.  Two
facts are counted rather than enumerated.  A coherent table is total when
its entries are as many as its composable pairs, since each entry is a
distinct composable pair.  A coherent, total, thin table (every hom-set of
one morphism) is associative and unital, since both sides of each of those
laws lie in one singleton hom-set.

A preorder's table is read off its order (`_PreorderCompose`), and it is a
thin category by construction (see `preorder_from_covers`): the commands'
gate `require_category` accepts it unchecked, `check-cat` still enumerates
its laws, and `validate_functor` checks composites between two such tables
only when typing fails.  No functor check iterates such a table.

Functors and natural transformations are value-level tables as well.  A
functor may land either in another table category or in the ambient
category of finite sets (``FINSET`` in `fincat.finset`).  Both answer dom,
cod, id_of and comp, so the laws are checked by one code path; morphism
equality is identifier equality in the first case and extensional equality
in the second.  The composition law is one loop over the source's composable
pairs, whichever the target; set-valued composites and naturality squares
compare value tuples, and no composite map is built.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Any, Iterable

# FinSetCat is imported to be re-exported
from .finset import FINSET, FinSetCat, FinSetMap, FinSetObj, composite_values
from .record import Record


class FinCatError(Exception):
    """Base class for table-level errors."""


class MalformedTableError(FinCatError):
    """A table references an identifier that does not exist, or is partial."""


class CycleError(FinCatError):
    """A cover relation is not antisymmetric after closure."""


class BoundaryError(FinCatError):
    """Source/target of composed functors do not line up."""


class Obligation(Record):
    """One checked law: a name, a verdict, and a witness when it fails."""

    __slots__ = ("name", "passed", "witness")
    name: str
    passed: bool
    witness: tuple

    def __init__(self, name: str, passed: bool, witness: tuple = ()):
        if not (passed or witness):
            raise ValueError(f"failing obligation {name!r} needs a witness")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witness", witness)


class CheckReport(Record):
    __slots__ = ("subject", "obligations")
    subject: str
    obligations: tuple

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.obligations)

    def failures(self):
        return [o for o in self.obligations if not o.passed]

    def obligation(self, name: str) -> Obligation:
        for o in self.obligations:
            if o.name == name:
                return o
        raise KeyError(name)

    def summary(self) -> str:
        lines = [f"subject: {self.subject}"]
        for o in self.obligations:
            mark = "PASS" if o.passed else "FAIL"
            extra = f"  witness={o.witness!r}" if not o.passed else ""
            lines.append(f"  [{mark}] {o.name}{extra}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


class _TableIndex(Record):
    """Lookup tables derived once from a FinCat's morphisms."""

    __slots__ = ("morphisms", "hom", "out_arrows", "objects")
    morphisms: tuple  # every morphism name, sorted
    hom: dict  # (dom, cod) -> sorted names
    out_arrows: dict  # object -> sorted names with that dom
    objects: frozenset


class FinCat(Record):
    """Finite category given by explicit tables.

    objects: tuple of identifier tokens.
    morphisms: name -> (dom, cod).
    identity: object -> morphism name.
    compose: (g, f) -> name of g after f: a dict, or a read-only mapping
    such as the one `preorder_from_covers` derives from its order, which
    ``dict(c.compose)`` makes into a dict.

    The tables are treated as immutable once constructed: hom-sets,
    out-arrows and the object set are indexed on first use.
    """

    objects: tuple
    morphisms: dict
    identity: dict
    compose: dict

    @cached_property
    def _index(self) -> _TableIndex:
        ordered = tuple(sorted(self.morphisms))
        hom: dict = {}
        out: dict = {}
        for m in ordered:
            d, c = self.morphisms[m]
            hom.setdefault((d, c), []).append(m)
            out.setdefault(d, []).append(m)

        def frozen(table):
            return {k: tuple(v) for k, v in table.items()}

        return _TableIndex(ordered, frozen(hom), frozen(out), frozenset(self.objects))

    def dom(self, m: str) -> str:
        return self.morphisms[m][0]

    def cod(self, m: str) -> str:
        return self.morphisms[m][1]

    def id_of(self, x: str) -> str:
        return self.identity[x]

    def comp(self, g: str, f: str) -> str:
        """Name of the composite g after f."""
        return self.compose[(g, f)]

    def has_object(self, x) -> bool:
        return x in self._index.objects

    def hom(self, x: str, y: str) -> tuple:
        """Morphisms x -> y, sorted: the index's own tuple."""
        return self._index.hom.get((x, y), ())

    def out_arrows(self, x: str) -> tuple:
        """Morphisms with dom x, sorted."""
        return self._index.out_arrows.get(x, ())

    def sorted_morphisms(self) -> list:
        return list(self._index.morphisms)

    @cached_property
    def generators(self) -> tuple:
        """Sorted non-identity morphisms of which every other non-identity
        morphism is a composite, for a table that is a category.

        They are the morphisms that are no composite of two non-identity
        ones; while their composites miss a morphism, as in a cyclic group,
        the least one missed joins them.  A law that holds along identities
        and along g . f when it holds along f and g, as a naturality square
        of functors does, holds everywhere when it holds along them.  A
        table that `preorder_from_covers` built reads them off its order:
        they are the pairs a < b with nothing strictly between."""
        order = _order_of(self)
        if order is not None:
            return order.generators()
        ids, ends, compose = set(self.identity.values()), self.morphisms, self.compose
        composites = {h for (g, f), h in compose.items() if g not in ids and f not in ids}
        gens, leaving, reached = [], {}, set(ids)  # leaving: dom -> generators out of it

        def join(m):
            gens.append(m)
            leaving.setdefault(ends[m][0], []).append(m)

        def close(todo):  # reach each r, and g . r for every generator g out of cod r
            while todo:
                r = todo.pop()
                if r not in reached:
                    reached.add(r)
                    todo += [compose[(g, r)] for g in leaving.get(ends[r][1], ())]

        for m in ends:
            if m not in ids and m not in composites:
                join(m)
        close(list(gens))
        for m in sorted(ends.keys() - reached):
            if m not in reached:
                join(m)
                close([compose[(m, r)] for r in reached if ends[r][1] == ends[m][0]])
        return tuple(sorted(gens))


def _wellformed(c: FinCat) -> None:
    """Raise MalformedTableError at the first object, morphism end or
    identity that names nothing.  The composition table's names are checked
    by `validate_category`'s pass over it."""
    objs = set(c.objects)
    if len(objs) != len(c.objects):
        raise MalformedTableError("duplicate object identifiers")
    for m, (d, co) in c.morphisms.items():
        if d not in objs:
            raise MalformedTableError(f"morphism {m!r} has unknown dom {d!r}")
        if co not in objs:
            raise MalformedTableError(f"morphism {m!r} has unknown cod {co!r}")
    for x in c.objects:
        if x not in c.identity:
            raise MalformedTableError(f"no identity assigned to object {x!r}")
        if c.identity[x] not in c.morphisms:
            raise MalformedTableError(f"identity of {x!r} is unknown morphism {c.identity[x]!r}")
    for x in c.identity:
        if x not in objs:
            raise MalformedTableError(f"identity table mentions unknown object {x!r}")


def is_thin(c: FinCat) -> bool:
    """Whether every hom-set of ``c`` holds at most one morphism.  Each
    morphism lies in exactly one hom-set, so that holds when there are as
    many hom-sets as morphisms."""
    return len(c._index.hom) == len(c.morphisms)


def _composable_pairs(c: FinCat) -> int:
    """The number of composable pairs (g, f): one per morphism f and arrow g
    out of cod f."""
    out = c._index.out_arrows
    return sum(map(len, map(out.get, map(itemgetter(1), c.morphisms.values()), repeat(()))))


def validate_category(c: FinCat) -> CheckReport:
    """Check the category laws by exhaustive enumeration.

    The composition table is read once, for its names and ends.  Every entry
    of a coherent table is a distinct composable pair, so the table is total
    exactly when it has as many entries as there are composable pairs.  When
    it is also thin (every hom-set holds one morphism), associativity and
    both identity laws follow from those facts, and no composite is looked
    up again.  Otherwise the composites are read in one column per morphism,
    which names the missing pairs and drives the associativity scan, and the
    identity laws look up two composites per morphism.

    Raises MalformedTableError for dangling identifiers before any law
    is considered; law violations come back as failed obligations.
    """
    _wellformed(c)
    obligations = []

    # One pass over the table in its own order; only the failures are
    # sorted, which orders them by their (g, f) key, as the reports do.  The
    # first entry naming an unknown morphism is the one the loop stops at.
    ends = c.morphisms
    bad_entries = []
    try:
        for (g, f), h in c.compose.items():
            (f_dom, f_cod), (g_dom, g_cod), (h_dom, h_cod) = ends[f], ends[g], ends[h]
            if f_cod != g_dom:
                bad_entries.append((g, f, h, "not composable"))
            elif h_dom != f_dom or h_cod != g_cod:
                bad_entries.append((g, f, h, "boundary mismatch"))
    except KeyError:
        unknown = next(m for m in (g, f, h) if m not in ends)
        raise MalformedTableError(
            f"composition table mentions unknown morphism {unknown!r}"
        ) from None
    bad_entries.sort()
    coh = []
    for x in c.objects:
        i = c.identity[x]
        if ends[i] != (x, x):
            coh.append((x, i) + ends[i])
    coh += bad_entries
    obligations.append(Obligation("coherence", not coh, tuple(coh[:1][0]) if coh else ()))

    tot = assoc = idl = idr = ()
    # A coherent, total, thin table is associative and unital: both
    # h o (g o f) and (h o g) o f are defined, coherence puts both in
    # hom(dom f, cod h), and that hom-set has one element; so do id o f and
    # f o id, whose hom-set hom(dom f, cod f) is {f}.
    if coh or not is_thin(c) or len(c.compose) != _composable_pairs(c):
        safe_comp = c.compose.get  # None where totality fails
        ordered = c._index.morphisms
        # after[m]: the composites k o m for k in out_arrows(cod m), None
        # where the table has no entry.  The columns cover every composable
        # pair once.
        outs = {m: c.out_arrows(ends[m][1]) for m in ordered}
        after = {m: tuple(map(safe_comp, zip(outs[m], repeat(m)))) for m in ordered}

        missing = sorted(
            (k, m)
            for m in ordered
            if None in after[m]
            for k, km in zip(outs[m], after[m])
            if km is None
        )
        extra = [(g, f) for g, f, _h, why in bad_entries if why == "not composable"]
        tot = missing + extra

        # For each composable pair (f, g), the whole h-axis h in
        # out_arrows(cod g) is compared at once: h o (g o f) is the column of
        # g o f when g o f ends where g does, and (h o g) o f is read from f's
        # column keyed by h o g.  A pair whose tuples differ, or that has no
        # such column, is scanned one h at a time; equal tuples mean every h
        # has both sides and they agree.
        assoc = []
        absent = object()  # (h o g) o f outside f's column: never equal, so scanned
        for f in ordered:
            after_f = dict(zip(outs[f], after[f]))
            for g, gf in after_f.items():
                if gf is None:
                    continue  # reported under totality
                if ends[gf][1] == ends[g][1] and after[gf] == tuple(
                    map(after_f.get, after[g], repeat(absent))
                ):
                    continue
                for h, hg in zip(outs[g], after[g]):
                    if hg is None:
                        continue  # reported under totality
                    left, right = safe_comp((h, gf)), safe_comp((hg, f))
                    if left != right:
                        assoc.append((h, g, f, left, right))

        idl, idr = [], []
        identity = c.identity
        for f in ordered:
            d, co = ends[f]
            li = safe_comp((identity[co], f))
            if li is not None and li != f:
                idl.append((f, li))
            ri = safe_comp((f, identity[d]))
            if ri is not None and ri != f:
                idr.append((f, ri))
    obligations.append(Obligation("totality", not tot, tuple(tot[0]) if tot else ()))
    obligations.append(Obligation("associativity", not assoc, tuple(assoc[0]) if assoc else ()))
    obligations.append(Obligation("left_identity", not idl, tuple(idl[0]) if idl else ()))
    obligations.append(Obligation("right_identity", not idr, tuple(idr[0]) if idr else ()))

    return CheckReport(f"category:{len(c.objects)}obj/{len(c.morphisms)}mor", tuple(obligations))


def require_category(c: FinCat, what: str) -> None:
    """Raise FinCatError, naming ``what`` and the first failed law with its
    witness, unless ``c`` passes :func:`validate_category`.  A table that
    `preorder_from_covers` built is a category by construction and passes
    without a law enumerated."""
    if _order_of(c) is not None:
        return
    failed = validate_category(c).failures()
    if failed:
        raise FinCatError(
            f"{what} is not a category: {failed[0].name} fails at {failed[0].witness!r}"
        )


def require_functor(fun: FunctorVal, role: str = "functor") -> None:
    """Raise FinCatError, naming ``role`` and the first failed law with its
    witness, unless ``fun`` passes :func:`validate_functor`."""
    try:
        failed = validate_functor(fun).failures()
    except MalformedTableError as exc:
        raise FinCatError(f"{role} is not a functor: {exc}") from None
    if failed:
        raise FinCatError(
            f"{role} is not a functor: {failed[0].name} fails at {failed[0].witness!r}"
        )


def _raise_name_collision(names: dict) -> None:
    """Name the first morphism name, in sorted pair order, given to two pairs."""
    seen = {}
    for a, row in names.items():
        for b, ab in row.items():
            if ab in seen:
                raise MalformedTableError(
                    f"morphism name {ab!r} names both {seen[ab]!r} and {(a, b)!r}"
                )
            seen[ab] = (a, b)


# passed only by preorder_from_covers, whose closure makes its table lawful
_CLOSED = object()


class _PreorderCompose(Mapping):
    """The composition table of a preorder, read off its order.

    ``rows[a]`` maps each b >= a, in sorted order, to the name of a -> b.
    g . f is the name of (dom f, cod g) when cod f = dom g, so a lookup
    builds nothing, and a key that is no composable pair of names raises
    ``KeyError`` as the dict does.  The first iteration builds that dict, in
    the order of the triples a <= b <= c, and keeps it; ``len``, equality,
    ``repr``, copying and pickling are those of the dict, and
    ``dict(c.compose)`` is the dict.

    The mapping keeps the objects, morphisms and identities of the
    `FinCat` it was built with, and whether `preorder_from_covers` built
    it, so that `_order_of` knows the table is still that category's own
    lawful one."""

    __slots__ = ("_rows", "_objects", "_ends", "_identity", "_closed", "_built")

    def __init__(self, rows: dict, objects: tuple, ends: dict, identity: dict, proof=None):
        self._rows = rows
        self._objects = objects
        self._ends = ends
        self._identity = identity
        self._closed = proof is _CLOSED
        self._built = None

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            ends = self._ends
            try:
                (a, b), (b2, c) = ends[key[1]], ends[key[0]]
            except KeyError:
                pass
            else:
                if b == b2:
                    return self._rows[a][c]
        hash(key)  # an unhashable key raises TypeError, as a dict's lookup does
        raise KeyError(key)

    def _table(self) -> dict:
        if self._built is None:
            rows = self._rows
            self._built = {
                (bc, ab): rows[a][c]
                for a, row in rows.items()
                for b, ab in row.items()
                for c, bc in rows[b].items()
            }
        return self._built

    def __iter__(self):
        return iter(self._table())

    def items(self):
        return self._table().items()

    def values(self):
        return self._table().values()

    def __len__(self):
        return len(self._table())

    def __eq__(self, other):
        if isinstance(other, _PreorderCompose):
            if self._rows == other._rows:  # one name per pair: the same composites
                return True
            other = other._table()
        return self._table() == other

    def __repr__(self):
        return repr(self._table())

    def __reduce__(self):
        return dict, (self._table(),)

    def generators(self) -> tuple:
        """The sorted names of the pairs a < b that no c lies strictly
        between: the transitive reduction of the order."""
        rows = self._rows
        return tuple(
            sorted(
                ab
                for a, row in rows.items()
                for b, ab in row.items()
                if a != b and not any(b in rows[c] for c in row if c != a and c != b)
            )
        )


def _order_of(c: FinCat):
    """``c.compose`` when `preorder_from_covers` built it for ``c``'s own
    objects, morphisms and identities, else None."""
    order = c.compose
    if (
        type(order) is _PreorderCompose
        and order._closed
        and order._ends is c.morphisms
        and order._identity is c.identity
        and order._objects is c.objects
    ):
        return order
    return None


def preorder_from_covers(objects: Iterable[str], covers: Iterable[tuple]) -> FinCat:
    """Category of the reflexive-transitive closure of a cover relation.

    Morphism x -> y is named "x->y"; identities are "id_x".  Raises
    CycleError when the closure is not antisymmetric, naming the least
    offending pair, and MalformedTableError when two pairs of the closure get
    one name (object names containing "->" or starting with "id_" can make
    them collide).  Morphisms are inserted in sorted order, and the
    composition table is a read-only mapping read off the order.

    Such a table is a category, which `require_category` accepts unchecked:
    Warshall's closure makes the relation reflexive and transitive, so every
    composable pair has its composite and every identity is there; every
    pair of the order has one name and no name two pairs, so each hom-set
    is a singleton and associativity and the identity laws hold, both sides
    of each lying in one hom-set.
    """
    objs = tuple(sorted(str(o) for o in objects))
    above = {x: {x} for x in objs}
    for a, b in covers:
        if str(a) not in above or str(b) not in above:
            raise MalformedTableError(f"cover ({a!r}, {b!r}) mentions unknown object")
        above[str(a)].add(str(b))
    for k in objs:  # Warshall: after step k, paths through objects up to k are closed
        for x in objs:
            if k in above[x]:
                above[x] |= above[k]
    succ = {x: sorted(above[x]) for x in objs}
    for a in objs:
        for b in succ[a]:
            if a != b and a in above[b]:
                raise CycleError(f"not antisymmetric: {a!r} <= {b!r} <= {a!r}")

    # each morphism is named once: rows[a][b] is the one a -> b
    rows = {a: {b: f"id_{a}" if a == b else f"{a}->{b}" for b in succ[a]} for a in objs}
    morphisms = {ab: (a, b) for a in objs for b, ab in rows[a].items()}
    if len(morphisms) != sum(map(len, succ.values())):
        _raise_name_collision(rows)
    identity = {x: f"id_{x}" for x in objs}
    compose = _PreorderCompose(rows, objs, morphisms, identity, _CLOSED)
    return FinCat(objs, morphisms, identity, compose)


def opposite(c: FinCat) -> FinCat:
    """Reverse all arrows; same identifiers, transposed composition table."""
    require_category(c, "the argument of opposite")
    morphisms = {m: (co, d) for m, (d, co) in c.morphisms.items()}
    compose = {(f, g): h for (g, f), h in c.compose.items()}
    return FinCat(c.objects, morphisms, dict(c.identity), compose)


class FunctorVal(Record):
    """Functor as a pair of tables.  target is a FinCat or FINSET.

    ``object_map`` is a dict; ``morphism_map`` is any read-only mapping from
    every morphism name, a dict or a :class:`MapsOnDemand` that builds each
    image on its first lookup."""

    __slots__ = ("source", "target", "object_map", "morphism_map")
    source: FinCat
    target: Any
    object_map: dict
    morphism_map: Mapping


class MapsOnDemand(Mapping):
    """A morphism map whose images are built on first use.

    It lists the names of ``ends`` (a category's ``morphisms``, name ->
    (dom, cod)), so iteration, ``len`` and ``in`` cover every morphism and
    build nothing.  Looking a name up calls ``build(name)`` the first time
    and keeps its image; a name not in ``ends`` raises ``KeyError``.
    Equality, ``repr``, copying and pickling are those of the equal dict,
    and the last three build every missing image first."""

    __slots__ = ("_ends", "_build", "_built")

    def __init__(self, ends: Mapping, build: Callable):
        self._ends = ends
        self._build = build
        self._built = {}

    def __getitem__(self, name):
        try:
            return self._built[name]
        except KeyError:
            if name not in self._ends:
                raise
        image = self._built[name] = self._build(name)
        return image

    def __iter__(self):
        return iter(self._ends)

    def __len__(self):
        return len(self._ends)

    def __contains__(self, name):
        return name in self._ends

    def get(self, name, default=None):
        """The image of ``name``, or ``default`` for a name not listed; an
        image that cannot be built raises, as a lookup does."""
        return self[name] if name in self._ends else default

    def __repr__(self):
        return repr(dict(self.items()))

    def __reduce__(self):
        return dict, (dict(self.items()),)


def validate_functor(f: FunctorVal) -> CheckReport:
    """Check typing, identity preservation, and composition preservation."""
    src, tgt = f.source, f.target
    for x in src.objects:
        if x not in f.object_map:
            raise MalformedTableError(f"object map missing entry for {x!r}")
    for m in src.morphisms:
        if m not in f.morphism_map:
            raise MalformedTableError(f"morphism map missing entry for {m!r}")
    if tgt is FINSET:
        for x, v in f.object_map.items():
            if not isinstance(v, FinSetObj):
                raise MalformedTableError(f"object map at {x!r} is not a finite set")
        for m, v in f.morphism_map.items():
            if not isinstance(v, FinSetMap):
                raise MalformedTableError(f"morphism map at {m!r} is not a map")
    else:
        for x, v in f.object_map.items():
            if not tgt.has_object(v):
                raise MalformedTableError(f"object map sends {x!r} to unknown {v!r}")
        for m, v in f.morphism_map.items():
            if v not in tgt.morphisms:
                raise MalformedTableError(f"morphism map sends {m!r} to unknown {v!r}")

    obligations = []
    typing = []
    for m in src.sorted_morphisms():
        img = f.morphism_map[m]
        want = (f.object_map[src.dom(m)], f.object_map[src.cod(m)])
        if (tgt.dom(img), tgt.cod(img)) != want:
            typing.append((m, img))
    obligations.append(Obligation("typing", not typing, tuple(typing[0]) if typing else ()))

    respids = []
    for x in src.objects:
        got = f.morphism_map[src.id_of(x)]
        if got != tgt.id_of(f.object_map[x]):
            respids.append((x, got))
    obligations.append(
        Obligation("respects_identities", not respids, tuple(respids[0]) if respids else ())
    )

    # Between two tables that preorder_from_covers built, a typed map
    # preserves composites: F(g) . F(h) and F(g . h) both run F(dom h) ->
    # F(cod g), and that hom-set of the target has one morphism.
    respcomp = []
    if tgt is FINSET or typing or _order_of(src) is None or _order_of(tgt) is None:
        respcomp = sorted(_composition_failures(src, tgt, f.morphism_map))  # by (g, h), unique
    obligations.append(
        Obligation("respects_composition", not respcomp, tuple(respcomp[0]) if respcomp else ())
    )
    return CheckReport("functor", tuple(obligations))


def _composition_failures(src: FinCat, tgt, morphism_map: Mapping) -> list:
    """Every failure of F(g) . F(h) = F(g . h), unsorted, over the composable
    pairs (g, h) of the source's index that its table has an entry for:
    (g, h, "image not composable") where F(g) . F(h) is undefined, and
    (g, h) where it differs from F(g . h).  A composite in the target table
    is that table's entry; one of finite sets is its tuple of values and its
    ends, and no map is built."""
    compose, image = src.compose, morphism_map.__getitem__
    failures = []
    for h, (_dom, cod) in src.morphisms.items():
        fh = image(h)
        for g in src.out_arrows(cod):
            gh = compose.get((g, h))
            if gh is None:
                continue  # no entry: a totality failure of the source
            fg, fgh = image(g), image(gh)
            if tgt is FINSET:  # a map as its ends and values
                composite = None
                if fh.cod == fg.dom:
                    composite = fh.dom, fg.cod, composite_values(fg, fh)
                fgh = fgh.dom, fgh.cod, fgh.values
            else:
                composite = tgt.compose.get((fg, fh))
            if composite is None:
                failures.append((g, h, "image not composable"))
            elif composite != fgh:
                failures.append((g, h))
    return failures


def identity_functor(c: FinCat) -> FunctorVal:
    return FunctorVal(c, c, {x: x for x in c.objects}, {m: m for m in c.morphisms})


def compose_functors(g: FunctorVal, f: FunctorVal) -> FunctorVal:
    """g after f.  f must land in the table category g starts from."""
    if f.target is FINSET:
        raise BoundaryError("cannot compose beyond a finite-set valued functor")
    if f.target != g.source:
        raise BoundaryError("target of inner functor differs from source of outer")
    return FunctorVal(
        f.source,
        g.target,
        {x: g.object_map[f.object_map[x]] for x in f.source.objects},
        {m: g.morphism_map[f.morphism_map[m]] for m in f.source.morphisms},
    )


class NatTransVal(Record):
    """Natural transformation: one component per source object."""

    F: FunctorVal
    G: FunctorVal
    components: dict

    def at(self, x):
        return self.components[x]


def validate_nattrans(t: NatTransVal) -> CheckReport:
    """Check component typing and the naturality square for every morphism."""
    if t.F.source != t.G.source:
        raise BoundaryError("natural transformation between functors with different sources")
    if t.F.target != t.G.target:
        raise BoundaryError("natural transformation between functors with different targets")
    src, tgt = t.F.source, t.F.target
    for x in src.objects:
        if x not in t.components:
            raise MalformedTableError(f"component missing for object {x!r}")

    finny = tgt is FINSET
    typing = []
    for x in src.objects:
        comp = t.components[x]
        if finny:
            if not isinstance(comp, FinSetMap):
                raise MalformedTableError(f"component at {x!r} is not a map")
        elif comp not in tgt.morphisms:
            raise MalformedTableError(f"component at {x!r} is unknown morphism {comp!r}")
        if (tgt.dom(comp), tgt.cod(comp)) != (t.F.object_map[x], t.G.object_map[x]):
            typing.append((x, comp))
    obligations = [Obligation("component_typing", not typing, tuple(typing[0]) if typing else ())]

    square = [w for w in map(square_failure, repeat(t), src.sorted_morphisms()) if w]
    obligations.append(
        Obligation("square_condition", not square, tuple(square[0]) if square else ())
    )
    return CheckReport("nattrans", tuple(obligations))


def square_failure(t: NatTransVal, h):
    """The witness against the naturality square G(h) . t_c = t_d . F(h) at
    the morphism h : c -> d of the source, or None when it commutes."""
    c, d = t.F.source.morphisms[h]
    tgt = t.F.target
    if tgt is FINSET:
        return _set_square_failure(t, h, t.components[c], t.components[d])
    try:
        lhs = tgt.comp(t.G.morphism_map[h], t.components[c])
        rhs = tgt.comp(t.components[d], t.F.morphism_map[h])
    except KeyError:
        return (h, "not composable")
    return (h, lhs, rhs) if lhs != rhs else None


def _set_square_failure(t: NatTransVal, h, alpha_c: FinSetMap, alpha_d: FinSetMap):
    """The witness against the square G(h) . alpha_c = alpha_d . F(h) of
    set-valued functors, or None when it commutes.

    Each side is its tuple of values, read through the domain indexes: a
    failure names the first domain atom where the two differ, and only
    sides with equal values but other ends are built as maps.
    """
    gh, fh = t.G.morphism_map.get(h), t.F.morphism_map.get(h)
    if gh is None or fh is None or alpha_c.cod != gh.dom or fh.cod != alpha_d.dom:
        return (h, "not composable")
    lhs, rhs = composite_values(gh, alpha_c), composite_values(alpha_d, fh)
    if lhs == rhs and alpha_c.dom == fh.dom and gh.cod == alpha_d.cod:
        return None
    cells = zip(alpha_c.dom, lhs, rhs)
    differ = next((cell for cell in cells if cell[1] != cell[2]), None)
    if differ:
        return (h, *differ)
    return (h, FinSetMap(alpha_c.dom, gh.cod, lhs), FinSetMap(fh.dom, alpha_d.cod, rhs))

