"""Finite categories as explicit tables, with machine-checked laws.

A category is a finite table: objects, morphisms with dom/cod, an identity
assignment, and a composition table that must be total on composable pairs.
Nothing is trusted: every law is an obligation verified by exhaustive
enumeration, and a failing obligation always carries a concrete witness
(the identifiers violating the law) so the failure can be replayed.

Functors and natural transformations are value-level tables as well.  A
functor may land either in another table category or in the ambient
category of finite sets (``FINSET`` in `fincat.finset`).  Both answer dom,
cod, id_of and comp, so the laws are checked by one code path; morphism
equality is identifier equality in the first case and extensional equality
in the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable

from .finset import FINSET, FinSetCat, FinSetMap, FinSetObj  # FinSetCat: re-exported


class FinCatError(Exception):
    """Base class for table-level errors."""


class MalformedTableError(FinCatError):
    """A table references an identifier that does not exist, or is partial."""


class CycleError(FinCatError):
    """A cover relation is not antisymmetric after closure."""


class BoundaryError(FinCatError):
    """Source/target of composed functors do not line up."""


@dataclass(frozen=True)
class Obligation:
    """One checked law: a name, a verdict, and a witness when it fails."""

    name: str
    passed: bool
    witness: tuple = ()

    def __post_init__(self):
        if not (self.passed or self.witness):
            raise ValueError(f"failing obligation {self.name!r} needs a witness")


@dataclass(frozen=True)
class CheckReport:
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


@dataclass(frozen=True)
class _TableIndex:
    """Lookup tables derived once from a FinCat's morphisms."""

    morphisms: tuple  # every morphism name, sorted
    hom: dict  # (dom, cod) -> sorted names
    out_arrows: dict  # object -> sorted names with that dom
    in_arrows: dict  # object -> sorted names with that cod
    objects: frozenset


@dataclass(frozen=True)
class FinCat:
    """Finite category given by explicit tables.

    objects: tuple of identifier tokens.
    morphisms: name -> (dom, cod).
    identity: object -> morphism name.
    compose: (g, f) -> name of g after f.

    The tables are treated as immutable once constructed: hom-sets,
    out-arrows, in-arrows and the object set are indexed on first use.
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
        into: dict = {}
        for m in ordered:
            d, c = self.morphisms[m]
            hom.setdefault((d, c), []).append(m)
            out.setdefault(d, []).append(m)
            into.setdefault(c, []).append(m)

        def frozen(table):
            return {k: tuple(v) for k, v in table.items()}

        return _TableIndex(ordered, frozen(hom), frozen(out), frozen(into), frozenset(self.objects))

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

    def hom(self, x: str, y: str) -> list:
        return list(self._index.hom.get((x, y), ()))

    def out_arrows(self, x: str) -> tuple:
        """Morphisms with dom x, sorted."""
        return self._index.out_arrows.get(x, ())

    def in_arrows(self, x: str) -> tuple:
        """Morphisms with cod x, sorted."""
        return self._index.in_arrows.get(x, ())

    def sorted_morphisms(self) -> list:
        return list(self._index.morphisms)

    def composable_pairs(self):
        """All (g, f) with cod f == dom g, in sorted order."""
        for g in self._index.morphisms:
            for f in self.in_arrows(self.dom(g)):
                yield (g, f)


def _wellformed(c: FinCat) -> None:
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
    for (g, f), h in c.compose.items():
        for m in (g, f, h):
            if m not in c.morphisms:
                raise MalformedTableError(f"composition table mentions unknown morphism {m!r}")


def validate_category(c: FinCat) -> CheckReport:
    """Check the category laws by exhaustive enumeration.

    Raises MalformedTableError for dangling identifiers before any law
    is considered; law violations come back as failed obligations.
    """
    _wellformed(c)
    obligations = []

    coh = []
    for x in c.objects:
        i = c.identity[x]
        if c.morphisms[i] != (x, x):
            coh.append((x, i) + c.morphisms[i])
    for (g, f), h in sorted(c.compose.items()):
        if c.cod(f) != c.dom(g):
            coh.append((g, f, h, "not composable"))
        elif (c.dom(h), c.cod(h)) != (c.dom(f), c.cod(g)):
            coh.append((g, f, h, "boundary mismatch"))
    obligations.append(Obligation("coherence", not coh, tuple(coh[:1][0]) if coh else ()))

    missing = [(g, f) for (g, f) in c.composable_pairs() if (g, f) not in c.compose]
    extra = [(g, f) for (g, f) in sorted(c.compose) if c.cod(f) != c.dom(g)]
    tot = missing + extra
    obligations.append(Obligation("totality", not tot, tuple(tot[0]) if tot else ()))

    safe_comp = c.compose.get  # None where totality already failed

    assoc = []
    ordered = c.sorted_morphisms()
    for f in ordered:
        for g in c.out_arrows(c.cod(f)):
            gf = safe_comp((g, f))
            for h in c.out_arrows(c.cod(g)):
                hg = safe_comp((h, g))
                if gf is None or hg is None:
                    continue  # reported under totality
                left, right = safe_comp((h, gf)), safe_comp((hg, f))
                if left != right:
                    assoc.append((h, g, f, left, right))
    obligations.append(Obligation("associativity", not assoc, tuple(assoc[0]) if assoc else ()))

    idl = []
    idr = []
    for f in ordered:
        li = safe_comp((c.identity[c.cod(f)], f))
        if li is not None and li != f:
            idl.append((f, li))
        ri = safe_comp((f, c.identity[c.dom(f)]))
        if ri is not None and ri != f:
            idr.append((f, ri))
    obligations.append(Obligation("left_identity", not idl, tuple(idl[0]) if idl else ()))
    obligations.append(Obligation("right_identity", not idr, tuple(idr[0]) if idr else ()))

    return CheckReport(f"category:{len(c.objects)}obj/{len(c.morphisms)}mor", tuple(obligations))


def preorder_from_covers(objects: Iterable[str], covers: Iterable[tuple]) -> FinCat:
    """Category of the reflexive-transitive closure of a cover relation.

    Morphism x -> y is named "x->y"; identities are "id_x".  Raises
    CycleError when the closure is not antisymmetric, naming the least
    offending pair.  Morphisms and composites are inserted in sorted order.
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

    def name(a, b):
        return f"id_{a}" if a == b else f"{a}->{b}"

    morphisms = {name(a, b): (a, b) for a in objs for b in succ[a]}
    identity = {x: f"id_{x}" for x in objs}
    compose = {
        (name(b, c), name(a, b)): name(a, c) for a in objs for b in succ[a] for c in succ[b]
    }
    return FinCat(objs, morphisms, identity, compose)


def opposite(c: FinCat) -> FinCat:
    """Reverse all arrows; same identifiers, transposed composition table."""
    rep = validate_category(c)
    if not rep.passed:
        raise FinCatError(f"opposite of invalid category: {rep.failures()[0]}")
    morphisms = {m: (co, d) for m, (d, co) in c.morphisms.items()}
    compose = {(f, g): h for (g, f), h in c.compose.items()}
    return FinCat(c.objects, morphisms, dict(c.identity), compose)


@dataclass(frozen=True)
class FunctorVal:
    """Functor as a pair of tables.  target is a FinCat or FINSET."""

    source: FinCat
    target: Any
    object_map: dict
    morphism_map: dict


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

    respcomp = []
    for (g, h), gh in sorted(src.compose.items()):
        if src.cod(h) != src.dom(g):
            continue
        try:
            lhs = tgt.comp(f.morphism_map[g], f.morphism_map[h])
        except (KeyError, ValueError):
            respcomp.append((g, h, "image not composable"))
            continue
        if lhs != f.morphism_map[gh]:
            respcomp.append((g, h))
    obligations.append(
        Obligation("respects_composition", not respcomp, tuple(respcomp[0]) if respcomp else ())
    )
    return CheckReport("functor", tuple(obligations))


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


@dataclass(frozen=True)
class NatTransVal:
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

    square = []
    for h in src.sorted_morphisms():
        c, d = src.dom(h), src.cod(h)
        try:
            lhs = tgt.comp(t.G.morphism_map[h], t.components[c])
            rhs = tgt.comp(t.components[d], t.F.morphism_map[h])
        except (KeyError, ValueError):
            square.append((h, "not composable"))
            continue
        if lhs != rhs:
            if finny:
                bad = sorted(x for x in lhs.table if lhs.table[x] != rhs.table[x])
                square.append((h, bad[0], lhs.table[bad[0]], rhs.table[bad[0]]))
            else:
                square.append((h, lhs, rhs))
    obligations.append(
        Obligation("square_condition", not square, tuple(square[0]) if square else ())
    )
    return CheckReport("nattrans", tuple(obligations))


def comma_under_object(b, f: FunctorVal, orientation: str = "under"):
    """Comma category of a table functor against an object of its target.

    orientation "under": objects (A, phi: b -> f A); "over": (A, phi: f A -> b).
    Returns ``(cat, forget, anatomy)``: the category, the forgetful functor to
    f's source, and ``anatomy[oid] = (A, phi)`` for every object.  The
    identifier format is private to this function; callers use the anatomy.
    Raises MalformedTableError when two pairs would share an identifier.
    """
    if f.target is FINSET:
        raise BoundaryError("comma against an object needs a table-valued functor")
    if orientation not in ("under", "over"):
        raise ValueError(f"unknown orientation {orientation!r}")
    src, tgt = f.source, f.target
    if not tgt.has_object(b):
        raise MalformedTableError(f"unknown object {b!r} in target category")
    anatomy = {}
    for a in src.objects:
        homs = tgt.hom(b, f.object_map[a]) if orientation == "under" else tgt.hom(f.object_map[a], b)
        for phi in homs:
            oid = f"({a},{phi})"
            if oid in anatomy:
                raise MalformedTableError(
                    f"comma objects {anatomy[oid]!r} and {(a, phi)!r} share the identifier {oid!r}"
                )
            anatomy[oid] = (a, phi)
    morphisms = {}
    identity = {}
    mdata = {}
    for o1, (a1, phi1) in anatomy.items():
        for o2, (a2, phi2) in anatomy.items():
            for u in src.hom(a1, a2):
                fu = f.morphism_map[u]
                if orientation == "under":
                    ok = tgt.compose[(fu, phi1)] == phi2
                else:
                    ok = tgt.compose[(phi2, fu)] == phi1
                if ok:
                    mid = f"({u} | {o1} -> {o2})"
                    morphisms[mid] = (o1, o2)
                    mdata[mid] = u
                    if u == src.id_of(a1):
                        identity[o1] = mid
    compose = {}
    for m2, (o2, o3) in morphisms.items():
        for m1, (o1, o1cod) in morphisms.items():
            if o1cod != o2:
                continue
            u = src.compose[(mdata[m2], mdata[m1])]
            compose[(m2, m1)] = f"({u} | {o1} -> {o3})"
    cat = FinCat(tuple(sorted(anatomy)), morphisms, identity, compose)
    forget = FunctorVal(
        cat,
        src,
        {oid: a for oid, (a, _phi) in anatomy.items()},
        {mid: mdata[mid] for mid in morphisms},
    )
    return cat, forget, anatomy
