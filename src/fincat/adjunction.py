"""Adjunctions between finite table categories, and Kan extensions.

An adjunction is stored with *all* of its interchangeable presentations at
once — unit, counit, and the two transposition tables — so each law check
is a finite table comparison:

* :func:`assemble_adjunction` / :func:`verify_adjunction` — package the
  raw parts and check naturality, mutual inversion of the transpositions,
  and both triangle identities.
* :func:`adjunction_from_universal_arrows` — reconstruct the missing
  functor (and the other structure transformation) from one universal
  arrow per object, failing loudly on any non-universal input.
* :func:`precompose_functor`, :func:`kan_extensions` — restriction along
  a functor and its two adjoints, computed pointwise as finite
  limits/colimits over comma categories, with their limit cones and
  colimit cocones, which the two checks below take as built.  No comma
  category is built: the kernels get its objects and the lifts of the
  source's generators, which generate it.  An extension's morphism maps
  are built on their first lookup (:class:`fincat.core.MapsOnDemand`), so
  the checks build only those they read.
* :func:`check_kan_adjointness` — full-enumeration verification that the
  Kan constructions are genuinely adjoint to restriction, including the
  explicit transposition bijections, on transformations as the flat value
  tuples of :func:`fincat.finset.nattrans_values`.
* :func:`counit_inclusion_check` — for a full and faithful functor, the
  comparison from the restricted right Kan extension back to the original
  functor is bijective at every object.

The laws shaped like a naturality square (unit, counit, flat and sharp) are
decided along the categories' ``generators``, which suffices for functors.
Only a law that fails there is checked again along every morphism, in the
order of a full scan, whose first failure is the witness reported.

No result is checked again: over categories, a pointwise Kan extension of
a functor is a functor (Mac Lane, *Categories for the Working
Mathematician*, Thm X.3.1) and universal arrows determine the adjoint
functor (Thm IV.1.2).  The tests check both on bundled and generated inputs.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Optional, Tuple

from .core import (
    FINSET,
    CheckReport,
    FinCat,
    FunctorVal,
    MapsOnDemand,
    NatTransVal,
    Obligation,
    compose_functors,
    identity_functor,
    opposite,
    require_category,
    require_functor,
    square_failure,
    validate_nattrans,
)
from .files import AdjParts
from .finset import (
    DEFAULT_ENUM_CAP,
    FinSetMap,
    nattrans_slices,
    nattrans_values,
    presented_colimit,
    presented_limit,
)
from .record import Record

__all__ = [
    "AdjunctionError",
    "AdjunctionVal",
    "assemble_adjunction",
    "verify_adjunction",
    "adjunction_from_universal_arrows",
    "precompose_functor",
    "kan_extensions",
    "check_kan_adjointness",
    "counit_inclusion_check",
]


class AdjunctionError(Exception):
    """Raised when adjunction data is malformed or a universal arrow fails."""


class AdjunctionVal(Record):
    """An adjunction with the left adjoint on the left.

    left : source -> other, right : other -> source, the unit and counit as
    transformations, and the two transposition tables indexed by object
    pairs:

    flat[(a, b)]  : morphisms a -> right(b)  ->  morphisms left(a) -> b
    sharp[(a, b)] : morphisms left(a) -> b   ->  morphisms a -> right(b)
    """

    left: FunctorVal
    right: FunctorVal
    unit: NatTransVal
    counit: NatTransVal
    flat: Mapping[Tuple[str, str], Mapping[str, str]]
    sharp: Mapping[Tuple[str, str], Mapping[str, str]]

    @property
    def source(self) -> FinCat:
        return self.left.source

    @property
    def other(self) -> FinCat:
        return self.right.source


def _package(
    left: FunctorVal,
    right: FunctorVal,
    unit_components: Mapping[str, str],
    counit_components: Mapping[str, str],
) -> AdjunctionVal:
    """Both structure transformations and both transposition tables,
    flat(h) = counit . left(h) and sharp(g) = right(g) . unit, from
    components checked to be morphisms of their hom-sets."""
    src, oth = left.source, right.source
    missing = [a for a in src.objects if a not in unit_components]
    if missing:
        raise AdjunctionError(f"unit component missing for object {missing[0]!r}")
    missing = [b for b in oth.objects if b not in counit_components]
    if missing:
        raise AdjunctionError(f"counit component missing for object {missing[0]!r}")
    lo, ro = left.object_map, right.object_map
    ends = [(src, a, unit_components[a], a, ro[lo[a]]) for a in src.objects]
    ends += [(oth, b, counit_components[b], lo[ro[b]], b) for b in oth.objects]
    for category, x, arrow, dom, cod in ends:
        if category.morphisms.get(arrow) != (dom, cod):
            raise AdjunctionError(f"arrow {arrow!r} for {x!r} is not a morphism {dom} -> {cod}")
    unit = NatTransVal(
        identity_functor(src), compose_functors(right, left), dict(unit_components)
    )
    counit = NatTransVal(
        compose_functors(left, right), identity_functor(oth), dict(counit_components)
    )
    flat: dict = {}
    sharp: dict = {}
    for a in src.objects:
        for b in oth.objects:
            flat[(a, b)] = {
                h: oth.comp(counit_components[b], left.morphism_map[h])
                for h in src.hom(a, ro[b])
            }
            sharp[(a, b)] = {
                g: src.comp(right.morphism_map[g], unit_components[a])
                for g in oth.hom(lo[a], b)
            }
    return AdjunctionVal(left, right, unit, counit, flat, sharp)


def assemble_adjunction(parts: AdjParts) -> AdjunctionVal:
    """Build an :class:`AdjunctionVal` from a loaded manifest.

    ``full`` manifests supply both functors plus unit and counit components;
    ``build`` manifests supply the right functor and one universal arrow per
    object and are completed by :func:`adjunction_from_universal_arrows`.
    Each functor given must be a functor between table categories; each
    distinct table is checked once, right's before left's, source first.
    """
    checked: list = []
    for role, fun in (("right", parts.right), ("left", parts.left)):
        if fun is None:
            continue
        if fun.target is FINSET:
            raise AdjunctionError(f"{role} is finite-set valued; adjoints here are table functors")
        for end, cat in (("source", fun.source), ("target", fun.target)):
            if cat not in checked:
                require_category(cat, f"{role} {end}")
                checked.append(cat)
        require_functor(fun, role)
    if parts.kind == "build":
        stray = [a for a in parts.unit if a not in parts.lobjects]
        if stray:
            raise AdjunctionError(
                f"unit entry for {stray[0]!r} has no matching chosen object"
            )
        missing = [a for a in parts.lobjects if a not in parts.unit]
        if missing:
            raise AdjunctionError(f"chosen object for {missing[0]!r} has no unit arrow")
        anchors = {a: (parts.lobjects[a], parts.unit[a]) for a in parts.lobjects}
        return adjunction_from_universal_arrows(parts.right, anchors, side="unit")

    left, right = parts.left, parts.right
    if left is None or right is None:
        raise AdjunctionError("manifest is missing a functor")
    if left.target.objects != right.source.objects or left.source.objects != right.target.objects:
        raise AdjunctionError("left and right functors do not form a loop")
    return _package(left, right, parts.unit, parts.counit)


def verify_adjunction(adj: AdjunctionVal) -> CheckReport:
    """All adjunction laws over the finite tables, the naturality laws
    decided along generators and the others by exhaustive enumeration.

    Obligations: naturality of unit and counit, mutual inversion of the two
    transposition tables, naturality of each transposition in both
    variables, and the two triangle identities.
    """
    src, oth = adj.source, adj.other
    left, right = adj.left, adj.right

    def first_failure(report: CheckReport):
        for ob in report.obligations:
            if not ob.passed:
                return (ob.name,) + tuple(ob.witness)
        return ()

    # Squares are decided on generators and rescanned for their witness only
    # when one fails.  _package has checked the typing of each component.
    def natural(name: str, t: NatTransVal) -> Obligation:
        if not any(square_failure(t, h) for h in t.F.source.generators):
            return Obligation(name, True)
        report = validate_nattrans(t)
        return Obligation(name, report.passed, first_failure(report))

    obligations = [natural("unit_natural", adj.unit), natural("counit_natural", adj.counit)]

    bad_inverse = []
    for a in src.objects:
        for b in oth.objects:
            fl, sh = adj.flat[(a, b)], adj.sharp[(a, b)]
            for h, g in fl.items():
                if sh[g] != h:
                    bad_inverse.append((a, b, "sharp(flat(h))", h, sh[g]))
            for g, h in sh.items():
                if fl[h] != g:
                    bad_inverse.append((a, b, "flat(sharp(g))", g, fl[h]))
    obligations.append(
        Obligation(
            "flat_sharp_inverse",
            not bad_inverse,
            tuple(bad_inverse[0]) if bad_inverse else (),
        )
    )

    def first_unnatural(*table_and_functors):
        failures = _naturality_failures(adj, *table_and_functors, src.generators, oth.generators)
        if next(failures, None) is None:
            return None
        return next(_naturality_failures(adj, *table_and_functors, src.morphisms, oth.morphisms))

    src_id, oth_id = identity_functor(src), identity_functor(oth)
    flat_failure = first_unnatural(adj.flat, src_id, right, left, oth_id)
    sharp_failure = first_unnatural(adj.sharp, left, oth_id, src_id, right)
    obligations.append(Obligation("flat_natural", flat_failure is None, flat_failure or ()))
    obligations.append(Obligation("sharp_natural", sharp_failure is None, sharp_failure or ()))

    bad_left = []
    for a in src.objects:
        la = left.object_map[a]
        got = oth.comp(adj.counit.components[la], left.morphism_map[adj.unit.components[a]])
        if got != oth.id_of(la):
            bad_left.append((a, got))
    obligations.append(
        Obligation("triangle_left", not bad_left, tuple(bad_left[0]) if bad_left else ())
    )

    bad_right = []
    for b in oth.objects:
        rb = right.object_map[b]
        got = src.comp(right.morphism_map[adj.counit.components[b]], adj.unit.components[rb])
        if got != src.id_of(rb):
            bad_right.append((b, got))
    obligations.append(
        Obligation("triangle_right", not bad_right, tuple(bad_right[0]) if bad_right else ())
    )

    return CheckReport("adjunction", tuple(obligations))


def _naturality_failures(adj: AdjunctionVal, table, p, q, p2, q2, fs, ks):
    """Witnesses (f, k, h, lhs, rhs) against the naturality of a transposition
    table[(a, b)] : hom(P a, Q b) -> hom(P2 a, Q2 b), where P, P2 act on the
    source category and Q, Q2 on the other one, along the source morphisms
    ``fs`` and the other morphisms ``ks``.

    Naturality is checked in each variable separately: first in a
    (f : a2 -> a, with k = id_b), then in b (k : b -> b2, with f = id_a), one
    cell at a time.  The first law at h' = Q(k) . h followed by the second
    gives table(Q(k) . h . P(f)) = Q2(k) . table(h) . P2(f), bracketed as the
    joint law is, so the joint law holds whenever both loops pass; for lawful
    categories and functors the converse holds too.  Each law holds along
    every morphism when it holds along generators, since P, Q, P2 and Q2 are
    functors.
    """
    src, oth = adj.source, adj.other
    dom, cod = p.target, p2.target
    for f in fs:
        a2, a = src.morphisms[f]
        pf, pf2 = p.morphism_map[f], p2.morphism_map[f]
        for b in oth.objects:
            before, after = table[(a, b)], table[(a2, b)]
            for h in dom.hom(p.object_map[a], q.object_map[b]):
                lhs = after[dom.comp(h, pf)]
                rhs = cod.comp(before[h], pf2)
                if lhs != rhs:
                    yield (f, oth.id_of(b), h, lhs, rhs)
    for k in ks:
        b, b2 = oth.morphisms[k]
        qk, qk2 = q.morphism_map[k], q2.morphism_map[k]
        for a in src.objects:
            before, after = table[(a, b)], table[(a, b2)]
            for h in dom.hom(p.object_map[a], q.object_map[b]):
                lhs = after[dom.comp(qk, h)]
                rhs = cod.comp(qk2, before[h])
                if lhs != rhs:
                    yield (src.id_of(a), k, h, lhs, rhs)


def adjunction_from_universal_arrows(
    functor: FunctorVal,
    anchors: Mapping[str, Tuple[str, str]],
    side: str = "unit",
) -> AdjunctionVal:
    """Complete an adjunction from one universal arrow per object.

    With ``side="unit"`` the given functor is the right adjoint
    R : other -> source and ``anchors[a] = (chosen, arrow)`` supplies, for
    each source object, an object of the other category and a morphism
    a -> R(chosen); each must be universal (for every b and every
    g : a -> R(b) exactly one u : chosen -> b has R(u) . arrow = g).  The
    left adjoint's action on morphisms and the counit are the unique
    solutions, for a functor between categories.  With ``side="counit"``
    the roles are dualised: the given functor is the left adjoint and the
    arrows run left(chosen) -> b.  That case is solved as the unit side of
    the opposite adjunction, since L -| R exactly when R^op -| L^op; its
    error messages therefore speak of the opposite categories.
    """
    if side not in ("unit", "counit"):
        raise AdjunctionError(f"side must be 'unit' or 'counit', not {side!r}")
    if side == "counit":
        return _from_counit_arrows(functor, anchors)

    right = functor
    src, oth = right.target, right.source
    for a in src.objects:
        if a not in anchors:
            raise AdjunctionError(f"no universal arrow given for object {a!r}")
    for a, (chosen, arrow) in anchors.items():
        if a not in set(src.objects):
            raise AdjunctionError(f"{a!r} is not an object of the source category")
        if chosen not in set(oth.objects):
            raise AdjunctionError(f"chosen object {chosen!r} does not exist")
        want = (a, right.object_map[chosen])
        if src.morphisms.get(arrow) != want:
            raise AdjunctionError(
                f"arrow {arrow!r} for {a!r} is not a morphism {want[0]} -> {want[1]}"
            )

    # solved[(a, b)][g]: each u : chosen(a) -> b with R(u) . arrow(a) = g
    solved = {}
    for a in sorted(anchors):
        chosen, arrow = anchors[a]
        for b in sorted(oth.objects):
            found = {g: [] for g in src.hom(a, right.object_map[b])}
            for u in oth.hom(chosen, b):
                found[src.comp(right.morphism_map[u], arrow)].append(u)
            for g, sols in found.items():
                if len(sols) != 1:
                    raise AdjunctionError(
                        f"arrow for {a!r} is not universal: "
                        f"{len(sols)} solutions for target {b!r} and morphism {g!r}"
                    )
            solved[(a, b)] = found

    object_map = {a: anchors[a][0] for a in src.objects}
    morphism_map = {
        f: solved[(a2, object_map[a])][src.comp(anchors[a][1], f)][0]
        for f, (a2, a) in src.morphisms.items()
    }
    left = FunctorVal(src, oth, object_map, morphism_map)

    unit_components = {a: anchors[a][1] for a in src.objects}
    counit_components = {}
    for b in oth.objects:
        rb = right.object_map[b]
        counit_components[b] = solved[(rb, b)][src.id_of(rb)][0]

    return _package(left, right, unit_components, counit_components)


def _from_counit_arrows(
    left: FunctorVal, anchors: Mapping[str, Tuple[str, str]]
) -> AdjunctionVal:
    src, oth = left.source, left.target
    left_op = FunctorVal(opposite(src), opposite(oth), left.object_map, left.morphism_map)
    dual = adjunction_from_universal_arrows(left_op, anchors, side="unit")
    right = FunctorVal(oth, src, dual.left.object_map, dual.left.morphism_map)
    return _package(left, right, dual.counit.components, dual.unit.components)


# ---------------------------------------------------------------------------
# Kan extensions of finite-set valued functors along a functor between
# finite categories.
# ---------------------------------------------------------------------------


def precompose_functor(along: FunctorVal, functor: FunctorVal) -> FunctorVal:
    """Restriction: the composite  functor . along  (pull a diagram back)."""
    if along.target != functor.source:
        raise AdjunctionError("functors are not composable")
    return compose_functors(functor, along)


def _comma_presentation(along: FunctorVal, functor: FunctorVal, b, under: bool) -> tuple:
    """The functor's diagram over the comma category of ``along`` under b
    (objects (a, phi : b -> along(a))) or over b (phi : along(a) -> b),
    presented without building it: the objects in sorted order, each valued
    functor(a), and the lifts (a1, phi) -> (a2, along(u) . phi) under b, or
    (a1, phi . along(u)) -> (a2, phi) over b, of each generator u : a1 -> a2
    of the source.  The lifts generate the comma category, since a comma
    morphism over u = g_k . ... . g_1 factors through the objects
    (a_i, along(g_i . ... . g_1) . phi) (Mac Lane, §II.7)."""
    src, tgt = along.source, along.target
    image = along.object_map
    homs = {a: tgt.hom(b, image[a]) if under else tgt.hom(image[a], b) for a in src.objects}
    objects = [(a, phi) for a in sorted(src.objects) for phi in homs[a]]
    values = {o: functor.object_map[o[0]] for o in objects}
    edges = []
    for u in src.generators:
        a1, a2 = src.morphisms[u]
        ku, su = along.morphism_map[u], functor.morphism_map[u]
        if under:
            edges += [((a1, phi), su, (a2, tgt.comp(ku, phi))) for phi in homs[a1]]
        else:
            edges += [((a1, tgt.comp(phi, ku)), su, (a2, phi)) for phi in homs[a2]]
    return objects, values, edges


def kan_extensions(
    along: FunctorVal, functor: FunctorVal, cap: int = DEFAULT_ENUM_CAP
) -> tuple:
    """Both pointwise Kan extensions of a set-valued functor with their
    universal legs, after one check of each input and its tables:
    ``((rkan, cones), (lkan, cocones))``.

    The right extension's value at b is the limit of the functor over the
    slice of objects under b (pairs (a, phi : b -> along(a))); a morphism
    k : b -> b2 acts by reindexing a compatible family along
    phi -> phi . k.  ``cones[b]`` maps each such (a, phi) to the limit
    projection rkan(b) -> functor(a).

    The left extension's value at b is the colimit of the functor over the
    slice of objects over b (pairs (a, phi : along(a) -> b)); k pushes a
    class forward along phi -> k . phi.  ``cocones[b]`` maps each such
    (a, phi) to the colimit injection functor(a) -> lkan(b).  Each slice is
    presented, not built (``_comma_presentation``), and each morphism map
    of an extension is built on its first lookup.
    """
    _require_setvalued(along, functor)
    return _right_kan_with_cones(along, functor, cap), _left_kan_with_cocones(along, functor)


def _right_kan_with_cones(along: FunctorVal, functor: FunctorVal, cap: int) -> tuple:
    """The right Kan extension and its cones, for inputs that passed
    ``_require_setvalued``."""
    tgt = along.target
    object_map = {}
    cones = {}
    for b in tgt.objects:
        object_map[b], cones[b] = presented_limit(
            *_comma_presentation(along, functor, b, under=True), cap
        )

    # An element at b2 is a family over the slice objects in cones[b2]'s order.
    def reindex(k):
        b, b2 = tgt.morphisms[k]
        legs = [cones[b][(a, tgt.comp(phi, k))] for a, phi in cones[b2]]
        images = (tuple(leg(element) for leg in legs) for element in object_map[b])
        return FinSetMap(object_map[b], object_map[b2], images)

    return FunctorVal(tgt, FINSET, object_map, MapsOnDemand(tgt.morphisms, reindex)), cones


def _left_kan_with_cocones(along: FunctorVal, functor: FunctorVal) -> tuple:
    """The left Kan extension and its cocones, for inputs that passed
    ``_require_setvalued``."""
    tgt = along.target
    object_map = {}
    cocones = {}
    for b in tgt.objects:
        object_map[b], cocones[b] = presented_colimit(
            *_comma_presentation(along, functor, b, under=False)
        )

    # A class at b is its least pair ((a, phi), x); k pushes it along phi -> k . phi.
    def push(k):
        b, b2 = tgt.morphisms[k]
        images = (cocones[b2][(a, tgt.comp(k, phi))](x) for (a, phi), x in object_map[b])
        return FinSetMap(object_map[b], object_map[b2], images)

    return FunctorVal(tgt, FINSET, object_map, MapsOnDemand(tgt.morphisms, push)), cocones


def _require_setvalued(along: FunctorVal, functor: FunctorVal) -> None:
    if functor.target is not FINSET:
        raise AdjunctionError("Kan extensions here require a finite-set valued functor")
    if functor.source != along.source:
        raise AdjunctionError("functor is not defined on the extension's source")
    if along.target is FINSET:
        raise AdjunctionError("Kan extensions here run along a functor between table categories")
    require_category(along.source, "along source")
    if along.target != along.source:
        require_category(along.target, "along target")
    require_functor(along, "along")
    require_functor(functor)


def check_kan_adjointness(
    along: FunctorVal,
    target_functor: FunctorVal,
    source_functor: FunctorVal,
    extensions: tuple,
    cap: int = DEFAULT_ENUM_CAP,
) -> CheckReport:
    """Both Kan adjunctions, by full enumeration of transformation sets.

    With S the source-side functor, G the target-side one and
    ``extensions`` = :func:`kan_extensions` of ``along`` and S, the report
    checks

    * |Nat(leftkan S, G)| = |Nat(S, restrict G)| with the transposition
      "evaluate at the class of (a, identity)" realising a bijection, and
    * |Nat(restrict G, S)| = |Nat(G, rightkan S)| with the transposition
      "project at (a, identity)" realising a bijection.

    A transformation is its flat tuple of values from :func:`nattrans_values`.
    Each transposition is planned once per call from the (co)cone legs at
    the comma objects (a, identity): t -> (t at along(a)) . leg_a gathers
    fixed positions of t, and t -> leg_a . (t at along(a)) pushes the slice
    of t at along(a) through leg_a.  A leg that does not compose with the
    component it meets raises ValueError("maps not composable").

    Each obligation name ends in ``[0]``, as the ``kan`` command prints it.
    """
    restricted = precompose_functor(along, target_functor)
    (rkan, cones), (lkan, cocones) = extensions

    def legs(legs_of):
        """Each sorted source object a with along(a) and the (co)cone leg at
        the comma object (a, identity)."""
        for a in sorted(along.source.objects):
            fa = along.object_map[a]
            yield a, fa, legs_of[fa][(a, along.target.id_of(fa))]

    def gather():
        """Position in t of (t at along(a))(leg_a(x)), for every a and x."""
        slices = nattrans_slices(lkan)
        positions, agree = [], True
        for a, fa, leg in legs(cocones):
            if leg.cod != lkan.object_map[fa]:
                raise ValueError("maps not composable")
            agree = agree and leg.dom == source_functor.object_map[a]
            index = lkan.object_map[fa].index
            positions += [slices[fa].start + index[x] for x in leg.values]
        return (lambda t: tuple(map(t.__getitem__, positions))), agree

    def push():
        """The slice of t at along(a) and leg_a as a lookup, for every a."""
        slices = nattrans_slices(target_functor)
        plan, agree = [], True
        for a, fa, leg in legs(cones):
            if rkan.object_map[fa] != leg.dom:
                raise ValueError("maps not composable")
            agree = agree and leg.cod == source_functor.object_map[a]
            plan.append((dict(zip(leg.dom.atoms, leg.values)).__getitem__, slices[fa]))
        return (lambda t: tuple(chain.from_iterable(map(f, t[part]) for f, part in plan))), agree

    left = _adjunction_obligations(
        "left",
        nattrans_values(lkan, target_functor, cap),
        nattrans_values(source_functor, restricted, cap),
        gather,
    )
    right = _adjunction_obligations(
        "right",
        nattrans_values(restricted, source_functor, cap),
        nattrans_values(target_functor, rkan, cap),
        push,
    )
    return CheckReport("kan_adjointness", tuple(left + right))


def _adjunction_obligations(side, upstairs, downstairs, transposition) -> list:
    """Count and transposition obligations of one Kan adjunction
    Nat(L x, y) ≅ Nat(x, R y), given both sides as flat tuples.

    ``transposition()`` plans the map of a tuple involving the Kan extension
    (upstairs for the left extension, downstairs for the right) to the other
    side, and says whether the transposed components have that side's
    domains and codomains; it is planned only when there is a tuple to
    transpose.
    """
    counted = len(upstairs) == len(downstairs)
    source, target = (upstairs, downstairs) if side == "left" else (downstairs, upstairs)
    transposed, agree = set(), True
    if source:
        transpose, agree = transposition()
        transposed = set(map(transpose, source))
    wanted = set(target)
    ok = agree and len(transposed) == len(source) and transposed == wanted
    return [
        Obligation(
            f"{side}_count[0]",
            counted,
            () if counted else (len(upstairs), len(downstairs)),
        ),
        Obligation(
            f"{side}_transpose_bijective[0]",
            ok,
            () if ok else (len(transposed), len(source), len(wanted)),
        ),
    ]


def _fully_faithful_witness(along: FunctorVal) -> Optional[tuple]:
    """None when the functor is injective on objects, full, and faithful."""
    images = {}
    for a in along.source.objects:
        fa = along.object_map[a]
        if fa in images:
            return ("objects_collide", images[fa], a)
        images[fa] = a
    for a in along.source.objects:
        for a2 in along.source.objects:
            upstairs = along.source.hom(a, a2)
            sent = [along.morphism_map[m] for m in upstairs]
            if len(set(sent)) != len(sent):
                return ("not_faithful", a, a2)
            downstairs = along.target.hom(along.object_map[a], along.object_map[a2])
            if set(sent) != set(downstairs):
                return ("not_full", a, a2)
    return None


def counit_inclusion_check(along: FunctorVal, functor: FunctorVal, cones: Mapping) -> CheckReport:
    """Restricting the right Kan extension along a full inclusion loses nothing.

    Requires the functor being extended along to be injective on objects,
    full, and faithful; when that precondition fails the report carries the
    witness and the remaining checks are skipped.  Otherwise the comparison
    map at each source object (projection at the slice object carrying the
    identity) must be a bijection onto the original functor's value;
    ``cones`` are the right extension's cones from :func:`kan_extensions`.
    """
    witness = _fully_faithful_witness(along)
    if witness is not None:
        return CheckReport(
            "counit_inclusion",
            (Obligation("fully_faithful_inclusion", False, witness),),
        )
    obligations = [Obligation("fully_faithful_inclusion", True, ())]
    for a in sorted(along.source.objects):
        fa = along.object_map[a]
        comparison = cones[fa][(a, along.target.id_of(fa))]
        image = set(comparison.values)
        bijective = (
            len(comparison.dom) == len(comparison.cod)
            and len(image) == len(comparison.dom)
            and comparison.cod == functor.object_map[a]
        )
        obligations.append(
            Obligation(
                f"iso_at[{a}]",
                bijective,
                ()
                if bijective
                else (len(comparison.dom), len(functor.object_map[a]), len(image)),
            )
        )
    return CheckReport("counit_inclusion", tuple(obligations))
