"""Adjunctions from manifests and universal arrows; pointwise Kan extensions."""

import collections
import glob
import io
import os
import random
import sys

import pytest
from oracles import (
    all_pairs_naturality,
    comma_kan_extensions,
    elementwise_naturality_failures,
    materialised_kan_adjointness,
    rebuilding_kan_command,
    scanning_universal_arrows,
)
from helpers import explicit_copies
from test_yoneda import _seeded_forest_functor

from fincat import adjunction, cli, core
from fincat.adjunction import (
    AdjunctionError,
    adjunction_from_universal_arrows,
    assemble_adjunction,
    check_kan_adjointness,
    counit_inclusion_check,
    kan_extensions,
    precompose_functor,
    verify_adjunction,
)
from fincat.core import (
    FINSET,
    FinCat,
    FinCatError,
    FunctorVal,
    identity_functor,
    preorder_from_covers,
    validate_functor,
)
from fincat.finset import CapExceededError, FinSetMap, FinSetObj, identity_map
from fincat.files import load_adjunction_parts, load_category, load_functor

LAW_NAMES = [
    "unit_natural",
    "counit_natural",
    "flat_sharp_inverse",
    "flat_natural",
    "sharp_natural",
    "triangle_left",
    "triangle_right",
]

# Value-set sizes of the four Kan extensions used throughout, frozen from
# independent runs of the limit/colimit constructions.
RKAN_GA_SIZES = {"1": 1, "2": 1, "3": 1, "4": 2, "5": 1, "6": 1}
RKAN_H_SIZES = {"1": 4, "2": 2, "3": 2, "4": 2, "5": 2, "6": 1}
LKAN_GA_SIZES = {"1": 0, "2": 1, "3": 1, "4": 2, "5": 1, "6": 3}
LKAN_H_SIZES = {"1": 0, "2": 2, "3": 2, "4": 2, "5": 2, "6": 4}


@pytest.fixture(scope="module")
def galois(fix):
    return assemble_adjunction(load_adjunction_parts(fix("galois.adj")))


# ---------------------------------------------------------------------------
# Full manifests and the law suite
# ---------------------------------------------------------------------------


def test_galois_adjunction_verifies(galois):
    report = verify_adjunction(galois)
    assert report.passed, report.summary()
    assert [o.name for o in report.obligations] == LAW_NAMES


def test_transposition_tables(galois):
    # The unique morphism 0 -> trunc(2) = 1 transposes to incl(0) = 0 -> 2.
    assert dict(galois.flat[("0", "2")]) == {"0->1": "0->2"}
    assert dict(galois.sharp[("0", "2")]) == {"0->2": "0->1"}
    for key, table in galois.flat.items():
        back = galois.sharp[key]
        assert all(back[table[h]] == h for h in table)


def test_bad_counit_fails_exactly_the_inversion_laws(fix):
    adj = assemble_adjunction(load_adjunction_parts(fix("monoid_bad_counit.adj")))
    report = verify_adjunction(adj)
    assert not report.passed
    verdicts = {o.name: o.passed for o in report.obligations}
    assert verdicts == {
        "unit_natural": True,
        "counit_natural": True,
        "flat_sharp_inverse": False,
        "flat_natural": True,
        "sharp_natural": True,
        "triangle_left": False,
        "triangle_right": False,
    }
    assert report.obligation("triangle_left").witness == ("*", "e")
    assert all(o.witness for o in report.obligations if not o.passed)


def test_full_manifest_guards(fix):
    parts = load_adjunction_parts(fix("galois.adj"))
    broken = parts.replace(unit={"0": "id_0"})  # missing at 1
    with pytest.raises(AdjunctionError, match="unit component missing"):
        assemble_adjunction(broken)
    with pytest.raises(AdjunctionError, match="missing a functor"):
        assemble_adjunction(parts.replace(left=None))


# ---------------------------------------------------------------------------
# Solving adjunctions from universal arrows
# ---------------------------------------------------------------------------


def test_build_manifest_reconstructs_the_left_adjoint(fix, galois):
    built = assemble_adjunction(load_adjunction_parts(fix("galois_build.adj")))
    assert built.left == galois.left
    assert built.left.morphism_map == {"0->1": "0->1", "id_0": "id_0", "id_1": "id_1"}
    assert built.counit.components == {"0": "id_0", "1": "id_1", "2": "1->2"}
    assert verify_adjunction(built).passed


def test_counit_side_arrows_reconstruct_the_right_adjoint(fix, galois):
    incl = load_functor(fix("incl_p_q.fun"))
    anchors = {"0": ("0", "id_0"), "1": ("1", "id_1"), "2": ("1", "1->2")}
    dual = adjunction_from_universal_arrows(incl, anchors, side="counit")
    assert dual.right.object_map == {"0": "0", "1": "1", "2": "1"}
    assert dual.unit.components == {"0": "id_0", "1": "id_1"}
    assert dual.right == galois.right
    assert dual == galois  # flat, sharp and counit included
    assert verify_adjunction(dual).passed


def test_non_universal_counit_side_arrows_are_rejected(fix):
    incl = load_functor(fix("incl_p_q.fun"))
    anchors = {"0": ("0", "id_0"), "1": ("0", "0->1"), "2": ("1", "1->2")}
    with pytest.raises(AdjunctionError, match="is not universal: 0 solutions"):
        adjunction_from_universal_arrows(incl, anchors, side="counit")


def test_non_universal_arrows_are_rejected(fix):
    trunc = load_functor(fix("trunc_q_p.fun"))
    with pytest.raises(AdjunctionError, match="is not universal: 0 solutions"):
        adjunction_from_universal_arrows(trunc, {"0": ("0", "id_0"), "1": ("2", "id_1")})
    with pytest.raises(AdjunctionError, match="no universal arrow given"):
        adjunction_from_universal_arrows(trunc, {"0": ("0", "id_0")})
    with pytest.raises(AdjunctionError, match="chosen object"):
        adjunction_from_universal_arrows(trunc, {"0": ("9", "id_0"), "1": ("1", "id_1")})
    with pytest.raises(AdjunctionError, match="is not a morphism"):
        adjunction_from_universal_arrows(trunc, {"0": ("0", "0->1"), "1": ("1", "id_1")})
    with pytest.raises(AdjunctionError, match="side must be"):
        adjunction_from_universal_arrows(trunc, {}, side="sideways")


def test_build_manifest_consistency_guards(fix):
    parts = load_adjunction_parts(fix("galois_build.adj"))
    stray = parts.replace(unit={**parts.unit, "9": "id_0"})
    with pytest.raises(AdjunctionError, match="no matching chosen object"):
        assemble_adjunction(stray)
    short = parts.replace(unit={"0": "id_0"})
    with pytest.raises(AdjunctionError, match="has no unit arrow"):
        assemble_adjunction(short)


# ---------------------------------------------------------------------------
# Naturality of flat and sharp, one variable at a time, against the check
# over every pair of morphisms (tests/oracles.py)
# ---------------------------------------------------------------------------

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _pair(x, y):
    return f"{x}|{y}"


def _product(c, d):
    """The product category c x d; objects and morphisms are named x|y."""
    return FinCat(
        tuple(_pair(x, y) for x in c.objects for y in d.objects),
        {
            _pair(f, g): (_pair(c.dom(f), d.dom(g)), _pair(c.cod(f), d.cod(g)))
            for f in c.morphisms
            for g in d.morphisms
        },
        {_pair(x, y): _pair(c.id_of(x), d.id_of(y)) for x in c.objects for y in d.objects},
        {
            (_pair(g1, g2), _pair(f1, f2)): _pair(h1, h2)
            for (g1, f1), h1 in c.compose.items()
            for (g2, f2), h2 in d.compose.items()
        },
    )


def _product_functor(fun, gun, source, target):
    return FunctorVal(
        source,
        target,
        {_pair(x, y): _pair(fun.object_map[x], gun.object_map[y])
         for x in fun.source.objects for y in gun.source.objects},
        {_pair(f, g): _pair(fun.morphism_map[f], gun.morphism_map[g])
         for f in fun.source.morphisms for g in gun.source.morphisms},
    )


def _non_preorder_adjunctions(fix, galois):
    """Adjunctions whose hom-sets have two elements, so a table entry can be
    changed to another morphism of the same hom-set: the identity adjunction
    on the idempotent monoid, the manifest with the bad counit, and inclusion
    -| truncation times the identity on the monoid."""
    monoid = load_category(fix("monoid_e.fincat"))
    ident = identity_functor(monoid)
    small = _product(galois.source, monoid)
    big = _product(galois.other, monoid)
    right = _product_functor(galois.right, ident, big, small)
    anchors = {
        _pair(a, m): (
            _pair(galois.left.object_map[a], m),
            _pair(galois.unit.components[a], monoid.id_of(m)),
        )
        for a in galois.source.objects
        for m in monoid.objects
    }
    return [
        adjunction_from_universal_arrows(ident, {"*": ("*", "id_*")}),
        assemble_adjunction(load_adjunction_parts(fix("monoid_bad_counit.adj"))),
        adjunction_from_universal_arrows(right, anchors),
    ]


def _chain(n, prefix):
    objects = [f"{prefix}{i}" for i in range(n)]
    return preorder_from_covers(objects, list(zip(objects, objects[1:])))


def _monotone_right(rng, big, small):
    """A seeded monotone map from chain ``big`` to chain ``small`` that
    sends the top to the top, as a functor."""
    ranks = sorted(rng.randrange(len(small.objects)) for _ in big.objects[:-1])
    object_map = dict(zip(big.objects, [small.objects[r] for r in ranks] + [small.objects[-1]]))
    morphism_map = {
        f: small.hom(object_map[x], object_map[y])[0] for f, (x, y) in big.morphisms.items()
    }
    return FunctorVal(big, small, object_map, morphism_map)


def _seeded_anchors(rng, right):
    """One arrow a -> R(chosen) per object a, with chosen drawn among the
    objects that have one; half the time the least of them, whose arrow is
    universal on a chain."""
    anchors = {}
    for a in right.target.objects:
        reach = [b for b in right.source.objects if right.target.hom(a, right.object_map[b])]
        chosen = reach[0] if rng.random() < 0.5 else rng.choice(reach)
        anchors[a] = (chosen, right.target.hom(a, right.object_map[chosen])[0])
    return anchors


def _solved_or_error(solve, right, anchors):
    try:
        return solve(right, anchors)
    except AdjunctionError as exc:
        return str(exc)


def test_universal_arrows_solve_as_the_scan_does(fix):
    """On seeded monotone maps between chains, Galois pairs when each arrow
    is the least, the solved left adjoint and counit, or the error, are the
    scan's.  So they are on the product with the idempotent monoid: with the
    identity on the monoid, hom-sets have two elements and solutions stay
    unique; with the projection, which is not faithful, every solution is
    found twice."""
    monoid = load_category(fix("monoid_e.fincat"))
    ident = identity_functor(monoid)
    rng = random.Random(37)
    outcomes = collections.Counter()
    for _ in range(60):
        n = rng.randrange(1, 6)
        big = _chain(n, "g")
        small = _chain(rng.randrange(1, n + 1), "s")
        right = _monotone_right(rng, big, small)
        anchors = _seeded_anchors(rng, right)
        big_m, small_m = _product(big, monoid), _product(small, monoid)
        timesm = _product_functor(right, ident, big_m, small_m)
        projected = FunctorVal(
            big_m,
            small,
            {_pair(x, "*"): right.object_map[x] for x in big.objects},
            {_pair(f, m): right.morphism_map[f] for f in big.morphisms for m in monoid.morphisms},
        )
        cases = [
            (right, anchors),
            (timesm, {
                _pair(a, "*"): (_pair(chosen, "*"), _pair(arrow, "id_*"))
                for a, (chosen, arrow) in anchors.items()
            }),
            (projected, {a: (_pair(chosen, "*"), arrow) for a, (chosen, arrow) in anchors.items()}),
        ]
        for functor, arrows in cases:
            want = _solved_or_error(scanning_universal_arrows, functor, arrows)
            got = _solved_or_error(adjunction_from_universal_arrows, functor, arrows)
            if isinstance(got, str):
                assert got == want
                outcomes[got.split(": ")[1].split(" solutions")[0]] += 1
            else:
                assert (got.left, dict(got.counit.components)) == want
                outcomes["solved"] += 1
    assert set(outcomes) == {"0", "2", "solved"}, outcomes


def _single_entry_corruptions(adj):
    """Every adjunction obtained by changing one flat or one sharp entry to
    another morphism of the same hom-set."""
    src, oth = adj.source, adj.other
    for field, cat, hom_of in (
        ("flat", oth, lambda a, b: oth.hom(adj.left.object_map[a], b)),
        ("sharp", src, lambda a, b: src.hom(a, adj.right.object_map[b])),
    ):
        tables = getattr(adj, field)
        for (a, b), table in tables.items():
            for key, value in table.items():
                for other in hom_of(a, b):
                    if other != value:
                        bent = {**tables, (a, b): {**table, key: other}}
                        yield adj.replace(**{field: bent})


def _assert_matches_all_pairs(adj):
    """Same verdicts as the all-pairs check; a failure names one of its
    failures with f or k an identity, and is the first failure of the
    cell-by-cell scan.  Returns the loops that failed."""
    report = verify_adjunction(adj)
    loops = set()
    identities_src = set(adj.source.identity.values())
    identities_oth = set(adj.other.identity.values())
    src_id, oth_id = identity_functor(adj.source), identity_functor(adj.other)
    scans = (
        elementwise_naturality_failures(adj, adj.flat, src_id, adj.right, adj.left, oth_id),
        elementwise_naturality_failures(adj, adj.sharp, adj.left, oth_id, src_id, adj.right),
    )
    for name, failures, scan in zip(
        ("flat_natural", "sharp_natural"), all_pairs_naturality(adj), scans
    ):
        ob = report.obligation(name)
        assert ob.witness == next(scan, ()), name
        assert ob.passed == (not failures), name
        if not ob.passed:
            f, k = ob.witness[:2]
            assert k in identities_oth or f in identities_src, ob.witness
            assert ob.witness in failures
            loops.add((name, "a" if k in identities_oth else "b"))
    return loops


def _perfbench_cases(fix, tmp_path, workload):
    """The benchmark's inputs for ``workload`` at seed 1, written under
    ``tmp_path``, and its generator module."""
    sys.path.insert(0, PERFBENCH)
    try:
        import gen
    finally:
        sys.path.remove(PERFBENCH)
    return gen, gen.build(workload, 1, str(tmp_path), fix(""))


def test_solved_left_adjoints_are_functors(fix, tmp_path):
    """``adjunction_from_universal_arrows`` does not check the functor it
    solves: universality makes it one.  Every bundled build manifest and
    every generated Galois pair bears that out."""
    _gen, cases = _perfbench_cases(fix, tmp_path, "tables")
    generated = [c.argv[2] for c in cases if c.argv[:2] == ["adj", "build"]]
    bundled = [p for p in sorted(glob.glob(fix("*.adj"))) if "lobjects:" in open(p).read()]
    assert len(bundled) == 1 and len(generated) == 7
    for path in bundled + generated:
        parts = load_adjunction_parts(path)
        assert parts.kind == "build"
        assert validate_functor(assemble_adjunction(parts).left).passed, path


def _to_point(category):
    """The functor from ``category`` to the one-object category."""
    objects = dict.fromkeys(category.objects, "*")
    morphisms = dict.fromkeys(category.morphisms, "id_*")
    return FunctorVal(category, preorder_from_covers(["*"], []), objects, morphisms)


def test_kan_extensions_of_lawful_inputs_are_functors(fix, tmp_path):
    """``kan_extensions`` does not check the extensions it builds: pointwise
    Kan extensions of a functor between categories are functors.  Both
    extensions bear that out on every bundled pair that ``kan`` accepts, on
    seeded set-valued functors on forest preorders along their identity and
    to the point, and on every pair of the benchmark's ``sets`` workload
    whose extensions fit under the default cap."""
    paths = sorted(glob.glob(fix("*.fun")) + glob.glob(fix("broken", "*.fun")))
    funs = [load_functor(p) for p in paths]
    pairs = [(a, f) for a in funs if a.target is not FINSET for f in funs if f.target is FINSET]
    rng = random.Random(7)
    for functor in (_seeded_forest_functor(rng) for _ in range(16)):
        pairs += [(identity_functor(functor.source), functor), (_to_point(functor.source), functor)]
    _gen, cases = _perfbench_cases(fix, tmp_path, "sets")
    kan_calls = [c.argv for c in cases if c.argv[0] == "kan"]
    pairs += [(load_functor(argv[1]), load_functor(argv[2])) for argv in kan_calls]
    built = 0
    for along, functor in pairs:
        try:
            extensions = kan_extensions(along, functor)
        except (AdjunctionError, CapExceededError):
            continue  # not a lawful pair, or too large
        for kan, _legs in extensions:
            assert validate_functor(kan).passed
        built += 1
    assert built == 3 + 2 * 16 + 85  # bundled, seeded, the workload's kan calls


def test_naturality_matches_all_pairs_on_manifests(fix, tmp_path):
    gen, cases = _perfbench_cases(fix, tmp_path, "tables")
    generated = [c.argv[2] for c in cases if c.argv[0] == "adj"]
    assert len(generated) == 2 * len(gen.GALOIS)
    for path in sorted(glob.glob(fix("*.adj"))) + generated:
        assert _assert_matches_all_pairs(assemble_adjunction(load_adjunction_parts(path))) == set()


def test_naturality_matches_all_pairs_on_corrupted_tables(fix, galois):
    loops = set()
    count = 0
    for adj in _non_preorder_adjunctions(fix, galois):
        assert _assert_matches_all_pairs(adj) == set()
        for bent in _single_entry_corruptions(adj):
            loops |= _assert_matches_all_pairs(bent)
            count += 1
    assert count == 28
    # each obligation's first witness comes from each loop somewhere
    assert loops == {(name, loop) for name in ("flat_natural", "sharp_natural") for loop in "ab"}


# ---------------------------------------------------------------------------
# Kan extensions along the full inclusion of the middle of the six-object
# preorder
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def inc(fix):
    return load_functor(fix("incl_a4_b6.fun"))


def _right_kan(along, functor):
    return kan_extensions(along, functor)[0][0]


def _left_kan(along, functor):
    return kan_extensions(along, functor)[1][0]


def test_right_kan_sizes_frozen(inc, g_on_a, h_on_a):
    rk_ga = _right_kan(inc, g_on_a)
    rk_h = _right_kan(inc, h_on_a)
    assert {d: len(rk_ga.object_map[d]) for d in rk_ga.object_map} == RKAN_GA_SIZES
    assert {d: len(rk_h.object_map[d]) for d in rk_h.object_map} == RKAN_H_SIZES
    # Nothing sits under the top object, so the limit there is the
    # one-element set carrying the empty family.
    assert rk_h.object_map["6"].atoms == ((),)


def test_left_kan_sizes_frozen(inc, g_on_a, h_on_a):
    lk_ga = _left_kan(inc, g_on_a)
    lk_h = _left_kan(inc, h_on_a)
    assert {d: len(lk_ga.object_map[d]) for d in lk_ga.object_map} == LKAN_GA_SIZES
    assert {d: len(lk_h.object_map[d]) for d in lk_h.object_map} == LKAN_H_SIZES
    # Nothing maps into the bottom object, so the colimit there is empty.
    assert lk_ga.object_map["1"].atoms == ()
    assert lk_ga.object_map["6"].atoms == (
        (("2", "2->6"), "ga2"),
        (("3", "3->6"), "ga3"),
        (("4", "4->6"), "ga4b"),
    )


def _count_precondition_checks(monkeypatch):
    calls = collections.Counter()
    witness = adjunction._fully_faithful_witness

    def counted(along):
        calls["_fully_faithful_witness"] += 1
        return witness(along)

    monkeypatch.setattr(adjunction, "_fully_faithful_witness", counted)
    return calls


def test_restricting_the_right_kan_recovers_the_original(inc, h_on_a, monkeypatch):
    (rkan, cones), _left = kan_extensions(inc, h_on_a)
    restricted = precompose_functor(inc, rkan)
    sizes = {d: len(restricted.object_map[d]) for d in restricted.object_map}
    assert sizes == {d: len(h_on_a.object_map[d]) for d in h_on_a.object_map}
    calls = _count_precondition_checks(monkeypatch)
    report = counit_inclusion_check(inc, h_on_a, cones)
    assert calls == {"_fully_faithful_witness": 1}
    assert report.passed, report.summary()
    assert [o.name for o in report.obligations] == [
        "fully_faithful_inclusion",
        "iso_at[2]",
        "iso_at[3]",
        "iso_at[4]",
        "iso_at[5]",
    ]


def test_counit_inclusion_requires_a_full_inclusion(fix, monkeypatch):
    not_full, functor = load_functor(fix("incl_disc2_p.fun")), _on_disc2(fix)
    (_rkan, cones), _left = kan_extensions(not_full, functor)
    calls = _count_precondition_checks(monkeypatch)
    report = counit_inclusion_check(not_full, functor, cones)
    assert calls == {"_fully_faithful_witness": 1}
    assert not report.passed
    assert [o.name for o in report.obligations] == ["fully_faithful_inclusion"]
    assert report.obligation("fully_faithful_inclusion").witness == ("not_full", "0", "1")


def test_kan_adjointness_both_sides(inc, g_on_b, h_on_a, g_on_a):
    for source_functor in (h_on_a, g_on_a):
        extensions = kan_extensions(inc, source_functor)
        report = check_kan_adjointness(inc, g_on_b, source_functor, extensions)
        assert report.passed, report.summary()
        assert [o.name for o in report.obligations] == [
            "left_count[0]",
            "left_transpose_bijective[0]",
            "right_count[0]",
            "right_transpose_bijective[0]",
        ]


def test_kan_along_identity_preserves_sizes(g_on_b):
    ident = identity_functor(g_on_b.source)
    for extension, _legs in kan_extensions(ident, g_on_b):
        sizes = {d: len(extension.object_map[d]) for d in extension.object_map}
        assert sizes == {d: len(g_on_b.object_map[d]) for d in g_on_b.object_map}


def test_kan_along_an_endofunctor_checks_its_table_once(g_on_b, monkeypatch):
    calls = collections.Counter()

    def counted(cat, _check=core.validate_category):
        calls[id(cat)] += 1
        return _check(cat)

    monkeypatch.setattr(core, "validate_category", counted)
    kan_extensions(identity_functor(g_on_b.source), g_on_b)
    assert calls == {}  # an order-derived table is a category by construction
    b6 = g_on_b.source
    explicit = FinCat(b6.objects, b6.morphisms, b6.identity, dict(b6.compose))
    kan_extensions(identity_functor(explicit), g_on_b.replace(source=explicit))
    assert calls == {id(explicit): 1}


def test_kan_input_guards(inc, g_on_b):
    with pytest.raises(AdjunctionError, match="finite-set valued"):
        kan_extensions(inc, inc)
    with pytest.raises(AdjunctionError, match="not defined on the extension's source"):
        kan_extensions(inc, g_on_b)
    with pytest.raises(AdjunctionError, match="not composable"):
        precompose_functor(inc, load_functor_on_wrong_base(inc))


def test_kan_rejects_non_functorial_inputs(inc, h_on_a):
    def bend(fun, m, image):
        return fun.replace(morphism_map={**fun.morphism_map, m: image})

    with pytest.raises(FinCatError, match="along is not a functor: .* unknown '2->5'"):
        kan_extensions(bend(inc, "2->4", "2->5"), h_on_a)
    mistyped = bend(inc, "2->4", "3->5")
    witness = r"along is not a functor: typing fails at \('2->4', '3->5'\)"
    with pytest.raises(FinCatError, match=witness):
        kan_extensions(mistyped, h_on_a)
    bent_sets = bend(h_on_a, "id_2", h_on_a.morphism_map["2->4"])
    with pytest.raises(FinCatError, match="functor is not a functor: typing fails"):
        kan_extensions(inc, bent_sets)
    with pytest.raises(AdjunctionError, match="between table categories"):
        kan_extensions(h_on_a, h_on_a)


def load_functor_on_wrong_base(inc):
    # A set-valued functor whose source is the extension's own source
    # category cannot be restricted along it.
    from fincat.core import FINSET, FunctorVal
    from fincat.finset import FinSetMap, FinSetObj

    src = inc.source
    value = FinSetObj(("z",))
    object_map = {a: value for a in src.objects}
    morphism_map = {
        m: FinSetMap(value, value, ("z",)) for m in src.morphisms
    }
    return FunctorVal(src, FINSET, object_map, morphism_map)


# ---------------------------------------------------------------------------
# The Kan adjunctions on flat value tuples against the materialised reference
# ---------------------------------------------------------------------------

KAN_PAIRS = (
    ("incl_a4_b6.fun", "h_on_a.fun"),
    ("incl_a4_b6.fun", "g_on_a.fun"),
    # objects 1 and 2 share their image, so the left transposition reads one
    # component of a transformation out of the left extension twice
    ("trunc_q_p.fun", "s_on_q.fun"),
)


def _bend_leg(extensions, along, side, a, bend):
    """``extensions`` with the cone (right) or cocone (left) leg at the comma
    object (a, identity) replaced by ``bend(leg)``."""
    (rkan, cones), (lkan, cocones) = extensions
    fa = along.object_map[a]
    key = (a, along.target.id_of(fa))
    legs = cones if side == "right" else cocones
    bent = {**legs, fa: {**legs[fa], key: bend(legs[fa][key])}}
    return ((rkan, bent), (lkan, cocones)) if side == "right" else ((rkan, cones), (lkan, bent))


def _rotated(leg):
    """The same ends, values rotated by one place."""
    return FinSetMap(leg.dom, leg.cod, leg.values[1:] + leg.values[:1])


def _collapsed(leg):
    """The same ends, every value the first one."""
    return FinSetMap(leg.dom, leg.cod, leg.values[:1] * len(leg.values))


def _renamed_dom(leg):
    return FinSetMap(FinSetObj((f"r{i}" for i in range(len(leg.dom)))), leg.cod, leg.values)


def _grown_cod(leg):
    return FinSetMap(leg.dom, FinSetObj((*leg.cod.atoms, "extra")), leg.values)


def _outcome(check, *args):
    try:
        return check(*args)
    except (CapExceededError, ValueError) as exc:
        return type(exc), str(exc)


def _kan_inputs(fix, g_on_b, build):
    """(along, target, source, extensions): each bundled pair with its own
    two extensions, made by ``build``, as targets (and g_on_b along the
    inclusion), honest and with each leg at (a, identity) rotated,
    collapsed, given another domain (cocone) or another codomain (cone)."""
    for along_name, functor_name in KAN_PAIRS:
        along, functor = load_functor(fix(along_name)), load_functor(fix(functor_name))
        extensions = build(along, functor)
        (rkan, _cones), (lkan, _cocones) = extensions
        targets = [lkan, rkan] + ([g_on_b] if g_on_b.source == along.target else [])
        variants = [extensions]
        for a in sorted(along.source.objects):
            for side, bends in (
                ("left", (_rotated, _collapsed, _renamed_dom)),
                ("right", (_rotated, _collapsed, _grown_cod)),
            ):
                variants += [_bend_leg(extensions, along, side, a, bend) for bend in bends]
        for target in targets:
            for variant in variants:
                yield along, target, functor, variant


def test_kan_adjointness_matches_the_materialised_reference(fix, g_on_b):
    """The same report, or the same cap error, on honest and on bent legs;
    the bent ones make both transpositions fail, with each of the witness
    counts below the source count somewhere.  The reference gets its
    extensions from ``comma_kan_extensions``."""
    failed = collections.Counter()
    inputs = zip(
        _kan_inputs(fix, g_on_b, kan_extensions),
        _kan_inputs(fix, g_on_b, comma_kan_extensions),
        strict=True,
    )
    for (along, target, functor, extensions), (_along, ref_target, _functor, reference) in inputs:
        for cap in (1, 4, 16, 64, 256, 4096, 10**6):
            report = _outcome(check_kan_adjointness, along, target, functor, extensions, cap)
            assert report == _outcome(
                materialised_kan_adjointness, along, ref_target, functor, reference, cap
            )
        for o in report.failures():
            transposed, source, wanted = o.witness
            failed[o.name, transposed < source, wanted != source] += 1
    names = {name for name, _fewer, _other in failed}
    assert names == {"left_transpose_bijective[0]", "right_transpose_bijective[0]"}
    for name in names:
        assert failed[name, False, False] and failed[name, True, False]


def test_a_leg_that_does_not_compose_is_an_error(fix):
    """A cocone leg into another set than the left extension's value, or a
    cone leg out of another set than the right extension's, raises
    ValueError("maps not composable") in the check and the reference."""
    along, functor = load_functor(fix("incl_a4_b6.fun")), load_functor(fix("h_on_a.fun"))
    extensions = kan_extensions(along, functor)
    reference = comma_kan_extensions(along, functor)
    for side, bend in (("left", _grown_cod), ("right", _renamed_dom)):
        for check, built in (
            (check_kan_adjointness, extensions),
            (materialised_kan_adjointness, reference),
        ):
            (_rkan, _cones), (lkan, _cocones) = built
            bent = _bend_leg(built, along, side, "4", bend)
            with pytest.raises(ValueError, match="^maps not composable$"):
                check(along, lkan, functor, bent)
    # Into a functor with no values no transformation leaves the left
    # extension, so the bent cocone leg is never met: both pass.
    empty = FinSetObj()
    nothing = FunctorVal(
        along.target,
        FINSET,
        {b: empty for b in along.target.objects},
        {m: identity_map(empty) for m in along.target.morphisms},
    )
    bent = _bend_leg(extensions, along, "left", "4", _grown_cod)
    report = check_kan_adjointness(along, nothing, functor, bent)
    bent_reference = _bend_leg(reference, along, "left", "4", _grown_cod)
    assert report == materialised_kan_adjointness(along, nothing, functor, bent_reference)
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# The kan command builds each extension once per call
# ---------------------------------------------------------------------------

CAPS = tuple(2**k for k in range(22))


def _command(*argv):
    out = io.StringIO()
    return cli.run(list(argv), out=out), out.getvalue()


def _on_disc2(fix):
    """A set-valued functor on the discrete pair, whose inclusion into the
    2-chain is not full."""
    category = load_category(fix("disc2.fincat"))
    object_map = {"0": FinSetObj(("u", "v")), "1": FinSetObj(("w",))}
    morphism_map = {m: identity_map(object_map[a]) for m, (a, _b) in category.morphisms.items()}
    return FunctorVal(category, FINSET, object_map, morphism_map)


def test_kan_command_matches_the_rebuilding_reference(fix, g_on_b, monkeypatch):
    """Byte-identical output and exit code at every cap, including cap errors
    raised inside the right Kan extension and after the sizes lines."""
    built = {
        "identity": identity_functor(g_on_b.source),
        "g_on_b": g_on_b,
        "disc2": _on_disc2(fix),
    }
    real_load = cli.load_functor
    monkeypatch.setattr(
        cli, "load_functor", lambda p, memo: built[p] if p in built else real_load(p, memo)
    )
    pairs = [
        (fix("incl_a4_b6.fun"), fix("h_on_a.fun")),
        (fix("incl_a4_b6.fun"), fix("g_on_a.fun")),
        ("identity", "g_on_b"),
        (fix("incl_disc2_p.fun"), "disc2"),
    ]
    argvs = [("kan", *pair, "--cap", str(cap)) for pair in pairs for cap in CAPS]
    new = dict(zip(argvs, (_command(*argv) for argv in argvs)))

    help_text, _handler, add = cli._SUBCOMMANDS["kan"]
    monkeypatch.setitem(
        cli._SUBCOMMANDS,
        "kan",
        (
            help_text,
            lambda cfg, out, loads: rebuilding_kan_command(
                cli.load_functor(cfg.paths[0], loads), cli.load_functor(cfg.paths[1], loads),
                cfg.cap,
                out,
            ),
            add,
        ),
    )
    for argv, got in new.items():
        assert got == _command(*argv), argv
    h_on_a = ("kan", fix("incl_a4_b6.fun"), fix("h_on_a.fun"), "--cap")
    assert new[(*h_on_a, "4")] == (
        cli.EXIT_CAP,
        "cap exceeded: search space of 16 candidates exceeds cap 4\n",
    )
    code, text = new[(*h_on_a, "64")]
    assert code == cli.EXIT_CAP
    assert text.splitlines()[0].startswith("right kan sizes: ")
    assert text.splitlines()[-1].startswith("cap exceeded: ")
    assert new[(*h_on_a, str(2**21))][0] == cli.EXIT_OK
    disc2 = new[("kan", fix("incl_disc2_p.fun"), "disc2", "--cap", str(2**21))]
    assert disc2[0] == cli.EXIT_CHECK_FAILED
    assert "witness=('not_full', '0', '1')" in disc2[1]


def test_kan_command_builds_each_extension_once(fix, monkeypatch, tmp_path):
    """One limit and one colimit per target object over its comma
    presentation, one category check each of the source and target tables
    when they are spelled out and none when they are the fixtures' preorders,
    one functor check each of the two inputs and none of the extensions,
    and each public step called once by the command itself."""
    calls = collections.Counter()
    kernels = ("presented_limit", "presented_colimit")
    public = ("kan_extensions", "check_kan_adjointness", "counit_inclusion_check")
    counted_names = [(adjunction, n) for n in kernels] + [(cli, n) for n in public]
    laws = [(core, "validate_category"), (core, "validate_functor")]
    for module, name in counted_names + laws:
        def counted(*args, _build=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    targets = len(load_functor(fix("incl_a4_b6.fun")).target.objects)
    spelled_out = explicit_copies(fix, tmp_path, ("a4", "b6"), "incl_a4_b6.fun", "h_on_a.fun")
    for paths, checks in (([fix("incl_a4_b6.fun"), fix("h_on_a.fun")], 0), (spelled_out, 2)):
        calls.clear()
        code, _text = _command("kan", *paths)
        assert code == cli.EXIT_OK
        assert calls == collections.Counter(
            {
                "presented_limit": targets,
                "presented_colimit": targets,
                "validate_category": checks,
                "validate_functor": 2,
                "kan_extensions": 1,
                "check_kan_adjointness": 1,
                "counit_inclusion_check": 1,
            }
        )
