"""Hom-functor machinery: the maps functor, round trips, universal arrows,
pointwise bijections, the embedding and representability."""

import collections
import glob
import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fincat import cli, yoneda
from fincat.core import (
    FINSET,
    FunctorVal,
    NatTransVal,
    preorder_from_covers,
    validate_functor,
    validate_nattrans,
)
from fincat.adjunction import kan_extensions, precompose_functor
from fincat.files import load_category, load_functor
from fincat.finset import (
    DEFAULT_ENUM_CAP,
    CapExceededError,
    FinSetMap,
    FinSetObj,
    compose_maps,
    enumerate_maps,
    identity_map,
    map_values,
)
from fincat.yoneda import (
    HomContext,
    check_yoneda_roundtrips,
    hom_cov_functor,
    hom_maps_functor,
    yoneda_pointwise_bijection,
)

from helpers import (
    SeededContext,
    enumerate_nattrans_finset,
    lawful,
    nattrans_from_values,
    seed_from_transform,
    transform_from_seed,
)
from oracles import (
    brute_universal_table,
    map_from_table,
    nattrans_key,
    rebuilding_yoneda_command,
    rebuilding_pointwise_bijection,
    rebuilding_roundtrips,
    rebuilding_transform_from_seed,
    sorted_map_eq,
    string_encoded_hom_maps_functor,
    table_of,
)

POINT = FinSetObj(("*",))
PAIR = FinSetObj(("p", "q"))


def _roundtrips(ctx):
    """``check_yoneda_roundtrips`` of the context's anchor hom-functor and
    probe maps functor."""
    hom = hom_cov_functor(ctx.category, ctx.anchor)
    return check_yoneda_roundtrips(ctx, hom, hom_maps_functor(ctx.probe, ctx.set_functor))


def _pointwise(functor, anchor):
    """``yoneda_pointwise_bijection`` of the anchor's hom-functor."""
    return yoneda_pointwise_bijection(functor, anchor, hom_cov_functor(functor.source, anchor))


def _pointwise_transforms(functor, anchor):
    """``_pointwise`` with each element's flat tuple made the NatTransVal it
    stands for, out of the anchor's hom-functor."""
    hom = hom_cov_functor(functor.source, anchor)
    mapping, report = yoneda_pointwise_bijection(functor, anchor, hom)
    transforms = {e: nattrans_from_values(hom, functor, v) for e, v in mapping.items()}
    return transforms, report


# Value-set sizes of the kite-shaped set functor, object by object.
F_KITE_SIZES = {"1": 2, "2": 1, "3": 2, "4": 1, "5": 2}


# ---------------------------------------------------------------------------
# Hom functors
# ---------------------------------------------------------------------------


def test_hom_functor_is_lawful_at_every_anchor(kite):
    for anchor in kite.objects:
        functor = hom_cov_functor(kite, anchor)
        report = validate_functor(functor)
        assert report.passed, report.summary()
        # A thin category has at most one morphism per hom-set, and the
        # anchor's own hom-set contains the identity.
        assert all(len(functor.object_map[d]) <= 1 for d in kite.objects)
        assert kite.id_of(anchor) in functor.object_map[anchor].atoms


def test_hom_functor_on_a_monoid(fix):
    monoid = load_category(fix("monoid_e.fincat"))
    functor = hom_cov_functor(monoid, "*")
    assert validate_functor(functor).passed
    assert sorted(functor.object_map["*"].atoms) == ["e", "id_*"]
    # Postcomposition with the idempotent collapses everything onto it.
    assert table_of(functor.morphism_map["e"]) == {"e": "e", "id_*": "e"}


def test_hom_functor_rejects_unknown_anchor(kite):
    with pytest.raises(ValueError):
        hom_cov_functor(kite, "99")


def test_maps_out_of_probe_functor(f_kite):
    functor = hom_maps_functor(PAIR, f_kite)
    assert validate_functor(functor).passed
    sizes = {d: len(functor.object_map[d]) for d in f_kite.source.objects}
    assert sizes == {d: n * n for d, n in F_KITE_SIZES.items()}


def test_value_set_sizes_are_frozen(f_kite):
    assert {d: len(f_kite.object_map[d]) for d in f_kite.source.objects} == F_KITE_SIZES


# ---------------------------------------------------------------------------
# Seed <-> transformation round trips
# ---------------------------------------------------------------------------


def test_explicit_seed_lift(kite, f_kite):
    seed = FinSetMap(POINT, f_kite.object_map["1"], (24,))
    ctx = SeededContext(kite, f_kite, POINT, "1", seed=seed)
    transform = transform_from_seed(ctx)
    assert validate_nattrans(transform).passed
    # At object 3 the unique arrow out of the anchor sends 24 to 2.
    assert transform.at("3")("1->3") == (2,)
    back = seed_from_transform(ctx.replace(seed=None, transform=transform))
    assert back == seed


def test_roundtrips_all_anchors_both_probes(kite, f_kite):
    for probe in (POINT, PAIR):
        for anchor in kite.objects:
            ctx = HomContext(kite, f_kite, probe, anchor)
            report = _roundtrips(ctx)
            assert report.passed, report.summary()
            assert [o.name for o in report.obligations] == [
                "seed_roundtrip",
                "transform_roundtrip",
                "count_matches",
            ]


def test_counting_corollary_explicitly(kite, f_kite):
    for anchor in kite.objects:
        seeds = enumerate_maps(PAIR, f_kite.object_map[anchor], 10_000)
        transforms = enumerate_nattrans_finset(
            hom_cov_functor(kite, anchor), hom_maps_functor(PAIR, f_kite), 10_000
        )
        assert len(seeds) == len(transforms) == F_KITE_SIZES[anchor] ** 2


def test_context_validates_inputs(kite, f_kite):
    with pytest.raises(ValueError):
        HomContext(kite, f_kite, POINT, "nope")
    bad_seed = FinSetMap(PAIR, f_kite.object_map["1"], (24, 24))
    with pytest.raises(ValueError):
        SeededContext(kite, f_kite, POINT, "1", seed=bad_seed)  # probe mismatch
    with pytest.raises(ValueError):
        seed_from_transform(SeededContext(kite, f_kite, POINT, "1"))
    with pytest.raises(ValueError):
        transform_from_seed(SeededContext(kite, f_kite, POINT, "1"))


# ---------------------------------------------------------------------------
# Universal arrows
# ---------------------------------------------------------------------------


def _universal_table(category, functor, probe, anchor, seed) -> dict:
    """The universal-arrow witnesses of a seed, read off its lifted
    transformation: for each object D in sorted order and each map
    probe -> values(D), as the value tuple ``hom_maps_functor`` makes it,
    the sorted morphisms anchor -> D that the component at D sends to it.
    The seed is universal when every entry has exactly one."""
    transform = transform_from_seed(SeededContext(category, functor, probe, anchor, seed=seed))
    table = {}
    for d in sorted(category.objects):
        component = transform.at(d)
        for g in component.cod.atoms:
            table[(d, g)] = tuple(sorted(f for f in component.dom if component(f) == g))
    return table


def test_identity_seed_is_universal_for_own_hom_functor(kite):
    functor = hom_cov_functor(kite, "1")
    seed = FinSetMap(POINT, functor.object_map["1"], ("id_1",))
    table = _universal_table(kite, functor, POINT, "1", seed)
    assert len(table) == sum(len(functor.object_map[d]) for d in kite.objects)
    assert all(len(solutions) == 1 for solutions in table.values())


def test_wrong_anchor_is_not_universal(kite):
    functor = hom_cov_functor(kite, "1")
    seed = FinSetMap(POINT, functor.object_map["2"], ("1->2",))
    table = _universal_table(kite, functor, POINT, "2", seed)
    assert not all(len(solutions) == 1 for solutions in table.values())
    # Nothing maps the anchor back down to the bottom object, so the
    # witness table shows zero solutions there.
    assert table[("1", ("id_1",))] == ()


def test_universal_table_is_replayable(kite, f_kite):
    seed = FinSetMap(POINT, f_kite.object_map["1"], (24,))
    table = _universal_table(kite, f_kite, POINT, "1", seed)
    assert not all(len(solutions) == 1 for solutions in table.values())
    for (d, g), solutions in table.items():
        for f in solutions:
            assert kite.morphisms[f] == ("1", d)
            assert (f_kite.morphism_map[f](24),) == g


def test_universal_table_matches_brute_force(kite, f_kite, h_on_a):
    checked = 0
    for functor in (f_kite, h_on_a, hom_cov_functor(kite, "1")):
        category = functor.source
        for anchor in sorted(category.objects):
            for probe in (POINT, PAIR):
                for seed in enumerate_maps(probe, functor.object_map[anchor]):
                    table = _universal_table(category, functor, probe, anchor, seed)
                    expected = brute_universal_table(category, functor, probe, anchor, seed)
                    assert list(table.items()) == expected
                    ok = all(len(solutions) == 1 for _key, solutions in expected)
                    checked += ok
    assert checked > 0


# ---------------------------------------------------------------------------
# Pointwise bijection, the embedding and representability
# ---------------------------------------------------------------------------


def test_pointwise_bijection_every_anchor(kite, f_kite):
    for anchor in kite.objects:
        mapping, report = _pointwise(f_kite, anchor)
        assert report.passed, report.summary()
        assert len(mapping) == F_KITE_SIZES[anchor]
        assert [o.name for o in report.obligations] == [
            "components_natural",
            "injective",
            "surjective",
        ]


def _embedding(category, m) -> NatTransVal:
    """The Yoneda embedding of m: b -> c, the transformation
    Hom(c, -) -> Hom(b, -) sending f to f . m: the lift of the seed
    * -> m into Hom(b, -) at c, each one-entry value tuple read back as
    the morphism it holds."""
    b, c = category.morphisms[m]
    target = hom_cov_functor(category, b)
    seed = FinSetMap(POINT, target.object_map[c], (m,))
    lifted = transform_from_seed(SeededContext(category, target, POINT, c, seed=seed))
    components = {
        d: FinSetMap(t.dom, target.object_map[d], (v for (v,) in t.values))
        for d, t in lifted.components.items()
    }
    return NatTransVal(lifted.F, target, components)


def test_embedding_recovers_the_morphism(kite):
    for m, (_b, c) in kite.morphisms.items():
        transform = _embedding(kite, m)
        assert validate_nattrans(transform).passed
        assert transform.at(c)(kite.id_of(c)) == m


def test_embedding_is_contravariantly_functorial(kite):
    for (g, f), composite in kite.compose.items():
        emb_f = _embedding(kite, f)
        emb_g = _embedding(kite, g)
        emb_gf = _embedding(kite, composite)
        for d in kite.objects:
            assert emb_gf.at(d) == compose_maps(emb_f.at(d), emb_g.at(d))


def test_embedding_rejects_unknown_morphism(kite):
    # The embedding of m: b -> c is seeded by m in Hom(b, c): a name that is
    # no such morphism is no seed, and a seed into Hom(b, c) does not lift
    # at any other anchor.
    for b in kite.objects:
        target = hom_cov_functor(kite, b)
        for c in kite.objects:
            for bad in ["nope", *(m for m, ends in kite.morphisms.items() if ends != (b, c))]:
                with pytest.raises(ValueError):
                    FinSetMap(POINT, target.object_map[c], (bad,))
            for m in kite.hom(b, c):
                seed = FinSetMap(POINT, target.object_map[c], (m,))
                for other in kite.objects:
                    if other != c:
                        with pytest.raises(ValueError):
                            SeededContext(kite, target, POINT, other, seed=seed)


def test_embedding_is_injective_on_morphisms(kite):
    keys = {frozenset(_embedding(kite, m).components.items()) for m in kite.morphisms}
    assert len(keys) == len(kite.morphisms)


def _representations(category, functor) -> list:
    """The (anchor, element) pairs, anchors in sorted order, whose pointwise
    transformation out of Hom(anchor, -) is a bijection at every object."""
    found = []
    for anchor in sorted(category.objects):
        mapping, _report = _pointwise_transforms(functor, anchor)
        for element, transform in mapping.items():
            if all(
                len(set(c.values)) == len(c.dom) == len(c.cod)
                for c in transform.components.values()
            ):
                found.append((anchor, element))
    return found


def test_hom_functor_is_its_own_representation(kite):
    functor = hom_cov_functor(kite, "1")
    assert _representations(kite, functor) == [("1", "id_1")]
    mapping, report = _pointwise_transforms(functor, "1")
    assert report.passed, report.summary()
    transform = mapping["id_1"]
    assert validate_nattrans(transform).passed
    for d in kite.objects:
        assert transform.at(d) == identity_map(functor.object_map[d])


def test_kite_functor_is_not_representable(kite, f_kite):
    assert _representations(kite, f_kite) == []
    mapping, report = _pointwise_transforms(f_kite, "1")
    assert report.passed, report.summary()  # the elements still match the transformations
    for transform in mapping.values():
        assert validate_nattrans(transform).passed


# ---------------------------------------------------------------------------
# Property: round trips hold on random thin categories
# ---------------------------------------------------------------------------


@st.composite
def _random_preorder(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    objects = [f"o{i}" for i in range(n)]
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                covers.append((objects[i], objects[j]))
    return preorder_from_covers(objects, covers)


def _relabel_atoms(functor):
    """Isomorphic copy with encoder-safe atom names (e0, e1, ...)."""
    rename = {
        d: {a: f"e{i}" for i, a in enumerate(functor.object_map[d])}
        for d in functor.source.objects
    }
    object_map = {d: FinSetObj(rename[d].values()) for d in functor.source.objects}
    morphism_map = {}
    for m, (d, d2) in functor.source.morphisms.items():
        table = {
            rename[d][a]: rename[d2][b] for a, b in table_of(functor.morphism_map[m]).items()
        }
        morphism_map[m] = map_from_table(object_map[d], object_map[d2], table)
    return functor.replace(object_map=object_map, morphism_map=morphism_map)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_roundtrips_on_random_thin_categories(data):
    category = data.draw(_random_preorder())
    base = data.draw(st.sampled_from(sorted(category.objects)))
    functor = _relabel_atoms(hom_cov_functor(category, base))
    assert validate_functor(functor).passed
    for anchor in category.objects:
        ctx = HomContext(category, functor, POINT, anchor)
        report = _roundtrips(ctx)
        assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# Hom-functors built once against the rebuild-per-call reference
# ---------------------------------------------------------------------------

SET_VALUED_FUNS = (
    ("f_kite.fun",),
    ("g_on_a.fun",),
    ("g_on_b.fun",),
    ("h_on_a.fun",),
    ("s_on_q.fun",),
    ("broken", "f_kite_bad_respids.fun"),
    ("broken", "f_kite_bad_respcomp.fun"),
)
PROBES = (FinSetObj(), POINT, PAIR)
# Integers sort numerically and before tokens, tokens as text.
ATOM_POOL = (0, 1, 2, 9, 10, "a", "b", "x10", "x9")


def _seeded_forest_functor(rng):
    """A set-valued functor on a random forest-shaped preorder of 1-4 objects.

    Each cover carries a random map, so actions often collapse; a root, or
    an object whose parent's value set is empty, may get the empty set.  The
    image of a composite is the composite of the cover maps along the unique
    path.
    """
    n = rng.randint(1, 4)
    objects = [f"o{i}" for i in range(n)]
    parent = [rng.randrange(i) if i and rng.random() < 0.75 else None for i in range(n)]
    values = []
    for i in range(n):
        nonempty_parent = parent[i] is not None and len(values[parent[i]]) > 0
        values.append(FinSetObj(rng.sample(ATOM_POOL, rng.randint(int(nonempty_parent), 3))))
    step = {
        i: {a: rng.choice(values[i].atoms) for a in values[p]}
        for i, p in enumerate(parent)
        if p is not None
    }
    covers = [(objects[p], objects[i]) for i, p in enumerate(parent) if p is not None]
    category = preorder_from_covers(objects, covers)
    morphism_map = {}
    for m, (a, b) in category.morphisms.items():
        path = [objects.index(b)]
        while objects[path[-1]] != a:
            path.append(parent[path[-1]])
        table = {}
        for x in values[objects.index(a)]:
            image = x
            for i in reversed(path[:-1]):
                image = step[i][image]
            table[x] = image
        morphism_map[m] = map_from_table(
            values[objects.index(a)], values[objects.index(b)], table
        )
    object_map = dict(zip(objects, values))
    return FunctorVal(category, FINSET, object_map, morphism_map)


def _broken_identity_functor(fix, name):
    """Two-element values on a one-object category whose identity law fails,
    with p acting as the identity and q collapsing: some transformations
    out of the hom-functor are not lifts of their seed."""
    category = load_category(fix("broken", name))
    v = FinSetObj((0, 1))
    actions = {"id_a": {0: 0, 1: 1}, "p": {0: 0, 1: 1}, "q": {0: 0, 1: 0}}
    morphism_map = {m: map_from_table(v, v, table) for m, table in actions.items()}
    return FunctorVal(category, FINSET, {"a": v}, morphism_map)


def _subjects(fix):
    corpus = [load_functor(fix(*parts)) for parts in SET_VALUED_FUNS]
    broken = [_broken_identity_functor(fix, n) for n in ("bad_idr.fincat", "bad_idl.fincat")]
    rng = random.Random(7)
    return corpus + broken + [_seeded_forest_functor(rng) for _ in range(16)]


def _tables(transform):
    return [
        (d, c.dom.atoms, c.cod.atoms, list(zip(c.dom, c.values)))
        for d, c in transform.components.items()
    ]


def test_seeded_functors_are_lawful_and_cover_the_edge_cases():
    rng = random.Random(7)
    functors = [_seeded_forest_functor(rng) for _ in range(16)]
    assert all(validate_functor(f).passed for f in functors)
    assert any(len(v) == 0 for f in functors for v in f.object_map.values())
    assert any(
        len(set(m.values)) < len(m.dom)
        for f in functors
        for m in f.morphism_map.values()
    )


def _printed(probe, values) -> str:
    """The reference's name for an atom of ``hom_maps_functor``: the text of
    the map from the probe with these values."""
    return "{" + ",".join(f"{a}->{x}" for a, x in zip(probe.atoms, values)) + "}"


def _printed_set(probe, atoms) -> FinSetObj:
    names = [_printed(probe, values) for values in atoms]
    assert len(set(names)) == len(names), "two maps print alike"
    return FinSetObj(names)


def _printed_tables(transform, probe):
    """``_tables`` of a transformation into ``hom_maps_functor``, with every
    value tuple printed and each codomain the set of printed names."""
    return [
        (
            d,
            c.dom.atoms,
            _printed_set(probe, c.cod.atoms).atoms,
            [(f, _printed(probe, values)) for f, values in zip(c.dom, c.values)],
        )
        for d, c in transform.components.items()
    ]


def test_hom_maps_functor_matches_the_string_encoded_reference(fix):
    """Every atom and every table entry, each value tuple printed as the
    reference names its map; the atoms are the value tuples in product
    order."""
    for functor in _subjects(fix):
        for probe in PROBES:
            new = hom_maps_functor(probe, functor)
            old = string_encoded_hom_maps_functor(probe, functor)
            assert new.source is old.source and new.target is old.target is FINSET
            assert list(new.object_map) == list(old.object_map)
            for d, v in new.object_map.items():
                values = functor.object_map[d].atoms
                assert v.atoms == tuple(itertools.product(values, repeat=len(probe)))
                assert _printed_set(probe, v.atoms) == old.object_map[d]
            assert list(new.morphism_map) == list(old.morphism_map)
            for g, m in new.morphism_map.items():
                o = old.morphism_map[g]
                assert (_printed_set(probe, m.dom), _printed_set(probe, m.cod)) == (o.dom, o.cod)
                printed = {_printed(probe, a): _printed(probe, b) for a, b in zip(m.dom, m.values)}
                assert printed == table_of(o)


def test_roundtrips_match_the_rebuilding_reference(fix):
    """Equal reports on the functors among the subjects, which the kernels
    require; the gate refuses the others."""
    for functor in _subjects(fix):
        category = functor.source
        is_functor = lawful(functor)
        for anchor in sorted(category.objects):
            source = hom_cov_functor(category, anchor)
            for probe in PROBES:
                ctx = HomContext(category, functor, probe, anchor)
                target = hom_maps_functor(probe, functor)
                if is_functor:
                    report = check_yoneda_roundtrips(ctx, source, target)
                    assert report == rebuilding_roundtrips(ctx)
                for seed in enumerate_maps(probe, functor.object_map[anchor]):
                    seeded = SeededContext(category, functor, probe, anchor, seed=seed)
                    lifted = transform_from_seed(seeded)
                    # the prebuilt functors are the ones transform_from_seed lifts between
                    assert (lifted.F, lifted.G) == (source, target)
                    assert _printed_tables(lifted, probe) == _tables(
                        rebuilding_transform_from_seed(seeded)
                    )


def _bent_forest_functor(rng):
    """A seeded forest functor with one entry of one image, identities
    included, changed to another atom of its codomain.  Every image keeps its
    ends, so only the identity and composition laws can break."""
    functor = _seeded_forest_functor(rng)
    entries = [
        (m, i)
        for m, image in sorted(functor.morphism_map.items())
        if len(image.cod) > 1
        for i in range(len(image.values))
    ]
    if not entries:
        return _bent_forest_functor(rng)
    m, i = rng.choice(entries)
    image = functor.morphism_map[m]
    values = list(image.values)
    values[i] = rng.choice([b for b in image.cod if b != values[i]])
    bent = {**functor.morphism_map, m: FinSetMap(image.dom, image.cod, values)}
    return functor.replace(morphism_map=bent)


def test_pointwise_bijection_matches_the_rebuilding_reference(fix):
    """Equal reports and transformations on the functors among the subjects
    and the seeded bent forests, which the gate passes: naturality by
    membership in the enumeration must agree with the reference's
    per-element square check.  On the others, which the gate refuses, the
    reference names the first unnatural element."""
    rng = random.Random(11)
    bent = [_bent_forest_functor(rng) for _ in range(40)]
    assert not all(validate_functor(f).passed for f in bent)
    late_failures = compared = 0
    for functor in [*_subjects(fix), *bent]:
        category = functor.source
        is_functor = lawful(functor)
        for anchor in sorted(category.objects):
            old_mapping, old_report = rebuilding_pointwise_bijection(category, functor, anchor)
            natural = old_report.obligation("components_natural")
            late_failures += not natural.passed and natural.witness != (next(iter(old_mapping)),)
            if not is_functor:
                continue
            mapping, report = _pointwise_transforms(functor, anchor)
            assert report == old_report
            assert list(mapping) == list(old_mapping)
            for element, transform in mapping.items():
                assert _tables(transform) == _tables(old_mapping[element])
            compared += 1
    # the witness is the first unnatural element, not merely the first one
    assert late_failures and compared


def test_roundtrips_print_maps_only_for_witnesses(fix, monkeypatch):
    contexts = [
        HomContext(functor.source, functor, probe, anchor)
        for functor in _subjects(fix)
        for anchor in sorted(functor.source.objects)
        for probe in PROBES
    ]
    expected = [_roundtrips(ctx) for ctx in contexts]
    printed = []

    def recorded(*args, _print=yoneda.encode_map):
        printed.append(args)
        return _print(*args)

    monkeypatch.setattr(yoneda, "encode_map", recorded)
    for ctx, report in zip(contexts, expected):
        printed.clear()
        assert _roundtrips(ctx) == report
        witnesses = [o for o in report.failures() if o.name != "count_matches"]
        assert bool(printed) == bool(witnesses), report.summary()
    assert any(not report.passed for report in expected)


def _record_map_caps(monkeypatch):
    """Record the cap of every map enumeration yoneda starts, seeds and
    hom-set maps alike: each lists value tuples through ``map_values``."""
    caps = []

    def recorded(dom, cod, cap=DEFAULT_ENUM_CAP):
        caps.append(cap)
        return map_values(dom, cod, cap)

    monkeypatch.setattr(yoneda, "map_values", recorded)
    return caps


def test_roundtrips_enumerate_seeds_under_the_callers_cap(f_kite, monkeypatch):
    ctx = HomContext(f_kite.source, f_kite, FinSetObj(("p", "q", "r", "s")), "1")
    hom, maps = hom_cov_functor(f_kite.source, "1"), hom_maps_functor(ctx.probe, f_kite)
    caps = _record_map_caps(monkeypatch)
    with pytest.raises(CapExceededError):
        check_yoneda_roundtrips(ctx, hom, maps, 8)
    assert caps == [8]


def test_the_reference_sees_every_round_trip_fail(fix):
    """The non-functors among the subjects make the witness comparison above
    non-trivial: each obligation fails somewhere."""
    failing = {
        o.name
        for functor in _subjects(fix)
        for anchor in sorted(functor.source.objects)
        for o in rebuilding_roundtrips(HomContext(functor.source, functor, POINT, anchor)).failures()
    }
    assert failing == {"seed_roundtrip", "transform_roundtrip", "count_matches"}


@pytest.mark.parametrize(
    "probe, values",
    [
        (POINT, {"1": ("a->b",), "2": ("c",)}),
        (POINT, {"1": (1, "{x"), "2": ("y}",)}),
        (FinSetObj(("p->q",)), {"1": (), "2": ("c",)}),
        (FinSetObj(("p->q",)), {"1": (), "2": ()}),
        (FinSetObj(), {"1": ("a->b",), "2": ()}),
    ],
    ids=["value", "brace", "probe", "probe-without-maps", "empty-probe"],
)
def test_reserved_atoms_are_plain_values_of_the_maps_functor(probe, values):
    """Atoms holding the map text's own characters name their maps as any
    other atoms do, and both round trips hold."""
    category = preorder_from_covers(["1", "2"], [])
    object_map = {d: FinSetObj(atoms) for d, atoms in values.items()}
    functor = FunctorVal(
        category,
        FINSET,
        object_map,
        {f"id_{d}": identity_map(v) for d, v in object_map.items()},
    )
    built = hom_maps_functor(probe, functor)
    assert validate_functor(built).passed
    for d, v in object_map.items():
        assert built.object_map[d].atoms == tuple(itertools.product(v.atoms, repeat=len(probe)))
        report = _roundtrips(HomContext(category, functor, probe, d))
        assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# Maps pass the checked constructor, and transformation identity
# ---------------------------------------------------------------------------


def _functor_pairs(fix):
    """Pairs of set-valued functors on one category: every corpus pair, the
    Kan pairs of the corpus ``kan`` call, each other subject with itself,
    and each subject's hom-functors into it."""
    subjects = _subjects(fix)
    corpus, others = subjects[: len(SET_VALUED_FUNS)], subjects[len(SET_VALUED_FUNS) :]
    pairs = [(f, g) for f in corpus for g in corpus if f.source == g.source]
    along, functor = load_functor(fix("incl_a4_b6.fun")), load_functor(fix("h_on_a.fun"))
    (rkan, _cones), (lkan, _cocones) = kan_extensions(along, functor)
    restricted = precompose_functor(along, lkan)
    pairs += [(lkan, lkan), (functor, restricted), (restricted, functor), (lkan, rkan)]
    pairs += [(f, f) for f in others]
    for functor in subjects:
        category = functor.source
        pairs += [(hom_cov_functor(category, a), functor) for a in sorted(category.objects)]
    return pairs


def _assert_rechecks(m):
    checked = FinSetMap(m.dom, m.cod, m.values)
    assert checked == m and sorted_map_eq(checked, m)
    assert checked == map_from_table(m.dom, m.cod, table_of(m))


def test_built_maps_pass_the_checked_constructor(fix):
    for functor in _subjects(fix):
        images = list(functor.morphism_map.values())
        for g in images:
            _assert_rechecks(identity_map(g.dom))
            for f in images:
                if f.cod == g.dom:
                    _assert_rechecks(compose_maps(g, f))
        for probe in PROBES:
            for m in hom_maps_functor(probe, functor).morphism_map.values():
                _assert_rechecks(m)
            for values in functor.object_map.values():
                for m in enumerate_maps(probe, values):
                    _assert_rechecks(m)
    for f, g in _functor_pairs(fix):
        for t in enumerate_nattrans_finset(f, g):
            for component in t.components.values():
                _assert_rechecks(component)


def _classes(keys):
    """Each key's first position: equal lists mean equal partitions."""
    first = {}
    return [first.setdefault(k, i) for i, k in enumerate(keys)]


def _components(t) -> tuple:
    """A transformation's component maps, objects in sorted order."""
    return tuple(t.components[c] for c in sorted(t.components))


def test_component_maps_split_transformations_like_nattrans_key(fix):
    sizes = []
    for f, g in _functor_pairs(fix):
        transforms = enumerate_nattrans_finset(f, g)
        sizes.append(len(transforms))
        assert _classes(map(_components, transforms)) == _classes(map(nattrans_key, transforms))
    for functor in _subjects(fix):
        category = functor.source
        for anchor in sorted(category.objects):
            mapping, _report = _pointwise_transforms(functor, anchor)
            source = hom_cov_functor(category, anchor)
            transforms = [*mapping.values(), *enumerate_nattrans_finset(source, functor)]
            assert _classes(map(_components, transforms)) == _classes(
                map(nattrans_key, transforms)
            )
    assert max(sizes) > 1


def test_transformations_between_atoms_that_print_alike_stay_apart():
    category = preorder_from_covers(["o"], [])
    values = FinSetObj((1, "1"))
    point = FunctorVal(category, FINSET, {"o": POINT}, {"id_o": identity_map(POINT)})
    functor = FunctorVal(category, FINSET, {"o": values}, {"id_o": identity_map(values)})
    first, second = enumerate_nattrans_finset(point, functor)
    assert nattrans_key(first) == nattrans_key(second)
    assert first.at("o") != second.at("o") and first != second
    assert len({_components(first), _components(second)}) == 2
    _mapping, report = _pointwise(functor, "o")
    assert report.passed, report.summary()


def test_atoms_that_print_alike_stay_apart_in_the_round_trips():
    category = preorder_from_covers(["o"], [])
    values = FinSetObj((1, "1"))
    functor = FunctorVal(category, FINSET, {"o": values}, {"id_o": identity_map(values)})
    assert hom_maps_functor(POINT, functor).object_map["o"].atoms == ((1,), ("1",))
    for probe in PROBES:
        report = _roundtrips(HomContext(category, functor, probe, "o"))
        assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# The yoneda command builds each hom-functor once per call
# ---------------------------------------------------------------------------

CAPS = tuple(2**k for k in range(22))


def _command(*argv):
    out = io.StringIO()
    return cli.run(list(argv), out=out), out.getvalue()


def _set_valued_fixtures(fix):
    paths = sorted(glob.glob(fix("*.fun")) + glob.glob(fix("broken", "*.fun")))
    return [p for p in paths if "target: finset" in open(p, encoding="utf-8").read()]


def test_yoneda_command_matches_the_rebuilding_reference(fix, monkeypatch):
    """Byte-identical output and exit code at every cap, on every set-valued
    fixture and on the functors built through the API (the broken identity
    laws and the seeded forests), which the loader is patched to return."""
    built = {f"api-{i}": f for i, f in enumerate(_subjects(fix)[len(SET_VALUED_FUNS) :])}
    real_load = cli.load_functor
    monkeypatch.setattr(
        cli, "load_functor", lambda p, memo: built[p] if p in built else real_load(p, memo)
    )
    names = [*_set_valued_fixtures(fix), *built]
    assert len(names) == len(SET_VALUED_FUNS) + 18
    argvs = [("yoneda", name, "--cap", str(cap)) for name in names for cap in CAPS]
    new = [_command(*argv) for argv in argvs]

    help_text, _handler, add = cli._SUBCOMMANDS["yoneda"]
    monkeypatch.setitem(
        cli._SUBCOMMANDS,
        "yoneda",
        (
            help_text,
            lambda cfg, out, loads: rebuilding_yoneda_command(
                cli.load_functor(cfg.paths[0], loads), cfg.cap, out
            ),
            add,
        ),
    )
    for argv, got in zip(argvs, new):
        assert got == _command(*argv), argv
    assert {code for code, _text in new} == {cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_CAP}


def test_yoneda_command_enumerates_maps_under_its_cap(fix, monkeypatch):
    caps = _record_map_caps(monkeypatch)
    code, _text = _command("yoneda", fix("f_kite.fun"), "--cap", "1000")
    assert code == cli.EXIT_OK
    assert caps and set(caps) == {1000}


def test_yoneda_command_builds_each_hom_functor_once(fix, kite, monkeypatch):
    """One hom-functor per anchor, one maps functor per call, and each
    public check once per anchor, called by the command itself."""
    calls = collections.Counter()
    names = (
        "hom_cov_functor",
        "hom_maps_functor",
        "yoneda_pointwise_bijection",
        "check_yoneda_roundtrips",
    )
    for name in names:
        def counted(*args, _build=getattr(yoneda, name), _name=name, **kwargs):
            calls[_name] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(yoneda, name, counted)
        monkeypatch.setattr(cli, name, counted)
    code, _text = _command("yoneda", fix("f_kite.fun"))
    assert code == cli.EXIT_OK
    anchors = len(kite.objects)
    assert calls == {
        "hom_cov_functor": anchors,
        "hom_maps_functor": 1,
        "yoneda_pointwise_bijection": anchors,
        "check_yoneda_roundtrips": anchors,
    }


YONEDA_GOLDEN = (
    "f_kite",
    "g_on_a",
    "g_on_b",
    "h_on_a",
    "s_on_q",
    "broken/f_kite_bad_respcomp",
    "broken/f_kite_bad_respids",
)


@pytest.mark.parametrize("name", YONEDA_GOLDEN)
def test_yoneda_matches_golden(fix, name):
    """Standard output and exit code of ``yoneda`` on each bundled
    set-valued functor, as the command printed them when every hom-functor
    map was built up front."""
    code, text = _command("yoneda", fix(f"{name}.fun"))
    with open(fix("golden", f"yoneda_{name.rpartition('/')[2]}.txt"), encoding="utf-8") as handle:
        assert text + f"exit {code}\n" == handle.read()
