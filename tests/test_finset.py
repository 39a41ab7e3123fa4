"""Finite sets and maps: encodings, enumeration, limits, colimits."""

import copy
import itertools
import math
import os
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fincat.core
import fincat.finset
from fincat.core import (
    FINSET,
    FinSetCat,
    FunctorVal,
    compose_functors,
    validate_functor,
)
from fincat.files import load_functor
from fincat.finset import (
    CapExceededError,
    EncodingError,
    FinSetMap,
    FinSetObj,
    check_encodable,
    compose_maps,
    decode_map,
    encode_map,
    enumerate_maps,
    identity_map,
    presented_colimit,
    presented_limit,
)
from fincat.yoneda import hom_cov_functor

from helpers import enumerate_nattrans_finset, lawful, presentation
from oracles import (
    all_morphism_limit,
    all_morphism_nattrans,
    backtracking_solve,
    comma_under_object,
    map_from_table,
    nattrans_key,
    nattrans_table_key,
    product_filter_limit,
    product_filter_nattrans,
    sorted_map_eq,
    sorted_map_key,
)

atoms = st.lists(
    st.text(alphabet="abcxyz0123456789", min_size=1, max_size=3),
    min_size=0,
    max_size=5,
    unique=True,
)


@given(atoms, atoms, st.randoms())
@settings(max_examples=80, deadline=None)
def test_encode_decode_roundtrip(dom_atoms, cod_atoms, rng):
    dom = FinSetObj(dom_atoms)
    cod = FinSetObj(cod_atoms)
    if len(dom) and not len(cod):
        return
    mapping = FinSetMap(dom, cod, [rng.choice(list(cod)) for _a in dom])
    assert decode_map(encode_map(mapping), dom, cod) == mapping


def test_reserved_atoms_are_rejected_by_check_encodable():
    s = FinSetObj(("a->b",))
    with pytest.raises(EncodingError, match="'a->b' contains reserved characters"):
        check_encodable(s)
    assert encode_map(identity_map(s)) == "{a->b->a->b}"


def test_map_totality_range_and_extensional_equality():
    dom, cod = FinSetObj("ab"), FinSetObj("xy")
    with pytest.raises(ValueError, match="1 values for 2 domain atoms"):
        FinSetMap(dom, cod, ("x",))
    with pytest.raises(ValueError, match="3 values for 2 domain atoms"):
        FinSetMap(dom, cod, "xyx")
    with pytest.raises(ValueError, match="map value 'z' not in codomain"):
        FinSetMap(dom, cod, "xz")
    m1 = FinSetMap(dom, cod, ("x", "y"))
    m2 = map_from_table(dom, cod, {"b": "y", "a": "x"})
    assert m1 == m2 and m1("a") == "x" and m1("b") == "y"
    assert decode_map("{b->y, a->x}", dom, cod) == m1


def test_sets_and_maps_survive_copy_and_pickle():
    dom, cod = FinSetObj((2, "a", (1, "b"))), FinSetObj(("x", 0))
    m = FinSetMap(dom, cod, (0, "x", 0))
    for value in (dom, m):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
    twin = copy.deepcopy(m)
    assert twin.dom.index == dom.index and twin((1, "b")) == 0


def _scanned_atom(token, among):
    """The first atom of ``among``, in sorted order, that prints as
    ``token``: the linear scan a table lookup must agree with."""
    return next(a for a in among if str(a) == token)


def test_decode_map_reads_a_50_atom_domain_like_a_scan():
    rng = random.Random(50)
    dom = FinSetObj([*range(25), *(f"t{i}" for i in range(25))])
    cod = FinSetObj([*range(0, 60, 3), *(f"u{i}" for i in range(30))])
    assert (len(dom), len(cod)) == (50, 50)
    for _ in range(20):
        pairs = [(a, rng.choice(cod.atoms)) for a in dom]
        rng.shuffle(pairs)
        text = "{" + ", ".join(f"{a}->{b}" for a, b in pairs) + "}"
        want = map_from_table(
            dom, cod, {_scanned_atom(str(a), dom): _scanned_atom(str(b), cod) for a, b in pairs}
        )
        assert decode_map(text, dom, cod) == want == map_from_table(dom, cod, dict(pairs))


def test_decode_map_names_the_first_atom_in_sorted_order_on_a_text_clash():
    clash = FinSetObj((1, "1", "a"))
    assert decode_map("{1->1, a->a}", FinSetObj((1, "a")), clash).values == (1, "a")
    assert type(decode_map("{a->1}", FinSetObj("a"), clash).values[0]) is int
    # "1" names the integer, so the token atom "1" is never named
    with pytest.raises(ValueError, match=r"^map not total: missing '1'$"):
        decode_map("{1->a, a->a}", clash, clash)


def test_decode_map_errors_name_the_token_and_the_set():
    dom, cod = FinSetObj("ab"), FinSetObj((1, "x"))
    with pytest.raises(EncodingError, match=r"^atom 'c' not in \{a,b\}$"):
        decode_map("{a->x, c->x}", dom, cod)
    with pytest.raises(EncodingError, match=r"^atom 'y' not in \{1,x\}$"):
        decode_map("{a->x, b->y}", dom, cod)
    with pytest.raises(EncodingError, match=r"^atom 'z' not in \{a,b\}$"):
        decode_map("{z->y}", dom, cod)  # the domain side is read first
    with pytest.raises(EncodingError, match=r"^atom 'a' mapped twice$"):
        decode_map("{a->x, a->1}", dom, cod)
    with pytest.raises(EncodingError, match=r"^bad map entry ' b'$"):
        decode_map("{a->x, b}", dom, cod)
    with pytest.raises(ValueError, match=r"^map not total: missing 'b'$"):
        decode_map("{a->1}", dom, cod)
    with pytest.raises(ValueError, match=r"^map not total: missing 'a'$"):
        decode_map("{ }", dom, cod)


def test_map_equality_and_hash_match_the_sorted_key_reference():
    """Every pair of maps between sets of up to 3 atoms, one side built by
    enumeration and the other by the checked constructor from the reversed
    table; 1 and "1" print alike but are different atoms."""
    pool = (1, "1", "a")
    sets = [FinSetObj(c) for k in range(4) for c in itertools.combinations(pool, k)]
    enumerated = [m for x in sets for y in sets for m in enumerate_maps(x, y)]
    rebuilt = [
        map_from_table(m.dom, m.cod, dict(reversed(list(zip(m.dom, m.values)))))
        for m in enumerated
    ]
    assert len(enumerated) == 170
    for m in enumerated:
        assert m == m and m != encode_map(m)
        for n in rebuilt:
            assert (m == n) is sorted_map_eq(m, n)
            assert (m != n) is not sorted_map_eq(m, n)
            if m == n:
                assert hash(m) == hash(n)
    assert len(set(enumerated) | set(rebuilt)) == len({sorted_map_key(m) for m in enumerated})


def test_enumerate_maps_count_order_and_cap():
    dom, cod = FinSetObj("ab"), FinSetObj("xyz")
    maps = enumerate_maps(dom, cod)
    assert len(maps) == 9  # |cod| ** |dom|
    encodings = [encode_map(m) for m in maps]
    assert encodings == sorted(encodings)
    assert encodings[0] == "{a->x,b->x}"
    with pytest.raises(CapExceededError):
        enumerate_maps(dom, cod, 8)
    assert len(enumerate_maps(FinSetObj(()), cod)) == 1  # the empty map


def test_composition_is_associative_on_samples():
    a, b, c, d = (FinSetObj(x) for x in ("pq", "rs", "tu", "vw"))
    f = FinSetMap(a, b, "rs")
    g = FinSetMap(b, c, "ut")
    h = FinSetMap(c, d, "vw")
    assert compose_maps(h, compose_maps(g, f)) == compose_maps(compose_maps(h, g), f)


# ---------------------------------------------------------------------------
# Limits and colimits, checked against raw product/quotient constructions
# ---------------------------------------------------------------------------


def _empty_category():
    from fincat.core import FinCat

    return FinCat(objects=(), morphisms={}, identity={}, compose={})


def test_limit_of_empty_diagram_is_a_point():
    empty = FunctorVal(_empty_category(), FINSET, {}, {})
    carrier, projections = presented_limit(*presentation(empty))
    assert list(carrier) == [()]
    assert projections == {}


@pytest.fixture(scope="module")
def set_diagrams(fix, incl_a4_b6, h_on_a):
    """Every set-valued corpus functor (broken ones included: their tables
    are total, only their laws fail) and every comma diagram that
    ``kan incl_a4_b6.fun h_on_a.fun`` takes a limit or colimit of."""
    out = []
    for name in sorted(os.listdir(fix())) + [
        os.path.join("broken", n) for n in sorted(os.listdir(fix("broken")))
    ]:
        if name.endswith(".fun"):
            functor = load_functor(fix(name))
            if isinstance(functor.target, FinSetCat):
                out.append((name, functor))
    for orientation in ("under", "over"):
        for b in sorted(incl_a4_b6.target.objects):
            _slice, forget = comma_under_object(b, incl_a4_b6, orientation=orientation)
            out.append((f"comma {orientation} {b}", compose_functors(h_on_a, forget)))
    return out


def test_limit_matches_brute_force_families(set_diagrams):
    """The kernel, whose precondition is a functor, on the lawful diagrams,
    and the reference over every morphism on all of them."""
    broken = 0
    for label, d in set_diagrams:
        families = product_filter_limit(d)
        objs = sorted(d.source.objects)
        elements = [tuple(fam[j] for j in objs) for fam in families]
        limits = [all_morphism_limit(d)]
        if lawful(d):
            limits.append(presented_limit(*presentation(d)))
        else:
            broken += 1
        for carrier, projections in limits:
            assert carrier.atoms == tuple(elements), label
            assert list(projections) == objs, label
            for j in objs:
                assert projections[j].dom == carrier, label
                assert projections[j].values == tuple(fam[j] for fam in families), label
    assert broken == 2


def test_colimit_matches_union_find_quotient(h_on_a):
    carrier, injections = presented_colimit(*presentation(h_on_a))
    cat = h_on_a.source
    tagged = [(x, a) for x in sorted(cat.objects) for a in h_on_a.object_map[x]]
    parent = {t: t for t in tagged}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(s, t):
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[max(rs, rt)] = min(rs, rt)

    for m, (x, y) in cat.morphisms.items():
        for a in h_on_a.object_map[x]:
            union((x, a), (y, h_on_a.morphism_map[m](a)))
    classes = {find(t) for t in tagged}
    assert len(carrier) == len(classes)
    for x, a in tagged:
        assert injections[x](a) == find((x, a))


def test_colimit_of_disjoint_values_is_a_sum():
    from fincat.core import FinCat

    disc = FinCat(
        objects=("l", "r"),
        morphisms={"id_l": ("l", "l"), "id_r": ("r", "r")},
        identity={"l": "id_l", "r": "id_r"},
        compose={("id_l", "id_l"): "id_l", ("id_r", "id_r"): "id_r"},
    )
    d = FunctorVal(
        disc,
        FINSET,
        {"l": FinSetObj("ab"), "r": FinSetObj("cd")},
        {"id_l": identity_map(FinSetObj("ab")), "id_r": identity_map(FinSetObj("cd"))},
    )
    carrier, _ = presented_colimit(*presentation(d))
    assert len(carrier) == 4
    product, _ = presented_limit(*presentation(d))
    assert len(product) == 4  # binary product of two 2-element sets


# ---------------------------------------------------------------------------
# Natural transformation enumeration against the product-filter oracle
# ---------------------------------------------------------------------------


def test_enumeration_matches_oracle_on_kite(kite, f_kite):
    for anchor in sorted(kite.objects):
        hom = hom_cov_functor(kite, anchor)
        lib = [nattrans_table_key(t) for t in enumerate_nattrans_finset(hom, f_kite)]
        assert lib == sorted(lib)
        assert lib == product_filter_nattrans(hom, f_kite)


def test_enumeration_matches_oracle_on_endotransformations(f_kite):
    lib = sorted(
        nattrans_table_key(t) for t in enumerate_nattrans_finset(f_kite, f_kite)
    )
    oracle = product_filter_nattrans(f_kite, f_kite)
    assert lib == oracle
    assert len(oracle) == 8


def test_enumeration_matches_oracle_in_order(set_diagrams):
    """The kernel between lawful functors, and the reference over every
    morphism between all of them."""
    functors = {label: lawful(d) for label, d in set_diagrams}
    pairs = 0
    for label, f in set_diagrams:
        for label2, g in set_diagrams:
            if f.source != g.source:
                continue
            oracle = product_filter_nattrans(f, g)
            reference = [nattrans_table_key(t) for t in all_morphism_nattrans(f, g)]
            assert reference == oracle, (label, label2)
            if functors[label] and functors[label2]:
                lib = [nattrans_table_key(t) for t in enumerate_nattrans_finset(f, g)]
                assert lib == oracle, (label, label2)
                pairs += 1
    assert pairs > len(set_diagrams)


def _space(sizes):
    return math.prod(max(n, 1) for n in sizes)


def test_enumerators_cap_boundary(f_kite):
    dom, cod = FinSetObj("abc"), FinSetObj("xy")
    objs = sorted(f_kite.source.objects)
    cases = [
        (lambda cap: enumerate_maps(dom, cod, cap), _space([len(cod)] * len(dom))),
        (
            lambda cap: presented_limit(*presentation(f_kite), cap),
            _space(len(f_kite.object_map[c]) for c in objs),
        ),
        (
            lambda cap: enumerate_nattrans_finset(f_kite, f_kite, cap),
            _space(len(f_kite.object_map[c]) for c in objs for _a in f_kite.object_map[c]),
        ),
    ]
    for enumerate_with, space in cases:
        assert space > 1
        with pytest.raises(CapExceededError, match=f"search space of {space} candidates"):
            enumerate_with(space - 1)
        assert enumerate_with(space) == enumerate_with(space * 2)


def _random_search(rng, kind):
    """A random instance of the search kernel: 0-7 variables with pools of
    0-4 values out of five atoms, and constraints whose maps mostly land in
    their target's pool.  ``kind`` "blocks" ties only variables of the same
    consecutive group, "interleaved" any two; "emptying" adds a constraint
    into a one-value pool that no value of its source maps to."""
    universe = FinSetObj(range(5))
    n = rng.randint(2, 7) if kind == "emptying" else rng.randint(0, 7)
    variables = [f"v{k}" for k in range(n)]
    sizes = rng.choices(range(5), weights=(1, 6, 6, 6, 6), k=n)
    pools = [tuple(sorted(rng.sample(range(5), size))) for size in sizes]
    if kind == "emptying":
        source, target = rng.sample(range(n), 2)
        pools[target] = (rng.randrange(5),)
    # every map sends this choice to this choice, so solutions are common
    planted = [rng.choice(pool) if pool else None for pool in pools]
    if kind == "blocks":
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
        groups = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n])]
    else:
        groups = [range(n)]
    constraints = []

    def constraint(i, j, images):
        m = FinSetMap(FinSetObj(pools[i]), universe, images)
        constraints.append((variables[i], m, variables[j]))

    for group in groups:
        for _ in range(rng.randint(0, 2 * len(group))):
            i, j = rng.choice(group), rng.choice(group)
            if rng.random() < 0.15:
                j = i
            landing = pools[j] if pools[j] and rng.random() < 0.8 else range(5)
            images = [rng.choice(landing) for _ in pools[i]]
            if pools[i] and pools[j] and rng.random() < 0.7:
                images[pools[i].index(planted[i])] = planted[j]
            constraint(i, j, images)
    if kind == "emptying":
        others = [a for a in range(5) if a not in pools[target]]
        constraint(source, target, [rng.choice(others) for _ in pools[source]])
        rng.shuffle(constraints)
    domains = {
        var: FinSetObj(pool) if rng.random() < 0.2 else pool
        for var, pool in zip(variables, pools)
    }
    return variables, domains, constraints


def test_solve_matches_the_backtracking_reference():
    rng = random.Random(40)
    kinds = ("self-loop", "emptied", "split", "interleaved", "no solution", "several solutions")
    seen = dict.fromkeys(kinds, 0)
    for round_ in range(1200):
        kind = ("blocks", "interleaved", "emptying")[round_ % 3]
        variables, domains, constraints = _random_search(rng, kind)
        space = _space(len(domains[var]) for var in variables)
        want = list(backtracking_solve(variables, domains, constraints, space))
        got = fincat.finset._solve(variables, domains, constraints, space)
        assert type(got) is list and got == want, (variables, domains, constraints)
        messages = []
        for solve in (backtracking_solve, fincat.finset._solve):
            with pytest.raises(CapExceededError) as error:
                list(solve(variables, domains, constraints, space - 1))
            messages.append(str(error.value))
        assert messages[0] == messages[1] == f"search space of {space} candidates exceeds cap {space - 1}"
        spans = sorted(
            tuple(sorted((variables.index(u), variables.index(v)))) for u, _m, v in constraints
        )
        seen["self-loop"] += any(low == high for low, high in spans)
        seen["emptied"] += any(
            u != v and len(domains[v]) == 1 and len(domains[u]) > 0
            and all(m(x) not in domains[v] for x in domains[u])
            for u, m, v in constraints
        )
        ties = [(low, high) for low, high in spans if low < high]
        seen["split"] += any(b < c for (_, b), (c, _) in itertools.combinations(ties, 2))
        seen["interleaved"] += any(a < c < b < d for (a, b), (c, d) in itertools.combinations(ties, 2))
        seen["no solution"] += not want
        seen["several solutions"] += len(want) > 1
    assert min(seen.values()) >= 100, seen


def test_equal_components_are_one_object(f_kite, h_on_a):
    for functor in (f_kite, h_on_a):
        transformations = enumerate_nattrans_finset(functor, functor)
        for c in functor.source.objects:
            first = {}
            for t in transformations:
                assert first.setdefault(t.at(c), t.at(c)) is t.at(c)
            assert len(first) < len(transformations)


def test_enumeration_respects_cap(f_kite):
    with pytest.raises(CapExceededError):
        enumerate_nattrans_finset(f_kite, f_kite, cap=3)


def test_nattrans_key_orders_components_deterministically(f_kite):
    first = enumerate_nattrans_finset(f_kite, f_kite)[0]
    key = nattrans_key(first)
    assert [entry[0] for entry in key] == sorted(f_kite.source.objects)
    assert list(first.components) == sorted(f_kite.source.objects)


def test_finset_is_one_object_in_core_and_finset():
    assert fincat.core.FINSET is fincat.finset.FINSET
    assert fincat.core.FinSetCat is fincat.finset.FinSetCat
    assert FinSetCat() is FINSET


def test_finset_answers_like_the_map_operations(h_on_a):
    src = h_on_a.source
    for m in src.sorted_morphisms():
        image = h_on_a.morphism_map[m]
        assert FINSET.dom(image) is image.dom and FINSET.cod(image) is image.cod
    for x in src.objects:
        value = h_on_a.object_map[x]
        assert FINSET.id_of(value) == identity_map(value) == h_on_a.morphism_map[src.id_of(x)]
    for (g, f), gf in sorted(src.compose.items()):
        g_image, f_image = h_on_a.morphism_map[g], h_on_a.morphism_map[f]
        assert FINSET.comp(g_image, f_image) == compose_maps(g_image, f_image)
        assert FINSET.comp(g_image, f_image) == h_on_a.morphism_map[gf]
    twice = h_on_a.morphism_map["2->4"]
    with pytest.raises(ValueError, match="not composable"):
        FINSET.comp(twice, twice)


def test_tuple_atoms_sort_after_integers_and_tokens_entry_by_entry():
    atoms = FinSetObj([(10, "a"), (9, "b"), ("a",), (9, "a"), "t", 3, (), (1, "1")])
    assert atoms.atoms == (3, "t", (), (1, "1"), (9, "a"), (9, "b"), (10, "a"), ("a",))
