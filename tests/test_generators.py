"""Generating sets of morphisms, and the kernels that decide laws on them.

``FinCat.generators`` is cross-checked against a naive closure on random
preorders (whose generators are the covers), cyclic monoids, a cyclic group
with no irreducible morphism, products of a chain with a monoid and the
comma categories of the corpus ``kan`` call.  The enumeration kernels and
the adjunction checks that use it must agree with the same computations
over every morphism.
"""

import itertools
import random

from fincat.adjunction import assemble_adjunction, verify_adjunction
from fincat.core import (
    FINSET,
    FinCat,
    FunctorVal,
    Obligation,
    compose_functors,
    identity_functor,
    preorder_from_covers,
    require_category,
    require_functor,
)
from fincat.files import AdjParts, load_adjunction_parts, load_category
from fincat.finset import (
    FinSetMap,
    FinSetObj,
    nattrans_values,
    presented_colimit,
    presented_limit,
)
from fincat.yoneda import hom_cov_functor

from helpers import presentation, random_covers
from oracles import (
    all_morphism_colimit,
    all_morphism_limit,
    all_morphism_nattrans_values,
    brute_generators,
    comma_under_object,
    composed_square_failures,
    fixpoint_closure,
)


def cyclic_monoid(index: int, period: int) -> FinCat:
    """The monoid <a | a^(index + period) = a^index> on one object "*": its
    elements are the identity and a1, a2, ... for the powers of a below
    index + period; with index 0 it is the cyclic group of that order."""
    size = index + period

    def name(k):
        if k >= size:
            k = index + (k - index) % period
        return f"a{k}" if k else "id_*"

    elements = [name(k) for k in range(size)]
    return FinCat(
        ("*",),
        {m: ("*", "*") for m in elements},
        {"*": "id_*"},
        {(name(j), name(k)): name(j + k) for j in range(size) for k in range(size)},
    )


def product(c: FinCat, d: FinCat) -> FinCat:
    """The product category, objects and morphisms as pairs."""
    morphisms = {
        (f, g): ((cf[0], dg[0]), (cf[1], dg[1]))
        for (f, cf), (g, dg) in itertools.product(c.morphisms.items(), d.morphisms.items())
    }
    compose = {
        ((f2, g2), (f1, g1)): (c.compose[(f2, f1)], d.compose[(g2, g1)])
        for (f2, f1), (g2, g1) in itertools.product(c.compose, d.compose)
    }
    objects = tuple(itertools.product(c.objects, d.objects))
    identity = {(x, y): (c.identity[x], d.identity[y]) for x, y in objects}
    return FinCat(objects, morphisms, identity, compose)


def shuffled(c: FinCat, rng: random.Random) -> FinCat:
    """The same tables with their lines in a random order."""

    def mixed(table):
        items = list(table.items())
        rng.shuffle(items)
        return dict(items)

    objects = tuple(rng.sample(c.objects, len(c.objects)))
    return FinCat(objects, mixed(c.morphisms), mixed(c.identity), mixed(c.compose))


MONOIDS = [(i, p) for i in range(4) for p in range(1, 5) if i + p <= 6]


def _kan_commas(incl_a4_b6):
    return [
        comma_under_object(b, incl_a4_b6, orientation)[0]
        for orientation in ("under", "over")
        for b in sorted(incl_a4_b6.target.objects)
    ]


def _sources(fix, incl_a4_b6):
    """Every non-thin source above, the corpus monoid and the Kan commas."""
    chain3 = load_category(fix("chain3.fincat"))
    return [
        *(cyclic_monoid(i, p) for i, p in MONOIDS),
        load_category(fix("monoid_e.fincat")),
        product(chain3, cyclic_monoid(1, 2)),
        product(cyclic_monoid(0, 2), cyclic_monoid(2, 1)),
        left_zero_monoid(),
        *_kan_commas(incl_a4_b6),
    ]


def test_generators_match_the_naive_closure(fix, incl_a4_b6):
    rng = random.Random(5)
    for c in _sources(fix, incl_a4_b6):
        require_category(c, "source")
        assert c.generators == brute_generators(c), c.objects
        for _ in range(3):
            assert shuffled(c, rng).generators == c.generators


def test_a_cyclic_group_has_no_irreducible_morphism_and_one_generator():
    z3 = cyclic_monoid(0, 3)
    plain = ("a1", "a2")
    assert sorted(z3.morphisms) == ["a1", "a2", "id_*"]
    assert {z3.compose[(g, f)] for g in plain for f in plain} >= set(plain)
    assert z3.generators == ("a1",)
    assert cyclic_monoid(0, 6).generators == ("a1",)
    assert cyclic_monoid(0, 1).generators == ()


def test_idempotents_and_cyclic_monoids(fix):
    assert load_category(fix("monoid_e.fincat")).generators == ("e",)
    # with index 1, a = a^(1 + period) is a composite, so nothing is
    # irreducible; with a larger index a is
    assert cyclic_monoid(1, 3).generators == ("a1",)
    squares = cyclic_monoid(2, 2).compose
    assert "a1" not in {squares[(g, f)] for g in ("a2", "a3") for f in ("a2", "a3")}
    assert cyclic_monoid(2, 2).generators == ("a1",)
    # x = x . y and y = y . x: x is the least unreached, and y is not x . x
    assert left_zero_monoid().generators == ("x", "y")


def test_preorder_generators_are_the_covers():
    rng = random.Random(3)
    for _ in range(60):
        objects, covers = random_covers(rng, acyclic=True)
        c = preorder_from_covers(objects, covers)
        le = fixpoint_closure(objects, covers)
        hasse = {
            f"{a}->{b}"
            for a, b in le
            if a != b
            and not any(x not in (a, b) and (a, x) in le and (x, b) in le for x in objects)
        }
        assert set(c.generators) == hasse
        assert c.generators == brute_generators(c) == tuple(sorted(hasse))
        assert shuffled(c, rng).generators == c.generators


def _monoid_action(rng, index, period, atoms):
    """A random map t on ``atoms`` with t^(index + period) = t^index, as a
    table, or the identity when a few draws find none."""
    for _ in range(20):
        t = {x: rng.choice(atoms) for x in atoms}

        def power(k):
            table = {x: x for x in atoms}
            for _ in range(k):
                table = {x: t[y] for x, y in table.items()}
            return table

        if power(index + period) == power(index):
            return power
    return lambda k: {x: x for x in atoms}


def _random_monoid_functor(rng, index, period):
    """A random set-valued functor on ``cyclic_monoid(index, period)``."""
    monoid = cyclic_monoid(index, period)
    atoms = rng.sample(range(5), rng.randint(0, 3))
    power = _monoid_action(rng, index, period, atoms)
    value = FinSetObj(atoms)
    morphism_map = {
        m: FinSetMap(value, value, (power(int(m[1:]) if m != "id_*" else 0)[x] for x in value))
        for m in monoid.morphisms
    }
    return FunctorVal(monoid, FINSET, {"*": value}, morphism_map)


def _functor_families(rng, fix, incl_a4_b6):
    """Lists of set-valued functors, each list on one non-thin source or
    Kan comma: random monoid actions, the same composed with a product's
    projection, and every hom-functor."""
    families = []
    for i, p in MONOIDS:
        monoid = cyclic_monoid(i, p)
        actions = [_random_monoid_functor(rng, i, p) for _ in range(3)]
        homs = [hom_cov_functor(monoid, "*")]
        families.append(actions + homs)
    chain3 = load_category(fix("chain3.fincat"))
    both = product(chain3, cyclic_monoid(1, 2))
    objects, morphisms = {o: o[1] for o in both.objects}, {m: m[1] for m in both.morphisms}
    projection = FunctorVal(both, cyclic_monoid(1, 2), objects, morphisms)
    families.append(
        [compose_functors(_random_monoid_functor(rng, 1, 2), projection) for _ in range(2)]
        + [hom_cov_functor(both, x) for x in sorted(both.objects)]
    )
    monoid_e = load_category(fix("monoid_e.fincat"))
    families.append([hom_cov_functor(monoid_e, "*")])
    for comma in _kan_commas(incl_a4_b6):
        families.append([hom_cov_functor(comma, x) for x in sorted(comma.objects)])
    return families


def test_kernels_match_the_references_over_every_morphism(fix, incl_a4_b6):
    """Seeded: on functors over non-thin sources, natural transformations,
    limits and colimits are those of the kernels over every morphism."""
    nonempty = 0
    for seed in range(4):
        rng = random.Random(seed)
        for family in _functor_families(rng, fix, incl_a4_b6):
            for f in family:
                require_functor(f)
                assert presented_limit(*presentation(f)) == all_morphism_limit(f)
                assert presented_colimit(*presentation(f)) == all_morphism_colimit(f)
                for g in family:
                    found = nattrans_values(f, g)
                    assert found == all_morphism_nattrans_values(f, g)
                    nonempty += bool(found)
    assert nonempty


def left_zero_monoid() -> FinCat:
    """The monoid {1, x, y} with g . f = g for g, f in {x, y}: no element
    but 1 commutes with both, and neither x nor y is irreducible."""
    plain = ("x", "y")
    compose = {(g, f): g for g in plain for f in plain}
    compose.update({(m, "id_*"): m for m in ("id_*", *plain)})
    compose.update({("id_*", m): m for m in plain})
    return FinCat(("*",), {m: ("*", "*") for m in ("id_*", *plain)}, {"*": "id_*"}, compose)


def _retargeted_components(fix):
    """Adjunctions whose unit or counit has one component changed to another
    morphism of its hom-set: from the bundled full manifests and from the
    identity adjunctions of the left-zero monoid and of its product with a
    chain."""
    chain3 = load_category(fix("chain3.fincat"))
    subjects = [load_adjunction_parts(fix(n)) for n in ("galois.adj", "monoid_bad_counit.adj")]
    for c in (left_zero_monoid(), product(chain3, left_zero_monoid())):
        ident, ids = identity_functor(c), dict(c.identity)
        subjects.append(AdjParts("full", "inline", ident, ident, ids, ids))
    for parts in subjects:
        yield parts
        for field, cat in (("unit", parts.right.target), ("counit", parts.right.source)):
            components = getattr(parts, field)
            for x, arrow in components.items():
                for other in cat.hom(*cat.morphisms[arrow]):
                    if other != arrow:
                        yield parts.replace(**{field: {**components, x: other}})


def test_unit_and_counit_verdicts_and_witnesses_are_those_of_every_square(fix):
    """Decided on generators, and a failure's witness is the first of the
    squares of every morphism in sorted order."""
    failed = 0
    for parts in _retargeted_components(fix):
        adj = assemble_adjunction(parts)
        report = verify_adjunction(adj)
        for name, t in (("unit_natural", adj.unit), ("counit_natural", adj.counit)):
            squares = composed_square_failures(t)
            witness = ("square_condition", *squares[0]) if squares else ()
            assert report.obligation(name) == Obligation(name, not squares, witness)
            failed += bool(squares)
    assert failed > 1


def test_generators_are_cached_and_not_indexed():
    c = cyclic_monoid(0, 3)
    assert c.generators is c.generators
    assert "generators" not in c._index._fields
