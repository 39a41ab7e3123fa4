"""Kan extensions from presentations of their comma categories.

``kan_extensions`` builds no comma category: at each target object it
hands the limit and colimit kernels the comma objects and the lifts of the
source's generators.  These tests compare it with ``comma_kan_extensions``,
which builds both comma categories as tables and takes limits and colimits
along every comma morphism, and check that the carriers built without a
sort are the sorted ones.
"""

import io
import os
import random
import sys

import pytest
from oracles import comma_kan_extensions
from test_adjunction import _to_point
from test_generators import MONOIDS, _monoid_action, _random_monoid_functor, cyclic_monoid, product

import fincat.finset
from fincat import cli
from fincat.adjunction import kan_extensions
from fincat.core import (
    FINSET,
    FunctorVal,
    compose_functors,
    identity_functor,
    require_functor,
)
from fincat.files import load_category, load_functor
from fincat.finset import CapExceededError, FinSetMap, FinSetObj
from fincat.yoneda import hom_cov_functor, hom_maps_functor

CAPS = (1, 4, 16, 256, 10**6)


def _idempotent_functor(rng, monoid_e):
    """A random set-valued functor on ``monoid_e.fincat``: e acts by a map
    t with t . t = t."""
    atoms = rng.sample(range(5), rng.randint(0, 3))
    power = _monoid_action(rng, 1, 1, atoms)
    value = FinSetObj(atoms)
    morphism_map = {
        m: FinSetMap(value, value, (power(0 if m == "id_*" else 1)[x] for x in value))
        for m in monoid_e.morphisms
    }
    return FunctorVal(monoid_e, FINSET, {"*": value}, morphism_map)


def _kan_cases(fix, rng):
    """(along, functor) pairs: the bundled ones, the identity along each
    cyclic monoid and to the point with random actions and the hom-functor,
    both projections of a chain times a monoid with functors on the
    product, and the idempotent monoid of the corpus."""
    inc = load_functor(fix("incl_a4_b6.fun"))
    cases = [(inc, load_functor(fix(name))) for name in ("h_on_a.fun", "g_on_a.fun")]
    # trunc_q_p merges two objects
    cases.append((load_functor(fix("trunc_q_p.fun")), load_functor(fix("s_on_q.fun"))))
    for i, p in MONOIDS:
        monoid = cyclic_monoid(i, p)
        functors = [_random_monoid_functor(rng, i, p) for _ in range(3)]
        functors.append(hom_cov_functor(monoid, "*"))
        alongs = (identity_functor(monoid), _to_point(monoid))
        cases += [(along, f) for along in alongs for f in functors]
    chain3, monoid = load_category(fix("chain3.fincat")), cyclic_monoid(1, 2)
    both = product(chain3, monoid)
    projections = [
        FunctorVal(
            both, factor, {o: o[i] for o in both.objects}, {m: m[i] for m in both.morphisms}
        )
        for i, factor in enumerate((chain3, monoid))
    ]
    functors = [
        compose_functors(_random_monoid_functor(rng, 1, 2), projections[1]) for _ in range(2)
    ]
    functors += [hom_cov_functor(both, x) for x in sorted(both.objects)]
    cases += [(along, f) for along in projections for f in functors]
    monoid_e = load_category(fix("monoid_e.fincat"))
    functors = [_idempotent_functor(rng, monoid_e) for _ in range(3)]
    functors.append(hom_cov_functor(monoid_e, "*"))
    alongs = (identity_functor(monoid_e), _to_point(monoid_e))
    cases += [(along, f) for along in alongs for f in functors]
    return cases


def _outcome(build, along, functor, cap):
    """Both extensions as plain data, legs in their order, or the cap error."""
    try:
        (rkan, cones), (lkan, cocones) = build(along, functor, cap)
    except CapExceededError as exc:
        return str(exc)
    return [
        (kan.object_map, kan.morphism_map, {b: list(legs[b].items()) for b in legs})
        for kan, legs in ((rkan, cones), (lkan, cocones))
    ]


def test_extensions_match_the_comma_category_reference(fix):
    """Seeded: the same object maps, morphism maps, cones and cocones (in
    order), or the same cap error, as over comma categories built as tables."""
    compared = capped = 0
    for seed in range(3):
        for along, functor in _kan_cases(fix, random.Random(seed)):
            require_functor(along, "along")
            require_functor(functor)
            for cap in CAPS:
                got = _outcome(kan_extensions, along, functor, cap)
                assert got == _outcome(comma_kan_extensions, along, functor, cap)
                compared += 1
                capped += isinstance(got, str)
    # bundled, monoids, projections, monoid_e: 141 pairs per seed
    assert compared == 3 * len(CAPS) * (3 + 2 * 4 * len(MONOIDS) + 2 * 5 + 2 * 4)
    assert 0 < capped < compared


@pytest.mark.parametrize("stem", ["h_on_a", "g_on_a", "s_on_q", "h_on_a.cap64"])
def test_kan_matches_golden(fix, stem):
    """Standard output and exit code of ``kan`` on the bundled pairs, as the
    comma-category construction printed them."""
    along = "trunc_q_p.fun" if stem == "s_on_q" else "incl_a4_b6.fun"
    functor, _dot, cap = stem.partition(".")
    argv = ["kan", fix(along), fix(f"{functor}.fun")] + (["--cap", cap[3:]] if cap else [])
    out = io.StringIO()
    code = cli.run(argv, out=out)
    with open(fix("golden", f"kan_{stem}.txt"), encoding="utf-8") as handle:
        assert out.getvalue() + f"exit {code}\n" == handle.read()


KAN_BLOCKS = os.path.join(os.path.dirname(__file__), "data", "kan_blocks")


@pytest.mark.parametrize(
    "name, argv",
    [
        ("kan_f4_1", ["kan", "incl_2_3.fun", "f4_1.fun"]),
        ("yoneda_f4_1", ["yoneda", "f4_1.fun"]),
    ],
)
def test_single_valued_targets_leave_free_variables(monkeypatch, name, argv):
    """F on a 2-chain sends four elements onto one, and is extended along
    the inclusion into a 3-chain.  Every square of each Nat set points into
    a one-element set, so no block search branches over two variables with
    more than one candidate; output and exit code are as the backtracking
    search printed them."""
    pools_seen, sizes = [], []
    backtrack, solve = fincat.finset._backtrack, fincat.finset._solve

    def watched_backtrack(pools, checks):
        pools_seen.append([len(pool) for pool in pools])
        return backtrack(pools, checks)

    def counted_solve(*args):
        solutions = solve(*args)
        sizes.append(len(solutions))
        return solutions

    monkeypatch.setattr(fincat.finset, "_backtrack", watched_backtrack)
    monkeypatch.setattr(fincat.finset, "_solve", counted_solve)
    out = io.StringIO()
    code = cli.run([argv[0]] + [os.path.join(KAN_BLOCKS, path) for path in argv[1:]], out=out)
    with open(os.path.join(KAN_BLOCKS, f"{name}.txt"), encoding="utf-8") as handle:
        assert out.getvalue() + f"exit {code}\n" == handle.read()
    assert all(sum(size > 1 for size in pools) < 2 for pools in pools_seen), pools_seen
    if argv[0] == "kan":
        assert sizes.count(256) == 4, sizes


SORTED_SITES = ("presented_limit", "presented_colimit", "hom_maps_functor", "hom_cov_functor")


def test_carriers_built_without_a_sort_are_sorted(fix, monkeypatch):
    """Each carrier that a limit, a colimit, ``hom_maps_functor`` or
    ``hom_cov_functor`` builds from atoms already in order equals the one
    ``FinSetObj`` sorts, over the cross-check inputs and the hom-functors
    of their categories at every anchor."""
    sites = dict.fromkeys(SORTED_SITES, 0)
    unsorted = FinSetObj._of_sorted

    def checked(_cls, atoms):
        atoms = list(atoms)
        built = unsorted(atoms)
        assert built.atoms == FinSetObj(atoms).atoms
        frame = sys._getframe(1)
        while frame.f_code.co_name not in sites:
            frame = frame.f_back
        sites[frame.f_code.co_name] += 1
        return built

    monkeypatch.setattr(FinSetObj, "_of_sorted", classmethod(checked))
    probe = FinSetObj(("p", "q"))
    for along, functor in _kan_cases(fix, random.Random(0)):
        kan_extensions(along, functor)
        hom_maps_functor(probe, functor)
        for category in (along.source, along.target):
            for anchor in category.objects:
                hom_cov_functor(category, anchor)
    assert all(sites.values()), sites
