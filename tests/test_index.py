"""The indexed table layer of FinCat against index-free oracles.

``validate_category`` walks out-arrow and in-arrow indexes and
``preorder_from_covers`` closes covers by Warshall; here both are compared
with the triple loop and the pairwise fixpoint of ``tests/oracles.py`` on the
corpus, on generated chains and grids, on seeded one-entry mutations and on
random cover lists.
"""

import os
import random

import pytest
from oracles import fixpoint_closure, triple_loop_validate

from fincat.core import CycleError, FinCat, preorder_from_covers, validate_category
from fincat.files import load_category


def _corpus_categories(fix):
    paths = [fix(n) for n in sorted(os.listdir(fix(""))) if n.endswith(".fincat")]
    broken = fix("broken")
    paths += [os.path.join(broken, n) for n in sorted(os.listdir(broken)) if n.endswith(".fincat")]
    return {os.path.relpath(p, fix("")): load_category(p) for p in paths}


def _chain(n):
    objects = [f"c{i:02d}" for i in range(n)]
    return preorder_from_covers(objects, list(zip(objects, objects[1:])))


def _grid(rows, cols):
    def cell(r, c):
        return f"g{r}_{c}"

    covers = [(cell(r, c), cell(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    covers += [(cell(r, c), cell(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return preorder_from_covers([cell(r, c) for r in range(rows) for c in range(cols)], covers)


GENERATED = {
    **{f"chain{n}": (_chain, (n,)) for n in (1, 2, 5, 12, 30)},
    **{f"grid{r}x{c}": (_grid, (r, c)) for r, c in ((2, 2), (3, 4), (5, 6))},
}


def _mutants(cat: FinCat, rng: random.Random, per_kind: int):
    """One-entry mutations: a dropped composite, a retargeted composite and a
    reassigned identity, each built from fresh copies of the tables."""
    keys = sorted(cat.compose)
    names = sorted(cat.morphisms)
    for _ in range(per_kind):
        compose = dict(cat.compose)
        del compose[rng.choice(keys)]
        yield "drop", FinCat(cat.objects, dict(cat.morphisms), dict(cat.identity), compose)

        key = rng.choice(keys)
        compose = dict(cat.compose)
        compose[key] = rng.choice([m for m in names if m != compose[key]] or names)
        yield "retarget", FinCat(cat.objects, dict(cat.morphisms), dict(cat.identity), compose)

        x = rng.choice(sorted(cat.objects))
        identity = dict(cat.identity)
        identity[x] = rng.choice([m for m in names if m != identity[x]] or names)
        yield "identity", FinCat(cat.objects, dict(cat.morphisms), identity, dict(cat.compose))


def test_reports_match_the_triple_loop_on_the_corpus(fix):
    for name, cat in _corpus_categories(fix).items():
        assert validate_category(cat) == triple_loop_validate(cat), name


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_reports_match_the_triple_loop_on_chains_and_grids(name):
    build, args = GENERATED[name]
    cat = build(*args)
    assert validate_category(cat) == triple_loop_validate(cat)


def test_reports_match_the_triple_loop_on_one_entry_mutations(fix):
    subjects = dict(_corpus_categories(fix))
    subjects.update(chain8=_chain(8), grid3x3=_grid(3, 3))
    rng = random.Random(20260501)
    failing = set()
    for name, cat in sorted(subjects.items()):
        for kind, mutant in _mutants(cat, rng, per_kind=8):
            report = validate_category(mutant)
            assert report == triple_loop_validate(mutant), (name, kind)
            failing.update(o.name for o in report.failures())
    assert failing == {"coherence", "totality", "associativity", "left_identity", "right_identity"}


def test_index_answers_like_a_scan(fix):
    subjects = list(_corpus_categories(fix).values()) + [_grid(3, 4)]
    for cat in subjects:
        ends = cat.morphisms
        assert cat.sorted_morphisms() == sorted(ends)
        assert list(cat.composable_pairs()) == [
            (g, f) for g in sorted(ends) for f in sorted(ends) if ends[f][1] == ends[g][0]
        ]
        for x in cat.objects:
            assert cat.has_object(x)
            assert list(cat.out_arrows(x)) == sorted(m for m in ends if ends[m][0] == x)
            assert list(cat.in_arrows(x)) == sorted(m for m in ends if ends[m][1] == x)
            for y in cat.objects:
                assert cat.hom(x, y) == sorted(m for m in ends if ends[m] == (x, y))
        assert not cat.has_object("no such object")
        assert cat.hom("no such object", cat.objects[0]) == []


def test_returned_lists_are_fresh(kite):
    hom = kite.hom("1", "5")
    assert hom
    ordered = kite.sorted_morphisms()
    hom.clear()
    ordered.reverse()
    ordered.append("bogus")
    assert kite.hom("1", "5") == sorted(m for m, e in kite.morphisms.items() if e == ("1", "5"))
    assert kite.sorted_morphisms() == sorted(kite.morphisms)
    assert validate_category(kite).passed


def _random_covers(rng: random.Random, acyclic: bool):
    size = rng.randint(1, 9)
    objects = [f"v{i}" for i in rng.sample(range(20), size)]
    covers = []
    for i, a in enumerate(objects):
        for b in objects[i + 1 :]:
            if rng.random() < 0.3:
                covers.append((a, b))
    if not acyclic and size > 1:
        loop = sorted(rng.sample(range(size), rng.randint(2, size)))
        covers += [(objects[i], objects[j]) for i, j in zip(loop, loop[1:] + loop[:1])]
    rng.shuffle(covers)
    rng.shuffle(objects)
    return objects, covers


def _name(a, b):
    return f"id_{a}" if a == b else f"{a}->{b}"


def test_closure_matches_the_fixpoint_on_random_dags():
    rng = random.Random(7)
    for _ in range(150):
        objects, covers = _random_covers(rng, acyclic=True)
        le = fixpoint_closure(objects, covers)
        cat = preorder_from_covers(objects, covers)
        assert cat.morphisms == {_name(a, b): (a, b) for a, b in le}
        assert cat.compose == {
            (_name(b, c), _name(a, b)): _name(a, c) for a, b in le for b2, c in le if b == b2
        }
        assert list(cat.morphisms.values()) == sorted(le)
        chains = [cat.morphisms[f] + cat.morphisms[g][1:] for g, f in cat.compose]
        assert chains == sorted(chains)


def test_cycle_error_names_the_least_offending_pair():
    rng = random.Random(11)
    for _ in range(60):
        objects, covers = _random_covers(rng, acyclic=False)
        if len(objects) < 2:
            continue
        le = fixpoint_closure(objects, covers)
        a, b = min((a, b) for a, b in le if a != b and (b, a) in le)
        with pytest.raises(CycleError) as raised:
            preorder_from_covers(objects, covers)
        assert str(raised.value) == f"not antisymmetric: {a!r} <= {b!r} <= {a!r}"
