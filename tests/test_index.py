"""The indexed table layer of FinCat against index-free oracles.

``validate_category`` compares one column of composites per composable pair
and ``preorder_from_covers`` closes covers by Warshall and names each morphism
once; here both are compared with the triple loop, the pairwise fixpoint and
the name-per-triple construction of ``tests/oracles.py`` on the
corpus, on generated chains and grids, on seeded one-entry mutations (among
them the families whose columns differ where no triple fails, and typed wrong
composites in hom-sets of two or more morphisms) and on random cover lists.
The closures of random covers are thin, so they also check the associativity
that ``validate_category`` decides from coherence, totality and hom-set sizes,
and the totality it counts, against their mutants and doubles, which it scans.
Unknown names in the composition table must raise what the separate
per-entry scan of ``tests/oracles.py`` raised.
"""

import os
import random

import pytest
from helpers import random_covers
from oracles import (
    fixpoint_closure,
    name_per_triple_preorder,
    per_entry_wellformed,
    triple_loop_validate,
)

from fincat.core import (
    CycleError,
    FinCat,
    MalformedTableError,
    is_thin,
    preorder_from_covers,
    validate_category,
)
from fincat.files import load_category


def _corpus_categories(fix):
    paths = [fix(n) for n in sorted(os.listdir(fix(""))) if n.endswith(".fincat")]
    broken = fix("broken")
    paths += [os.path.join(broken, n) for n in sorted(os.listdir(broken)) if n.endswith(".fincat")]
    return {os.path.relpath(p, fix("")): load_category(p) for p in paths}


def _chain_covers(n):
    objects = [f"c{i:02d}" for i in range(n)]
    return objects, list(zip(objects, objects[1:]))


def _grid_covers(rows, cols):
    def cell(r, c):
        return f"g{r}_{c}"

    covers = [(cell(r, c), cell(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    covers += [(cell(r, c), cell(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return [cell(r, c) for r in range(rows) for c in range(cols)], covers


def _chain(n):
    return preorder_from_covers(*_chain_covers(n))


def _grid(rows, cols):
    return preorder_from_covers(*_grid_covers(rows, cols))


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


def _times_idempotent(cat: FinCat) -> FinCat:
    """cat x {1, e} with e . e = e: every hom-set of cat doubles, so a
    composite can be retargeted to a wrong morphism with the right ends."""

    def name(m, t):
        return m if t == "1" else f"{m}*e"

    morphisms = {name(m, t): ends for m, ends in cat.morphisms.items() for t in ("1", "e")}
    compose = {
        (name(g, s), name(f, t)): name(gf, "1" if s == t == "1" else "e")
        for (g, f), gf in cat.compose.items()
        for s in ("1", "e")
        for t in ("1", "e")
    }
    return FinCat(cat.objects, morphisms, dict(cat.identity), compose)


def _covers(cat: FinCat) -> list:
    """Non-identity morphisms that are no composite of two non-identities."""
    ids = set(cat.identity.values())
    made = {h for (g, f), h in cat.compose.items() if g not in ids and f not in ids}
    return sorted(m for m in cat.morphisms if m not in ids and m not in made)


def _with_compose(cat: FinCat, compose: dict) -> FinCat:
    return FinCat(cat.objects, dict(cat.morphisms), dict(cat.identity), compose)


def _dropped_between_covers(cat: FinCat, rng: random.Random, count: int):
    """Drop h o g for covers h and g.  The pair (f, g) = (id, g) then
    compares h-axes that differ at h, but h o g = k o m only with k or m an
    identity, so no associativity triple fails: only totality does."""
    covers = set(_covers(cat))
    keys = [(h, g) for (h, g) in sorted(cat.compose) if h in covers and g in covers]
    for key in rng.sample(keys, min(count, len(keys))):
        compose = dict(cat.compose)
        del compose[key]
        yield _with_compose(cat, compose)


def _wrong_codomain(cat: FinCat, rng: random.Random, count: int):
    """Retarget some g o f to a morphism from dom f that ends elsewhere."""
    ends = cat.morphisms
    keys = []
    for g, f in sorted(cat.compose):
        others = sorted(m for m in ends if ends[m][0] == ends[f][0] and ends[m][1] != ends[g][1])
        if others:
            keys.append(((g, f), others))
    for key, others in rng.sample(keys, min(count, len(keys))):
        compose = dict(cat.compose)
        compose[key] = rng.choice(others)
        yield _with_compose(cat, compose)


def _typed_wrong(cat: FinCat, rng: random.Random, count: int):
    """Retarget some composite to another morphism of the same hom-set."""
    keys = []
    for key, h in sorted(cat.compose.items()):
        others = [m for m in cat.hom(*cat.morphisms[h]) if m != h]
        if others:
            keys.append((key, others))
    for key, others in rng.sample(keys, min(count, len(keys))):
        compose = dict(cat.compose)
        compose[key] = rng.choice(others)
        yield _with_compose(cat, compose)


def _thin_subjects(fix):
    return [_chain(6), _grid(3, 3)] + [load_category(fix(n)) for n in ("kite.fincat", "b6.fincat")]


def test_a_dropped_composite_of_two_covers_fails_only_totality(fix):
    rng = random.Random(14)
    subjects = _thin_subjects(fix)
    for cat in subjects:
        mutants = list(_dropped_between_covers(cat, rng, count=6))
        assert mutants
        for mutant in mutants:
            report = validate_category(mutant)
            assert report == triple_loop_validate(mutant)
            assert [o.name for o in report.failures()] == ["totality"]


def test_a_composite_with_a_wrong_codomain_matches_the_triple_loop(fix):
    rng = random.Random(15)
    subjects = _thin_subjects(fix)
    for cat in subjects:
        mutants = list(_wrong_codomain(cat, rng, count=6))
        assert len(mutants) == 6
        for mutant in mutants:
            report = validate_category(mutant)
            assert report == triple_loop_validate(mutant)
            assert not report.obligation("coherence").passed


def test_a_typed_wrong_composite_matches_the_triple_loop(fix):
    rng = random.Random(16)
    monoid = load_category(fix("monoid_e.fincat"))
    b6 = load_category(fix("b6.fincat"))
    subjects = [monoid, _times_idempotent(b6), _times_idempotent(_chain(5))]
    failing = set()
    for cat in subjects:
        assert validate_category(cat).passed
        for mutant in _typed_wrong(cat, rng, count=12):
            report = validate_category(mutant)
            assert report == triple_loop_validate(mutant)
            assert report.obligation("coherence").passed
            failing.update(o.name for o in report.failures())
    assert "associativity" in failing


def test_an_incoherent_entry_behind_a_missing_composite_is_found():
    """h o (g o f) is missing and h o g is retargeted to x, which does not
    start where g does, yet the table has an incoherent entry x o f = x.
    The column of f has no key x, so the h-axes must differ there and the
    scan must report (h, g, f, None, x)."""
    chain = _chain(4)
    f, g, h, x = "c00->c01", "c01->c02", "c02->c03", "c00->c03"
    compose = dict(chain.compose)
    del compose[(h, "c00->c02")]
    compose[(h, g)] = x
    compose[(x, f)] = x
    mutant = _with_compose(chain, compose)
    report = validate_category(mutant)
    assert report == triple_loop_validate(mutant)
    assert report.obligation("associativity").witness == (h, g, f, None, x)


class _CountingTable(dict):
    """A composition table that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


def test_a_lawful_thin_table_looks_up_no_composite():
    """Totality is counted, and associativity and both identity laws follow
    from thinness, so no composite is looked up."""
    chain = _chain(20)
    compose = _CountingTable(chain.compose)
    assert validate_category(_with_compose(chain, compose)).passed
    assert (len(chain.compose), len(chain.morphisms)) == (1540, 210)
    assert compose.lookups == 0


def test_associativity_looks_up_each_composable_pair_once():
    """A lawful table that is not thin is read in its columns: one lookup per
    composable pair, and two per morphism for the identity laws."""
    doubled = _times_idempotent(_chain(20))
    compose = _CountingTable(doubled.compose)
    assert validate_category(_with_compose(doubled, compose)).passed
    pairs = len(doubled.compose)  # a lawful table holds every composable pair
    triples = sum(len(doubled.out_arrows(doubled.cod(g))) for g, _f in doubled.compose)
    assert (pairs, triples, len(doubled.morphisms)) == (6160, 70840, 420)
    assert compose.lookups == pairs + 2 * len(doubled.morphisms)


def _dropped_and_padded(cat: FinCat, rng: random.Random, count: int):
    """Drop one composite and add one entry for a pair that does not
    compose, so the table keeps as many entries as there are composable
    pairs while coherence and totality fail."""
    ends = cat.morphisms
    names = sorted(ends)
    loose = [(g, f) for g in names for f in names if ends[f][1] != ends[g][0]]
    for _ in range(count):
        compose = dict(cat.compose)
        del compose[rng.choice(sorted(compose))]
        compose[rng.choice(loose)] = rng.choice(names)
        yield _with_compose(cat, compose)


def test_a_dropped_composite_behind_a_padded_entry_matches_the_triple_loop(fix):
    rng = random.Random(26)
    subjects = _thin_subjects(fix) + [_times_idempotent(_chain(4))]
    for cat in subjects:
        for mutant in _dropped_and_padded(cat, rng, count=6):
            assert len(mutant.compose) == len(cat.compose)
            report = validate_category(mutant)
            assert report == triple_loop_validate(mutant)
            assert not report.obligation("coherence").passed
            assert not report.obligation("totality").passed


def _renamed_entry(cat: FinCat, at: int, slot: int, name: str) -> FinCat:
    """``cat`` with one name of its ``at``-th composition entry, g, f or h
    by ``slot``, replaced by ``name``; the table keeps its order."""
    compose = {}
    for i, ((g, f), h) in enumerate(cat.compose.items()):
        entry = [g, f, h]
        if i == at:
            entry[slot] = name
        compose[(entry[0], entry[1])] = entry[2]
    return _with_compose(cat, compose)


def _malformed_message(check, cat: FinCat) -> str:
    with pytest.raises(MalformedTableError) as raised:
        check(cat)
    return str(raised.value)


def test_an_unknown_name_in_the_table_is_reported_as_by_the_per_entry_scan():
    chain = _chain(5)
    last = len(chain.compose) - 1
    subjects = []
    for at in (0, last // 2, last):
        for slot in (0, 1, 2):
            subjects.append(_renamed_entry(chain, at, slot, "ghost"))
            # a later entry names another unknown morphism, which comes second
            subjects.append(_renamed_entry(subjects[-1], last, 2, "later"))
        # two unknown names in one entry: g is named before f, f before h
        both = _renamed_entry(_renamed_entry(chain, at, 2, "h_ghost"), at, 1, "f_ghost")
        subjects += [both, _renamed_entry(both, at, 0, "g_ghost")]
    # an entry that does not compose and names an unknown composite
    compose = dict(chain.compose)
    compose[("c00->c01", "c03->c04")] = "ghost"
    subjects.append(_with_compose(chain, compose))
    for cat in subjects:
        want = _malformed_message(per_entry_wellformed, cat)
        assert _malformed_message(validate_category, cat) == want
        assert "composition table mentions unknown morphism" in want


def test_a_dangling_object_or_identity_is_reported_before_the_table():
    chain = _chain(3)
    broken = _renamed_entry(chain, 0, 0, "ghost")
    identity = dict(broken.identity, c01="no_such_identity")
    tables = (dict(broken.morphisms), dict(broken.identity), dict(broken.compose))
    subjects = [
        FinCat(broken.objects, dict(broken.morphisms), identity, dict(broken.compose)),
        FinCat(broken.objects + ("c00",), *tables),
        FinCat(broken.objects, dict(broken.morphisms, stray=("c00", "elsewhere")), *tables[1:]),
    ]
    for cat in subjects:
        want = _malformed_message(per_entry_wellformed, cat)
        assert _malformed_message(validate_category, cat) == want
        assert "composition table" not in want


def test_counted_totality_matches_the_triple_loop_on_random_thin_closures():
    """A coherent table is total exactly when it has one entry per
    composable pair.  Random thin closures, their one-entry mutants and
    their count-keeping mutants are checked against the triple loop."""
    rng = random.Random(2026)
    counted = 0
    for _ in range(60):
        objects, covers = random_covers(rng, acyclic=True)
        cat = preorder_from_covers(objects, covers)
        subjects = [cat] + [mutant for _kind, mutant in _mutants(cat, rng, per_kind=2)]
        if len(cat.objects) > 1:
            subjects += list(_dropped_and_padded(cat, rng, count=2))
        for subject in subjects:
            report = validate_category(subject)
            assert report == triple_loop_validate(subject)
            if report.obligation("coherence").passed:
                pairs = sum(len(subject.out_arrows(subject.cod(f))) for f in subject.morphisms)
                total = len(subject.compose) == pairs
                assert total == report.obligation("totality").passed
                counted += total and is_thin(subject)
    assert counted >= 60, counted


def test_index_answers_like_a_scan(fix):
    subjects = list(_corpus_categories(fix).values()) + [_grid(3, 4)]
    for cat in subjects:
        ends = cat.morphisms
        assert cat.sorted_morphisms() == sorted(ends)
        for x in cat.objects:
            assert cat.has_object(x)
            assert list(cat.out_arrows(x)) == sorted(m for m in ends if ends[m][0] == x)
            for y in cat.objects:
                assert cat.hom(x, y) == tuple(sorted(m for m in ends if ends[m] == (x, y)))
        assert not cat.has_object("no such object")
        assert cat.hom("no such object", cat.objects[0]) == ()


def test_returned_lists_are_fresh(kite):
    """``sorted_morphisms`` hands out a fresh list; ``hom`` hands out the
    index's own tuple, which no caller can change."""
    hom = kite.hom("1", "5")
    assert hom and isinstance(hom, tuple)
    ordered = kite.sorted_morphisms()
    ordered.reverse()
    ordered.append("bogus")
    ends = kite.morphisms
    assert kite.hom("1", "5") == tuple(sorted(m for m in ends if ends[m] == ("1", "5")))
    assert kite.sorted_morphisms() == sorted(kite.morphisms)
    assert validate_category(kite).passed


def _name(a, b):
    return f"id_{a}" if a == b else f"{a}->{b}"


def _thin(cat: FinCat) -> bool:
    return all(len(cat.hom(*ends)) == 1 for ends in cat.morphisms.values())


def test_reports_match_the_triple_loop_on_random_thin_closures():
    """Associativity of a coherent, total, thin table is decided without a
    scan.  The closures of random acyclic covers take that path; their
    one-entry mutants (incoherent or partial) and their doubles by an
    idempotent (not thin) take the scan, on the same orders."""
    rng = random.Random(23)
    seen = {"thin": 0, "scanned": 0}
    failing = set()
    for _ in range(80):
        objects, covers = random_covers(rng, acyclic=True)
        cat = preorder_from_covers(objects, covers)
        doubled = _times_idempotent(cat)
        assert _thin(cat) and validate_category(cat).passed
        assert not _thin(doubled) and validate_category(doubled).passed
        subjects = [cat, doubled, *_typed_wrong(doubled, rng, count=2)]
        subjects += [mutant for _kind, mutant in _mutants(cat, rng, per_kind=2)]
        for subject in subjects:
            report = validate_category(subject)
            assert report == triple_loop_validate(subject)
            assert is_thin(subject) == _thin(subject)
            decided = _thin(subject) and all(
                report.obligation(law).passed for law in ("coherence", "totality")
            )
            seen["thin" if decided else "scanned"] += 1
            failing.update(o.name for o in report.failures())
    assert seen["thin"] >= 80 and seen["scanned"] >= 400, seen
    assert failing == {"coherence", "totality", "associativity", "left_identity", "right_identity"}


def test_closure_matches_the_fixpoint_on_random_dags():
    rng = random.Random(7)
    for _ in range(150):
        objects, covers = random_covers(rng, acyclic=True)
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
        objects, covers = random_covers(rng, acyclic=False)
        if len(objects) < 2:
            continue
        le = fixpoint_closure(objects, covers)
        a, b = min((a, b) for a, b in le if a != b and (b, a) in le)
        with pytest.raises(CycleError) as raised:
            preorder_from_covers(objects, covers)
        assert str(raised.value) == f"not antisymmetric: {a!r} <= {b!r} <= {a!r}"


def _same_tables_in_order(got, want):
    assert got == want
    for table in ("morphisms", "identity", "compose"):
        assert list(getattr(got, table).items()) == list(getattr(want, table).items()), table


@pytest.mark.parametrize(
    "objects, covers",
    [_chain_covers(n) for n in (1, 2, 5, 12, 30)]
    + [_grid_covers(r, c) for r, c in ((1, 1), (2, 2), (3, 4), (5, 6))],
)
def test_preorder_names_match_the_name_per_triple_construction(objects, covers):
    want = name_per_triple_preorder(objects, covers)
    _same_tables_in_order(preorder_from_covers(objects, covers), want)


def test_preorder_names_match_on_random_covers_and_cycles():
    rng = random.Random(31)
    cycles = 0
    for _ in range(200):
        objects, covers = random_covers(rng, acyclic=rng.random() < 0.5)
        try:
            want = name_per_triple_preorder(objects, covers)
        except CycleError as exc:
            with pytest.raises(CycleError) as raised:
                preorder_from_covers(objects, covers)
            assert str(raised.value) == str(exc)
            cycles += 1
            continue
        _same_tables_in_order(preorder_from_covers(objects, covers), want)
    assert cycles > 50, cycles
