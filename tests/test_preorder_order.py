"""A preorder's composition table read off its order.

``preorder_from_covers`` keeps one row of names per object, and its
``compose`` is a read-only mapping derived from them.  Here that mapping is
compared with the dict of ``name_per_triple_preorder`` entry by entry,
lookup by lookup and in the generators and index it gives; a table made by
hand is still checked; the functor rule that decides composition from
typing between two such tables is compared with the scan over explicit
tables; and the bundled preorder fixtures and models keep the output they
had with the explicit table, golden file by golden file.
"""

import copy
import io
import os
import pickle
import random

import pytest
from oracles import (
    brute_generators,
    elementwise_respects_composition,
    name_per_triple_preorder,
    triple_loop_validate,
)

from fincat import cli, core
from fincat.core import (
    CheckReport,
    FinCat,
    FinCatError,
    FunctorVal,
    Obligation,
    preorder_from_covers,
    require_category,
    validate_category,
    validate_functor,
)
from fincat.files import FixtureParseError, load_category

PREORDER_FIXTURES = ("a4", "b6", "chain2", "chain3", "kite")


def _chain(n, prefix="c"):
    objects = [f"{prefix}{i:02d}" for i in range(n)]
    return objects, list(zip(objects, objects[1:]))


def _grid(rows, cols):
    def cell(r, c):
        return f"g{r}_{c}"

    covers = [(cell(r, c), cell(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    covers += [(cell(r, c), cell(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return [cell(r, c) for r in range(rows) for c in range(cols)], covers


def _forest(rng, size):
    """Trees whose edges point from a parent to its child, some covers given
    twice and some implied ones given as well."""
    objects = [f"t{i}" for i in range(size)]
    parent = {i: rng.randrange(i) for i in range(1, size) if rng.random() < 0.8}
    covers = [(objects[p], objects[i]) for i, p in parent.items()]
    covers += rng.sample(covers, min(2, len(covers)))
    for i, p in parent.items():
        if p in parent:
            covers.append((objects[parent[p]], objects[i]))
    rng.shuffle(covers)
    return objects, covers


def seeded_covers():
    """(label, objects, covers) of the seeded shapes: chains, grids, forests,
    antichains, one object, no covers, and object names with ``->`` or
    ``id_`` that still give every pair its own name."""
    rng = random.Random(38)
    shapes = [(f"chain{n}", *_chain(n)) for n in (1, 2, 3, 7, 15)]
    shapes += [(f"grid{r}x{c}", *_grid(r, c)) for r, c in ((1, 3), (2, 2), (3, 4))]
    shapes += [(f"forest{i}", *_forest(rng, rng.randint(2, 12))) for i in range(6)]
    shapes += [(f"antichain{n}", [f"a{i}" for i in range(n)], []) for n in (2, 5)]
    shapes += [("point", ["*"], []), ("point_looped", ["*"], [("*", "*")]), ("empty", [], [])]
    shapes += [
        ("arrow_names", ["a", "b->c", "x"], [("a", "b->c"), ("b->c", "x")]),
        ("id_names", ["id_a", "b", "a"], [("id_a", "b"), ("a", "id_a")]),
        ("id_chain", ["id_x", "id_y", "x"], [("id_x", "id_y"), ("id_y", "x")]),
    ]
    return shapes


def _tables(fix):
    """(label, order-derived table, name-per-triple table) for each bundled
    ``preorder:`` fixture, as loaded, and each seeded shape."""
    for stem in PREORDER_FIXTURES:
        got = load_category(fix(f"{stem}.fincat"))
        yield stem, got, name_per_triple_preorder(got.objects, got.morphisms.values())
    for label, objects, covers in seeded_covers():
        want = name_per_triple_preorder(objects, covers)
        yield label, preorder_from_covers(objects, covers), want


def _keys(want):
    """Every key to look up: each pair of names, composable or not, names
    no morphism has, and keys that are not pairs of names at all."""
    names = list(want.morphisms) + ["nothing", "id_", "->"]
    keys = [(g, f) for g in names for f in names]
    keys += [(), ("id_x",), ("id_x", "id_x", "id_x"), "id_x", 7, None, frozenset(), ("a", 1)]
    keys += [tuple(reversed(key)) for key in list(want.compose)[:3]]
    return keys


def _lookup(table, key):
    try:
        return ("value", table[key])
    except KeyError as exc:
        return ("KeyError", exc.args)


def test_load_category_reports_an_unknown_cover_at_its_own_line(tmp_path):
    path = tmp_path / "u.fincat"
    path.write_text("objects:\n  a\n  b\n\npreorder:\n  a < b\n  b < z\n")
    with pytest.raises(FixtureParseError) as raised:
        load_category(str(path))
    assert str(raised.value) == f"{path}:7: cover ('b', 'z') mentions unknown object"
    path.write_text("objects:\n  a\n  b\npreorder:\n  q < a\n")
    with pytest.raises(FixtureParseError, match=r"u\.fincat:5: cover \('q', 'a'\) mentions"):
        load_category(str(path))
    # a cycle is still reported at the section header
    path.write_text("objects:\n  a\n  b\npreorder:\n  a < b\n  b < a\n")
    with pytest.raises(FixtureParseError, match=r"u\.fincat:4: not antisymmetric"):
        load_category(str(path))


def test_derived_table_equals_the_name_per_triple_dict(fix):
    """Entries in order, every lookup, ``len``, equality, ``repr``, copies
    and pickles of the derived table are those of the dict."""
    for label, got, want in _tables(fix):
        derived, table = got.compose, want.compose
        assert type(derived) is core._PreorderCompose, label
        for key in _keys(want):
            assert _lookup(derived, key) == _lookup(table, key), (label, key)
            assert (key in derived) == (key in table), (label, key)
            assert derived.get(key, "absent") == table.get(key, "absent"), (label, key)
        with pytest.raises(TypeError):
            derived[(["unhashable"], "id_x")]
        assert len(derived) == len(table), label
        assert list(derived.items()) == list(table.items()), label
        assert list(derived) == list(table) and list(derived.values()) == list(table.values())
        assert dict(derived) == table and derived == table and table == derived
        assert not derived != table and repr(derived) == repr(table), label
        assert copy.copy(derived) == table and copy.deepcopy(derived) == table
        assert type(pickle.loads(pickle.dumps(derived))) is dict
        assert pickle.loads(pickle.dumps(derived)) == table
        assert got == want and pickle.loads(pickle.dumps(got)) == want, label
        assert triple_loop_validate(got).passed, label
        assert validate_category(got) == triple_loop_validate(want), label


def test_generators_read_off_the_order_and_the_index_match_the_dict(fix):
    """Generators are the transitive reduction of the order, and neither
    they nor the index build the dict."""
    for label, got, want in _tables(fix):
        assert got.generators == brute_generators(want), label
        explicit = FinCat(want.objects, want.morphisms, want.identity, dict(want.compose))
        assert got._index == explicit._index, label
        assert got.compose._built is None, label  # neither built the dict


def test_unequal_orders_compare_by_their_tables():
    chain, antichain = preorder_from_covers(*_chain(3)), preorder_from_covers(_chain(3)[0], [])
    assert chain.compose != antichain.compose and chain != antichain
    assert chain.compose == preorder_from_covers(*_chain(3)).compose


def test_require_category_accepts_an_order_derived_table_unchecked(monkeypatch):
    """The gate enumerates no law of a table that preorder_from_covers built
    and still checks any table made from one with other objects, morphisms
    or identities, which may break a law."""
    calls = []
    check = core.validate_category
    monkeypatch.setattr(core, "validate_category", lambda c: calls.append(c) or check(c))
    cat = preorder_from_covers(*_chain(4))
    require_category(cat, "chain")
    assert calls == []
    bent = cat.replace(identity={**cat.identity, "c00": "c00->c01"})
    with pytest.raises(FinCatError, match="chain is not a category: coherence fails"):
        require_category(bent, "chain")
    dropped = cat.replace(morphisms={m: e for m, e in cat.morphisms.items() if m != "c00->c03"})
    with pytest.raises(core.MalformedTableError, match="unknown morphism 'c00->c03'"):
        require_category(dropped, "chain")
    assert calls == [bent, dropped]


def test_a_hand_built_order_table_is_still_checked(monkeypatch):
    """Only a table that preorder_from_covers closed is taken as lawful.
    One built by hand, with the category's own objects, morphisms and
    identities, is enumerated by the gate, whether its rows are an order or
    not, and a functor into or out of it is scanned."""
    calls, scans = [], []
    check, scan = core.validate_category, core._composition_failures
    monkeypatch.setattr(core, "validate_category", lambda c: calls.append(c) or check(c))
    monkeypatch.setattr(core, "_composition_failures", lambda *a: scans.append(a) or scan(*a))
    objects = ("a", "b", "c")
    morphisms = {"id_a": ("a", "a"), "a->b": ("a", "b"), "b->c": ("b", "c")}
    morphisms.update({"id_b": ("b", "b"), "id_c": ("c", "c")})
    identity = {x: f"id_{x}" for x in objects}
    # b->c . a->b names a morphism that is not there
    rows = {"a": {"a": "id_a", "b": "a->b", "c": "a->c"}, "b": {"b": "id_b", "c": "b->c"}}
    rows["c"] = {"c": "id_c"}
    parts = objects, morphisms, identity
    bad = FinCat(*parts, core._PreorderCompose(rows, *parts))
    with pytest.raises(core.MalformedTableError, match="unknown morphism 'a->c'"):
        require_category(bad, "hand-built")
    closed = preorder_from_covers(*_chain(3))
    parts = closed.objects, closed.morphisms, closed.identity
    copied = closed.replace(compose=core._PreorderCompose(closed.compose._rows, *parts))
    require_category(copied, "hand-built")
    assert calls == [bad, copied]
    identity_map = {x: x for x in closed.objects}, {m: m for m in closed.morphisms}
    assert validate_functor(FunctorVal(copied, closed, *identity_map)).passed
    assert validate_functor(FunctorVal(closed, copied, *identity_map)).passed
    assert validate_functor(FunctorVal(closed, closed, *identity_map)).passed
    assert len(scans) == 2


def _random_functor(rng, src, tgt, kind):
    """The object and morphism maps of a functor candidate between two
    order-derived tables: a monotone map (a constant one when a drawn
    image has no upper bound of its predecessors' images), any map on
    objects (a pair with no pair of images goes to a random morphism), or a
    monotone map with one image retargeted."""
    objects = list(tgt.objects)
    object_map = {}
    # fewer predecessors first: a linear extension of the source's order
    for x in sorted(src.objects, key=lambda x: sum(bool(src.hom(y, x)) for y in src.objects)):
        images = {object_map[y] for y in object_map if src.hom(y, x)}
        bounds = [b for b in objects if all(tgt.hom(a, b) for a in images)]
        if kind != "any" and not bounds:
            object_map = dict.fromkeys(src.objects, rng.choice(objects))
            break
        object_map[x] = rng.choice(objects if kind == "any" else bounds)
    names = sorted(tgt.morphisms)
    morphism_map = {}
    for m, (a, b) in src.morphisms.items():
        hom = tgt.hom(object_map[a], object_map[b])
        morphism_map[m] = hom[0] if hom else rng.choice(names)
    if kind == "retargeted":
        morphism_map[rng.choice(sorted(src.morphisms))] = rng.choice(names)
    return object_map, morphism_map


def _reference_report(f):
    """``validate_functor``'s report over explicit tables, its composition
    law by the elementwise scan."""
    src, tgt, om, mm = f.source, f.target, f.object_map, f.morphism_map
    typing = [
        (m, mm[m])
        for m in sorted(src.morphisms)
        if tgt.morphisms[mm[m]] != (om[src.dom(m)], om[src.cod(m)])
    ]
    respids = [(x, mm[src.id_of(x)]) for x in src.objects if mm[src.id_of(x)] != tgt.id_of(om[x])]
    respcomp = elementwise_respects_composition(f)
    laws = {"typing": typing, "respects_identities": respids, "respects_composition": respcomp}
    return CheckReport(
        "functor",
        tuple(Obligation(law, not found, found[0] if found else ()) for law, found in laws.items()),
    )


def test_functor_rule_matches_the_scan_over_explicit_tables(monkeypatch):
    """``validate_functor``'s whole report between two order-derived tables
    is the one the elementwise scan gives over their explicit tables, for
    monotone maps, maps that need not be monotone and monotone maps with
    one image retargeted.  Only a map that fails typing is scanned."""
    scans = []
    scan = core._composition_failures
    monkeypatch.setattr(core, "_composition_failures", lambda *a: scans.append(a) or scan(*a))
    rng = random.Random(3838)
    shapes = [shape[1:] for shape in seeded_covers() if shape[1]]
    seen = {"passed": 0, "typing": 0, "respects_composition": 0, "image not composable": 0}
    for trial in range(300):
        kind = ("monotone", "any", "retargeted")[trial % 3]
        src_shape, tgt_shape = rng.choice(shapes), rng.choice(shapes)
        src, tgt = preorder_from_covers(*src_shape), preorder_from_covers(*tgt_shape)
        object_map, morphism_map = _random_functor(rng, src, tgt, kind)
        del scans[:]
        got = validate_functor(FunctorVal(src, tgt, object_map, morphism_map))
        assert len(scans) == (not got.obligation("typing").passed), trial
        explicit = FunctorVal(
            name_per_triple_preorder(*src_shape),
            name_per_triple_preorder(*tgt_shape),
            object_map,
            morphism_map,
        )
        assert got == _reference_report(explicit), (trial, kind)
        assert got.passed or kind != "monotone", trial
        seen["passed"] += got.passed
        for o in got.failures():
            seen[o.name] = seen.get(o.name, 0) + 1
            seen["image not composable"] += o.witness[2:] == ("image not composable",)
    assert min(seen.values()) >= 10, seen  # respects_identities fails too


@pytest.mark.parametrize(
    "argv, built",
    [
        (["yoneda", "f_kite.fun"], 0),
        (["kan", "incl_a4_b6.fun", "h_on_a.fun"], 0),
        (["check-fun", "f_kite.fun"], 0),
        (["check-cat", "kite.fincat"], 1),
    ],
)
def test_only_check_cat_builds_a_preorder_dict(fix, monkeypatch, argv, built):
    """A functor's composition law reads a preorder's composites off its
    order, so no check of a set-valued functor builds the table's dict;
    ``check-cat`` enumerates every law and builds it once."""
    builds = []
    table = core._PreorderCompose._table

    def counted(self):
        if self._built is None:
            builds.append(self)
        return table(self)

    monkeypatch.setattr(core._PreorderCompose, "_table", counted)
    out = io.StringIO()
    assert cli.run([fix(a) if "." in a else a for a in argv], out=out) == 0, out.getvalue()
    assert len(builds) == built


# (golden name, argv) on the bundled preorder fixtures and models, and on
# id_monoid.fun, whose explicit tables take the scan of the composition law
GOLDEN = [(f"check_cat_{c}", ["check-cat", f"{c}.fincat"]) for c in PREORDER_FIXTURES]
GOLDEN += [
    (f"check_fun_{os.path.basename(f)}", ["check-fun", f"{f}.fun"])
    for f in (
        "f_kite",
        "id_monoid",
        "g_on_a",
        "g_on_b",
        "h_on_a",
        "incl_a4_b6",
        "incl_disc2_p",
        "incl_p_q",
        "s_on_q",
        "trunc_q_p",
        "broken/f_kite_bad_respcomp",
        "broken/f_kite_bad_respids",
    )
]
GOLDEN += [
    ("adj_verify_galois", ["adj", "verify", "galois.adj"]),
    ("adj_verify_galois_build", ["adj", "verify", "galois_build.adj"]),
    ("adj_build_galois_build", ["adj", "build", "galois_build.adj"]),
    (
        "eval_equalizer_chain2",
        ["eval", "equalizer.diag", "--model", "models/equalizer_chain2.model"],
    ),
    (
        "eval_universal_arrow_galois",
        ["eval", "universal_arrow.diag", "--model", "models/universal_arrow_galois.model"],
    ),
]


@pytest.mark.parametrize("name, argv", GOLDEN, ids=[name for name, _argv in GOLDEN])
def test_preorder_commands_match_golden(fix, name, argv):
    """Standard output and exit code as the explicit composition table gave
    them."""
    files = (".fincat", ".fun", ".adj", ".diag", ".model")
    argv = [fix(a) if a.endswith(files) else a for a in argv]
    out = io.StringIO()
    code = cli.run(argv, out=out)
    with open(fix("golden", f"{name}.txt"), encoding="utf-8") as handle:
        assert out.getvalue() + f"exit {code}\n" == handle.read()
