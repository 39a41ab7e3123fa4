"""Fixture file loaders: section parsing, auto-filled tables, error reporting."""

import collections
import io
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fincat import cli, files
from fincat.core import FINSET, validate_category
from fincat.files import (
    FixtureParseError,
    load_adjunction_parts,
    load_category,
    load_functor,
    load_model_spec,
    load_nattrans,
    load_once,
    parse_atom,
    parse_set_literal,
)
from oracles import regex_load_category, regex_parse_atom


def test_identities_and_identity_composites_are_implicit(fix):
    cat = load_category(fix("chain2.fincat"))
    assert cat.identity == {"0": "id_0", "1": "id_1"}
    assert cat.comp("id_1", "0->1") == "0->1"
    assert cat.comp("0->1", "id_0") == "0->1"
    assert validate_category(cat).passed


def test_preorder_section_generates_the_closure(fix):
    cat = load_category(fix("b6.fincat"))
    assert len(cat.morphisms) == 17
    assert "1->6" in cat.morphisms  # transitive closure arrow, not a cover
    assert cat.comp("4->6", "2->4") == "2->6"


def test_category_parse_errors_carry_path_and_line(tmp_path):
    bad = tmp_path / "bad.fincat"
    bad.write_text("objects:\n  a\nmorphisms:\n  f a -> b\n")
    with pytest.raises(FixtureParseError) as err:
        load_category(str(bad))
    assert "bad.fincat:4:" in str(err.value)
    assert err.value.lineno == 4


def test_unknown_section_is_rejected(tmp_path):
    bad = tmp_path / "bad.fincat"
    bad.write_text("objects:\n  a\nnonsense:\n  x\n")
    with pytest.raises(FixtureParseError):
        load_category(str(bad))


def test_duplicate_morphism_is_rejected(tmp_path):
    bad = tmp_path / "bad.fincat"
    bad.write_text("objects:\n  a\nmorphisms:\n  f : a -> a\n  f : a -> a\n")
    with pytest.raises(FixtureParseError):
        load_category(str(bad))


@pytest.mark.parametrize(
    "body, lineno, message",
    [
        ("objects:\n  a\n  a,p\n", 3, "object 'a,p' contains reserved character ','"),
        ("objects:\n  f(x)\n", 2, "object 'f(x)' contains reserved character '('"),
        ("objects:\n  a\n  b\nmorphisms:\n  p,q : b -> a\n", 5, "morphism 'p,q'"),
        ("objects:\n  a\nmorphisms:\n  e) : a -> a\n", 4, "reserved character ')'"),
    ],
)
def test_reserved_identifier_characters_are_rejected(tmp_path, body, lineno, message):
    bad = tmp_path / "bad.fincat"
    bad.write_text(body)
    with pytest.raises(FixtureParseError, match=re.escape(message)) as err:
        load_category(str(bad))
    assert err.value.lineno == lineno


def test_arrow_names_stay_legal(tmp_path):
    ok = tmp_path / "ok.fincat"
    ok.write_text("objects:\n  a\n  b\nmorphisms:\n  a->b : a -> b\n")
    assert "a->b" in load_category(str(ok)).morphisms


def test_functor_identity_images_are_auto_filled(fix):
    fun = load_functor(fix("incl_a4_b6.fun"))
    assert fun.morphism_map["id_2"] == "id_2"
    assert fun.target.objects == load_category(fix("b6.fincat")).objects


def test_set_valued_functor_loads_maps(f_kite):
    assert f_kite.target is FINSET
    assert sorted(f_kite.object_map["1"]) == [24, 25]
    one_three = f_kite.morphism_map["1->3"]
    assert (one_three.dom.atoms, one_three.values) == ((24, 25), (2, 3))


def test_functor_with_unknown_source_object_is_rejected(tmp_path, fix):
    bad = tmp_path / "bad.fun"
    bad.write_text(
        f"source: {fix('chain2.fincat')}\n"
        "target: finset\n"
        "objects:\n"
        "  9 |-> {a}\n"
    )
    with pytest.raises(FixtureParseError):
        load_functor(str(bad))


def test_nattrans_components_resolve_against_both_functors(fix):
    nt = load_nattrans(fix("id_fkite.nt"))
    assert set(nt.components) == set(nt.F.source.objects)
    assert (nt.at("1").dom.atoms, nt.at("1").values) == ((24, 25), (24, 25))


def test_adjunction_manifest_kinds(fix):
    full = load_adjunction_parts(fix("galois.adj"))
    assert full.kind == "full"
    assert full.left is not None
    assert full.counit["2"] == "1->2"

    build = load_adjunction_parts(fix("galois_build.adj"))
    assert build.kind == "build"
    assert build.left is None
    assert build.lobjects == {"0": "0", "1": "1"}


def test_model_spec_loads_layers_functors_binds_and_carriers(fix):
    spec = load_model_spec(fix("models", "universal_arrow_galois.model"))
    assert set(spec.layers) == {"LA", "LB"}
    assert ("LB", "LA") in spec.functors
    assert spec.binds["A"] == "0"

    monoid = load_model_spec(fix("models", "equalizer_monoid.model"))
    assert set(monoid.layers) == {"L"}
    assert not monoid.binds


def test_model_functor_layer_consistency(tmp_path, fix):
    bad = tmp_path / "bad.model"
    bad.write_text(
        f"layer LA = {fix('chain2.fincat')}\n"
        f"layer LB = {fix('chain3.fincat')}\n"
        f"functor LA LB = {fix('trunc_q_p.fun')}\n"  # runs LB -> LA, not LA -> LB
    )
    with pytest.raises(FixtureParseError):
        load_model_spec(str(bad))


def test_set_literal_parsing():
    assert list(parse_set_literal("{a, c, b}")) == ["a", "b", "c"]
    assert list(parse_set_literal("{}")) == []
    assert list(parse_set_literal("{2, 10}")) == [2, 10]  # numeric atom order
    with pytest.raises(ValueError):
        parse_set_literal("a, b")
    with pytest.raises(ValueError, match="atom 'a' named twice"):
        parse_set_literal("{a, b, a}")
    with pytest.raises(ValueError, match="atom 7 named twice"):
        parse_set_literal("{7, 007}")


# ---------------------------------------------------------------------------
# One load per file and invocation


def _count_reads(monkeypatch):
    """Count the reads of each file, by resolved path."""
    reads = collections.Counter()
    real_read = files._read_lines

    def counted(path):
        reads[os.path.realpath(path)] += 1
        return real_read(path)

    monkeypatch.setattr(files, "_read_lines", counted)
    return reads


@pytest.mark.parametrize(
    "argv, read",
    [
        (
            ["kan", "incl_a4_b6.fun", "h_on_a.fun"],
            ["incl_a4_b6.fun", "a4.fincat", "b6.fincat", "h_on_a.fun"],
        ),
        (["check-nt", "id_fkite.nt"], ["id_fkite.nt", "f_kite.fun", "kite.fincat"]),
        (
            ["adj", "verify", "galois.adj"],
            ["galois.adj", "incl_p_q.fun", "trunc_q_p.fun", "chain2.fincat", "chain3.fincat"],
        ),
        (
            ["eval", "universal_arrow.diag", "--model", "models/universal_arrow_galois.model"],
            [
                "models/universal_arrow_galois.model",
                "chain2.fincat",
                "chain3.fincat",
                "trunc_q_p.fun",
            ],
        ),
    ],
    ids=["kan", "check-nt", "adj", "eval"],
)
def test_a_command_reads_each_file_once(fix, monkeypatch, argv, read):
    reads = _count_reads(monkeypatch)
    argv = [a if a.startswith("-") or "." not in a else fix(a) for a in argv]
    assert cli.run(argv, out=io.StringIO()) == cli.EXIT_OK
    assert reads == {os.path.realpath(fix(name)): 1 for name in read}


def test_kan_reads_a_file_once_whatever_its_spelling(fix, monkeypatch):
    reads = _count_reads(monkeypatch)
    other_spelling = os.path.join(fix(""), "..", "fixtures", "h_on_a.fun")
    assert cli.run(["kan", fix("incl_a4_b6.fun"), other_spelling], out=io.StringIO()) == 0
    assert reads[os.path.realpath(fix("a4.fincat"))] == 1
    assert set(reads.values()) == {1}


def test_examples_reads_each_fixture_once(fix, monkeypatch):
    reads = _count_reads(monkeypatch)
    out = io.StringIO()
    assert cli.run(["examples"], out=out) == cli.EXIT_OK
    assert out.getvalue().endswith("corpus: 40/40 ok\n")
    for name in ("a4.fincat", "kite.fincat", "f_kite.fun", "chain2.fincat", "trunc_q_p.fun"):
        assert reads[os.path.realpath(fix(name))] == 1, name
    assert set(reads.values()) == {1}


def test_examples_parses_each_diagram_once(monkeypatch):
    """The 7 diagram entries of ``examples`` name 3 files; each is parsed
    once, and the shared diagrams answer as 7 fresh parses do."""
    parses = collections.Counter()
    real_parse = cli.parse_diagram

    def counted(text):
        parses[text] += 1
        return real_parse(text)

    monkeypatch.setattr(cli, "parse_diagram", counted)
    shared = io.StringIO()
    assert cli.run(["examples"], out=shared) == cli.EXIT_OK
    assert sorted(parses.values()) == [1, 1, 1]

    def fresh_diagrams(memo, load, path, *args):
        if load is cli._load_diagram:
            return load(path, *args)
        return load_once(memo, load, path, *args)

    parses.clear()
    monkeypatch.setattr(cli, "load_once", fresh_diagrams)
    fresh = io.StringIO()
    assert cli.run(["examples"], out=fresh) == cli.EXIT_OK
    assert sum(parses.values()) == 7 and len(parses) == 3
    assert shared.getvalue() == fresh.getvalue()


def test_loads_through_one_memo_share_their_objects(fix, tmp_path, monkeypatch):
    memo: dict = {}
    a4 = load_once(memo, load_category, fix("a4.fincat"))
    (tmp_path / "linked.fincat").symlink_to(fix("a4.fincat"))
    monkeypatch.chdir(fix(""))
    for spelling in (
        os.path.join(fix(""), "..", "fixtures", "a4.fincat"),
        str(tmp_path / "linked.fincat"),
        "a4.fincat",
    ):
        assert load_once(memo, load_category, spelling) is a4
    along = load_once(memo, load_functor, fix("incl_a4_b6.fun"), memo)
    functor = load_once(memo, load_functor, fix("h_on_a.fun"), memo)
    assert along.source is functor.source
    assert load_once(memo, load_functor, fix("h_on_a.fun"), memo) is functor
    nt = load_nattrans(fix("id_fkite.nt"))
    assert nt.F is nt.G
    # a bare path gives fresh objects
    assert load_functor(fix("h_on_a.fun")) is not load_functor(fix("h_on_a.fun"))
    assert load_nattrans(fix("id_fkite.nt")).F is not nt.F


def test_a_memo_hit_does_not_load_again(fix, monkeypatch):
    loads = collections.Counter()
    for name in ("load_category", "load_functor"):
        def counted(path, *args, _load=getattr(files, name), _name=name):
            loads[_name] += 1
            return _load(path, *args)

        monkeypatch.setattr(files, name, counted)
    memo: dict = {}
    for _ in range(2):
        load_once(memo, files.load_functor, fix("incl_a4_b6.fun"), memo)
        load_once(memo, files.load_functor, fix("h_on_a.fun"), memo)
        load_once(memo, files.load_category, fix("a4.fincat"))
    assert loads == {"load_functor": 2, "load_category": 2}


def test_a_load_that_raises_is_not_remembered(tmp_path):
    bad = tmp_path / "bad.fincat"
    bad.write_text("objects:\n  a\nmorphisms:\n  f a -> a\n")
    memo: dict = {}
    errors = []
    for _ in range(2):
        with pytest.raises(FixtureParseError) as err:
            load_once(memo, load_category, str(bad))
        errors.append(str(err.value))
    assert errors == [f"{bad}:4: expected 'name : dom -> cod', got 'f a -> a'"] * 2
    assert memo == {}


# ---------------------------------------------------------------------------
# The line pass against the regex-only reader

NAME = st.text(alphabet="ab01.=:->_", min_size=1, max_size=4)
GAP = st.sampled_from(["", " ", "  ", "\t"])
# mostly the separator a line needs, sometimes another
COLON = st.sampled_from([":"] * 9 + ["="])
ARROW = st.sampled_from(["->"] * 9 + [":"])
DOT = st.sampled_from(["."] * 3 + [":"])
EQUALS = st.sampled_from(["="] * 2 + [".", "->"])
HEADER = st.sampled_from(["{}:"] * 3 + ["{}: ", "  {}:", "{}:x", "{} :"])
NOISE = st.sampled_from(["", "   ", "# a . b = c", "  #objects:", "\t"])
TAIL = st.sampled_from(["", "", " ", "#", " # g . f = h", "#compose:", "# 1 : 0 -> 1"])


@st.composite
def fincat_texts(draw):
    """``.fincat`` text whose names hold ``.``, ``=``, ``:``, ``->`` and
    digits, with comments, blank lines, uneven whitespace and now and then
    a wrong separator."""
    objects = draw(st.lists(NAME, min_size=1, max_size=4))
    gap = lambda: draw(GAP)
    lines = [draw(HEADER).format("objects")] + [gap() + x + gap() for x in objects]
    if draw(st.booleans()):
        lines.append(draw(HEADER).format("preorder"))
        for _ in range(draw(st.integers(0, 4))):
            a, b = draw(st.sampled_from(objects)), draw(st.sampled_from(objects))
            lines.append(f"{gap()}{a}{gap()}<{gap()}{b}")
    else:
        lines.append(draw(HEADER).format("morphisms"))
        names = []
        for _ in range(draw(st.integers(0, 4))):
            name = draw(NAME)
            dom, cod = draw(st.sampled_from(objects)), draw(st.sampled_from(objects))
            colon, arrow = draw(COLON), draw(ARROW)
            line = f"{name}{gap()}{colon}{gap()}{dom}{gap()}{arrow}{gap()}{cod}"
            lines.append(gap() + line + gap())
            names.append(name)
        lines.append(draw(HEADER).format("compose"))
        pool = st.sampled_from(names + [f"id_{x}" for x in objects] + [draw(NAME)])
        for _ in range(draw(st.integers(0, 6))):
            g, f, h = draw(pool), draw(pool), draw(pool)
            dot, equals = draw(DOT), draw(EQUALS)
            lines.append(f"{gap()}{g}{gap()}{dot}{gap()}{f}{gap()}{equals}{gap()}{h}{gap()}")
    out = []
    for line in lines:
        out.append(draw(NOISE))
        out.append(line + draw(TAIL))
    return "\n".join(out) + "\n"


def _outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # the message is what a user sees
        return type(exc).__name__, str(exc)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("line_pass") / "generated.fincat"


@given(fincat_texts())
@settings(max_examples=300, deadline=None)
def test_the_line_pass_reads_like_the_regex_reader(scratch_file, text):
    scratch_file.write_text(text, encoding="utf-8")
    path = str(scratch_file)
    assert _outcome(load_category, path) == _outcome(regex_load_category, path)


@given(st.text(alphabet="0123456789a\u0663\u00b2 \t", max_size=5))
def test_all_digit_atoms_are_ascii_integers(token):
    assert parse_atom(token) == regex_parse_atom(token)
    assert type(parse_atom(token)) is type(regex_parse_atom(token))
