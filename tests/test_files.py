"""Fixture file loaders: section parsing, auto-filled tables, error reporting."""

import re

import pytest

from fincat.core import FINSET, validate_category
from fincat.files import (
    FixtureParseError,
    load_adjunction_parts,
    load_category,
    load_functor,
    load_model_spec,
    load_nattrans,
    parse_set_literal,
)


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
