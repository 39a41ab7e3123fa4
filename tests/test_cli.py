"""Command-line interface: exit codes, output formats, corpus runner."""

import io
import os
import subprocess
import sys

import pytest

import fincat
from fincat.cli import (
    CORPUS_ENV,
    EXIT_CAP,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    corpus_dir,
    run,
)

STAGES_EXPECTED = """\
stages: 4
stage 0 [-]: 0 nodes, 0 arrows
stage 1 [∀]: 2 nodes, 2 arrows  (new: X, Y, f, g)
stage 2 [∃]: 3 nodes, 3 arrows  (new: E, e)
stage 3 [∀]: 4 nodes, 4 arrows  (new: Z, z)
stage 4 [∃!]: 4 nodes, 5 arrows  (new: u)
"""

EVAL_FALSE_EXPECTED = """\
stage 0 [-]: statement fails
  stage 1 [∀]: counterexample
    X = *
    Y = *
    f = e
    g = id_*
    stage 2 [∃]: no commuting extension satisfies the rest (2 candidates)
result: false
"""


def _run(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def _golden(fix, name):
    with open(fix("golden", name), encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_passing_check_exits_zero(fix):
    code, text = _run("check-cat", fix("kite.fincat"))
    assert code == EXIT_OK
    assert text.endswith("result: PASS\n")


def test_failing_check_exits_one(fix):
    code, text = _run("check-cat", fix("broken", "bad_assoc.fincat"))
    assert code == EXIT_CHECK_FAILED
    assert "[FAIL] associativity" in text
    assert text.endswith("result: FAIL\n")


def test_reserved_characters_in_identifiers_exit_two(tmp_path):
    bad = tmp_path / "collide.fincat"
    bad.write_text(
        "objects:\n  a\n  a,p\n  b\nmorphisms:\n  p,q : b -> a\n  q : b -> a,p\n"
    )
    code, text = _run("check-cat", str(bad))
    assert code == EXIT_USAGE
    assert text == f"parse error: {bad}:3: object 'a,p' contains reserved character ','\n"


def test_cyclic_cover_message_does_not_depend_on_the_hash_seed(tmp_path):
    cyclic = tmp_path / "cycle.fincat"
    cyclic.write_text(
        "objects:\n  a\n  b\n  c\n  d\npreorder:\n  a < b\n  b < c\n  c < d\n  d < a\n"
    )
    src = os.path.dirname(os.path.dirname(fincat.__file__))
    outputs = set()
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        result = subprocess.run(
            [sys.executable, "-m", "fincat", "check-cat", str(cyclic)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == EXIT_USAGE
        outputs.add(result.stdout)
    assert outputs == {f"parse error: {cyclic}:6: not antisymmetric: 'a' <= 'b' <= 'a'\n"}


def test_usage_errors_exit_two(fix):
    assert _run("bogus")[0] == EXIT_USAGE
    assert _run()[0] == EXIT_USAGE
    assert _run("check-cat", "no_such_file.fincat")[0] == EXIT_USAGE
    assert _run("eval", fix("equalizer.diag"))[0] == EXIT_USAGE  # --model required
    assert _run("infer", "", "A -> A")[0] == EXIT_USAGE  # unparsable context


def test_cap_exhaustion_exits_three(fix):
    code, text = _run(
        "eval",
        fix("equalizer.diag"),
        "--model",
        fix("models", "equalizer_chain2.model"),
        "--cap",
        "1",
    )
    assert code == EXIT_CAP
    assert text.startswith("cap exceeded:")


# ---------------------------------------------------------------------------
# Checks on functors and transformations
# ---------------------------------------------------------------------------


def test_functor_and_transformation_checks(fix):
    assert _run("check-fun", fix("f_kite.fun"))[0] == EXIT_OK
    assert _run("check-nt", fix("id_fkite.nt"))[0] == EXIT_OK
    code, text = _run("check-fun", fix("broken", "f_kite_bad_respcomp.fun"))
    assert code == EXIT_CHECK_FAILED and "[FAIL] respects_composition" in text
    code, text = _run("check-nt", fix("broken", "f_kite_bad_sqcond.nt"))
    assert code == EXIT_CHECK_FAILED and "[FAIL] square_condition" in text


# ---------------------------------------------------------------------------
# Staging and evaluation
# ---------------------------------------------------------------------------


def test_stages_listing(fix):
    code, text = _run("stages", fix("equalizer.diag"))
    assert code == EXIT_OK
    assert text == STAGES_EXPECTED


def test_eval_reports_truth(fix):
    code, text = _run(
        "eval", fix("equalizer.diag"), "--model", fix("models", "equalizer_chain2.model")
    )
    assert code == EXIT_OK
    assert text.endswith("result: true\n")
    assert "all 3 commuting extensions satisfy the rest" in text


def test_eval_prints_counterexample_trace(fix):
    code, text = _run(
        "eval", fix("equalizer.diag"), "--model", fix("models", "equalizer_monoid.model")
    )
    assert code == EXIT_CHECK_FAILED
    assert text == EVAL_FALSE_EXPECTED


TRIANGLE_DIAG = (
    "layer L in C\n"
    'node X : L "X"\nnode Y : L "Y"\nnode Z : L "Z"\n'
    'arrow f : X -> Y "f"\narrow g : Y -> Z "g"\narrow h : X -> Z "h"\n'
)


def test_eval_mistyped_bind_reports_its_typing_witness(fix, tmp_path):
    diagram = tmp_path / "triangle.diag"
    diagram.write_text(TRIANGLE_DIAG)
    model = tmp_path / "triangle.model"
    model.write_text(
        f"layer L = {fix('chain3.fincat')}\n"
        "bind X = 0\nbind Y = 1\nbind Z = 2\n"
        "bind f = 0->1\nbind g = 0->1\nbind h = 0->2\n"
    )
    code, text = _run("eval", str(diagram), "--model", str(model))
    assert code == EXIT_CHECK_FAILED
    assert text.splitlines()[0] == (
        "stage 0 [-]: stage-0 bindings do not commute: endpoint_typing witness=('g', '0->1')"
    )
    assert text.endswith("result: false\n")


def test_eval_rejects_a_model_layer_that_is_not_a_category(tmp_path):
    (tmp_path / "triangle.diag").write_text(TRIANGLE_DIAG)
    (tmp_path / "partial.fincat").write_text(
        "objects:\n  X\n  Y\n  Z\nmorphisms:\n  f : X -> Y\n  g : Y -> Z\n  h : X -> Z\n"
    )
    (tmp_path / "triangle.model").write_text(
        "layer L = partial.fincat\n"
        "bind X = X\nbind Y = Y\nbind Z = Z\nbind f = f\nbind g = g\nbind h = h\n"
    )
    code, text = _run(
        "eval", str(tmp_path / "triangle.diag"), "--model", str(tmp_path / "triangle.model")
    )
    assert code == EXIT_CHECK_FAILED
    assert text == (
        "check error: layer 'L' is not a category: totality fails at ('g', 'f')\n"
    )


def test_eval_rejects_a_model_functor_that_is_not_a_functor(fix, tmp_path):
    bad = tmp_path / "bad_trunc.fun"
    bad.write_text(
        f"source: {fix('chain3.fincat')}\ntarget: {fix('chain2.fincat')}\n"
        "objects:\n  0 |-> 0\n  1 |-> 1\n  2 |-> 1\n"
        "morphisms:\n  0->1 |-> 0->1\n  0->2 |-> 0->1\n  1->2 |-> 0->1\n"
    )
    model = tmp_path / "galois.model"
    model.write_text(
        f"layer LA = {fix('chain2.fincat')}\nlayer LB = {fix('chain3.fincat')}\n"
        f"functor LB LA = {bad}\nbind A = 0\nbind B = 0\nbind eta = id_0\n"
    )
    code, text = _run("eval", fix("universal_arrow.diag"), "--model", str(model))
    assert code == EXIT_CHECK_FAILED
    assert text == (
        "check error: functor LB->LA is not a functor: typing fails at ('1->2', '0->1')\n"
    )


# ---------------------------------------------------------------------------
# Context elaboration against goldens
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stem", ["y0", "universal_arrow"])
def test_context_matches_golden(fix, stem):
    code, text = _run("context", fix(f"{stem}.diag"))
    assert code == EXIT_OK
    assert text == _golden(fix, f"{stem}.context.txt")


def test_grid_rendering_matches_golden(fix):
    code, text = _run("context", fix("y0.diag"), "--format", "graph")
    assert code == EXIT_OK
    assert text == _golden(fix, "y0.grid.txt")


# ---------------------------------------------------------------------------
# Term subcommands
# ---------------------------------------------------------------------------


def test_infer_lists_inhabitants(fix):
    code, text = _run("infer", "{f: A -> B}", "A -> B", "--depth", "3")
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0].startswith("goal: A -> B")
    assert "\\x1:A. f x1" in lines
    assert "f" in lines


def test_reduce_dot_output_is_deterministic(fix):
    first = _run("reduce", "g (2 + 3)", "--sig", fix("arith.sig"), "--format", "graph")
    second = _run("reduce", "g (2 + 3)", "--sig", fix("arith.sig"), "--format", "graph")
    assert first == second
    code, text = first
    assert code == EXIT_OK
    assert text.startswith("digraph reduction {\n")
    assert 'n3 [label="29", shape=box];' in text
    assert 'n6 [label="g (2 + 3)", peripheries=2];' in text


def test_reduce_report_mentions_normal_form(fix):
    code, text = _run("reduce", "g (2 + 3)", "--sig", fix("arith.sig"))
    assert code == EXIT_OK
    assert "29" in text


# ---------------------------------------------------------------------------
# Hom-functor and adjunction subcommands
# ---------------------------------------------------------------------------


def test_yoneda_summarises_each_object(fix):
    code, text = _run("yoneda", fix("f_kite.fun"))
    assert code == EXIT_OK
    assert text.splitlines() == [
        "object 1: |values| = 2, |transformations| = 2, bijection ok, roundtrips ok",
        "object 2: |values| = 1, |transformations| = 1, bijection ok, roundtrips ok",
        "object 3: |values| = 2, |transformations| = 2, bijection ok, roundtrips ok",
        "object 4: |values| = 1, |transformations| = 1, bijection ok, roundtrips ok",
        "object 5: |values| = 2, |transformations| = 2, bijection ok, roundtrips ok",
    ]


def test_kan_prints_sizes_and_reports(fix):
    code, text = _run("kan", fix("incl_a4_b6.fun"), fix("h_on_a.fun"))
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0] == "right kan sizes: 1:4, 2:2, 3:2, 4:2, 5:2, 6:1"
    assert lines[1] == "left kan sizes: 1:0, 2:2, 3:2, 4:2, 5:2, 6:4"
    assert text.count("result: PASS") == 2


def test_kan_with_non_functorial_along_exits_one(fix, tmp_path):
    bent = tmp_path / "bent.fun"
    bent.write_text(
        f"source: {fix('a4.fincat')}\ntarget: {fix('b6.fincat')}\n"
        "objects:\n  2 |-> 2\n  3 |-> 3\n  4 |-> 4\n  5 |-> 5\n"
        "morphisms:\n  2->4 |-> 2->5\n  3->5 |-> 3->5\n"
    )
    code, text = _run("kan", str(bent), fix("h_on_a.fun"))
    assert code == EXIT_CHECK_FAILED
    assert text == (
        "check error: along is not a functor: morphism map sends '2->4' to unknown '2->5'\n"
    )


def test_yoneda_validates_its_functor_first(fix):
    code, text = _run("yoneda", fix("incl_a4_b6.fun"))
    assert code == EXIT_CHECK_FAILED
    assert text == "check error: yoneda needs a finite-set valued functor\n"
    code, text = _run("yoneda", fix("broken", "f_kite_bad_respids.fun"))
    assert code == EXIT_CHECK_FAILED
    assert text == (
        "check error: functor is not a functor: "
        "respects_identities fails at ('1', {24->25,25->24})\n"
    )


def test_adj_verify_and_build(fix):
    code, text = _run("adj", "verify", fix("galois.adj"))
    assert code == EXIT_OK and text.endswith("result: PASS\n")

    code, text = _run("adj", "build", fix("galois_build.adj"))
    assert code == EXIT_OK
    assert "morphism 0->1 |-> 0->1" in text
    assert "2 |-> 1->2" in text

    code, text = _run("adj", "verify", fix("monoid_bad_counit.adj"))
    assert code == EXIT_CHECK_FAILED
    assert "[FAIL] triangle_left  witness=('*', 'e')" in text


def _bent_truncation(fix, tmp_path):
    """trunc_q_p.fun with 0->2 sent to id_1, whose ends do not match."""
    with open(fix("trunc_q_p.fun"), encoding="utf-8") as handle:
        text = handle.read()
    bent = tmp_path / "bent_trunc.fun"
    bent.write_text(
        text.replace("0->2 |-> 0->1", "0->2 |-> id_1")
        .replace("chain3.fincat", fix("chain3.fincat"))
        .replace("chain2.fincat", fix("chain2.fincat"))
    )
    return str(bent)


def _manifest(fix, tmp_path, name, right, left):
    with open(fix(name), encoding="utf-8") as handle:
        text = handle.read()
    text = text.replace("right: trunc_q_p.fun", f"right: {right}")
    text = text.replace("left: incl_p_q.fun", f"left: {left}")
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_adj_refuses_a_set_valued_left(fix, tmp_path):
    manifest = _manifest(fix, tmp_path, "galois.adj", fix("trunc_q_p.fun"), fix("h_on_a.fun"))
    code, text = _run("adj", "verify", manifest)
    assert code == EXIT_CHECK_FAILED
    assert text == "check error: left is finite-set valued; adjoints here are table functors\n"


@pytest.mark.parametrize("mode, name", [("verify", "galois.adj"), ("build", "galois_build.adj")])
def test_adj_refuses_a_right_that_is_not_a_functor(fix, tmp_path, mode, name):
    manifest = _manifest(fix, tmp_path, name, _bent_truncation(fix, tmp_path), fix("incl_p_q.fun"))
    code, text = _run("adj", mode, manifest)
    assert code == EXIT_CHECK_FAILED
    assert text == "check error: right is not a functor: typing fails at ('0->2', 'id_1')\n"


# ---------------------------------------------------------------------------
# Corpus runner
# ---------------------------------------------------------------------------


def test_examples_runs_whole_corpus():
    code, text = _run("examples")
    assert code == EXIT_OK
    assert text.rstrip().endswith("corpus: 39/39 ok")
    assert all(line.startswith("[ok] ") for line in text.splitlines()[:-1])


def test_corpus_directory_override(tmp_path, monkeypatch):
    monkeypatch.setenv(CORPUS_ENV, str(tmp_path))
    assert corpus_dir() == str(tmp_path)
    code, _text = _run("examples")
    assert code != EXIT_OK  # nothing to load there

    monkeypatch.delenv(CORPUS_ENV)
    assert corpus_dir().endswith("fixtures")


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_runconfig_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig(subcommand="eval", cap=0)
    with pytest.raises(ValueError):
        RunConfig(subcommand="eval", fmt="yaml")
    cfg = RunConfig(subcommand="eval", cap=5, fmt="graph")
    assert (cfg.cap, cfg.fmt) == (5, "graph")


def test_cap_flag_must_be_positive(fix):
    code, text = _run("stages", fix("equalizer.diag"), "--cap", "0")
    assert code == EXIT_USAGE
