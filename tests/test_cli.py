"""Command-line interface: exit codes, output formats, corpus runner."""

import ast
import io
import os
import re
import shutil
import subprocess
import sys

import pytest

import fincat
from fincat import cli, core, diagram
from fincat.cli import (
    CORPUS_ENV,
    EXIT_CAP,
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    corpus_dir,
    run,
)
from fincat.core import preorder_from_covers

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


def _under_hash_seeds(*argv, seeds=("0", "12345")) -> set:
    """The (exit code, stdout) pairs of ``fincat argv`` run in a fresh
    interpreter under each hash seed."""
    src = os.path.dirname(os.path.dirname(fincat.__file__))
    outputs = set()
    for seed in seeds:
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        result = subprocess.run(
            [sys.executable, "-m", "fincat", *argv], capture_output=True, text=True, env=env
        )
        outputs.add((result.returncode, result.stdout))
    return outputs


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


@pytest.mark.parametrize(
    "text, name, first, second",
    [
        (
            "objects:\n  a\n  b->c\n  a->b\n  c\npreorder:\n  a < b->c\n  a->b < c\n",
            "a->b->c",
            ("a", "b->c"),
            ("a->b", "c"),
        ),
        (
            "objects:\n  id_a\n  b\n  a->b\npreorder:\n  id_a < b\n",
            "id_a->b",
            ("a->b", "a->b"),
            ("id_a", "b"),
        ),
    ],
    ids=["arrow-in-object-names", "id-prefixed-object"],
)
def test_colliding_preorder_names_exit_two_at_the_header(tmp_path, text, name, first, second):
    """Two pairs of a valid order whose morphism names coincide would build a
    table with a morphism too few; the loader names both pairs instead."""
    bad = tmp_path / "collide.fincat"
    bad.write_text(text)
    header = text.splitlines().index("preorder:") + 1
    message = f"morphism name {name!r} names both {first!r} and {second!r}"
    assert _run("check-cat", str(bad)) == (EXIT_USAGE, f"parse error: {bad}:{header}: {message}\n")


def test_an_identity_name_with_other_ends_exits_two_at_its_line(tmp_path):
    """A ``morphisms:`` entry named ``id_x`` for an object x is x's identity;
    with ends other than (x, x) the loader names the clash instead of
    loading a table that fails coherence.  With ends (x, x) it loads."""
    text = "objects:\n  a\n  b\nmorphisms:\n  id_a : {} -> {}\n"
    bad = tmp_path / "clash.fincat"
    bad.write_text(text.format("a", "b"))
    message = "morphism 'id_a' : a -> b clashes with the identity of object 'a', which runs a -> a"
    assert _run("check-cat", str(bad)) == (EXIT_USAGE, f"parse error: {bad}:5: {message}\n")
    good = tmp_path / "identity.fincat"
    good.write_text(text.format("a", "a"))
    code, out = _run("check-cat", str(good))
    assert (code, out.splitlines()[0]) == (EXIT_OK, "subject: category:2obj/2mor")


@pytest.mark.parametrize(
    "text, line, name, end",
    [
        ("objects: ->*\nmorphisms:\n  e : * -> *\n", 3, "e", "*"),
        ("objects:\n  a\nmorphisms:\n  f : a -> b\n", 4, "f", "b"),
    ],
    ids=["mangled-objects-line", "undeclared-codomain"],
)
def test_morphism_with_an_undeclared_endpoint_is_a_parse_error(tmp_path, text, line, name, end):
    bad = tmp_path / "undeclared.fincat"
    bad.write_text(text)
    assert _run("check-cat", str(bad)) == (
        EXIT_USAGE,
        f"parse error: {bad}:{line}: morphism {name!r} names unknown object {end!r}\n",
    )


def test_cyclic_cover_message_does_not_depend_on_the_hash_seed(tmp_path):
    cyclic = tmp_path / "cycle.fincat"
    cyclic.write_text(
        "objects:\n  a\n  b\n  c\n  d\npreorder:\n  a < b\n  b < c\n  c < d\n  d < a\n"
    )
    assert _under_hash_seeds("check-cat", str(cyclic)) == {
        (EXIT_USAGE, f"parse error: {cyclic}:6: not antisymmetric: 'a' <= 'b' <= 'a'\n")
    }


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


def test_the_cap_counts_the_candidates_of_one_stage_call(fix, tmp_path):
    """Over a thin 4-chain, stage 1 of equalizer.diag has C = 10 candidates
    (one per pair x <= y) and every later stage call fewer, all passing
    without a path composed: --cap C-1 stops at stage 1 and --cap C
    decides."""
    chain = "objects:\n  a\n  b\n  c\n  d\npreorder:\n  a < b\n  b < c\n  c < d\n"
    (tmp_path / "chain4.fincat").write_text(chain)
    model = tmp_path / "chain4.model"
    model.write_text("layer L = chain4.fincat\n")
    argv = ("eval", fix("equalizer.diag"), "--model", str(model), "--cap")
    assert _run(*argv, "9") == (EXIT_CAP, "cap exceeded: stage 1: more than 9 candidate extensions\n")
    assert _run(*argv, "10") == (
        EXIT_OK,
        "stage 0 [-]: statement holds\n"
        "  stage 1 [∀]: all 10 commuting extensions satisfy the rest\n"
        "result: true\n",
    )


def test_an_unexpected_exception_is_an_internal_error(fix, monkeypatch):
    def broken(cfg, out, loads):
        raise KeyError("lost")

    help_text, _handler, add_arguments = cli._SUBCOMMANDS["check-cat"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "check-cat", (help_text, broken, add_arguments))
    assert _run("check-cat", fix("kite.fincat")) == (
        EXIT_INTERNAL,
        "internal error: KeyError: 'lost'\n",
    )


def test_a_subject_reduction_violation_is_an_internal_error(fix, monkeypatch):
    import fincat.terms

    ill_typed = fincat.terms.Lam("x", fincat.terms.TyAtom("A"), fincat.terms.Var("x"))
    # the whole term contracts to the ill-typed one, no subterm contracts
    contract = lambda t, s: [ill_typed] if fincat.terms.print_term(t) == "2 + 3" else []
    monkeypatch.setattr(fincat.terms, "_contractions_at", contract)
    code, text = _run("reduce", "2 + 3", "--sig", fix("arith.sig"))
    assert code == EXIT_INTERNAL
    assert text.startswith("internal error: RuntimeError: subject reduction violated: ")
    assert text.count("\n") == 1


def _fault_argv(fix, tmp_path, command):
    """Arguments for ``command`` whose run passes, and reaches the wrapped
    call once its inputs parse."""
    if command == "check-nt":
        # a functor on a discrete category maps no morphism, so only the
        # components decode maps
        fun = tmp_path / "points.fun"
        fun.write_text(
            f"source: {fix('disc2.fincat')}\ntarget: finset\nobjects:\n  0 |-> {{a}}\n  1 |-> {{b}}\n"
        )
        nt = tmp_path / "points.nt"
        nt.write_text(
            f"source: {fun}\ntarget: {fun}\ncomponents:\n  0 |-> {{a->a}}\n  1 |-> {{b->b}}\n"
        )
        return [command, str(nt)]
    if command == "eval":
        diagram = tmp_path / "parallel.diag"
        diagram.write_text('layer S in Set\nnode X : S "X"\nnode Y : S "Y"\narrow f : X -> Y "f"\n')
        model = tmp_path / "parallel.model"
        model.write_text(
            "layer S = finset\nbind X = {0, 1}\nbind Y = {a, b}\nbind f = {0->a, 1->b}\n"
        )
        return [command, str(diagram), "--model", str(model)]
    return [command, fix("chain2.fincat" if command == "check-cat" else "f_kite.fun")]


@pytest.mark.parametrize(
    "module, name, command",
    [
        ("files", "preorder_from_covers", "check-cat"),
        ("files", "decode_map", "check-fun"),
        ("files", "decode_map", "check-nt"),
        ("diagram", "decode_map", "eval"),
    ],
)
def test_a_fault_inside_a_parse_is_an_internal_error(
    fix, tmp_path, monkeypatch, module, name, command
):
    """The readers turn only the errors the wrapped call raises for bad input
    into parse or check errors; any other exception is a fault."""
    argv = _fault_argv(fix, tmp_path, command)
    assert _run(*argv)[0] == EXIT_OK

    def fault(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(getattr(fincat, module), name, fault)
    assert _run(*argv) == (EXIT_INTERNAL, "internal error: RuntimeError: boom\n")


def test_a_broken_pipe_is_not_an_internal_error(fix, monkeypatch):
    def closed(cfg, out, loads):
        raise BrokenPipeError()

    help_text, _handler, add_arguments = cli._SUBCOMMANDS["check-cat"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "check-cat", (help_text, closed, add_arguments))
    with pytest.raises(BrokenPipeError):
        run(["check-cat", fix("kite.fincat")], out=io.StringIO())


def test_help_is_written_to_out_and_exits_zero(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, text = _run("-h")
    assert code == EXIT_OK
    assert text.startswith("usage: fincat [-h] <command> ...\n")
    assert all(help_text in text for help_text, _run_it, _add in cli._SUBCOMMANDS.values())
    code, sub_text = _run("check-cat", "--help")
    assert code == EXIT_OK
    assert sub_text.startswith("usage: fincat check-cat [-h] [--cap N]")
    src = os.path.dirname(os.path.dirname(fincat.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "fincat", "-h"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80"},
    )
    assert (result.returncode, result.stdout, result.stderr) == (EXIT_OK, text, "")


def test_closed_stdout_exits_two_without_a_traceback():
    """The reader closes the pipe after the first line; 160 kB of inhabitants
    are still to be written, more than the pipe holds."""
    src = os.path.dirname(os.path.dirname(fincat.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fincat", "infer", "{f: A->A, g: A->A, x: A}", "A", "--depth", "12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline().startswith(b"goal: A")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert (proc.wait(timeout=60), stderr) == (EXIT_USAGE, b"")


# One valid argv or more per subcommand, with every option it takes.
VALID_ARGVS = [
    ["check-cat", "c.fincat"],
    ["check-cat", "c.fincat", "--cap", "7", "--format", "context"],
    ["check-fun", "f.fun"],
    ["check-nt", "t.nt", "--format", "graph"],
    ["stages", "d.diag", "--format", "graph"],
    ["eval", "d.diag", "--model", "m.model", "--cap", "9"],
    ["context", "d.diag"],
    ["infer", "{f: A->B}", "A -> B", "--depth", "3"],
    ["reduce", "g 1"],
    ["reduce", "g 1", "--sig", "a.sig", "--nodes", "12", "--format", "graph"],
    ["yoneda", "f.fun", "--cap", "5"],
    ["kan", "along.fun", "g.fun"],
    ["adj", "verify", "x.adj"],
    ["adj", "build", "x.adj", "--format", "report"],
    ["examples"],
    ["examples", "--cap", "3"],
]


def _full_parser_config(argv):
    return cli._config_from_args(cli._build_parser(cli._SUBCOMMANDS).parse_args(argv))


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
def test_one_subcommand_parser_reads_argv_like_the_full_parser(argv):
    one = cli._config_from_args(cli._parser_for(argv).parse_args(argv))
    assert one == _full_parser_config(argv)


def test_valid_argvs_cover_every_subcommand():
    assert {argv[0] for argv in VALID_ARGVS} == set(cli._SUBCOMMANDS)


def _bad_argvs():
    for name in cli._SUBCOMMANDS:
        if name != "examples":
            yield [name]  # missing positional
        yield [name, "--bogus"]
        yield [name, "-h"]
    for argv in VALID_ARGVS:
        yield argv + ["--cap", "x"]
        yield argv + ["--format", "yaml"]
        yield argv + ["extra-positional"]
    yield ["infer", "{}", "A", "--depth", "x"]
    yield ["reduce", "g 1", "--nodes", "1.5"]
    yield ["adj", "frob", "x.adj"]
    yield ["bogus"]
    yield ["check"]
    yield ["--cap", "3", "check-cat", "c.fincat"]
    yield []


@pytest.mark.parametrize("argv", list(_bad_argvs()), ids=lambda argv: " ".join(argv) or "empty")
def test_one_subcommand_parser_rejects_like_the_full_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    one = _run(*argv)
    monkeypatch.setattr(cli, "_parser_for", lambda argv: cli._build_parser(cli._SUBCOMMANDS))
    assert one == _run(*argv)
    assert one[0] == (EXIT_OK if "-h" in argv else EXIT_USAGE)


CACHED_ARGVS = [
    ["-h"],
    ["infer", "-h"],
    ["bogus"],
    [],
    ["infer", "{}", "A", "--depth", "x"],
    ["check-cat"],
    ["infer", "{}", "A->A"],
]


def test_a_second_run_builds_no_parser_and_answers_alike(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_PARSERS", {})
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda names: built.append(names) or build(names))
    first = [_run(*argv) for argv in CACHED_ARGVS]
    assert len(built) == 3  # all subcommands, infer's, check-cat's
    second = [_run(*argv) for argv in CACHED_ARGVS]
    assert len(built) == 3

    def untimed(runs):
        # infer's "[d.ddds]" timer is the one byte range two runs may differ in
        return [(code, re.sub(r"\[\d+\.\d+s\]", "[time]", text)) for code, text in runs]

    assert untimed(second) == untimed(first)
    assert [code for code, _ in first] == [EXIT_OK, EXIT_OK] + [EXIT_USAGE] * 4 + [EXIT_OK]
    assert first[2][1].startswith("usage error: argument <command>: invalid choice: 'bogus'")


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


def _chain2_functor(fix, path, action):
    """A functor from the 2-chain to finite sets with value {1, a} at both
    objects and the given map text as the action of 0->1."""
    path.write_text(
        f"source: {fix('chain2.fincat')}\ntarget: finset\nobjects:\n"
        f"  0 |-> {{1, a}}\n  1 |-> {{1, a}}\nmorphisms:\n  0->1 |-> {action}\n"
    )


def test_check_nt_names_the_first_failing_atom_in_domain_order(fix, tmp_path):
    """A square failing at an integer and at a token atom is reported at the
    integer, which comes first in the domain's order."""
    _chain2_functor(fix, tmp_path / "id.fun", "{1->1, a->a}")
    _chain2_functor(fix, tmp_path / "swap.fun", "{1->a, a->1}")
    nt = tmp_path / "mixed.nt"
    nt.write_text(
        "source: id.fun\ntarget: swap.fun\ncomponents:\n"
        "  0 |-> {1->1, a->a}\n  1 |-> {1->1, a->a}\n"
    )
    assert _run("check-nt", str(nt)) == (
        EXIT_CHECK_FAILED,
        "subject: nattrans\n  [PASS] component_typing\n"
        "  [FAIL] square_condition  witness=('0->1', 1, 'a', 1)\nresult: FAIL\n",
    )


@pytest.mark.parametrize(
    "name, line, old, new, atom",
    [
        ("f_kite.fun", 14, "1->3 |-> {24->2, 25->3}", "1->3 |-> {24->3, 24->2, 25->3}", 24),
        ("f_kite.fun", 14, "1->3 |-> {24->2, 25->3}", "1->3 |-> {24->2, 25->3, 25->3}", 25),
        ("id_fkite.nt", 5, "1 |-> {24->24, 25->25}", "1 |-> {24->25, 24->24, 25->25}", 24),
        ("id_fkite.nt", 7, "3 |-> {2->2, 3->3}", "3 |-> {2->2, 3->3, 3->3}", 3),
    ],
    ids=["fun-differing", "fun-repeated", "nt-differing", "nt-repeated"],
)
def test_a_map_naming_an_atom_twice_is_a_parse_error(fix, tmp_path, name, line, old, new, atom):
    text = open(fix(name), encoding="utf-8").read()
    assert text.splitlines()[line - 1].strip() == old
    for other in ("kite.fincat", "f_kite.fun"):
        text = text.replace(f": {other}", f": {fix(other)}")
    path = tmp_path / name
    path.write_text(text.replace(old, new))
    command = "check-nt" if name.endswith(".nt") else "check-fun"
    assert _run(command, str(path)) == (
        EXIT_USAGE,
        f"parse error: {path}:{line}: atom {atom} mapped twice\n",
    )


@pytest.mark.parametrize("bind, atom", [("{0->a, 0->b, 1->b}", 0), ("{0->a, 1->b, 1->b}", 1)])
def test_eval_rejects_a_bound_map_naming_an_atom_twice(tmp_path, bind, atom):
    diagram = tmp_path / "parallel.diag"
    diagram.write_text('layer S in Set\nnode X : S "X"\nnode Y : S "Y"\narrow f : X -> Y "f"\n')
    model = tmp_path / "parallel.model"
    model.write_text(f"layer S = finset\nbind X = {{0, 1}}\nbind Y = {{a, b}}\nbind f = {bind}\n")
    assert _run("eval", str(diagram), "--model", str(model)) == (
        EXIT_CHECK_FAILED,
        f"check error: bind 'f': atom {atom} mapped twice\n",
    )


@pytest.mark.parametrize(
    "zero, one, line, atom",
    [("{1, 01}", "{a}", 4, "1"), ("{1}", "{a, a}", 5, "'a'")],
    ids=["integer-spelled-twice", "token-repeated"],
)
def test_a_set_naming_an_atom_twice_is_a_parse_error(fix, tmp_path, zero, one, line, atom):
    fun = tmp_path / "doubled.fun"
    fun.write_text(
        f"source: {fix('chain2.fincat')}\ntarget: finset\nobjects:\n"
        f"  0 |-> {zero}\n  1 |-> {one}\nmorphisms:\n  0->1 |-> {{1->a}}\n"
    )
    for command in ("check-fun", "yoneda"):
        assert _run(command, str(fun)) == (
            EXIT_USAGE,
            f"parse error: {fun}:{line}: atom {atom} named twice\n",
        )


def test_model_sets_naming_an_atom_twice_are_rejected(tmp_path):
    diagram = tmp_path / "point.diag"
    diagram.write_text('layer S in Set\nnode X : S "X"\n')
    model = tmp_path / "point.model"
    model.write_text("layer S = finset\ncarriers S = {a} ; {b, c, b}\n")
    assert _run("eval", str(diagram), "--model", str(model)) == (
        EXIT_USAGE,
        f"parse error: {model}:2: atom 'b' named twice\n",
    )
    model.write_text("layer S = finset\nbind X = {0, 00}\n")
    assert _run("eval", str(diagram), "--model", str(model)) == (
        EXIT_CHECK_FAILED,
        "check error: bind 'X': atom 0 named twice\n",
    )


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


def test_eval_prints_the_maps_of_a_finite_set_layer(tmp_path):
    diagram = tmp_path / "parallel.diag"
    diagram.write_text(
        'layer S in Set\nnode X : S "X"\nnode Y : S "Y"\n'
        'arrow f : X -> Y "f"\narrow g : X -> Y "g"\n'
    )
    model = tmp_path / "parallel.model"
    model.write_text(
        "layer S = finset\nbind X = {0, 1}\nbind Y = {a, b}\n"
        "bind f = {0->a, 1->b}\nbind g = {0->a, 1->a}\n"
    )
    assert _run("eval", str(diagram), "--model", str(model)) == (
        EXIT_CHECK_FAILED,
        "stage 0 [-]: stage-0 bindings do not commute: commutes[S] "
        "witness=('f', 'g', '{0->a,1->b}', '{0->a,1->a}')\n"
        "  X = {0,1}\n  Y = {a,b}\n  f = {0->a,1->b}\n  g = {0->a,1->a}\n"
        "result: false\n",
    )


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


def test_eval_checks_each_table_layer_once(fix, monkeypatch):
    """A layer whose table is spelled out (monoid_e.fincat) is checked once,
    and a preorder (chain2.fincat), a category by construction, not at all."""
    calls = []
    check = core.validate_category

    def counted(cat):
        calls.append(cat)
        return check(cat)

    for name, module in list(sys.modules.items()):
        if name.startswith("fincat") and getattr(module, "validate_category", None) is check:
            monkeypatch.setattr(module, "validate_category", counted)
    for model, code, checks in (
        ("equalizer_chain2.model", EXIT_OK, 0),
        ("equalizer_monoid.model", EXIT_CHECK_FAILED, 1),
    ):
        calls.clear()
        got, _text = _run("eval", fix("equalizer.diag"), "--model", fix("models", model))
        assert (got, len(calls)) == (code, checks), model


BIJECTION_DIAG = 'node B : L "B"\nnode C : L "C"\narrow i : B <-> C "i"\n'

# 0 and 1 made isomorphic by f and its inverse g
ISO_FINCAT = (
    "objects:\n  0\n  1\nmorphisms:\n  f : 0 -> 1\n  g : 1 -> 0\n"
    "compose:\n  g . f = id_0\n  f . g = id_1\n"
)


@pytest.mark.parametrize(
    "bind, code, first",
    [
        ("(f, g)", EXIT_OK, "stage 0 [-]: all bindings commute"),
        (
            "(f, f)",
            EXIT_CHECK_FAILED,
            "stage 0 [-]: stage-0 bindings do not commute: endpoint_typing witness=('i', 'f')",
        ),
        ("f", EXIT_CHECK_FAILED, "check error: bind 'i': bijections need a (fwd, bwd) pair"),
    ],
)
def test_eval_binds_a_bijection_of_a_table_layer(tmp_path, bind, code, first):
    (tmp_path / "bij.diag").write_text("layer L in C\n" + BIJECTION_DIAG)
    (tmp_path / "iso.fincat").write_text(ISO_FINCAT)
    (tmp_path / "bij.model").write_text(
        f"layer L = iso.fincat\nbind B = 0\nbind C = 1\nbind i = {bind}\n"
    )
    got = _run("eval", str(tmp_path / "bij.diag"), "--model", str(tmp_path / "bij.model"))
    assert (got[0], got[1].splitlines()[0]) == (code, first)
    if code == EXIT_OK:
        assert got[1].endswith(f"  i = {bind}\nresult: true\n")


@pytest.mark.parametrize(
    "bind, code, first",
    [
        ("({0->a,1->b}, {a->0,b->1})", EXIT_OK, "stage 0 [-]: all bindings commute"),
        (
            "({0->a,1->a}, {a->0,b->1})",
            EXIT_CHECK_FAILED,
            "stage 0 [-]: stage-0 bindings do not commute: "
            "bij_round_trips witness=('i', 'bwd o fwd')",
        ),
    ],
)
def test_eval_binds_a_bijection_of_a_finite_set_layer(tmp_path, bind, code, first):
    """The pair's maps hold commas inside braces, which do not split it."""
    (tmp_path / "bij.diag").write_text("layer L in Set\n" + BIJECTION_DIAG)
    (tmp_path / "bij.model").write_text(
        f"layer L = finset\nbind B = {{0, 1}}\nbind C = {{a, b}}\nbind i = {bind}\n"
    )
    code_got, text = _run(
        "eval", str(tmp_path / "bij.diag"), "--model", str(tmp_path / "bij.model")
    )
    assert (code_got, text.splitlines()[0]) == (code, first)
    assert text.endswith(f"  i = {bind}\nresult: {'true' if code == EXIT_OK else 'false'}\n")


# an arrow that touches a quantified node is new at that node's stage
TOUCHING_DIAG = 'layer L in C\nnode B : L "B"\nnode C : L "C" @forall(1)\n'


@pytest.mark.parametrize(
    "arrow, bind, expected",
    [
        (
            'arrow h : B -> C "h"',
            "",
            "stage 0 [-]: statement holds\n  B = 0\n"
            "  stage 1 [∀]: all 2 commuting extensions satisfy the rest\nresult: true\n",
        ),
        (
            'arrow h : B -> C "h"',
            "bind h = id_0\n",
            "check error: element 'h' is quantified and cannot be bound\n",
        ),
        (
            'arrow i : B <-> C "i"',
            "",
            "check error: bij arrow 'i' cannot be introduced by a quantified stage\n",
        ),
        (
            'arrow i : B <-> C "i"',
            "bind i = (id_0, id_0)\n",
            "check error: element 'i' is quantified and cannot be bound\n",
        ),
    ],
    ids=["hom unbound", "hom bound", "bij unbound", "bij bound"],
)
def test_eval_does_not_bind_an_arrow_touching_a_quantified_node(
    fix, tmp_path, arrow, bind, expected
):
    (tmp_path / "touch.diag").write_text(f"{TOUCHING_DIAG}{arrow}\n")
    (tmp_path / "touch.model").write_text(f"layer L = {fix('chain2.fincat')}\nbind B = 0\n{bind}")
    got = _run("eval", str(tmp_path / "touch.diag"), "--model", str(tmp_path / "touch.model"))
    assert got == (EXIT_OK if "true" in expected else EXIT_CHECK_FAILED, expected)


@pytest.mark.parametrize(
    "carriers, code, expected",
    [
        (
            "{a} ; {b, c} ; {}",
            EXIT_CHECK_FAILED,
            "stage 0 [-]: statement fails\n  stage 1 [∀]: counterexample\n"
            "    X = {a}\n    Y = {}\n"
            "    stage 2 [∃]: no commuting extension satisfies the rest (0 candidates)\n"
            "result: false\n",
        ),
        (
            "{a} ; {b, c}",
            EXIT_OK,
            "stage 0 [-]: statement holds\n"
            "  stage 1 [∀]: all 4 commuting extensions satisfy the rest\nresult: true\n",
        ),
    ],
    ids=["an empty carrier", "no empty carrier"],
)
def test_eval_quantifies_over_the_carriers_of_a_finite_set_layer(
    tmp_path, carriers, code, expected
):
    """Nodes range over the carriers, and an arrow over the maps between them."""
    (tmp_path / "maps.diag").write_text(
        'layer S in Set\nnode X : S "X" @forall(1)\nnode Y : S "Y" @forall(1)\n'
        'arrow f : X -> Y "f" @exists(2)\n'
    )
    (tmp_path / "maps.model").write_text(f"layer S = finset\ncarriers S = {carriers}\n")
    got = _run("eval", str(tmp_path / "maps.diag"), "--model", str(tmp_path / "maps.model"))
    assert got == (code, expected)


def test_eval_stages_its_diagram_once(fix, monkeypatch):
    calls = []
    extract = diagram.extract_stages

    def counted(ast):
        calls.append(ast)
        return extract(ast)

    monkeypatch.setattr(diagram, "extract_stages", counted)
    code, _text = _run(
        "eval", fix("equalizer.diag"), "--model", fix("models", "equalizer_chain2.model")
    )
    assert (code, len(calls)) == (EXIT_OK, 1)


# f and g both end at A: each is raised from its stage 1 to A's stage 2
DEPENDENT_DIAG = """\
layer L in C
node A : L "A" @forall(2)
node B : L "B"
node D : L "D"
arrow f : B -> A "f" @forall(1)
arrow g : D -> A "g" @forall(1)
"""


def test_a_staging_error_names_the_first_element_whatever_the_hash_seed(fix, tmp_path):
    (tmp_path / "dep.diag").write_text(DEPENDENT_DIAG)
    (tmp_path / "dep.model").write_text(
        f"layer L = {fix('chain2.fincat')}\nbind B = 0\nbind D = 1\n"
    )
    message = "check error: element 'f' at stage 1 depends on a stage-2 element\n"
    expected = {(EXIT_CHECK_FAILED, message)}
    seeds = ("0", "1")
    assert _under_hash_seeds("stages", str(tmp_path / "dep.diag"), seeds=seeds) == expected
    model = ("--model", str(tmp_path / "dep.model"))
    assert _under_hash_seeds("eval", str(tmp_path / "dep.diag"), *model, seeds=seeds) == expected


def test_eval_builds_each_stage_shape_once(fix, monkeypatch):
    calls = []
    shape = diagram._extension_shape

    def counted(ast, new_elements):
        calls.append(new_elements)
        return shape(ast, new_elements)

    monkeypatch.setattr(diagram, "_extension_shape", counted)
    code, _text = _run(
        "eval", fix("equalizer.diag"), "--model", fix("models", "equalizer_chain2.model")
    )
    assert (code, calls) == (EXIT_OK, [("X", "Y", "f", "g"), ("E", "e"), ("Z", "z"), ("u",)])


# ---------------------------------------------------------------------------
# Context elaboration against goldens
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stem", ["y0", "universal_arrow"])
def test_context_matches_golden(fix, stem):
    code, text = _run("context", fix(f"{stem}.diag"))
    assert code == EXIT_OK
    assert text == _golden(fix, f"{stem}.context.txt")


# w closes cycles through B; its extension of cd o ac = bd o ab is a path,
# that of bd o ab is not, and the equation for ed o ae follows by congruence
CYCLIC_DIAG = """\
layer L in C
node A : L "A"
node B : L "B"
node C : L "C"
node D : L "D"
node E : L "E"
arrow ab : A -> B "ab"
arrow bd : B -> D "bd"
arrow ac : A -> C "ac"
arrow cd : C -> D "cd"
arrow ae : A -> E "ae"
arrow ed : E -> D "ed"
arrow w : D -> B "w" @forall(1)
"""

CYCLIC_CONTEXT = """\
In a context where:
  C is a category,
  A in C,
  B in C,
  C in C,
  D in C,
  E in C,
  ab : A -> B,
  bd : B -> D,
  ac : A -> C,
  cd : C -> D,
  ae : A -> E,
  ed : E -> D,
  cd o ac = bd o ab,
  ed o ae = bd o ab,
for all w : D -> B such that
  w o cd o ac = ab.
"""


def test_context_of_a_cyclic_layer_does_not_depend_on_the_hash_seed(tmp_path):
    cyclic = tmp_path / "cyclic.diag"
    cyclic.write_text(CYCLIC_DIAG)
    assert _under_hash_seeds("context", str(cyclic)) == {(EXIT_OK, CYCLIC_CONTEXT)}


def test_a_stage_arrow_closing_a_cycle_is_the_same_error_whatever_the_hash_seed(fix, tmp_path):
    """w is quantified at stage 1 and closes the cycle B -> D -> B; every
    other node is bound to 0 of chain2 and every other arrow to id_0."""
    cyclic = tmp_path / "cyclic.diag"
    cyclic.write_text(CYCLIC_DIAG)
    model = tmp_path / "cyclic.model"
    binds = [f"bind {n} = 0\n" for n in "ABCDE"]
    binds += [f"bind {a} = id_0\n" for a in ("ab", "bd", "ac", "cd", "ae", "ed")]
    model.write_text(f"layer L = {fix('chain2.fincat')}\n" + "".join(binds))
    failure = (
        EXIT_CHECK_FAILED,
        "check error: layer 'L' has a cyclic hom graph: ('A', 'B', 'D', 'B')\n",
    )
    argv = ("eval", str(cyclic), "--model", str(model))
    assert _under_hash_seeds(*argv, seeds=("0", "1", "12345")) == {failure}


def test_grid_rendering_matches_golden(fix):
    code, text = _run("context", fix("y0.diag"), "--format", "graph")
    assert code == EXIT_OK
    assert text == _golden(fix, "y0.grid.txt")


# univ_macro.diag states universal_arrow.diag with the quantified part in a
# macro; each command sees the diagram with its macros spliced in.
MACRO_STAGES_EXPECTED = """\
stages: 2
stage 0 [-]: 3 nodes, 2 arrows  (new: A, B, RB, mB, eta)
stage 1 [∀]: 5 nodes, 4 arrows  (new: Bp$1, RBp$1, mBp$1, g$1)
stage 2 [∃!]: 5 nodes, 7 arrows  (new: f$1, Rf$1, mf$1)
"""


def test_context_of_a_macro_diagram_matches_the_inline_golden(fix):
    code, text = _run("context", fix("univ_macro.diag"))
    assert code == EXIT_OK
    assert text == _golden(fix, "universal_arrow.context.txt")


def test_stages_of_a_macro_diagram_include_the_macro_stages(fix):
    assert _run("stages", fix("univ_macro.diag")) == (EXIT_OK, MACRO_STAGES_EXPECTED)


def test_eval_of_a_macro_diagram_traces_like_the_inline_diagram(fix):
    model = fix("models", "universal_arrow_galois.model")
    inline = _run("eval", fix("universal_arrow.diag"), "--model", model)
    assert inline[0] == EXIT_OK and "all 3 commuting extensions" in inline[1]
    assert _run("eval", fix("univ_macro.diag"), "--model", model) == inline


def test_an_undefined_macro_is_a_check_error(fix, tmp_path):
    with open(fix("univ_macro.diag"), encoding="utf-8") as handle:
        text = handle.read().replace("@use(univ)", "@use(nope)")
    diagram = tmp_path / "nope.diag"
    diagram.write_text(text)
    model = fix("models", "universal_arrow_galois.model")
    for argv in (("context",), ("stages",), ("eval", "--model", model)):
        assert _run(argv[0], str(diagram), *argv[1:]) == (
            EXIT_CHECK_FAILED,
            "check error: undefined macro 'nope'\n",
        )


# both macros declare p and q, so splicing the second into A captures the
# names the first one freshened
TWO_MACRO_DIAG = """\
layer L in C
macro m1 := {
  node p : L "p"
  node q : L "q"
}
macro m2 := {
  node p : L "p2"
  node q : L "q2"
}
node A : L "A" @use(m1) @use(m2)
"""


def test_a_macro_capture_names_the_first_local_whatever_the_hash_seed(tmp_path):
    (tmp_path / "two.diag").write_text(TWO_MACRO_DIAG)
    assert _under_hash_seeds("context", str(tmp_path / "two.diag"), seeds=("0", "1")) == {
        (EXIT_CHECK_FAILED, "check error: macro expansion captures existing name 'p$1'\n")
    }


# m1's body uses m2, so m1 is spliced first and m2 then splices into A and
# into m1's copy of p, in either declaration order
NESTED_MACROS = '''layer L in C
macro m1 := {
  node p : L "p" @use(m2)
}
macro m2 := {
  node r : L "r"
}
'''
NESTED_ORDERS = {
    "A first": ('node A : L "A" @use(m2)\nnode B : L "B" @use(m1)\n', "A in C,\n  B in C"),
    "B first": ('node B : L "B" @use(m1)\nnode A : L "A" @use(m2)\n', "B in C,\n  A in C"),
}


@pytest.mark.parametrize("order", sorted(NESTED_ORDERS))
def test_a_nested_macro_is_spliced_whatever_the_declaration_order(tmp_path, order):
    hosts, listed = NESTED_ORDERS[order]
    (tmp_path / "nested.diag").write_text(NESTED_MACROS + hosts)
    assert _run("context", str(tmp_path / "nested.diag")) == (
        EXIT_OK,
        f"In a context where:\n  C is a category,\n  {listed},\n"
        "  p in C,\n  r in C,\n  r in C.\n",
    )
    code, text = _run("stages", str(tmp_path / "nested.diag"))
    assert code == EXIT_OK and text.endswith(", p$1, r$1, r$2)\n")


def test_macros_that_use_each_other_are_a_check_error_whatever_the_hash_seed(tmp_path):
    cyclic = tmp_path / "cyclic.diag"
    cyclic.write_text(
        NESTED_MACROS.replace('"r"', '"r" @use(m1)') + 'node A : L "A" @use(m1)\n'
    )
    failure = (EXIT_CHECK_FAILED, "check error: cyclic macro use: m1 -> m2 -> m1\n")
    assert _run("stages", str(cyclic)) == failure
    assert _under_hash_seeds("context", str(cyclic), seeds=("0", "1")) == {failure}


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


DEEP_TYPE = "(" * 400 + "A" + ")" * 400
DEEP_TERM = "(" * 1500 + "1" + ")" * 1500
# The parser takes one frame per arrow; the search and the printers answer
# for any chain it parses.
DEEP_ARROWS = "->".join(["A"] * 2000)


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", DEEP_TERM),
        ("infer", "{}", DEEP_TYPE),
        ("infer", "{a: " + DEEP_TYPE + "}", "A"),
        ("infer", "{}", DEEP_ARROWS),
        ("infer", "{x: " + DEEP_ARROWS + "}", "A"),
    ],
    ids=[
        "reduce-term",
        "infer-goal",
        "infer-hypothesis",
        "infer-arrow-goal",
        "infer-arrow-hypothesis",
    ],
)
def test_deep_nesting_is_a_parse_error(argv):
    assert _run(*argv) == (EXIT_USAGE, "parse error: input nested too deeply\n")


@pytest.mark.parametrize("fmt", ["report", "graph"])
def test_a_flat_sum_too_deep_to_reduce_is_a_parse_error(fix, fmt):
    # The parser's "+" loop is iterative, but the sum it builds is an
    # application nested two levels per summand.
    code, text = _run("reduce", " + ".join(["1"] * 2000), "--sig", fix("arith.sig"), "--format", fmt)
    assert (code, text) == (EXIT_USAGE, "parse error: input nested too deeply\n")


def _nested(frames, call):
    """``call()`` run ``frames`` Python frames below this one."""
    return call() if frames == 0 else _nested(frames - 1, call)


def test_a_flat_sum_of_400_summands_reduces_from_a_deep_caller(fix):
    # Each node is hashed when it is built, from its children's hashes, so no
    # hash walks the sum's spine.
    argv = ("reduce", " + ".join(["1"] * 400), "--sig", fix("arith.sig"))
    code, text = _nested(100, lambda: _run(*argv))
    assert code == EXIT_OK and text.startswith("nodes: 400\nnormal forms: 400\n")


def test_a_search_deeper_than_the_stack_answers():
    # The search builds height by height and prints from the children, so
    # nothing recurses once per level of --depth.
    code, text = _run("infer", "{f: A->A, x: A}", "A", "--depth", "600")
    lines = text.splitlines()
    assert code == EXIT_OK
    assert re.fullmatch(r"inhabitants \(depth <= 600\): 600  \[\d+\.\d+s\]", lines[1])
    assert lines[2:5] == ["x", "f x", "f (f x)"]
    assert lines[-1] == "f (" * 598 + "f x" + ")" * 598


def test_a_deep_search_primes_binders_past_a_hypothesis_named_like_one():
    # The binder of \x1 is primed exactly where the hypothesis x1 occurs
    # free, still printed from the children's text.
    code, text = _run("infer", "{f: A->A, x1: A}", "A->A", "--depth", "1200")
    lines = text.splitlines()
    assert code == EXIT_OK
    assert re.fullmatch(r"inhabitants \(depth <= 1200\): 2399  \[\d+\.\d+s\]", lines[1])
    assert lines[2:7] == ["f", "\\x1:A. x1", "\\x1':A. x1", "\\x1:A. f x1", "\\x1':A. f x1"]
    body = "f (" * 1197 + "f x1" + ")" * 1197
    assert lines[-2:] == ["\\x1:A. " + body, "\\x1':A. " + body]


def test_deep_nesting_in_a_signature_rule_is_a_parse_error(tmp_path):
    sig = tmp_path / "deep.sig"
    sig.write_text("g : N -> N\nrule g(x) = " + DEEP_TERM.replace("1", "x") + "\n")
    code, text = _run("reduce", "g 1", "--sig", str(sig))
    assert (code, text) == (EXIT_USAGE, "parse error: line 2: input nested too deeply\n")


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


KAN_TRUNCATION_EXPECTED = """\
right kan sizes: 0:2, 1:2
left kan sizes: 0:2, 1:1
subject: kan_adjointness
  [PASS] left_count[0]
  [PASS] left_transpose_bijective[0]
  [PASS] right_count[0]
  [PASS] right_transpose_bijective[0]
result: PASS
subject: counit_inclusion
  [FAIL] fully_faithful_inclusion  witness=('objects_collide', '1', '2')
result: FAIL
"""


def test_kan_along_a_truncation_that_merges_objects(fix):
    """Along trunc_q_p the objects 1 and 2 share the image 1: both Kan
    adjunctions hold, the left transposition reading one component of a
    transformation out of the left extension for both, and the inclusion
    check fails its precondition."""
    assert _run("kan", fix("trunc_q_p.fun"), fix("s_on_q.fun")) == (
        EXIT_CHECK_FAILED,
        KAN_TRUNCATION_EXPECTED,
    )


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


@pytest.mark.parametrize("atom", ["a->b", "a{b", "a}b"])
@pytest.mark.parametrize("command", ["check-fun", "yoneda", "check-nt"])
def test_reserved_set_atom_is_a_parse_error(fix, tmp_path, command, atom):
    fun = tmp_path / "bad.fun"
    fun.write_text(
        f"source: {fix('disc2.fincat')}\ntarget: finset\nobjects:\n"
        f"  0 |-> {{{atom}}}\n  1 |-> {{c}}\n"
    )
    nt = tmp_path / "bad.nt"
    nt.write_text(f"source: bad.fun\ntarget: bad.fun\ncomponents:\n  0 |-> {{{atom}->{atom}}}\n")
    path = nt if command == "check-nt" else fun
    assert _run(command, str(path)) == (
        EXIT_USAGE,
        f"parse error: {fun}:4: atom {atom!r} contains reserved characters\n",
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


def test_cli_imports_only_public_names():
    """The layer trace wraps public functions only; work a module does
    through another module's private name would be billed to the importer.
    Checked for every module of the package, the CLI among them."""
    package = os.path.dirname(fincat.__file__)
    private = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        private += [
            (name, node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "fincat")
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert "cli.py" in os.listdir(package)
    assert private == []


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


@pytest.mark.parametrize(
    "entry, bad, message",
    [
        ("0 |-> id_0", "0 |-> nope", "arrow 'nope' for '0' is not a morphism 0 -> 0"),
        ("2 |-> 1->2", "2 |-> nope", "arrow 'nope' for '2' is not a morphism 1 -> 2"),
        ("2 |-> 1->2", "2 |-> id_1", "arrow 'id_1' for '2' is not a morphism 1 -> 2"),
    ],
    ids=["unit-unknown", "counit-unknown", "counit-wrong-hom"],
)
def test_adj_verify_rejects_a_component_outside_its_hom_set(fix, tmp_path, entry, bad, message):
    manifest = _manifest(fix, tmp_path, "galois.adj", fix("trunc_q_p.fun"), fix("incl_p_q.fun"))
    with open(manifest, encoding="utf-8") as handle:
        text = handle.read()
    with open(manifest, "w", encoding="utf-8") as handle:
        handle.write(text.replace(entry, bad, 1))
    assert _run("adj", "verify", manifest) == (EXIT_CHECK_FAILED, f"check error: {message}\n")


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


def _chain3_lacking(fix, tmp_path, dropped):
    """trunc_q_p.fun and incl_p_q.fun over the 3-chain written as explicit
    tables without the composite ``dropped``; returns (right, left)."""
    chain = preorder_from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])
    lines = ["objects:", *(f"  {x}" for x in chain.objects), "morphisms:"]
    lines += [f"  {m} : {d} -> {c}" for m, (d, c) in chain.morphisms.items()]
    lines.append("compose:")
    lines += [f"  {g} . {f} = {h}" for (g, f), h in chain.compose.items() if (g, f) != dropped]
    (tmp_path / "chain3.fincat").write_text("\n".join(lines) + "\n")
    paths = []
    for name in ("trunc_q_p.fun", "incl_p_q.fun"):
        with open(fix(name), encoding="utf-8") as handle:
            text = handle.read()
        (tmp_path / name).write_text(text.replace("chain2.fincat", fix("chain2.fincat")))
        paths.append(str(tmp_path / name))
    return paths


@pytest.mark.parametrize(
    "mode, name",
    [("verify", "galois.adj"), ("verify", "galois_build.adj"), ("build", "galois_build.adj")],
)
def test_adj_names_a_composite_the_table_lacks(fix, tmp_path, mode, name):
    """The right functor's source lacks a composite, so it is not a
    category, and the gate names the pair before any functor is checked."""
    right, left = _chain3_lacking(fix, tmp_path, ("1->2", "0->1"))
    manifest = _manifest(fix, tmp_path, name, right, left)
    assert _run("adj", mode, manifest) == (
        EXIT_CHECK_FAILED,
        "check error: right source is not a category: totality fails at ('1->2', '0->1')\n",
    )


_NOT_A_CATEGORY = {
    "bad_assoc.fincat": "associativity fails at ('p', 'p', 'p', 'p', 'q')",
    "bad_idl.fincat": "associativity fails at ('p', 'id_a', 'p', 'q', 'p')",
}


@pytest.mark.parametrize("table", sorted(_NOT_A_CATEGORY))
@pytest.mark.parametrize(
    "argv, role",
    [
        (("kan", "identity.fun", "points.fun"), "along source"),
        (("yoneda", "points.fun"), "functor source"),
        (("adj", "verify", "identity.adj"), "right source"),
    ],
)
def test_commands_refuse_functors_over_a_table_that_is_not_a_category(
    fix, tmp_path, table, argv, role
):
    """The identity functor and a one-point set-valued functor over a table
    that breaks a category law are functors; each command stops at the
    table's first failed law before it builds or checks anything else."""
    source = fix("broken", table)
    (tmp_path / "points.fun").write_text(
        f"source: {source}\ntarget: finset\nobjects:\n  a |-> {{x}}\n"
        "morphisms:\n  p |-> {x->x}\n  q |-> {x->x}\n"
    )
    (tmp_path / "identity.fun").write_text(
        f"source: {source}\ntarget: {source}\nobjects:\n  a |-> a\n"
        "morphisms:\n  p |-> p\n  q |-> q\n"
    )
    (tmp_path / "identity.adj").write_text(
        "right: identity.fun\nleft: identity.fun\nunit:\n  a |-> id_a\ncounit:\n  a |-> id_a\n"
    )
    paths = [str(tmp_path / a) if a.endswith((".fun", ".adj")) else a for a in argv]
    assert _run(*paths) == (
        EXIT_CHECK_FAILED,
        f"check error: {role} is not a category: {_NOT_A_CATEGORY[table]}\n",
    )


# ---------------------------------------------------------------------------
# Corpus runner
# ---------------------------------------------------------------------------


CORPUS_LABELS = [
    "check-cat a4.fincat",
    "check-cat b6.fincat",
    "check-cat chain2.fincat",
    "check-cat chain3.fincat",
    "check-cat disc2.fincat",
    "check-fun f_kite.fun",
    "check-fun g_on_a.fun",
    "check-fun g_on_b.fun",
    "check-fun h_on_a.fun",
    "check-nt id_fkite.nt",
    "check-fun id_monoid.fun",
    "check-fun incl_a4_b6.fun",
    "check-fun incl_disc2_p.fun",
    "check-fun incl_p_q.fun",
    "check-cat kite.fincat",
    "check-cat monoid_e.fincat",
    "check-fun s_on_q.fun",
    "check-fun trunc_q_p.fun",
    "expect-fail check-cat broken/bad_assoc.fincat",
    "expect-fail check-cat broken/bad_coherence.fincat",
    "expect-fail check-cat broken/bad_idl.fincat",
    "expect-fail check-cat broken/bad_idr.fincat",
    "expect-fail check-fun broken/f_kite_bad_respcomp.fun",
    "expect-fail check-fun broken/f_kite_bad_respids.fun",
    "expect-fail check-nt broken/f_kite_bad_sqcond.nt",
    "stages equalizer.diag",
    "eval equalizer @ chain2",
    "expect-false eval equalizer @ monoid",
    "eval universal_arrow @ galois",
    "golden context universal_arrow",
    "golden context y0",
    "golden grid y0",
    "yoneda f_kite.fun",
    "kan incl_a4_b6 h_on_a",
    "adj verify galois.adj",
    "adj build galois_build.adj",
    "expect-fail adj verify monoid_bad_counit.adj",
    "infer pairing term",
    "infer identity term",
    "reduce g(2+3) -> 29",
]


def test_examples_runs_whole_corpus():
    code, text = _run("examples")
    assert code == EXIT_OK
    assert text == "".join(f"[ok] {label}\n" for label in CORPUS_LABELS) + "corpus: 40/40 ok\n"


def test_corpus_directory_override(tmp_path, monkeypatch):
    monkeypatch.setenv(CORPUS_ENV, str(tmp_path))
    assert corpus_dir() == str(tmp_path)
    code, _text = _run("examples")
    assert code != EXIT_OK  # nothing to load there

    monkeypatch.delenv(CORPUS_ENV)
    assert corpus_dir().endswith("fixtures")


def test_examples_at_a_small_cap_names_the_entries_that_exceed_it():
    errors = {
        "yoneda f_kite.fun": "search space of 8 candidates exceeds cap 3",
        "kan incl_a4_b6 h_on_a": "search space of 16 candidates exceeds cap 3",
    }
    lines = [
        f"[FAIL] {label}  error: {errors[label]}" if label in errors else f"[ok] {label}"
        for label in CORPUS_LABELS
    ]
    assert _run("examples", "--cap", "3") == (
        EXIT_CHECK_FAILED,
        "\n".join([*lines, "corpus: 38/40 ok"]) + "\n",
    )


def test_examples_dispatches_every_entry_to_its_subcommand(monkeypatch):
    """Each entry runs one subcommand handler with the caller's cap and the
    options that subcommand's parser gives."""
    seen = []
    for name, (help_text, handler, add) in list(cli._SUBCOMMANDS.items()):
        def counted(cfg, out, loads, _handler=handler):
            seen.append(cfg)
            return _handler(cfg, out, loads)

        monkeypatch.setitem(cli._SUBCOMMANDS, name, (help_text, counted, add))
    assert _run("examples", "--cap", "999999") == (
        EXIT_OK,
        "".join(f"[ok] {label}\n" for label in CORPUS_LABELS) + "corpus: 40/40 ok\n",
    )
    assert seen[0].subcommand == "examples" and len(seen) == 1 + len(CORPUS_LABELS)
    assert {cfg.cap for cfg in seen} == {999999}
    parsed = {argv[0]: _full_parser_config(argv) for argv in VALID_ARGVS}
    for cfg in seen[1:]:
        want = parsed[cfg.subcommand]
        assert (len(cfg.paths), set(cfg.options)) == (len(want.paths), set(want.options))


def test_examples_names_the_unlawful_layer_of_a_model(fix, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    shutil.copytree(fix(""), corpus)
    (corpus / "models" / "unlawful.fincat").write_text(
        "objects:\n  0\n  1\nmorphisms:\n  f : 0 -> 1\n  g : 0 -> 1\n"
        "compose:\n  id_1 . f = g\n",
        encoding="utf-8",
    )
    (corpus / "models" / "equalizer_chain2.model").write_text(
        "layer L = unlawful.fincat\n", encoding="utf-8"
    )
    monkeypatch.setenv(CORPUS_ENV, str(corpus))
    code, text = _run("examples")
    assert code == EXIT_CHECK_FAILED
    assert [line for line in text.splitlines() if not line.startswith("[ok] ")] == [
        "[FAIL] eval equalizer @ chain2  error: layer 'L' is not a category: "
        "left_identity fails at ('f', 'g')",
        "corpus: 39/40 ok",
    ]


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
