"""Command-line front end.

Parses fixture and diagram files, runs every check, and prints elaborated
contexts, law reports, and deterministic text renderings.  Exit codes:
0 all checks pass, 1 a check failed (witness printed), 2 parse or usage
error, 3 enumeration cap exceeded, 4 internal error (a fault in fincat).
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time

from .adjunction import (
    AdjunctionError,
    assemble_adjunction,
    check_kan_adjointness,
    counit_inclusion_check,
    kan_extensions,
    verify_adjunction,
)
from .core import (
    CheckReport,
    FinCatError,
    require_category,
    require_functor,
    validate_category,
    validate_functor,
    validate_nattrans,
)
from .diagram import (
    DiagramError,
    DiagramParseError,
    build_model,
    elaborate_context,
    evaluate_quantified,
    expand_macros,
    extract_stages,
    parse_diagram,
    quantifier_glyph,
    render_grid,
)
from .files import (
    FixtureParseError,
    load_adjunction_parts,
    load_category,
    load_functor,
    load_model_spec,
    load_nattrans,
    load_once,
)
from .finset import FINSET, CapExceededError, DEFAULT_ENUM_CAP, FinSetObj
from .record import Record
from .terms import (
    DEFAULT_NODE_CAP,
    ReductionGraph,
    Signature,
    TermError,
    TermParseError,
    curry_howard_translate,
    inhabitant_texts,
    parse_context,
    parse_signature,
    parse_term,
    parse_type,
    print_type,
    reduction_graph,
)
from .yoneda import (
    HomContext,
    check_yoneda_roundtrips,
    hom_cov_functor,
    hom_maps_functor,
    yoneda_pointwise_bijection,
)

__all__ = [
    "EXIT_OK",
    "EXIT_CHECK_FAILED",
    "EXIT_USAGE",
    "EXIT_CAP",
    "EXIT_INTERNAL",
    "CORPUS_ENV",
    "RunConfig",
    "corpus_dir",
    "render_reduction_dot",
    "run",
    "main",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4  # a fault in fincat itself, not a verdict on the input

CORPUS_ENV = "FINCAT_CORPUS"


def corpus_dir() -> str:
    """Bundled fixture directory, overridable via the environment."""
    override = os.environ.get(CORPUS_ENV)
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "fixtures")


class RunConfig(Record):
    """One resolved invocation."""

    subcommand: str
    paths: tuple = ()
    cap: int = DEFAULT_ENUM_CAP
    fmt: str = "report"
    options: dict = {}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.cap < 1:
            raise ValueError("cap must be positive")
        if self.fmt not in ("report", "context", "graph"):
            raise ValueError(f"unknown output format {self.fmt!r}")


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def render_reduction_dot(graph: ReductionGraph) -> str:
    """Deterministic DOT rendering; normal forms boxed, the root doubled."""

    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    names = {key: f"n{i}" for i, key in enumerate(sorted(graph.nodes))}
    lines = ["digraph reduction {"]
    for key in sorted(graph.nodes):
        attrs = [f'label="{esc(key)}"']
        if key in graph.normal_forms:
            attrs.append("shape=box")
        if key == graph.root:
            attrs.append("peripheries=2")
        lines.append(f"  {names[key]} [{', '.join(attrs)}];")
    for src in sorted(graph.edges):
        for dst in graph.edges[src]:
            lines.append(f"  {names[src]} -> {names[dst]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit(out, text: str) -> None:
    out.write(text if text.endswith("\n") else text + "\n")


def _report_exit(out, report: CheckReport) -> int:
    _emit(out, report.summary())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Subcommands
#
# A handler takes the config, the output stream and ``loads``, the load memo
# of the invocation (see `fincat.files.load_once`), which every file it
# loads goes through.
# ---------------------------------------------------------------------------


def _cmd_check_cat(cfg: RunConfig, out, loads: dict) -> int:
    return _report_exit(out, validate_category(load_once(loads, load_category, cfg.paths[0])))


def _cmd_check_fun(cfg: RunConfig, out, loads: dict) -> int:
    functor = load_once(loads, load_functor, cfg.paths[0], loads)
    return _report_exit(out, validate_functor(functor))


def _cmd_check_nt(cfg: RunConfig, out, loads: dict) -> int:
    nattrans = load_once(loads, load_nattrans, cfg.paths[0], loads)
    return _report_exit(out, validate_nattrans(nattrans))


def _load_diagram(path: str):
    """The parsed diagram with its macros spliced in by ``expand_macros``.
    Commands load it through the invocation's memo, so a diagram named
    twice is parsed once."""
    with open(path, encoding="utf-8") as handle:
        return expand_macros(parse_diagram(handle.read()))


def _cmd_stages(cfg: RunConfig, out, loads: dict) -> int:
    ast = load_once(loads, _load_diagram, cfg.paths[0])
    stages = extract_stages(ast)
    _emit(out, f"stages: {len(stages) - 1}")
    for stage in stages:
        nodes, arrows = stage.counts()
        line = f"stage {stage.index} [{quantifier_glyph(stage.quantifier)}]: {nodes} nodes, {arrows} arrows"
        if stage.new_elements:
            line += f"  (new: {', '.join(stage.new_elements)})"
        _emit(out, line)
        if cfg.fmt == "graph":
            _emit(out, render_grid(stage.diagram))
    return EXIT_OK


def _cmd_context(cfg: RunConfig, out, loads: dict) -> int:
    ast = load_once(loads, _load_diagram, cfg.paths[0])
    if cfg.fmt == "graph":
        _emit(out, render_grid(ast))
        return EXIT_OK
    _emit(out, elaborate_context(ast))
    return EXIT_OK


def _cmd_eval(cfg: RunConfig, out, loads: dict) -> int:
    ast = load_once(loads, _load_diagram, cfg.paths[0])
    spec = load_once(loads, load_model_spec, cfg.options["model"], loads)
    model = build_model(ast, spec)
    value, trace = evaluate_quantified(ast, model, cap=cfg.cap)
    _emit(out, trace.render())
    _emit(out, f"result: {'true' if value else 'false'}")
    return EXIT_OK if value else EXIT_CHECK_FAILED


def _cmd_infer(cfg: RunConfig, out, _loads: dict) -> int:
    ctx = parse_context(cfg.options["context"])
    goal = parse_type(cfg.options["type"])
    depth = cfg.options["depth"]
    started = time.monotonic()
    # A type nested by arrows costs the parser one frame per arrow, so it can
    # parse and still overflow the stack in the search or the printers.
    # Neither recurses once per level of --depth.
    try:
        texts = inhabitant_texts(ctx, goal, depth)
        elapsed = time.monotonic() - started
        header = f"goal: {print_type(goal)}   [{curry_howard_translate(goal, ctx)}]"
    except RecursionError:
        raise TermParseError("input nested too deeply") from None
    _emit(out, header)
    _emit(out, f"inhabitants (depth <= {depth}): {len(texts)}  [{elapsed:.3f}s]")
    out.write("".join(f"{text}\n" for text in texts))
    return EXIT_OK


def _cmd_reduce(cfg: RunConfig, out, _loads: dict) -> int:
    sig = Signature()
    if cfg.options.get("sig"):
        with open(cfg.options["sig"], encoding="utf-8") as handle:
            sig = parse_signature(handle.read())
    source = cfg.options["term"]
    if os.path.isfile(source):
        with open(source, encoding="utf-8") as handle:
            source = handle.read()
    # A term can parse flat and nest deeply: "1 + 1 + ... + 1" is a left-nested
    # application, and typing, hashing and the reduct walk recurse once per
    # level of it.
    try:
        term = parse_term(source, sig)
        graph, report = reduction_graph(term, sig, node_cap=cfg.options["nodes"])
        text = render_reduction_dot(graph) if cfg.fmt == "graph" else report.summary()
    except RecursionError:
        raise TermParseError("input nested too deeply") from None
    _emit(out, text)
    return EXIT_CAP if report.truncated else EXIT_OK


def _cmd_yoneda(cfg: RunConfig, out, loads: dict) -> int:
    functor = load_once(loads, load_functor, cfg.paths[0], loads)
    if functor.target is not FINSET:
        raise FinCatError("yoneda needs a finite-set valued functor")
    require_category(functor.source, "functor source")
    require_functor(functor)
    category = functor.source
    probe = FinSetObj(("*",))
    # The anchor's hom-functor is shared by both checks.  The maps functor
    # does not depend on the anchor: it is built once, where the first round
    # trip needs it, so a cap error in the first pointwise bijection is the
    # one printed.
    maps_functor = None
    code = EXIT_OK
    for anchor in sorted(category.objects):
        hom = hom_cov_functor(category, anchor)
        mapping, bij_report = yoneda_pointwise_bijection(functor, anchor, hom, cfg.cap)
        if maps_functor is None:
            maps_functor = hom_maps_functor(probe, functor, cfg.cap)
        round_report = check_yoneda_roundtrips(
            HomContext(category, functor, probe, anchor), hom, maps_functor, cfg.cap
        )
        _emit(
            out,
            f"object {anchor}: |values| = {len(functor.object_map[anchor])}, "
            f"|transformations| = {len(mapping)}, "
            f"bijection {'ok' if bij_report.passed else 'FAIL'}, "
            f"roundtrips {'ok' if round_report.passed else 'FAIL'}",
        )
        for report in (bij_report, round_report):
            if not report.passed:
                _emit(out, report.summary())
                code = EXIT_CHECK_FAILED
    return code


def _cmd_kan(cfg: RunConfig, out, loads: dict) -> int:
    along = load_once(loads, load_functor, cfg.paths[0], loads)
    functor = load_once(loads, load_functor, cfg.paths[1], loads)
    # Each extension is built once, after one check of each input and its
    # tables, and shared by the sizes lines and both checks.
    extensions = kan_extensions(along, functor, cfg.cap)
    (rkan, cones), (lkan, _cocones) = extensions
    for tag, kan in (("right", rkan), ("left", lkan)):
        sizes = ", ".join(
            f"{b}:{len(kan.object_map[b])}" for b in sorted(kan.source.objects)
        )
        _emit(out, f"{tag} kan sizes: {sizes}")
    code = EXIT_OK
    adjoint = check_kan_adjointness(along, lkan, functor, extensions, cfg.cap)
    _emit(out, adjoint.summary())
    if not adjoint.passed:
        code = EXIT_CHECK_FAILED
    inclusion = counit_inclusion_check(along, functor, cones)
    _emit(out, inclusion.summary())
    if not inclusion.passed:
        code = EXIT_CHECK_FAILED
    return code


def _cmd_adj(cfg: RunConfig, out, loads: dict) -> int:
    parts = load_once(loads, load_adjunction_parts, cfg.paths[0], loads)
    mode = cfg.options["mode"]
    if mode == "build" and parts.kind != "build":
        raise FixtureParseError(
            cfg.paths[0], None, "adj build needs a manifest with chosen objects"
        )
    adj = assemble_adjunction(parts)
    if mode == "build":
        _emit(out, "solved left adjoint:")
        for a in sorted(adj.left.object_map):
            _emit(out, f"  object {a} |-> {adj.left.object_map[a]}")
        for m in sorted(adj.left.morphism_map):
            _emit(out, f"  morphism {m} |-> {adj.left.morphism_map[m]}")
        _emit(out, "solved counit:")
        for b in sorted(adj.counit.components):
            _emit(out, f"  {b} |-> {adj.counit.components[b]}")
    return _report_exit(out, verify_adjunction(adj))


# ---------------------------------------------------------------------------
# Bundled corpus run
# ---------------------------------------------------------------------------


_FIXTURE_CHECKS = ((".fincat", "check-cat"), (".fun", "check-fun"), (".nt", "check-nt"))
_REDUCED_TO_29 = [
    "normal forms: 29",
    "terminating: yes",
    "unique normal form: yes",
    "locally confluent on graph: yes",
]


def _corpus_entries(base: str, cap: int):
    """Yield ``(label, config, expected exit code, output check or None)`` for
    each bundled example.  A check takes the subcommand's output text; an
    ``expect-`` label expects exit code 1, any other label 0."""
    fix = lambda *parts: os.path.join(base, *parts)

    def entry(label, command, *paths, check=None, fmt=None, **options):
        expect = EXIT_CHECK_FAILED if label.startswith("expect-") else EXIT_OK
        fmt = fmt or _DEFAULT_FMT.get(command, "report")
        return label, RunConfig(command, paths, cap, fmt, options), expect, check

    def golden(path):
        def check(text):
            with open(path, encoding="utf-8") as handle:
                return text == handle.read()

        return check

    def stage_glyphs(text):
        glyphs = [line.split("[", 1)[1].split("]", 1)[0] for line in text.splitlines()[1:]]
        quantifiers = (None, "forall", "exists", "forall", "existsuniq")
        return glyphs == [quantifier_glyph(q) for q in quantifiers]

    def kan_sizes(text):  # the right extension has 1 element at 6, the left none at 1
        right, left = (line.split(": ", 1)[1].split(", ") for line in text.splitlines()[:2])
        return "6:1" in right and "1:0" in left

    for folder, label in ((base, "{} {}"), (fix("broken"), "expect-fail {} broken/{}")):
        for name in sorted(os.listdir(folder)):
            for ext, command in _FIXTURE_CHECKS:
                if name.endswith(ext):
                    yield entry(label.format(command, name), command, os.path.join(folder, name))
    yield entry("stages equalizer.diag", "stages", fix("equalizer.diag"), check=stage_glyphs)
    for label, diag, model in (
        ("eval equalizer @ chain2", "equalizer", "equalizer_chain2"),
        ("expect-false eval equalizer @ monoid", "equalizer", "equalizer_monoid"),
        ("eval universal_arrow @ galois", "universal_arrow", "universal_arrow_galois"),
    ):
        yield entry(label, "eval", fix(f"{diag}.diag"), model=fix("models", f"{model}.model"))
    for diag, kind in (("universal_arrow", "context"), ("y0", "context"), ("y0", "grid")):
        check = golden(fix("golden", f"{diag}.{kind}.txt"))
        fmt = "graph" if kind == "grid" else "context"
        yield entry(f"golden {kind} {diag}", "context", fix(f"{diag}.diag"), fmt=fmt, check=check)
    yield entry("yoneda f_kite.fun", "yoneda", fix("f_kite.fun"))
    along, functor = fix("incl_a4_b6.fun"), fix("h_on_a.fun")
    yield entry("kan incl_a4_b6 h_on_a", "kan", along, functor, check=kan_sizes)
    for label in (
        "adj verify galois.adj",
        "adj build galois_build.adj",
        "expect-fail adj verify monoid_bad_counit.adj",
    ):
        mode, name = label.split()[-2:]
        yield entry(label, "adj", fix(name), mode=mode)
    for label, context, goal, term in (
        ("infer pairing term", "{f: A'->A}", "A'*B -> A*B", "\\x1:A' * B. (f (p1 x1), p2 x1)"),
        ("infer identity term", "{}", "A -> A", "\\x1:A. x1"),
    ):
        check = lambda text, term=term: text.splitlines()[2:] == [term]
        yield entry(label, "infer", check=check, context=context, type=goal, depth=6)
    yield entry(
        "reduce g(2+3) -> 29",
        "reduce",
        check=lambda text: text.splitlines()[1:] == _REDUCED_TO_29,
        term="g (2 + 3)",
        sig=fix("arith.sig"),
        nodes=DEFAULT_NODE_CAP,
    )


def _cmd_examples(cfg: RunConfig, out, loads: dict) -> int:
    """Runs every entry with this invocation's ``loads``, so a fixture that
    several entries name is loaded once."""
    failures = total = 0
    for label, entry, expect, check in _corpus_entries(corpus_dir(), cfg.cap):
        total += 1
        buffer = io.StringIO()
        error = ""
        try:
            code = _SUBCOMMANDS[entry.subcommand][1](entry, buffer, loads)
            good = code == expect and (check is None or check(buffer.getvalue()))
        except Exception as exc:  # a corpus entry must never raise
            good, error = False, f"  error: {exc}"
        _emit(out, f"[{'ok' if good else 'FAIL'}] {label}{error}")
        failures += not good
    _emit(out, f"corpus: {total - failures}/{total} ok")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # force exit code 2 with a clean message
        raise _UsageError(message)

    def print_help(self, file=None):  # let run() write it and return
        raise _HelpRequested(self.format_help())


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


def _add_path(p):
    p.add_argument("path")


def _add_eval(p):
    p.add_argument("path")
    p.add_argument("--model", required=True, metavar="M")


def _add_infer(p):
    p.add_argument("context", help="hypotheses, e.g. \"{f: A'->A}\"")
    p.add_argument("type", help="goal type, e.g. \"A'*B -> A*B\"")
    p.add_argument("--depth", type=int, default=6)


def _add_reduce(p):
    p.add_argument("term", help="term text or path to a term file")
    p.add_argument("--sig", metavar="S", help="constant signature file")
    p.add_argument("--nodes", type=int, default=DEFAULT_NODE_CAP, metavar="N")


def _add_kan(p):
    p.add_argument("along", help=".fun file between table categories")
    p.add_argument("functor", help="set-valued .fun file on the source")


def _add_adj(p):
    p.add_argument("mode", choices=("verify", "build"))
    p.add_argument("path")


# name -> (help text, handler, adds the subcommand's own arguments), in the
# order the top-level help and the invalid-choice message list them.
_SUBCOMMANDS = {
    "check-cat": ("check the category laws of a .fincat file", _cmd_check_cat, _add_path),
    "check-fun": ("check the functor laws of a .fun file", _cmd_check_fun, _add_path),
    "check-nt": ("check naturality of a .nt file", _cmd_check_nt, _add_path),
    "stages": ("print the quantifier stages of a .diag file", _cmd_stages, _add_path),
    "eval": ("evaluate a quantified diagram in a model", _cmd_eval, _add_eval),
    "context": ("print the elaborated context of a .diag file", _cmd_context, _add_path),
    "infer": ("search for terms inhabiting a type", _cmd_infer, _add_infer),
    "reduce": ("explore the reduction graph of a term", _cmd_reduce, _add_reduce),
    "yoneda": (
        "bijection and round-trip checks for a set-valued functor",
        _cmd_yoneda,
        _add_path,
    ),
    "kan": ("Kan extensions of a set-valued functor along a functor", _cmd_kan, _add_kan),
    "adj": ("verify or complete an adjunction manifest", _cmd_adj, _add_adj),
    "examples": (
        "run every bundled fixture and print a summary table",
        _cmd_examples,
        lambda p: None,
    ),
}


def _build_parser(names) -> argparse.ArgumentParser:
    """A parser registering the subcommands ``names``, in table order."""
    parser = _Parser(prog="fincat", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="<command>")
    for name in names:
        help_text, _handler, add_arguments = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP, metavar="N")
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("report", "context", "graph"),
            default=None,
        )
        add_arguments(p)
    return parser


# subcommand name, or None for all of them -> its parser, built on first use
_PARSERS: dict = {}


def _parser_for(argv) -> argparse.ArgumentParser:
    """Only the named subcommand's parser when ``argv`` starts with a known
    name; every subcommand otherwise, so top-level help and the
    invalid-choice message list them all.  Each is built once per process."""
    name = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    parser = _PARSERS.get(name)
    if parser is None:
        parser = _PARSERS[name] = _build_parser(_SUBCOMMANDS if name is None else (name,))
    return parser


_DEFAULT_FMT = {"context": "context", "stages": "report", "reduce": "report"}


def _config_from_args(args) -> RunConfig:
    paths = []
    options = {}
    for key in ("path", "along", "functor"):
        value = getattr(args, key, None)
        if value is not None:
            paths.append(value)
    for key in ("model", "depth", "sig", "nodes", "context", "type", "term", "mode"):
        if hasattr(args, key):
            options[key] = getattr(args, key)
    fmt = args.fmt or _DEFAULT_FMT.get(args.subcommand, "report")
    # positional: binding fields by keyword costs about three times as much
    return RunConfig(args.subcommand, tuple(paths), args.cap, fmt, options)


def run(argv, out=None) -> int:
    """Execute one invocation; returns the exit code."""
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser_for(argv).parse_args(argv)
        if args.subcommand is None:
            raise _UsageError("a subcommand is required")
        cfg = _config_from_args(args)
        return _SUBCOMMANDS[cfg.subcommand][1](cfg, out, {})
    except _HelpRequested as exc:
        out.write(str(exc))
        return EXIT_OK
    except _UsageError as exc:
        _emit(out, f"usage error: {exc}")
        return EXIT_USAGE
    except (FixtureParseError, DiagramParseError, TermError, ValueError) as exc:
        _emit(out, f"parse error: {exc}")
        return EXIT_USAGE
    except CapExceededError as exc:
        _emit(out, f"cap exceeded: {exc}")
        return EXIT_CAP
    except (FinCatError, DiagramError, AdjunctionError) as exc:
        _emit(out, f"check error: {exc}")
        return EXIT_CHECK_FAILED
    except BrokenPipeError:
        raise  # the reader of ``out`` is gone; no message can reach it
    except OSError as exc:
        _emit(out, f"usage error: {exc}")
        return EXIT_USAGE
    except Exception as exc:
        _emit(out, f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (``fincat ... | head``).  Point it at
        # devnull so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_USAGE)
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    main()
