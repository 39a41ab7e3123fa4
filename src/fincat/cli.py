"""Command-line front end.

Parses fixture and diagram files, runs every check, and prints elaborated
contexts, law reports, and deterministic text renderings.  Exit codes:
0 all checks pass, 1 a check failed (witness printed), 2 parse or usage
error, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field

from .adjunction import (
    AdjunctionError,
    assemble_adjunction,
    check_kan_adjointness,
    counit_inclusion_check,
    left_kan,
    require_functor,
    right_kan,
    verify_adjunction,
)
from .core import (
    CheckReport,
    FinCatError,
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
)
from .finset import FINSET, CapExceededError, DEFAULT_ENUM_CAP, FinSetObj
from .terms import (
    DEFAULT_NODE_CAP,
    ReductionGraph,
    Signature,
    TermError,
    canonical_print,
    curry_howard_translate,
    infer_inhabitants,
    parse_context,
    parse_signature,
    parse_term,
    parse_type,
    print_type,
    reduction_graph,
)
from .yoneda import check_yoneda_roundtrips, HomContext, yoneda_pointwise_bijection

__all__ = [
    "EXIT_OK",
    "EXIT_CHECK_FAILED",
    "EXIT_USAGE",
    "EXIT_CAP",
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

CORPUS_ENV = "FINCAT_CORPUS"


def corpus_dir() -> str:
    """Bundled fixture directory, overridable via the environment."""
    override = os.environ.get(CORPUS_ENV)
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "fixtures")


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation."""

    subcommand: str
    paths: tuple = ()
    cap: int = DEFAULT_ENUM_CAP
    fmt: str = "report"
    options: dict = field(default_factory=dict)

    def __post_init__(self):
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
# ---------------------------------------------------------------------------


def _cmd_check_cat(cfg: RunConfig, out) -> int:
    return _report_exit(out, validate_category(load_category(cfg.paths[0])))


def _cmd_check_fun(cfg: RunConfig, out) -> int:
    return _report_exit(out, validate_functor(load_functor(cfg.paths[0])))


def _cmd_check_nt(cfg: RunConfig, out) -> int:
    return _report_exit(out, validate_nattrans(load_nattrans(cfg.paths[0])))


def _load_diagram(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_diagram(handle.read())


def _cmd_stages(cfg: RunConfig, out) -> int:
    ast = _load_diagram(cfg.paths[0])
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


def _cmd_context(cfg: RunConfig, out) -> int:
    ast = _load_diagram(cfg.paths[0])
    if cfg.fmt == "graph":
        _emit(out, render_grid(ast))
        return EXIT_OK
    _emit(out, elaborate_context(ast))
    return EXIT_OK


def _require_model(spec) -> None:
    """Raise FinCatError or AdjunctionError, naming the first failed law and
    its witness, unless every table layer is a category and every bound
    functor a functor."""
    for name, cat in spec.layers.items():
        if cat is FINSET:
            continue
        failed = validate_category(cat).failures()
        if failed:
            raise FinCatError(
                f"layer {name!r} is not a category: "
                f"{failed[0].name} fails at {failed[0].witness!r}"
            )
    for (src, dst), fun in spec.functors.items():
        require_functor(fun, f"functor {src}->{dst}")


def _cmd_eval(cfg: RunConfig, out) -> int:
    ast = _load_diagram(cfg.paths[0])
    spec = load_model_spec(cfg.options["model"])
    _require_model(spec)
    model = build_model(ast, spec)
    value, trace = evaluate_quantified(ast, model, cap=cfg.cap)
    _emit(out, trace.render())
    _emit(out, f"result: {'true' if value else 'false'}")
    return EXIT_OK if value else EXIT_CHECK_FAILED


def _cmd_infer(cfg: RunConfig, out) -> int:
    ctx = parse_context(cfg.options["context"])
    goal = parse_type(cfg.options["type"])
    depth = cfg.options["depth"]
    started = time.monotonic()
    terms = infer_inhabitants(ctx, goal, depth)
    elapsed = time.monotonic() - started
    _emit(out, f"goal: {print_type(goal)}   [{curry_howard_translate(goal, ctx)}]")
    _emit(out, f"inhabitants (depth <= {depth}): {len(terms)}  [{elapsed:.3f}s]")
    for term in terms:
        _emit(out, canonical_print(term))
    return EXIT_OK


def _cmd_reduce(cfg: RunConfig, out) -> int:
    sig = Signature()
    if cfg.options.get("sig"):
        with open(cfg.options["sig"], encoding="utf-8") as handle:
            sig = parse_signature(handle.read())
    source = cfg.options["term"]
    if os.path.isfile(source):
        with open(source, encoding="utf-8") as handle:
            source = handle.read()
    term = parse_term(source, sig)
    graph, report = reduction_graph(term, sig, node_cap=cfg.options["nodes"])
    if cfg.fmt == "graph":
        _emit(out, render_reduction_dot(graph))
    else:
        _emit(out, report.summary())
    return EXIT_CAP if report.truncated else EXIT_OK


def _cmd_yoneda(cfg: RunConfig, out) -> int:
    functor = load_functor(cfg.paths[0])
    if functor.target is not FINSET:
        raise FinCatError("yoneda needs a finite-set valued functor")
    require_functor(functor)
    category = functor.source
    probe = FinSetObj(("*",))
    code = EXIT_OK
    for anchor in sorted(category.objects):
        mapping, bij_report = yoneda_pointwise_bijection(
            category, functor, anchor, cap=cfg.cap
        )
        round_report = check_yoneda_roundtrips(
            HomContext(category, functor, probe, anchor), cap=cfg.cap
        )
        ok = bij_report.passed and round_report.passed
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
        if not ok:
            code = EXIT_CHECK_FAILED
    return code


def _cmd_kan(cfg: RunConfig, out) -> int:
    along = load_functor(cfg.paths[0])
    functor = load_functor(cfg.paths[1])
    rkan = right_kan(along, functor, cap=cfg.cap)
    lkan = left_kan(along, functor, cap=cfg.cap)
    for tag, kan in (("right", rkan), ("left", lkan)):
        sizes = ", ".join(
            f"{b}:{len(kan.object_map[b])}" for b in sorted(kan.source.objects)
        )
        _emit(out, f"{tag} kan sizes: {sizes}")
    code = EXIT_OK
    adjoint = check_kan_adjointness(along, lkan, functor, cap=cfg.cap)
    _emit(out, adjoint.summary())
    if not adjoint.passed:
        code = EXIT_CHECK_FAILED
    inclusion = counit_inclusion_check(along, functor, cap=cfg.cap)
    _emit(out, inclusion.summary())
    if not inclusion.passed:
        code = EXIT_CHECK_FAILED
    return code


def _cmd_adj(cfg: RunConfig, out) -> int:
    parts = load_adjunction_parts(cfg.paths[0])
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


def _corpus_checks(base: str, cap: int):
    """Yield (name, callable) pairs; each callable returns True on success."""
    fix = lambda *parts: os.path.join(base, *parts)

    def ok_category(path):
        return lambda: validate_category(load_category(path)).passed

    def bad_category(path):
        return lambda: not validate_category(load_category(path)).passed

    def ok_functor(path):
        return lambda: validate_functor(load_functor(path)).passed

    def bad_functor(path):
        return lambda: not validate_functor(load_functor(path)).passed

    for name in sorted(os.listdir(base)):
        if name.endswith(".fincat"):
            yield f"check-cat {name}", ok_category(fix(name))
        elif name.endswith(".fun"):
            yield f"check-fun {name}", ok_functor(fix(name))
        elif name.endswith(".nt"):
            yield f"check-nt {name}", (
                lambda path=fix(name): validate_nattrans(load_nattrans(path)).passed
            )

    broken = fix("broken")
    for name in sorted(os.listdir(broken)):
        path = os.path.join(broken, name)
        if name.endswith(".fincat"):
            yield f"expect-fail check-cat broken/{name}", bad_category(path)
        elif name.endswith(".fun"):
            yield f"expect-fail check-fun broken/{name}", bad_functor(path)
        elif name.endswith(".nt"):
            yield f"expect-fail check-nt broken/{name}", (
                lambda p=path: not validate_nattrans(load_nattrans(p)).passed
            )

    def eval_diagram(diag, model, expect):
        def check():
            ast = _load_diagram(fix(diag))
            spec = load_model_spec(fix("models", model))
            value, _trace = evaluate_quantified(ast, build_model(ast, spec), cap=cap)
            return value is expect

        return check

    def golden_context(diag, golden):
        def check():
            with open(fix("golden", golden), encoding="utf-8") as handle:
                want = handle.read()
            return elaborate_context(_load_diagram(fix(diag))) == want

        return check

    def golden_grid(diag, golden):
        def check():
            with open(fix("golden", golden), encoding="utf-8") as handle:
                want = handle.read()
            return render_grid(_load_diagram(fix(diag))) == want

        return check

    def stage_shape():
        stages = extract_stages(_load_diagram(fix("equalizer.diag")))
        return [s.quantifier for s in stages] == [
            None,
            "forall",
            "exists",
            "forall",
            "existsuniq",
        ]

    yield "stages equalizer.diag", stage_shape
    yield "eval equalizer @ chain2", eval_diagram(
        "equalizer.diag", "equalizer_chain2.model", True
    )
    yield "expect-false eval equalizer @ monoid", eval_diagram(
        "equalizer.diag", "equalizer_monoid.model", False
    )
    yield "eval universal_arrow @ galois", eval_diagram(
        "universal_arrow.diag", "universal_arrow_galois.model", True
    )
    yield "golden context universal_arrow", golden_context(
        "universal_arrow.diag", "universal_arrow.context.txt"
    )
    yield "golden context y0", golden_context("y0.diag", "y0.context.txt")
    yield "golden grid y0", golden_grid("y0.diag", "y0.grid.txt")

    def yoneda_counts():
        functor = load_functor(fix("f_kite.fun"))
        category = functor.source
        probe = FinSetObj(("*",))
        for anchor in category.objects:
            mapping, report = yoneda_pointwise_bijection(category, functor, anchor, cap)
            if not report.passed or len(mapping) != len(functor.object_map[anchor]):
                return False
            ctx = HomContext(category, functor, probe, anchor)
            if not check_yoneda_roundtrips(ctx, cap).passed:
                return False
        return True

    yield "yoneda f_kite.fun", yoneda_counts

    def kan_checks():
        along = load_functor(fix("incl_a4_b6.fun"))
        h = load_functor(fix("h_on_a.fun"))
        ga = load_functor(fix("g_on_a.fun"))
        gb = load_functor(fix("g_on_b.fun"))
        rkan = right_kan(along, h, cap)
        lkan = left_kan(along, ga, cap)
        if len(rkan.object_map["6"]) != 1 or len(lkan.object_map["1"]) != 0:
            return False
        if not check_kan_adjointness(along, gb, h, samples=[ga], cap=cap).passed:
            return False
        return counit_inclusion_check(along, h, cap).passed

    yield "kan incl_a4_b6 h_on_a", kan_checks

    def adj_verify(name, expect=True):
        def check():
            adj = assemble_adjunction(load_adjunction_parts(fix(name)))
            return verify_adjunction(adj).passed is expect

        return check

    yield "adj verify galois.adj", adj_verify("galois.adj")
    yield "adj build galois_build.adj", adj_verify("galois_build.adj")
    yield "expect-fail adj verify monoid_bad_counit.adj", adj_verify(
        "monoid_bad_counit.adj", expect=False
    )

    def infer_pairing():
        ctx = parse_context("{f: A'->A}")
        terms = infer_inhabitants(ctx, parse_type("A'*B -> A*B"), 6)
        return "\\x1:A' * B. (f (p1 x1), p2 x1)" in [canonical_print(t) for t in terms]

    def infer_identity():
        terms = infer_inhabitants((), parse_type("A -> A"), 6)
        return [canonical_print(t) for t in terms] == ["\\x1:A. x1"]

    yield "infer pairing term", infer_pairing
    yield "infer identity term", infer_identity

    def reduce_square():
        with open(fix("arith.sig"), encoding="utf-8") as handle:
            sig = parse_signature(handle.read())
        term = parse_term("g (2 + 3)", sig)
        _graph, report = reduction_graph(term, sig)
        return (
            report.terminating is True
            and report.unique_nf is True
            and report.locally_confluent_on_graph is True
            and report.normal_forms == ("29",)
        )

    yield "reduce g(2+3) -> 29", reduce_square


def _cmd_examples(cfg: RunConfig, out) -> int:
    base = corpus_dir()
    failures = 0
    total = 0
    for name, check in _corpus_checks(base, cfg.cap):
        total += 1
        try:
            good = check()
        except Exception as exc:  # a corpus entry must never raise
            good = False
            _emit(out, f"[FAIL] {name}  error: {exc}")
            failures += 1
            continue
        _emit(out, f"[{'ok' if good else 'FAIL'}] {name}")
        if not good:
            failures += 1
    _emit(out, f"corpus: {total - failures}/{total} ok")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # force exit code 2 with a clean message
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fincat", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="<command>")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP, metavar="N")
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("report", "context", "graph"),
            default=None,
        )
        return p

    add("check-cat", "check the category laws of a .fincat file").add_argument("path")
    add("check-fun", "check the functor laws of a .fun file").add_argument("path")
    add("check-nt", "check naturality of a .nt file").add_argument("path")
    add("stages", "print the quantifier stages of a .diag file").add_argument("path")
    p = add("eval", "evaluate a quantified diagram in a model")
    p.add_argument("path")
    p.add_argument("--model", required=True, metavar="M")
    add("context", "print the elaborated context of a .diag file").add_argument("path")
    p = add("infer", "search for terms inhabiting a type")
    p.add_argument("context", help="hypotheses, e.g. \"{f: A'->A}\"")
    p.add_argument("type", help="goal type, e.g. \"A'*B -> A*B\"")
    p.add_argument("--depth", type=int, default=6)
    p = add("reduce", "explore the reduction graph of a term")
    p.add_argument("term", help="term text or path to a term file")
    p.add_argument("--sig", metavar="S", help="constant signature file")
    p.add_argument("--nodes", type=int, default=DEFAULT_NODE_CAP, metavar="N")
    p = add("yoneda", "bijection and round-trip checks for a set-valued functor")
    p.add_argument("path")
    p = add("kan", "Kan extensions of a set-valued functor along a functor")
    p.add_argument("along", help=".fun file between table categories")
    p.add_argument("functor", help="set-valued .fun file on the source")
    p = add("adj", "verify or complete an adjunction manifest")
    p.add_argument("mode", choices=("verify", "build"))
    p.add_argument("path")
    add("examples", "run every bundled fixture and print a summary table")
    return parser


_DEFAULT_FMT = {"context": "context", "stages": "report", "reduce": "report"}

_COMMANDS = {
    "check-cat": _cmd_check_cat,
    "check-fun": _cmd_check_fun,
    "check-nt": _cmd_check_nt,
    "stages": _cmd_stages,
    "context": _cmd_context,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
    "reduce": _cmd_reduce,
    "yoneda": _cmd_yoneda,
    "kan": _cmd_kan,
    "adj": _cmd_adj,
    "examples": _cmd_examples,
}


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
    return RunConfig(
        subcommand=args.subcommand,
        paths=tuple(paths),
        cap=args.cap,
        fmt=fmt,
        options=options,
    )


def run(argv, out=None) -> int:
    """Execute one invocation; returns the exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise _UsageError("a subcommand is required")
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.subcommand](cfg, out)
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
    except OSError as exc:
        _emit(out, f"usage error: {exc}")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    main()
