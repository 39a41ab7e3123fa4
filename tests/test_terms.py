"""Typed term language: parsing, inference, delta rules, reduction graphs."""

import collections
import copy
import io
import itertools
import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fincat import terms
from fincat.cli import render_reduction_dot, run
from fincat.terms import (
    NAT,
    App,
    Const,
    Lam,
    Pair,
    Proj,
    Signature,
    TermParseError,
    TermTypeError,
    TyArrow,
    TyAtom,
    TyProd,
    Tm,
    Var,
    canonical_print,
    curry_howard_translate,
    infer_inhabitants,
    inhabitant_texts,
    parse_context,
    parse_signature,
    parse_term,
    parse_type,
    print_term,
    print_type,
    reduction_graph,
    term_sort_key,
    typecheck,
)

from helpers import one_step_reductions
from oracles import (
    brute_inhabitants,
    goal_types,
    keyed_reductions,
    print_keyed_inhabitants,
    rebuilding_canonical_print,
    rebuilding_print_term,
    rebuilding_reduction_graph,
    rebuilding_sort_key,
)


def _read(fix, name):
    with open(fix(name), encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------


def test_type_parser_precedence():
    assert parse_type("A -> B -> C") == parse_type("A -> (B -> C)")
    assert parse_type("A * B -> C") == TyArrow(
        TyProd(TyAtom("A"), TyAtom("B")), TyAtom("C")
    )
    assert print_type(parse_type("(A -> B) * C")) == "(A -> B) * C"


def test_term_parser_shapes():
    t = parse_term("\\x:A. \\y:B. (x, p1 (y, x))")
    assert isinstance(t, Lam) and isinstance(t.body, Lam)
    assert print_term(parse_term("f a b")) == "f a b"  # application associates left


def test_parse_errors_carry_positions():
    with pytest.raises(TermParseError) as err:
        parse_type("A -> ")
    assert err.value.line == 1

    with pytest.raises(TermParseError):
        parse_term("\\x. x")  # missing annotation


atom_types = st.sampled_from([TyAtom("A"), TyAtom("B")])
types = st.recursive(
    atom_types,
    lambda inner: st.builds(TyArrow, inner, inner) | st.builds(TyProd, inner, inner),
    max_leaves=4,
)


@st.composite
def closed_terms(draw, depth=4):
    env: list[tuple[str, object]] = []

    def go(d):
        choices = ["lam"]
        if env:
            choices += ["var", "var"]
        if d > 1:
            choices += ["app", "pair", "proj"]
        kind = draw(st.sampled_from(choices))
        if kind == "var":
            name, _ = draw(st.sampled_from(env))
            return Var(name)
        if kind == "lam":
            name = f"x{len(env) + 1}"
            ty = draw(types)
            env.append((name, ty))
            body = go(d - 1) if d > 1 else Var(name)
            env.pop()
            return Lam(name, ty, body)
        if kind == "app":
            return App(go(d - 1), go(d - 1))
        if kind == "pair":
            return Pair(go(d - 1), go(d - 1))
        return Proj(draw(st.sampled_from([1, 2])), go(d - 1))

    return go(depth)


@given(closed_terms())
@settings(max_examples=120, deadline=None)
def test_print_parse_roundtrip(term):
    assert parse_term(print_term(term)) == term


def test_canonical_print_is_alpha_invariant():
    left = parse_term("\\u:A. \\v:A. u")
    right = parse_term("\\a:A. \\b:A. a")
    assert canonical_print(left) == canonical_print(right) == "\\x1:A. \\x2:A. x1"


# Binder names that shadow each other and the free names; free names that
# are, or are primed like, the canonical binder names.
_BINDERS = ("x", "y", "x1", "x2", "f")
_FREE = ("x1", "x1'", "x2", "x3")
_ANNOTATIONS = (NAT, TyAtom("A"), TyArrow(NAT, NAT), TyProd(NAT, TyAtom("A")))


def _random_term(rng, depth, bound):
    kind = rng.randrange(9) if depth > 0 else rng.randrange(3)
    if kind == 0:
        return Var(rng.choice(bound + list(_FREE)))
    if kind == 1:
        return Var(rng.choice(bound)) if bound else Const(rng.choice(("1", "2")))
    if kind == 2:
        return Const(rng.choice(("1", "2", "+", "*")))
    if kind in (3, 4):
        name = rng.choice(_BINDERS)
        body = _random_term(rng, depth - 1, bound + [name])
        return Lam(name, rng.choice(_ANNOTATIONS), body)
    left, right = _random_term(rng, depth - 1, bound), _random_term(rng, depth - 1, bound)
    if kind == 5:
        return App(left, right)
    if kind == 6:
        return App(App(Const(rng.choice(("+", "*"))), left), right)
    if kind == 7:
        return Pair(left, right)
    return Proj(rng.choice((1, 2)), left)


def test_one_pass_printers_match_the_rebuilding_printers():
    rng = random.Random(2006)
    primed = infix = 0
    for _ in range(4000):
        t = _random_term(rng, 5, [])
        text = canonical_print(t)
        assert text == rebuilding_canonical_print(t), print_term(t)
        assert canonical_print(t) is text
        assert print_term(t) == rebuilding_print_term(t)
        assert term_sort_key(t) == rebuilding_sort_key(t)
        primed += bool(re.search(r"\\x[0-9]+'", text))
        infix += " + " in text or " * " in text
    # the family reaches the second, primed pass and the infix printer
    assert primed > 100 and infix > 1000, (primed, infix)


# ---------------------------------------------------------------------------
# Type checking and the propositional reading
# ---------------------------------------------------------------------------


def test_typecheck_products_and_failures():
    ty = typecheck(parse_term("\\p:A*B. (p2 p, p1 p)"), ())
    assert print_type(ty) == "A * B -> B * A"
    with pytest.raises(TermTypeError):
        typecheck(parse_term("\\x:A. x x"), ())


def test_curry_howard_reading():
    assert curry_howard_translate(parse_type("A -> A")) == "P → P"
    ctx = parse_context("{f: A'->A}")
    text = curry_howard_translate(parse_type("A'*B -> A*B"), ctx)
    assert text == "P∧R → Q∧R from P→Q"


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def test_inference_reproduces_the_pairing_term():
    ctx = parse_context("{f: A'->A}")
    goal = parse_type("A'*B -> A*B")
    started = time.monotonic()
    terms = infer_inhabitants(ctx, goal, 6)
    assert time.monotonic() - started < 1.0
    prints = [canonical_print(t) for t in terms]
    assert "\\x1:A' * B. (f (p1 x1), p2 x1)" in prints


def test_identity_goal_has_exactly_one_inhabitant():
    terms = infer_inhabitants((), parse_type("A -> A"), 6)
    assert [canonical_print(t) for t in terms] == ["\\x1:A. x1"]


def test_uninhabited_goal_yields_nothing():
    assert infer_inhabitants((), parse_type("A -> B"), 5) == []


@given(st.sampled_from(goal_types(["A", "B"], 2)), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_inferred_terms_typecheck_and_are_normal(goal, depth):
    for term in infer_inhabitants((), goal, depth):
        assert typecheck(term, ()) == goal
        assert one_step_reductions(term) == []


def test_inference_matches_brute_force_oracle():
    for goal in goal_types(["A", "B"], 2):
        got = sorted(canonical_print(t) for t in infer_inhabitants((), goal, 4))
        assert got == brute_inhabitants((), goal, 4), print_type(goal)


# Contexts whose neutral slots for T are first met one height low (through
# the application or projection of a type printed before T's own use as an
# argument) and then asked again at full height.
REASKED_SLOT_CONTEXTS = [
    "{g: (Z -> (D -> E) -> A) -> A, k: Z -> (D -> E) -> A, m: Y -> Z -> (D -> E) -> A, y: Y}",
    "{g: W * (B -> A) -> A, s: B -> A, m: Y -> W * (B -> A), y: Y}",
]


def test_inference_with_hypotheses_matches_oracle():
    ctx = tuple(parse_context("{f: A->B, p: A*A}"))
    for goal in goal_types(["A", "B"], 1):
        got = sorted(canonical_print(t) for t in infer_inhabitants(ctx, goal, 4))
        assert got == brute_inhabitants(ctx, goal, 4), print_type(goal)
    for ctx_text in REASKED_SLOT_CONTEXTS:
        ctx = tuple(parse_context(ctx_text))
        for depth in (3, 4):
            got = sorted(canonical_print(t) for t in infer_inhabitants(ctx, TyAtom("A"), depth))
            assert got == brute_inhabitants(ctx, TyAtom("A"), depth), (ctx_text, depth)


# (context, goal, deepest bound): the benchmark's endo, pair and round-trip
# families, classic tautologies, hypotheses named like search binders, and
# slots asked again at a greater height
PRINT_KEYED_GOALS = [
    ("{f: A->A}", "A->A", 8),
    ("{f: A->A, g: A->A}", "A->A", 7),
    ("{f: A->A, g: A->A, h: A->A}", "A->A", 6),
    ("{a: A, f: A->A}", "A*A", 6),
    ("{a: A, f: A->A, g: A->A}", "A*A", 5),
    ("{f: A->B, g: B->A}", "A->A", 8),
    ("{}", "((A->B)->A)->A", 6),
    ("{}", "(A*B->C)->A->B->C", 6),
    ("{}", "(A->B->C)->A*B->C", 6),
    ("{}", "(A->B)->(B->C)->A->C", 6),
    ("{}", "(A->A)->A->A", 6),
    ("{}", "A*(B*C)->(A*B)*C", 6),
    ("{x1: A, x2: A->A}", "A->A", 6),
    ("{x1: A, x2: A->A}", "(A->A)->A*A", 6),
    ("{x2: A, f: A->A}", "A->A", 6),
    ("{x2: A, f: A->A}", "(A->A)->A", 6),
    ("{x2: A}", "A->A->A", 6),
    ("{f: A->A, x3: A}", "A->A", 6),
    ("{x1: A, x1': A}", "A->A->A", 5),
    *((ctx, "A", 5) for ctx in REASKED_SLOT_CONTEXTS),
    ("{h: B * (A * C) * (B * (A * C) -> A), g: B -> B, x2: B * (A * C)}", "A", 5),
]


@pytest.mark.parametrize("ctx_text, goal_text, deepest", PRINT_KEYED_GOALS)
def test_inference_matches_print_keyed_search_in_order(ctx_text, goal_text, deepest):
    ctx = parse_context(ctx_text)
    goal = parse_type(goal_text)
    for depth in range(1, deepest + 1):
        got = [canonical_print(t) for t in infer_inhabitants(ctx, goal, depth)]
        want = [rebuilding_canonical_print(t) for t in print_keyed_inhabitants(ctx, goal, depth)]
        assert got == want, (ctx_text, goal_text, depth)
        assert len(set(got)) == len(got), (ctx_text, goal_text, depth)
        assert inhabitant_texts(ctx, goal, depth) == got, (ctx_text, goal_text, depth)


def test_terms_copy_and_pickle_with_their_caches_refilled():
    term = parse_term("\\x:A. (x, p1 (x, \\x1:A. x1))")
    canonical_print(term)
    for twin in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert twin == term and hash(twin) == hash(term)
        assert canonical_print(twin) == canonical_print(term)


def test_no_hash_walks_a_whole_term(monkeypatch):
    calls = [0]
    for cls in (Var, Const, Lam, App, Pair, Proj):

        def counted(self, original=cls.__hash__):
            calls[0] += 1
            return original(self)

        monkeypatch.setattr(cls, "__hash__", counted)
    ctx = parse_context("{f: A->A, x: A}")
    counts = []
    for depth in (60, 120):
        calls[0] = 0
        found = infer_inhabitants(ctx, TyAtom("A"), depth)
        assert len(found) == depth
        set(found)
        counts.append(calls[0])
    # Each node takes its hash when it is built, from its children's cached
    # hashes, and the search builds one node per height here; the set hashes
    # each inhabitant, the deepest of depth nodes, once: doubling the depth
    # doubles the hash calls.  A hash that walked its term would multiply
    # them by 4.
    assert counts[1] / counts[0] < 2.2, counts


def _record_constructions(monkeypatch):
    built = []
    for cls in (Var, Const, Lam, App, Pair, Proj):

        def recorded(self, *fields, init=cls.__init__):
            init(self, *fields)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", recorded)
    return built


def test_node_constructions_grow_linearly_with_depth(monkeypatch):
    built = _record_constructions(monkeypatch)
    ctx = parse_context("{f: A->A, x: A}")
    counts = []
    for depth in (200, 400):
        built.clear()
        assert len(infer_inhabitants(ctx, TyAtom("A"), depth)) == depth
        counts.append(len(built))
    # the two hypotheses and one application per height: no term is built
    # again for each bound above its height
    assert counts == [201, 401]


def test_a_search_stops_at_the_first_height_that_adds_nothing(monkeypatch):
    heights = []
    for name in ("_neutral_level", "_every_level"):

        def recorded(self, parts, height, _level=getattr(terms._Search, name)):
            heights.append(height)
            return _level(self, parts, height)

        monkeypatch.setattr(terms._Search, name, recorded)
    found = infer_inhabitants(parse_context("{f: A->B}"), parse_type("A->B"), 10**6)
    assert [canonical_print(t) for t in found] == ["f", "\\x1:A. f x1"]
    # f at height 1, f x1 at 2 and its abstraction at 3; height 4 adds nothing
    assert max(heights) == 4


@pytest.mark.parametrize("ctx_text, goal_text, deepest", PRINT_KEYED_GOALS)
def test_the_search_builds_no_node_twice(ctx_text, goal_text, deepest, monkeypatch):
    built = _record_constructions(monkeypatch)
    infer_inhabitants(parse_context(ctx_text), parse_type(goal_text), deepest)
    assert len(set(built)) == len(built)


@pytest.mark.parametrize("ctx_text, goal_text, deepest", PRINT_KEYED_GOALS)
def test_the_infer_command_builds_no_term(ctx_text, goal_text, deepest, monkeypatch):
    built = _record_constructions(monkeypatch)
    out = io.StringIO()
    assert run(["infer", ctx_text, goal_text, "--depth", str(deepest)], out=out) == 0
    assert built == []
    texts = inhabitant_texts(parse_context(ctx_text), parse_type(goal_text), deepest)
    assert out.getvalue().splitlines()[2:] == texts


# (golden name, argv): the goals and terms of the CI hash-seed step
INFER_GOLDEN = [
    ("peirce", "{}", "((A->B)->A)->A"),
    ("curry", "{}", "(A*B->C)->A->B->C"),
    ("endo_fg", "{f: A->A, g: A->A}", "A->A"),
    ("pair", "{a: A, f: A->A}", "A*A"),
    ("round_trip", "{f: A->B, g: B->A}", "A->A"),
    ("x1_x2", "{x1: A, x2: A->A}", "A->A"),
    ("x2_f", "{x2: A, f: A->A}", "(A->A)->A"),
    ("x2", "{x2: A}", "A->A->A"),
]
REDUCE_GOLDEN = [
    ("g_sum", "g (2 + 3)", "arith.sig"),
    ("g_plus_g", "(g 1) + (g 2)", "arith.sig"),
    ("g_g_sum", "g (g (1 + 2))", "arith.sig"),
    ("beta_sum", "(\\x:N. \\y:N. x + y) 1 2", None),
    ("twice", "(\\f:N->N. \\x:N. f (f x)) (\\x:N. x * 2)", None),
    ("proj", "p1 ((\\x:N. x) 1, 2 + 3)", None),
    ("pair_binder", "(\\x:N. (x, \\x1:N. x)) (1 + 2)", None),
    ("capture", "\\y:N. (\\x:N. \\y:N. x) y", None),
]


def _golden(fix, name, argv):
    out = io.StringIO()
    code = run(argv, out=out)
    text = re.sub(r"\[[0-9]+\.[0-9]+s\]", "[time]", out.getvalue())
    with open(fix("golden", f"{name}.txt"), encoding="utf-8") as handle:
        assert text + f"exit {code}\n" == handle.read()


@pytest.mark.parametrize("name, ctx_text, goal_text", INFER_GOLDEN)
def test_infer_matches_golden(fix, name, ctx_text, goal_text):
    """Standard output, timer masked, and exit code of ``infer`` at depth 7,
    as the command printed them when it built and printed every term."""
    _golden(fix, f"infer_{name}", ["infer", ctx_text, goal_text, "--depth", "7"])


@pytest.mark.parametrize("name, text, sig_name", REDUCE_GOLDEN)
def test_reduce_matches_golden(fix, name, text, sig_name):
    """Standard output and exit code of ``reduce``, as a report and as a
    graph, as the command printed them when it scanned every graph for
    local confluence."""
    argv = ["reduce", text] + (["--sig", fix(sig_name)] if sig_name else [])
    _golden(fix, f"reduce_{name}", argv)
    _golden(fix, f"reduce_{name}.graph", argv + ["--format", "graph"])


# ---------------------------------------------------------------------------
# Signatures, delta rules, reduction graphs
# ---------------------------------------------------------------------------


def test_signature_parsing_and_rule_typing(fix):
    sig = parse_signature(_read(fix, "arith.sig"))
    assert print_type(sig.constant_type("g")) == "N -> N"
    term = parse_term("g (2 + 3)", sig)
    assert print_type(typecheck(term, (), sig)) == "N"


def test_rule_pattern_variables_match_arbitrary_terms(fix):
    sig = parse_signature(_read(fix, "arith.sig"))
    succ = one_step_reductions(parse_term("g (2 + 3)", sig), sig)
    prints = sorted(canonical_print(t) for t in succ)
    # the rule fires on the unevaluated argument AND the argument can step
    assert prints == ["(2 + 3) * (2 + 3) + 4", "g 5"]


def test_reduction_graph_of_squaring_fixture(fix):
    sig = parse_signature(_read(fix, "arith.sig"))
    graph, report = reduction_graph(parse_term("g (2 + 3)", sig), sig)
    assert report.node_count == 8
    assert report.normal_forms == ("29",)
    assert report.terminating is True
    assert report.unique_nf is True
    assert report.locally_confluent_on_graph is True
    assert graph.root == "g (2 + 3)"


def test_partial_rules_leave_stuck_terms_normal(fix):
    sig = parse_signature(_read(fix, "sqrt.sig"))
    _, report_hit = reduction_graph(parse_term("sqrt 4", sig), sig)
    assert report_hit.normal_forms == ("2",)
    _, report_miss = reduction_graph(parse_term("sqrt 3", sig), sig)
    assert report_miss.normal_forms == ("sqrt 3",)


def test_graph_truncation_is_flagged_not_silent(fix):
    sig = parse_signature(_read(fix, "arith.sig"))
    graph, report = reduction_graph(parse_term("g (2 + 3)", sig), sig, node_cap=3)
    assert report.truncated
    assert graph.truncated
    assert report.terminating is None
    assert report.unique_nf is None


# contracting the redex substitutes y under a binder named y
CAPTURE_TERM = "\\y:N. (\\x:N. \\y:N. x) y"
BINDER_TERMS = [
    "(\\x:N. \\y:N. x + y) 1 2",
    "(\\f:N->N. \\x:N. f (f x)) (\\x:N. x * 2)",
    "p1 ((\\x:N. x) 1, 2 + 3)",
    "(\\x:N. (x, \\x1:N. x)) (1 + 2)",
    CAPTURE_TERM,
]
# the benchmark's nested g / + shapes over arith.sig
ARITH_TERMS = ["g (g (5 + 1))", "(g 2) + (g 3)", "g (1 + (2 + 3))"]
REDUCE_CASES = [(text, None) for text in BINDER_TERMS] + [(text, "arith.sig") for text in ARITH_TERMS]


def test_beta_reduction_renames_the_binder_it_would_capture():
    """Without the renaming the normal form would be \\x1:N. \\x2:N. x2."""
    _graph, report = reduction_graph(parse_term(CAPTURE_TERM))
    assert report.normal_forms == ("\\x1:N. \\x2:N. x1",)


@pytest.mark.parametrize("text, sig_name", REDUCE_CASES)
def test_reduce_matches_the_rebuilding_graph_in_order(text, sig_name, fix):
    sig = parse_signature(_read(fix, sig_name)) if sig_name else None
    sig_argv = ["--sig", fix(sig_name)] if sig_name else []
    term = parse_term(text, sig)
    graph, report = reduction_graph(term, sig)
    want_graph, want_report = rebuilding_reduction_graph(term, sig)
    assert list(graph.nodes) == list(want_graph.nodes)
    assert list(graph.edges.items()) == list(want_graph.edges.items())
    assert (graph.root, graph.normal_forms, graph.truncated) == (
        want_graph.root,
        want_graph.normal_forms,
        want_graph.truncated,
    )
    assert report == want_report
    for node in graph.nodes.values():
        got = [canonical_print(t) for t in one_step_reductions(node, sig)]
        assert got == [key for key, _ in keyed_reductions(node, sig)]
    renderings = [([], want_report.summary() + "\n")]
    renderings.append((["--format", "graph"], render_reduction_dot(want_graph)))
    for argv, want in renderings:
        out = io.StringIO()
        assert run(["reduce", text] + sig_argv + argv, out=out) == 0
        assert out.getvalue() == want


def _subterms(t):
    """Every subterm of ``t``, ``t`` included, as a set of values."""
    seen = set()
    stack = [t]
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            stack.extend(c for c in (getattr(t, name) for name in t._fields) if isinstance(c, Tm))
    return seen


@pytest.mark.parametrize("text, sig_name", REDUCE_CASES)
def test_contractions_run_once_per_distinct_subterm_of_a_graph(text, sig_name, fix, monkeypatch):
    import fincat.terms

    sig = parse_signature(_read(fix, sig_name)) if sig_name else None
    seen = []
    contract = fincat.terms._contractions_at

    def counted(t, s):
        seen.append(t)
        return contract(t, s)

    monkeypatch.setattr(fincat.terms, "_contractions_at", counted)
    graph, report = reduction_graph(parse_term(text, sig), sig)
    assert not report.truncated
    subterms = set().union(*(_subterms(t) for t in graph.nodes.values()))
    assert len(seen) == len(subterms)
    assert set(seen) == subterms


@pytest.mark.parametrize("text, sig_name", REDUCE_CASES)
def test_each_subterm_outside_binders_is_typed_once_per_graph(text, sig_name, fix, monkeypatch):
    """A graph types each distinct compound subterm outside every binder
    once, the root and every node among them, and no term under a binder
    is looked up in its memo."""
    import fincat.terms

    sig = parse_signature(_read(fix, sig_name)) if sig_name else None
    typed = []
    check = fincat.terms._typecheck

    def counted(t, env, s, memo=None):
        if memo is not None:
            assert not env
            if t not in memo and not isinstance(t, (Var, Const)):
                typed.append(t)
        return check(t, env, s, memo)

    monkeypatch.setattr(fincat.terms, "_typecheck", counted)
    graph, report = reduction_graph(parse_term(text, sig), sig)
    assert not report.truncated
    assert len(typed) == len(set(typed))
    assert {t for t in graph.nodes.values() if not isinstance(t, Const)} <= set(typed)


# h has two rules that disagree, and loop steps to itself
FORKING_SIG = "h : N -> N\nrule h(a) = a + 1\nrule h(a) = a * 2\n"
LOOPING_SIG = "loop : N -> N\nrule loop(a) = loop(a)\n"


# (signature, term, (normal forms, terminating, unique, locally confluent))
FORKS_AND_LOOPS = [
    (FORKING_SIG, "h 0", (("0", "1"), True, False, False)),
    (FORKING_SIG, "h 1", (("2",), True, True, True)),
    (LOOPING_SIG, "loop 1", ((), False, False, True)),
    (FORKING_SIG + LOOPING_SIG, "h (loop 0)", ((), False, False, False)),
]


@pytest.mark.parametrize("sig_text, text, flags", FORKS_AND_LOOPS)
def test_reduce_reports_forks_and_loops_like_the_oracle(sig_text, text, flags, tmp_path):
    path = tmp_path / "rules.sig"
    path.write_text(sig_text, encoding="utf-8")
    sig = parse_signature(sig_text)
    _, want = rebuilding_reduction_graph(parse_term(text, sig), sig)
    assert (want.normal_forms, want.terminating, want.unique_nf, want.locally_confluent_on_graph) == flags
    out = io.StringIO()
    assert run(["reduce", text, "--sig", str(path)], out=out) == 0
    assert out.getvalue() == want.summary() + "\n"


def _random_rule_term(rng, depth):
    """A term over numerals, ``+``, the forking ``h``, the looping ``loop``
    and a redex that copies its argument."""
    pick = rng.randrange(6 if depth else 1)
    if pick == 0:
        return str(rng.randrange(2))
    a, b = (_random_rule_term(rng, depth - 1) for _ in range(2))
    return (f"h ({a})", f"h ({a})", f"({a}) + ({b})", f"(\\x:N. x + x) ({a})", f"loop ({a})")[pick - 1]


def test_reduction_flags_match_the_oracle_on_seeded_terms():
    """On terminating graphs local confluence is read off the normal forms
    (Newman's lemma); the oracle checks every fork and finds cycles its own
    way."""
    # loop 0 may also stop at 0: a cycle beside one normal form
    sig = parse_signature(FORKING_SIG + LOOPING_SIG + "rule loop(0) = 0\n")
    rng = random.Random(35)
    kinds = collections.Counter()
    for _ in range(240):
        term = parse_term(_random_rule_term(rng, 2), sig)
        _, report = reduction_graph(term, sig)
        _, want = rebuilding_reduction_graph(term, sig)
        assert report == want, canonical_print(term)
        kinds[(report.terminating, report.unique_nf)] += 1
    # terminating or cyclic, with one normal form or not
    assert min(kinds[flags] for flags in itertools.product((True, False), repeat=2)) >= 10, kinds


def test_subject_reduction_violation_raises(fix, monkeypatch):
    import fincat.terms

    sig = parse_signature(_read(fix, "arith.sig"))
    ill_typed = Lam("x", TyAtom("A"), Var("x"))
    # the whole term contracts to the ill-typed one, no subterm contracts
    monkeypatch.setattr(
        fincat.terms, "_contractions_at", lambda t, s: [ill_typed] if print_term(t) == "2 + 3" else []
    )
    with pytest.raises(RuntimeError, match="subject reduction violated"):
        reduction_graph(parse_term("2 + 3", sig), sig)


def test_malformed_rule_is_rejected():
    with pytest.raises(Exception):
        parse_signature("g : N -> N\nrule g(a) = b\n")  # unbound right-hand side
