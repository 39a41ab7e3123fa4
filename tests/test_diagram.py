"""Diagram DSL: parsing, staging, model evaluation, context elaboration."""

import collections
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fincat import diagram
from fincat.diagram import (
    Arrow,
    DiagramAst,
    DiagramError,
    DiagramParseError,
    FunctorDecl,
    LayerDecl,
    Node,
    NonCommute,
    build_model,
    check_commutativity,
    elaborate_context,
    evaluate_quantified,
    expand_annotation,
    expand_macros,
    extract_stages,
    parse_diagram,
    render_grid,
    validate_diagram,
)
from fincat.cli import _load_diagram
from fincat.files import load_model_spec
from fincat.finset import CapExceededError
from helpers import print_diagram
from oracles import erasing_stages, inline_grid, pairwise_stage_equations, three_pass_context


def _load(fix, name):
    with open(fix(name), encoding="utf-8") as handle:
        return parse_diagram(handle.read())


def _golden(fix, name):
    with open(fix("golden", name), encoding="utf-8") as handle:
        return handle.read()


DIAGRAMS = ["universal_arrow.diag", "equalizer.diag", "y0.diag", "univ_macro.diag"]


# ---------------------------------------------------------------------------
# Parsing, printing, validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", DIAGRAMS)
def test_print_parse_roundtrip_on_fixtures(fix, name):
    ast = _load(fix, name)
    assert parse_diagram(print_diagram(ast)) == ast


def test_parse_error_reports_line():
    with pytest.raises(DiagramParseError) as err:
        parse_diagram("layer L in P\nnode x L\n")
    assert err.value.line == 2


def test_bare_exists_needs_a_stage_number():
    text = 'layer L in P\nnode x : L "x" @exists\n'
    with pytest.raises(DiagramParseError):
        parse_diagram(text)


def test_bare_forall_and_existsuniq_default_stages():
    text = (
        "layer L in P\n"
        'node x : L "x" @forall\n'
        'node y : L "y" @existsuniq\n'
    )
    ast = parse_diagram(text)
    assert ast.nodes()["x"].stage == 1
    assert ast.nodes()["y"].stage == 2


def test_stage_numbers_must_be_contiguous_with_one_quantifier_each():
    base = "layer L in P\n"
    with pytest.raises(DiagramError):
        validate_diagram(parse_diagram(base + 'node x : L "x" @forall(2)\n'))
    mixed = base + 'node x : L "x" @forall(1)\nnode y : L "y" @exists(1)\n'
    with pytest.raises(DiagramError):
        validate_diagram(parse_diagram(mixed))


def test_value_carrying_arrows_reject_stage_annotations():
    base = 'layer L in P\nnode x : L "x"\nnode y : L "y"\n'
    with pytest.raises(DiagramParseError):
        parse_diagram(base + 'arrow m : x |-> y "m" @exists(1)\n')
    with pytest.raises(DiagramParseError):
        parse_diagram(base + 'arrow b : x <-> y "b" @forall(1)\n')


def test_mapsto_targets_cannot_be_quantified():
    text = (
        "layer L in P\nlayer M in Q\n"
        'node x : L "x"\n'
        'node y : M "y" @exists(1)\n'
        'arrow m : x |-> y "m"\n'
    )
    with pytest.raises(DiagramError):
        validate_diagram(parse_diagram(text))


def test_noncommute_paths_must_share_endpoints():
    text = (
        "layer L in P\n"
        'node x : L "x"\nnode y : L "y"\nnode z : L "z"\n'
        'arrow f : x -> y "f"\narrow g : x -> z "g"\n'
        "noncommute f ; g\n"
    )
    with pytest.raises(DiagramError):
        validate_diagram(parse_diagram(text))


@st.composite
def small_diagrams(draw):
    lines = ["layer L in P", "layer M in Q"]
    node_count = draw(st.integers(min_value=1, max_value=4))
    names = [f"n{i}" for i in range(node_count)]
    layer_of = {}
    for name in names:
        layer = draw(st.sampled_from(["L", "M"]))
        layer_of[name] = layer
        lines.append(f'node {name} : {layer} "{name}"')
    arrows = 0
    stage_one = False
    for i in range(node_count):
        for j in range(i + 1, node_count):
            if layer_of[names[i]] == layer_of[names[j]] and draw(st.booleans()):
                suffix = ""
                if not stage_one and draw(st.booleans()):
                    suffix = " @forall(1)"
                    stage_one = True
                lines.append(f'arrow a{arrows} : {names[i]} -> {names[j]} "a{arrows}"{suffix}')
                arrows += 1
    return "\n".join(lines) + "\n"


@given(small_diagrams())
@settings(max_examples=60, deadline=None)
def test_print_parse_roundtrip_on_generated_diagrams(text):
    ast = parse_diagram(text)
    validate_diagram(ast)
    assert parse_diagram(print_diagram(ast)) == ast
    for stage in extract_stages(ast):
        validate_diagram(stage.diagram)


# ---------------------------------------------------------------------------
# Stage extraction
# ---------------------------------------------------------------------------


def test_equalizer_stage_shape(fix):
    stages = extract_stages(_load(fix, "equalizer.diag"))
    assert [s.quantifier for s in stages] == [
        None,
        "forall",
        "exists",
        "forall",
        "existsuniq",
    ]
    assert [s.counts() for s in stages] == [(0, 0), (2, 2), (3, 3), (4, 4), (4, 5)]
    assert stages[1].new_elements == ("X", "Y", "f", "g")


def test_universal_arrow_stage_shape(fix):
    stages = extract_stages(_load(fix, "universal_arrow.diag"))
    assert [s.quantifier for s in stages] == [None, "forall", "existsuniq"]
    assert [s.counts() for s in stages] == [(3, 2), (5, 4), (5, 7)]


def test_each_stage_is_itself_a_valid_diagram(fix):
    """extract_stages checks only the whole diagram: no element outlives
    what it depends on, so every stage is well formed, macro-expanded or not."""
    for name in DIAGRAMS:
        for ast in (_load(fix, name), _load_diagram(fix(name))):
            for stage in extract_stages(ast):
                validate_diagram(stage.diagram)  # must not raise


def test_erasure_cannot_orphan_an_earlier_stage_element(fix):
    text = (
        "layer L in P\n"
        'node x : L "x"\n'
        'node y : L "y" @exists(2)\n'
        'arrow f : x -> y "f" @forall(1)\n'
    )
    with pytest.raises(DiagramError) as err:
        extract_stages(parse_diagram(text))
    assert str(err.value) == "element 'f' at stage 1 depends on a stage-2 element"


def _random_stageable_diagram(rng) -> DiagramAst:
    """Two to four nodes over two layers, joined by hom arrows (now and then
    one between functor declarations) and by |-> arrows between nodes and
    between hom arrows, in a shuffled declaration order.  Nodes and hom
    arrows that are not |-> targets are annotated in up to three stages, at
    random, so some depend on a later stage than their own; a noncommute
    line exempts a parallel pair of paths now and then."""
    names = [f"n{i}" for i in range(rng.randint(2, 4))]
    layer = {n: rng.choice("LM") for n in names}
    homs = []
    for i in range(rng.randint(1, 5)):
        src = rng.choice(names)
        dst = rng.choice([n for n in names if layer[n] == layer[src]])
        homs.append((f"h{i}", "hom", src, dst))
    if rng.random() < 0.2:
        homs.append(("t", "hom", "F", "G"))
    maps = []
    for i in range(rng.randint(0, 3)):
        pool = names if rng.random() < 0.5 else [h[0] for h in homs]
        maps.append((f"m{i}", "mapsto", rng.choice(pool), rng.choice(pool)))
    targets = {m[3] for m in maps}
    drawn = {e: rng.choice((None, None, 1, 2, 3)) for e in names + [h[0] for h in homs]}
    used = sorted({k for e, k in drawn.items() if k and e not in targets})
    renumber = {k: j for j, k in enumerate(used, start=1)}
    quantifiers = {j: rng.choice(("forall", "exists", "existsuniq")) for j in renumber.values()}

    def annotation(e):
        k = None if e in targets else renumber.get(drawn.get(e))
        return (quantifiers[k], k) if k else (None, None)

    elements = [Node(n, layer[n], n, *annotation(n)) for n in names]
    elements += [Arrow(a, kind, src, dst, a, *annotation(a)) for a, kind, src, dst in homs + maps]
    rng.shuffle(elements)
    ends = {h[0]: (h[2], h[3]) for h in homs if h[2] in layer}
    paths = [(h,) for h in ends] + [(g, h) for g in ends for h in ends if ends[g][1] == ends[h][0]]
    parallel: dict = {}
    for path in paths:
        parallel.setdefault((ends[path[0]][0], ends[path[-1]][1]), []).append(path)
    groups = [group for group in parallel.values() if len(group) > 1]
    if groups and rng.random() < 0.5:
        elements.append(NonCommute(*rng.sample(rng.choice(groups), 2)))
    header = [LayerDecl("L", "C"), LayerDecl("M", "D")]
    header += [FunctorDecl(f, "L", "M", f) for f in "FG"]
    return DiagramAst(tuple(header + elements))


def test_extract_stages_matches_stage_by_stage_erasure():
    """Seeded diagrams: every stage equal field by field, or one error."""
    rng = random.Random(30)
    outcomes = collections.Counter()
    for _ in range(1500):
        ast = _random_stageable_diagram(rng)
        try:
            want = erasing_stages(ast)
        except DiagramError as exc:
            with pytest.raises(DiagramError) as err:
                extract_stages(ast)
            assert str(err.value) == str(exc)
            outcomes["error"] += 1
            continue
        got = extract_stages(ast)
        fields = [(s.index, s.quantifier, s.diagram, s.new_elements) for s in got]
        assert fields == [(s.index, s.quantifier, s.diagram, s.new_elements) for s in want]
        outcomes[len(got) - 1] += 1
        for d in ast.decls:
            if isinstance(d, NonCommute) and len(got) > 1:
                outcomes["noncommute"] += 1
            elif isinstance(d, Arrow) and len(got) > 1:
                outcomes[d.kind, d.src in ast.nodes(), d.src in ast.functors()] += 1
    assert len(outcomes) == 10 and min(outcomes.values()) > 30, outcomes


def test_dropped_noncommute_references(fix):
    # stage 0 has no stage-1 arrow, so it drops the noncommute line naming them
    ast = _load(fix, "equalizer.diag")
    stages = extract_stages(ast)
    assert not stages[0].diagram.noncommutes()
    assert ast.noncommutes()


# ---------------------------------------------------------------------------
# Models, commutativity, evaluation
# ---------------------------------------------------------------------------


def test_build_model_rejects_bad_binds(fix, tmp_path):
    ast = _load(fix, "universal_arrow.diag")
    good = load_model_spec(fix("models", "universal_arrow_galois.model"))
    build_model(ast, good)  # sanity

    bad = tmp_path / "bad.model"
    bad.write_text(
        f"layer LA = {fix('chain2.fincat')}\n"
        f"layer LB = {fix('chain3.fincat')}\n"
        f"functor LB LA = {fix('trunc_q_p.fun')}\n"
        "bind A = 0\nbind B = 0\nbind eta = id_0\n"
        "bind f = id_0\n"  # f is quantified at stage 2
    )
    with pytest.raises(DiagramError):
        build_model(ast, load_model_spec(str(bad)))


def test_stage_zero_must_be_fully_bound(fix, tmp_path):
    ast = _load(fix, "universal_arrow.diag")
    partial = tmp_path / "partial.model"
    partial.write_text(
        f"layer LA = {fix('chain2.fincat')}\n"
        f"layer LB = {fix('chain3.fincat')}\n"
        f"functor LB LA = {fix('trunc_q_p.fun')}\n"
        "bind A = 0\nbind B = 0\n"  # eta missing
    )
    with pytest.raises(DiagramError):
        build_model(ast, load_model_spec(str(partial)))


def test_commutativity_report_structure(fix):
    ast = _load(fix, "equalizer.diag")
    spec = load_model_spec(fix("models", "equalizer_chain2.model"))
    model = build_model(ast, spec)
    stage1 = extract_stages(ast)[1].diagram
    assignment = {"X": "0", "Y": "1", "f": "0->1", "g": "0->1"}
    report = check_commutativity(stage1, model, assignment)
    assert report.passed, report.summary()
    names = [o.name for o in report.obligations]
    assert names[0] == "endpoint_typing"
    assert "commutes[L]" in names
    assert "bij_round_trips" in names
    assert "mapsto_equations" in names

    with pytest.raises(DiagramError):
        check_commutativity(stage1, model, {"X": "0"})  # unassigned elements


def test_evaluation_galois_universal_arrow_holds(fix):
    ast = _load(fix, "universal_arrow.diag")
    spec = load_model_spec(fix("models", "universal_arrow_galois.model"))
    value, trace = evaluate_quantified(ast, build_model(ast, spec))
    assert value is True
    assert "stage 1" in trace.render()


def test_evaluation_equalizer_poset_vs_monoid(fix):
    ast = _load(fix, "equalizer.diag")
    chain = load_model_spec(fix("models", "equalizer_chain2.model"))
    value, _ = evaluate_quantified(ast, build_model(ast, chain))
    assert value is True

    monoid = load_model_spec(fix("models", "equalizer_monoid.model"))
    value, trace = evaluate_quantified(ast, build_model(ast, monoid))
    assert value is False
    counterexample = dict(trace.child.assignment)
    assert counterexample == {"X": "*", "Y": "*", "f": "e", "g": "id_*"}


def test_evaluation_cap_is_an_error_not_truncation(fix):
    ast = _load(fix, "equalizer.diag")
    monoid = load_model_spec(fix("models", "equalizer_monoid.model"))
    with pytest.raises(CapExceededError):
        evaluate_quantified(ast, build_model(ast, monoid), cap=1)


EXISTS_ONE_ARROW = """\
layer L in C
node X : L "X" @exists(1)
node Y : L "Y" @exists(1)
arrow u : X -> Y "u" @existsuniq(2)
"""
EXISTS_INITIAL = """\
layer L in C
node I : L "I" @exists(1)
node Y : L "Y" @forall(2)
arrow u : I -> Y "u" @existsuniq(3)
"""
ALL_UNIQUE_ARROWS = """\
layer L in C
node X : L "X" @forall(1)
node Y : L "Y" @forall(1)
arrow u : X -> Y "u" @existsuniq(2)
"""
ALL_ABOVE_INITIAL = """\
layer L in C
node X : L "X" @forall(1)
node I : L "I" @exists(2)
arrow u : I -> X "u" @existsuniq(3)
"""


@pytest.mark.parametrize(
    "diagram, category, rendered",
    [
        (
            EXISTS_ONE_ARROW,
            "chain2.fincat",
            "stage 0 [-]: statement holds\n  stage 1 [∃]: witness\n    X = 0\n    Y = 0\n"
            "    stage 2 [∃!]: unique witness\n      u = id_0",
        ),
        (
            EXISTS_ONE_ARROW,
            "monoid_e.fincat",
            "stage 0 [-]: statement fails\n"
            "  stage 1 [∃]: no commuting extension satisfies the rest (1 candidates)",
        ),
        (
            EXISTS_INITIAL,
            "kite.fincat",
            "stage 0 [-]: statement holds\n  stage 1 [∃]: witness\n    I = 1\n"
            "    stage 2 [∀]: all 5 commuting extensions satisfy the rest",
        ),
        (
            ALL_UNIQUE_ARROWS,
            "monoid_e.fincat",
            "stage 0 [-]: statement fails\n  stage 1 [∀]: counterexample\n    X = *\n    Y = *\n"
            "    stage 2 [∃!]: not unique: second extension also works (first was u=e)\n"
            "      u = id_*",
        ),
        (
            ALL_ABOVE_INITIAL,
            "monoid_e.fincat",
            "stage 0 [-]: statement fails\n  stage 1 [∀]: counterexample\n    X = *\n"
            "    stage 2 [∃]: no commuting extension satisfies the rest (1 candidates)",
        ),
        (
            ALL_ABOVE_INITIAL,
            "a4.fincat",
            "stage 0 [-]: statement holds\n"
            "  stage 1 [∀]: all 4 commuting extensions satisfy the rest",
        ),
    ],
    ids=[
        "exists-unique-witness",
        "exists-fails",
        "exists-forall-holds",
        "forall-not-unique",
        "forall-exists-fails",
        "forall-holds",
    ],
)
def test_evaluation_builds_only_the_trace_it_returns(
    fix, tmp_path, monkeypatch, diagram, category, rendered
):
    """Every quantifier's outcomes render as before, and each trace node
    built is one the returned trace holds."""
    import fincat.diagram

    built = []

    class CountedTrace(fincat.diagram.EvalTrace):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(fincat.diagram, "EvalTrace", CountedTrace)
    model = tmp_path / "layer.model"
    model.write_text(f"layer L = {fix(category)}\n")
    ast = parse_diagram(diagram)
    value, trace = evaluate_quantified(ast, build_model(ast, load_model_spec(str(model))))
    assert trace.render() == rendered
    assert value is trace.outcome
    assert len(built) == rendered.count("stage ")


# ---------------------------------------------------------------------------
# Elaboration, rendering, macros
# ---------------------------------------------------------------------------


def test_golden_context_universal_arrow(fix):
    assert elaborate_context(_load(fix, "universal_arrow.diag")) == _golden(
        fix, "universal_arrow.context.txt"
    )


def test_golden_context_y0(fix):
    assert elaborate_context(_load(fix, "y0.diag")) == _golden(fix, "y0.context.txt")


def _random_staged_diagram(rng, cyclic: bool) -> str:
    """One layer of 3 to 5 nodes and 3 to 8 hom arrows, some of each in up
    to three stages; arrows run forwards in node order unless ``cyclic``,
    and one parallel pair of paths may be exempted by a noncommute line."""
    names = "ABCDE"[: rng.randint(3, 5)]
    quantifiers = [rng.choice(("forall", "exists", "existsuniq")) for _ in range(3)]
    stage_of = {n: rng.choice((None, None, 1, 2, 3)) for n in names}
    arrows = []
    for i in range(rng.randint(3, 8)):
        src, dst = rng.sample(names, 2)
        if not cyclic and src > dst:
            src, dst = dst, src
        floor = max(stage_of[src] or 1, stage_of[dst] or 1)
        arrows.append((f"a{i}", src, dst, rng.choice((None, None, *range(floor, 4)))))
    used = sorted({k for k in stage_of.values() if k} | {a[3] for a in arrows if a[3]})
    renumber = {k: j for j, k in enumerate(used, start=1)}

    def annotation(k):
        return f" @{quantifiers[k - 1]}({renumber[k]})" if k else ""

    lines = ["layer L in C"]
    lines += [f'node {n} : L "{n}"{annotation(stage_of[n])}' for n in names]
    lines += [f'arrow {a} : {src} -> {dst} "{a}"{annotation(k)}' for a, src, dst, k in arrows]
    text = "\n".join(lines) + "\n"
    by_ends: dict = {}
    for start, end, steps in diagram._layer_paths(parse_diagram(text), "L", include_bij=False):
        by_ends.setdefault((start, end), []).append(".".join(a for a, _ in steps))
    pairs = [group for group in by_ends.values() if len(group) > 1]
    if pairs and rng.random() < 0.3:
        text += "noncommute {} ; {}\n".format(*rng.sample(rng.choice(pairs), 2))
    return text


def test_context_equations_match_the_pairwise_fixpoint(monkeypatch):
    """Seeded diagrams, with and without hom cycles, over several stages."""
    rng = random.Random(29)
    kinds = collections.Counter()
    for i in range(240):
        ast = parse_diagram(_random_staged_diagram(rng, cyclic=i % 2 == 1))
        got = elaborate_context(ast)
        with monkeypatch.context() as patched:
            patched.setattr(diagram, "_stage_equations", pairwise_stage_equations)
            assert got == elaborate_context(ast)
        equations = pairwise_stage_equations(ast, extract_stages(ast))
        cycle = diagram._hom_cycle(ast, "L") is not None
        kinds[cycle, len(equations) > 1] += 1
    assert len(kinds) == 4 and min(kinds.values()) > 10, kinds


# m1's body uses m2: m1 is spliced first, whichever of A and B comes first,
# so both m2 marks are spliced and r is listed twice
NESTED_HEAD = 'layer L in C\nmacro m1 := {\n  node p : L "p" @use(m2)\n}\n'
NESTED_HEAD += 'macro m2 := {\n  node r : L "r"\n}\n'
NESTED = {
    "A first": NESTED_HEAD + 'node A : L "A" @use(m2)\nnode B : L "B" @use(m1)\n',
    "B first": NESTED_HEAD + 'node B : L "B" @use(m1)\nnode A : L "A" @use(m2)\n',
}


def _with_bijections(rng, ast) -> DiagramAst:
    """``ast`` with about half of its unannotated hom arrows between nodes
    made bijections, those that no |-> arrow ends at."""
    maps = [a for a in ast.arrows().values() if a.kind == "mapsto"]
    mapsto_ends = {a.src for a in maps} | {a.dst for a in maps}

    def flip(d) -> bool:
        return (
            isinstance(d, Arrow)
            and d.kind == "hom"
            and d.stage is None
            and d.src in ast.nodes()
            and d.id not in mapsto_ends
            and rng.random() < 0.5
        )

    return ast.replace(decls=tuple(d.replace(kind="bij") if flip(d) else d for d in ast.decls))


def _assert_context_and_grid_match_the_reference(ast) -> str:
    got = elaborate_context(ast)
    assert got == three_pass_context(ast), print_diagram(ast)
    assert render_grid(ast) == inline_grid(ast), print_diagram(ast)
    return got


def test_context_and_grid_match_the_three_pass_reference(fix):
    """Seeded diagrams of every generator here and the bundled ones, with
    macros spliced, and the empty diagram."""
    rng = random.Random(33)
    subjects = [_load_diagram(fix(name)) for name in DIAGRAMS]
    subjects += [expand_macros(parse_diagram(text)) for text in NESTED.values()]
    subjects.append(DiagramAst())
    for i in range(120):
        ast = parse_diagram(_random_staged_diagram(rng, cyclic=i % 2 == 1))
        subjects += [ast, _with_bijections(rng, ast)]
    for _ in range(300):
        ast = _random_stageable_diagram(rng)
        try:
            extract_stages(ast)
        except DiagramError:
            continue
        subjects += [ast, _with_bijections(rng, ast)]
    seen = collections.Counter()
    for ast in subjects:
        text = _assert_context_and_grid_match_the_reference(ast)
        for feature in (" such that", " and\n", "<->", "for all", "there exists a unique"):
            seen[feature] += feature in text
        seen["def"] += bool(ast.defs())
        seen["empty"] += text.endswith("(empty)\n")
    assert min(seen.values()) >= 1 and seen[" such that"] > 50 and seen["<->"] > 50, seen


@given(small_diagrams())
@seed(33)
@settings(max_examples=60, deadline=None)
def test_generated_context_and_grid_match_the_reference(text):
    _assert_context_and_grid_match_the_reference(parse_diagram(text))


def test_golden_grid_y0(fix):
    assert render_grid(_load(fix, "y0.diag")) == _golden(fix, "y0.grid.txt")


def test_grid_roundtrips_do_not_change_the_ast(fix):
    ast = _load(fix, "y0.diag")
    render_grid(ast)
    assert parse_diagram(print_diagram(ast)) == ast


def test_macro_expansion_matches_hand_written_diagram(fix):
    expanded = expand_annotation(_load(fix, "univ_macro.diag"), "univ")
    hand = _load(fix, "universal_arrow.diag")
    assert elaborate_context(expanded) == elaborate_context(hand)


def test_macro_expansion_freshens_identifiers(fix):
    expanded = expand_annotation(_load(fix, "univ_macro.diag"), "univ")
    assert any(name.endswith("$1") for name in expanded.nodes())


def test_macro_expansion_is_stable_under_no_users(fix):
    ast = _load(fix, "universal_arrow.diag")
    macro_text = print_diagram(ast) + "macro unused := {\n  node q : LB \"q\"\n}\n"
    with_macro = parse_diagram(macro_text)
    assert expand_annotation(with_macro, "unused") == with_macro


def test_macro_expansion_rejects_unknown_macro(fix):
    with pytest.raises(DiagramError):
        expand_annotation(_load(fix, "universal_arrow.diag"), "missing")


def test_macro_name_capture_is_detected():
    # A freshened name can collide with a host name: two macros used by one
    # element that declare the same local (see test_cli).  Here the
    # colliding name is planted directly on the syntax tree.
    text = (
        "layer L in P\n"
        'node x : L "x"\n'
        "macro m := {\n"
        '  node w : L "inner"\n'
        "}\n"
        'node y : L "y" @use(m)\n'
    )
    ast = parse_diagram(text)
    planted = ast.replace(decls=ast.decls + (Node(id="w$1", layer="L", label="planted"),))
    with pytest.raises(DiagramError) as err:
        expand_annotation(planted, "m")
    assert "capture" in str(err.value)


def _spliced_names(monkeypatch, text) -> list:
    """The macros ``expand_macros`` splices, in order, one call each."""
    calls = []

    def recorded(ast, name, _splice=diagram.expand_annotation):
        calls.append(name)
        return _splice(ast, name)

    monkeypatch.setattr(diagram, "expand_annotation", recorded)
    expand_macros(parse_diagram(text))
    return calls


def test_a_nested_macro_is_spliced_whatever_the_declaration_order(monkeypatch):
    listings = []
    for text in NESTED.values():
        assert _spliced_names(monkeypatch, text) == ["m1", "m2"]
        ast = expand_macros(parse_diagram(text))
        assert [e for e in ast.elements() if "$" in e] == ["p$1", "r$1", "r$2"]
        assert not any(e.uses for e in ast.elements().values())
        listings.append(sorted(elaborate_context(ast).splitlines()))
    assert listings[0] == listings[1]


def test_macros_free_to_go_splice_in_the_order_of_their_marks(monkeypatch):
    head = 'layer L in C\nmacro m1 := {\n  node p : L "p"\n}\nmacro m2 := {\n  node r : L "r"\n}\n'
    two_hosts = head + 'node A : L "A" @use(m2)\nnode B : L "B" @use(m1)\n'
    assert _spliced_names(monkeypatch, two_hosts) == ["m2", "m1"]
    one_host = head + 'node A : L "A" @use(m1) @use(m2)\n'
    assert _spliced_names(monkeypatch, one_host) == ["m1", "m2"]


@pytest.mark.parametrize(
    "macros, marks, cycle",
    [
        ({"m1": "m2", "m2": "m1"}, ("m1",), "m1 -> m2 -> m1"),
        ({"m1": "m2", "m2": "m1"}, ("m2",), "m2 -> m1 -> m2"),
        ({"m": "m"}, ("m",), "m -> m"),
        # the walk enters the cycle from m0, and m3's body is walked first
        (
            {"m0": "m1", "m1": "m2", "m2": "m1", "m3": "m4", "m4": None},
            ("m3", "m0"),
            "m1 -> m2 -> m1",
        ),
    ],
)
def test_macros_that_use_each_other_are_an_error_naming_a_cycle(macros, marks, cycle):
    lines = ["layer L in C"]
    for name, used in macros.items():
        mark = f" @use({used})" if used else ""
        lines += [f"macro {name} := {{", f'  node {name}_p : L "p"{mark}', "}"]
    lines += [f'node A{i} : L "A" @use({name})' for i, name in enumerate(marks)]
    with pytest.raises(DiagramError) as err:
        expand_macros(parse_diagram("\n".join(lines) + "\n"))
    assert str(err.value) == f"cyclic macro use: {cycle}"
