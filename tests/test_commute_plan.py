"""``check_commutativity`` and the stage check against composing every path
from its start.

The check walks a per-diagram plan of parallel pairs and composes each path
by folding its steps; ``path_by_path_commutativity`` in ``tests/oracles.py``
walks the diagram itself and composes every path of every parallel pair
from its start.  Both must give equal reports, or raise the same
``DiagramError``, on every stage-0 call that ``evaluate_quantified`` makes
for the bundled diagrams over the bundled and generated models, and on
seeded assignments of a square with a bijection whose binds are mistyped,
do not commute, fail the round trip or are exempted by ``noncommute``.  On
every candidate of a later stage, the stage check, which reads the plan of
the whole stage diagram built once per ``eval`` call, must give the
oracle's verdict, or raise the same error, as when a stage's arrow closes a
hom cycle.  Evaluation traces must be equal, too.  A stage whose compared
layers are thin tables passes every candidate without a path composed; the
oracle still composes each one, over random thin closures.  A table missing
a composite or holding an incoherent one is not a category, so no model is
built over it.
"""

import collections
import itertools
import random

import pytest
from helpers import random_covers
from oracles import path_by_path_commutativity
from test_cli import CYCLIC_DIAG

from fincat import diagram
from fincat.core import (
    FinCat,
    FinCatError,
    identity_functor,
    preorder_from_covers,
    validate_category,
)
from fincat.diagram import (
    DiagramError,
    Model,
    build_model,
    evaluate_quantified,
    expand_annotation,
    extract_stages,
    parse_diagram,
)
from fincat.files import ModelSpec, load_category, load_functor, load_model_spec
from fincat.finset import CapExceededError

real_check = diagram.check_commutativity
real_stage_check = diagram._stage_commutes


def _load(fix, name):
    with open(fix(name), encoding="utf-8") as handle:
        return parse_diagram(handle.read())


def _outcome(check, ast, model, assignment, *plan):
    try:
        return check(ast, model, assignment, *plan)
    except DiagramError as exc:
        return f"DiagramError: {exc}"


def _evaluation(ast, model):
    try:
        value, trace = evaluate_quantified(ast, model)
    except (DiagramError, CapExceededError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return value, trace


def _oracle_stage_commutes(stage, model, assignment, plan=None):
    return path_by_path_commutativity(stage.diagram, model, assignment).passed


def _evaluate_both(monkeypatch, ast, model) -> int:
    """Evaluate with the oracle, then with the plans while every call is also
    answered by the oracle; returns the number of compared calls.

    Stage 0 is checked by ``check_commutativity``, whose report is printed;
    each candidate of a later stage only by the stage check, whose verdict
    must be the oracle's on the whole stage diagram."""
    with monkeypatch.context() as patched:
        patched.setattr(diagram, "check_commutativity", path_by_path_commutativity)
        patched.setattr(diagram, "_stage_commutes", _oracle_stage_commutes)
        want = _evaluation(ast, model)
    calls = []

    def both(sub, model, assignment):
        assert _outcome(real_check, sub, model, assignment) == _outcome(
            path_by_path_commutativity, sub, model, assignment
        )
        calls.append(sub)
        return real_check(sub, model, assignment)

    def both_stage(stage, model, assignment, plan):
        assert _outcome(real_stage_check, stage, model, assignment, plan) == _outcome(
            _oracle_stage_commutes, stage, model, assignment
        )
        calls.append(stage.diagram)
        return real_stage_check(stage, model, assignment, plan)

    with monkeypatch.context() as patched:
        patched.setattr(diagram, "check_commutativity", both)
        patched.setattr(diagram, "_stage_commutes", both_stage)
        assert _evaluation(ast, model) == want
    return len(calls)


def _chain(n):
    objects = [f"c{i}" for i in range(n)]
    return preorder_from_covers(objects, list(zip(objects, objects[1:])))


def _grid(rows, cols):
    cells = [f"g{r}{c}" for r in range(rows) for c in range(cols)]
    covers = [(f"g{r}{c}", f"g{r}{c + 1}") for r in range(rows) for c in range(cols - 1)]
    covers += [(f"g{r}{c}", f"g{r + 1}{c}") for r in range(rows - 1) for c in range(cols)]
    return preorder_from_covers(cells, covers)


# chain2 x {1, e} with e . e = e: two objects and two parallel arrows u, v
# (v = u with e), so paths can disagree and binds can be mistyped
_DOUBLED = FinCat(
    ("0", "1"),
    {
        "i0": ("0", "0"),
        "e0": ("0", "0"),
        "i1": ("1", "1"),
        "e1": ("1", "1"),
        "u": ("0", "1"),
        "v": ("0", "1"),
    },
    {"0": "i0", "1": "i1"},
    {
        ("i0", "i0"): "i0", ("i0", "e0"): "e0", ("e0", "i0"): "e0", ("e0", "e0"): "e0",
        ("i1", "i1"): "i1", ("i1", "e1"): "e1", ("e1", "i1"): "e1", ("e1", "e1"): "e1",
        ("u", "i0"): "u", ("u", "e0"): "v", ("v", "i0"): "v", ("v", "e0"): "v",
        ("i1", "u"): "u", ("e1", "u"): "v", ("i1", "v"): "v", ("e1", "v"): "v",
    },
)

_EQUALIZER_LAYERS = {
    "chain4": _chain(4),
    "chain6": _chain(6),
    "grid2x2": _grid(2, 2),
    "grid2x3": _grid(2, 3),
    "doubled": _DOUBLED,
}


def test_the_doubled_chain_is_a_category():
    assert validate_category(_DOUBLED).passed


@pytest.mark.parametrize("name", ["equalizer_chain2.model", "equalizer_monoid.model"])
def test_equalizer_over_the_bundled_models(fix, monkeypatch, name):
    ast = _load(fix, "equalizer.diag")
    model = build_model(ast, load_model_spec(fix("models", name)))
    assert _evaluate_both(monkeypatch, ast, model) > 1


@pytest.mark.parametrize("name", sorted(_EQUALIZER_LAYERS))
def test_equalizer_over_generated_models(fix, monkeypatch, name):
    ast = _load(fix, "equalizer.diag")
    spec = ModelSpec(name, {"L": _EQUALIZER_LAYERS[name]}, {}, {}, {})
    assert _evaluate_both(monkeypatch, ast, build_model(ast, spec)) > 1


def _dropping(cat, dropped):
    compose = {key: value for key, value in cat.compose.items() if key != dropped}
    return FinCat(cat.objects, dict(cat.morphisms), dict(cat.identity), compose)


def _not_built(build, *args) -> str:
    with pytest.raises(FinCatError) as raised:
        build(*args)
    return str(raised.value)


def test_equalizer_with_a_missing_composite(fix):
    """A table missing any one composite is not a category, so no model is
    built over it: the dropped pair is the totality witness."""
    ast = _load(fix, "equalizer.diag")
    for dropped in sorted(_DOUBLED.compose):
        spec = ModelSpec("doubled", {"L": _dropping(_DOUBLED, dropped)}, {}, {}, {})
        assert _not_built(build_model, ast, spec) == (
            f"layer 'L' is not a category: totality fails at {dropped!r}"
        )


def _retargeting(cat, key):
    """``cat`` with the composite at ``key`` replaced by the least morphism
    whose ends differ from it, so coherence fails and totality holds."""
    ends = cat.morphisms[cat.compose[key]]
    compose = dict(cat.compose)
    compose[key] = min(m for m, other in cat.morphisms.items() if other != ends)
    return FinCat(cat.objects, dict(cat.morphisms), dict(cat.identity), compose)


def _rule_specs(fix, cat):
    """Both diagrams over one table layer, with their model specs:
    equalizer.diag, and universal_arrow.diag with R the identity and A = B =
    the least object."""
    equalizer, universal = _load(fix, "equalizer.diag"), _load(fix, "universal_arrow.diag")
    least = min(cat.objects)
    binds = {"A": least, "B": least, "eta": cat.id_of(least)}
    spec = ModelSpec("rule", {"LA": cat, "LB": cat}, {("LB", "LA"): identity_functor(cat)}, binds, {})
    return [(equalizer, ModelSpec("rule", {"L": cat}, {}, {}, {})), (universal, spec)]


def _rule_models(fix, cat):
    return [(ast, build_model(ast, spec)) for ast, spec in _rule_specs(fix, cat)]


_RULE_LAYERS = {"chain4": _chain(4), "grid2x3": _grid(2, 3)}


@pytest.mark.parametrize("name", sorted(_RULE_LAYERS))
def test_a_thin_layer_missing_a_composite_builds_no_model(fix, name):
    """A thin table with any one composite dropped is not total, so neither
    diagram gets a model over it; the first layer names the dropped pair."""
    cat = _RULE_LAYERS[name]
    for dropped in sorted(cat.compose):
        for ast, spec in _rule_specs(fix, _dropping(cat, dropped)):
            assert _not_built(build_model, ast, spec) == (
                f"layer {min(spec.layers)!r} is not a category: totality fails at {dropped!r}"
            )


@pytest.mark.parametrize("name", sorted(_RULE_LAYERS))
def test_a_thin_layer_with_an_incoherent_composite_builds_no_model(fix, name):
    """Nor one with a composite outside hom(start, end): with any one entry
    retargeted, coherence names that entry."""
    cat = _RULE_LAYERS[name]
    for key in sorted(cat.compose):
        broken = _retargeting(cat, key)
        witness = key + (broken.compose[key], "boundary mismatch")
        for ast, spec in _rule_specs(fix, broken):
            assert _not_built(build_model, ast, spec) == (
                f"layer {min(spec.layers)!r} is not a category: coherence fails at {witness!r}"
            )


def test_random_thin_closures_match_the_oracle_on_every_candidate(fix, monkeypatch):
    """Closures of random acyclic covers are coherent, total and thin, so
    every stage of equalizer.diag passes its candidates uncomposed; the
    oracle composes each one."""
    rng = random.Random(24)
    calls = 0
    for _ in range(40):
        cat = preorder_from_covers(*random_covers(rng, acyclic=True))
        (equalizer, model), universal = _rule_models(fix, cat)
        plans = diagram._stage_plans(extract_stages(equalizer)[1:], model)
        assert [implied for implied, _checks in plans] == [True] * 4
        for ast, model in [(equalizer, model), universal]:
            calls += _evaluate_both(monkeypatch, ast, model)
    assert calls > 1000, calls


def _galois(fix, binds):
    """The Galois model's layers and functor with the given binds."""
    layers = {"LA": load_category(fix("chain2.fincat")), "LB": load_category(fix("chain3.fincat"))}
    functors = {("LB", "LA"): load_functor(fix("trunc_q_p.fun"))}
    return ModelSpec("galois", layers, functors, binds, {})


def _universal_arrow_variants(fix):
    ua = _load(fix, "universal_arrow.diag")
    macro = _load(fix, "univ_macro.diag")
    return {"ua": ua, "macro": macro, "expanded": expand_annotation(macro, "univ")}


@pytest.mark.parametrize("variant", ["ua", "macro", "expanded"])
def test_universal_arrow_over_every_stage_zero_bind(fix, monkeypatch, variant):
    """Every (A, B, eta) of the Galois model, typed or not."""
    ast = _universal_arrow_variants(fix)[variant]
    la, lb = load_category(fix("chain2.fincat")), load_category(fix("chain3.fincat"))
    calls = 0
    for a in la.objects:
        for b in lb.objects:
            for eta in sorted(la.morphisms):
                spec = _galois(fix, {"A": a, "B": b, "eta": eta})
                calls += _evaluate_both(monkeypatch, ast, build_model(ast, spec))
    assert calls >= 2 * 3 * 3  # at least stage 0 for every bind


@pytest.mark.parametrize("layer", ["chain4", "grid2x3", "doubled"])
def test_universal_arrow_over_generated_models(fix, monkeypatch, layer):
    """R is the identity of a generated layer; every (A, B, eta) is bound."""
    ast = _load(fix, "universal_arrow.diag")
    cat = _EQUALIZER_LAYERS[layer]
    functor = identity_functor(cat)
    calls = 0
    for a in cat.objects:
        for b in cat.objects:
            for eta in sorted(cat.morphisms)[:4]:
                binds = {"A": a, "B": b, "eta": eta}
                spec = ModelSpec(layer, {"LA": cat, "LB": cat}, {("LB", "LA"): functor}, binds, {})
                calls += _evaluate_both(monkeypatch, ast, build_model(ast, spec))
    assert calls > len(cat.objects) ** 2


def test_y0_stage_diagrams(fix, monkeypatch):
    ast = _load(fix, "y0.diag")
    la, lb = load_category(fix("chain2.fincat")), load_category(fix("chain3.fincat"))
    seen = 0
    for c in lb.objects:
        for eta in sorted(la.morphisms):
            model = build_model(ast, _galois(fix, {"A": "0", "C": c, "eta": eta}))
            # the arrow between functor declarations stops evaluation ...
            _evaluate_both(monkeypatch, ast, model)
            # ... so every stage diagram is also checked directly
            for rc in la.objects:
                assignment = {"A": "0", "C": c, "RC": rc, "eta": eta}
                for stage in extract_stages(ast):
                    want = _outcome(path_by_path_commutativity, stage.diagram, model, assignment)
                    assert _outcome(real_check, stage.diagram, model, assignment) == want
                    seen += 1
    assert seen == 3 * 3 * 2


SQUARE = """\
layer L in C
node A : L "A"
node B : L "B"
node C : L "C"
node D : L "D"
arrow f : A -> B "f"
arrow g : B -> D "g"
arrow h : A -> C "h"
arrow k : C -> D "k"
arrow d : A -> D "d"
arrow i : B <-> C "i"
node P : L "P"
node Q : L "Q"
arrow p : P -> Q "p"
arrow q : P -> Q "q"
noncommute p ; q
"""


_SQUARE_HOMS = (
    ("f", "A", "B"),
    ("g", "B", "D"),
    ("h", "A", "C"),
    ("k", "C", "D"),
    ("d", "A", "D"),
    ("p", "P", "Q"),
    ("q", "P", "Q"),
)


def _square_assignments(cat, rng, count):
    objects, morphisms = list(cat.objects), sorted(cat.morphisms)

    def pick(src, dst):
        typed = cat.hom(src, dst)
        return rng.choice(typed) if typed and rng.random() < 0.9 else rng.choice(morphisms)

    for _ in range(count):
        nodes = {n: rng.choice(objects) for n in "ABCDPQ"}
        arrows = {a: pick(nodes[a_src], nodes[a_dst]) for a, a_src, a_dst in _SQUARE_HOMS}
        arrows["i"] = (pick(nodes["B"], nodes["C"]), pick(nodes["C"], nodes["B"]))
        yield {**nodes, **arrows}


def _typed_square_assignments(cat):
    """Every typed assignment of A, B, C, D and the arrows between them."""
    for a, b, c, d in itertools.product(cat.objects, repeat=4):
        nodes = {"A": a, "B": b, "C": c, "D": d}
        square = [(a, src, dst) for a, src, dst in _SQUARE_HOMS if src in nodes]
        homs = [cat.hom(nodes[src], nodes[dst]) for _, src, dst in square]
        bij = itertools.product(cat.hom(b, c), cat.hom(c, b))
        for arrows, i in itertools.product(itertools.product(*homs), bij):
            yield {**nodes, **{a: m for (a, _, _), m in zip(square, arrows)}, "i": i}


def test_square_over_seeded_assignments():
    ast = parse_diagram(SQUARE)
    model = Model({"L": _DOUBLED}, {}, {})
    failed = set()
    for assignment in _square_assignments(_DOUBLED, random.Random(14), 1000):
        report = real_check(ast, model, assignment)
        assert report == path_by_path_commutativity(ast, model, assignment)
        failed.update(o.name for o in report.failures())
    assert failed == {"endpoint_typing", "commutes[L]", "bij_round_trips"}


def test_square_named_cases():
    ast = parse_diagram(SQUARE)
    model = Model({"L": _DOUBLED}, {}, {})
    zero = {n: "0" for n in "ABCDPQ"}
    lawful = {**zero, **{a: "i0" for a, _, _ in _SQUARE_HOMS}, "i": ("i0", "i0")}
    cases = {
        "lawful": lawful,
        # p and q disagree, and noncommute exempts that pair
        "exempted": {**lawful, "Q": "1", "p": "u", "q": "v"},
        "non-commuting": {**lawful, "k": "e0"},
        "round trip": {**lawful, **{a: "e0" for a in "fghkd"}, "i": ("e0", "e0")},
        # d : 0 -> 0 is not an arrow A -> D, and the paths that avoid it commute
        "mistyped": {**lawful, "D": "1", "g": "u", "k": "u", "d": "i0"},
    }
    failures = {}
    for name, assignment in cases.items():
        report = real_check(ast, model, assignment)
        assert report == path_by_path_commutativity(ast, model, assignment), name
        failures[name] = [o.name for o in report.failures()]
    assert failures == {
        "lawful": [],
        "exempted": [],
        "non-commuting": ["commutes[L]"],
        "round trip": ["bij_round_trips"],
        "mistyped": ["endpoint_typing"],
    }


def test_a_model_missing_a_composite_is_not_built():
    for dropped in sorted(_DOUBLED.compose):
        assert _not_built(Model, {"L": _dropping(_DOUBLED, dropped)}, {}, {}) == (
            f"layer 'L' is not a category: totality fails at {dropped!r}"
        )


def test_a_model_with_a_functor_that_is_not_a_functor_is_not_built(fix):
    trunc = load_functor(fix("trunc_q_p.fun"))
    bent = trunc.replace(morphism_map={**trunc.morphism_map, "1->2": "0->1"})
    layers = {"LA": trunc.target, "LB": trunc.source}
    assert _not_built(Model, layers, {("LB", "LA"): bent}, {}) == (
        "functor LB->LA is not a functor: typing fails at ('1->2', '0->1')"
    )


# SQUARE with C, and with it h, k and the bijection i, brought in by stage 1
STAGED_SQUARE = SQUARE.replace('node C : L "C"', 'node C : L "C" @forall(1)')


def test_staged_square_checks_its_whole_stage_diagram():
    """The stage-1 check on every seeded assignment that passes stage 0,
    over the doubled chain."""
    stage0, stage1 = extract_stages(parse_diagram(STAGED_SQUARE))
    assert set(stage1.new_elements) == {"C", "h", "k", "i"}
    model = Model({"L": _DOUBLED}, {}, {})
    plan = diagram._stage_plans([stage1], model)[0]
    verdicts = collections.Counter()
    for assignment in _square_assignments(_DOUBLED, random.Random(16), 2000):
        if not path_by_path_commutativity(stage0.diagram, model, assignment).passed:
            continue
        want = _oracle_stage_commutes(stage1, model, assignment)
        assert real_stage_check(stage1, model, assignment, plan) == want
        verdicts[want] += 1
    assert set(verdicts) == {True, False}, verdicts


def test_a_stage_that_only_adds_an_exempt_pair_is_checked_against_older_pairs():
    """Stage 1 brings in Q, p and q, whose one pair is exempt, so its plan
    compares only pairs of stage 0.  Over the doubled chain, which is not
    thin, the plan is not implied, and on every typed assignment that passes
    stage 0, with p and q typed as enumeration types them, the stage check is
    the oracle's: every such candidate passes."""
    staged = SQUARE.replace('node Q : L "Q"', 'node Q : L "Q" @forall(1)')
    stage0, stage1 = extract_stages(parse_diagram(staged))
    assert set(stage1.new_elements) == {"Q", "p", "q"}
    model = Model({"L": _DOUBLED}, {}, {})
    plan = diagram._stage_plans([stage1], model)[0]
    assert plan[0] is False
    verdicts = collections.Counter()
    for older, P in itertools.product(_typed_square_assignments(_DOUBLED), _DOUBLED.objects):
        if not path_by_path_commutativity(stage0.diagram, model, {**older, "P": P}).passed:
            continue
        for Q in _DOUBLED.objects:
            for p, q in itertools.product(_DOUBLED.hom(P, Q), repeat=2):
                assignment = {**older, "P": P, "Q": Q, "p": p, "q": q}
                want = _oracle_stage_commutes(stage1, model, assignment)
                assert real_stage_check(stage1, model, assignment, plan) == want
                verdicts[want] += 1
    assert set(verdicts) == {True} and verdicts[True] > 100, verdicts


def test_a_stage_arrow_that_closes_a_hom_cycle_is_the_oracles_error(fix, monkeypatch):
    """w : D -> B closes the cycle B -> D -> B at stage 1, over chain2 with
    every node bound to 0 and every other arrow to id_0."""
    ast = parse_diagram(CYCLIC_DIAG)
    binds = {n: "0" for n in "ABCDE"}
    binds.update({a: "id_0" for a in ("ab", "bd", "ac", "cd", "ae", "ed")})
    spec = ModelSpec("cyclic", {"L": load_category(fix("chain2.fincat"))}, {}, binds, {})
    model = build_model(ast, spec)
    assert _evaluate_both(monkeypatch, ast, model) == 2  # stage 0, and w = id_0
    assert _evaluation(ast, model) == (
        "DiagramError: layer 'L' has a cyclic hom graph: ('A', 'B', 'D', 'B')"
    )
