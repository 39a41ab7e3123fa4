"""Acceptance gate: one test per top-level criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every criterion is checked at its stated tolerance; frozen numbers
come from independent oracles (see tests/oracles.py), not from the library
under test.
"""

import io
import time

from helpers import enumerate_nattrans_finset
from oracles import (
    brute_inhabitants,
    goal_types,
    nattrans_table_key,
    product_filter_nattrans,
)

from fincat.adjunction import (
    assemble_adjunction,
    check_kan_adjointness,
    counit_inclusion_check,
    kan_extensions,
    verify_adjunction,
)
from fincat.cli import run
from fincat.core import validate_category, validate_functor, validate_nattrans
from fincat.diagram import build_model, evaluate_quantified, extract_stages, parse_diagram
from fincat.files import (
    load_adjunction_parts,
    load_category,
    load_functor,
    load_model_spec,
    load_nattrans,
)
from fincat.finset import FinSetObj
from fincat.terms import (
    Signature,
    TyArrow,
    TyAtom,
    canonical_print,
    infer_inhabitants,
    parse_context,
    parse_signature,
    parse_term,
    parse_type,
    reduction_graph,
)
from fincat.yoneda import HomContext, check_yoneda_roundtrips, hom_cov_functor, hom_maps_functor


def _line(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def _read(fix, *parts):
    with open(fix(*parts), encoding="utf-8") as handle:
        return handle.read()


def test_criterion_1_law_suite_and_mutations(fix):
    healthy = {
        "categories": ["kite", "chain2", "chain3", "monoid_e", "a4", "b6", "disc2"],
        "functors": [
            "f_kite",
            "incl_a4_b6",
            "trunc_q_p",
            "incl_p_q",
            "g_on_a",
            "h_on_a",
            "g_on_b",
            "id_monoid",
            "incl_disc2_p",
        ],
        "nattrans": ["id_fkite"],
    }
    ok = True
    for name in healthy["categories"]:
        ok = ok and validate_category(load_category(fix(f"{name}.fincat"))).passed
    for name in healthy["functors"]:
        ok = ok and validate_functor(load_functor(fix(f"{name}.fun"))).passed
    for name in healthy["nattrans"]:
        ok = ok and validate_nattrans(load_nattrans(fix(f"{name}.nt"))).passed

    mutations = {
        "bad_coherence.fincat": "coherence",
        "bad_assoc.fincat": "associativity",
        "bad_idl.fincat": "left_identity",
        "bad_idr.fincat": "right_identity",
        "f_kite_bad_respids.fun": "respects_identities",
        "f_kite_bad_respcomp.fun": "respects_composition",
        "f_kite_bad_sqcond.nt": "square_condition",
    }
    witnessed = 0
    for name, law in mutations.items():
        path = fix("broken", name)
        if name.endswith(".fincat"):
            report = validate_category(load_category(path))
        elif name.endswith(".fun"):
            report = validate_functor(load_functor(path))
        else:
            report = validate_nattrans(load_nattrans(path))
        bad = report.obligation(law)
        if not report.passed and not bad.passed and bad.witness:
            witnessed += 1
    ok = ok and witnessed == 7
    _line(1, ok, f"all healthy fixtures lawful; {witnessed}/7 mutations fail with witnesses")


def test_criterion_2_term_inference(fix):
    started = time.perf_counter()
    ctx = parse_context("{f: A' -> A}")
    goal = parse_type("A' * B -> A * B")
    found = [canonical_print(t) for t in infer_inhabitants(ctx, goal, 6)]
    pairing = "\\x1:A' * B. (f (p1 x1), p2 x1)" in found

    identity_goal = [
        canonical_print(t)
        for t in infer_inhabitants((), TyArrow(TyAtom("A"), TyAtom("A")), 6)
    ]
    elapsed = time.perf_counter() - started
    ok = pairing and identity_goal == ["\\x1:A. x1"] and elapsed < 1.0
    _line(2, ok, f"pairing term found; A->A has exactly the identity; {elapsed:.3f}s < 1s")


def test_criterion_3_reduction_graph(fix):
    signature = parse_signature(_read(fix, "arith.sig"))
    graph, report = reduction_graph(parse_term("g (2 + 3)", signature), signature)
    ok = (
        graph.normal_forms == ("29",)
        and report.terminating
        and report.unique_nf
        and report.locally_confluent_on_graph
        and not report.truncated
    )
    _line(3, ok, f"unique normal form {graph.normal_forms}; terminating; locally confluent")


def test_criterion_4_staging_and_evaluation(fix):
    ast = parse_diagram(_read(fix, "equalizer.diag"))
    stages = extract_stages(ast)
    quants = tuple(s.quantifier for s in stages[1:])
    shapes = [s.counts() for s in stages]
    staged_ok = (
        len(stages) == 5
        and quants == ("forall", "exists", "forall", "existsuniq")
        and shapes[0] == (0, 0)
        and shapes[1] == (2, 2)
    )

    chain_model = build_model(ast, load_model_spec(fix("models", "equalizer_chain2.model")))
    holds, _trace = evaluate_quantified(ast, chain_model)
    monoid_model = build_model(ast, load_model_spec(fix("models", "equalizer_monoid.model")))
    fails, trace = evaluate_quantified(ast, monoid_model)
    counterexample = trace.child is not None and trace.child.assignment
    ok = staged_ok and holds and not fails and bool(counterexample)
    _line(4, ok, "4 stages ∀,∃,∀,∃!; SQ0 empty, SQ1 2+2; true on 2-chain, counterexample on monoid")


def test_criterion_5_hom_counting_and_roundtrips(fix, kite, f_kite):
    counts_ok = True
    for anchor in kite.objects:
        oracle = product_filter_nattrans(hom_cov_functor(kite, anchor), f_kite)
        counts_ok = counts_ok and len(oracle) == len(f_kite.object_map[anchor])

    point = FinSetObj(("*",))
    pair = FinSetObj(("p", "q"))
    trips_ok = all(
        check_yoneda_roundtrips(
            HomContext(kite, f_kite, probe, anchor),
            hom_cov_functor(kite, anchor),
            hom_maps_functor(probe, f_kite),
        ).passed
        for probe in (point, pair)
        for anchor in kite.objects
    )
    ok = counts_ok and trips_ok
    _line(5, ok, "|Nat(hom, F)| = |F C| at all five objects; both round trips exhaustively")


def test_criterion_6_adjoint_triple(fix, g_on_a, h_on_a, g_on_b):
    inc = load_functor(fix("incl_a4_b6.fun"))
    reports = [
        check_kan_adjointness(inc, g_on_b, source, kan_extensions(inc, source))
        for source in (h_on_a, g_on_a)
    ]
    (rkan_h, cones_h), _left = kan_extensions(inc, h_on_a)
    _right, (lkan_ga, _cocones) = kan_extensions(inc, g_on_a)
    singleton = rkan_h.object_map["6"].atoms == ((),)
    empty = lkan_ga.object_map["1"].atoms == ()
    inclusion = counit_inclusion_check(inc, h_on_a, cones_h)
    isos = [o for o in inclusion.obligations if o.name.startswith("iso_at")]
    ok = (
        all(report.passed for report in reports)
        and singleton
        and empty
        and inclusion.passed
        and len(isos) == 4
        and all(o.passed for o in isos)
    )
    _line(6, ok, "hom-count equalities + bijective transposes; value at 6 is a point, at 1 empty; 4 isos")


def test_criterion_7_big_theorem(fix):
    full = assemble_adjunction(load_adjunction_parts(fix("galois.adj")))
    built = assemble_adjunction(load_adjunction_parts(fix("galois_build.adj")))
    rebuilt = built.left == full.left and built.counit.components == full.counit.components
    laws = verify_adjunction(built)
    wanted = {"flat_sharp_inverse", "flat_natural", "sharp_natural", "triangle_left", "triangle_right"}
    covered = wanted <= {o.name for o in laws.obligations}

    perturbed = verify_adjunction(
        assemble_adjunction(load_adjunction_parts(fix("monoid_bad_counit.adj")))
    )
    triangles_fail = not perturbed.obligation("triangle_left").passed and not perturbed.passed
    ok = rebuilt and laws.passed and covered and triangles_fail
    _line(7, ok, "universal arrows rebuild the adjunction; laws pass; perturbed counit fails triangles")


def test_criterion_8_golden_contexts(fix):
    ok = True
    for stem in ("universal_arrow", "y0"):
        out = io.StringIO()
        code = run(["context", fix(f"{stem}.diag")], out=out)
        ok = ok and code == 0 and out.getvalue() == _read(fix, "golden", f"{stem}.context.txt")
    _line(8, ok, "elaborated contexts byte-equal to the shipped golden files")


def test_criterion_9_oracle_equivalence(fix, kite, f_kite, g_on_a, h_on_a, g_on_b):
    goals = goal_types(["A", "B"], 2)
    inference_ok = True
    for goal in goals:
        expected = brute_inhabitants((), goal, 4)
        got = sorted(canonical_print(t) for t in infer_inhabitants((), goal, 4))
        inference_ok = inference_ok and got == expected

    pairs = [
        (f_kite, f_kite),
        (g_on_a, h_on_a),
        (h_on_a, g_on_a),
        (g_on_b, g_on_b),
        (hom_cov_functor(kite, "1"), f_kite),
    ]
    nattrans_ok = True
    for source, target in pairs:
        oracle = set(product_filter_nattrans(source, target))
        library = {
            nattrans_table_key(t)
            for t in enumerate_nattrans_finset(source, target, 100_000)
        }
        nattrans_ok = nattrans_ok and oracle == library
    ok = inference_ok and nattrans_ok
    _line(9, ok, f"{len(goals)} inference goals at depth 4 and {len(pairs)} transformation sets match oracles")
