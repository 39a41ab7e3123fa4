"""Category, functor, and transformation law checking on explicit tables."""

import glob
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import enumerate_nattrans_finset
from oracles import comma_under_object, composed_square_failures, elementwise_respects_composition

import fincat
from fincat.core import (
    FINSET,
    BoundaryError,
    FinCat,
    FunctorVal,
    MalformedTableError,
    NatTransVal,
    Obligation,
    compose_functors,
    identity_functor,
    opposite,
    preorder_from_covers,
    validate_category,
    validate_functor,
    validate_nattrans,
)
from fincat.adjunction import assemble_adjunction
from fincat.files import load_adjunction_parts, load_category, load_functor, load_nattrans
from fincat.finset import (
    FinSetMap,
    FinSetObj,
    compose_maps,
    identity_map,
)

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

CATEGORY_SIZES = {
    "kite.fincat": (5, 14),
    "chain2.fincat": (2, 3),
    "chain3.fincat": (3, 6),
    "monoid_e.fincat": (1, 2),
    "a4.fincat": (4, 6),
    "b6.fincat": (6, 17),
    "disc2.fincat": (2, 2),
}


@pytest.mark.parametrize("name", sorted(CATEGORY_SIZES))
def test_bundled_categories_pass_all_laws(fix, name):
    cat = load_category(fix(name))
    objects, morphisms = CATEGORY_SIZES[name]
    assert len(cat.objects) == objects
    assert len(cat.morphisms) == morphisms
    report = validate_category(cat)
    assert report.passed, report.summary()
    assert [o.name for o in report.obligations] == [
        "coherence",
        "totality",
        "associativity",
        "left_identity",
        "right_identity",
    ]


BROKEN_CATEGORIES = {
    "bad_coherence.fincat": "coherence",
    "bad_assoc.fincat": "associativity",
    "bad_idl.fincat": "left_identity",
    "bad_idr.fincat": "right_identity",
}


@pytest.mark.parametrize("name", sorted(BROKEN_CATEGORIES))
def test_mutated_category_fails_targeted_law_with_witness(fix, name):
    report = validate_category(load_category(fix("broken", name)))
    assert not report.passed
    failing = report.obligation(BROKEN_CATEGORIES[name])
    assert not failing.passed
    assert failing.witness


def test_associativity_witness_is_replayable(fix):
    cat = load_category(fix("broken", "bad_assoc.fincat"))
    witness = validate_category(cat).obligation("associativity").witness
    h, g, f, left, right = witness
    assert cat.comp(h, cat.comp(g, f)) == left
    assert cat.comp(cat.comp(h, g), f) == right
    assert left != right


def test_bundled_functors_pass(fix):
    for name in (
        "f_kite.fun",
        "g_on_a.fun",
        "g_on_b.fun",
        "h_on_a.fun",
        "incl_a4_b6.fun",
        "incl_p_q.fun",
        "trunc_q_p.fun",
        "id_monoid.fun",
        "incl_disc2_p.fun",
    ):
        report = validate_functor(load_functor(fix(name)))
        assert report.passed, (name, report.summary())


@pytest.mark.parametrize(
    "name,law",
    [
        ("f_kite_bad_respids.fun", "respects_identities"),
        ("f_kite_bad_respcomp.fun", "respects_composition"),
    ],
)
def test_mutated_functor_fails_targeted_law(fix, name, law):
    report = validate_functor(load_functor(fix("broken", name)))
    assert not report.passed
    failing = report.obligation(law)
    assert not failing.passed and failing.witness


def test_identity_transformation_passes_and_mutant_fails(fix):
    assert validate_nattrans(load_nattrans(fix("id_fkite.nt"))).passed
    report = validate_nattrans(load_nattrans(fix("broken", "f_kite_bad_sqcond.nt")))
    assert not report.passed
    failing = report.obligation("square_condition")
    assert not failing.passed and failing.witness


# ---------------------------------------------------------------------------
# Structural constructions
# ---------------------------------------------------------------------------


@st.composite
def cover_relations(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    objects = [f"o{i}" for i in range(size)]
    covers = []
    for lower in range(size):
        for upper in range(lower + 1, size):
            if draw(st.booleans()):
                covers.append((objects[lower], objects[upper]))
    return objects, covers


@given(cover_relations())
@settings(max_examples=60, deadline=None)
def test_preorder_closure_is_a_lawful_thin_category(data):
    objects, covers = data
    cat = preorder_from_covers(objects, covers)
    assert validate_category(cat).passed
    for x in cat.objects:
        for y in cat.objects:
            assert len(cat.hom(x, y)) <= 1


@given(cover_relations())
@settings(max_examples=40, deadline=None)
def test_opposite_is_an_involution(data):
    objects, covers = data
    cat = preorder_from_covers(objects, covers)
    assert opposite(opposite(cat)) == cat
    assert validate_category(opposite(cat)).passed


def test_opposite_swaps_hom_sets(kite):
    op = opposite(kite)
    for x in kite.objects:
        for y in kite.objects:
            assert sorted(kite.hom(x, y)) == sorted(op.hom(y, x))


def test_functor_composition_and_identity(fix):
    incl = load_functor(fix("incl_p_q.fun"))
    trunc = load_functor(fix("trunc_q_p.fun"))
    roundtrip = compose_functors(trunc, incl)
    ident = identity_functor(incl.source)
    assert roundtrip.object_map == ident.object_map
    assert roundtrip.morphism_map == ident.morphism_map
    assert validate_functor(roundtrip).passed


def test_composition_beyond_set_values_is_rejected(fix, f_kite):
    with pytest.raises(BoundaryError):
        compose_functors(f_kite, f_kite)


def test_comma_under_object_shapes(incl_a4_b6):
    cat, forget = comma_under_object("1", incl_a4_b6, orientation="under")
    assert len(cat.objects) == 4  # one triangle per object of the source
    assert validate_category(cat).passed
    assert validate_functor(forget).passed
    empty, _ = comma_under_object("6", incl_a4_b6, orientation="under")
    assert len(empty.objects) == 0

    over, _ = comma_under_object("6", incl_a4_b6, orientation="over")
    assert len(over.objects) == 4
    none_over, _ = comma_under_object("1", incl_a4_b6, orientation="over")
    assert len(none_over.objects) == 0


def test_comma_objects_are_their_pairs_and_morphisms_their_triples(incl_a4_b6):
    cat, forget = comma_under_object("1", incl_a4_b6, orientation="under")
    assert list(cat.objects) == sorted(cat.objects)
    for obj in cat.objects:
        carried, phi = obj
        assert forget.object_map[obj] == carried
        assert phi in incl_a4_b6.target.hom("1", incl_a4_b6.object_map[carried])
        assert cat.id_of(obj) == (incl_a4_b6.source.id_of(carried), obj, obj)
    for m, (o1, o2) in cat.morphisms.items():
        assert m == (forget.morphism_map[m], o1, o2)


def _with_identities(objects, morphisms):
    """A FinCat whose only composites are the identity ones."""
    identity = {x: f"id_{x}" for x in objects}
    morphisms = {**morphisms, **{i: (x, x) for x, i in identity.items()}}
    compose = {}
    for m, (d, c) in morphisms.items():
        compose[(identity[c], m)] = m
        compose[(m, identity[d])] = m
    return FinCat(tuple(objects), morphisms, identity, compose)


def test_comma_keeps_identifiers_with_commas_apart():
    # Built by hand: the fixture loader refuses these names outright.  As
    # text, (a, "p,q") and ("a,p", q) would both print "(a,p,q)".
    big = _with_identities(["a", "a,p", "b"], {"p,q": ("b", "a"), "q": ("b", "a,p")})
    assert validate_category(big).passed
    small = _with_identities(["a", "a,p"], {})
    incl = FunctorVal(
        small, big, {x: x for x in small.objects}, {m: m for m in small.morphisms}
    )
    assert validate_functor(incl).passed
    cat, forget = comma_under_object("b", incl, orientation="under")
    assert cat.objects == (("a", "p,q"), ("a,p", "q"))
    assert validate_category(cat).passed
    assert validate_functor(forget).passed


def test_malformed_tables_raise_before_law_checking():
    broken = FinCat(
        objects=("a",),
        morphisms={"f": ("a", "missing")},
        identity={"a": "f"},
        compose={},
    )
    with pytest.raises(MalformedTableError):
        validate_category(broken)


def test_functor_into_sets_requires_set_objects(kite):
    bad = FunctorVal(kite, FINSET, {x: x for x in kite.objects}, {})
    with pytest.raises(MalformedTableError):
        validate_functor(bad)


@pytest.mark.parametrize("valued", ["table", "finset"])
def test_uncomposable_images_fail_respects_composition(fix, valued):
    # 0->1 goes to an endo-arrow on the image of 0, so id_1 after it has no composite.
    chain2 = load_category(fix("chain2.fincat"))
    if valued == "table":
        target, objects = chain2, {"0": "0", "1": "1"}
        arrows = {"0->1": "id_0", "id_0": "id_0", "id_1": "id_1"}
    else:
        a, b = FinSetObj(("a",)), FinSetObj(("b",))
        target, objects = FINSET, {"0": a, "1": b}
        arrows = {"0->1": identity_map(a), "id_0": identity_map(a), "id_1": identity_map(b)}
    report = validate_functor(FunctorVal(chain2, target, objects, arrows))
    assert report.obligation("typing").witness[0] == "0->1"
    assert report.obligation("respects_composition").witness == (
        "id_1",
        "0->1",
        "image not composable",
    )


def _set_bends(image):
    """Other images for one morphism of a set-valued functor: its values
    permuted, same ends; the same values with a relabelled copy of the
    domain, or with the codomain atoms outside the values relabelled, so
    that only the ends differ; and the codomain relabelled with the values,
    so that it meets none of the domains it met."""
    values = image.values
    rotated = values[1:] + values[:1]
    if rotated != values:
        yield FinSetMap(image.dom, image.cod, rotated)
    if image.dom:
        yield FinSetMap(_relabelled(image.dom), image.cod, values)
    kept = set(values)
    if len(kept) < len(image.cod):
        cod = FinSetObj([*kept, *_relabelled(b for b in image.cod if b not in kept)])
        assert len(cod) == len(image.cod)
        yield FinSetMap(image.dom, cod, values)
    if image.cod:
        yield FinSetMap(image.dom, _relabelled(image.cod), (f"r{b}" for b in values))


def _functors_to_compare(fix, tmp_path):
    """Bundled and broken functors, the truncations of a ``tables`` pass
    (mutated ones included), every functor obtained from a table-valued
    bundled one by sending one morphism to another of the target, and every
    functor obtained from a set-valued bundled or broken one by bending the
    image of one morphism (``_set_bends``)."""
    sys.path.insert(0, PERFBENCH)
    try:
        import gen
    finally:
        sys.path.remove(PERFBENCH)
    cases = gen.build("tables", 1, str(tmp_path), fix(""))
    bundled = sorted(glob.glob(fix("*.fun")) + glob.glob(fix("broken", "*.fun")))
    generated = [c.argv[1] for c in cases if c.argv[0] == "check-fun"]
    assert any("_bad" in path for path in generated)
    for path in bundled + generated:
        functor = load_functor(path)
        yield functor
        if path in generated:
            continue
        for m, image in functor.morphism_map.items():
            if functor.target is FINSET:
                others = _set_bends(image)
            else:
                others = (k for k in sorted(functor.target.morphisms) if k != image)
            for other in others:
                bent = {**functor.morphism_map, m: other}
                yield FunctorVal(functor.source, functor.target, functor.object_map, bent)


def test_composition_witness_is_the_elementwise_scans(fix, tmp_path):
    verdicts = set()
    ends_only = 0
    for functor in _functors_to_compare(fix, tmp_path):
        scan = elementwise_respects_composition(functor)
        ob = validate_functor(functor).obligation("respects_composition")
        assert ob.witness == (scan[0] if scan else ())
        verdicts.add((functor.target is FINSET, ob.passed, len(ob.witness)))
        if functor.target is FINSET and len(ob.witness) == 2:
            g, h = ob.witness
            image, gh = functor.morphism_map, functor.source.compose[(g, h)]
            ends_only += tuple(map(image[g], image[h].values)) == image[gh].values
    # both kinds of target, passing and failing, and images with no composite
    assert {(True, True, 0), (True, False, 2), (False, True, 0), (False, False, 2)} <= verdicts
    assert {(True, False, 3), (False, False, 3)} <= verdicts
    # a set-valued failure where the two sides agree on every value
    assert ends_only


def test_witness_guard_survives_optimised_mode():
    probe = (
        "from fincat.core import Obligation\n"
        "print(__debug__)\n"
        "try:\n"
        "    Obligation('x', False)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(fincat.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-O", "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "False\nfailing obligation 'x' needs a witness\n"


def test_every_exported_name_resolves():
    """In a fresh interpreter, ``import fincat`` resolves every name of
    ``fincat.__all__``, and each module's ``__all__`` names only what it
    defines or imports."""
    probe = (
        "import importlib, fincat\n"
        "missing = [n for n in fincat.__all__ if not hasattr(fincat, n)]\n"
        "for m in ('adjunction', 'cli', 'core', 'diagram', 'files', 'finset', 'terms', 'yoneda'):\n"
        "    module = importlib.import_module('fincat.' + m)\n"
        "    missing += [m + '.' + n for n in getattr(module, '__all__', ()) if not hasattr(module, n)]\n"
        "print(len(fincat.__all__) > 0, missing)\n"
    )
    src = os.path.dirname(os.path.dirname(fincat.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "True []\n"


def test_importing_the_cli_generates_no_code():
    """A one-shot command imports ``fincat.cli`` and nothing that generates
    classes at run time: neither ``dataclasses`` nor the ``inspect`` it
    loads is imported, in a fresh interpreter without ``site``."""
    probe = "import sys, fincat.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    src = os.path.dirname(os.path.dirname(fincat.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\n"


# ---------------------------------------------------------------------------
# Naturality squares read as value tuples, against the composed maps
# ---------------------------------------------------------------------------

SQUARE_ATOMS = (0, 1, 2, 10, "a", "b", "x1")


def _chain_functor(rng, n):
    """A set-valued functor on the n-chain with random, often collapsing,
    cover maps; each composite is the composite of the covers it spans."""
    objects = [str(i) for i in range(n)]
    category = preorder_from_covers(objects, list(zip(objects, objects[1:])))
    values = [FinSetObj(rng.sample(SQUARE_ATOMS, rng.randint(1, 3))) for _ in objects]
    covers = [
        FinSetMap(values[i], values[i + 1], (rng.choice(values[i + 1].atoms) for _ in values[i]))
        for i in range(n - 1)
    ]
    morphism_map = {}
    for m, (a, b) in category.morphisms.items():
        image = identity_map(values[int(a)])
        for i in range(int(a), int(b)):
            image = compose_maps(covers[i], image)
        morphism_map[m] = image
    return FunctorVal(category, FINSET, dict(zip(objects, values)), morphism_map)


def _with_component(t, c, component):
    return NatTransVal(t.F, t.G, {**t.components, c: component})


def _relabelled(atoms):
    return FinSetObj(f"r{a}" for a in atoms)


def _square_subjects(fix):
    """Transformations whose squares pass and fail every way: the bundled
    ``.nt`` files, the unit and counit of the bundled adjunctions with each
    component bent to every other morphism, a square failing at an integer
    and at a token atom, and over pairs of seeded functors on chains up to
    three natural transformations and one random choice of components, each
    with a one-entry mutation, a component with relabelled domain or
    codomain, and a component into another value set."""
    for path in sorted(glob.glob(fix("*.nt")) + glob.glob(fix("broken", "*.nt"))):
        yield load_nattrans(path)
    for name in ("galois.adj", "monoid_bad_counit.adj"):
        adj = assemble_adjunction(load_adjunction_parts(fix(name)))
        for t in (adj.unit, adj.counit):
            yield t
            for c, arrow in t.components.items():
                for other in sorted(t.F.target.morphisms):
                    if other != arrow:
                        yield _with_component(t, c, other)

    yield _mixed_atoms_transformation(fix)

    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(2, 4)
        f, g = _chain_functor(rng, n), _chain_functor(rng, n)
        chosen = {
            c: FinSetMap(v, g.object_map[c], (rng.choice(g.object_map[c].atoms) for _ in v))
            for c, v in f.object_map.items()
        }
        for t in enumerate_nattrans_finset(f, g)[:3] + [NatTransVal(f, g, chosen)]:
            yield t
            c = rng.choice(sorted(t.components))
            alpha = t.components[c]
            values = list(alpha.values)
            i = rng.randrange(len(values))
            others = [b for b in alpha.cod if b != values[i]]
            if others:
                values[i] = rng.choice(others)
                yield _with_component(t, c, FinSetMap(alpha.dom, alpha.cod, values))
            renamed_dom = _relabelled(alpha.dom)
            yield _with_component(t, c, FinSetMap(renamed_dom, alpha.cod, alpha.values))
            renamed_cod = _relabelled(alpha.cod)
            images = (f"r{b}" for b in alpha.values)
            yield _with_component(t, c, FinSetMap(alpha.dom, renamed_cod, images))
            wrong = g.object_map[rng.choice(sorted(g.object_map))]
            if wrong != alpha.cod:
                point = FinSetMap(alpha.dom, wrong, (wrong.atoms[0] for _ in alpha.dom))
                yield _with_component(t, c, point)


def _mixed_atoms_transformation(fix):
    """The identity from a functor on the 2-chain acting as the identity on
    {1, a} to one swapping 1 and a: the square fails at both atoms."""
    chain2 = load_category(fix("chain2.fincat"))
    mixed = FinSetObj((1, "a"))
    ident = identity_map(mixed)

    def acting(image):
        return FunctorVal(
            chain2, FINSET, {"0": mixed, "1": mixed}, {"id_0": ident, "id_1": ident, "0->1": image}
        )

    swap = FinSetMap(mixed, mixed, ("a", 1))
    return NatTransVal(acting(ident), acting(swap), {"0": ident, "1": ident})


def test_a_square_names_its_first_differing_atom_in_domain_order(fix):
    report = validate_nattrans(_mixed_atoms_transformation(fix))
    assert report.obligation("square_condition").witness == ("0->1", 1, "a", 1)


def test_square_witness_is_the_composed_maps_failure(fix):
    kinds = set()
    for t in _square_subjects(fix):
        failures = composed_square_failures(t)
        expected = Obligation("square_condition", not failures, failures[0] if failures else ())
        assert validate_nattrans(t).obligation("square_condition") == expected
        witness = expected.witness
        as_maps = isinstance(witness[-1], FinSetMap) if witness else None
        kinds.add((t.F.target is FINSET, len(witness), as_maps))
    # passing squares, a differing atom, ends that do not compose, and equal
    # values between maps with other ends, for set-valued functors; passing
    # and failing squares of table functors
    assert {
        (True, 0, None),
        (True, 4, False),
        (True, 2, False),
        (True, 3, True),
        (False, 0, None),
        (False, 3, False),
    } <= kinds
