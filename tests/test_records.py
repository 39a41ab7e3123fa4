"""Record semantics of every fincat value class: value equality within one
class, a hash that agrees with it, immutability, the ``Name(field=value)``
repr, copying and pickling of term and type nodes, and the checks that
some constructors make."""

import copy
import pickle

import pytest
from helpers import SeededContext

from fincat.adjunction import AdjunctionVal
from fincat.cli import RunConfig
from fincat.core import FINSET, CheckReport, FinCat, FunctorVal, NatTransVal, Obligation, _TableIndex
from fincat.diagram import (
    Arrow,
    DefDecl,
    DiagramAst,
    EvalTrace,
    FunctorDecl,
    LayerDecl,
    MacroDecl,
    Model,
    Node,
    NonCommute,
    Stage,
)
from fincat.files import AdjParts, ModelSpec
from fincat.finset import FinSetMap, FinSetObj
from fincat.record import Record
from fincat.terms import (
    App,
    Const,
    DeltaRule,
    GraphReport,
    Lam,
    Pair,
    PatLit,
    PatVar,
    Proj,
    ReductionGraph,
    TyArrow,
    TyAtom,
    TyProd,
    Var,
    _Token,
)
from fincat.yoneda import HomContext

A, B = TyAtom("A"), TyAtom("B")
X, Y = Var("x"), Const("1")
POINT, PAIR = FinSetObj(("*",)), FinSetObj((0, 1))


def _discrete(*objects):
    return FinCat(
        objects,
        {f"id_{o}": (o, o) for o in objects},
        {o: f"id_{o}" for o in objects},
        {(f"id_{o}", f"id_{o}"): f"id_{o}" for o in objects},
    )


AB, BA = _discrete("a", "b"), _discrete("b", "a")
F = FunctorVal(AB, AB, {"a": "a", "b": "b"}, {"id_a": "id_a", "id_b": "id_b"})
G = FunctorVal(
    BA,
    FINSET,
    {"a": POINT, "b": POINT},
    {"id_a": FinSetMap(POINT, POINT, ("*",)), "id_b": FinSetMap(POINT, POINT, ("*",))},
)
ETA = NatTransVal(F, F, {"a": "id_a", "b": "id_b"})
EPS = NatTransVal(G, G, {"a": FinSetMap(POINT, POINT, ("*",))})

# Two records of each class, differing in every field, such that either's
# value of any one field is valid in the other; then the text the first
# reprs as, which is the text fincat's earlier dataclass records gave, and
# whether it can be hashed.
SAMPLES = [
    (
        TyAtom("A"),
        TyAtom("B"),
        "TyAtom(name='A')",
        True,
    ),
    (
        TyArrow(A, B),
        TyArrow(B, A),
        "TyArrow(src=TyAtom(name='A'), dst=TyAtom(name='B'))",
        True,
    ),
    (
        TyProd(A, B),
        TyProd(B, A),
        "TyProd(left=TyAtom(name='A'), right=TyAtom(name='B'))",
        True,
    ),
    (
        Var("x"),
        Var("y"),
        "Var(name='x')",
        True,
    ),
    (
        Const("1"),
        Const("g"),
        "Const(name='1')",
        True,
    ),
    (
        Lam("x", A, X),
        Lam("y", B, Y),
        "Lam(var='x', ty=TyAtom(name='A'), body=Var(name='x'))",
        True,
    ),
    (
        App(X, Y),
        App(Y, X),
        "App(fn=Var(name='x'), arg=Const(name='1'))",
        True,
    ),
    (
        Pair(X, Y),
        Pair(Y, X),
        "Pair(left=Var(name='x'), right=Const(name='1'))",
        True,
    ),
    (
        Proj(1, X),
        Proj(2, Y),
        "Proj(index=1, body=Var(name='x'))",
        True,
    ),
    (
        _Token("ident", "f", 1, 2),
        _Token("sym", "(", 3, 4),
        "_Token(kind='ident', text='f', line=1, col=2)",
        True,
    ),
    (
        PatVar("x"),
        PatVar("y"),
        "PatVar(name='x')",
        True,
    ),
    (
        PatLit("0"),
        PatLit("1"),
        "PatLit(const='0')",
        True,
    ),
    (
        DeltaRule("g", (PatVar("x"),), X),
        DeltaRule("h", (PatLit("0"), PatVar("y")), Y),
        "DeltaRule(head='g', patterns=(PatVar(name='x'),), rhs=Var(name='x'))",
        True,
    ),
    (
        ReductionGraph("x", {"x": X}, {"x": ()}, ("x",), False, A),
        ReductionGraph("1", {"1": Y}, {}, (), True, B),
        "ReductionGraph(root='x', nodes={'x': Var(name='x')}, edges={'x': ()}, "
        "normal_forms=('x',), truncated=False, term_type=TyAtom(name='A'))",
        False,
    ),
    (
        GraphReport(True, True, True, False, 1, ("x",)),
        GraphReport(None, None, None, True, 9, ()),
        'GraphReport(terminating=True, unique_nf=True, locally_confluent_on_graph=True, '
        "truncated=False, node_count=1, normal_forms=('x',))",
        True,
    ),
    (
        Obligation("assoc", False, ("w",)),
        Obligation("unit", True, ("v",)),
        "Obligation(name='assoc', passed=False, witness=('w',))",
        True,
    ),
    (
        CheckReport("cat", (Obligation("unit", True),)),
        CheckReport("fun", ()),
        "CheckReport(subject='cat', obligations=(Obligation(name='unit', passed=True, "
        'witness=()),))',
        True,
    ),
    (
        _TableIndex(("id_a",), {("a", "a"): ("id_a",)}, {"a": ("id_a",)}, frozenset("a")),
        _TableIndex((), {}, {}, frozenset()),
        "_TableIndex(morphisms=('id_a',), hom={('a', 'a'): ('id_a',)}, "
        "out_arrows={'a': ('id_a',)}, objects=frozenset({'a'}))",
        False,
    ),
    (
        _discrete("a"),
        _discrete("b"),
        "FinCat(objects=('a',), morphisms={'id_a': ('a', 'a')}, identity={'a': 'id_a'}, "
        "compose={('id_a', 'id_a'): 'id_a'})",
        False,
    ),
    (
        FunctorVal(_discrete("a"), _discrete("a"), {"a": "a"}, {"id_a": "id_a"}),
        G,
        "FunctorVal(source=FinCat(objects=('a',), morphisms={'id_a': ('a', 'a')}, "
        "identity={'a': 'id_a'}, compose={('id_a', 'id_a'): 'id_a'}), "
        "target=FinCat(objects=('a',), morphisms={'id_a': ('a', 'a')}, identity={'a': 'id_a'}, "
        "compose={('id_a', 'id_a'): 'id_a'}), object_map={'a': 'a'}, "
        "morphism_map={'id_a': 'id_a'})",
        False,
    ),
    (
        NatTransVal(G, G, {"a": FinSetMap(POINT, POINT, ("*",))}),
        NatTransVal(F, F, {}),
        "NatTransVal(F=FunctorVal(source=FinCat(objects=('b', 'a'), morphisms={'id_b': ('b', "
        "'b'), 'id_a': ('a', 'a')}, identity={'b': 'id_b', 'a': 'id_a'}, compose={('id_b', "
        "'id_b'): 'id_b', ('id_a', 'id_a'): 'id_a'}), target=FinSetCat, object_map={'a': {*}, "
        "'b': {*}}, morphism_map={'id_a': {*->*}, 'id_b': {*->*}}), "
        "G=FunctorVal(source=FinCat(objects=('b', 'a'), morphisms={'id_b': ('b', 'b'), "
        "'id_a': ('a', 'a')}, identity={'b': 'id_b', 'a': 'id_a'}, compose={('id_b', "
        "'id_b'): 'id_b', ('id_a', 'id_a'): 'id_a'}), target=FinSetCat, object_map={'a': {*}, "
        "'b': {*}}, morphism_map={'id_a': {*->*}, 'id_b': {*->*}}), components={'a': {*->*}})",
        False,
    ),
    (
        AdjunctionVal(F, F, ETA, ETA, {("a", "a"): {"id_a": "id_a"}}, {}),
        AdjunctionVal(G, G, EPS, EPS, {}, {("b", "b"): {}}),
        "AdjunctionVal(left=FunctorVal(source=FinCat(objects=('a', 'b'), "
        "morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, identity={'a': 'id_a', "
        "'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', 'id_b'): 'id_b'}), "
        "target=FinCat(objects=('a', 'b'), morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, "
        "identity={'a': 'id_a', 'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', "
        "'id_b'): 'id_b'}), object_map={'a': 'a', 'b': 'b'}, morphism_map={'id_a': 'id_a', "
        "'id_b': 'id_b'}), right=FunctorVal(source=FinCat(objects=('a', 'b'), "
        "morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, identity={'a': 'id_a', "
        "'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', 'id_b'): 'id_b'}), "
        "target=FinCat(objects=('a', 'b'), morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, "
        "identity={'a': 'id_a', 'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', "
        "'id_b'): 'id_b'}), object_map={'a': 'a', 'b': 'b'}, morphism_map={'id_a': 'id_a', "
        "'id_b': 'id_b'}), unit=NatTransVal(F=FunctorVal(source=FinCat(objects=('a', 'b'), "
        "morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, identity={'a': 'id_a', "
        "'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', 'id_b'): 'id_b'}), "
        "target=FinCat(objects=('a', 'b'), morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, "
        "identity={'a': 'id_a', 'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', "
        "'id_b'): 'id_b'}), object_map={'a': 'a', 'b': 'b'}, morphism_map={'id_a': 'id_a', "
        "'id_b': 'id_b'}), G=FunctorVal(source=FinCat(objects=('a', 'b'), "
        "morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, identity={'a': 'id_a', "
        "'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', 'id_b'): 'id_b'}), "
        "target=FinCat(objects=('a', 'b'), morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, "
        "identity={'a': 'id_a', 'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', "
        "'id_b'): 'id_b'}), object_map={'a': 'a', 'b': 'b'}, morphism_map={'id_a': 'id_a', "
        "'id_b': 'id_b'}), components={'a': 'id_a', 'b': 'id_b'}), "
        "counit=NatTransVal(F=FunctorVal(source=FinCat(objects=('a', 'b'), "
        "morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, identity={'a': 'id_a', "
        "'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', 'id_b'): 'id_b'}), "
        "target=FinCat(objects=('a', 'b'), morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, "
        "identity={'a': 'id_a', 'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', "
        "'id_b'): 'id_b'}), object_map={'a': 'a', 'b': 'b'}, morphism_map={'id_a': 'id_a', "
        "'id_b': 'id_b'}), G=FunctorVal(source=FinCat(objects=('a', 'b'), "
        "morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, identity={'a': 'id_a', "
        "'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', 'id_b'): 'id_b'}), "
        "target=FinCat(objects=('a', 'b'), morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, "
        "identity={'a': 'id_a', 'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', "
        "'id_b'): 'id_b'}), object_map={'a': 'a', 'b': 'b'}, morphism_map={'id_a': 'id_a', "
        "'id_b': 'id_b'}), components={'a': 'id_a', 'b': 'id_b'}), flat={('a', "
        "'a'): {'id_a': 'id_a'}}, sharp={})",
        False,
    ),
    (
        HomContext(AB, G, POINT, "a"),
        HomContext(BA, F, PAIR, "b"),
        "HomContext(category=FinCat(objects=('a', 'b'), morphisms={'id_a': ('a', 'a'), "
        "'id_b': ('b', 'b')}, identity={'a': 'id_a', 'b': 'id_b'}, compose={('id_a', "
        "'id_a'): 'id_a', ('id_b', 'id_b'): 'id_b'}), "
        "set_functor=FunctorVal(source=FinCat(objects=('b', 'a'), morphisms={'id_b': ('b', "
        "'b'), 'id_a': ('a', 'a')}, identity={'b': 'id_b', 'a': 'id_a'}, compose={('id_b', "
        "'id_b'): 'id_b', ('id_a', 'id_a'): 'id_a'}), target=FinSetCat, object_map={'a': {*}, "
        "'b': {*}}, morphism_map={'id_a': {*->*}, 'id_b': {*->*}}), probe={*}, anchor='a')",
        False,
    ),
    (
        AdjParts("full", "x.adj", F, G, {"a": "id_a"}, {"a": "id_a"}, {}),
        AdjParts("build", "y.adj", G, None, {}, {}, {"a": "b"}),
        "AdjParts(kind='full', path='x.adj', right=FunctorVal(source=FinCat(objects=('a', "
        "'b'), morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, identity={'a': 'id_a', "
        "'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', 'id_b'): 'id_b'}), "
        "target=FinCat(objects=('a', 'b'), morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, "
        "identity={'a': 'id_a', 'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', "
        "'id_b'): 'id_b'}), object_map={'a': 'a', 'b': 'b'}, morphism_map={'id_a': 'id_a', "
        "'id_b': 'id_b'}), left=FunctorVal(source=FinCat(objects=('b', 'a'), "
        "morphisms={'id_b': ('b', 'b'), 'id_a': ('a', 'a')}, identity={'b': 'id_b', "
        "'a': 'id_a'}, compose={('id_b', 'id_b'): 'id_b', ('id_a', 'id_a'): 'id_a'}), "
        "target=FinSetCat, object_map={'a': {*}, 'b': {*}}, morphism_map={'id_a': {*->*}, "
        "'id_b': {*->*}}), unit={'a': 'id_a'}, counit={'a': 'id_a'}, lobjects={})",
        False,
    ),
    (
        ModelSpec("x.model", {"L": AB}, {}, {"a": "0"}, {}),
        ModelSpec("y.model", {}, {("L", "S"): F}, {}, {"S": (POINT,)}),
        "ModelSpec(path='x.model', layers={'L': FinCat(objects=('a', 'b'), "
        "morphisms={'id_a': ('a', 'a'), 'id_b': ('b', 'b')}, identity={'a': 'id_a', "
        "'b': 'id_b'}, compose={('id_a', 'id_a'): 'id_a', ('id_b', 'id_b'): 'id_b'})}, "
        "functors={}, binds={'a': '0'}, carriers={})",
        False,
    ),
    (
        LayerDecl("L", "chain2.fincat"),
        LayerDecl("S", "Set"),
        "LayerDecl(id='L', category='chain2.fincat')",
        True,
    ),
    (
        FunctorDecl("F", "L", "Set", "F"),
        FunctorDecl("G", "M", "L", "G"),
        "FunctorDecl(id='F', src_layer='L', dst_layer='Set', label='F')",
        True,
    ),
    (
        Node("a", "L", "A"),
        Node("b", "M", "B", "forall", 1, ("m",)),
        "Node(id='a', layer='L', label='A', quantifier=None, stage=None, uses=())",
        True,
    ),
    (
        Arrow("f", "hom", "a", "b", "f"),
        Arrow("g", "mapsto", "b", "a", "g", "exists", 2, ("m",)),
        "Arrow(id='f', kind='hom', src='a', dst='b', label='f', quantifier=None, stage=None, "
        'uses=())',
        True,
    ),
    (
        NonCommute(("f",), ("g",)),
        NonCommute(("g", "h"), ()),
        "NonCommute(left=('f',), right=('g',))",
        True,
    ),
    (
        DefDecl("d", "text"),
        DefDecl("e", "other"),
        "DefDecl(id='d', text='text')",
        True,
    ),
    (
        MacroDecl("m", (Node("a", "L", "A"),)),
        MacroDecl("n", ()),
        "MacroDecl(name='m', body=(Node(id='a', layer='L', label='A', quantifier=None, "
        'stage=None, uses=()),))',
        True,
    ),
    (
        DiagramAst((LayerDecl("L", "x"),)),
        DiagramAst(),
        "DiagramAst(decls=(LayerDecl(id='L', category='x'),))",
        True,
    ),
    (
        Stage(0, None, DiagramAst(), ()),
        Stage(1, "forall", DiagramAst((LayerDecl("L", "x"),)), ("a",)),
        'Stage(index=0, quantifier=None, diagram=DiagramAst(decls=()), new_elements=())',
        True,
    ),
    (
        Model({"L": AB}, {}, {"a": "a"}),
        Model({}, {("L", "L"): F}, {}, {"S": (POINT,)}),
        "Model(layers={'L': FinCat(objects=('a', 'b'), morphisms={'id_a': ('a', 'a'), "
        "'id_b': ('b', 'b')}, identity={'a': 'id_a', 'b': 'id_b'}, compose={('id_a', "
        "'id_a'): 'id_a', ('id_b', 'id_b'): 'id_b'})}, functors={}, binds={'a': 'a'}, "
        'carriers={})',
        False,
    ),
    (
        EvalTrace(0, None, True, "all bindings commute"),
        EvalTrace(1, "forall", False, "counterexample", (("a", "0"),), EvalTrace(2, None, True, "x")),
        "EvalTrace(stage=0, quantifier=None, outcome=True, note='all bindings commute', "
        'assignment=(), child=None)',
        True,
    ),
    (
        RunConfig("check-cat", ("x.fincat",)),
        RunConfig("eval", ("y.diag",), 7, "graph", {"model": "m"}),
        "RunConfig(subcommand='check-cat', paths=('x.fincat',), cap=1000000, fmt='report', "
        'options={})',
        False,
    ),
]

NODES = [(a, b) for a, b, _text, _hashable in SAMPLES if isinstance(a, (TyAtom, TyArrow, TyProd))]
NODES += [(a, b) for a, b, _text, _hashable in SAMPLES if isinstance(a, (Var, Const, Lam, App, Pair, Proj))]


def _ids(samples):
    return [type(s[0]).__name__ for s in samples]


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("fincat.") and sub._fields:
            yield sub
        yield from _record_classes(sub)


def test_every_record_class_has_samples():
    assert {type(a) for a, *_ in SAMPLES} == set(_record_classes())
    assert len(SAMPLES) == 37


@pytest.mark.parametrize("a, b, text, hashable", SAMPLES, ids=_ids(SAMPLES))
def test_value_equality_within_one_class(a, b, text, hashable):
    rebuilt = type(a)(*(getattr(a, name) for name in a._fields))
    assert rebuilt == a and not rebuilt != a and rebuilt is not a
    assert a.replace() == a
    assert a != b
    for name in a._fields:
        changed = a.replace(**{name: getattr(b, name)})
        assert changed != a and not changed == a, name
        assert getattr(changed, name) is getattr(b, name)
    for other, *_ in SAMPLES:
        if type(other) is not type(a):
            assert a != other and not a == other


@pytest.mark.parametrize(
    "a, b",
    [
        (Var("x"), Const("x")),
        (PatVar("x"), PatLit("x")),
        (TyArrow(A, B), TyProd(A, B)),
        (App(X, Y), Pair(X, Y)),
        (LayerDecl("d", "C"), DefDecl("d", "C")),
        (HomContext(AB, G, POINT, "a"), SeededContext(AB, G, POINT, "a")),
    ],
)
def test_equal_fields_of_different_classes_are_different_values(a, b):
    values = [getattr(a, name) for name in a._fields]
    assert [getattr(b, name) for name in b._fields][: len(values)] == values
    assert a != b and b != a and not a == b


@pytest.mark.parametrize("a, b, text, hashable", SAMPLES, ids=_ids(SAMPLES))
def test_hash_agrees_with_equality(a, b, text, hashable):
    if not hashable:
        with pytest.raises(TypeError):
            hash(a)
        return
    rebuilt = type(a)(*(getattr(a, name) for name in a._fields))
    assert hash(rebuilt) == hash(a) == hash(a.replace())
    assert len({a, rebuilt, b}) == 2


@pytest.mark.parametrize("a, b, text, hashable", SAMPLES, ids=_ids(SAMPLES))
def test_records_are_immutable(a, b, text, hashable):
    for name in a._fields:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.not_a_field = 1


@pytest.mark.parametrize("a, b, text, hashable", SAMPLES, ids=_ids(SAMPLES))
def test_repr_is_the_old_dataclass_text(a, b, text, hashable):
    assert repr(a) == text


@pytest.mark.parametrize("a, b", NODES, ids=_ids(NODES))
def test_nodes_survive_copy_and_pickle(a, b):
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a)
        assert twin == a and hash(twin) == hash(a)
        assert twin != b


def test_replace_and_construction_reject_unknown_or_missing_fields():
    with pytest.raises(TypeError):
        Obligation("unit", True).replace(verdict=True)
    with pytest.raises(TypeError):
        Node("a", "L")  # no label
    with pytest.raises(TypeError):
        Node("a", "L", "A", None, None, (), "extra")
    with pytest.raises(TypeError):
        Node("a", "L", "A", id="b")
    with pytest.raises(TypeError):
        DefDecl("d", "text", body="x")


def test_dict_defaults_are_not_shared():
    first, second = RunConfig("check-cat"), RunConfig("check-cat")
    assert first.options == second.options == {} and first.options is not second.options
    parts = AdjParts("build", "x.adj", F)
    assert (parts.left, parts.unit, parts.counit, parts.lobjects) == (None, {}, {}, {})
    assert parts.unit is not AdjParts("build", "x.adj", F).unit
    assert Model({}, {}, {}).carriers == {}


def test_constructor_checks_still_raise():
    with pytest.raises(ValueError, match="projection index"):
        Proj(3, X)
    with pytest.raises(ValueError, match="projection index"):
        Proj(1, X).replace(index=0)
    with pytest.raises(ValueError, match="needs a witness"):
        Obligation("unit", False)
    with pytest.raises(ValueError, match="needs a witness"):
        Obligation("unit", True).replace(passed=False)
    with pytest.raises(ValueError, match="cap must be positive"):
        RunConfig("kan", cap=0)
    with pytest.raises(ValueError, match="unknown output format"):
        RunConfig("kan", fmt="xml")
    with pytest.raises(ValueError, match="not an object"):
        HomContext(AB, G, POINT, "c")
    with pytest.raises(ValueError, match="not an object"):
        HomContext(AB, G, POINT, "a").replace(category=_discrete("b"))
