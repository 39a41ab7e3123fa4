"""Commutative-diagram DSL: parsing, staging, checking, and elaboration.

A diagram is a list of declarations:

* ``layer <id> in <name>`` — a plane of nodes, bound to a category name.
* ``functor <id> : <layer> -> <layer> "<label>"`` — a functor typing
  between two layers (the destination may be the builtin ``Set``).
* ``node <id> : <layer> "<label>"`` — an object-level vertex.
* ``arrow <id> : <src> KIND <dst> "<label>"`` — KIND is ``->`` (hom,
  within one layer), ``|->`` (definitional, node-to-node or
  arrow-to-arrow, may cross layers), or ``<->`` (bijection, within one
  layer).  Hom arrows may also connect two functor declarations, which
  types a natural transformation for context listings.
* ``noncommute <path> ; <path>`` — exempts exactly one pair of parallel
  paths (``.``-joined arrow ids) from the everything-commutes default.
* ``def <id> "<text>"`` — an opaque definition line echoed into context
  listings.
* ``macro <name> := { ... }`` — a reusable sub-diagram spliced in by
  :func:`expand_annotation` wherever an element carries ``@use(<name>)``.
  :func:`expand_macros` splices every macro a diagram uses, each once and
  after every macro whose body uses it; macros that use each other are an
  error naming a cycle.

Nodes and hom arrows may carry one stage annotation ``@forall(k)``,
``@exists(k)`` or ``@existsuniq(k)``; bare ``@forall`` means stage 1 and
bare ``@existsuniq`` stage 2, while ``@exists`` always needs an explicit
stage.  Stage numbers must cover a contiguous range ``1..n`` and all
elements of one stage must share one quantifier.

An element's stage is its own annotation (0 when it has none), raised to
the stage of what it depends on: an arrow's ends and, for the target of a
``|->``, that arrow's source.  Stage ``k`` of a diagram is the sub-diagram
of the elements of stage at most ``k``.  An annotated element raised above
its annotation is an error, naming the highest stage it is raised to and,
within it, the first such element in declaration order.

:func:`elaborate_context` prints a diagram as a prose context in one pass,
each line with its ending; functor and arrow typings are shared with
:func:`render_grid`.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

from .core import CheckReport, Obligation, is_thin, require_category, require_functor
from .finset import (
    DEFAULT_ENUM_CAP,
    FINSET,
    CapExceededError,
    EncodingError,
    FinSetMap,
    decode_map,
    encode_map,
    enumerate_maps,
)
from . import files as _files
from .record import Record

__all__ = [
    "DiagramError",
    "DiagramParseError",
    "LayerDecl",
    "FunctorDecl",
    "Node",
    "Arrow",
    "NonCommute",
    "DefDecl",
    "MacroDecl",
    "DiagramAst",
    "Stage",
    "Model",
    "EvalTrace",
    "quantifier_glyph",
    "parse_diagram",
    "render_grid",
    "validate_diagram",
    "extract_stages",
    "build_model",
    "check_commutativity",
    "evaluate_quantified",
    "elaborate_context",
    "expand_annotation",
    "expand_macros",
]

_GLYPHS = {"forall": "∀", "exists": "∃", "existsuniq": "∃!"}


def quantifier_glyph(q: Optional[str]) -> str:
    return _GLYPHS.get(q, "-") if q else "-"


class DiagramError(Exception):
    """Ill-formed diagram, model, or evaluation request."""


class DiagramParseError(DiagramError):
    """Raised on malformed diagram text, with line/column info."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST


class LayerDecl(Record):
    id: str
    category: str


class FunctorDecl(Record):
    id: str
    src_layer: str
    dst_layer: str  # layer id or the builtin "Set"
    label: str


class Node(Record):
    id: str
    layer: str
    label: str
    quantifier: Optional[str] = None
    stage: Optional[int] = None
    uses: tuple = ()


class Arrow(Record):
    id: str
    kind: str  # "hom" | "mapsto" | "bij"
    src: str
    dst: str
    label: str
    quantifier: Optional[str] = None
    stage: Optional[int] = None
    uses: tuple = ()


class NonCommute(Record):
    left: tuple
    right: tuple


class DefDecl(Record):
    id: str
    text: str


class MacroDecl(Record):
    name: str
    body: tuple  # Node/Arrow declarations


class DiagramAst(Record):
    """A diagram as an ordered tuple of declarations.

    The per-kind tables and the set of ``|->`` targets are built once, on
    first use, and returned as read-only views shared by every caller.
    """

    decls: tuple = ()

    @cached_property
    def _tables(self) -> dict:
        kinds = (LayerDecl, FunctorDecl, Node, Arrow, DefDecl, MacroDecl)
        tables: dict = {kind: {} for kind in kinds}
        elements: dict = {}
        for d in self.decls:
            if type(d) in tables:
                tables[type(d)][d.name if isinstance(d, MacroDecl) else d.id] = d
            if isinstance(d, (Node, Arrow)):
                elements[d.id] = d
        tables["elements"] = elements
        views = {key: MappingProxyType(table) for key, table in tables.items()}
        targets = (a.dst for a in tables[Arrow].values() if a.kind == "mapsto")
        return {**views, "mapsto_targets": frozenset(targets)}

    def layers(self) -> Mapping:
        return self._tables[LayerDecl]

    def functors(self) -> Mapping:
        return self._tables[FunctorDecl]

    def nodes(self) -> Mapping:
        return self._tables[Node]

    def arrows(self) -> Mapping:
        return self._tables[Arrow]

    def noncommutes(self) -> tuple:
        return tuple(d for d in self.decls if isinstance(d, NonCommute))

    def defs(self) -> Mapping:
        return self._tables[DefDecl]

    def macros(self) -> Mapping:
        return self._tables[MacroDecl]

    def elements(self) -> Mapping:
        """Nodes and arrows (the stageable elements), keyed by id."""
        return self._tables["elements"]

    def mapsto_targets(self) -> frozenset:
        return self._tables["mapsto_targets"]

    def max_stage(self) -> int:
        return max((e.stage for e in self.elements().values() if e.stage), default=0)


# ---------------------------------------------------------------------------
# Parsing

_ID = r"[A-Za-z_][A-Za-z0-9_']*"
_LAYER_RE = re.compile(rf"^layer\s+({_ID})\s+in\s+(\S+)\s*$")
_FUNCTOR_RE = re.compile(rf'^functor\s+({_ID})\s*:\s*({_ID})\s*->\s*({_ID})\s+"([^"]*)"\s*$')
_NODE_RE = re.compile(rf'^node\s+({_ID})\s*:\s*({_ID})\s+"([^"]*)"\s*(.*)$')
_ARROW_RE = re.compile(
    rf'^arrow\s+({_ID})\s*:\s*({_ID})\s*(\|->|<->|->)\s*({_ID})\s+"([^"]*)"\s*(.*)$'
)
_NONCOMMUTE_RE = re.compile(r"^noncommute\s+(\S+)\s*;\s*(\S+)\s*$")
_DEF_RE = re.compile(rf'^def\s+({_ID})\s+"([^"]*)"\s*$')
_MACRO_OPEN_RE = re.compile(rf"^macro\s+({_ID})\s*:=\s*\{{\s*$")
_ANNOT_RE = re.compile(rf"^@(forall|exists|existsuniq)(?:\((\d+)\))?$|^@use\(({_ID})\)$")

_ARROW_KINDS = {"->": "hom", "|->": "mapsto", "<->": "bij"}
_KIND_TOKENS = {v: k for k, v in _ARROW_KINDS.items()}


def _parse_annotations(trailing: str, lineno: int, line: str):
    quantifier: Optional[str] = None
    stage: Optional[int] = None
    uses: list = []
    for token in trailing.split():
        m = _ANNOT_RE.match(token)
        col = line.find(token) + 1
        if not m:
            raise DiagramParseError(f"bad annotation {token!r}", lineno, col)
        if m.group(3):
            uses.append(m.group(3))
            continue
        if quantifier is not None:
            raise DiagramParseError("multiple stage annotations", lineno, col)
        quantifier = m.group(1)
        if m.group(2) is not None:
            stage = int(m.group(2))
            if stage < 1:
                raise DiagramParseError("stage numbers start at 1", lineno, col)
        elif quantifier == "forall":
            stage = 1  # bonus convention: bare forall is stage 1
        elif quantifier == "existsuniq":
            stage = 2  # bonus convention: bare unique-exists is stage 2
        else:
            raise DiagramParseError("@exists requires an explicit stage number", lineno, col)
    return quantifier, stage, tuple(uses)


def _parse_path(text: str, lineno: int) -> tuple:
    parts = tuple(part for part in text.split(".") if part)
    if not parts:
        raise DiagramParseError(f"empty path in {text!r}", lineno)
    for part in parts:
        if not re.fullmatch(_ID, part):
            raise DiagramParseError(f"bad arrow id {part!r} in path", lineno)
    return parts


def parse_diagram(text: str) -> DiagramAst:
    """Parse diagram source into a checked ``DiagramAst``, in declaration order."""
    decls: list = []
    macro_name: Optional[str] = None
    macro_body: list = []
    macro_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if macro_name is not None:
            if line == "}":
                decls.append(MacroDecl(macro_name, tuple(macro_body)))
                macro_name, macro_body = None, []
                continue
            decl = _parse_element_line(line, lineno)
            if decl is None:
                raise DiagramParseError("only node/arrow lines may appear in a macro", lineno)
            macro_body.append(decl)
            continue
        m = _MACRO_OPEN_RE.match(line)
        if m:
            macro_name, macro_line = m.group(1), lineno
            continue
        m = _LAYER_RE.match(line)
        if m:
            decls.append(LayerDecl(m.group(1), m.group(2)))
            continue
        m = _FUNCTOR_RE.match(line)
        if m:
            decls.append(FunctorDecl(m.group(1), m.group(2), m.group(3), m.group(4)))
            continue
        m = _NONCOMMUTE_RE.match(line)
        if m:
            decls.append(
                NonCommute(_parse_path(m.group(1), lineno), _parse_path(m.group(2), lineno))
            )
            continue
        m = _DEF_RE.match(line)
        if m:
            decls.append(DefDecl(m.group(1), m.group(2)))
            continue
        decl = _parse_element_line(line, lineno)
        if decl is None:
            raise DiagramParseError(f"unrecognized declaration: {line!r}", lineno)
        decls.append(decl)
    if macro_name is not None:
        raise DiagramParseError(f"unclosed macro {macro_name!r}", macro_line)
    ast = DiagramAst(tuple(decls))
    validate_diagram(ast)
    return ast


def _parse_element_line(line: str, lineno: int):
    m = _NODE_RE.match(line)
    if m:
        quantifier, stage, uses = _parse_annotations(m.group(4), lineno, line)
        return Node(m.group(1), m.group(2), m.group(3), quantifier, stage, uses)
    m = _ARROW_RE.match(line)
    if m:
        quantifier, stage, uses = _parse_annotations(m.group(6), lineno, line)
        kind = _ARROW_KINDS[m.group(3)]
        if kind in ("mapsto", "bij") and quantifier is not None:
            raise DiagramParseError(f"{kind} arrows cannot carry stage annotations", lineno)
        return Arrow(m.group(1), kind, m.group(2), m.group(4), m.group(5), quantifier, stage, uses)
    return None


def validate_diagram(ast: DiagramAst) -> None:
    """Re-check every well-formedness invariant; raise DiagramError on failure."""
    seen: set = set()
    for d in ast.decls:
        name = d.name if isinstance(d, MacroDecl) else getattr(d, "id", None)
        if name is None:
            continue
        if name in seen:
            raise DiagramError(f"duplicate identifier {name!r}")
        seen.add(name)

    layers = ast.layers()
    functors = ast.functors()
    nodes = ast.nodes()
    arrows = ast.arrows()

    for f in functors.values():
        if f.src_layer not in layers:
            raise DiagramError(f"functor {f.id!r} references unknown layer {f.src_layer!r}")
        if f.dst_layer != "Set" and f.dst_layer not in layers:
            raise DiagramError(f"functor {f.id!r} references unknown layer {f.dst_layer!r}")
    for n in nodes.values():
        if n.layer not in layers:
            raise DiagramError(f"node {n.id!r} references unknown layer {n.layer!r}")
    for a in arrows.values():
        if a.kind in ("hom", "bij"):
            if a.src in nodes and a.dst in nodes:
                if nodes[a.src].layer != nodes[a.dst].layer:
                    raise DiagramError(f"{a.kind} arrow {a.id!r} crosses layers")
            elif a.kind == "hom" and a.src in functors and a.dst in functors:
                pass  # a natural-transformation typing between functor declarations
            else:
                raise DiagramError(f"arrow {a.id!r} has a dangling endpoint")
        else:  # mapsto
            if a.src in nodes and a.dst in nodes:
                pass
            elif a.src in arrows and a.dst in arrows:
                for end in (a.src, a.dst):
                    if arrows[end].kind != "hom":
                        raise DiagramError(
                            f"mapsto arrow {a.id!r} endpoint {end!r} is not a hom arrow"
                        )
                if a.src == a.id or a.dst == a.id:
                    raise DiagramError(f"mapsto arrow {a.id!r} references itself")
            else:
                raise DiagramError(f"mapsto arrow {a.id!r} must join two nodes or two hom arrows")

    targets = ast.mapsto_targets()
    stages: dict[int, set] = {}
    for e in ast.elements().values():
        if (e.stage is None) != (e.quantifier is None):
            raise DiagramError(f"element {e.id!r} has a stage without a quantifier or vice versa")
        if e.stage is not None:
            if e.id in targets:
                raise DiagramError(
                    f"element {e.id!r} is a mapsto target (definitional) and "
                    f"cannot carry a stage annotation"
                )
            stages.setdefault(e.stage, set()).add(e.quantifier)
    if stages:
        want = set(range(1, max(stages) + 1))
        if set(stages) != want:
            raise DiagramError(f"stage numbers {sorted(stages)} are not contiguous from 1")
        for k, quants in stages.items():
            if len(quants) > 1:
                raise DiagramError(f"stage {k} mixes quantifiers {sorted(quants)}")

    for nc in ast.noncommutes():
        for path in (nc.left, nc.right):
            for arrow_id in path:
                if arrow_id not in arrows or arrows[arrow_id].kind == "mapsto":
                    raise DiagramError(f"noncommute path mentions non-hom arrow {arrow_id!r}")
            for prev, nxt in zip(path, path[1:]):
                if arrows[prev].dst != arrows[nxt].src:
                    raise DiagramError(
                        f"noncommute path {'.'.join(path)} is not a connected chain"
                    )
        left, right = nc.left, nc.right
        if (arrows[left[0]].src, arrows[left[-1]].dst) != (
            arrows[right[0]].src,
            arrows[right[-1]].dst,
        ):
            raise DiagramError("noncommute paths do not share endpoints")

    for macro in ast.macros().values():
        local: set = set()
        for d in macro.body:
            if d.id in local:
                raise DiagramError(f"macro {macro.name!r} declares {d.id!r} twice")
            local.add(d.id)


# ---------------------------------------------------------------------------
# Rendering


def render_grid(ast: DiagramAst) -> str:
    """Deterministic plain-text rendering: layers as columns, then arrow lists."""
    layers = list(ast.layers().values())
    nodes = ast.nodes()
    columns: list = []
    for layer in layers:
        rows = [f"[{layer.id}] {layer.category}"]
        for n in nodes.values():
            if n.layer == layer.id:
                rows.append(f"{n.label}{_annot_suffix(n)}")
        columns.append(rows)
    height = max((len(c) for c in columns), default=0)
    widths = [max((len(r) for r in rows), default=0) for rows in columns]
    lines = []
    for i in range(height):
        cells = [
            (columns[j][i] if i < len(columns[j]) else "").ljust(widths[j])
            for j in range(len(columns))
        ]
        lines.append(("   | ".join(cells)).rstrip())
    for title, kind in (("arrows:", "hom"), ("bijections:", "bij"), ("mapsto:", "mapsto")):
        items = [a for a in ast.arrows().values() if a.kind == kind]
        if not items:
            continue
        lines.append(title)
        lines += [f"  {_arrow_typing(ast, a)}{_annot_suffix(a)}" for a in items]
    if ast.functors():
        lines.append("functors:")
        lines += [f"  {_functor_typing(ast, f)}" for f in ast.functors().values()]
    defs = list(ast.defs().values())
    if defs:
        lines.append("where:")
        for d in defs:
            lines.append(f"  {d.text}")
    for nc in ast.noncommutes():
        lines.append(f"noncommute: {'.'.join(nc.left)} ; {'.'.join(nc.right)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _annot_suffix(e) -> str:
    return f"  [{quantifier_glyph(e.quantifier)}{e.stage}]" if e.quantifier else ""


def _functor_typing(ast: DiagramAst, f: FunctorDecl) -> str:
    src = ast.layers()[f.src_layer].category
    dst = "Set" if f.dst_layer == "Set" else ast.layers()[f.dst_layer].category
    return f"{f.label} : {src} -> {dst}"


def _arrow_typing(ast: DiagramAst, a: Arrow) -> str:
    src = _endpoint_label(ast, a.src)
    dst = _endpoint_label(ast, a.dst)
    return f"{a.label} : {src} {_KIND_TOKENS[a.kind]} {dst}"


def _endpoint_label(ast: DiagramAst, end: str) -> str:
    for table in (ast.elements(), ast.functors()):
        if end in table:
            return table[end].label
    raise DiagramError(f"unknown endpoint {end!r}")


# ---------------------------------------------------------------------------
# Stage extraction


class Stage(Record):
    """One quantifier stage: the sub-diagram and the quantifier introducing it."""

    index: int
    quantifier: Optional[str]
    diagram: DiagramAst
    new_elements: tuple

    def counts(self) -> tuple:
        return (len(self.diagram.nodes()), len(self.diagram.arrows()))


def extract_stages(ast: DiagramAst) -> list:
    """Stages SQ_0 ⊆ ... ⊆ SQ_n with their quantifiers (stage 0 has none).

    SQ_k keeps the elements of stage at most ``k`` (see
    :func:`_element_stages`) and the ``noncommute`` lines whose arrows all
    are; its new elements are those of stage ``k``, in declaration order.
    Only ``ast`` is validated: no element outlives what it depends on, so
    every stage below is well formed too."""
    validate_diagram(ast)
    stage_of = _element_stages(ast)
    quantifier_of = {e.stage: e.quantifier for e in ast.elements().values() if e.stage}
    # a declaration's stage: the highest stage of the elements it names
    tops = [
        stage_of[d.id] if isinstance(d, (Node, Arrow))
        else max(map(stage_of.get, d.left + d.right)) if isinstance(d, NonCommute)
        else 0
        for d in ast.decls
    ]
    n = ast.max_stage()
    return [
        Stage(
            k,
            quantifier_of.get(k),
            ast if k == n else DiagramAst(tuple(d for d, t in zip(ast.decls, tops) if t <= k)),
            tuple(e for e, s in stage_of.items() if s == k),
        )
        for k in range(n + 1)
    ]


def _element_stages(ast: DiagramAst) -> dict:
    """Each element's stage, in declaration order, by the least fixpoint of
    the rule in the module docstring; raises the staging error named there."""
    elements = ast.elements()
    stage = {e.id: e.stage or 0 for e in elements.values()}
    before = None
    while stage != before:
        before = dict(stage)
        for a in ast.arrows().values():
            # hom arrows may join functor declarations, which are stage 0
            stage[a.id] = max(stage[a.id], stage.get(a.src, 0), stage.get(a.dst, 0))
            if a.kind == "mapsto":
                stage[a.dst] = max(stage[a.dst], stage[a.src])
    raised = [e for e in elements.values() if e.stage is not None and stage[e.id] > e.stage]
    if raised:
        e = max(raised, key=lambda e: stage[e.id])
        raise DiagramError(
            f"element {e.id!r} at stage {e.stage} depends on a stage-{stage[e.id]} element"
        )
    return stage


# ---------------------------------------------------------------------------
# Models and value plumbing


class Model(Record):
    """Resolved bindings for evaluating one diagram.

    layers: layer id -> FinCat or FINSET; functors: (src layer, dst layer)
    -> FunctorVal; binds: stage-0 element id -> value; carriers: finite-set
    layer id -> candidate carriers for quantified nodes.

    Every table layer is a category and every functor is a functor: a
    model is not built otherwise, and FinCatError names the layer or
    functor, the first failed law and its witness.  Evaluation trusts
    this, so every typed path of a table layer has its composite.
    """

    layers: Mapping[str, object]
    functors: Mapping[tuple, FunctorVal]
    binds: Mapping[str, object]
    carriers: Mapping[str, tuple] = {}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for name, cat in self.layers.items():
            if cat is not FINSET:
                require_category(cat, f"layer {name!r}")
        for (src, dst), fun in self.functors.items():
            require_functor(fun, f"functor {src}->{dst}")


def build_model(ast: DiagramAst, spec) -> Model:
    """Resolve a parsed model spec (see fincat.files) against a diagram."""
    layers = dict(spec.layers)
    for layer_id in ast.layers():
        if layer_id not in layers:
            raise DiagramError(f"model binds no category to layer {layer_id!r}")

    functors = dict(spec.functors)
    for pair in _required_functor_pairs(ast):
        if pair not in functors:
            raise DiagramError(f"model binds no functor to the layer pair {pair!r}")

    # an arrow that touches a quantified node is new at that node's stage,
    # not bound here
    stage0 = [e for e, s in _element_stages(ast).items() if s == 0]
    targets = ast.mapsto_targets()
    binds: dict[str, object] = {}
    bind_items = sorted(
        spec.binds.items(), key=lambda kv: kv[0] not in ast.nodes()
    )  # nodes first: arrow values in finite-set layers decode against them
    for element_id, raw in bind_items:
        element = ast.elements().get(element_id)
        if element is None:
            raise DiagramError(f"model binds unknown element {element_id!r}")
        if element_id in targets:
            raise DiagramError(f"element {element_id!r} is definitional (mapsto target)")
        if isinstance(element, Arrow) and element.kind == "mapsto":
            raise DiagramError(f"mapsto arrow {element_id!r} cannot be bound")
        if element_id not in stage0:
            raise DiagramError(f"element {element_id!r} is quantified and cannot be bound")
        binds[element_id] = _resolve_bind(ast, layers, element, raw, binds)

    for element_id in stage0:
        element = ast.elements()[element_id]
        if element_id in binds or element_id in targets:
            continue
        if isinstance(element, Arrow) and (
            element.kind == "mapsto" or element.src in ast.functors()
        ):
            continue
        raise DiagramError(f"stage-0 element {element_id!r} is not bound by the model")

    return Model(layers, functors, binds, dict(spec.carriers))


def _required_functor_pairs(ast: DiagramAst) -> set:
    nodes, arrows = ast.nodes(), ast.arrows()
    return {_mapsto_pair(nodes, arrows, a) for a in arrows.values() if a.kind == "mapsto"}


def _arrow_layer(nodes: Mapping, arrow: Arrow) -> str:
    if arrow.src in nodes:
        return nodes[arrow.src].layer
    raise DiagramError(f"arrow {arrow.id!r} has no layer (functor endpoints)")


def _mapsto_pair(nodes: Mapping, arrows: Mapping, a: Arrow) -> tuple:
    """(source layer, target layer) of a mapsto arrow: the functor it applies."""
    if a.src in nodes:
        return (nodes[a.src].layer, nodes[a.dst].layer)
    return (_arrow_layer(nodes, arrows[a.src]), _arrow_layer(nodes, arrows[a.dst]))


def _mapsto_image(model: Model, nodes: Mapping, arrows: Mapping, a: Arrow, value):
    """Image of ``value`` (the mapsto source's value) under the bound functor."""
    functor = model.functors[_mapsto_pair(nodes, arrows, a)]
    return (functor.object_map if a.src in nodes else functor.morphism_map)[value]


def _resolve_bind(ast, layers, element, raw: str, binds: Mapping):
    if isinstance(element, Node):
        cat = layers[element.layer]
        if cat is FINSET:
            try:
                return _files.parse_set_literal(raw)
            except ValueError as exc:
                raise DiagramError(f"bind {element.id!r}: {exc}") from None
        if raw not in set(cat.objects):
            raise DiagramError(f"bind {element.id!r}: unknown object {raw!r}")
        return raw
    cat = layers[_arrow_layer(ast.nodes(), element)]
    if element.kind == "bij":
        body = raw.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise DiagramError(f"bind {element.id!r}: bijections need a (fwd, bwd) pair")
        parts = _files.split_top_level(body[1:-1])
        if len(parts) != 2:
            raise DiagramError(f"bind {element.id!r}: expected exactly two components")
        fwd = _resolve_morphism(cat, element, parts[0].strip(), binds, flip=False)
        bwd = _resolve_morphism(cat, element, parts[1].strip(), binds, flip=True)
        return (fwd, bwd)
    return _resolve_morphism(cat, element, raw, binds, flip=False)


def _resolve_morphism(cat, element, raw: str, binds: Mapping, flip: bool):
    if cat is FINSET:
        ends = (element.dst, element.src) if flip else (element.src, element.dst)
        if ends[0] not in binds or ends[1] not in binds:
            raise DiagramError(
                f"bind {element.id!r}: endpoints {ends} must be bound before the arrow"
            )
        try:
            return decode_map(raw, binds[ends[0]], binds[ends[1]])
        except (ValueError, EncodingError) as exc:
            raise DiagramError(f"bind {element.id!r}: {exc}") from None
    if raw not in cat.morphisms:
        raise DiagramError(f"bind {element.id!r}: unknown morphism {raw!r}")
    return raw


def _value_repr(v) -> str:
    if isinstance(v, FinSetMap):
        return encode_map(v)
    if isinstance(v, tuple):
        return "(" + ", ".join(_value_repr(part) for part in v) + ")"
    return str(v)


def _hom_values(cat, src_value, dst_value, cap: int):
    if cat is FINSET:
        return enumerate_maps(src_value, dst_value, cap)
    return cat.hom(src_value, dst_value)


# ---------------------------------------------------------------------------
# Commutativity


def _layer_paths(ast: DiagramAst, layer_id: str, include_bij: bool) -> tuple:
    """All simple directed paths in one layer.

    A path is (start node, end node, steps) where each step is
    (arrow id, direction) and direction is "fwd" or "bwd" (bij arrows may
    be walked backwards).  Simplicity: no node is visited twice.
    """
    nodes = [n for n in ast.nodes().values() if n.layer == layer_id]
    edges: dict[str, list] = {n.id: [] for n in nodes}
    for a in ast.arrows().values():
        if a.kind == "mapsto" or a.src not in edges:
            continue
        if a.kind == "hom":
            edges[a.src].append((a.dst, (a.id, "fwd")))
        elif include_bij:
            edges[a.src].append((a.dst, (a.id, "fwd")))
            edges[a.dst].append((a.src, (a.id, "bwd")))
    paths: list = []

    def walk(start: str, here: str, steps: tuple, seen: frozenset) -> None:
        for nxt, step in sorted(edges[here]):
            if nxt in seen:
                continue
            new_steps = steps + (step,)
            paths.append((start, nxt, new_steps))
            walk(start, nxt, new_steps, seen | {nxt})

    for n in sorted(edges):
        walk(n, n, (), frozenset((n,)))
    return tuple(paths)


def _hom_cycle(ast: DiagramAst, layer_id: str):
    """Return a cycle witness in the layer's hom graph (bij excluded), or None."""
    nodes = [n.id for n in ast.nodes().values() if n.layer == layer_id]
    succ: dict[str, list] = {n: [] for n in nodes}
    for a in ast.arrows().values():
        if a.kind == "hom" and a.src in succ and a.dst in succ:
            succ[a.src].append(a.dst)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}

    def visit(n: str, trail: tuple):
        color[n] = GREY
        for nxt in sorted(succ[n]):
            if color[nxt] == GREY:
                return trail + (n, nxt)
            if color[nxt] == WHITE:
                found = visit(nxt, trail + (n,))
                if found:
                    return found
        color[n] = BLACK
        return None

    for n in sorted(nodes):
        if color[n] == WHITE:
            found = visit(n, ())
            if found:
                return found
    return None


def _noncommute_keys(ast: DiagramAst) -> frozenset:
    return frozenset(frozenset((nc.left, nc.right)) for nc in ast.noncommutes())


def _commute_plan(ast: DiagramAst, layer_id: str) -> tuple:
    """The parallel path pairs of one layer that must commute, in report order.

    Returns ``(steps of p, steps of q, arrow ids used by p or q, text of p,
    text of q)`` for every pair of parallel paths p before q of
    ``_layer_paths`` (bij arrows walked both ways) that no noncommute
    declaration exempts, grouped by sorted (start, end).
    """
    by_ends: dict[tuple, list] = {}
    for start, end, steps in _layer_paths(ast, layer_id, include_bij=True):
        by_ends.setdefault((start, end), []).append((steps, tuple(a for a, _ in steps)))
    exempt = _noncommute_keys(ast)
    pairs = []
    for _ends, group in sorted(by_ends.items()):
        for i, (p, p_ids) in enumerate(group):
            for q, q_ids in group[i + 1 :]:
                if frozenset((p_ids, q_ids)) in exempt:
                    continue
                pairs.append((p, q, frozenset(p_ids + q_ids), ".".join(p_ids), ".".join(q_ids)))
    return tuple(pairs)


def _check_plan(ast: DiagramAst) -> tuple:
    """The obligations of the everything-commutes check, in report order.
    Returns ``(required, typing, layers, bijections, mapstos)``: the elements
    that must be assigned; ``(arrow id, layer, src, dst, is bij)`` per arrow
    to type; ``(layer id, cycle, pairs)`` per layer, with the pairs of
    ``_commute_plan`` (none for a layer with a cycle); ``(arrow id, layer,
    src, dst)`` per bijection; and the mapsto arrows.
    """
    nodes, arrows, functors = ast.nodes(), ast.arrows(), ast.functors()
    required = tuple(
        e.id
        for e in ast.elements().values()
        if not (isinstance(e, Arrow) and (e.kind == "mapsto" or e.src in functors))
    )
    typing = tuple(
        (a.id, nodes[a.src].layer, a.src, a.dst, a.kind == "bij")
        for a in arrows.values()
        if a.kind != "mapsto" and a.src not in functors
    )
    layers = []
    for layer_id in ast.layers():
        cycle = _hom_cycle(ast, layer_id)
        layers.append((layer_id, cycle, () if cycle else _commute_plan(ast, layer_id)))
    bijections = tuple(
        (a.id, nodes[a.src].layer, a.src, a.dst) for a in arrows.values() if a.kind == "bij"
    )
    mapstos = tuple(a for a in arrows.values() if a.kind == "mapsto")
    return required, typing, tuple(layers), bijections, mapstos


def check_commutativity(ast: DiagramAst, model: Model, assignment: Mapping) -> CheckReport:
    """Everything-commutes check of a fully assigned diagram.

    Every pair of parallel simple paths must compose to equal values,
    except pairs exempted by a noncommute declaration.  Bijections are
    walked in both directions and must satisfy the round-trip law, and
    every mapsto arrow is checked as a definitional equation (functor
    application of the bound layer-pair functor).  Paths and round trips
    through an arrow that fails endpoint typing are not composed; the
    typing obligation reports that arrow.
    """
    failed = _failures(ast, _check_plan(ast), model, assignment)
    names = ["endpoint_typing", *(f"commutes[{layer_id}]" for layer_id in ast.layers())]
    names += ["bij_round_trips", "mapsto_equations"]
    obligations = tuple(Obligation(name, name not in failed, failed.get(name, ())) for name in names)
    return CheckReport(f"diagram:{len(ast.nodes())}nodes/{len(ast.arrows())}arrows", obligations)


def _stage_plans(stages: Sequence[Stage], model: Model) -> list:
    """``(implied, checks)`` for each of ``stages``, all above 0: ``checks``
    is the ``_check_plan`` of the stage diagram, and ``implied`` says that
    every candidate passes it.

    That holds when the plan has no bijection, no mapsto equation and no
    cyclic layer, and every layer with pairs to compare is bound to a thin
    table.  A candidate extends an assignment under which the stage before
    passed, and each new arrow was enumerated from its hom-set, so every
    typing holds; the table is a category (see ``Model``), so every path has
    a composite in hom(start, end); and that hom-set has one element, so
    parallel paths agree.
    """
    plans = []
    for stage in stages:
        checks = _check_plan(stage.diagram)
        _required, _typing, layers, bijections, mapstos = checks
        compared = (model.layers[layer_id] for layer_id, _cycle, pairs in layers if pairs)
        implied = (
            not bijections
            and not mapstos
            and all(cycle is None for _layer_id, cycle, _pairs in layers)
            and all(cat is not FINSET and is_thin(cat) for cat in compared)
        )
        plans.append((implied, checks))
    return plans


def _stage_commutes(stage: Stage, model: Model, assignment: Mapping, plan: tuple) -> bool:
    """``check_commutativity(stage.diagram, model, assignment).passed`` for a
    candidate of a stage above 0, with the same errors raised, from the
    stage's plan; nothing is checked when the plan is implied.  ``plan`` is
    the stage's entry of ``_stage_plans``."""
    implied, checks = plan
    return implied or not _failures(stage.diagram, checks, model, assignment)


def _failures(ast: DiagramAst, plan: tuple, model: Model, assignment: Mapping) -> dict:
    """The first witness of each failed obligation of ``plan``, by name.  A
    layer's pairs are compared up to the first that disagrees."""
    required, typing, layers, bijections, mapstos = plan
    for element_id in required:
        if element_id not in assignment:
            raise DiagramError(f"element {element_id!r} has no assigned value")
    failed: dict = {}

    # a mistyped arrow may have no composite; its typing witness is the finding
    mistyped: set = set()
    for arrow_id, layer_id, src, dst, bij in typing:
        cat = model.layers[layer_id]
        want = (assignment[src], assignment[dst])
        values = assignment[arrow_id] if bij else (assignment[arrow_id],)
        expected = [want, (want[1], want[0])] if bij else [want]
        for value, want_pair in zip(values, expected):
            if (cat.dom(value), cat.cod(value)) != want_pair:
                failed.setdefault("endpoint_typing", (arrow_id, _value_repr(value)))
                mistyped.add(arrow_id)

    for layer_id, cycle, pairs in layers:
        if cycle:
            raise DiagramError(f"layer {layer_id!r} has a cyclic hom graph: {cycle}")
        cat = model.layers[layer_id]
        for p, q, used, p_text, q_text in pairs:
            if mistyped and not mistyped.isdisjoint(used):
                continue
            lhs, rhs = _path_value(cat, assignment, p), _path_value(cat, assignment, q)
            if lhs != rhs:
                bad = (p_text, q_text, _value_repr(lhs), _value_repr(rhs))
                failed[f"commutes[{layer_id}]"] = bad
                break

    for arrow_id, layer_id, src, dst in bijections:
        if arrow_id in mistyped:
            continue
        cat = model.layers[layer_id]
        fwd, bwd = assignment[arrow_id]
        if cat.comp(bwd, fwd) != cat.id_of(assignment[src]):
            failed.setdefault("bij_round_trips", (arrow_id, "bwd o fwd"))
        elif cat.comp(fwd, bwd) != cat.id_of(assignment[dst]):
            failed.setdefault("bij_round_trips", (arrow_id, "fwd o bwd"))

    nodes, arrows = ast.nodes(), ast.arrows()
    for a in mapstos:
        got = _mapsto_image(model, nodes, arrows, a, assignment[a.src])
        want = assignment[a.dst]
        if got != want:
            failed.setdefault("mapsto_equations", (a.id, _value_repr(got), _value_repr(want)))
    return failed


def _path_value(cat, assignment: Mapping, steps: tuple):
    """The composite of a path's steps (see ``_layer_paths``), first step
    first.  The path's arrows are typed and the layer is a category (see
    ``Model``), so each composite is in the table."""
    value = None
    for arrow_id, direction in steps:
        bound = assignment[arrow_id]
        if isinstance(bound, tuple):  # a bijection's (fwd, bwd)
            bound = bound[0] if direction == "fwd" else bound[1]
        value = bound if value is None else cat.comp(bound, value)
    return value


# ---------------------------------------------------------------------------
# Quantified evaluation


class EvalTrace(Record):
    """Nested witness/counterexample trace of a staged evaluation."""

    stage: int
    quantifier: Optional[str]
    outcome: bool
    note: str
    assignment: tuple = ()
    child: Optional[EvalTrace] = None

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}stage {self.stage} [{quantifier_glyph(self.quantifier)}]: {self.note}"]
        for element_id, text in self.assignment:
            lines.append(f"{pad}  {element_id} = {text}")
        if self.child is not None:
            lines.append(self.child.render(indent + 1))
        return "\n".join(lines)


def evaluate_quantified(
    ast: DiagramAst, model: Model, cap: int = DEFAULT_ENUM_CAP
) -> tuple:
    """Evaluate the staged statement Q1 x1 ... Qn xn over the model.

    Extensions at each stage range over objects/morphisms of the bound
    categories with matching endpoints and must make the stage commute.
    "exists unique" demands exactly one commuting extension satisfying the
    remaining stages.  Returns (truth value, trace); the trace carries the
    lexicographically least witness or counterexample.
    """
    for a in ast.arrows().values():
        if a.kind == "hom" and a.src in ast.functors():
            raise DiagramError(
                f"arrow {a.id!r} joins functor declarations and cannot be evaluated"
            )
    stages = extract_stages(ast)
    top = stages[-1].index

    base: dict = dict(model.binds)
    stage0 = stages[0]
    try:
        _compute_mapsto_targets(stage0.diagram, model, base)
    except DiagramError as exc:
        raise DiagramError(f"stage 0: {exc}") from None
    report = check_commutativity(stage0.diagram, model, base)
    if not report.passed:
        failure = report.failures()[0]
        trace = EvalTrace(
            0,
            None,
            False,
            f"stage-0 bindings do not commute: {failure.name} witness={failure.witness!r}",
            _assignment_items(stage0.new_elements, base),
        )
        return False, trace

    def run(k: int, assignment: Mapping, keep: tuple) -> tuple:
        """(truth, trace) of stages k.. under ``assignment``.  The trace is
        built only for an outcome in ``keep``, the outcomes whose trace the
        caller keeps; for any other it is None."""
        if k > top:
            return True, None
        stage = stages[k]
        quantifier = stage.quantifier

        def result(ok: bool, note: str, merged: Optional[Mapping] = None, sub=None) -> tuple:
            if ok not in keep:
                return ok, None
            shown = () if merged is None else _assignment_items(stage.new_elements, merged)
            return ok, EvalTrace(k, quantifier, ok, note, shown, sub)

        # the outcomes of stage k + 1 whose traces the kept traces of stage k hold
        if quantifier == "forall":
            below = (False,) if False in keep else ()
        elif quantifier == "exists":
            below = (True,) if True in keep else ()
        else:  # both traces of an existsuniq hold a witness's trace
            below = (True,) if keep else ()
        plan = plans[k]
        witnesses: list = []
        count = 0
        commuting = 0
        for merged in _stage_extensions(stage, shapes[k], model, assignment, cap):
            count += 1
            if not _stage_commutes(stage, model, merged, plan):
                continue
            commuting += 1
            ok, sub = run(k + 1, merged, below)
            if quantifier == "forall" and not ok:
                return result(False, "counterexample", merged, sub)
            if quantifier == "exists" and ok:
                return result(True, "witness", merged, sub)
            if quantifier == "existsuniq" and ok:
                witnesses.append((merged, sub))
                if len(witnesses) > 1:
                    first = _assignment_items(stage.new_elements, witnesses[0][0])
                    return result(
                        False,
                        f"not unique: second extension also works (first was "
                        f"{_items_text(first)})",
                        merged,
                        sub,
                    )
        if quantifier == "forall":
            return result(True, f"all {commuting} commuting extensions satisfy the rest")
        if len(witnesses) == 1:  # existsuniq
            merged, sub = witnesses[0]
            return result(True, "unique witness", merged, sub)
        return result(False, f"no commuting extension satisfies the rest ({count} candidates)")

    if top == 0:
        return True, EvalTrace(0, None, True, "all bindings commute",
                               _assignment_items(stage0.new_elements, base))
    plans = [None] + _stage_plans(stages[1:], model)
    shapes = [None] + [_extension_shape(s.diagram, s.new_elements) for s in stages[1:]]
    ok, sub = run(1, base, (True, False))
    note = "statement holds" if ok else "statement fails"
    return ok, EvalTrace(0, None, ok, note, _assignment_items(stage0.new_elements, base), sub)


def _assignment_items(element_ids: Iterable, assignment: Mapping) -> tuple:
    return tuple(
        (element_id, _value_repr(assignment[element_id]))
        for element_id in element_ids
        if element_id in assignment
    )


def _items_text(items: tuple) -> str:
    return ", ".join(f"{k}={v}" for k, v in items)


def _compute_mapsto_targets(
    ast: DiagramAst, model: Model, assignment: dict, require_all: bool = True
) -> None:
    """Fill values of mapsto targets by applying the bound layer-pair functors."""
    nodes, arrows = ast.nodes(), ast.arrows()
    pending = [a for a in arrows.values() if a.kind == "mapsto"]
    while pending:
        progressed = False
        remaining = []
        for a in pending:
            if a.src not in assignment:
                remaining.append(a)
                continue
            value = _mapsto_image(model, nodes, arrows, a, assignment[a.src])
            if a.dst in assignment:
                if assignment[a.dst] != value:
                    raise DiagramError(
                        f"definitional conflict at {a.dst!r}: "
                        f"{_value_repr(assignment[a.dst])} vs {_value_repr(value)}"
                    )
            else:
                assignment[a.dst] = value
            progressed = True
        if not progressed:
            if require_all:
                missing = sorted(a.id for a in remaining)
                raise DiagramError(f"mapsto sources never assigned: {missing}")
            return
        pending = remaining


def _extension_shape(ast: DiagramAst, new_elements: tuple) -> tuple:
    """(nodes, hom arrows) a stage's candidates assign, and whether the stage
    diagram has a mapsto arrow whose target must be computed."""
    nodes, arrows = ast.nodes(), ast.arrows()
    targets = ast.mapsto_targets()
    new_nodes = tuple(nodes[e] for e in new_elements if e in nodes and e not in targets)
    new_arrows = []
    for e in new_elements:
        if e in arrows and e not in targets:
            a = arrows[e]
            if a.kind == "mapsto":
                continue
            if a.kind == "bij":
                raise DiagramError(
                    f"bij arrow {a.id!r} cannot be introduced by a quantified stage"
                )
            new_arrows.append(a)
    has_mapsto = any(a.kind == "mapsto" for a in arrows.values())
    return new_nodes, tuple(new_arrows), has_mapsto


def _stage_extensions(stage: Stage, shape: tuple, model: Model, assignment: Mapping, cap: int):
    """Yield each candidate extension of one stage, whose
    ``_extension_shape`` is ``shape``, merged into a copy of ``assignment``,
    in sorted order: the node values vary in one product, and for each
    choice of them the arrow values range over the hom-sets their ends
    give.  The cap counts whole extensions.  A node's candidates and an
    arrow's hom-set are first asked for once every earlier node or arrow
    has a value, so a candidate that is never reached raises no error."""
    ast = stage.diagram
    nodes = ast.nodes()
    new_nodes, new_arrows, has_mapsto = shape
    node_ids = tuple(node.id for node in new_nodes)
    arrow_ids = tuple(arrow.id for arrow in new_arrows)

    pools = []
    for node in new_nodes:
        pools.append(_node_candidates(model, node))
        if not pools[-1]:
            return

    count = 0
    for node_values in product(*pools):
        acc = dict(assignment)
        acc.update(zip(node_ids, node_values))
        if has_mapsto:
            _compute_mapsto_targets(ast, model, acc, require_all=False)
        homs = []
        for arrow in new_arrows:
            cat = model.layers[nodes[arrow.src].layer]
            homs.append(_hom_values(cat, acc[arrow.src], acc[arrow.dst], cap))
            if not homs[-1]:
                break
        else:
            for arrow_values in product(*homs):
                merged = dict(acc)
                merged.update(zip(arrow_ids, arrow_values))
                if has_mapsto:
                    _compute_mapsto_targets(ast, model, merged)
                count += 1
                if count > cap:
                    raise CapExceededError(
                        f"stage {stage.index}: more than {cap} candidate extensions"
                    )
                yield merged


def _node_candidates(model: Model, node: Node) -> list:
    cat = model.layers[node.layer]
    if cat is FINSET:
        if node.layer not in model.carriers:
            raise DiagramError(
                f"layer {node.layer!r} is bound to finite sets; quantified node "
                f"{node.id!r} needs an explicit carrier list in the model"
            )
        return list(model.carriers[node.layer])
    return sorted(cat.objects)


# ---------------------------------------------------------------------------
# Context elaboration


_PHRASES = {"forall": "for all", "exists": "there exists", "existsuniq": "there exists a unique"}


def elaborate_context(ast: DiagramAst) -> str:
    """The diagram as a prose context: the typings (:func:`_decl_typing`) of
    stage 0 in file order, then its equations; then each later stage's typed
    elements, the first opened by its quantifier's phrase, each but the last
    followed by " and" and the last by " such that" when the stage has
    equations (its new commutation conditions, minimized against everything
    already known).  Every other line ends in "," and the last in "."."""
    stages = extract_stages(ast)
    equations = _stage_equations(ast, stages)
    stage0 = set(stages[0].new_elements)
    lines = [  # (prefix, text, ending)
        ("  ", text, ",")
        for d in ast.decls
        if not isinstance(d, (Node, Arrow)) or d.id in stage0
        if (text := _decl_typing(ast, d)) is not None
    ]
    lines += [("  ", eq, ",") for eq in equations.get(0, ())]
    for stage in stages[1:]:
        eqs = equations.get(stage.index, ())
        typed = [ast.elements()[e] for e in stage.new_elements]
        texts = [text for e in typed if (text := _decl_typing(ast, e)) is not None]
        for i, text in enumerate(texts):
            prefix = f"{_PHRASES[stage.quantifier]} " if i == 0 else "  "
            ending = " and" if i < len(texts) - 1 else " such that" if eqs else ","
            lines.append((prefix, text, ending))
        lines += [("  ", eq, ",") for eq in eqs]
    if not lines:
        return "In a context where: (empty)\n"
    lines[-1] = lines[-1][:2] + (".",)
    return "In a context where:\n" + "".join(f"{p}{t}{e}\n" for p, t, e in lines)


def _decl_typing(ast: DiagramAst, d) -> Optional[str]:
    """The context line of one declaration: "<name> is a category" for a
    layer, "<label> : <src> -> <dst>" for a functor, a def's text, "<label>
    in <layer name>" for a node and "<label> : <src> -> <dst>" (``<->`` for
    a bijection) for an arrow.  None for what the context omits: mapsto
    arrows and their targets, which are notation, noncommute lines and
    macros."""
    if isinstance(d, LayerDecl):
        return f"{d.category} is a category"
    if isinstance(d, FunctorDecl):
        return _functor_typing(ast, d)
    if isinstance(d, DefDecl):
        return d.text
    if not isinstance(d, (Node, Arrow)) or d.id in ast.mapsto_targets():
        return None
    if isinstance(d, Node):
        return f"{d.label} in {ast.layers()[d.layer].category}"
    return None if d.kind == "mapsto" else _arrow_typing(ast, d)


def _stage_equations(ast: DiagramAst, stages: Sequence[Stage]) -> dict:
    """Per stage, the freshly imposed path equations, minimized.

    Default commutativity makes all parallel simple paths equal.  The
    equations reported for stage k are a minimal set of parallel-path
    pairs of SQ_k that are not already derivable from earlier stages'
    equations under the congruence "equal paths stay equal when extended
    by a common arrow".  The classes are the least such congruence, so
    they do not depend on the order in which pairs are merged.
    """
    exempt = _noncommute_keys(ast)
    emitted: list = []
    out: dict[int, list] = {}
    for stage in stages:
        sub = stage.diagram
        paths: list = []
        for layer_id in sub.layers():
            for start, end, steps in _layer_paths(sub, layer_id, include_bij=False):
                paths.append((start, end, tuple(s[0] for s in steps)))
        path_set = {p[2] for p in paths}
        arrow_ids = [a.id for a in sub.arrows().values() if a.kind == "hom"]
        parent = {p: p for p in path_set}
        members = {p: [p] for p in path_set}

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        def merge(p, q):
            """Join the classes of p and q, and then, for each arrow and side,
            the one-arrow extensions of every member of the joined class."""
            pending = [(p, q)]
            while pending:
                rp, rq = (find(r) for r in pending.pop())
                if rp == rq:
                    continue
                root, child = min(rp, rq), max(rp, rq)
                parent[child] = root
                members[root] += members.pop(child)
                joined = members[root]
                for a in arrow_ids:
                    for exts in ([m + (a,) for m in joined], [(a,) + m for m in joined]):
                        exts = [e for e in exts if e in path_set]
                        pending.extend(zip(exts, exts[1:]))

        for p, q in emitted:
            if p in path_set and q in path_set:
                merge(p, q)

        by_ends: dict = {}
        for start, end, key in paths:
            by_ends.setdefault((start, end), []).append(key)
        candidates: list = []
        for (start, end), group in sorted(by_ends.items()):
            group = sorted(set(group), key=lambda key: (len(key), key))
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    if frozenset((group[i], group[j])) in exempt:
                        continue
                    candidates.append((group[i], group[j]))
        candidates.sort(key=lambda pq: (len(pq[0]) + len(pq[1]), pq))

        fresh: list = []
        for p, q in candidates:
            if find(p) != find(q):
                fresh.append(_equation_text(ast, p, q))
                emitted.append((p, q))
                merge(p, q)
        if fresh:
            out[stage.index] = fresh
    return out


def _equation_text(ast: DiagramAst, p: tuple, q: tuple) -> str:
    def text(path: tuple) -> str:
        labels = [ast.arrows()[arrow_id].label for arrow_id in path]
        return " o ".join(reversed(labels))

    left, right = (p, q) if (len(p), text(p)) >= (len(q), text(q)) else (q, p)
    return f"{text(left)} = {text(right)}"


# ---------------------------------------------------------------------------
# Annotation macros


def expand_annotation(ast: DiagramAst, name: str) -> DiagramAst:
    """Splice the named macro wherever an element carries ``@use(name)``.

    Elements declared inside the macro get fresh ids (``<id>$k`` for the
    k-th expansion); references to host elements resolve unchanged; stage
    annotations inside the macro are renumbered to follow the host's
    maximum stage.  A diagram with no ``@use(name)`` markers is returned
    unchanged.
    """
    macros = ast.macros()
    if name not in macros:
        raise DiagramError(f"undefined macro {name!r}")
    users = [e for e in ast.elements().values() if name in e.uses]
    if not users:
        return ast
    body = macros[name].body

    decls = list(ast.decls)
    known_ids = set(ast.elements()) | set(ast.layers()) | set(ast.functors()) | set(ast.defs())
    offset = ast.max_stage()
    body_max = max((d.stage for d in body if d.stage), default=0)

    for occurrence, user in enumerate(users, start=1):
        renames = {}
        for d in body:  # in declaration order, so a capture error names the first
            fresh = f"{d.id}${occurrence}"
            if fresh in known_ids:
                raise DiagramError(f"macro expansion captures existing name {fresh!r}")
            renames[d.id] = fresh

        def resolve(ref: str) -> str:
            if ref in renames:
                return renames[ref]
            if ref in known_ids:
                return ref
            raise DiagramError(f"macro {name!r} references undefined element {ref!r}")

        for d in body:
            stage = d.stage + offset if d.stage is not None else None
            if isinstance(d, Node):
                if d.layer not in ast.layers():
                    raise DiagramError(f"macro {name!r} references undefined layer {d.layer!r}")
                decls.append(d.replace(id=renames[d.id], stage=stage))
            else:
                decls.append(
                    d.replace(
                        id=renames[d.id],
                        src=resolve(d.src),
                        dst=resolve(d.dst),
                        stage=stage,
                    )
                )
        known_ids.update(renames.values())
        offset += body_max

        for i, d in enumerate(decls):
            if isinstance(d, (Node, Arrow)) and d.id == user.id:
                decls[i] = d.replace(uses=tuple(u for u in d.uses if u != name))

    expanded = DiagramAst(tuple(decls))
    validate_diagram(expanded)
    return expanded


def expand_macros(ast: DiagramAst) -> DiagramAst:
    """Splice in every macro an element uses, each by one :func:`expand_annotation`
    call, after every macro whose body uses it; among the macros free to go,
    the one whose ``@use`` mark comes first in declaration order.  Macros that
    use each other are an error naming the first cycle that a depth-first walk
    from the marks, in declaration order, meets."""
    macros = ast.macros()
    below: dict = {}  # per macro, the macros that its splices bring in

    def walk(name: str, trail: tuple) -> set:
        if name in trail:
            cycle = trail[trail.index(name) :] + (name,)
            raise DiagramError(f"cyclic macro use: {' -> '.join(cycle)}")
        if name not in below:
            uses = [u for d in macros[name].body for u in d.uses] if name in macros else []
            below[name] = set(uses).union(*(walk(u, trail + (name,)) for u in uses))
        return below[name]

    marks = [u for e in ast.elements().values() for u in e.uses]
    for name in marks:
        walk(name, ())
    while marks:
        later = set().union(*(below[name] for name in marks))
        ast = expand_annotation(ast, next(name for name in marks if name not in later))
        marks = [u for e in ast.elements().values() for u in e.uses]
    return ast
