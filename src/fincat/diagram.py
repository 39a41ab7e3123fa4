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

Nodes and hom arrows may carry one stage annotation ``@forall(k)``,
``@exists(k)`` or ``@existsuniq(k)``; bare ``@forall`` means stage 1 and
bare ``@existsuniq`` stage 2, while ``@exists`` always needs an explicit
stage.  Stage numbers must cover a contiguous range ``1..n`` and all
elements of one stage must share one quantifier.

Stage ``k`` of a diagram is the sub-diagram obtained by erasing every
element annotated with a stage above ``k`` together with its dependents:
arrows incident to an erased node, and — for definitional arrows — the
target of any ``|->`` whose source is erased.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

from .core import CheckReport, Obligation
from .finset import (
    DEFAULT_ENUM_CAP,
    FINSET,
    CapExceededError,
    FinSetMap,
    decode_map,
    encode_map,
    enumerate_maps,
)
from . import files as _files

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
    "QUANTIFIERS",
    "quantifier_glyph",
    "parse_diagram",
    "print_diagram",
    "render_grid",
    "validate_diagram",
    "extract_stages",
    "build_model",
    "check_commutativity",
    "evaluate_quantified",
    "elaborate_context",
    "expand_annotation",
]

QUANTIFIERS = ("forall", "exists", "existsuniq")

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


@dataclass(frozen=True)
class LayerDecl:
    id: str
    category: str


@dataclass(frozen=True)
class FunctorDecl:
    id: str
    src_layer: str
    dst_layer: str  # layer id or the builtin "Set"
    label: str


@dataclass(frozen=True)
class Node:
    id: str
    layer: str
    label: str
    quantifier: Optional[str] = None
    stage: Optional[int] = None
    uses: tuple = ()


@dataclass(frozen=True)
class Arrow:
    id: str
    kind: str  # "hom" | "mapsto" | "bij"
    src: str
    dst: str
    label: str
    quantifier: Optional[str] = None
    stage: Optional[int] = None
    uses: tuple = ()


@dataclass(frozen=True)
class NonCommute:
    left: tuple
    right: tuple


@dataclass(frozen=True)
class DefDecl:
    id: str
    text: str


@dataclass(frozen=True)
class MacroDecl:
    name: str
    body: tuple  # Node/Arrow declarations


@dataclass(frozen=True)
class DiagramAst:
    """A diagram as an ordered tuple of declarations.

    The per-kind tables are built once, on first use, and returned as
    read-only views shared by every caller.
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
        return {key: MappingProxyType(table) for key, table in tables.items()}

    @cached_property
    def _shape_memo(self) -> dict:
        """Results of the shape-only analyses below (see ``_per_diagram``)."""
        return {}

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
        return frozenset(a.dst for a in self.arrows().values() if a.kind == "mapsto")

    def max_stage(self) -> int:
        return max((e.stage for e in self.elements().values() if e.stage), default=0)


def _per_diagram(fn):
    """Memoise ``fn(ast, ...)`` on the diagram.  Only for analyses that read
    the diagram's shape alone; the shared result must not be mutated."""

    @functools.wraps(fn)
    def cached(ast: DiagramAst, *args, **kwargs):
        key = (fn.__name__, args, tuple(sorted(kwargs.items())))
        memo = ast._shape_memo
        if key not in memo:
            memo[key] = fn(ast, *args, **kwargs)
        return memo[key]

    return cached


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
    """Parse diagram source; the result round-trips through print_diagram."""
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
# Printing and rendering


def print_diagram(ast: DiagramAst) -> str:
    """Canonical source text; parse_diagram(print_diagram(ast)) == ast."""
    lines: list = []
    for d in ast.decls:
        lines.extend(_print_decl(d, indent=""))
    return "\n".join(lines) + ("\n" if lines else "")


def _print_decl(d, indent: str) -> list:
    if isinstance(d, LayerDecl):
        return [f"{indent}layer {d.id} in {d.category}"]
    if isinstance(d, FunctorDecl):
        return [f'{indent}functor {d.id} : {d.src_layer} -> {d.dst_layer} "{d.label}"']
    if isinstance(d, Node):
        return [f'{indent}node {d.id} : {d.layer} "{d.label}"{_print_annots(d)}']
    if isinstance(d, Arrow):
        token = _KIND_TOKENS[d.kind]
        return [f'{indent}arrow {d.id} : {d.src} {token} {d.dst} "{d.label}"{_print_annots(d)}']
    if isinstance(d, NonCommute):
        return [f"{indent}noncommute {'.'.join(d.left)} ; {'.'.join(d.right)}"]
    if isinstance(d, DefDecl):
        return [f'{indent}def {d.id} "{d.text}"']
    if isinstance(d, MacroDecl):
        lines = [f"{indent}macro {d.name} := {{"]
        for inner in d.body:
            lines.extend(_print_decl(inner, indent + "  "))
        lines.append(f"{indent}}}")
        return lines
    raise TypeError(f"not a declaration: {d!r}")


def _print_annots(e) -> str:
    out = ""
    if e.quantifier is not None:
        out += f" @{e.quantifier}({e.stage})"
    for use in e.uses:
        out += f" @use({use})"
    return out


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
        for a in items:
            token = _KIND_TOKENS[a.kind]
            src = _endpoint_label(ast, a.src)
            dst = _endpoint_label(ast, a.dst)
            lines.append(f"  {a.label} : {src} {token} {dst}{_annot_suffix(a)}")
    functors = list(ast.functors().values())
    if functors:
        lines.append("functors:")
        for f in functors:
            src = ast.layers()[f.src_layer].category
            dst = "Set" if f.dst_layer == "Set" else ast.layers()[f.dst_layer].category
            lines.append(f"  {f.label} : {src} -> {dst}")
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


def _endpoint_label(ast: DiagramAst, end: str) -> str:
    elements = ast.elements()
    if end in elements:
        return elements[end].label
    functors = ast.functors()
    if end in functors:
        return functors[end].label
    raise DiagramError(f"unknown endpoint {end!r}")


# ---------------------------------------------------------------------------
# Stage extraction


@dataclass(frozen=True)
class Stage:
    """One quantifier stage: the sub-diagram and the quantifier introducing it."""

    index: int
    quantifier: Optional[str]
    diagram: DiagramAst
    new_elements: tuple

    def counts(self) -> tuple:
        return (len(self.diagram.nodes()), len(self.diagram.arrows()))


def extract_stages(ast: DiagramAst) -> list:
    """Stages SQ_0 ⊆ ... ⊆ SQ_n with their quantifiers (stage 0 has none)."""
    validate_diagram(ast)
    n = ast.max_stage()
    quantifier_of: dict[int, str] = {}
    for e in ast.elements().values():
        if e.stage is not None:
            quantifier_of[e.stage] = e.quantifier

    subs: dict[int, DiagramAst] = {n: ast}
    new_elems: dict[int, tuple] = {}
    current = ast
    for k in range(n, 0, -1):
        erased = _erase_stage(current, k)
        keep = tuple(
            d
            for d in current.decls
            if not (isinstance(d, (Node, Arrow)) and d.id in erased)
        )
        keep = tuple(
            d
            for d in keep
            if not (isinstance(d, NonCommute) and (set(d.left) | set(d.right)) & erased)
        )
        new_elems[k] = tuple(e for e in current.elements() if e in erased)
        current = DiagramAst(keep)
        validate_diagram(current)
        subs[k - 1] = current
    new_elems[0] = tuple(subs[0].elements())

    return [
        Stage(k, quantifier_of.get(k), subs[k], new_elems[k]) for k in range(0, n + 1)
    ]


def _erase_stage(ast: DiagramAst, k: int) -> set:
    """Ids erased when removing stage ``k``: the annotated elements plus dependents."""
    nodes, arrows = ast.nodes(), ast.arrows()
    erased = {e.id for e in ast.elements().values() if e.stage == k}
    changed = True
    while changed:
        changed = False
        for a in arrows.values():
            if a.id in erased:
                continue
            incident = False
            if a.src in erased or a.dst in erased:
                incident = True
            if a.kind == "mapsto" and a.src in erased:
                # a definitional arrow with erased source takes its target along
                if a.dst not in erased:
                    erased.add(a.dst)
                    changed = True
            if incident:
                erased.add(a.id)
                changed = True
    for eid in erased:
        e = ast.elements()[eid]
        if e.stage is not None and e.stage < k:
            raise DiagramError(
                f"element {eid!r} at stage {e.stage} depends on a stage-{k} element"
            )
    return erased


# ---------------------------------------------------------------------------
# Models and value plumbing


@dataclass(frozen=True)
class Model:
    """Resolved bindings for evaluating one diagram.

    layers: layer id -> FinCat or FINSET; functors: (src layer, dst layer)
    -> FunctorVal; binds: stage-0 element id -> value; carriers: finite-set
    layer id -> candidate carriers for quantified nodes.
    """

    layers: Mapping[str, object]
    functors: Mapping[tuple, FunctorVal]
    binds: Mapping[str, object]
    carriers: Mapping[str, tuple] = field(default_factory=dict)


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

    targets = ast.mapsto_targets()
    binds: dict[str, object] = {}
    bind_items = sorted(
        spec.binds.items(), key=lambda kv: kv[0] not in ast.nodes()
    )  # nodes first: arrow values in finite-set layers decode against them
    for element_id, raw in bind_items:
        element = ast.elements().get(element_id)
        if element is None:
            raise DiagramError(f"model binds unknown element {element_id!r}")
        if element.stage is not None:
            raise DiagramError(f"element {element_id!r} is quantified and cannot be bound")
        if element_id in targets:
            raise DiagramError(f"element {element_id!r} is definitional (mapsto target)")
        if isinstance(element, Arrow) and element.kind == "mapsto":
            raise DiagramError(f"mapsto arrow {element_id!r} cannot be bound")
        binds[element_id] = _resolve_bind(ast, layers, element, raw, binds)

    for element in ast.elements().values():
        if element.stage is not None or element.id in targets:
            continue
        if isinstance(element, Arrow) and (
            element.kind == "mapsto" or element.src in ast.functors()
        ):
            continue
        if element.id not in binds:
            raise DiagramError(f"stage-0 element {element.id!r} is not bound by the model")

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
        except Exception as exc:
            raise DiagramError(f"bind {element.id!r}: {exc}") from None
    if raw not in cat.morphisms:
        raise DiagramError(f"bind {element.id!r}: unknown morphism {raw!r}")
    return raw


def _value_repr(v) -> str:
    if isinstance(v, FinSetMap):
        return encode_map(v, strict=False)
    if isinstance(v, tuple):
        return "(" + ", ".join(_value_repr(part) for part in v) + ")"
    return str(v)


def _compose_values(cat, g, f):
    try:
        return cat.comp(g, f)
    except KeyError:
        raise DiagramError(f"composition table has no entry for ({g!r}, {f!r})") from None


def _hom_values(cat, src_value, dst_value, cap: int):
    if cat is FINSET:
        return enumerate_maps(src_value, dst_value, cap)
    return cat.hom(src_value, dst_value)


# ---------------------------------------------------------------------------
# Commutativity


@_per_diagram
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


@_per_diagram
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


@_per_diagram
def _noncommute_keys(ast: DiagramAst) -> frozenset:
    return frozenset(frozenset((nc.left, nc.right)) for nc in ast.noncommutes())


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
    nodes, arrows = ast.nodes(), ast.arrows()
    for element in ast.elements().values():
        if isinstance(element, Arrow) and (
            element.kind == "mapsto" or element.src in ast.functors()
        ):
            continue
        if element.id not in assignment:
            raise DiagramError(f"element {element.id!r} has no assigned value")

    obligations: list = []

    typing_bad: list = []
    for a in arrows.values():
        if a.kind == "mapsto" or a.src in ast.functors():
            continue
        cat = model.layers[nodes[a.src].layer]
        want = (assignment[a.src], assignment[a.dst])
        values = assignment[a.id] if a.kind == "bij" else (assignment[a.id],)
        expected = [want, (want[1], want[0])] if a.kind == "bij" else [want]
        for value, want_pair in zip(values, expected):
            if (cat.dom(value), cat.cod(value)) != want_pair:
                typing_bad.append((a.id, _value_repr(value)))
    obligations.append(
        Obligation("endpoint_typing", not typing_bad, tuple(typing_bad[0]) if typing_bad else ())
    )
    # a mistyped arrow may have no composite; its typing witness is the finding
    mistyped = {arrow_id for arrow_id, _ in typing_bad}

    exempt = _noncommute_keys(ast)
    for layer_id in ast.layers():
        cycle = _hom_cycle(ast, layer_id)
        if cycle:
            raise DiagramError(f"layer {layer_id!r} has a cyclic hom graph: {cycle}")
        cat = model.layers[layer_id]
        bad: list = []
        paths = _layer_paths(ast, layer_id, include_bij=True)
        by_ends: dict[tuple, list] = {}
        for start, end, steps in paths:
            if mistyped.isdisjoint(arrow_id for arrow_id, _ in steps):
                by_ends.setdefault((start, end), []).append(steps)
        for (start, end), group in sorted(by_ends.items()):
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    p, q = group[i], group[j]
                    key = frozenset(
                        (tuple(s[0] for s in p), tuple(s[0] for s in q))
                    )
                    if key in exempt:
                        continue
                    lhs = _path_value(cat, model, assignment, start, p)
                    rhs = _path_value(cat, model, assignment, start, q)
                    if lhs != rhs:
                        bad.append(
                            (
                                _steps_text(p),
                                _steps_text(q),
                                _value_repr(lhs),
                                _value_repr(rhs),
                            )
                        )
        obligations.append(
            Obligation(f"commutes[{layer_id}]", not bad, tuple(bad[0]) if bad else ())
        )

    bij_bad: list = []
    for a in arrows.values():
        if a.kind != "bij" or a.id in mistyped:
            continue
        cat = model.layers[nodes[a.src].layer]
        fwd, bwd = assignment[a.id]
        if _compose_values(cat, bwd, fwd) != cat.id_of(assignment[a.src]):
            bij_bad.append((a.id, "bwd o fwd"))
        elif _compose_values(cat, fwd, bwd) != cat.id_of(assignment[a.dst]):
            bij_bad.append((a.id, "fwd o bwd"))
    obligations.append(
        Obligation("bij_round_trips", not bij_bad, tuple(bij_bad[0]) if bij_bad else ())
    )

    mapsto_bad: list = []
    for a in arrows.values():
        if a.kind != "mapsto":
            continue
        got = _mapsto_image(model, nodes, arrows, a, assignment[a.src])
        want = assignment[a.dst]
        if got != want:
            mapsto_bad.append((a.id, _value_repr(got), _value_repr(want)))
    obligations.append(
        Obligation("mapsto_equations", not mapsto_bad, tuple(mapsto_bad[0]) if mapsto_bad else ())
    )

    subject = f"diagram:{len(nodes)}nodes/{len(arrows)}arrows"
    return CheckReport(subject, tuple(obligations))


def _path_value(cat, model: Model, assignment: Mapping, start: str, steps: tuple):
    value = None
    for arrow_id, direction in steps:
        bound = assignment[arrow_id]
        if isinstance(bound, tuple):
            step_value = bound[0] if direction == "fwd" else bound[1]
        else:
            step_value = bound
        value = step_value if value is None else _compose_values(cat, step_value, value)
    return value


def _steps_text(steps: tuple) -> str:
    return ".".join(arrow_id for arrow_id, _ in steps)


# ---------------------------------------------------------------------------
# Quantified evaluation


@dataclass(frozen=True)
class EvalTrace:
    """Nested witness/counterexample trace of a staged evaluation."""

    stage: int
    quantifier: Optional[str]
    outcome: bool
    note: str
    assignment: tuple = ()
    child: Optional["EvalTrace"] = None

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

    def run(k: int, assignment: Mapping) -> tuple:
        if k > top:
            return True, None
        stage = stages[k]
        quantifier = stage.quantifier
        witnesses: list = []
        count = 0
        commuting = 0
        for extension in _stage_extensions(stage, model, assignment, cap):
            count += 1
            merged = dict(assignment)
            merged.update(extension)
            rep = check_commutativity(stage.diagram, model, merged)
            if not rep.passed:
                continue
            commuting += 1
            ok, sub = run(k + 1, merged)
            shown = _assignment_items(stage.new_elements, merged)
            if quantifier == "forall" and not ok:
                return False, EvalTrace(k, quantifier, False, "counterexample", shown, sub)
            if quantifier == "exists" and ok:
                return True, EvalTrace(k, quantifier, True, "witness", shown, sub)
            if quantifier == "existsuniq" and ok:
                witnesses.append((shown, sub))
                if len(witnesses) > 1:
                    first = witnesses[0][0]
                    return False, EvalTrace(
                        k,
                        quantifier,
                        False,
                        f"not unique: second extension also works (first was "
                        f"{_items_text(first)})",
                        shown,
                        sub,
                    )
        if quantifier == "forall":
            return True, EvalTrace(
                k, quantifier, True, f"all {commuting} commuting extensions satisfy the rest"
            )
        if quantifier == "exists":
            return False, EvalTrace(
                k,
                quantifier,
                False,
                f"no commuting extension satisfies the rest ({count} candidates)",
            )
        if quantifier == "existsuniq":
            if len(witnesses) == 1:
                shown, sub = witnesses[0]
                return True, EvalTrace(k, quantifier, True, "unique witness", shown, sub)
            return False, EvalTrace(
                k,
                quantifier,
                False,
                f"no commuting extension satisfies the rest ({count} candidates)",
            )
        raise DiagramError(f"stage {k} has no quantifier")  # unreachable past stage 0

    if top == 0:
        return True, EvalTrace(0, None, True, "all bindings commute",
                               _assignment_items(stage0.new_elements, base))
    ok, sub = run(1, base)
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


def _stage_extensions(stage: Stage, model: Model, assignment: Mapping, cap: int):
    """Yield candidate extension assignments for one stage, in sorted order."""
    ast = stage.diagram
    nodes, arrows = ast.nodes(), ast.arrows()
    targets = ast.mapsto_targets()
    new_nodes = [nodes[e] for e in stage.new_elements if e in nodes and e not in targets]
    new_arrows = []
    for e in stage.new_elements:
        if e in arrows and e not in targets:
            a = arrows[e]
            if a.kind == "mapsto":
                continue
            if a.kind == "bij":
                raise DiagramError(
                    f"bij arrow {a.id!r} cannot be introduced by a quantified stage"
                )
            if a.src in ast.functors():
                raise DiagramError(f"arrow {a.id!r} joins functors and cannot be enumerated")
            new_arrows.append(a)

    counter = [0]

    def bump():
        counter[0] += 1
        if counter[0] > cap:
            raise CapExceededError(
                f"stage {stage.index}: more than {cap} candidate extensions"
            )

    def node_candidates(node: Node):
        cat = model.layers[node.layer]
        if cat is FINSET:
            if node.layer not in model.carriers:
                raise DiagramError(
                    f"layer {node.layer!r} is bound to finite sets; quantified node "
                    f"{node.id!r} needs an explicit carrier list in the model"
                )
            return list(model.carriers[node.layer])
        return sorted(cat.objects)

    def assign_nodes(i: int, acc: dict):
        if i == len(new_nodes):
            extended = dict(acc)
            _compute_mapsto_targets(ast, model, extended, require_all=False)
            yield from assign_arrows(0, extended)
            return
        node = new_nodes[i]
        for value in node_candidates(node):
            acc[node.id] = value
            yield from assign_nodes(i + 1, acc)
        acc.pop(node.id, None)

    def assign_arrows(i: int, acc: dict):
        if i == len(new_arrows):
            extended = dict(acc)
            _compute_mapsto_targets(ast, model, extended)
            bump()
            yield {k: v for k, v in extended.items() if k not in assignment}
            return
        arrow = new_arrows[i]
        cat = model.layers[nodes[arrow.src].layer]
        for value in _hom_values(cat, acc[arrow.src], acc[arrow.dst], cap):
            acc[arrow.id] = value
            yield from assign_arrows(i + 1, acc)
        acc.pop(arrow.id, None)

    yield from assign_nodes(0, dict(assignment))


# ---------------------------------------------------------------------------
# Context elaboration


def elaborate_context(ast: DiagramAst) -> str:
    """Render the diagram as an ordered listing of typings and clauses.

    Layers come out as "<name> is a category", functor declarations as
    "<label> : <src> -> <dst>", nodes as "<label> in <layer name>", hom
    arrows as "<label> : <src label> -> <dst label>" and def lines
    verbatim, all in file order.  Definitional (mapsto) arrows and their
    targets are omitted: they are notation, not context entries.
    Quantified stages become "for all ..."/"there exists (a unique) ..."
    clauses whose equations are the stage's new commutation conditions,
    minimized against everything already known.
    """
    stages = extract_stages(ast)
    equations = _stage_equations(ast, stages)

    blocks: list = []  # list of (intro or None, [line texts])
    stage0_lines = [
        text for text in _typing_lines(ast, stages[0]) if text is not None
    ]
    for eq in equations.get(0, []):
        stage0_lines.append(eq)
    blocks.append((None, stage0_lines))

    phrases = {
        "forall": "for all",
        "exists": "there exists",
        "existsuniq": "there exists a unique",
    }
    for stage in stages[1:]:
        element_texts = [
            text
            for text in (
                _element_typing(ast, element_id) for element_id in stage.new_elements
            )
            if text is not None
        ]
        blocks.append((phrases[stage.quantifier], element_texts, equations.get(stage.index, [])))

    lines = ["In a context where:"]
    rendered: list = []
    for block in blocks:
        if block[0] is None:
            for text in block[1]:
                rendered.append(("  ", text))
            continue
        phrase, element_texts, eqs = block
        for i, text in enumerate(element_texts):
            prefix = f"{phrase} " if i == 0 else "  "
            is_last_element = i == len(element_texts) - 1
            if not is_last_element:
                rendered.append((prefix, text, " and"))
            elif eqs:
                rendered.append((prefix, text, " such that"))
            else:
                rendered.append((prefix, text))
        for eq in eqs:
            rendered.append(("  ", eq))

    # terminators: " and"/" such that" stay; otherwise "," except final "."
    for i, item in enumerate(rendered):
        prefix, text = item[0], item[1]
        suffix = item[2] if len(item) > 2 else None
        if suffix is None:
            suffix = "." if i == len(rendered) - 1 else ","
        lines.append(f"{prefix}{text}{suffix}")
    if len(lines) == 1:
        return "In a context where: (empty)\n"
    return "\n".join(lines) + "\n"


def _typing_lines(ast: DiagramAst, stage0: Stage):
    in_stage0 = set(stage0.new_elements)
    for d in ast.decls:
        if isinstance(d, LayerDecl):
            yield f"{d.category} is a category"
        elif isinstance(d, FunctorDecl):
            src = ast.layers()[d.src_layer].category
            dst = "Set" if d.dst_layer == "Set" else ast.layers()[d.dst_layer].category
            yield f"{d.label} : {src} -> {dst}"
        elif isinstance(d, DefDecl):
            yield d.text
        elif isinstance(d, (Node, Arrow)) and d.id in in_stage0:
            yield _element_typing(ast, d.id)


def _element_typing(ast: DiagramAst, element_id: str) -> Optional[str]:
    """The typing text of one element, or None when it is definitional."""
    element = ast.elements()[element_id]
    if element_id in ast.mapsto_targets():
        return None
    if isinstance(element, Node):
        return f"{element.label} in {ast.layers()[element.layer].category}"
    if element.kind == "mapsto":
        return None
    token = "<->" if element.kind == "bij" else "->"
    src = _endpoint_label(ast, element.src)
    dst = _endpoint_label(ast, element.dst)
    return f"{element.label} : {src} {token} {dst}"


def _stage_equations(ast: DiagramAst, stages: Sequence[Stage]) -> dict:
    """Per stage, the freshly imposed path equations, minimized.

    Default commutativity makes all parallel simple paths equal.  The
    equations reported for stage k are a minimal set of parallel-path
    pairs of SQ_k that are not already derivable from earlier stages'
    equations under the congruence "equal paths stay equal when extended
    by a common arrow".
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
        parent = {p: p for p in path_set}

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        def union(p, q):
            rp, rq = find(p), find(q)
            if rp != rq:
                parent[max(rp, rq)] = min(rp, rq)
                return True
            return False

        def saturate():
            changed = True
            while changed:
                changed = False
                classes: dict = {}
                for p in path_set:
                    classes.setdefault(find(p), []).append(p)
                for members in classes.values():
                    if len(members) < 2:
                        continue
                    rep = members[0]
                    for other in members[1:]:
                        for ext in _common_extensions(rep, other, path_set):
                            if union(*ext):
                                changed = True

        for p, q in emitted:
            if p in path_set and q in path_set:
                union(p, q)
        saturate()

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
                union(p, q)
                saturate()
        if fresh:
            out[stage.index] = fresh
    return out


def _common_extensions(p: tuple, q: tuple, path_set: set):
    """Pairs obtained from (p, q) by appending or prepending one arrow."""
    for other in path_set:
        if len(other) == len(p) + 1:
            if other[: len(p)] == p:
                ext = q + (other[-1],)
                if ext in path_set:
                    yield (other, ext)
            if other[1:] == p:
                ext = (other[0],) + q
                if ext in path_set:
                    yield (other, ext)


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
    local_ids = {d.id for d in body}

    decls = list(ast.decls)
    known_ids = set(ast.elements()) | set(ast.layers()) | set(ast.functors()) | set(ast.defs())
    offset = ast.max_stage()
    body_max = max((d.stage for d in body if d.stage), default=0)

    for occurrence, user in enumerate(users, start=1):
        renames = {}
        for local in local_ids:
            fresh = f"{local}${occurrence}"
            if fresh in known_ids:
                raise DiagramError(f"macro expansion captures existing name {fresh!r}")
            renames[local] = fresh

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
                decls.append(replace(d, id=renames[d.id], stage=stage))
            else:
                decls.append(
                    replace(
                        d,
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
                decls[i] = replace(d, uses=tuple(u for u in d.uses if u != name))

    expanded = DiagramAst(tuple(decls))
    validate_diagram(expanded)
    return expanded
