"""Loaders for the on-disk fixture formats.

Formats (all UTF-8 text, ``#`` starts a comment, blank lines ignored):

* ``.fincat`` — a category as explicit tables.  Sections ``objects:`` (one
  token per line), ``morphisms:`` (``name : dom -> cod``), ``compose:``
  (``g . f = h``).  Identities are implicit and auto-named ``id_<obj>``;
  identity composites are auto-filled and may be overridden by explicit
  ``compose:`` lines.  Alternatively a ``preorder:`` section (``a < b``
  cover lines) builds the reflexive-transitive closure category.  Object
  tokens and ``morphisms:`` names may not contain ``(``, ``)`` or ``,``,
  which a ``.model`` file's ``(fwd, bwd)`` bijection binding reserves.
  ``->`` stays legal, as in ``x->y``.
* ``.fun`` — a functor.  ``source:`` and ``target:`` name ``.fincat``
  files (or the literal ``finset``); ``objects:``/``morphisms:`` sections
  hold ``x |-> value`` lines.  Finite-set values are ``{a,b}`` sets and
  ``{a->x, b->y}`` maps; set atoms may not contain ``->``, ``{`` or ``}``,
  which the map encoding reserves.  Identity images are auto-filled,
  overridably.
* ``.nt`` — a natural transformation between two ``.fun`` files, with a
  ``components:`` section.
* ``.adj`` — an adjunction manifest: either ``left``/``right`` functors
  plus ``unit:``/``counit:`` component tables, or the universal-arrow
  form ``right:`` plus ``lobjects:``/``unit:`` tables.
* ``.model`` — bindings for evaluating a diagram: ``layer``, ``carriers``,
  ``functor`` and ``bind`` lines.

Relative paths inside a file are resolved against that file's directory.
Parse errors carry the file path and line number.

A loader that reads other files takes a ``memo``, one per invocation (see
`load_once`): every file it names is read and parsed once, and a file named
twice gives one shared object.  Called with a bare path, a loader makes a
fresh memo, so it returns fresh objects.
"""

from __future__ import annotations

import os
import re
from typing import Mapping, Optional, Sequence, Union

from .core import FINSET, FinCat, FinCatError, FunctorVal, NatTransVal, preorder_from_covers
from .finset import (
    EncodingError,
    FinSetMap,
    FinSetObj,
    check_encodable,
    decode_map,
    identity_map,
)
from .record import Record

__all__ = [
    "FixtureParseError",
    "AdjParts",
    "ModelSpec",
    "load_once",
    "load_category",
    "load_functor",
    "load_nattrans",
    "load_adjunction_parts",
    "load_model_spec",
    "parse_atom",
    "parse_set_literal",
    "split_top_level",
]


class FixtureParseError(Exception):
    """Malformed fixture file; message includes path and line number."""

    def __init__(self, path: str, lineno: Optional[int], message: str):
        where = path if lineno is None else f"{path}:{lineno}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.lineno = lineno


def _read_lines(path: str) -> list[tuple[int, str]]:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise FixtureParseError(path, None, f"cannot read file: {exc}") from None
    lines = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        text = line.strip()
        if text:
            lines.append((lineno, text))
    return lines


_SECTION_RE = re.compile(r"^([A-Za-z_]+):(.*)$")


def _split_sections(
    path: str, allowed: Sequence[str]
) -> dict[str, tuple[int, str, list[tuple[int, str]]]]:
    """Split a file into named sections.

    A line ``key: rest`` starts a section when ``key`` is in ``allowed``;
    every following line belongs to it until the next header.  Returns
    ``{key: (lineno, inline_text, body_lines)}``.
    """
    sections: dict[str, tuple[int, str, list[tuple[int, str]]]] = {}
    body: Optional[list[tuple[int, str]]] = None  # lines of the current section
    for lineno, text in _read_lines(path):
        m = _SECTION_RE.match(text) if ":" in text else None
        if m:
            key = m.group(1)
            if key not in allowed:
                raise FixtureParseError(
                    path, lineno, f"unknown section {key!r} (expected one of {sorted(allowed)})"
                )
            if key in sections:
                raise FixtureParseError(path, lineno, f"duplicate section {key!r}")
            body = []
            sections[key] = (lineno, m.group(2).strip(), body)
            continue
        if body is None:
            raise FixtureParseError(path, lineno, f"content before any section: {text!r}")
        body.append((lineno, text))
    return sections


def load_once(memo: dict, load, path: str, *args):
    """``load(path, *args)``, loaded at most once per ``memo``.

    ``memo`` maps the loader and the file's identity (its device and inode,
    as `os.path.samefile` compares them) to what that loader returned, so a
    file named twice, by any spelling, is read and parsed once and gives one
    shared object.  A load that raises stores nothing.
    """
    try:
        info = os.stat(path)
    except OSError:
        return load(path, *args)  # which reports the unreadable file
    key = (load, info.st_dev, info.st_ino)
    loaded = memo.get(key)
    if loaded is None:
        loaded = memo[key] = load(path, *args)
    return loaded


def _resolve(base_path: str, relative: str) -> str:
    if os.path.isabs(relative):
        return relative
    return os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(base_path)), relative))


def parse_atom(token: str) -> Union[int, str]:
    """An atom literal: all-digit tokens are integers, everything else tokens."""
    token = token.strip()
    return int(token) if token.isdigit() and token.isascii() else token


def parse_set_literal(text: str) -> FinSetObj:
    """A ``{a, b}`` literal; naming one atom twice (``{a, a}``, ``{1, 01}``)
    is an error."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"not a set literal: {text!r}")
    body = body[1:-1].strip()
    if not body:
        return FinSetObj()
    atoms = [parse_atom(tok) for tok in body.split(",")]
    result = FinSetObj(atoms)
    if len(result) < len(atoms):
        twice = next(a for i, a in enumerate(atoms) if a in atoms[:i])
        raise ValueError(f"atom {twice!r} named twice")
    return result


def split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split on ``sep`` outside any (), {}, [] nesting."""
    parts: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _mapping_lines(
    path: str, body: list[tuple[int, str]]
) -> list[tuple[int, str, str]]:
    out = []
    for lineno, text in body:
        if "|->" not in text:
            raise FixtureParseError(path, lineno, f"expected 'key |-> value', got {text!r}")
        key, value = text.split("|->", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise FixtureParseError(path, lineno, f"empty side in {text!r}")
        out.append((lineno, key, value))
    return out


# ---------------------------------------------------------------------------
# .fincat


_MOR_RE = re.compile(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")
_COMPOSE_RE = re.compile(r"^(\S+)\s*\.\s*(\S+)\s*=\s*(\S+)$")
_COVER_RE = re.compile(r"^(\S+)\s*<\s*(\S+)$")
_RESERVED_CHARS = "(),"


def _check_identifier(path: str, lineno: int, kind: str, name: str) -> None:
    reserved = [ch for ch in _RESERVED_CHARS if ch in name]
    if reserved:
        raise FixtureParseError(
            path, lineno, f"{kind} {name!r} contains reserved character {reserved[0]!r}"
        )


def load_category(path: str) -> FinCat:
    """Load a ``.fincat`` file into a :class:`FinCat` (laws not yet checked)."""
    sections = _split_sections(path, ("objects", "morphisms", "compose", "preorder"))
    if "objects" not in sections:
        raise FixtureParseError(path, None, "missing required section 'objects:'")
    if "preorder" in sections and ("morphisms" in sections or "compose" in sections):
        raise FixtureParseError(
            path, None, "'preorder:' cannot be combined with 'morphisms:'/'compose:'"
        )

    objects: list[str] = []
    for lineno, text in sections["objects"][2]:
        if len(text.split()) != 1:
            raise FixtureParseError(path, lineno, f"expected one object token, got {text!r}")
        _check_identifier(path, lineno, "object", text)
        if text in objects:
            raise FixtureParseError(path, lineno, f"duplicate object {text!r}")
        objects.append(text)

    if "preorder" in sections:
        known, covers = set(objects), []
        for lineno, text in sections["preorder"][2]:
            m = _COVER_RE.match(text)
            if not m:
                raise FixtureParseError(path, lineno, f"expected 'a < b', got {text!r}")
            if not known.issuperset(m.groups()):
                raise FixtureParseError(
                    path, lineno, f"cover {m.groups()!r} mentions unknown object"
                )
            covers.append(m.groups())
        try:
            return preorder_from_covers(objects, covers)
        except FinCatError as exc:
            raise FixtureParseError(path, sections["preorder"][0], str(exc)) from None

    morphisms: dict[str, tuple[str, str]] = {}
    if "morphisms" in sections:
        for lineno, text in sections["morphisms"][2]:
            m = _MOR_RE.match(text)
            if not m:
                raise FixtureParseError(path, lineno, f"expected 'name : dom -> cod', got {text!r}")
            name, dom, cod = m.groups()
            _check_identifier(path, lineno, "morphism", name)
            for end in (dom, cod):
                if end not in objects:
                    raise FixtureParseError(
                        path, lineno, f"morphism {name!r} names unknown object {end!r}"
                    )
            if name in morphisms:
                raise FixtureParseError(path, lineno, f"duplicate morphism {name!r}")
            if name.startswith("id_") and (dom, cod) != (name[3:], name[3:]) and name[3:] in objects:
                owner = name[3:]
                raise FixtureParseError(
                    path,
                    lineno,
                    f"morphism {name!r} : {dom} -> {cod} clashes with the identity "
                    f"of object {owner!r}, which runs {owner} -> {owner}",
                )
            morphisms[name] = (dom, cod)

    identity = {}
    for x in objects:
        ident = f"id_{x}"
        morphisms.setdefault(ident, (x, x))
        identity[x] = ident

    compose: dict[tuple[str, str], str] = {}
    for f, (fd, fc) in morphisms.items():
        compose[(identity[fc], f)] = f
        compose[(f, identity[fd])] = f

    if "compose" in sections:
        for lineno, text in sections["compose"][2]:
            # ``g . f = h`` splits into five tokens, and then the regular
            # expression would match the same three names
            tokens = text.split()
            if len(tokens) == 5 and tokens[1] == "." and tokens[3] == "=":
                g, _dot, f, _eq, h = tokens
            else:
                m = _COMPOSE_RE.match(text)
                if not m:
                    raise FixtureParseError(path, lineno, f"expected 'g . f = h', got {text!r}")
                g, f, h = m.groups()
            for name in (g, f, h):
                if name not in morphisms:
                    raise FixtureParseError(path, lineno, f"unknown morphism {name!r}")
            compose[(g, f)] = h

    return FinCat(tuple(objects), morphisms, identity, compose)


# ---------------------------------------------------------------------------
# .fun


def load_functor(path: str, memo: Optional[dict] = None) -> FunctorVal:
    """Load a ``.fun`` file into a :class:`FunctorVal` (laws not yet checked)."""
    memo = {} if memo is None else memo
    sections = _split_sections(path, ("source", "target", "objects", "morphisms"))
    for required in ("source", "target"):
        if required not in sections:
            raise FixtureParseError(path, None, f"missing required section {required!r}")
    source = load_once(memo, load_category, _resolve(path, sections["source"][1]))
    target_text = sections["target"][1]
    finset_valued = target_text == "finset"
    if finset_valued:
        target = FINSET
    else:
        target = load_once(memo, load_category, _resolve(path, target_text))

    object_map: dict[str, object] = {}
    for lineno, key, value in _mapping_lines(path, sections.get("objects", (0, "", []))[2]):
        if key not in source.objects:
            raise FixtureParseError(path, lineno, f"unknown source object {key!r}")
        if key in object_map:
            raise FixtureParseError(path, lineno, f"object {key!r} mapped twice")
        if finset_valued:
            try:
                object_map[key] = parse_set_literal(value)
                check_encodable(object_map[key])
            except (ValueError, EncodingError) as exc:
                raise FixtureParseError(path, lineno, str(exc)) from None
        else:
            object_map[key] = value
    missing = [x for x in source.objects if x not in object_map]
    if missing:
        raise FixtureParseError(path, None, f"source object {missing[0]!r} is not mapped")

    morphism_map: dict[str, object] = {}
    for lineno, key, value in _mapping_lines(path, sections.get("morphisms", (0, "", []))[2]):
        if key not in source.morphisms:
            raise FixtureParseError(path, lineno, f"unknown source morphism {key!r}")
        if key in morphism_map:
            raise FixtureParseError(path, lineno, f"morphism {key!r} mapped twice")
        if finset_valued:
            dom = object_map[source.dom(key)]
            cod = object_map[source.cod(key)]
            try:
                morphism_map[key] = decode_map(value, dom, cod)
            except (ValueError, EncodingError) as exc:
                raise FixtureParseError(path, lineno, str(exc)) from None
        else:
            morphism_map[key] = value

    for x in source.objects:
        ident = source.id_of(x)
        if ident not in morphism_map:
            if finset_valued:
                morphism_map[ident] = identity_map(object_map[x])
            else:
                img = object_map[x]
                if img not in target.identity:
                    raise FixtureParseError(
                        path, None, f"object {x!r} maps to unknown target object {img!r}"
                    )
                morphism_map[ident] = target.id_of(img)
    unmapped = [m for m in source.sorted_morphisms() if m not in morphism_map]
    if unmapped:
        raise FixtureParseError(path, None, f"source morphism {unmapped[0]!r} is not mapped")

    return FunctorVal(source, target, object_map, morphism_map)


# ---------------------------------------------------------------------------
# .nt


def load_nattrans(path: str, memo: Optional[dict] = None) -> NatTransVal:
    """Load a ``.nt`` file into a :class:`NatTransVal` (laws not yet checked)."""
    memo = {} if memo is None else memo
    sections = _split_sections(path, ("source", "target", "components"))
    for required in ("source", "target", "components"):
        if required not in sections:
            raise FixtureParseError(path, None, f"missing required section {required!r}")
    f = load_once(memo, load_functor, _resolve(path, sections["source"][1]), memo)
    g = load_once(memo, load_functor, _resolve(path, sections["target"][1]), memo)
    finset_valued = f.target is FINSET

    components: dict[str, object] = {}
    for lineno, key, value in _mapping_lines(path, sections["components"][2]):
        if key not in f.source.objects:
            raise FixtureParseError(path, lineno, f"unknown object {key!r}")
        if key in components:
            raise FixtureParseError(path, lineno, f"component for {key!r} given twice")
        if finset_valued:
            try:
                components[key] = decode_map(value, f.object_map[key], g.object_map[key])
            except (ValueError, EncodingError) as exc:
                raise FixtureParseError(path, lineno, str(exc)) from None
        else:
            components[key] = value
    missing = [x for x in f.source.objects if x not in components]
    if missing:
        raise FixtureParseError(path, None, f"no component for object {missing[0]!r}")
    return NatTransVal(f, g, components)


# ---------------------------------------------------------------------------
# .adj


class AdjParts(Record):
    """Raw pieces of an adjunction manifest.

    ``kind`` is "full" (left/right/unit/counit given) or "build" (right
    functor plus, per source object, a chosen target object and unit
    component — the universal-arrow data).
    """

    kind: str
    path: str
    right: FunctorVal
    left: Optional[FunctorVal] = None
    unit: Mapping[str, str] = {}
    counit: Mapping[str, str] = {}
    lobjects: Mapping[str, str] = {}


def load_adjunction_parts(path: str, memo: Optional[dict] = None) -> AdjParts:
    """Load a ``.adj`` manifest; assembly and law checking live elsewhere."""
    memo = {} if memo is None else memo
    sections = _split_sections(path, ("left", "right", "unit", "counit", "lobjects"))
    if "right" not in sections:
        raise FixtureParseError(path, None, "missing required section 'right:'")
    right = load_once(memo, load_functor, _resolve(path, sections["right"][1]), memo)

    def table(section: str) -> dict[str, str]:
        out: dict[str, str] = {}
        for lineno, key, value in _mapping_lines(path, sections[section][2]):
            if key in out:
                raise FixtureParseError(path, lineno, f"{section} entry for {key!r} given twice")
            out[key] = value
        return out

    if "left" in sections:
        if "lobjects" in sections:
            raise FixtureParseError(path, None, "'left:' and 'lobjects:' are mutually exclusive")
        for required in ("unit", "counit"):
            if required not in sections:
                raise FixtureParseError(path, None, f"missing required section {required!r}")
        left = load_once(memo, load_functor, _resolve(path, sections["left"][1]), memo)
        return AdjParts(
            kind="full",
            path=path,
            right=right,
            left=left,
            unit=table("unit"),
            counit=table("counit"),
        )

    for required in ("lobjects", "unit"):
        if required not in sections:
            raise FixtureParseError(path, None, f"missing required section {required!r}")
    if "counit" in sections:
        raise FixtureParseError(path, None, "'counit:' is not allowed in build manifests")
    return AdjParts(
        kind="build",
        path=path,
        right=right,
        unit=table("unit"),
        lobjects=table("lobjects"),
    )


# ---------------------------------------------------------------------------
# .model


class ModelSpec(Record):
    """Parsed ``.model`` file: layer/functor bindings plus raw element binds.

    ``binds`` values are kept as raw strings; resolving them against a
    diagram's element kinds happens in the diagram module.
    """

    path: str
    layers: Mapping[str, object]  # layer id -> FinCat | FINSET
    functors: Mapping[tuple[str, str], FunctorVal]
    binds: Mapping[str, str]
    carriers: Mapping[str, tuple[FinSetObj, ...]]


_MODEL_LAYER_RE = re.compile(r"^layer\s+(\S+)\s*=\s*(\S+)$")
_MODEL_CARRIERS_RE = re.compile(r"^carriers\s+(\S+)\s*=\s*(.+)$")
_MODEL_FUNCTOR_RE = re.compile(r"^functor\s+(\S+)\s+(\S+)\s*=\s*(\S+)$")
_MODEL_BIND_RE = re.compile(r"^bind\s+(\S+)\s*=\s*(.+)$")


def load_model_spec(path: str, memo: Optional[dict] = None) -> ModelSpec:
    """Load a ``.model`` file."""
    memo = {} if memo is None else memo
    layers: dict[str, object] = {}
    functors: dict[tuple[str, str], FunctorVal] = {}
    binds: dict[str, str] = {}
    carriers: dict[str, tuple[FinSetObj, ...]] = {}
    for lineno, text in _read_lines(path):
        m = _MODEL_LAYER_RE.match(text)
        if m:
            name, ref = m.groups()
            if name in layers:
                raise FixtureParseError(path, lineno, f"layer {name!r} bound twice")
            layers[name] = FINSET if ref == "finset" else load_once(
                memo, load_category, _resolve(path, ref)
            )
            continue
        m = _MODEL_CARRIERS_RE.match(text)
        if m:
            name, rest = m.groups()
            if name in carriers:
                raise FixtureParseError(path, lineno, f"carriers for {name!r} given twice")
            try:
                carriers[name] = tuple(
                    parse_set_literal(part) for part in rest.split(";") if part.strip()
                )
            except ValueError as exc:
                raise FixtureParseError(path, lineno, str(exc)) from None
            continue
        m = _MODEL_FUNCTOR_RE.match(text)
        if m:
            src, dst, ref = m.groups()
            key = (src, dst)
            if key in functors:
                raise FixtureParseError(path, lineno, f"functor for {src!r}->{dst!r} bound twice")
            functors[key] = load_once(memo, load_functor, _resolve(path, ref), memo)
            continue
        m = _MODEL_BIND_RE.match(text)
        if m:
            name, value = m.groups()
            if name in binds:
                raise FixtureParseError(path, lineno, f"element {name!r} bound twice")
            binds[name] = value.strip()
            continue
        raise FixtureParseError(path, lineno, f"unrecognized model line: {text!r}")

    for (src, dst), fun in functors.items():
        for end, cat in ((src, fun.source), (dst, fun.target)):
            if end not in layers:
                raise FixtureParseError(path, None, f"functor references unbound layer {end!r}")
        if layers[src] != fun.source:
            raise FixtureParseError(path, None, f"functor source differs from layer {src!r}")
        if layers[dst] != fun.target:
            raise FixtureParseError(path, None, f"functor target differs from layer {dst!r}")
    for name in carriers:
        if layers.get(name) is not FINSET:
            raise FixtureParseError(path, None, f"carriers given for non-finset layer {name!r}")
    return ModelSpec(path, layers, functors, binds, carriers)
