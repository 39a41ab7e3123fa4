"""Conversions the tests use and no fincat command needs.

The library tells transformations between set-valued functors apart by
their flat tuples of values (``nattrans_values``, laid out by
``nattrans_slices``).  The helpers here make such tuples into
``NatTransVal``s, lift the seed map of a ``SeededContext`` to its
transformation and read it back, list the one-step reducts of a
term, draw random cover relations, copy fixtures with their preorders'
tables spelled out in ``compose:`` sections, present a set-valued functor along its
generators to the limit and colimit kernels, and print a diagram back to
its source text.  Unlike ``oracles``, they reuse the
library's search: they only change how its answers are presented.
``lawful`` sorts test subjects into the functors that the kernels take and
the tables that the commands' gates refuse.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest

from fincat.core import (
    FinCatError,
    NatTransVal,
    require_category,
    require_functor,
    validate_functor,
)
from fincat.diagram import (
    _KIND_TOKENS,
    Arrow,
    DefDecl,
    DiagramAst,
    FunctorDecl,
    LayerDecl,
    MacroDecl,
    Node,
    NonCommute,
)
from fincat.files import load_category
from fincat.finset import DEFAULT_ENUM_CAP, FinSetMap, nattrans_slices, nattrans_values
from fincat.terms import _EMPTY_SIGNATURE, _distinct_reducts
from fincat.yoneda import HomContext, hom_cov_functor, hom_maps_functor


class SeededContext(HomContext):
    """A ``HomContext`` with, optionally, a seed map
    ``probe -> set_functor(anchor)`` and/or a transformation from the
    anchor's hom-functor to the maps-out-of-probe functor."""

    seed: Optional[FinSetMap] = None
    transform: Optional[NatTransVal] = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.seed is not None:
            want = (self.probe, self.set_functor.object_map[self.anchor])
            if (self.seed.dom, self.seed.cod) != want:
                raise ValueError("seed map has wrong endpoints")


def lawful(functor) -> bool:
    """Whether ``functor`` is a functor, which the kernels require; when it
    is not, the gates that every command runs first refuse it."""
    if validate_functor(functor).passed:
        return True
    with pytest.raises(FinCatError, match="is not a (functor|category)"):
        require_category(functor.source, "functor source")
        require_functor(functor)
    return False


def nattrans_from_values(f, g, values, shared=None) -> NatTransVal:
    """The transformation f => g whose flat tuple of values is ``values``.
    ``shared`` maps (object, component values) to a component already made,
    and an equal component is that one object."""
    shared = {} if shared is None else shared
    components = {}
    for c, part in nattrans_slices(f).items():
        key = (c, values[part])
        if key not in shared:
            shared[key] = FinSetMap(f.object_map[c], g.object_map[c], values[part])
        components[c] = shared[key]
    return NatTransVal(f, g, components)


def enumerate_nattrans_finset(f, g, cap: int = DEFAULT_ENUM_CAP) -> list:
    """``nattrans_values`` with each tuple made a NatTransVal, in the same
    order; equal components are one shared FinSetMap."""
    shared = {}
    return [nattrans_from_values(f, g, values, shared) for values in nattrans_values(f, g, cap)]


def presentation(functor) -> tuple:
    """``functor`` presented to ``presented_limit`` and ``presented_colimit``:
    its sorted objects, its object map and one edge ``(j, map, j2)`` per
    generator of its source, which decide the (co)limit of a functor."""
    shape = functor.source
    edges = [(shape.dom(f), functor.morphism_map[f], shape.cod(f)) for f in shape.generators]
    return sorted(shape.objects), functor.object_map, edges


def transform_from_seed(ctx) -> NatTransVal:
    """The transformation of a ``SeededContext``'s seed, from the anchor's
    hom-functor into the probe's maps functor: its component at D sends f to
    (image of f) . seed."""
    if ctx.seed is None:
        raise ValueError("context has no seed map")
    source = hom_cov_functor(ctx.category, ctx.anchor)
    target = hom_maps_functor(ctx.probe, ctx.set_functor)
    components = {}
    for d in ctx.category.objects:
        hom = source.object_map[d]
        images = (target.morphism_map[f](ctx.seed.values) for f in hom)
        components[d] = FinSetMap(hom, target.object_map[d], images)
    return NatTransVal(source, target, components)


def seed_from_transform(ctx) -> FinSetMap:
    """Recover the seed map of a ``SeededContext``'s transformation: the anchor
    component applied to the identity."""
    if ctx.transform is None:
        raise ValueError("context has no transformation")
    values = ctx.transform.at(ctx.anchor)(ctx.category.id_of(ctx.anchor))
    return FinSetMap(ctx.probe, ctx.set_functor.object_map[ctx.anchor], values)


def one_step_reductions(t, sig=None) -> list:
    """All terms obtained by contracting exactly one redex anywhere in ``t``,
    without alpha-duplicates and sorted by canonical print."""
    return _distinct_reducts(t, _EMPTY_SIGNATURE if sig is None else sig, {})


def random_covers(rng: random.Random, acyclic: bool):
    """Objects and covers of a random relation on at most nine objects, each
    pair ordered one way with chance 0.3; unless ``acyclic``, one random
    cycle is added.  Covers and objects come shuffled."""
    size = rng.randint(1, 9)
    objects = [f"v{i}" for i in rng.sample(range(20), size)]
    covers = []
    for i, a in enumerate(objects):
        for b in objects[i + 1 :]:
            if rng.random() < 0.3:
                covers.append((a, b))
    if not acyclic and size > 1:
        loop = sorted(rng.sample(range(size), rng.randint(2, size)))
        covers += [(objects[i], objects[j]) for i, j in zip(loop, loop[1:] + loop[:1])]
    rng.shuffle(covers)
    rng.shuffle(objects)
    return objects, covers


def explicit_copies(fix, tmp_path, stems, *names) -> list:
    """Copies in ``tmp_path`` of the fixture files ``names`` in which every
    table ``<stem>.fincat`` of ``stems`` they name is replaced by a copy
    that spells out its morphisms and its whole composition table; their
    paths."""
    paths = []
    for name in names:
        with open(fix(name), encoding="utf-8") as handle:
            text = handle.read()
        for stem in stems:
            copy = tmp_path / f"{stem}_tables.fincat"
            if not copy.exists():
                c = load_category(fix(f"{stem}.fincat"))
                ids = set(c.identity.values())
                lines = ["objects:"] + [f"  {x}" for x in c.objects] + ["morphisms:"]
                ends = c.morphisms.items()
                lines += [f"  {m} : {d} -> {e}" for m, (d, e) in ends if m not in ids]
                lines += ["compose:"] + [f"  {g} . {f} = {h}" for (g, f), h in c.compose.items()]
                copy.write_text("\n".join(lines) + "\n")
            text = text.replace(f" {stem}.fincat\n", f" {copy}\n")
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    return paths


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
