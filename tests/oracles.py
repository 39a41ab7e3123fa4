"""Independent reference implementations used to cross-check the package.

Nothing here shares search or enumeration logic with the library: category
laws are checked by a triple loop over the raw morphism table, preorder
closures by a pairwise fixpoint, limits and natural transformations are
enumerated by a raw cartesian product filtered by the diagram's maps or the
naturality squares, universal-arrow tables by testing every (morphism, map)
pair, and term inhabitants by a bottom-up enumeration of all well-typed
terms followed by a normality filter.  Only the report and AST constructors
and the canonical printer are reused, so the comparisons exercise the
library's *search* and *index* code paths.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from fincat.core import CheckReport, Obligation
from fincat.terms import (
    App,
    Lam,
    Pair,
    Proj,
    Tm,
    Ty,
    TyArrow,
    TyProd,
    Var,
    canonical_print,
)

# ---------------------------------------------------------------------------
# Category laws and preorder closures without any index
# ---------------------------------------------------------------------------


def triple_loop_validate(c) -> CheckReport:
    """The category laws of a well-formed table, by filtering the full sorted
    morphism list at every level of the associativity triple loop.  Same
    obligations, witnesses and subject as ``validate_category``."""
    ordered = sorted(c.morphisms)

    def dom(m):
        return c.morphisms[m][0]

    def cod(m):
        return c.morphisms[m][1]

    def first(found):
        return tuple(found[0]) if found else ()

    coh = []
    for x in c.objects:
        i = c.identity[x]
        if c.morphisms[i] != (x, x):
            coh.append((x, i) + c.morphisms[i])
    for (g, f), h in sorted(c.compose.items()):
        if cod(f) != dom(g):
            coh.append((g, f, h, "not composable"))
        elif (dom(h), cod(h)) != (dom(f), cod(g)):
            coh.append((g, f, h, "boundary mismatch"))

    missing = [
        (g, f) for g in ordered for f in ordered if cod(f) == dom(g) and (g, f) not in c.compose
    ]
    tot = missing + [(g, f) for (g, f) in sorted(c.compose) if cod(f) != dom(g)]

    assoc = []
    for f in ordered:
        for g in ordered:
            if dom(g) != cod(f):
                continue
            for h in ordered:
                if dom(h) != cod(g):
                    continue
                gf, hg = c.compose.get((g, f)), c.compose.get((h, g))
                if gf is None or hg is None:
                    continue
                left, right = c.compose.get((h, gf)), c.compose.get((hg, f))
                if left != right:
                    assoc.append((h, g, f, left, right))

    idl = []
    idr = []
    for f in ordered:
        li = c.compose.get((c.identity[cod(f)], f))
        if li is not None and li != f:
            idl.append((f, li))
        ri = c.compose.get((f, c.identity[dom(f)]))
        if ri is not None and ri != f:
            idr.append((f, ri))

    laws = [
        ("coherence", coh),
        ("totality", tot),
        ("associativity", assoc),
        ("left_identity", idl),
        ("right_identity", idr),
    ]
    return CheckReport(
        f"category:{len(c.objects)}obj/{len(c.morphisms)}mor",
        tuple(Obligation(name, not found, first(found)) for name, found in laws),
    )


def fixpoint_closure(objects, covers) -> set:
    """The reflexive-transitive closure of a cover relation as a set of
    pairs, by adding a composite pair until no pass adds one."""
    le = {(x, x) for x in objects} | set(covers)
    changed = True
    while changed:
        changed = False
        for (a, b), (b2, c) in itertools.product(list(le), list(le)):
            if b == b2 and (a, c) not in le:
                le.add((a, c))
                changed = True
    return le


# ---------------------------------------------------------------------------
# Limits, natural transformations and universal arrows by product-and-filter
# ---------------------------------------------------------------------------


def product_filter_limit(d) -> list:
    """All compatible families of a finite-set valued diagram, as dicts.

    Enumerates the full cartesian product of the value sets over the sorted
    objects and keeps the families every morphism's table respects, in
    product order.
    """
    objs = sorted(d.source.objects)
    families = []
    for combo in itertools.product(*(list(d.object_map[j]) for j in objs)):
        family = dict(zip(objs, combo))
        if all(
            d.morphism_map[m].table[family[j]] == family[j2]
            for m, (j, j2) in d.source.morphisms.items()
        ):
            families.append(family)
    return families


def product_filter_nattrans(f, g) -> list:
    """All natural component families from f to g, as canonical table keys.

    Enumerates every family of component tables outright (cartesian product
    over all functions per object) and keeps the ones for which every
    naturality square commutes, checked entry by entry on raw dicts.  The
    result is in product order: lexicographic over the sorted objects, the
    sorted domain atoms and the sorted codomain atoms.
    """
    objs = sorted(f.source.objects)
    per_object = []
    for x in objs:
        dom = list(f.object_map[x])
        cod = list(g.object_map[x])
        per_object.append(
            [dict(zip(dom, picks)) for picks in itertools.product(cod, repeat=len(dom))]
        )

    found = []
    for combo in itertools.product(*per_object):
        components = dict(zip(objs, combo))
        natural = True
        for m, (x, y) in f.source.morphisms.items():
            f_action = f.morphism_map[m].table
            g_action = g.morphism_map[m].table
            for a in f.object_map[x]:
                if g_action[components[x][a]] != components[y][f_action[a]]:
                    natural = False
                    break
            if not natural:
                break
        if natural:
            found.append(
                tuple((x, tuple(sorted(components[x].items()))) for x in objs)
            )
    return found


def nattrans_table_key(t) -> tuple:
    """The same canonical key shape for a library transformation value."""
    return tuple(
        (x, tuple(sorted(t.components[x].table.items())))
        for x in sorted(t.components)
    )


def brute_universal_table(category, set_functor, probe, anchor, seed) -> list:
    """The (object, map encoding) -> solutions entries of a universal-arrow
    check, by testing every morphism anchor -> D against every map
    probe -> values(D) pointwise on raw tables, in the library's order."""
    points = list(probe)
    entries = []
    for d in sorted(category.objects):
        hom = sorted(m for m, ends in category.morphisms.items() if ends == (anchor, d))
        for picks in itertools.product(list(set_functor.object_map[d]), repeat=len(points)):
            g = dict(zip(points, picks))
            solutions = tuple(
                f
                for f in hom
                if all(
                    set_functor.morphism_map[f].table[seed.table[p]] == g[p] for p in points
                )
            )
            encoding = "{" + ",".join(f"{p}->{g[p]}" for p in points) + "}"
            entries.append(((d, encoding), solutions))
    return entries


# ---------------------------------------------------------------------------
# Term inhabitants by brute enumeration + type checking
# ---------------------------------------------------------------------------


def subformulas(ty: Ty) -> frozenset:
    out = {ty}
    if isinstance(ty, (TyArrow, TyProd)):
        left = ty.src if isinstance(ty, TyArrow) else ty.left
        right = ty.dst if isinstance(ty, TyArrow) else ty.right
        out |= subformulas(left) | subformulas(right)
    return frozenset(out)


def _is_normal(t: Tm) -> bool:
    """No beta redex and no projection of a literal pair anywhere."""
    if isinstance(t, Var):
        return True
    if isinstance(t, Lam):
        return _is_normal(t.body)
    if isinstance(t, App):
        if isinstance(t.fn, Lam):
            return False
        return _is_normal(t.fn) and _is_normal(t.arg)
    if isinstance(t, Pair):
        return _is_normal(t.left) and _is_normal(t.right)
    if isinstance(t, Proj):
        if isinstance(t.body, Pair):
            return False
        return _is_normal(t.body)
    raise TypeError(f"not a pure term: {t!r}")


def _well_typed(env: tuple, depth: int, universe: frozenset, cache: dict) -> dict:
    """All well-typed terms of tree depth <= depth whose type is in the
    universe, as canonical-print -> (term, type).

    By the subformula property, restricting every subterm's type to the
    subformula universe of the goal and hypotheses loses no beta-normal
    inhabitant of the goal.
    """
    key = (env, depth)
    if key in cache:
        return cache[key]
    out: dict = {}

    def add(term, ty):
        if ty in universe:
            out.setdefault((canonical_print(term), ty), (term, ty))

    if depth >= 1:
        for name, ty in env:
            add(Var(name), ty)
    if depth >= 2:
        prev = list(_well_typed(env, depth - 1, universe, cache).values())
        for fn, fn_ty in prev:
            if isinstance(fn_ty, TyArrow):
                for arg, arg_ty in prev:
                    if arg_ty == fn_ty.src:
                        add(App(fn, arg), fn_ty.dst)
        for left, left_ty in prev:
            for right, right_ty in prev:
                add(Pair(left, right), TyProd(left_ty, right_ty))
        for body, body_ty in prev:
            if isinstance(body_ty, TyProd):
                add(Proj(1, body), body_ty.left)
                add(Proj(2, body), body_ty.right)
        fresh = f"v{len(env) + 1}"
        for annotation in universe:
            inner = _well_typed(env + ((fresh, annotation),), depth - 1, universe, cache)
            for body, body_ty in inner.values():
                add(Lam(fresh, annotation, body), TyArrow(annotation, body_ty))
    cache[key] = out
    return out


def brute_inhabitants(ctx: Sequence[tuple], goal: Ty, depth: int) -> list:
    """Canonical prints of every beta-normal inhabitant of tree depth <= depth."""
    universe = subformulas(goal)
    for _, ty in ctx:
        universe |= subformulas(ty)
    universe = frozenset(universe)
    cache: dict = {}
    everything = _well_typed(tuple(ctx), depth, universe, cache)
    return sorted(
        {
            text
            for (text, ty), (term, _) in everything.items()
            if ty == goal and _is_normal(term)
        }
    )


def goal_types(atoms: Iterable[str], constructors: int) -> list:
    """Every type over the atoms using at most the given number of binary
    constructors, in a deterministic order."""
    from fincat.terms import TyAtom

    by_size = {0: [TyAtom(a) for a in sorted(atoms)]}
    for size in range(1, constructors + 1):
        layer = []
        for left_size in range(0, size):
            right_size = size - 1 - left_size
            for left in by_size[left_size]:
                for right in by_size[right_size]:
                    layer.append(TyArrow(left, right))
                    layer.append(TyProd(left, right))
        by_size[size] = layer
    out = []
    for size in range(0, constructors + 1):
        out.extend(by_size[size])
    return out
