"""Independent reference implementations used to cross-check the package.

Nothing here shares search or enumeration logic with the library: category
laws are checked by a triple loop over the raw morphism table, preorder
closures by a pairwise fixpoint, limits and natural transformations are
enumerated by a raw cartesian product filtered by the diagram's maps or the
naturality squares, and term inhabitants by a bottom-up enumeration of all well-typed
terms followed by a normality filter.  Only the report and AST constructors
and ``free_vars`` are reused (and, by the reduction-graph reference, the
contraction and typing helpers), so the comparisons exercise
the library's *search*, *index* and *printing* code paths.

Some references are the library's own earlier algorithms rather than brute
force, kept to pin the exact output of the faster code that replaced them:

* ``rebuilding_print_term`` and ``rebuilding_canonical_print`` are the
  printers that built a renamed copy of every term (``canonicalize``) before
  printing it recursively, and ``rebuilding_sort_key`` the inhabitant order
  on them;
* ``print_keyed_inhabitants`` is the goal-directed inhabitant search that
  deduplicated every memo entry by canonical print;
* ``keyed_reductions`` and ``rebuilding_reduction_graph`` are the one-step
  reductions and the reduction graph keyed by those prints; the graph's
  flags come from its own cycle check (``has_cycle``, peeling nodes with no
  successor left) and local-confluence check (``joins_every_fork``, the
  descendants of every pair of successors intersected), where the library
  reads local confluence of a terminating graph off its normal forms;
* ``string_encoded_hom_maps_functor``, ``rebuilding_transform_from_seed``,
  ``rebuilding_roundtrips`` and ``rebuilding_pointwise_bijection`` are the
  Yoneda checks that named every map by its text "{a->x}", composed and
  printed a new map for every action entry, read seeds back from that text,
  and rebuilt both hom-functors for every seed, transformation and element;
  the pointwise one also checks every element's naturality squares, where
  the library looks its flat tuple up in the enumerated set;
* ``all_morphism_nattrans_values``, ``all_morphism_limit`` and
  ``all_morphism_colimit`` are ``nattrans_values`` and the limit and
  colimit of a functor as they took the law of every morphism (the first
  two search with ``backtracking_solve``), where the library takes a
  generating set of morphisms, ``FinCat.generators`` (the tests present a
  functor along them with ``helpers.presentation``), whose reference is
  the naive closure ``brute_generators``; the rebuilding Yoneda checks and
  ``materialised_kan_adjointness`` enumerate with
  ``all_morphism_nattrans``, so they do not check the kernel with itself;
* ``backtracking_solve`` is ``finset._solve`` as it tried every candidate
  of every variable in one backtracking loop, where the library filters
  the candidates of a variable tied to a one-candidate variable up front
  and multiplies the solutions of independent consecutive blocks;
* ``all_pairs_naturality`` is the adjunction check that tested flat/sharp
  naturality jointly, over every pair of morphisms (f, k) of both categories;
* ``scanning_universal_arrows`` solves an adjunction from universal arrows
  by scanning hom(chosen(a), b) anew for each g it needs solutions of,
  where the library sorts that hom-set by g in one pass per (a, b);
* ``elementwise_naturality_failures`` and ``elementwise_respects_composition``
  are the naturality and functor-composition checks that composed one table
  cell at a time, where the library compares one tuple per morphism (and,
  for a set-valued functor, reads each composite as a tuple of values);
* ``composed_square_failures`` is the naturality-square check of
  ``validate_nattrans`` that composed two maps per morphism, where the
  library reads both sides of a set-valued square as value tuples;
* ``materialised_kan_adjointness`` is ``check_kan_adjointness`` over
  NatTransVals, transposing by composing one map per source object and
  comparing frozensets of component maps, where the library gathers or
  pushes flat value tuples;
* ``path_by_path_commutativity`` is the diagram commutativity check that
  composed every path from its start, once for each parallel pair it is in;
* ``rebuilding_yoneda_command`` and ``rebuilding_kan_command`` are the
  ``yoneda`` and ``kan`` commands in which every check is given
  hom-functors and Kan extensions built for it alone, by the public
  hom-functor builders and by ``comma_kan_extensions``;
* ``comma_kan_extensions`` is ``kan_extensions`` as it built both comma
  categories at every target object as tables (``comma_under_object``)
  and took the limit or
  colimit of the functor over each along every comma morphism, where the
  library presents each comma diagram along the lifts of the source's
  generators and builds no comma category;
* ``eager_hom_cov_functor`` and ``eager_kan_morphism_maps`` are
  ``hom_cov_functor`` and the Kan extensions' morphism maps as they built
  the map of every morphism up front, where the library builds each on its
  first lookup (``MapsOnDemand``); the rebuilding Yoneda references take
  their hom-functors from the first;
* ``sorted_map_key`` and ``sorted_map_eq`` are the map key (hashed, too)
  and equality that compared tables sorted by domain atom, and
  ``nattrans_key`` the text key that told transformations apart;
* ``name_per_triple_preorder`` is ``preorder_from_covers`` as it named each
  composite anew, three names per composable triple, into a dict, where
  the library derives each composite from the order on lookup and builds
  that dict only when the table is iterated.
* ``per_entry_wellformed`` is the check for dangling identifiers that
  scanned the composition table on its own, before the law checks, where
  the library finds them in its one pass over that table.
* ``pairwise_stage_equations`` is the equation minimizer of ``context``
  closing a relation over every pair of equivalent paths until it is
  stable, where the library merges union-find classes from a worklist.
* ``erasing_stages`` is ``extract_stages`` as it erased the top stage and
  its dependents, rebuilt the diagram and repeated, one fixpoint per stage,
  where the library computes every element's stage in one fixpoint.
* ``three_pass_context`` is ``elaborate_context`` as it gathered typings,
  then blocks of lines per stage, then set each line's ending in a last
  pass, fed by ``erasing_stages`` and ``pairwise_stage_equations``, where
  the library emits each line with its ending in one pass; ``inline_grid``
  is ``render_grid`` as it spelled out each arrow and functor typing.
* ``regex_load_category`` is the ``.fincat`` reader whose line pass ran a
  regular expression on every line: comment stripping, section headers,
  ``g . f = h`` lines and all-digit atoms (``regex_parse_atom``), where the
  library tests for ``#`` and ``:`` first and splits on whitespace.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Iterable, Sequence

from fincat.adjunction import (
    AdjunctionError,
    check_kan_adjointness,
    counit_inclusion_check,
    precompose_functor,
)
from fincat.core import (
    FINSET,
    BoundaryError,
    CheckReport,
    CycleError,
    FinCat,
    FinCatError,
    FunctorVal,
    MalformedTableError,
    NatTransVal,
    Obligation,
    compose_functors,
    preorder_from_covers,
    require_category,
    require_functor,
    validate_nattrans,
)
from fincat.diagram import (
    Arrow,
    DefDecl,
    DiagramAst,
    DiagramError,
    FunctorDecl,
    LayerDecl,
    Node,
    NonCommute,
    Stage,
    _hom_cycle,
    _layer_paths,
    _mapsto_image,
    _noncommute_keys,
    _value_repr,
    validate_diagram,
)
from fincat.files import FixtureParseError
from fincat.finset import (
    DEFAULT_ENUM_CAP,
    CapExceededError,
    FinSetMap,
    FinSetObj,
    atom_key,
    compose_maps,
    encode_map,
    enumerate_maps,
)
from fincat.terms import (
    DEFAULT_NODE_CAP,
    App,
    Const,
    GraphReport,
    Lam,
    Pair,
    Proj,
    ReductionGraph,
    Signature,
    Tm,
    Ty,
    TyArrow,
    TyProd,
    Var,
    _contractions_at,
    free_vars,
    print_type,
    typecheck,
)
from fincat.yoneda import (
    HomContext,
    check_yoneda_roundtrips,
    hom_maps_functor,
    yoneda_pointwise_bijection,
)
from helpers import SeededContext, nattrans_from_values

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


def per_entry_wellformed(c) -> None:
    """The well-formedness check of ``validate_category`` as a separate scan
    of every table, the composition table included: raise
    MalformedTableError at the first dangling identifier, testing each
    composition entry's g, f and h in that order."""
    objs = set(c.objects)
    if len(objs) != len(c.objects):
        raise MalformedTableError("duplicate object identifiers")
    for m, (d, co) in c.morphisms.items():
        if d not in objs:
            raise MalformedTableError(f"morphism {m!r} has unknown dom {d!r}")
        if co not in objs:
            raise MalformedTableError(f"morphism {m!r} has unknown cod {co!r}")
    for x in c.objects:
        if x not in c.identity:
            raise MalformedTableError(f"no identity assigned to object {x!r}")
        if c.identity[x] not in c.morphisms:
            raise MalformedTableError(f"identity of {x!r} is unknown morphism {c.identity[x]!r}")
    for x in c.identity:
        if x not in objs:
            raise MalformedTableError(f"identity table mentions unknown object {x!r}")
    for (g, f), h in c.compose.items():
        for m in (g, f, h):
            if m not in c.morphisms:
                raise MalformedTableError(f"composition table mentions unknown morphism {m!r}")


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


def name_per_triple_preorder(objects, covers) -> FinCat:
    """``preorder_from_covers`` building every name in the composition table
    by a call per use: three per composable triple."""
    objs = tuple(sorted(str(o) for o in objects))
    above = {x: {x} for x in objs}
    for a, b in covers:
        if str(a) not in above or str(b) not in above:
            raise MalformedTableError(f"cover ({a!r}, {b!r}) mentions unknown object")
        above[str(a)].add(str(b))
    for k in objs:
        for x in objs:
            if k in above[x]:
                above[x] |= above[k]
    succ = {x: sorted(above[x]) for x in objs}
    for a in objs:
        for b in succ[a]:
            if a != b and a in above[b]:
                raise CycleError(f"not antisymmetric: {a!r} <= {b!r} <= {a!r}")

    def name(a, b):
        return f"id_{a}" if a == b else f"{a}->{b}"

    morphisms = {name(a, b): (a, b) for a in objs for b in succ[a]}
    identity = {x: f"id_{x}" for x in objs}
    compose = {
        (name(b, c), name(a, b)): name(a, c) for a in objs for b in succ[a] for c in succ[b]
    }
    return FinCat(objs, morphisms, identity, compose)


_RX_SECTION = re.compile(r"^([A-Za-z_]+):(.*)$")
_RX_MOR = re.compile(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")
_RX_COMPOSE = re.compile(r"^(\S+)\s*\.\s*(\S+)\s*=\s*(\S+)$")
_RX_COVER = re.compile(r"^(\S+)\s*<\s*(\S+)$")


def regex_parse_atom(token: str):
    token = token.strip()
    return int(token) if re.fullmatch(r"[0-9]+", token) else token


def regex_load_category(path: str) -> FinCat:
    """``load_category`` with every line matched by a regular expression."""
    with open(path, encoding="utf-8") as handle:
        raw = handle.read()
    sections: dict = {}
    current = None
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = re.sub(r"#.*", "", line, flags=re.S).strip()
        if not text:
            continue
        m = _RX_SECTION.match(text)
        if m:
            key = m.group(1)
            allowed = ("objects", "morphisms", "compose", "preorder")
            if key not in allowed:
                raise FixtureParseError(
                    path, lineno, f"unknown section {key!r} (expected one of {sorted(allowed)})"
                )
            if key in sections:
                raise FixtureParseError(path, lineno, f"duplicate section {key!r}")
            sections[key] = (lineno, [])
            current = key
        elif current is None:
            raise FixtureParseError(path, lineno, f"content before any section: {text!r}")
        else:
            sections[current][1].append((lineno, text))
    if "objects" not in sections:
        raise FixtureParseError(path, None, "missing required section 'objects:'")
    if "preorder" in sections and ("morphisms" in sections or "compose" in sections):
        raise FixtureParseError(
            path, None, "'preorder:' cannot be combined with 'morphisms:'/'compose:'"
        )

    def identifier(lineno, kind, name):
        for ch in "(),":
            if ch in name:
                raise FixtureParseError(
                    path, lineno, f"{kind} {name!r} contains reserved character {ch!r}"
                )

    objects: list = []
    for lineno, text in sections["objects"][1]:
        if not re.fullmatch(r"\S+", text):
            raise FixtureParseError(path, lineno, f"expected one object token, got {text!r}")
        identifier(lineno, "object", text)
        if text in objects:
            raise FixtureParseError(path, lineno, f"duplicate object {text!r}")
        objects.append(text)
    if "preorder" in sections:
        covers = []
        for lineno, text in sections["preorder"][1]:
            m = _RX_COVER.match(text)
            if not m:
                raise FixtureParseError(path, lineno, f"expected 'a < b', got {text!r}")
            covers.append(m.groups())
        try:
            return preorder_from_covers(objects, covers)
        except Exception as exc:
            raise FixtureParseError(path, sections["preorder"][0], str(exc)) from None

    morphisms: dict = {}
    for lineno, text in sections.get("morphisms", (0, []))[1]:
        m = _RX_MOR.match(text)
        if not m:
            raise FixtureParseError(path, lineno, f"expected 'name : dom -> cod', got {text!r}")
        name, dom, cod = m.groups()
        identifier(lineno, "morphism", name)
        for end in (dom, cod):
            if end not in objects:
                raise FixtureParseError(
                    path, lineno, f"morphism {name!r} names unknown object {end!r}"
                )
        if name in morphisms:
            raise FixtureParseError(path, lineno, f"duplicate morphism {name!r}")
        owner = name[3:]
        if name.startswith("id_") and owner in objects and (dom, cod) != (owner, owner):
            raise FixtureParseError(
                path,
                lineno,
                f"morphism {name!r} : {dom} -> {cod} clashes with the identity "
                f"of object {owner!r}, which runs {owner} -> {owner}",
            )
        morphisms[name] = (dom, cod)
    identity = {x: f"id_{x}" for x in objects}
    for x in objects:
        morphisms.setdefault(identity[x], (x, x))
    compose = {}
    for f, (fd, fc) in morphisms.items():
        compose[(identity[fc], f)] = f
        compose[(f, identity[fd])] = f
    for lineno, text in sections.get("compose", (0, []))[1]:
        m = _RX_COMPOSE.match(text)
        if not m:
            raise FixtureParseError(path, lineno, f"expected 'g . f = h', got {text!r}")
        for name in m.groups():
            if name not in morphisms:
                raise FixtureParseError(path, lineno, f"unknown morphism {name!r}")
        compose[m.group(1), m.group(2)] = m.group(3)
    return FinCat(tuple(objects), morphisms, identity, compose)


# ---------------------------------------------------------------------------
# Limits and natural transformations by product-and-filter
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
            d.morphism_map[m](family[j]) == family[j2]
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
            f_action = table_of(f.morphism_map[m])
            g_action = table_of(g.morphism_map[m])
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
        (x, tuple(sorted(table_of(t.components[x]).items())))
        for x in sorted(t.components)
    )


def brute_universal_table(category, set_functor, probe, anchor, seed) -> list:
    """The (object, map values) -> solutions entries of a universal-arrow
    check, by testing every morphism anchor -> D against every map
    probe -> values(D) pointwise on raw tables, objects and maps in sorted
    order, each map as its tuple of values over the sorted probe."""
    points = list(probe)
    entries = []
    for d in sorted(category.objects):
        hom = sorted(m for m, ends in category.morphisms.items() if ends == (anchor, d))
        for picks in itertools.product(list(set_functor.object_map[d]), repeat=len(points)):
            solutions = tuple(
                f
                for f in hom
                if all(
                    set_functor.morphism_map[f](seed(p)) == x
                    for p, x in zip(points, picks)
                )
            )
            entries.append(((d, picks), solutions))
    return entries


# ---------------------------------------------------------------------------
# Generators and the kernels over every morphism
# ---------------------------------------------------------------------------


def brute_generators(c) -> tuple:
    """``FinCat.generators`` by fixpoints over the raw tables: the
    non-identity morphisms that no composable pair of non-identity morphisms
    composes to, then, while some non-identity morphism is not a composite
    of them, the least such one added and every composite recomputed anew
    by composing every generator after every composite until nothing new
    appears."""
    ids = set(c.identity.values())
    plain = sorted(m for m in c.morphisms if m not in ids)
    gens = [
        m
        for m in plain
        if not any(
            c.compose[(g, f)] == m
            for g in plain
            for f in plain
            if c.morphisms[f][1] == c.morphisms[g][0]
        )
    ]
    while True:
        reached = set(gens)
        grown = True
        while grown:
            new = {
                c.compose[(g, r)]
                for g in gens
                for r in reached
                if c.morphisms[r][1] == c.morphisms[g][0]
            }
            grown = not new <= reached
            reached |= new
        missing = [m for m in plain if m not in reached]
        if not missing:
            return tuple(sorted(gens))
        gens.append(missing[0])


def backtracking_solve(variables, domains, constraints, cap):
    """Backtracking search over finite domains, the one enumeration loop.

    ``domains`` maps each variable to its candidate values.  A constraint
    ``(u, m, v)`` with a FinSetMap ``m`` demands ``value[v] == m(value[u])``
    and is checked as soon as both ends are assigned.  Yields one tuple of
    values per solution, in variable order and in lexicographic order of the
    domains.
    Raises CapExceededError before searching when the candidate product
    (the product of max(|domain|, 1)) exceeds ``cap``.
    """
    space = math.prod(max(len(domains[var]), 1) for var in variables)
    if space > cap:
        raise CapExceededError(f"search space of {space} candidates exceeds cap {cap}")
    position = {var: i for i, var in enumerate(variables)}
    checks = [[] for _ in variables]
    for u, m, v in constraints:
        i, j = position[u], position[v]
        checks[max(i, j)].append((i, m.dom.index, m.values, j))
    pools = [tuple(domains[var]) for var in variables]
    values = [None] * len(pools)
    tried = [0] * len(pools)
    depth = 0
    while depth >= 0:
        if depth == len(pools):
            yield tuple(values)
            depth -= 1
        elif tried[depth] == len(pools[depth]):
            tried[depth] = 0
            depth -= 1
        else:
            values[depth] = pools[depth][tried[depth]]
            tried[depth] += 1
            for i, index, images, j in checks[depth]:
                if images[index[values[i]]] != values[j]:
                    break
            else:
                depth += 1


def all_morphism_nattrans_values(f, g, cap: int = DEFAULT_ENUM_CAP) -> list:
    """``nattrans_values`` with the squares of every morphism as
    constraints, where the library takes the generators only."""
    shape = f.source
    variables = [(c, a) for c in sorted(shape.objects) for a in f.object_map[c]]
    domains = {(c, a): g.object_map[c].atoms for c, a in variables}
    constraints = [
        ((c, a), g.morphism_map[h], (d, f.morphism_map[h](a)))
        for h, (c, d) in shape.morphisms.items()
        for a in f.object_map[c]
    ]
    return list(backtracking_solve(variables, domains, constraints, cap))


def all_morphism_nattrans(f, g, cap: int = DEFAULT_ENUM_CAP) -> list:
    """``all_morphism_nattrans_values`` with each tuple made a NatTransVal."""
    shared = {}
    return [nattrans_from_values(f, g, v, shared) for v in all_morphism_nattrans_values(f, g, cap)]


def all_morphism_limit(d, cap: int = DEFAULT_ENUM_CAP):
    """The limit of a functor with one constraint per morphism, where the
    library takes the generators only."""
    shape = d.source
    objs = sorted(shape.objects)
    constraints = [(j, d.morphism_map[f], j2) for f, (j, j2) in shape.morphisms.items()]
    carrier = FinSetObj(backtracking_solve(objs, d.object_map, constraints, cap))
    projections = {
        j: FinSetMap(carrier, d.object_map[j], (fam[i] for fam in carrier))
        for i, j in enumerate(objs)
    }
    return carrier, projections


def all_morphism_colimit(d):
    """The colimit of a functor, relating (j, x) to (j2, F(f)(x)) for every
    morphism f : j -> j2, where the library takes the generators only."""
    shape = d.source
    tagged = [(j, x) for j in sorted(shape.objects) for x in d.object_map[j]]
    parent = {t: t for t in tagged}

    def find(t):
        while parent[t] != t:
            t = parent[t]
        return t

    for f in shape.sorted_morphisms():
        j, j2 = shape.morphisms[f]
        for x in d.object_map[j]:
            ra, rb = find((j, x)), find((j2, d.morphism_map[f](x)))
            if ra != rb:
                parent[rb] = ra
    classes = {}
    for t in tagged:
        classes.setdefault(find(t), []).append(t)
    rep = {m: members[0] for members in classes.values() for m in members}
    carrier = FinSetObj(rep.values())
    injections = {
        j: FinSetMap(d.object_map[j], carrier, (rep[(j, x)] for x in d.object_map[j]))
        for j in sorted(shape.objects)
    }
    return carrier, injections


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
            out.setdefault((rebuilding_canonical_print(term), ty), (term, ty))

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


# ---------------------------------------------------------------------------
# Inhabitant search deduplicated by canonical print
# ---------------------------------------------------------------------------


def print_keyed_inhabitants(ctx: Sequence[tuple], goal: Ty, depth: int) -> list:
    """Goal-directed inhabitants of tree depth <= depth, each memo entry
    deduplicated and sorted by canonical print, the whole list sorted by
    ``rebuilding_sort_key``."""
    return sorted(_pk_inhabitants(tuple(ctx), goal, depth, {}), key=rebuilding_sort_key)


def _pk_inhabitants(ctx: tuple, goal: Ty, depth: int, memo: dict) -> tuple:
    key = ("all", ctx, goal, depth)
    if key in memo:
        return memo[key]
    out: dict = {}
    for t in _pk_neutrals(ctx, goal, depth, memo):
        out.setdefault(rebuilding_canonical_print(t), t)
    if depth >= 2 and isinstance(goal, TyArrow):
        var = _pk_binder(ctx)
        for body in _pk_inhabitants(ctx + ((var, goal.src),), goal.dst, depth - 1, memo):
            t = Lam(var, goal.src, body)
            out.setdefault(rebuilding_canonical_print(t), t)
    if depth >= 2 and isinstance(goal, TyProd):
        rights = _pk_inhabitants(ctx, goal.right, depth - 1, memo)
        for a in _pk_inhabitants(ctx, goal.left, depth - 1, memo):
            for b in rights:
                t = Pair(a, b)
                out.setdefault(rebuilding_canonical_print(t), t)
    memo[key] = tuple(out[k] for k in sorted(out))
    return memo[key]


def _pk_neutrals(ctx: tuple, goal: Ty, depth: int, memo: dict) -> tuple:
    key = ("neutral", ctx, goal, depth)
    if key in memo:
        return memo[key]
    out: dict = {}
    for name, ty in ctx:
        if ty == goal:
            out.setdefault(rebuilding_canonical_print(Var(name)), Var(name))
    if depth >= 2:
        for ty in _pk_closure(ctx):
            if isinstance(ty, TyArrow) and ty.dst == goal:
                args = _pk_inhabitants(ctx, ty.src, depth - 1, memo)
                for fn in _pk_neutrals(ctx, ty, depth - 1, memo):
                    for arg in args:
                        t = App(fn, arg)
                        out.setdefault(rebuilding_canonical_print(t), t)
            if isinstance(ty, TyProd) and ty.left == goal:
                for body in _pk_neutrals(ctx, ty, depth - 1, memo):
                    t = Proj(1, body)
                    out.setdefault(rebuilding_canonical_print(t), t)
            if isinstance(ty, TyProd) and ty.right == goal:
                for body in _pk_neutrals(ctx, ty, depth - 1, memo):
                    t = Proj(2, body)
                    out.setdefault(rebuilding_canonical_print(t), t)
    memo[key] = tuple(out[k] for k in sorted(out))
    return memo[key]


def _pk_closure(ctx: tuple) -> list:
    """Every type a neutral term over ``ctx`` can have: the hypotheses and,
    recursively, arrow targets and product components."""
    seen: set = set()
    stack = [ty for _, ty in ctx]
    while stack:
        ty = stack.pop()
        if ty not in seen:
            seen.add(ty)
            if isinstance(ty, TyArrow):
                stack.append(ty.dst)
            elif isinstance(ty, TyProd):
                stack.extend((ty.left, ty.right))
    return sorted(seen, key=print_type)


def _pk_binder(ctx: tuple) -> str:
    taken = {name for name, _ in ctx}
    name = f"x{len(ctx) + 1}"
    while name in taken or name in ("p1", "p2", "rule"):
        name += "'"
    return name


# ---------------------------------------------------------------------------
# Printing by rebuilding, and reduction graphs keyed by those prints
# ---------------------------------------------------------------------------

_LVL_TERM, _LVL_SUM, _LVL_PROD, _LVL_APP, _LVL_ATOM = 0, 1, 2, 3, 4


def rebuilding_print_term(t: Tm) -> str:
    """``t`` with minimal parentheses and its own binder names, each
    subterm printed to its own string and spliced into its parent's."""
    return _rb_print(t, _LVL_TERM)


def _rb_print(t: Tm, level: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return f"({t.name})" if t.name in ("+", "*") else t.name
    if isinstance(t, Pair):
        return f"({_rb_print(t.left, _LVL_TERM)}, {_rb_print(t.right, _LVL_TERM)})"
    if isinstance(t, Lam):
        text = f"\\{t.var}:{print_type(t.ty)}. {_rb_print(t.body, _LVL_TERM)}"
        natural = _LVL_TERM
    elif isinstance(t, Proj):
        text = f"p{t.index} {_rb_print(t.body, _LVL_ATOM)}"
        natural = _LVL_APP
    elif (
        isinstance(t, App)
        and isinstance(t.fn, App)
        and isinstance(t.fn.fn, Const)
        and t.fn.fn.name in ("+", "*")
    ):
        lhs, rhs = t.fn.arg, t.arg
        if t.fn.fn.name == "+":
            text = f"{_rb_print(lhs, _LVL_SUM)} + {_rb_print(rhs, _LVL_PROD)}"
            natural = _LVL_SUM
        else:
            text = f"{_rb_print(lhs, _LVL_PROD)} * {_rb_print(rhs, _LVL_APP)}"
            natural = _LVL_PROD
    elif isinstance(t, App):
        text = f"{_rb_print(t.fn, _LVL_APP)} {_rb_print(t.arg, _LVL_ATOM)}"
        natural = _LVL_APP
    else:
        raise TypeError(f"not a term: {t!r}")
    return f"({text})" if natural < level else text


def canonicalize(t: Tm) -> Tm:
    """Rename binders positionally (``x1``, ``x2``, ...) for stable identity.

    The binder at nesting depth ``d`` is named ``x<d>``, primed as needed to
    avoid the free variables of the whole term, so alpha-equivalent terms
    canonicalize to equal trees.
    """
    free = free_vars(t)

    def go(t: Tm, env: dict[str, str], depth: int) -> Tm:
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        if isinstance(t, Const):
            return t
        if isinstance(t, Lam):
            name = f"x{depth + 1}"
            while name in free:
                name += "'"
            inner = dict(env)
            inner[t.var] = name
            return Lam(name, t.ty, go(t.body, inner, depth + 1))
        if isinstance(t, App):
            return App(go(t.fn, env, depth), go(t.arg, env, depth))
        if isinstance(t, Pair):
            return Pair(go(t.left, env, depth), go(t.right, env, depth))
        if isinstance(t, Proj):
            return Proj(t.index, go(t.body, env, depth))
        raise TypeError(f"not a term: {t!r}")

    return go(t, {}, 0)




def rebuilding_canonical_print(t: Tm) -> str:
    """Canonical text of ``t``: print the positionally renamed copy."""
    return rebuilding_print_term(canonicalize(t))


def rebuilding_lam_count(t: Tm) -> int:
    if isinstance(t, (Var, Const)):
        return 0
    if isinstance(t, Lam):
        return 1 + rebuilding_lam_count(t.body)
    if isinstance(t, App):
        return rebuilding_lam_count(t.fn) + rebuilding_lam_count(t.arg)
    if isinstance(t, Pair):
        return rebuilding_lam_count(t.left) + rebuilding_lam_count(t.right)
    if isinstance(t, Proj):
        return rebuilding_lam_count(t.body)
    raise TypeError(f"not a term: {t!r}")


def rebuilding_sort_key(t: Tm) -> tuple:
    """Fewest lambdas, then shortest canonical print, then that text."""
    text = rebuilding_canonical_print(t)
    return (rebuilding_lam_count(t), len(text), text)


def keyed_reductions(t: Tm, sig=None) -> list:
    """One-step reducts of ``t`` as (canonical print, term) pairs, the first
    term of each print kept, sorted by print."""
    if sig is None:
        sig = Signature()
    out: dict = {}

    def walk(sub: Tm, rebuild) -> None:
        for reduct in _contractions_at(sub, sig):
            t2 = rebuild(reduct)
            out.setdefault(rebuilding_canonical_print(t2), t2)
        if isinstance(sub, Lam):
            walk(sub.body, lambda r, s=sub: rebuild(Lam(s.var, s.ty, r)))
        elif isinstance(sub, App):
            walk(sub.fn, lambda r, s=sub: rebuild(App(r, s.arg)))
            walk(sub.arg, lambda r, s=sub: rebuild(App(s.fn, r)))
        elif isinstance(sub, Pair):
            walk(sub.left, lambda r, s=sub: rebuild(Pair(r, s.right)))
            walk(sub.right, lambda r, s=sub: rebuild(Pair(s.left, r)))
        elif isinstance(sub, Proj):
            walk(sub.body, lambda r, s=sub: rebuild(Proj(s.index, r)))

    walk(t, lambda r: r)
    return sorted(out.items())


def rebuilding_reduction_graph(t: Tm, sig=None, node_cap: int = DEFAULT_NODE_CAP):
    """``reduction_graph`` on :func:`keyed_reductions`: breadth-first, every
    successor typechecked, truncated when a node's fresh successors would
    pass ``node_cap``."""
    if sig is None:
        sig = Signature()
    root_ty = typecheck(t, sig=sig)
    root_key = rebuilding_canonical_print(t)
    nodes = {root_key: t}
    edges: dict = {}
    queue = [root_key]
    truncated = False
    while queue:
        key = queue.pop(0)
        succ_keys = []
        fresh: dict = {}
        for skey, succ in keyed_reductions(nodes[key], sig):
            succ_ty = typecheck(succ, sig=sig)
            if succ_ty != root_ty:
                raise RuntimeError(
                    f"subject reduction violated: {key} -> {skey} "
                    f"changed type to {print_type(succ_ty)}"
                )
            succ_keys.append(skey)
            if skey not in nodes:
                fresh.setdefault(skey, succ)
        if len(nodes) + len(fresh) > node_cap:
            truncated = True
            break
        for skey, succ in fresh.items():
            nodes[skey] = succ
            queue.append(skey)
        edges[key] = tuple(sorted(set(succ_keys)))
    normal_forms = tuple(sorted(k for k, succs in edges.items() if not succs))
    graph = ReductionGraph(root_key, nodes, edges, normal_forms, truncated, root_ty)
    if truncated:
        return graph, GraphReport(None, None, None, True, len(nodes), normal_forms)
    report = GraphReport(
        not has_cycle(edges),
        len(normal_forms) == 1,
        joins_every_fork(edges),
        False,
        len(nodes),
        normal_forms,
    )
    return graph, report


def has_cycle(edges: dict) -> bool:
    """Whether a graph whose every successor is a key of ``edges`` has a
    cycle: nodes with no successor left are peeled off until none is, and
    a cycle is what remains."""
    left = {key: len(succs) for key, succs in edges.items()}
    preds: dict = {key: [] for key in edges}
    for key, succs in edges.items():
        for succ in succs:
            preds[succ].append(key)
    peel = [key for key, count in left.items() if count == 0]
    peeled = 0
    while peel:
        peeled += 1
        for pred in preds[peel.pop()]:
            left[pred] -= 1
            if left[pred] == 0:
                peel.append(pred)
    return peeled < len(edges)


def joins_every_fork(edges: dict) -> bool:
    """Local confluence: the descendants of any two successors of a node,
    each node its own descendant, meet."""
    reach = {}
    for key in edges:
        seen = {key}
        frontier = [key]
        while frontier:
            frontier = [s for k in frontier for s in edges[k] if s not in seen]
            seen.update(frontier)
        reach[key] = seen
    return all(
        reach[a] & reach[b]
        for succs in edges.values()
        for a, b in itertools.combinations(succs, 2)
    )


# ---------------------------------------------------------------------------
# Yoneda checks that rebuild and re-encode on every call
# ---------------------------------------------------------------------------


def nattrans_key(t) -> tuple:
    """The text key transformations were once compared by: per object in
    sorted order, the component's text "{a->x}".  Atoms that print alike,
    such as 1 and "1", give equal keys."""
    return tuple((c, encode_map(t.components[c])) for c in sorted(t.components))


def map_text(m) -> str:
    """A map as the text "{a->x,b->y}", entries in the order of its sorted domain."""
    return "{" + ",".join(f"{a}->{m(a)}" for a in m.dom) + "}"


def string_encoded_hom_maps_functor(probe, set_functor, cap: int = DEFAULT_ENUM_CAP):
    """D maps to the maps probe -> set_functor(D): every map is named by its
    text, and every action entry composes a new map and prints it."""
    category = set_functor.source
    maps_at = {
        d: enumerate_maps(probe, set_functor.object_map[d], cap) for d in category.objects
    }
    object_map = {d: FinSetObj(map_text(h) for h in maps_at[d]) for d in category.objects}
    morphism_map = {}
    for g, (d, d2) in category.morphisms.items():
        action = set_functor.morphism_map[g]
        table = {map_text(h): map_text(compose_maps(action, h)) for h in maps_at[d]}
        morphism_map[g] = map_from_table(object_map[d], object_map[d2], table)
    return FunctorVal(category, FINSET, object_map, morphism_map)


def rebuilding_transform_from_seed(ctx):
    """The seed's transformation, building both hom-functors afresh and
    printing (image of f) . seed for every f."""
    source = eager_hom_cov_functor(ctx.category, ctx.anchor)
    target = string_encoded_hom_maps_functor(ctx.probe, ctx.set_functor)
    components = {}
    for d in ctx.category.objects:
        table = {
            f: map_text(compose_maps(ctx.set_functor.morphism_map[f], ctx.seed))
            for f in ctx.category.hom(ctx.anchor, d)
        }
        components[d] = map_from_table(source.object_map[d], target.object_map[d], table)
    return NatTransVal(source, target, components)


def _decoded_seed(ctx, transform):
    """The seed a transformation into the string-encoded maps functor names
    at the anchor's identity, read back from its text atom by atom."""
    text = transform.at(ctx.anchor)(ctx.category.id_of(ctx.anchor))
    cod = ctx.set_functor.object_map[ctx.anchor]
    table = {}
    for entry in filter(None, text[1:-1].split(",")):
        a, x = entry.split("->", 1)
        table[next(p for p in ctx.probe if str(p) == a)] = next(y for y in cod if str(y) == x)
    return map_from_table(ctx.probe, cod, table)


def rebuilding_roundtrips(ctx, cap: int = DEFAULT_ENUM_CAP) -> CheckReport:
    """Both seed/transformation round trips, lifting through
    ``rebuilding_transform_from_seed``, reading seeds back from their text
    and comparing transformations by ``nattrans_key``.  Same obligations,
    witnesses and subject as ``check_yoneda_roundtrips``."""
    source = eager_hom_cov_functor(ctx.category, ctx.anchor)
    target = string_encoded_hom_maps_functor(ctx.probe, ctx.set_functor)
    parts = (ctx.category, ctx.set_functor, ctx.probe, ctx.anchor)
    seeds = enumerate_maps(ctx.probe, ctx.set_functor.object_map[ctx.anchor], cap)
    transforms = all_morphism_nattrans(source, target, cap)

    bad_seed = []
    for seed in seeds:
        lifted = rebuilding_transform_from_seed(SeededContext(*parts, seed=seed))
        back = _decoded_seed(ctx, lifted)
        if back != seed:
            bad_seed.append((map_text(seed), map_text(back)))

    bad_transform = []
    for transform in transforms:
        seed = _decoded_seed(ctx, transform)
        again = rebuilding_transform_from_seed(SeededContext(*parts, seed=seed))
        if nattrans_key(again) != nattrans_key(transform):
            bad_transform.append(nattrans_key(transform))

    obligations = (
        Obligation("seed_roundtrip", not bad_seed, tuple(bad_seed[0]) if bad_seed else ()),
        Obligation(
            "transform_roundtrip",
            not bad_transform,
            tuple(bad_transform[0]) if bad_transform else (),
        ),
        Obligation(
            "count_matches",
            len(seeds) == len(transforms),
            () if len(seeds) == len(transforms) else (len(seeds), len(transforms)),
        ),
    )
    return CheckReport(f"roundtrips@{ctx.anchor}", obligations)


def _rebuilt_pointwise_transform(category, set_functor, anchor, element):
    source = eager_hom_cov_functor(category, anchor)
    components = {}
    for d in category.objects:
        table = {
            f: set_functor.morphism_map[f](element) for f in category.hom(anchor, d)
        }
        components[d] = map_from_table(source.object_map[d], set_functor.object_map[d], table)
    return NatTransVal(source, set_functor, components)


def rebuilding_pointwise_bijection(category, set_functor, anchor, cap: int = DEFAULT_ENUM_CAP):
    """``yoneda_pointwise_bijection`` building the anchor's hom-functor once
    more for every element and checking each element's transformation square
    by square with ``validate_nattrans``.  Same obligations and subject; the
    mapping holds the NatTransVals whose flat tuples the library's holds."""
    source = eager_hom_cov_functor(category, anchor)
    mapping = {
        element: _rebuilt_pointwise_transform(category, set_functor, anchor, element)
        for element in set_functor.object_map[anchor]
    }
    unnatural = [
        element
        for element, transform in mapping.items()
        if not validate_nattrans(transform).passed
    ]
    keys = {element: nattrans_key(t) for element, t in mapping.items()}
    distinct = len(set(keys.values())) == len(keys)
    enumerated = {nattrans_key(t) for t in all_morphism_nattrans(source, set_functor, cap)}
    onto = set(keys.values()) == enumerated
    obligations = (
        Obligation("components_natural", not unnatural, (unnatural[0],) if unnatural else ()),
        Obligation("injective", distinct, () if distinct else (len(keys), len(set(keys.values())))),
        Obligation("surjective", onto, () if onto else (len(keys), len(enumerated))),
    )
    return mapping, CheckReport(f"pointwise@{anchor}", obligations)


# ---------------------------------------------------------------------------
# The yoneda and kan commands, every check building its own functors
# ---------------------------------------------------------------------------


def rebuilding_yoneda_command(functor, cap: int, out) -> int:
    """The ``yoneda`` command after loading: both checks at each anchor get
    a hom-functor of the anchor built for them, and every round trip a
    maps-out-of-probe functor built for it.  Returns the exit code."""
    if functor.target is not FINSET:
        raise FinCatError("yoneda needs a finite-set valued functor")
    require_category(functor.source, "functor source")
    require_functor(functor)
    category = functor.source
    probe = FinSetObj(("*",))
    code = 0
    for anchor in sorted(category.objects):
        mapping, bij_report = yoneda_pointwise_bijection(
            functor, anchor, eager_hom_cov_functor(category, anchor), cap
        )
        round_report = check_yoneda_roundtrips(
            HomContext(category, functor, probe, anchor),
            eager_hom_cov_functor(category, anchor),
            hom_maps_functor(probe, functor, cap),
            cap,
        )
        out.write(
            f"object {anchor}: |values| = {len(functor.object_map[anchor])}, "
            f"|transformations| = {len(mapping)}, "
            f"bijection {'ok' if bij_report.passed else 'FAIL'}, "
            f"roundtrips {'ok' if round_report.passed else 'FAIL'}\n"
        )
        for report in (bij_report, round_report):
            if not report.passed:
                out.write(report.summary() + "\n")
                code = 1
    return code


def rebuilding_kan_command(along, functor, cap: int, out) -> int:
    """The ``kan`` command after loading: the sizes lines, the adjointness
    check and the inclusion check each get Kan extensions built for them by
    ``comma_kan_extensions``, after the command's gates.  Returns the exit
    code."""
    require_category(along.source, "along source")
    if along.target != along.source:
        require_category(along.target, "along target")
    require_functor(along, "along")
    require_functor(functor)
    (rkan, _cones), (lkan, _cocones) = comma_kan_extensions(along, functor, cap)
    for tag, kan in (("right", rkan), ("left", lkan)):
        sizes = ", ".join(f"{b}:{len(kan.object_map[b])}" for b in sorted(kan.source.objects))
        out.write(f"{tag} kan sizes: {sizes}\n")
    code = 0
    adjoint = check_kan_adjointness(
        along, lkan, functor, comma_kan_extensions(along, functor, cap), cap
    )
    out.write(adjoint.summary() + "\n")
    if not adjoint.passed:
        code = 1
    (_rkan, cones), _left = comma_kan_extensions(along, functor, cap)
    inclusion = counit_inclusion_check(along, functor, cones)
    out.write(inclusion.summary() + "\n")
    if not inclusion.passed:
        code = 1
    return code


# ---------------------------------------------------------------------------
# Kan extensions over comma categories built as tables
# ---------------------------------------------------------------------------


def comma_under_object(b, f: FunctorVal, orientation: str = "under"):
    """Comma category of a table functor against an object of its target.

    orientation "under": objects (A, phi: b -> f A); "over": (A, phi: f A -> b).
    Each object is the pair ``(A, phi)`` itself and each morphism the triple
    ``(u, source, target)`` of a morphism u of f's source and the two
    objects.  Returns ``(cat, forget)``: the category and the forgetful
    functor to f's source.
    """
    if f.target is FINSET:
        raise BoundaryError("comma against an object needs a table-valued functor")
    if orientation not in ("under", "over"):
        raise ValueError(f"unknown orientation {orientation!r}")
    src, tgt = f.source, f.target
    if not tgt.has_object(b):
        raise MalformedTableError(f"unknown object {b!r} in target category")
    objects = []
    for a in src.objects:
        homs = tgt.hom(b, f.object_map[a]) if orientation == "under" else tgt.hom(f.object_map[a], b)
        objects += [(a, phi) for phi in homs]
    morphisms = {}
    identity = {}
    for o1 in objects:
        a1, phi1 = o1
        for o2 in objects:
            a2, phi2 = o2
            for u in src.hom(a1, a2):
                fu = f.morphism_map[u]
                if orientation == "under":
                    ok = tgt.compose[(fu, phi1)] == phi2
                else:
                    ok = tgt.compose[(phi2, fu)] == phi1
                if ok:
                    morphisms[(u, o1, o2)] = (o1, o2)
                    if u == src.id_of(a1):
                        identity[o1] = (u, o1, o1)
    compose = {
        (m2, m1): (src.compose[(m2[0], m1[0])], m1[1], m2[2])
        for m2 in morphisms
        for m1 in morphisms
        if m1[2] == m2[1]
    }
    cat = FinCat(tuple(sorted(objects)), morphisms, identity, compose)
    forget = FunctorVal(cat, src, {o: o[0] for o in objects}, {m: m[0] for m in morphisms})
    return cat, forget


def comma_kan_extensions(along, functor, cap: int = DEFAULT_ENUM_CAP) -> tuple:
    """``kan_extensions`` as it built, at each target object b, the comma
    categories of ``along`` under and over b (``comma_under_object``),
    composed the functor with their forgetful functors and took the limit
    (``all_morphism_limit``) or colimit (``all_morphism_colimit``) of that
    diagram, where the library presents each comma diagram along the lifts
    of the source's generators.  Same ``((rkan, cones), (lkan, cocones))``
    and the same cap errors, for a functor along a functor between
    categories; the inputs are not checked."""
    tgt = along.target
    rkan_values, cones, lkan_values, cocones = {}, {}, {}, {}
    for b in tgt.objects:
        _under, forget = comma_under_object(b, along, orientation="under")
        rkan_values[b], cones[b] = all_morphism_limit(compose_functors(functor, forget), cap)
    for b in tgt.objects:
        _over, forget = comma_under_object(b, along, orientation="over")
        lkan_values[b], cocones[b] = all_morphism_colimit(compose_functors(functor, forget))
    rkan_maps, lkan_maps = {}, {}
    for k, (b, b2) in tgt.morphisms.items():
        # a family at b, read at (a, phi . k) for each (a, phi) under b2
        rkan_maps[k] = FinSetMap(
            rkan_values[b],
            rkan_values[b2],
            (
                tuple(cones[b][(a, tgt.comp(phi, k))](family) for a, phi in cones[b2])
                for family in rkan_values[b]
            ),
        )
        # the class of ((a, phi), x) over b goes to that of ((a, k . phi), x)
        lkan_maps[k] = FinSetMap(
            lkan_values[b],
            lkan_values[b2],
            (cocones[b2][(a, tgt.comp(k, phi))](x) for (a, phi), x in lkan_values[b]),
        )
    rkan = FunctorVal(tgt, FINSET, rkan_values, rkan_maps)
    lkan = FunctorVal(tgt, FINSET, lkan_values, lkan_maps)
    return (rkan, cones), (lkan, cocones)


# ---------------------------------------------------------------------------
# Derived set-valued functors with every morphism map built up front
# ---------------------------------------------------------------------------


def eager_hom_cov_functor(category, anchor) -> FunctorVal:
    """``hom_cov_functor`` as it built the map of every morphism when called,
    each carrier sorted by ``FinSetObj``."""
    if anchor not in set(category.objects):
        raise ValueError(f"{anchor!r} is not an object")
    object_map = {d: FinSetObj(category.hom(anchor, d)) for d in category.objects}
    morphism_map = {}
    for g, (d, d2) in category.morphisms.items():
        images = (category.compose[(g, f)] for f in object_map[d])
        morphism_map[g] = FinSetMap(object_map[d], object_map[d2], images)
    return FunctorVal(category, FINSET, object_map, morphism_map)


def eager_kan_morphism_maps(along, extensions) -> tuple:
    """The morphism maps of both extensions of ``kan_extensions``' result
    ``((rkan, cones), (lkan, cocones))``, as its loops built every one from
    the object maps and legs: ``(right, left)``, two dicts in the order of
    ``along.target.morphisms``."""
    tgt = along.target
    (rkan, cones), (lkan, cocones) = extensions
    right, left = {}, {}
    for k, (b, b2) in tgt.morphisms.items():
        legs = [cones[b][(a, tgt.comp(phi, k))] for a, phi in cones[b2]]
        images = (tuple(leg(element) for leg in legs) for element in rkan.object_map[b])
        right[k] = FinSetMap(rkan.object_map[b], rkan.object_map[b2], images)
        images = (
            cocones[b2][(a, tgt.comp(k, phi))](x) for (a, phi), x in lkan.object_map[b]
        )
        left[k] = FinSetMap(lkan.object_map[b], lkan.object_map[b2], images)
    return right, left


# ---------------------------------------------------------------------------
# The Kan adjunctions over materialised transformations
# ---------------------------------------------------------------------------


def materialised_kan_adjointness(
    along, target_functor, source_functor, extensions, cap: int = DEFAULT_ENUM_CAP
) -> CheckReport:
    """``check_kan_adjointness`` over NatTransVals: each transformation is
    transposed by composing one map per source object, and the two sides are
    compared as sets of frozensets of component maps.  Same report, and the
    same errors, as the check on flat value tuples."""
    restricted = precompose_functor(along, target_functor)
    (rkan, cones), (lkan, cocones) = extensions
    sources = along.source.objects

    def leg(legs, a):
        fa = along.object_map[a]
        return legs[fa][(a, along.target.id_of(fa))]

    left = _materialised_obligations(
        "left",
        all_morphism_nattrans(lkan, target_functor, cap),
        all_morphism_nattrans(source_functor, restricted, cap),
        lambda t: NatTransVal(
            source_functor,
            restricted,
            {a: compose_maps(t.at(along.object_map[a]), leg(cocones, a)) for a in sources},
        ),
    )
    right = _materialised_obligations(
        "right",
        all_morphism_nattrans(restricted, source_functor, cap),
        all_morphism_nattrans(target_functor, rkan, cap),
        lambda t: NatTransVal(
            restricted,
            source_functor,
            {a: compose_maps(leg(cones, a), t.at(along.object_map[a])) for a in sources},
        ),
    )
    return CheckReport("kan_adjointness", tuple(left + right))


def _materialised_obligations(side, upstairs, downstairs, transpose) -> list:
    counted = len(upstairs) == len(downstairs)
    source, target = (upstairs, downstairs) if side == "left" else (downstairs, upstairs)
    transposed = {frozenset(transpose(t).components.items()) for t in source}
    wanted = {frozenset(t.components.items()) for t in target}
    ok = len(transposed) == len(source) and transposed == wanted
    return [
        Obligation(
            f"{side}_count[0]",
            counted,
            () if counted else (len(upstairs), len(downstairs)),
        ),
        Obligation(
            f"{side}_transpose_bijective[0]",
            ok,
            () if ok else (len(transposed), len(source), len(wanted)),
        ),
    ]


# ---------------------------------------------------------------------------
# Naturality squares composed as maps
# ---------------------------------------------------------------------------


def composed_square_failures(t) -> list:
    """Every failed naturality square of ``t``, morphisms in sorted order, as
    ``validate_nattrans`` once found them: both sides of each square
    composed through the target's ``comp``, and a failure of set-valued
    functors named by the first domain atom where the composites differ."""
    src, tgt = t.F.source, t.F.target
    finny = tgt is FINSET
    square = []
    for h in src.sorted_morphisms():
        c, d = src.dom(h), src.cod(h)
        try:
            lhs = tgt.comp(t.G.morphism_map[h], t.components[c])
            rhs = tgt.comp(t.components[d], t.F.morphism_map[h])
        except (KeyError, ValueError):
            square.append((h, "not composable"))
            continue
        if lhs != rhs:
            cells = zip(lhs.dom, lhs.values, rhs.values) if finny else ()
            differ = next((cell for cell in cells if cell[1] != cell[2]), None)
            square.append((h, *differ) if differ else (h, lhs, rhs))
    return square


# ---------------------------------------------------------------------------
# Adjunctions: naturality over every pair of morphisms, and universal arrows
# solved by scanning
# ---------------------------------------------------------------------------


def all_pairs_naturality(adj) -> tuple:
    """Every failure (f, k, h, lhs, rhs) of the joint naturality of flat and
    of sharp, for f : a2 -> a and k : b -> b2 ranging over all pairs:
    flat(R(k) . h . f) = k . flat(h) . L(f), and dually for sharp."""
    src, oth = adj.source, adj.other
    left, right = adj.left, adj.right
    bad_flat = []
    bad_sharp = []
    for f, (a2, a) in src.morphisms.items():
        for k, (b, b2) in oth.morphisms.items():
            for h in src.hom(a, right.object_map[b]):
                lhs = adj.flat[(a2, b2)][src.comp(src.comp(right.morphism_map[k], h), f)]
                rhs = oth.comp(oth.comp(k, adj.flat[(a, b)][h]), left.morphism_map[f])
                if lhs != rhs:
                    bad_flat.append((f, k, h, lhs, rhs))
            for g in oth.hom(left.object_map[a], b):
                lhs = adj.sharp[(a2, b2)][oth.comp(oth.comp(k, g), left.morphism_map[f])]
                rhs = src.comp(src.comp(right.morphism_map[k], adj.sharp[(a, b)][g]), f)
                if lhs != rhs:
                    bad_sharp.append((f, k, g, lhs, rhs))
    return bad_flat, bad_sharp


def elementwise_naturality_failures(adj, table, p, q, p2, q2):
    """``adjunction._naturality_failures`` as a scan of every cell: the same
    laws in each variable, in the same order, composing one h at a time."""
    src, oth = adj.source, adj.other
    dom, cod = p.target, p2.target
    for f, (a2, a) in src.morphisms.items():
        pf, pf2 = p.morphism_map[f], p2.morphism_map[f]
        for b in oth.objects:
            before, after = table[(a, b)], table[(a2, b)]
            for h in dom.hom(p.object_map[a], q.object_map[b]):
                lhs = after[dom.comp(h, pf)]
                rhs = cod.comp(before[h], pf2)
                if lhs != rhs:
                    yield (f, oth.id_of(b), h, lhs, rhs)
    for k, (b, b2) in oth.morphisms.items():
        qk, qk2 = q.morphism_map[k], q2.morphism_map[k]
        for a in src.objects:
            before, after = table[(a, b)], table[(a, b2)]
            for h in dom.hom(p.object_map[a], q.object_map[b]):
                lhs = after[dom.comp(qk, h)]
                rhs = cod.comp(qk2, before[h])
                if lhs != rhs:
                    yield (src.id_of(a), k, h, lhs, rhs)


def scanning_universal_arrows(right, anchors) -> tuple:
    """``adjunction_from_universal_arrows`` on the unit side, on well-typed
    anchors, as it scanned hom(chosen(a), b) for the solutions of each g:
    once per g to test universality, again per morphism for the left
    adjoint and again per object for the counit.  Returns ``(left, counit
    components)``, or raises the same ``AdjunctionError``."""
    src, oth = right.target, right.source

    def solutions(a, b, g):
        chosen, arrow = anchors[a]
        return [u for u in oth.hom(chosen, b) if src.comp(right.morphism_map[u], arrow) == g]

    for a in sorted(anchors):
        for b in sorted(oth.objects):
            for g in src.hom(a, right.object_map[b]):
                sols = solutions(a, b, g)
                if len(sols) != 1:
                    raise AdjunctionError(
                        f"arrow for {a!r} is not universal: "
                        f"{len(sols)} solutions for target {b!r} and morphism {g!r}"
                    )
    object_map = {a: anchors[a][0] for a in src.objects}
    morphism_map = {
        f: solutions(a2, object_map[a], src.comp(anchors[a][1], f))[0]
        for f, (a2, a) in src.morphisms.items()
    }
    counit = {}
    for b in oth.objects:
        rb = right.object_map[b]
        counit[b] = solutions(rb, b, src.id_of(rb))[0]
    return FunctorVal(src, oth, object_map, morphism_map), counit


# ---------------------------------------------------------------------------
# Functor composition entry by entry
# ---------------------------------------------------------------------------


def elementwise_respects_composition(f) -> list:
    """Every failure of the composition law of ``validate_functor``, sorted:
    (g, h) where F(g) . F(h) != F(g . h), and (g, h, "image not composable")
    where the target has no such composite, one table entry at a time."""
    src, tgt = f.source, f.target
    respcomp = []
    for (g, h), gh in src.compose.items():
        if src.cod(h) != src.dom(g):
            continue
        try:
            lhs = tgt.comp(f.morphism_map[g], f.morphism_map[h])
        except (KeyError, ValueError):
            respcomp.append((g, h, "image not composable"))
            continue
        if lhs != f.morphism_map[gh]:
            respcomp.append((g, h))
    return sorted(respcomp)


# ---------------------------------------------------------------------------
# Commutativity path by path
# ---------------------------------------------------------------------------


def path_by_path_commutativity(ast, model, assignment) -> CheckReport:
    """``check_commutativity`` composing every path from its start, once for
    each pair it is in.  Same obligations, witnesses and errors.

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
        if cat.comp(bwd, fwd) != cat.id_of(assignment[a.src]):
            bij_bad.append((a.id, "bwd o fwd"))
        elif cat.comp(fwd, bwd) != cat.id_of(assignment[a.dst]):
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


def _path_value(cat, model, assignment, start, steps):
    value = None
    for arrow_id, direction in steps:
        bound = assignment[arrow_id]
        if isinstance(bound, tuple):
            step_value = bound[0] if direction == "fwd" else bound[1]
        else:
            step_value = bound
        value = step_value if value is None else cat.comp(step_value, value)
    return value


def _steps_text(steps) -> str:
    return ".".join(arrow_id for arrow_id, _ in steps)


# ---------------------------------------------------------------------------
# Context equations by a pairwise fixpoint
# ---------------------------------------------------------------------------


def pairwise_stage_equations(ast, stages) -> dict:
    """``diagram._stage_equations`` by a fixpoint over every pair of
    equivalent paths.  Same equations, in the same order.

    Each stage's simple hom paths are grown arrow by arrow.  Their
    equivalence starts from the equations emitted at earlier stages and is
    closed under symmetry, transitivity and extension of both sides by one
    common arrow until no pair is added.  The candidates are the parallel
    pairs that no noncommute declaration exempts, shorter first; each one
    not yet equivalent is emitted, added and closed over again.
    """
    exempt = {frozenset((nc.left, nc.right)) for nc in ast.noncommutes()}
    labels = {a.id: a.label for a in ast.arrows().values()}
    emitted: list = []
    out: dict = {}
    for stage in stages:
        sub = stage.diagram
        homs = [a for a in sub.arrows().values() if a.kind == "hom" and a.src in sub.nodes()]
        ends: dict = {}
        frontier = [((a.id,), a.src, a.dst, (a.src, a.dst)) for a in homs if a.src != a.dst]
        while frontier:
            path, start, end, visited = frontier.pop()
            ends[path] = (start, end)
            frontier += [
                (path + (a.id,), start, a.dst, visited + (a.dst,))
                for a in homs
                if a.src == end and a.dst not in visited
            ]
        equal = {(p, p) for p in ends}
        equal.update((p, q) for p, q in emitted if p in ends and q in ends)

        def close():
            while True:
                after: dict = {}
                for p, q in equal:
                    after.setdefault(p, set()).add(q)
                new = {(q, p) for p, q in equal}
                new |= {(p, r) for p, q in equal for r in after[q]}
                for p, q in equal:
                    for a in homs:
                        for ext in ((p + (a.id,), q + (a.id,)), ((a.id,) + p, (a.id,) + q)):
                            if ext[0] in ends and ext[1] in ends:
                                new.add(ext)
                if new <= equal:
                    return
                equal.update(new)

        close()
        order = sorted(ends, key=lambda path: (len(path), path))
        candidates = sorted(
            (
                (p, q)
                for i, p in enumerate(order)
                for q in order[i + 1 :]
                if ends[p] == ends[q] and frozenset((p, q)) not in exempt
            ),
            key=lambda pq: (len(pq[0]) + len(pq[1]), pq),
        )
        fresh: list = []
        for p, q in candidates:
            if (p, q) not in equal:
                fresh.append(_equation(labels, p, q))
                emitted.append((p, q))
                equal.add((p, q))
                close()
        if fresh:
            out[stage.index] = fresh
    return out


def _equation(labels, p, q) -> str:
    texts = sorted((len(path), " o ".join(labels[a] for a in reversed(path))) for path in (p, q))
    return f"{texts[1][1]} = {texts[0][1]}"


# ---------------------------------------------------------------------------
# Diagram stages by erasing the top stage, one stage at a time
# ---------------------------------------------------------------------------


def erasing_stages(ast) -> list:
    """``diagram.extract_stages`` by erasure: stage ``k - 1`` is stage ``k``
    without the elements annotated ``k`` and everything that depends on
    them (arrows incident to an erased element, the target of a ``|->``
    whose source is erased), found by a fixpoint per stage.  An erased
    element annotated below ``k`` is an error, the first in declaration
    order; stages are erased from the top, so the highest ``k`` is named.
    """
    validate_diagram(ast)
    n = ast.max_stage()
    quantifier_of = {e.stage: e.quantifier for e in ast.elements().values() if e.stage}
    subs = {n: ast}
    new_elements = {}
    current = ast
    for k in range(n, 0, -1):
        erased = {e.id for e in current.elements().values() if e.stage == k}
        changed = True
        while changed:
            changed = False
            for a in current.arrows().values():
                if a.id in erased:
                    continue
                if a.kind == "mapsto" and a.src in erased and a.dst not in erased:
                    erased.add(a.dst)
                    changed = True
                if a.src in erased or a.dst in erased:
                    erased.add(a.id)
                    changed = True
        for e in current.elements().values():
            if e.id in erased and e.stage is not None and e.stage < k:
                raise DiagramError(
                    f"element {e.id!r} at stage {e.stage} depends on a stage-{k} element"
                )
        new_elements[k] = tuple(e for e in current.elements() if e in erased)
        current = DiagramAst(
            tuple(
                d
                for d in current.decls
                if not (isinstance(d, (Node, Arrow)) and d.id in erased)
                and not (isinstance(d, NonCommute) and erased & {*d.left, *d.right})
            )
        )
        subs[k - 1] = current
    new_elements[0] = tuple(subs[0].elements())
    return [Stage(k, quantifier_of.get(k), subs[k], new_elements[k]) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# Context listings in three passes, and grids with inline typings
# ---------------------------------------------------------------------------


def three_pass_context(ast) -> str:
    """``diagram.elaborate_context`` in three passes: the typing lines of
    stage 0 and each later stage's element lines gathered into blocks, the
    blocks rendered into (prefix, text, ending) items, and then every
    missing ending set to "," or, on the last item, "."."""
    stages = erasing_stages(ast)
    equations = pairwise_stage_equations(ast, stages)

    blocks: list = []  # (intro or None, line texts[, equations])
    stage0 = set(stages[0].new_elements)
    stage0_lines = []
    for d in ast.decls:
        if isinstance(d, (Node, Arrow)) and d.id not in stage0:
            continue
        text = _context_typing(ast, d)
        if text is not None:
            stage0_lines.append(text)
    stage0_lines += equations.get(0, [])
    blocks.append((None, stage0_lines))

    phrases = {
        "forall": "for all",
        "exists": "there exists",
        "existsuniq": "there exists a unique",
    }
    for stage in stages[1:]:
        element_texts = [
            text
            for text in (_context_typing(ast, ast.elements()[e]) for e in stage.new_elements)
            if text is not None
        ]
        blocks.append((phrases[stage.quantifier], element_texts, equations.get(stage.index, [])))

    rendered: list = []
    for block in blocks:
        if block[0] is None:
            rendered += [("  ", text) for text in block[1]]
            continue
        phrase, element_texts, eqs = block
        for i, text in enumerate(element_texts):
            prefix = f"{phrase} " if i == 0 else "  "
            if i < len(element_texts) - 1:
                rendered.append((prefix, text, " and"))
            elif eqs:
                rendered.append((prefix, text, " such that"))
            else:
                rendered.append((prefix, text))
        rendered += [("  ", eq) for eq in eqs]

    lines = ["In a context where:"]
    for i, item in enumerate(rendered):
        suffix = item[2] if len(item) > 2 else "." if i == len(rendered) - 1 else ","
        lines.append(f"{item[0]}{item[1]}{suffix}")
    if len(lines) == 1:
        return "In a context where: (empty)\n"
    return "\n".join(lines) + "\n"


def _context_typing(ast, d):
    """A declaration's context line, or None: mapsto arrows and their
    targets, noncommute lines and macros have none."""
    targets = {a.dst for a in ast.arrows().values() if a.kind == "mapsto"}
    if isinstance(d, LayerDecl):
        return f"{d.category} is a category"
    if isinstance(d, FunctorDecl):
        return f"{d.label} : {_layer_name(ast, d.src_layer)} -> {_layer_name(ast, d.dst_layer)}"
    if isinstance(d, DefDecl):
        return d.text
    if isinstance(d, Node) and d.id not in targets:
        return f"{d.label} in {ast.layers()[d.layer].category}"
    if isinstance(d, Arrow) and d.id not in targets and d.kind != "mapsto":
        token = "<->" if d.kind == "bij" else "->"
        return f"{d.label} : {_label(ast, d.src)} {token} {_label(ast, d.dst)}"
    return None


def _layer_name(ast, layer_id) -> str:
    return "Set" if layer_id == "Set" else ast.layers()[layer_id].category


def _label(ast, end) -> str:
    return ast.elements()[end].label if end in ast.elements() else ast.functors()[end].label


def inline_grid(ast) -> str:
    """``diagram.render_grid`` with every arrow and functor typing spelled
    out where it is printed."""
    glyphs = {"forall": "∀", "exists": "∃", "existsuniq": "∃!"}

    def suffix(e) -> str:
        return f"  [{glyphs[e.quantifier]}{e.stage}]" if e.quantifier else ""

    columns = []
    for layer in ast.layers().values():
        rows = [f"[{layer.id}] {layer.category}"]
        rows += [f"{n.label}{suffix(n)}" for n in ast.nodes().values() if n.layer == layer.id]
        columns.append(rows)
    widths = [max(len(r) for r in rows) for rows in columns]
    lines = []
    for i in range(max((len(c) for c in columns), default=0)):
        cells = [(c[i] if i < len(c) else "").ljust(w) for c, w in zip(columns, widths)]
        lines.append("   | ".join(cells).rstrip())
    tokens = {"hom": "->", "bij": "<->", "mapsto": "|->"}
    for title, kind in (("arrows:", "hom"), ("bijections:", "bij"), ("mapsto:", "mapsto")):
        items = [a for a in ast.arrows().values() if a.kind == kind]
        if items:
            lines.append(title)
        for a in items:
            src, dst = _label(ast, a.src), _label(ast, a.dst)
            lines.append(f"  {a.label} : {src} {tokens[kind]} {dst}{suffix(a)}")
    if ast.functors():
        lines.append("functors:")
    for f in ast.functors().values():
        src, dst = _layer_name(ast, f.src_layer), _layer_name(ast, f.dst_layer)
        lines.append(f"  {f.label} : {src} -> {dst}")
    if ast.defs():
        lines.append("where:")
    lines += [f"  {d.text}" for d in ast.defs().values()]
    for nc in ast.noncommutes():
        lines.append(f"noncommute: {'.'.join(nc.left)} ; {'.'.join(nc.right)}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Maps as dicts, and map equality by sorted tables
# ---------------------------------------------------------------------------


def table_of(m) -> dict:
    """A map's values as a dict keyed by its domain atoms, in sorted order."""
    return dict(zip(m.dom, m.values))


def map_from_table(dom, cod, table) -> FinSetMap:
    """The map sending each atom of ``dom`` to its entry in ``table``, built
    by the checked constructor; ``table`` names exactly the atoms of ``dom``."""
    if set(table) != set(dom):
        raise ValueError(f"table keys are not the atoms of {dom!r}")
    return FinSetMap(dom, cod, (table[a] for a in dom))


def sorted_map_key(m) -> tuple:
    """Both sets' atoms and the table's items sorted by domain atom."""
    items = sorted(table_of(m).items(), key=lambda kv: atom_key(kv[0]))
    return (m.dom.atoms, m.cod.atoms, tuple(items))


def sorted_map_eq(m, other) -> bool:
    return isinstance(other, FinSetMap) and sorted_map_key(m) == sorted_map_key(other)
