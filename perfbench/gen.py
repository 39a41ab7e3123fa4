"""Seeded inputs for the three workloads, each with its expected answer.

``build(workload, seed, workdir, fixtures)`` writes plain ``.fincat``,
``.fun``, ``.nt``, ``.adj`` and ``.model`` files into ``workdir`` and
returns the list of :class:`Case` objects to run.  Two random streams feed
it: one seeded by ``--seed`` picks labels, atom names, term hypotheses,
numerals, run order and which entry a mutation hits; one fixed per workload
picks what decides the cost of an instance (set sizes, collapsing merges,
embeddings).  So every seed gives new inputs while the work in a pass, and
with it the tail latency, stays put.

Expected answers come from :mod:`oracle` (closed forms and brute force over
plain Python data) or, for the bundled fixtures, from facts fixed by the
fixture files themselves (a file under ``broken/`` named after the law it
violates, the golden renderings shipped next to the diagrams).
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field

import oracle

NAT_CAP = 10**6  # fincat's default --cap; see search_space() below


@dataclass
class Case:
    """One CLI invocation and what its output must contain.

    ``expect`` is an ordered list of ``(kind, text)`` pairs matched as a
    subsequence of the output lines: ``line`` matches a whole line,
    ``prefix`` the start of a line and ``regex`` a whole line by pattern.
    ``body`` (inhabitant queries) is the exact set of lines after the two
    header lines; ``whole`` is the exact full output.
    """

    label: str
    argv: list
    exit: int
    expect: list = field(default_factory=list)
    body: frozenset | None = None
    whole: str | None = None

    def check(self, code, text):
        """None when the output is the expected answer, else a reason."""
        if code != self.exit:
            return f"exit {code}, expected {self.exit}"
        if self.whole is not None and text != self.whole:
            return "output differs from the golden text"
        lines = text.splitlines()
        pos = 0
        for kind, want in self.expect:
            while pos < len(lines) and not _matches(kind, want, lines[pos]):
                pos += 1
            if pos == len(lines):
                return f"missing {kind} {want!r}"
            pos += 1
        if self.body is not None:
            got = lines[2:]
            if len(got) != len(self.body) or set(got) != self.body:
                return f"inhabitants differ: got {len(got)}, expected {len(self.body)}"
        return None


def _matches(kind, want, line):
    if kind == "line":
        return line == want
    if kind == "prefix":
        return line.startswith(want)
    return re.fullmatch(want, line) is not None


def report_lines(subject, obligations, failing=()):
    """Expected lines of a CheckReport: PASS lines, FAIL prefixes, verdict."""
    out = [("line", f"subject: {subject}")]
    for name in obligations:
        if name in failing:
            out.append(("prefix", f"  [FAIL] {name}  witness=("))
        else:
            out.append(("line", f"  [PASS] {name}"))
    out.append(("line", f"result: {'FAIL' if failing else 'PASS'}"))
    return out


CAT_LAWS = ("coherence", "totality", "associativity", "left_identity", "right_identity")
FUN_LAWS = ("typing", "respects_identities", "respects_composition")
NT_LAWS = ("component_typing", "square_condition")
ADJ_LAWS = (
    "unit_natural",
    "counit_natural",
    "flat_sharp_inverse",
    "flat_natural",
    "sharp_natural",
    "triangle_left",
    "triangle_right",
)


# ---------------------------------------------------------------------------
# Preorders and their file encodings


@dataclass
class Preorder:
    objects: list
    covers: list
    le: set = field(init=False)

    def __post_init__(self):
        self.le = oracle.closure(self.objects, self.covers)

    def mor(self, a, b):
        """fincat's documented name for the morphism a <= b."""
        return f"id_{a}" if a == b else f"{a}->{b}"


def chain(labels):
    return Preorder(list(labels), list(zip(labels, labels[1:])))


def grid(rows, cols, prefix):
    name = lambda i, j: f"{prefix}{i}_{j}"
    objects = [name(i, j) for i in range(rows) for j in range(cols)]
    covers = [(name(i, j), name(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    covers += [(name(i, j), name(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    return Preorder(objects, covers)


def covers_text(p, comment):
    lines = [f"# {comment}", "objects:"] + [f"  {x}" for x in p.objects]
    if p.covers:
        lines += ["preorder:"] + [f"  {a} < {b}" for a, b in p.covers]
    return "\n".join(lines) + "\n"


def explicit_tables(p):
    """Morphism and compose lines of a preorder written out as tables."""
    name = lambda a, b: f"{a}_to_{b}"
    strict = sorted((a, b) for a, b in p.le if a != b)
    morphisms = [(name(a, b), a, b) for a, b in strict]
    compose = [
        (name(b, c), name(a, b), name(a, c))
        for a, b in strict
        for b2, c in strict
        if b == b2
    ]
    return morphisms, compose


def explicit_text(p, morphisms, compose, comment):
    lines = [f"# {comment}", "objects:"] + [f"  {x}" for x in p.objects]
    lines += ["morphisms:"] + [f"  {m} : {a} -> {b}" for m, a, b in morphisms]
    if compose:
        lines += ["compose:"] + [f"  {g} . {f} = {h}" for g, f, h in compose]
    return "\n".join(lines) + "\n"


def labels(rng, n, prefix):
    """n distinct object labels; string order is chain order, so the
    labels change with the seed but the order fincat searches in does not."""
    return [f"{prefix}{v}" for v in sorted(rng.sample(range(100, 1000), n))]


class Writer:
    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def __call__(self, name, text):
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


# ---------------------------------------------------------------------------
# Set-valued functors on preorders


@dataclass
class SetFunctor:
    shape: Preorder
    values: dict  # object -> list of atoms
    maps: dict  # (x, y) for every x <= y -> dict atom -> atom


def random_set_functor(shape, rng, p, sizes, tag):
    """A functor P -> FinSet with |F(x)| = sizes[x].

    Elements come from a universe; each universe element is born at one
    object and lives at every object above it.  F(x) is a partition of the
    elements alive at x that coarsens every partition below x, so the
    action u's class at x |-> u's class at y is well defined and functorial.
    Extra births give non-surjective actions; merges give collapsing ones.
    ``shape`` draws the merges, ``rng`` only the atom names.
    """
    order = _linear_extension(p)
    born = []  # universe element -> object
    label_of = {}  # object -> {element: class id}
    for x in order:
        alive = [u for u, b in enumerate(born) if (b, x) in p.le]
        parent = {u: u for u in alive}

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for y in order:
            if y != x and (y, x) in p.le:
                first = {}
                for u, cls in label_of[y].items():
                    if cls in first:
                        parent[find(u)] = find(first[cls])
                    else:
                        first[cls] = u
        classes = sorted({find(u) for u in alive})
        while len(classes) > sizes[x]:
            a, b = shape.sample(classes, 2)
            parent[find(b)] = find(a)
            classes = sorted({find(u) for u in alive})
        while len(classes) < sizes[x]:
            born.append(x)
            u = len(born) - 1
            parent[u] = u
            alive.append(u)
            classes.append(u)
        label_of[x] = {u: find(u) for u in alive}
    values, atom = {}, {}
    for x in p.objects:
        roots = sorted(set(label_of[x].values()))
        names = rng.sample(range(10, 100), len(roots))
        for r, v in zip(roots, names):
            atom[(x, r)] = f"{tag}{v}"
        values[x] = [atom[(x, r)] for r in roots]
    maps = {}
    for x, y in p.le:
        maps[(x, y)] = {
            atom[(x, cls)]: atom[(y, label_of[y][u])] for u, cls in label_of[x].items()
        }
    return SetFunctor(p, values, maps)


def _linear_extension(p):
    return sorted(p.objects, key=lambda x: sum(1 for y in p.objects if (y, x) in p.le))


def set_literal(atoms):
    return "{" + ", ".join(atoms) + "}"


def map_literal(table):
    return "{" + ", ".join(f"{a}->{b}" for a, b in table.items()) + "}"


def set_functor_text(f, source_file, comment):
    p = f.shape
    lines = [f"# {comment}", f"source: {source_file}", "target: finset", "objects:"]
    lines += [f"  {x} |-> {set_literal(f.values[x])}" for x in p.objects]
    strict = sorted((a, b) for a, b in p.le if a != b)
    if strict:
        lines += ["morphisms:"]
        lines += [f"  {p.mor(a, b)} |-> {map_literal(f.maps[(a, b)])}" for a, b in strict]
    return "\n".join(lines) + "\n"


def table_functor_text(p, q, obj_map, source_file, target_file, comment, override=None):
    """A monotone map p -> q as a .fun between table categories."""
    lines = [f"# {comment}", f"source: {source_file}", f"target: {target_file}", "objects:"]
    lines += [f"  {x} |-> {obj_map[x]}" for x in p.objects]
    strict = sorted((a, b) for a, b in p.le if a != b)
    if strict:
        lines += ["morphisms:"]
        for a, b in strict:
            image = q.mor(obj_map[a], obj_map[b])
            if override and (a, b) in override:
                image = override[(a, b)]
            lines.append(f"  {p.mor(a, b)} |-> {image}")
    return "\n".join(lines) + "\n"


def search_space(f_sizes, g_sizes):
    """Size of the candidate product for Nat(F, G): prod |G(c)|^|F(c)|.

    With its default cap fincat refuses (exit 3) any enumeration whose
    product exceeds 10^6 before it searches; the generator uses this to fix
    how many such instances a pass contains.
    """
    total = 1
    for c in f_sizes:
        total *= max(g_sizes[c] ** f_sizes[c], 1)
    return total


# ---------------------------------------------------------------------------
# corpus


def _fixture_cases(fx):
    """Every subcommand over the bundled fixture corpus."""
    path = lambda *parts: os.path.join(fx, *parts)
    cases = []
    categories = {
        "a4.fincat": "category:4obj/6mor",
        "b6.fincat": "category:6obj/17mor",
        "chain2.fincat": "category:2obj/3mor",
        "chain3.fincat": "category:3obj/6mor",
        "disc2.fincat": "category:2obj/2mor",
        "kite.fincat": "category:5obj/14mor",
        "monoid_e.fincat": "category:1obj/2mor",
    }
    for name, subject in categories.items():
        cases.append(
            Case(f"check-cat {name}", ["check-cat", path(name)], 0, report_lines(subject, CAT_LAWS))
        )
    for name in (
        "f_kite.fun",
        "g_on_a.fun",
        "g_on_b.fun",
        "h_on_a.fun",
        "id_monoid.fun",
        "incl_a4_b6.fun",
        "incl_disc2_p.fun",
        "incl_p_q.fun",
        "trunc_q_p.fun",
    ):
        cases.append(
            Case(f"check-fun {name}", ["check-fun", path(name)], 0, report_lines("functor", FUN_LAWS))
        )
    cases.append(
        Case("check-nt id_fkite.nt", ["check-nt", path("id_fkite.nt")], 0, report_lines("nattrans", NT_LAWS))
    )
    # each broken fixture is named after the one law it violates
    broken = {
        "bad_assoc.fincat": ("check-cat", "associativity"),
        "bad_coherence.fincat": ("check-cat", "coherence"),
        "bad_idl.fincat": ("check-cat", "left_identity"),
        "bad_idr.fincat": ("check-cat", "right_identity"),
        "f_kite_bad_respcomp.fun": ("check-fun", "respects_composition"),
        "f_kite_bad_respids.fun": ("check-fun", "respects_identities"),
        "f_kite_bad_sqcond.nt": ("check-nt", "square_condition"),
    }
    for name, (cmd, law) in broken.items():
        cases.append(
            Case(
                f"{cmd} broken/{name}",
                [cmd, path("broken", name)],
                1,
                [("prefix", f"  [FAIL] {law}  witness=("), ("line", "result: FAIL")],
            )
        )
    for diag, golden, fmt in (
        ("y0.diag", "y0.context.txt", []),
        ("universal_arrow.diag", "universal_arrow.context.txt", []),
        ("y0.diag", "y0.grid.txt", ["--format", "graph"]),
    ):
        with open(path("golden", golden), encoding="utf-8") as handle:
            want = handle.read()
        cases.append(
            Case(
                f"context {diag} {golden}",
                ["context", path(diag)] + fmt,
                0,
                whole=want if want.endswith("\n") else want + "\n",
            )
        )
    # sizes are the cumulative element counts of equalizer.diag's stages
    cases.append(
        Case(
            "stages equalizer.diag",
            ["stages", path("equalizer.diag")],
            0,
            [
                ("line", "stages: 4"),
                ("line", "stage 0 [-]: 0 nodes, 0 arrows"),
                ("line", "stage 1 [∀]: 2 nodes, 2 arrows  (new: X, Y, f, g)"),
                ("line", "stage 2 [∃]: 3 nodes, 3 arrows  (new: E, e)"),
                ("line", "stage 3 [∀]: 4 nodes, 4 arrows  (new: Z, z)"),
                ("line", "stage 4 [∃!]: 4 nodes, 5 arrows  (new: u)"),
            ],
        )
    )
    for diag, model, truth in (
        ("equalizer.diag", "equalizer_chain2.model", True),
        ("equalizer.diag", "equalizer_monoid.model", False),
        ("universal_arrow.diag", "universal_arrow_galois.model", True),
    ):
        cases.append(
            Case(
                f"eval {diag} {model}",
                ["eval", path(diag), "--model", path("models", model)],
                0 if truth else 1,
                [("line", f"result: {'true' if truth else 'false'}")],
            )
        )
    # kan along the full inclusion a4 -> b6 of h_on_a (two 2-chains of
    # bijections): the right extension at b is the number of families over
    # {a : b <= a}, the left one the number of components over {a : a <= b}
    cases.append(
        Case(
            "kan incl_a4_b6 h_on_a",
            ["kan", path("incl_a4_b6.fun"), path("h_on_a.fun")],
            0,
            [
                ("line", "right kan sizes: 1:4, 2:2, 3:2, 4:2, 5:2, 6:1"),
                ("line", "left kan sizes: 1:0, 2:2, 3:2, 4:2, 5:2, 6:4"),
                ("line", "subject: kan_adjointness"),
                ("line", "result: PASS"),
                ("line", "subject: counit_inclusion"),
                ("line", "result: PASS"),
            ],
        )
    )
    for name, sizes in (
        ("f_kite.fun", {"1": 2, "2": 1, "3": 2, "4": 1, "5": 2}),
        ("g_on_a.fun", {"2": 1, "3": 1, "4": 2, "5": 1}),
        ("g_on_b.fun", {"1": 1, "2": 1, "3": 1, "4": 1, "5": 1, "6": 2}),
        ("h_on_a.fun", {"2": 2, "3": 2, "4": 2, "5": 2}),
    ):
        cases.append(Case(f"yoneda {name}", ["yoneda", path(name)], 0, yoneda_lines(sizes)))
    cases.append(Case("adj verify galois.adj", ["adj", "verify", path("galois.adj")], 0, report_lines("adjunction", ADJ_LAWS)))
    cases.append(
        Case(
            "adj build galois_build.adj",
            ["adj", "build", path("galois_build.adj")],
            0,
            [("line", "solved left adjoint:")] + report_lines("adjunction", ADJ_LAWS),
        )
    )
    # the counit component e is natural but breaks both triangle laws
    cases.append(
        Case(
            "adj verify monoid_bad_counit.adj",
            ["adj", "verify", path("monoid_bad_counit.adj")],
            1,
            [
                ("line", "  [PASS] unit_natural"),
                ("line", "  [PASS] counit_natural"),
                ("prefix", "  [FAIL] triangle_left  witness=("),
                ("prefix", "  [FAIL] triangle_right  witness=("),
                ("line", "result: FAIL"),
            ],
        )
    )
    cases.append(Case("examples", ["examples"], 0, [("regex", r"corpus: (\d+)/\1 ok")]))
    return cases


def yoneda_lines(sizes):
    return [
        (
            "line",
            f"object {x}: |values| = {n}, |transformations| = {n}, bijection ok, roundtrips ok",
        )
        for x, n in sorted(sizes.items())
    ]


INFER_NAMES = ["f", "g", "h", "k", "m", "q", "r", "s"]
ATOMS = ["A", "B", "C", "D", "E"]


def _infer_case(label, ctx, goal, depth, body):
    return Case(
        label,
        ["infer", ctx, goal, "--depth", str(depth)],
        0,
        [("regex", rf"inhabitants \(depth <= {depth}\): {len(body)}  \[\d+\.\d+s\]")],
        body=frozenset(body),
    )


# (endomap count, depth) for the endomap family; the counts are
# m + (m^(d-1) - 1)/(m - 1), from 3 terms up to 513
ENDO_FAMILY = [(1, d) for d in range(6, 11)] * 4 + [(2, d) for d in range(6, 11)] * 6 + [
    (3, 6),
    (3, 7),
] * 5
PAIR_FAMILY = [(1, d) for d in range(3, 9)] * 4 + [(2, 4), (2, 5)] * 4
ROUNDTRIP_FAMILY = [d for d in range(6, 11)] * 4
# nested g / + terms over arith.sig: (shape, count)
REDUCE_SHAPES = [("g_sum", 12), ("sum_g", 12), ("g_g", 10), ("g_sum_sum", 10), ("g_g_sum", 4)]


def _reduce_term(rng, shape):
    n = lambda: ("n", rng.randint(1, 6))
    if shape == "g_sum":
        return ("g", ("+", n(), n()))
    if shape == "sum_g":
        return ("+", ("g", n()), ("g", n()))
    if shape == "g_g":
        return ("g", ("g", n()))
    if shape == "g_sum_sum":
        return ("g", ("+", n(), ("+", n(), n())))
    return ("g", ("g", ("+", n(), n())))


def corpus(rng, shape, write, fx):
    cases = _fixture_cases(fx)
    terms = []
    for m, depth in ENDO_FAMILY:
        names = rng.sample(INFER_NAMES, m)
        atom = rng.choice(ATOMS)
        ctx = "{" + ", ".join(f"{x}: {atom}->{atom}" for x in names) + "}"
        terms.append(
            _infer_case(f"infer endo m={m} d={depth}", ctx, f"{atom}->{atom}", depth,
                        oracle.endo_family(names, atom, depth))
        )
    for m, depth in PAIR_FAMILY:
        names = rng.sample(INFER_NAMES, m + 1)
        point, maps = names[0], names[1:]
        atom = rng.choice(ATOMS)
        ctx = "{" + ", ".join([f"{point}: {atom}"] + [f"{x}: {atom}->{atom}" for x in maps]) + "}"
        terms.append(
            _infer_case(f"infer pair m={m} d={depth}", ctx, f"{atom}*{atom}", depth,
                        oracle.pair_family(point, maps, depth))
        )
    for depth in ROUNDTRIP_FAMILY:
        f, g = rng.sample(INFER_NAMES, 2)
        a, b = rng.sample(ATOMS, 2)
        terms.append(
            _infer_case(f"infer roundtrip d={depth}", f"{{{f}: {a}->{b}, {g}: {b}->{a}}}",
                        f"{a}->{a}", depth, oracle.roundtrip_family(f, g, a, depth))
        )
    sig = os.path.join(fx, "arith.sig")
    for form, count in REDUCE_SHAPES:
        for _ in range(count):
            term = _reduce_term(rng, form)
            nodes, normal = oracle.reduction_summary(term)
            terms.append(
                Case(
                    f"reduce {form}",
                    ["reduce", oracle.term_text(term), "--sig", sig],
                    0,
                    [
                        ("line", f"nodes: {nodes}"),
                        ("line", f"normal forms: {', '.join(map(str, normal))}"),
                        ("line", "terminating: yes"),
                        ("line", "unique normal form: yes"),
                        ("line", "locally confluent on graph: yes"),
                    ],
                )
            )
    rng.shuffle(terms)
    return cases + terms


# ---------------------------------------------------------------------------
# tables


COVER_CHAINS = list(range(10, 31, 2))
EXPLICIT_CHAINS = list(range(10, 25, 2))
GRIDS = [(r, c) for r in range(2, 6) for c in range(r, 6)]
# (shape, size) pairs mutated once per law in MUTATED_LAWS
MUTATION_SHAPES = [("chain", n) for n in range(4, 9)] + [("grid", (2, 3)), ("grid", (3, 3))]
MUTATED_LAWS = ("coherence", "totality", "left_identity", "right_identity")
MUTATION_ROUNDS = 4
TRUNCATIONS = [(n, m) for n in range(6, 21, 2) for m in (2, n // 2, n - 1)]
FUNCTOR_MUTATIONS = [(n, n // 2) for n in range(6, 18)]
GALOIS = [(3, 6), (4, 8), (5, 10), (6, 12), (8, 16), (10, 20), (12, 25)]
EQUALIZER_MODELS = [("chain", n) for n in range(3, 9)] + [("grid", (2, 2)), ("grid", (2, 3)), ("grid", (3, 3))]


def _mutate_tables(rng, p, law):
    """One-entry change to the explicit tables of p that breaks ``law``."""
    morphisms, compose = explicit_tables(p)
    bounds = {m: (a, b) for m, a, b in morphisms}
    bounds.update({f"id_{x}": (x, x) for x in p.objects})
    if law == "coherence":
        i = rng.randrange(len(compose))
        g, f, h = compose[i]
        wrong = [m for m in bounds if bounds[m] != bounds[h]]
        compose[i] = (g, f, rng.choice(sorted(wrong)))
    elif law == "totality":
        del compose[rng.randrange(len(compose))]
    else:
        m, a, b = rng.choice(morphisms)
        other = rng.choice(sorted(x for x in bounds if x != m))
        pair = (f"id_{b}", m) if law == "left_identity" else (m, f"id_{a}")
        compose.append(pair + (other,))
    return morphisms, compose


def _shape(rng, kind, size, prefix):
    if kind == "chain":
        return chain(labels(rng, size, prefix))
    return grid(size[0], size[1], prefix)


def tables(rng, shape, write, fx):
    cases = []
    for n in COVER_CHAINS:
        p = chain(labels(rng, n, "c"))
        path = write(f"chain{n}_covers.fincat", covers_text(p, f"{n}-chain as covers"))
        subject = f"category:{n}obj/{oracle.chain_morphisms(n)}mor"
        cases.append(Case(f"check-cat chain{n} covers", ["check-cat", path], 0, report_lines(subject, CAT_LAWS)))
    for n in EXPLICIT_CHAINS:
        p = chain(labels(rng, n, "t"))
        morphisms, compose = explicit_tables(p)
        path = write(f"chain{n}_tables.fincat", explicit_text(p, morphisms, compose, f"{n}-chain as tables"))
        subject = f"category:{n}obj/{oracle.chain_morphisms(n)}mor"
        cases.append(Case(f"check-cat chain{n} tables", ["check-cat", path], 0, report_lines(subject, CAT_LAWS)))
    for r, c in GRIDS:
        p = grid(r, c, rng.choice("uvw"))
        path = write(f"grid{r}x{c}.fincat", covers_text(p, f"{r}x{c} grid"))
        subject = f"category:{r * c}obj/{oracle.grid_morphisms(r, c)}mor"
        cases.append(Case(f"check-cat grid{r}x{c}", ["check-cat", path], 0, report_lines(subject, CAT_LAWS)))
    for round_ in range(MUTATION_ROUNDS):
        for kind, size in MUTATION_SHAPES:
            for law in MUTATED_LAWS:
                p = _shape(rng, kind, size, "x")
                morphisms, compose = _mutate_tables(rng, p, law)
                name = f"mut_{kind}{size}_{law}_{round_}.fincat".replace(" ", "").replace(",", "x")
                path = write(name, explicit_text(p, morphisms, compose, f"breaks {law}"))
                cases.append(
                    Case(
                        f"check-cat mutated {kind} {law}",
                        ["check-cat", path],
                        1,
                        [("prefix", f"  [FAIL] {law}  witness=("), ("line", "result: FAIL")],
                    )
                )
    for n, m in TRUNCATIONS:
        cases.append(_truncation(rng, shape, write, n, m, mutated=False))
    for n, m in FUNCTOR_MUTATIONS:
        cases.append(_truncation(rng, shape, write, n, m, mutated=True))
    for m, n in GALOIS:
        cases += _galois(rng, write, m, n)
    diag = os.path.join(fx, "equalizer.diag")
    for kind, size in EQUALIZER_MODELS:
        p = _shape(rng, kind, size, "e")
        tag = f"{kind}{size}".replace(" ", "").replace(",", "x")
        cat = write(f"eq_{tag}.fincat", covers_text(p, f"{kind} {size}"))
        model = write(f"eq_{tag}.model", f"# equalizers in a preorder\nlayer L = {os.path.basename(cat)}\n")
        # in a preorder f = g for every parallel pair, so stage 1 has one
        # commuting extension per morphism and E = X, e = id is an equalizer
        cases.append(
            Case(
                f"eval equalizer {tag}",
                ["eval", diag, "--model", model],
                0,
                [
                    ("line", f"  stage 1 [∀]: all {len(p.le)} commuting extensions satisfy the rest"),
                    ("line", "result: true"),
                ],
            )
        )
    return cases


def _truncation(rng, shape, write, n, m, mutated):
    """A monotone surjection from an n-chain onto an m-chain; when
    ``mutated``, one morphism image is retargeted so typing fails."""
    p, q = chain(labels(rng, n, "s")), chain(labels(rng, m, "d"))
    tag = f"{n}_{m}{'_bad' if mutated else ''}"
    src = write(f"trunc{tag}_src.fincat", covers_text(p, f"{n}-chain"))
    dst = write(f"trunc{tag}_dst.fincat", covers_text(q, f"{m}-chain"))
    cut = sorted(shape.sample(range(1, n), m - 1))
    obj_map = {x: q.objects[sum(1 for c in cut if c <= i)] for i, x in enumerate(p.objects)}
    override = None
    if mutated:
        a, b = rng.choice(sorted((a, b) for a, b in p.le if a != b))
        image = (obj_map[a], obj_map[b])
        override = {(a, b): rng.choice(sorted(q.mor(x, y) for x, y in q.le if (x, y) != image))}
    path = write(f"trunc{tag}.fun", table_functor_text(p, q, obj_map, src, dst, "truncation", override))
    if mutated:
        expect = [("prefix", "  [FAIL] typing  witness=("), ("line", "result: FAIL")]
        return Case(f"check-fun mutated truncation {n}->{m}", ["check-fun", path], 1, expect)
    return Case(f"check-fun truncation {n}->{m}", ["check-fun", path], 0, report_lines("functor", FUN_LAWS))


def _galois(rng, write, m, n):
    """inclusion -| truncation between an m-chain and an n-chain (m < n)."""
    big = chain(labels(rng, n, "g"))
    small = chain(big.objects[:m])
    top = small.objects[-1]
    fs = write(f"gal{m}_{n}_small.fincat", covers_text(small, f"{m}-chain"))
    fb = write(f"gal{m}_{n}_big.fincat", covers_text(big, f"{n}-chain"))
    incl = {x: x for x in small.objects}
    trunc = {x: (x if x in incl else top) for x in big.objects}
    left = write(f"gal{m}_{n}_incl.fun", table_functor_text(small, big, incl, fs, fb, "inclusion"))
    right = write(f"gal{m}_{n}_trunc.fun", table_functor_text(big, small, trunc, fb, fs, "truncation"))
    unit = [f"  {x} |-> id_{x}" for x in small.objects]
    counit = {y: big.mor(trunc[y], y) for y in big.objects}
    full = "\n".join(
        ["# inclusion -| truncation", f"right: {right}", f"left: {left}", "unit:"]
        + unit
        + ["counit:"]
        + [f"  {y} |-> {counit[y]}" for y in big.objects]
    )
    build = "\n".join(
        ["# universal arrows of inclusion -| truncation", f"right: {right}", "lobjects:"]
        + [f"  {x} |-> {x}" for x in small.objects]
        + ["unit:"]
        + unit
    )
    verify_path = write(f"gal{m}_{n}.adj", full + "\n")
    build_path = write(f"gal{m}_{n}_build.adj", build + "\n")
    solved = [("line", "solved left adjoint:")]
    solved += [("line", f"  object {x} |-> {x}") for x in sorted(small.objects)]
    morphs = sorted(small.mor(a, b) for a, b in small.le)
    solved += [("line", f"  morphism {f} |-> {f}") for f in morphs]
    solved += [("line", "solved counit:")]
    solved += [("line", f"  {y} |-> {counit[y]}") for y in sorted(big.objects)]
    return [
        Case(f"adj verify galois {m}->{n}", ["adj", "verify", verify_path], 0, report_lines("adjunction", ADJ_LAWS)),
        Case(
            f"adj build galois {m}->{n}",
            ["adj", "build", build_path],
            0,
            solved + report_lines("adjunction", ADJ_LAWS),
        ),
    ]


# ---------------------------------------------------------------------------
# sets


def _sets_shape(rng, name):
    if name.startswith("chain"):
        return chain(labels(rng, int(name[5:]), "o"))
    covers = {
        "a4": [("2", "4"), ("3", "5")],
        "b6": [("1", "2"), ("1", "3"), ("2", "4"), ("3", "5"), ("4", "6"), ("5", "6")],
        "kite": [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("4", "5")],
    }[name]
    objects = sorted({x for pair in covers for x in pair})
    return Preorder(objects, covers)


YONEDA_SHAPES = [f"chain{n}" for n in range(2, 8)] + ["a4", "b6", "kite"]
YONEDA_ROUNDS = 9
NT_SHAPES = [f"chain{n}" for n in range(2, 6)] + ["a4", "kite"]
NT_ROUNDS = 6
# (source chain length, target chain length); a4 -> b6 is added separately
KAN_EMBEDDINGS = [(m, n) for n in range(3, 6) for m in range(2, n)]
KAN_DECIDED = 80
KAN_CAPPED = 5
KAN_DECIDED_SPACE = 2000


def _sizes(shape, p):
    return {x: shape.randint(1, 4) for x in p.objects}


def _kan_instance(rng, shape, low):
    """A random kan query: shapes, inclusion, functor, expected sizes, and
    the candidate products of the four Nat searches ``fincat kan`` runs."""
    if shape.random() < 0.2:
        a_shape, b_shape = _sets_shape(rng, "a4"), _sets_shape(rng, "b6")
        along = {x: x for x in a_shape.objects}
    else:
        m, n = shape.choice(KAN_EMBEDDINGS)
        b_shape = chain(labels(rng, n, "b"))
        a_shape = chain(labels(rng, m, "a"))
        spots = sorted(shape.sample(range(n), m))
        along = {x: b_shape.objects[i] for x, i in zip(a_shape.objects, spots)}
    sizes = {x: shape.randint(low, 4) for x in a_shape.objects}
    f = random_set_functor(shape, rng, a_shape, sizes, "x")
    right, left = oracle.kan_sizes(a_shape.le, b_shape.le, along, f.values, f.maps, b_shape.objects)
    restricted = {x: left[along[x]] for x in a_shape.objects}
    spaces = (
        search_space(left, left),
        search_space(sizes, restricted),
        search_space(restricted, sizes),
        search_space(left, right),
    )
    return (a_shape, b_shape, along, f, right, left), spaces


def _kan_case(write, index, instance):
    a_shape, b_shape, along, f, right, left = instance
    src = write(f"kan{index}_a.fincat", covers_text(a_shape, "kan source"))
    dst = write(f"kan{index}_b.fincat", covers_text(b_shape, "kan target"))
    along_path = write(f"kan{index}_along.fun", table_functor_text(a_shape, b_shape, along, src, dst, "full inclusion"))
    f_path = write(f"kan{index}_f.fun", set_functor_text(f, src, "extended functor"))
    sizes = lambda table: ", ".join(f"{b}:{table[b]}" for b in sorted(b_shape.objects))
    expect = [
        ("line", f"right kan sizes: {sizes(right)}"),
        ("line", f"left kan sizes: {sizes(left)}"),
        ("line", "subject: kan_adjointness"),
        ("line", "result: PASS"),
        ("line", "subject: counit_inclusion"),
        ("line", "result: PASS"),
    ]
    sizes_a = "/".join(str(len(f.values[x])) for x in a_shape.objects)
    label = f"kan {len(a_shape.objects)}->{len(b_shape.objects)} sizes {sizes_a}"
    return Case(label, ["kan", along_path, f_path], 0, expect)


def sets(rng, shape, write, fx):
    cases = []
    index = 0
    for _ in range(YONEDA_ROUNDS):
        for name in YONEDA_SHAPES:
            p = _sets_shape(rng, name)
            f = random_set_functor(shape, rng, p, _sizes(shape, p), "y")
            shape_path = write(f"yon{index}.fincat", covers_text(p, name))
            path = write(f"yon{index}.fun", set_functor_text(f, shape_path, "set-valued"))
            index += 1
            sizes = {x: len(f.values[x]) for x in p.objects}
            cases.append(Case(f"yoneda {name}", ["yoneda", path], 0, yoneda_lines(sizes)))
    for round_ in range(NT_ROUNDS):
        for name in NT_SHAPES:
            cases.append(_nattrans_case(rng, shape, write, name, index, mutate=round_ % 2 == 1))
            index += 1
    # decided queries keep their summed search space small so no single
    # query dominates a pass; the capped ones exceed the cap before searching
    for count, low, keep in (
        (KAN_DECIDED, 1, lambda spaces: sum(spaces) <= KAN_DECIDED_SPACE),
        (KAN_CAPPED, 3, lambda spaces: max(spaces) > NAT_CAP),
    ):
        kept = 0
        while kept < count:
            instance, spaces = _kan_instance(rng, shape, low)
            if keep(spaces):
                cases.append(_kan_case(write, index, instance))
                index += 1
                kept += 1
    rng.shuffle(cases)
    return cases


def _nattrans_case(rng, shape, write, name, index, mutate):
    """A relabelling F => G (natural); when ``mutate``, one entry changed."""
    p = _sets_shape(rng, name)
    f = random_set_functor(shape, rng, p, _sizes(shape, p), "n")
    rename = {x: {a: f"r{a}" for a in f.values[x]} for x in p.objects}
    g = SetFunctor(
        p,
        {x: [rename[x][a] for a in f.values[x]] for x in p.objects},
        {(x, y): {rename[x][a]: rename[y][b] for a, b in t.items()} for (x, y), t in f.maps.items()},
    )
    eta = {x: dict(rename[x]) for x in p.objects}
    if mutate:
        x = rng.choice(sorted(x for x in p.objects if len(g.values[x]) > 1) or p.objects)
        a = rng.choice(f.values[x])
        others = [v for v in g.values[x] if v != eta[x][a]]
        if others:
            eta[x][a] = rng.choice(others)
    natural = not oracle.naturality_failures(p.le, f.maps, g.maps, eta)
    shape_path = write(f"nt{index}.fincat", covers_text(p, name))
    fp = write(f"nt{index}_f.fun", set_functor_text(f, shape_path, "source functor"))
    gp = write(f"nt{index}_g.fun", set_functor_text(g, shape_path, "target functor"))
    lines = ["# relabelling transformation", f"source: {fp}", f"target: {gp}", "components:"]
    lines += [f"  {x} |-> {map_literal(eta[x])}" for x in p.objects]
    path = write(f"nt{index}.nt", "\n".join(lines) + "\n")
    failing = () if natural else ("square_condition",)
    return Case(
        f"check-nt {name} {'natural' if natural else 'unnatural'}",
        ["check-nt", path],
        0 if natural else 1,
        report_lines("nattrans", NT_LAWS, failing),
    )


# ---------------------------------------------------------------------------


WORKLOADS = {"corpus": corpus, "tables": tables, "sets": sets}


def build(workload, seed, workdir, fx):
    """Write the inputs of one workload and return its cases in run order.

    ``tables`` and ``sets`` end each pass with one ``examples`` run, so every
    fincat layer does some measured work on every workload.
    """
    rng = random.Random(f"{workload}/{seed}")
    shape = random.Random(f"{workload}/shape")
    cases = WORKLOADS[workload](rng, shape, Writer(workdir), fx)
    if workload != "corpus":
        cases.append(Case("examples", ["examples"], 0, [("regex", r"corpus: (\d+)/\1 ok")]))
    return cases
