"""Expected answers computed without fincat.

Every function here is an independent brute force or a closed form over
plain Python data (tuples, dicts, sets).  Nothing imports fincat, so a
defect in fincat cannot leak into the answers the benchmark checks against.
"""

from __future__ import annotations

import itertools
from collections import deque


# ---------------------------------------------------------------------------
# Preorders


def closure(objects, covers):
    """Reflexive-transitive closure of a cover relation, as a set of pairs."""
    le = {(x, x) for x in objects} | set(covers)
    for k in objects:  # Warshall
        below = [a for a in objects if (a, k) in le]
        above = [b for b in objects if (k, b) in le]
        le.update((a, b) for a in below for b in above)
    return le


def chain_morphisms(n):
    return n * (n + 1) // 2


def grid_morphisms(rows, cols):
    return chain_morphisms(rows) * chain_morphisms(cols)


# ---------------------------------------------------------------------------
# Set-valued functors on a preorder


def naturality_failures(le, f_maps, g_maps, eta):
    """Morphisms x<=y whose naturality square fails for eta: F => G.

    ``f_maps[(x, y)]`` and ``g_maps[(x, y)]`` are dicts for every pair of
    the preorder (identities included); ``eta[x]`` is a dict F(x) -> G(x).
    """
    bad = []
    for x, y in sorted(le):
        for a, fa in f_maps[(x, y)].items():
            if g_maps[(x, y)][eta[x][a]] != eta[y][fa]:
                bad.append((x, y))
                break
    return bad


def right_kan_size(le_a, f_values, f_maps, up):
    """Size of the limit of F over the objects ``up`` of A (a full
    subpreorder): the number of families compatible along every a <= a'."""
    objs = sorted(up)
    pairs = [(a, b) for a in objs for b in objs if a != b and (a, b) in le_a]
    count = 0
    for combo in itertools.product(*(f_values[a] for a in objs)):
        fam = dict(zip(objs, combo))
        if all(f_maps[(a, b)][fam[a]] == fam[b] for a, b in pairs):
            count += 1
    return count


def left_kan_size(le_a, f_values, f_maps, down):
    """Size of the colimit of F over the objects ``down`` of A: connected
    components of the element graph x ~ F(a <= a')(x)."""
    parent = {(a, x): (a, x) for a in down for x in f_values[a]}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for a in down:
        for b in down:
            if a != b and (a, b) in le_a:
                for x, y in f_maps[(a, b)].items():
                    parent[find((a, x))] = find((b, y))
    return len({find(t) for t in parent})


def kan_sizes(le_a, le_b, along, f_values, f_maps, objects_b):
    """Pointwise right and left Kan extension sizes along a monotone map.

    In a preorder every comma square commutes, so the slice under b is the
    full subpreorder {a : b <= along(a)} and the slice over b is
    {a : along(a) <= b}.
    """
    right, left = {}, {}
    for b in objects_b:
        up = [a for a in along if (b, along[a]) in le_b]
        down = [a for a in along if (along[a], b) in le_b]
        right[b] = right_kan_size(le_a, f_values, f_maps, up)
        left[b] = left_kan_size(le_a, f_values, f_maps, down)
    return right, left


# ---------------------------------------------------------------------------
# Arithmetic rewriting over arith.sig: numerals, +, *, and g(a) -> a * a + 4.
# Terms are tuples ("n", v) | ("+", l, r) | ("*", l, r) | ("g", a).


def _steps(t):
    out = []
    tag = t[0]
    if tag in ("+", "*") and t[1][0] == "n" and t[2][0] == "n":
        v = t[1][1] + t[2][1] if tag == "+" else t[1][1] * t[2][1]
        out.append(("n", v))
    if tag == "g":
        a = t[1]
        out.append(("+", ("*", a, a), ("n", 4)))
    if tag in ("+", "*"):
        out.extend((tag, s, t[2]) for s in _steps(t[1]))
        out.extend((tag, t[1], s) for s in _steps(t[2]))
    elif tag == "g":
        out.extend(("g", s) for s in _steps(t[1]))
    return out


def reduction_summary(term):
    """(node count, sorted normal-form values) of the full reduction graph."""
    seen = {term}
    queue = deque([term])
    normal = set()
    while queue:
        t = queue.popleft()
        succ = _steps(t)
        if not succ:
            normal.add(t)
        for s in succ:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return len(seen), sorted(v for _tag, v in normal)


def term_text(t):
    """Input syntax for a term; compound subterms are parenthesised."""
    if t[0] == "n":
        return str(t[1])

    def sub(s):
        return term_text(s) if s[0] == "n" else f"({term_text(s)})"

    if t[0] == "g":
        return f"g {sub(t[1])}"
    return f"{sub(t[1])} {t[0]} {sub(t[2])}"


# ---------------------------------------------------------------------------
# Inhabitant families (closed forms).  Printed forms follow fincat's
# documented canonical syntax: application "f (g x1)", pairs "(l, r)",
# lambdas "\x1:A. body".


def _apply_word(word, arg):
    text = arg
    for i, name in enumerate(reversed(word)):
        text = f"{name} {text}" if i == 0 else f"{name} ({text})"
    return text


def words(letters, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(letters, repeat=n)


def endo_family(names, atom, depth):
    """Inhabitants of atom -> atom from endomaps ``names`` up to ``depth``:
    each hypothesis itself, and \\x1. w(x1) for every word of length <= depth-2."""
    terms = set(names)
    for w in words(names, depth - 2):
        terms.add(f"\\x1:{atom}. {_apply_word(w, 'x1')}")
    return terms


def pair_family(point, names, depth):
    """Inhabitants of A * A from a point and endomaps: every pair of words
    of length <= depth-2 applied to the point."""
    elems = [_apply_word(w, point) for w in words(names, depth - 2)]
    return {f"({a}, {b})" for a in elems for b in elems}


def roundtrip_family(f, g, atom, depth):
    """Inhabitants of A -> A from f: A -> B and g: B -> A: \\x1. (g f)^k x1."""
    out = set()
    for k in range((depth - 2) // 2 + 1):
        out.add(f"\\x1:{atom}. {_apply_word((g, f) * k, 'x1')}")
    return out
