"""Outside-in layer trace of fincat.

The layers are fincat's modules.  :class:`Tracer` wraps every public
module-level function of each layer at run time, patching both the module
attribute and every binding another fincat module imported, so calls
between layers and inside one layer both pass through a wrapper.  Two
methods are wrapped on their classes: ``FinCat.hom`` (timed and counted) and
``FinSetMap.__init__`` (counted).  Nothing in ``src/`` changes, and
:meth:`Tracer.uninstall` restores every original binding.

Each wrapped call is accounted on a stack: its self time is its duration
minus the time of the wrapped calls it made.  Calls of ordinary functions
also record a span ``(id, name, start, end, parent id, invocation)`` in
memory; the functions in :data:`HOT` run thousands of times per invocation
and only add to counters.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "fincat"
LAYERS = ("cli", "files", "core", "finset", "yoneda", "adjunction", "diagram", "terms")

HOT = {
    "core.hom",
    "files.parse_atom",
    "files.parse_set_literal",
    "files.split_top_level",
    "finset.atom_key",
    "finset.identity_map",
    "finset.compose_maps",
    "finset.encode_map",
    "finset.decode_map",
    "finset.tuple_atom",
    "finset.class_atom",
    "finset.nattrans_key",
    "terms.print_type",
    "terms.is_numeral",
    "terms.print_term",
    "terms.free_vars",
    "terms.canonicalize",
    "terms.canonical_print",
    "terms.substitute",
    "terms.substitute_many",
    "terms.term_depth",
    "terms.lam_count",
    "terms.term_sort_key",
    "terms.typecheck",
    "diagram.quantifier_glyph",
}


def _product(values):
    total = 1
    for v in values:
        total *= v
    return total


def _nattrans_space(f, g, *_rest, **_options):
    return _product(len(g.object_map[c]) ** len(f.object_map[c]) for c in f.source.objects)


def _limit_candidates(d, *_rest, **_options):
    return _product(len(d.object_map[j]) for j in d.source.objects)


# Counters derived from a wrapped call's arguments and result:
# function -> [(counter, fn(args, kwargs, result) -> amount)]
OBSERVE = {
    "core.comma_under_object": [("core.comma_objects", lambda a, k, r: len(r[0].objects))],
    "finset.enumerate_nattrans_finset": [
        ("finset.nattrans_space", lambda a, k, r: _nattrans_space(*a, **k)),
        ("finset.nattrans_found", lambda a, k, r: len(r)),
    ],
    "finset.enumerate_maps": [("finset.enumerate_maps.maps", lambda a, k, r: len(r))],
    "finset.limit_finset": [
        ("finset.limit_candidates", lambda a, k, r: _limit_candidates(*a, **k)),
        ("finset.limit_found", lambda a, k, r: len(r[0])),
    ],
    "diagram.check_commutativity": [("diagram.commute_passed", lambda a, k, r: int(r.passed))],
    "terms.infer_inhabitants": [("terms.inhabitants_found", lambda a, k, r: len(r))],
    "terms.reduction_graph": [("terms.reduction_nodes", lambda a, k, r: r[1].node_count)],
}


class Tracer:
    """Wraps fincat's layers; accumulates self time, calls, counters, spans."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []
        self.invocation = 0
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer present; a layer or method a later version of
        fincat no longer has is skipped, and its metrics read 0."""
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            for name, fn in list(vars(module).items()) if module else ():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, attr, wrapper)
        core = sys.modules.get(f"{PACKAGE}.core")
        finset = sys.modules.get(f"{PACKAGE}.finset")
        if hasattr(core, "FinCat"):
            self._patch(core.FinCat, "hom", self._wrap("core.hom", core.FinCat.hom))
        if hasattr(finset, "FinSetMap"):
            init = finset.FinSetMap.__init__
            self._patch(finset.FinSetMap, "__init__", self._count_only("finset.maps_constructed", init))

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    # -- wrappers -----------------------------------------------------------

    def _count_only(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, key, fn):
        stack, self_s, calls, counts, spans = self._stack, self.self_s, self.calls, self.counts, self.spans
        perf = time.perf_counter
        hot = key in HOT
        observers = OBSERVE.get(key, ())
        finset_layer = key.startswith("finset.")

        def wrapper(*args, **kwargs):
            if hot:
                span_id = None
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [perf(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if finset_layer and type(exc).__name__ == "CapExceededError" and not getattr(exc, "_traced", False):
                    exc._traced = True
                    counts["finset.cap_exceeded"] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[0]
                self_s[key] += duration - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += duration
                if span_id is not None:
                    parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                    spans.append((span_id, key, frame[0], end, parent, self.invocation))
            for counter, amount in observers:
                counts[counter] += amount(args, kwargs, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self, passes):
        """Per-layer metrics per traced pass (see METRICS)."""
        layer_self = defaultdict(float)
        for key, seconds in self.self_s.items():
            layer_self[key.split(".", 1)[0]] += seconds

        def value(name):
            if name in YIELDS:
                num, den = (value(part) for part in YIELDS[name])
                return num / den if den else 0.0
            base, _, kind = name.rpartition(".")
            if kind == "self_s":
                return layer_self[base] if base in LAYERS else self.self_s[base]
            if kind == "calls":
                return self.calls[base]
            return self.counts[name]

        return {
            name: value(name) if unit == "ratio" else value(name) / passes
            for name, unit, _better in METRICS
            if name != "trace.overhead_ratio"
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart\tend\tparent\tinvocation\n")
            for span in self.spans:
                handle.write("\t".join("" if v is None else str(v) for v in span) + "\n")


# yield -> (numerator, denominator), both counted per run
YIELDS = {
    "finset.nattrans_yield": ("finset.nattrans_found", "finset.nattrans_space"),
    "finset.limit_yield": ("finset.limit_found", "finset.limit_candidates"),
    "diagram.commute_yield": ("diagram.commute_passed", "diagram.check_commutativity.calls"),
}

# (name, unit, better).  Times and counts are per traced pass of the
# workload's invocation list; yields are ratios over the whole run.
METRICS = [
    ("cli.self_s", "s", "lower"),
    ("files.self_s", "s", "lower"),
    ("files.load_category.calls", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.validate_category.self_s", "s", "lower"),
    ("core.preorder_from_covers.self_s", "s", "lower"),
    ("core.hom.calls", "count", "lower"),
    ("core.hom.self_s", "s", "lower"),
    ("core.comma_under_object.self_s", "s", "lower"),
    ("core.comma_objects", "count", "lower"),
    ("core.validate_functor.self_s", "s", "lower"),
    ("core.validate_nattrans.self_s", "s", "lower"),
    ("finset.self_s", "s", "lower"),
    ("finset.enumerate_nattrans_finset.self_s", "s", "lower"),
    ("finset.nattrans_space", "count", "lower"),
    ("finset.nattrans_found", "count", "higher"),
    ("finset.nattrans_yield", "ratio", "higher"),
    ("finset.compose_maps.calls", "count", "lower"),
    ("finset.maps_constructed", "count", "lower"),
    ("finset.enumerate_maps.maps", "count", "lower"),
    ("finset.cap_exceeded", "count", "lower"),
    ("finset.limit_finset.self_s", "s", "lower"),
    ("finset.limit_yield", "ratio", "higher"),
    ("finset.colimit_finset.self_s", "s", "lower"),
    ("yoneda.self_s", "s", "lower"),
    ("yoneda.check_yoneda_roundtrips.self_s", "s", "lower"),
    ("yoneda.hom_maps_functor.self_s", "s", "lower"),
    ("adjunction.self_s", "s", "lower"),
    ("adjunction.check_kan_adjointness.self_s", "s", "lower"),
    ("adjunction.verify_adjunction.self_s", "s", "lower"),
    ("adjunction.adjunction_from_universal_arrows.self_s", "s", "lower"),
    ("diagram.self_s", "s", "lower"),
    ("diagram.evaluate_quantified.self_s", "s", "lower"),
    ("diagram.check_commutativity.calls", "count", "lower"),
    ("diagram.commute_yield", "ratio", "higher"),
    ("diagram.parse_diagram.self_s", "s", "lower"),
    ("terms.self_s", "s", "lower"),
    ("terms.infer_inhabitants.self_s", "s", "lower"),
    ("terms.inhabitants_found", "count", "higher"),
    ("terms.reduction_graph.self_s", "s", "lower"),
    ("terms.reduction_nodes", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
