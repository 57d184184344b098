"""Outside-in span tracer for the xfam layers.

The tracer wraps the public functions of the layer modules after they are
imported, without editing them. Each wrapper records one span per call:
name, start, end and the span that was open when the call began (its
parent). A function is rebound at every site that holds it, so calls
through `from .core import covering_number` in `cli`, `classify`,
`enumeration`, `constructions` and the package `__init__` are traced as
well as calls inside `core` itself.

Spans live in flat arrays in memory and are turned into per-layer metrics
(or written out as JSON) once the run has ended.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("core", "enumeration", "canon", "classify", "constructions", "formulas")

CONSTRUCT_FUNCTIONS = ("construct_A", "construct_B", "construct_C1", "construct_C2", "construct_D", "construct_H")

# Public functions left unwrapped, so their time stays in the caller's self
# time. The bit and binomial helpers run millions of times inside the
# kernels (mask_of alone: 7.8M calls in `classify-all --n 8 --k 4 --t 2`),
# and a span per call would cost more than the call. The cached construct_*
# functions are what `ConstructionSpec.build` dispatches to, and their time
# is the build time that `constructions.build.self_s` reports.
UNWRAPPED = frozenset(
    {
        "core.mask_of",
        "core.elements_of",
        "core.full_mask",
        "core.popcount",
        "core.intersection_size",
        "formulas.binom",
    }
    | {f"constructions.{name}" for name in CONSTRUCT_FUNCTIONS}
)


class Tracer:
    """Span recorder; `install` wraps the layers, `layer_metrics` reads the spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.rebound_sites: dict[str, int] = {}
        self.pairs_found = 0
        self.maximal_families = 0
        self.points_checked = 0
        self.distinct_forms: set[bytes] = set()
        self._construct_originals: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        name_id = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _result_hooks(self) -> dict:
        def pairs(result):
            self.pairs_found += len(result)

        def families(result):
            self.maximal_families += len(result)

        def audit(result):
            self.points_checked += result.checked

        return {
            "enumeration.enumerate_maximal_pairs": pairs,
            "enumeration.enumerate_maximal_t_intersecting": families,
            "canon.canonical_form_tuple": self.distinct_forms.add,
            "formulas.audit_lemma": audit,
        }

    def install(self) -> None:
        """Wrap every public function of the layer modules and `cli.main`,
        rebinding each one in every loaded `xfam` module that holds it."""
        import xfam.cli
        import xfam.constructions

        hooks = self._result_hooks()
        xfam_modules = [m for key, m in sys.modules.items() if key == "xfam" or key.startswith("xfam.")]
        targets = []
        for layer in LAYERS:
            module = sys.modules[f"xfam.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNWRAPPED or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported from another layer; wrapped there
                targets.append((name, obj))
        targets.append(("cli.main", xfam.cli.main))
        self._construct_originals = [getattr(xfam.constructions, f) for f in CONSTRUCT_FUNCTIONS]

        for name, original in targets:
            wrapper = self._wrap(name, original, hooks.get(name))
            sites = 0
            for module in xfam_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        sites += 1
            self.rebound_sites[name] = sites

        spec = xfam.constructions.ConstructionSpec
        spec.build = self._wrap("constructions.build", spec.build)
        self.rebound_sites["constructions.build"] = 1

    # -- reading the spans ----------------------------------------------------

    def _per_name(self) -> dict[str, tuple[float, list[float]]]:
        """name -> (self seconds, inclusive per-call durations)."""
        count = len(self.span_name)
        child_time = [0.0] * count
        durations = [self.span_end[i] - self.span_start[i] for i in range(count)]
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        out: dict[str, tuple[float, list[float]]] = {name: (0.0, []) for name in self.names}
        for i in range(count):
            name = self.names[self.span_name[i]]
            self_s, calls = out[name]
            calls.append(durations[i])
            out[name] = (self_s + durations[i] - child_time[i], calls)
        return out

    def layer_metrics(self, report_bytes: int) -> dict[str, float]:
        """Per-layer metrics named `<module>.<function>.<stat>`, plus the
        layer counters; the benchmark picks the ones it reports."""
        metrics: dict[str, float] = {}
        for name, (self_s, calls) in self._per_name().items():
            calls.sort()
            metrics[f"{name}.calls"] = len(calls)
            metrics[f"{name}.self_s"] = self_s
            metrics[f"{name}.p50_us"] = _quantile(calls, 0.50) * 1e6
            metrics[f"{name}.p99_us"] = _quantile(calls, 0.99) * 1e6
        metrics["cli.self_s"] = metrics.pop("cli.main.self_s")
        metrics["cli.report_bytes"] = report_bytes
        metrics["enumeration.pairs_found"] = self.pairs_found
        metrics["enumeration.maximal_families"] = self.maximal_families
        metrics["formulas.points_checked"] = self.points_checked
        forms = metrics["canon.canonical_form_tuple.calls"]
        metrics["canon.distinct_ratio"] = len(self.distinct_forms) / forms if forms else 0.0
        hits = misses = 0
        for fn in self._construct_originals:
            info = fn.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        metrics["constructions.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return metrics

    def write_spans(self, path: str) -> None:
        """All spans as JSON rows [name, start, end, parent index]."""
        rows = [
            [self.names[self.span_name[i]], self.span_start[i], self.span_end[i], self.span_parent[i]]
            for i in range(len(self.span_name))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"rebound_sites": self.rebound_sites, "spans": rows}, fh)


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]
