"""Spans recorded from outside the program, and the per-layer figures.

Tracer wraps every public function of the seven layer modules at each
attribute a caller looks it up by: the defining module, any layer module
that imported the name (graphmat's hermite_scaled_eval and
edge_factor_table), and the package namespace. spectral.spectral_norm is one
attribute for psd_check, Decomposition.t_norm_est and the harness alike.
Spans (name, start, end, parent) stay in memory; restore() puts every
original back.

A span's self time is its duration minus its child spans' durations. Every
workload calls the program from one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field


LAYERS = ("sampling", "construction", "neumann", "hermite", "graphmat",
          "spectral", "harness")


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


#: what a span keeps from a call's result, by span name
ATTRS = {
    "sampling.sample_vectors": lambda a, k, r: {"bytes": r.vectors.nbytes},
    "sampling.sample_goe": lambda a, k, r: {"bytes": r.entries.nbytes},
}


class Tracer:
    """Context manager that records a span around every layer call.

    With measure_alloc, tracemalloc runs while the call stack is inside the
    construction layer and construction_peak keeps its peak. tracemalloc
    slows every allocation in the process, so the timed traced phase leaves
    it off and a separate pass measures memory.
    """

    def __init__(self, package, measure_alloc: bool = False):
        self.package = package
        self.measure_alloc = measure_alloc
        self.modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}")
            for layer in LAYERS
        }
        self.spans: list[Span] = []
        #: tracemalloc peak inside the construction layer, bytes
        self.construction_peak = 0
        self._ids = itertools.count()
        self._stack: list[Span] = []
        self._alloc_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        wrappers = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for namespace in (self.package, *self.modules.values()):
            for attr, obj in list(vars(namespace).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((namespace, attr, obj))
                    setattr(namespace, attr, entry[1])

    def restore(self) -> None:
        while self._patched:
            namespace, attr, obj = self._patched.pop()
            setattr(namespace, attr, obj)

    def _wrap(self, name: str, fn):
        extract = ATTRS.get(name)
        in_construction = self.measure_alloc and name.startswith("construction.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = Span(next(self._ids), name, 0.0, stack[-1].id if stack else None)
            stack.append(span)
            if in_construction:
                self._alloc_enter()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if in_construction:
                    self._alloc_exit()
                self.spans.append(span)
            if extract is not None:
                span.attrs = extract(args, kwargs, result)
            return result

        return traced

    def _alloc_enter(self) -> None:
        self._alloc_depth += 1
        if self._alloc_depth == 1:
            tracemalloc.start()

    def _alloc_exit(self) -> None:
        self._alloc_depth -= 1
        if self._alloc_depth == 0:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.construction_peak = max(self.construction_peak, peak)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans."""
    own = {span.id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def totals(spans) -> dict[str, float]:
    """Raw sums over one traced phase; per_layer() turns them into metrics."""
    own = self_times(spans)
    names = {span.id: span.name for span in spans}
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        layer = span.layer
        out[f"{span.name}.self_s"] += own[span.id]
        out[f"{layer}.self_s"] += own[span.id]
        out[f"{layer}.calls"] += 1
        if span.parent is None:
            out["root_s"] += span.end - span.start
        parent_layer = names.get(span.parent, "").split(".", 1)[0]
        if (layer == "construction" and span.error == "SingularMatrixError"
                and parent_layer != "construction"):
            out["construction.singular"] += 1
        for key, value in span.attrs.items():
            out[f"{layer}.{key}"] += value
    return dict(out)


#: (metric, unit): every per-layer metric the traced run reports; spectral,
#: neumann and harness are traced too, but no workload reaches them
PER_LAYER = (
    ("construction.decompose.self_s", "s/item"),
    ("construction.solve_weights.self_s", "s/item"),
    ("construction.assemble_R_split.self_s", "s/item"),
    ("construction.self_s", "s/item"),
    ("construction.calls", "1/item"),
    ("construction.singular", "1/item"),
    ("construction.peak_alloc_mb", "MB"),
    ("graphmat.realize.self_s", "s/item"),
    ("graphmat.verify_block_bound.self_s", "s/item"),
    ("graphmat.block_value.self_s", "s/item"),
    ("graphmat.self_s", "s/item"),
    ("hermite.hermite_scaled_eval.self_s", "s/item"),
    ("hermite.edge_factor_table.self_s", "s/item"),
    ("hermite.self_s", "s/item"),
    ("sampling.self_s", "s/item"),
    ("sampling.calls", "1/item"),
    ("sampling.bytes", "B/item"),
    ("trace.unattributed_s", "s/item"),
    ("trace.overhead_frac", "ratio"),
    ("trace.items", "count"),
)


def per_layer(phases) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced phases of all worker processes.

    Each phase holds "totals" (from totals()), "peak_alloc" (bytes), "items",
    "traced_s" and "untraced_s" (summed item times of the same items run
    with and without tracing).
    """
    items = sum(p["items"] for p in phases)
    summed: dict[str, float] = defaultdict(float)
    for phase in phases:
        for key, value in phase["totals"].items():
            summed[key] += value
    traced = sum(p["traced_s"] for p in phases)
    untraced = sum(p["untraced_s"] for p in phases)
    derived = {
        "construction.peak_alloc_mb": max(p["peak_alloc"] for p in phases) / 2**20,
        "trace.unattributed_s": (traced - summed["root_s"]) / items,
        "trace.overhead_frac": traced / untraced - 1.0,
        "trace.items": float(items),
    }
    out = {}
    for name, unit in PER_LAYER:
        value = derived[name] if name in derived else summed[name] / items
        out[name] = (value, unit)
    return out
