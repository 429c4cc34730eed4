"""In-memory span tracer installed around the public functions of pairslit.

The tracer wraps functions from the outside: every module binding of a
target function inside the ``pairslit`` package is swapped for a wrapper
while ``Instrumentation`` is active, and restored afterwards. Nothing in the
program changes.

A span is (id, parent id, layer, name, start, end). Self time of a span is
its duration minus the time covered by its child spans; a layer's self time
is the sum over its spans. The tracer's own bookkeeping around a span is
booked to a "trace" layer instead of the caller's self time.

Kernel calls happen hundreds of times per pair, so they are not stored one
by one: kernel spans, and everything nested in them, are aggregated per
(enclosing recorded span, name) as a call count and a total duration. The
leaf kernels of ``pairslit._kernels`` get a leaner wrapper still, which
accumulates straight into the enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# Layer -> modules whose public functions belong to it. Functions are found by
# inspection, so a renamed or added public function is traced without edits.
LAYER_MODULES = {
    "sampling": ("pairslit.sampling",),
    "kernels": ("pairslit._kernels", "pairslit.velocity"),
    "integrator": ("pairslit.integrator",),
    "ensemble": ("pairslit.ensemble",),
    "fourslit": ("pairslit.fourslit",),
    "cli": ("pairslit.cli",),
}
# Kernels that call nothing traced; they get the lean wrapper.
LEAF_KERNEL_MODULE = "pairslit._kernels"
# Functions of the ensemble module that score endpoints rather than move them.
SCORING_FUNCTIONS = ("binned_tv_distance", "density_distance")
# Private CLI functions traced as the output layer (CSV and summary writes).
CLI_WRITE_MARKER = "write"
# A call into the sampling layer made from scoring is the fresh baseline draw.
BASELINE_DRAW = "scoring.baseline_draw"
# Layers whose outermost calls report how many items they produced.
_COUNTED_RESULTS = {"sampling": "draws", "integrator": "integrated"}


class _Frame:
    __slots__ = ("id", "parent", "layer", "name", "enter", "start", "child", "aggregate", "leaf")

    def __init__(self, id_, parent, layer, name, aggregate, enter):
        self.id = id_  # for aggregated frames: the nearest recorded ancestor
        self.parent = parent
        self.layer = layer
        self.name = name
        self.aggregate = aggregate
        self.enter = enter
        self.child = 0.0
        self.start = 0.0
        self.leaf = {}  # leaf kernel name -> [calls, time, evals, time incl. wrapper]


class PassStats:
    """Per-pass accumulators: self and outermost-inclusive time per layer."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.name_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.eval_s = 0.0  # time inside outermost velocity-kernel calls


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.aggregated: dict[tuple[int, str], list] = {}
        self.stats = PassStats()
        self._stack: list[_Frame] = []
        self._next_id = 1

    def begin_pass(self) -> None:
        self.stats = PassStats()

    def push(self, layer: str, name: str) -> _Frame:
        enter = perf_counter()
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and layer == "sampling" and parent.layer == "scoring":
            layer = BASELINE_DRAW
        aggregate = layer == "kernels" or (parent is not None and parent.aggregate)
        if aggregate:
            frame_id = parent.id if parent is not None else 0
        else:
            frame_id = self._next_id
            self._next_id += 1
        frame = _Frame(frame_id, parent, layer, name, aggregate, enter)
        stack.append(frame)
        frame.start = perf_counter()
        return frame

    def pop(self, frame: _Frame) -> float:
        """Close a span and return its duration."""
        end = perf_counter()
        self._stack.pop()
        duration = end - frame.start
        stats = self.stats
        if frame.leaf:
            self._flush_leaf(frame)
        stats.self_s[frame.layer] += duration - frame.child
        stats.name_s[frame.name] += duration
        parent = frame.parent
        if parent is None or parent.layer != frame.layer:
            stats.incl_s[frame.layer] += duration
        if frame.aggregate:
            self._aggregate(frame.id, frame.name, 1, duration)
        else:
            parent_id = parent.id if parent is not None else 0
            self.spans.append((frame.id, parent_id, frame.layer, frame.name, frame.start, end))
        spent = perf_counter() - frame.enter
        stats.self_s["trace"] += spent - duration
        if parent is not None:
            parent.child += spent
        return duration

    def _flush_leaf(self, frame: _Frame) -> None:
        stats = self.stats
        for name, (calls, duration, evals, spent) in frame.leaf.items():
            stats.self_s["kernels"] += duration
            stats.incl_s["kernels"] += duration
            stats.name_s[name] += duration
            if evals:
                stats.counts["evals"] += evals
                stats.eval_s += duration
            stats.self_s["trace"] += spent - duration
            frame.child += spent
            self._aggregate(frame.id, name, calls, duration)

    def _aggregate(self, parent_id: int, name: str, calls: int, duration: float) -> None:
        entry = self.aggregated.get((parent_id, name))
        if entry is None:
            self.aggregated[parent_id, name] = [calls, duration]
        else:
            entry[0] += calls
            entry[1] += duration

    def span(self, layer: str, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, layer, name)

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "parent", "layer", "name", "start_s", "end_s"],
            "spans": self.spans,
            "aggregated_fields": ["parent", "name", "calls", "total_s"],
            "aggregated": [[pid, name, c, t] for (pid, name), (c, t) in self.aggregated.items()],
        }


class _SpanContext:
    def __init__(self, tracer, layer, name):
        self._tracer, self._layer, self._name = tracer, layer, name

    def __enter__(self):
        self._frame = self._tracer.push(self._layer, self._name)

    def __exit__(self, *exc):
        self._tracer.pop(self._frame)
        return False


def _result_size(value) -> int:
    """Items produced by one call: a sequence's length, otherwise one."""
    if isinstance(value, (list, tuple)):
        return len(value)
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape else 1


def _eval_count(args) -> int:
    """Pair evaluations in one velocity call: the size of its first argument."""
    if not args or type(args[0]) is float:
        return 1
    return int(getattr(args[0], "size", 1))


def _wrap(tracer: Tracer, layer: str, fn):
    name = fn.__name__
    counted = _COUNTED_RESULTS.get(layer)
    counts_evals = layer == "kernels" and "velocity" in name

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.push(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.pop(frame)
        parent = frame.parent
        if parent is None or parent.layer != frame.layer:
            if counts_evals:
                tracer.stats.counts["evals"] += _eval_count(args)
                tracer.stats.eval_s += duration
            elif counted and frame.layer == layer:
                tracer.stats.counts[counted] += _result_size(result)
        return result

    return traced


def _wrap_leaf_kernel(tracer: Tracer, fn):
    """Lean wrapper for kernels that call nothing traced.

    Inside another kernel call it runs unwrapped, being part of that call.
    Only velocity kernels count as evaluations.
    """
    name = fn.__name__
    counts_evals = "velocity" in name
    stack = tracer._stack

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter = perf_counter()
        if not stack or stack[-1].layer == "kernels":
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            leaf = stack[-1].leaf
            entry = leaf.get(name)
            if entry is None:
                entry = leaf[name] = [0, 0.0, 0, 0.0]
            entry[0] += 1
            entry[1] += end - start
            if counts_evals:
                entry[2] += _eval_count(args)
            entry[3] += perf_counter() - enter

    return traced


def _layer_targets() -> list[tuple[str, object]]:
    targets = []
    for layer, module_names in LAYER_MODULES.items():
        for module_name in module_names:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module_name:
                    continue
                if layer == "cli" and CLI_WRITE_MARKER in attr:
                    targets.append(("cli.write", obj))
                elif attr.startswith("_"):
                    continue
                elif layer == "ensemble" and attr in SCORING_FUNCTIONS:
                    targets.append(("scoring", obj))
                else:
                    targets.append((layer, obj))
    return targets


class Instrumentation:
    """Swap every pairslit binding of the layer functions for a traced wrapper."""

    def __init__(self, tracer: Tracer):
        wrappers = {}
        for layer, fn in _layer_targets():
            if fn.__module__ == LEAF_KERNEL_MODULE:
                wrappers[id(fn)] = (fn, _wrap_leaf_kernel(tracer, fn))
            else:
                wrappers[id(fn)] = (fn, _wrap(tracer, layer, fn))
        self._patches: list[tuple[object, str, object, object]] = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "pairslit" or mod_name.startswith("pairslit.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj, hit[1]))

    def __enter__(self):
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        return False
