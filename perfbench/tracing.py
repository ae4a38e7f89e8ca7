"""Spans, counters and a transparent divergence proxy for the traced run.

Everything here measures the package from outside.  Divergence objects are
wrapped in ``TracedDivergence`` before they are handed to public functions,
and while a traced pass runs, ``patched`` swaps the public functions of the
``extraction``, ``roundtrip`` and ``gap`` modules for timing wrappers
wherever a module of the package binds them.  Nothing under ``src/`` is
edited, and every wrapper returns exactly what the wrapped call returned.

Spans live in flat arrays (name id, start, end, parent, op id, time covered
by children) and are written out once, after measuring.  A span's self time
is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# public functions timed per module; extract_* also delimit one tensor
PATCHED = {
    "extraction": ("extract_metric", "extract_cubic", "asymmetry_probe", "convergence_report"),
    "roundtrip": ("triangle_simulate", "demon_work", "spread_estimate", "work_surcharge"),
    "gap": ("mc_single_copy_fidelity", "gap_table", "gap_report"),
}
TENSOR_FUNCTIONS = ("extract_metric", "extract_cubic")
ENGINE_LAYERS = ("roundtrip", "gap")
PROXIED_METHODS = ("divergence", "contains", "fisher", "forward_cubic")


class Tracer:
    """In-memory span store plus the counters the layer metrics need.

    It is also the context a traced pass hands to each operation: ``wrap``
    puts a divergence behind the proxy and ``count`` records work done.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.child = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        # name id of the outermost roundtrip/gap span that is open, or -1
        self._engine = -1
        # (engine name id, span name id) -> spans opened inside that engine
        self.within: dict[tuple[int, int], int] = defaultdict(int)
        # evaluations of the tensor extraction that is open, and its points
        self._tensor_points: set | None = None
        self._tensor_evals = 0
        self.tensors = 0
        self.tensor_evals = 0
        self.tensor_unique = 0
        self.counters: dict[str, float] = defaultdict(float)
        # calls timed without a span record: name id -> [calls, seconds]
        self.leaves: dict[int, list] = defaultdict(lambda: [0, 0.0])

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        if self._engine >= 0:
            self.within[(self._engine, nid)] += 1
        self.start.append(perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        t = perf_counter()
        self.end[sid] = t
        self._stack.pop()
        parent = self.parent[sid]
        if parent >= 0:
            self.child[parent] += t - self.start[sid]

    def note_eval(self, p, q) -> None:
        if self._tensor_points is not None:
            self._tensor_evals += 1
            self._tensor_points.add(
                np.asarray(p, dtype=float).tobytes() + b"|" + np.asarray(q, dtype=float).tobytes()
            )

    def count(self, key: str, value: float) -> None:
        self.counters[key] += value

    def wrap_function(self, fn, layer: str):
        nid = self.name_id(f"{layer}.{fn.__name__}")
        is_tensor = fn.__name__ in TENSOR_FUNCTIONS
        is_engine = layer in ENGINE_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_tensor = is_tensor and self._tensor_points is None
            if outer_tensor:
                self._tensor_points, self._tensor_evals = set(), 0
            outer_engine = is_engine and self._engine < 0
            sid = self.begin(nid)
            if outer_engine:
                self._engine = nid
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(sid)
                if outer_engine:
                    self._engine = -1
                if outer_tensor:
                    self.tensors += 1
                    self.tensor_evals += self._tensor_evals
                    self.tensor_unique += len(self._tensor_points)
                    self._tensor_points = None

        return wrapper

    def wrap(self, div) -> "TracedDivergence":
        return TracedDivergence(div, self)

    def aggregate(self) -> dict[str, dict]:
        """Per span name: call count, total and self seconds, durations."""
        stats = {
            self.names[nid]: {"calls": calls, "total_s": seconds, "self_s": seconds, "durations": None}
            for nid, (calls, seconds) in self.leaves.items()
        }
        if not self.name:
            return stats
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = dur - np.frombuffer(self.child)
        n = len(self.names)
        count = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        self_total = np.bincount(name, weights=own, minlength=n)
        stats.update(
            {
                self.names[i]: {
                    "calls": int(count[i]),
                    "total_s": float(total[i]),
                    "self_s": float(self_total[i]),
                    "durations": dur[name == i],
                }
                for i in range(n)
                if count[i]
            }
        )
        return stats

    def write(self, path) -> None:
        """Write every span as columns of one compressed ``.npz`` file,
        with the calls kept only as totals alongside."""
        leaf_ids = np.array(sorted(self.leaves), dtype=np.int32)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            leaf_name=leaf_ids,
            leaf_calls=np.array([self.leaves[i][0] for i in leaf_ids], dtype=np.int64),
            leaf_seconds=np.array([self.leaves[i][1] for i in leaf_ids]),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            child=np.frombuffer(self.child),
        )


class TracedDivergence:
    """Stand-in for a divergence object that times and counts its calls.

    ``divergence``, ``fisher`` and ``forward_cubic`` calls become spans;
    ``contains`` calls are timed and counted as totals only.

    Attributes other than the timed methods are forwarded unchanged, and a
    timed method exists on the proxy only when the wrapped object has it,
    so ``hasattr(proxy, "fisher")`` answers as the original would.
    """

    def __init__(self, div, tracer: Tracer):
        self._div = div
        layer = type(div).__module__.rsplit(".", 1)[-1]
        for method in PROXIED_METHODS:
            if hasattr(div, method):
                nid = tracer.name_id(f"{layer}.{method}:{div.family_id}")
                setattr(self, method, _timed(getattr(div, method), nid, tracer, method))

    def __getattr__(self, name):
        return getattr(self._div, name)

    def __repr__(self):
        return f"<traced {self._div!r}>"


def _timed(method, nid: int, tracer: Tracer, kind: str):
    if kind == "contains":
        # the spread loop makes two domain checks per row, so these calls
        # are kept as totals, and their time is charged to the open span
        totals, stack, child = tracer.leaves[nid], tracer._stack, tracer.child

        def call(x):
            t0 = perf_counter()
            inside = method(x)
            seconds = perf_counter() - t0
            totals[0] += 1
            totals[1] += seconds
            if stack:
                child[stack[-1]] += seconds
            return inside

    elif kind == "divergence":

        def call(p, q):
            tracer.note_eval(p, q)
            sid = tracer.begin(nid)
            try:
                return method(p, q)
            finally:
                tracer.finish(sid)

    else:

        def call(*args, **kwargs):
            sid = tracer.begin(nid)
            try:
                return method(*args, **kwargs)
            finally:
                tracer.finish(sid)

    return call


@contextmanager
def patched(tracer: Tracer):
    """Swap the timed public functions in every loaded ``infogeo`` module."""
    modules = [m for n, m in list(sys.modules.items()) if n == "infogeo" or n.startswith("infogeo.")]
    swapped = []
    for layer, names in PATCHED.items():
        home = sys.modules[f"infogeo.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapper = tracer.wrap_function(original, layer)
            for module in modules:
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapper)
                    swapped.append((module, fname, original))
    try:
        yield
    finally:
        for module, fname, original in reversed(swapped):
            setattr(module, fname, original)
