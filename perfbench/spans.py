"""Span recorder for the traced benchmark run.

Spans come from wrappers that the benchmark installs from outside the
package: on every public function of every ``nmk`` module (rebound under
each name any ``nmk`` module imports it as), on ``DensityState``
construction, and on the ``numpy.linalg`` kernels ``nmk`` calls.  Private
helpers get no span; their cost is self time of the enclosing public call.

Spans are kept in flat arrays while the run lasts and written out once at
the end.  A span's self time is its duration minus the durations of its
direct children, minus the wrapper cost of those children; wrappers nest
strictly on one thread, so the children of one span never overlap.

A wrapper's bookkeeping (appending to the arrays, reading sizes, the stack)
runs outside the clock window of its own span, so it lands in the parent's
window.  ``calibrate`` measures that cost per span on a wrapped no-op, and
``arrays`` takes it off each parent's self time as ``wrapper`` time of its
own.  What stays in a span's window (a clock read and one extra call
level, well under a microsecond) remains in its self time.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array
from types import SimpleNamespace

import numpy as np

LINALG_KERNELS = ("eigvalsh", "eigh", "cholesky")
# Calls whose return values the layer metrics are derived from.
CAPTURED = (
    "nmf.estimate",
    "csquashed.estimate_esqc",
    "fuzz.fuzz_ssa",
    "fuzz.fuzz_monotonicity",
    "fuzz.fuzz_markov_closure",
    "fuzz.fuzz_witness",
)


def _matrix_size(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    return int(shape[-1]) if shape else 0


def _batch(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _state_dim(args, kwargs):
    lay = args[1] if len(args) > 1 else kwargs.get("layout")
    return int(lay.dim)


def _noop(*args, **kwargs):
    return None


# Wrapper kinds, by the size functions they call, with arguments to
# calibrate each on.
KINDS = {
    "plain": (None, None, ()),
    "state": (_state_dim, None, (None, SimpleNamespace(dim=8))),
    "linalg": (_matrix_size, _batch, (np.eye(4),)),
}


class Recorder:
    """Collects spans: name, start, end, parent span and job id.

    ``size`` holds the matrix order for linalg spans and the dimension for
    ``DensityState`` spans; ``batch`` the number of stacked matrices.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.size = array("q")
        self.batch = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.job_id = 0
        self.captured: list[tuple[str, tuple, dict, object]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.kinds: list[str] = []  # wrapper kind per name id
        self.span_cost = {kind: 0.0 for kind in KINDS}  # seconds, from calibrate()

    def wrap(self, name: str, fn, size_of=None, batch_of=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
            kind = next(k for k, (s, b, _) in KINDS.items() if (s, b) == (size_of, batch_of))
            self.kinds.append(kind)
        names, parents, jobs = self.name, self.parent, self.job
        sizes, batches, starts, ends = self.size, self.batch, self.start, self.end
        stack, clock, rec = self._stack, time.perf_counter, self
        capture = name in CAPTURED

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(rec.job_id)
            sizes.append(size_of(args, kwargs) if size_of else 0)
            batches.append(batch_of(args, kwargs) if batch_of else 1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if capture:
                rec.captured.append((name, args, kwargs, result))
            return result

        return span

    def calibrate(self, calls: int = 4000, repeats: int = 7) -> None:
        """Measure each wrapper kind's cost per span outside its own window.

        A parent span loops over a wrapped no-op; its self time, less that
        of the same loop over the bare no-op, is the wrappers' cost.  The
        median over ``repeats`` is kept.  Uses a recorder of its own, so
        nothing lands in this one.
        """
        for kind, (size_of, batch_of, args) in KINDS.items():
            costs = []
            for _ in range(repeats):
                cal = Recorder()
                wrapped = cal.wrap("noop", _noop, size_of, batch_of)

                def loop(fn=wrapped):
                    for _ in range(calls):
                        fn(*args)

                def bare():
                    for _ in range(calls):
                        _noop(*args)

                cal.span("loop", loop)
                cal.span("bare", bare)
                table = SpanTable(cal)
                costs.append((table.self_s("loop") - table.self_s("bare")) / calls)
            self.span_cost[kind] = max(statistics.median(costs), 0.0)

    def _patch(self, obj, attr, new):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        """Wrap every public ``nmk`` function, ``DensityState`` construction
        and the numpy linalg kernels."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "nmk" or name.startswith("nmk."))
        }
        wrappers = {}
        for modname, mod in modules.items():
            if modname == "nmk":
                continue
            layer = modname.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == modname
                    and not attr.startswith("_")
                ):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patch(mod, attr, wrappers[id(value)])
        states = modules["nmk.states"]
        self._patch(
            states.DensityState,
            "__init__",
            self.wrap("states.DensityState", states.DensityState.__init__, _state_dim),
        )
        for kernel in LINALG_KERNELS:
            self._patch(
                np.linalg,
                kernel,
                self.wrap(f"linalg.{kernel}", getattr(np.linalg, kernel), _matrix_size, _batch),
            )

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    def span(self, name: str, fn):
        """Run ``fn`` under a span of its own (used for the per-job root)."""
        return self.wrap(name, fn)()

    def arrays(self) -> dict:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        cost_of_name = np.array([self.span_cost[k] for k in self.kinds] or [0.0])
        wrapper = cost_of_name[name]
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent] + wrapper[has_parent])
        return {
            "name": name,
            "parent": parent,
            "job": np.frombuffer(self.job, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int64),
            "batch": np.frombuffer(self.batch, dtype=np.int64),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
            "wrapper": wrapper,
        }

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            **{k: cols[k] for k in ("name", "parent", "job", "size", "batch", "start", "end")},
        )


class SpanTable:
    """Per-name aggregates over a recorder's spans."""

    def __init__(self, rec: Recorder):
        self.cols = rec.arrays()
        self.ids = {name: i for i, name in enumerate(rec.names)}

    def mask(self, name: str) -> np.ndarray:
        nid = self.ids.get(name, -1)
        return self.cols["name"] == nid

    def calls(self, name: str, where=None) -> int:
        m = self.mask(name) if where is None else self.mask(name) & where
        return int(np.count_nonzero(m))

    def self_s(self, name: str, where=None) -> float:
        m = self.mask(name) if where is None else self.mask(name) & where
        return float(self.cols["self"][m].sum())

    def total_s(self, name: str) -> float:
        return float(self.cols["dur"][self.mask(name)].sum())

    def all_self_s(self, exclude: str) -> float:
        """Self time of every span not named ``exclude``."""
        return float(self.cols["self"][~self.mask(exclude)].sum())

    def wrapper_s(self) -> float:
        return float(self.cols["wrapper"].sum())
