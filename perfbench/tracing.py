"""Outside-in tracing of ngnopt's public functions.

The package imports its layer functions by name (`harness` and `verify`
hold their own references to `evaluate`, `sample_batch`, `apply_step`,
`run_once`, ...), so patching only the defining module would miss most
calls. `Patch` therefore replaces a function under every ngnopt module
attribute bound to it, and restores them all on `undo`.

A `Tracer` records one span per wrapped call: name, start, end and the
index of the enclosing span. Spans live in flat arrays while the traced
region runs and are analysed, or saved, after it ends. Pool workers
started by fork inherit the wrappers; their spans travel back to the
parent inside each sweep row and are re-attached under the `run_sweep`
span that started the pool.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Least-squares objectives gather rows of A and b on every evaluation.
LSQ_KINDS = ("least_squares", "ridge_quadratic", "linear_regression_data")

# (module, function) pairs timed by the tracer; the span is named
# "<module>.<function>" without the package prefix.
TARGETS = (
    ("problems", "evaluate"),
    ("problems", "sample_batch"),
    ("problems", "build_problem"),
    ("optimizers", "apply_step"),
    ("optimizers", "ngn_gamma"),
    ("harness", "run_once"),
    ("harness", "run_sweep"),
    ("harness", "emit_csv"),
    ("harness", "parse_config"),
    ("verify", "audit_theorem_bound"),
    ("verify", "run_default_audits"),
    ("theory", "ngn_m_params"),
    ("theory", "ngn_m_bound"),
    ("theory", "ngn_m_bound_decaying"),
    ("theory", "decaying_weights"),
)

THEORY_SPANS = tuple(f"theory.{fn}" for mod, fn in TARGETS if mod == "theory")

CELL_SPAN = "harness.cell"  # one cell run inside a pool worker
_ROW_KEY = "_perfbench_spans"  # sweep-row key carrying a worker's spans


def _holders(fn) -> list:
    """Every (module, attribute) in the ngnopt package bound to fn."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "ngnopt" or name.startswith("ngnopt.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                found.append((module, attr))
    return found


class Patch:
    """Swaps functions under all their ngnopt names; undo restores them."""

    def __init__(self):
        self._saved = []

    def replace(self, fn, wrapper) -> None:
        for module, attr in _holders(fn):
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def undo(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def count_steps(run):
    """Run `run()` with a call counter on optimizers.apply_step.

    Returns (result, optimizer steps taken). Used only on untimed passes.
    """
    from ngnopt import optimizers

    calls = [0]
    original = optimizers.apply_step

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    patch = Patch()
    patch.replace(original, counted)
    try:
        result = run()
    finally:
        patch.undo()
    return result, calls[0]


class Tracer:
    """Span recorder for the functions in TARGETS."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._reset_arrays()
        self._patch = Patch()

    def _reset_arrays(self) -> None:
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list = []
        self.evaluate_bytes = 0

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def _wrap_apply_step(self, fn):
        tracer = self
        ids: dict = {}

        @functools.wraps(fn)
        def traced(state, sample, spec):
            name_id = ids.get(spec.kind)
            if name_id is None:
                name_id = ids[spec.kind] = tracer._id(f"optimizers.apply_step.{spec.kind}")
            idx = tracer._open(name_id)
            try:
                return fn(state, sample, spec)
            finally:
                tracer._close(idx)

        return traced

    def _wrap_evaluate(self, fn):
        """Also accumulates the bytes the oracle touches, computed from
        array sizes: for least squares, the two row gathers of A and b
        (copies written) plus the two matvec reads of the gathered block
        and of x and r; for the 1-d and Rosenbrock oracles, x itself."""
        name_id = self._id("problems.evaluate")
        tracer = self

        @functools.wraps(fn)
        def traced(problem, x, batch):
            d = problem.dim
            if problem.kind in LSQ_KINDS:
                m = batch.indices.size
                tracer.evaluate_bytes += 8 * (2 * (m * d + m) + 2 * m * d + d + m)
            else:
                tracer.evaluate_bytes += 8 * d
            idx = tracer._open(name_id)
            try:
                return fn(problem, x, batch)
            finally:
                tracer._close(idx)

        return traced

    def _wrap_run_sweep(self, fn):
        """Re-attaches the spans pool workers send back in their rows."""
        traced_call = self._id("harness.run_sweep")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(traced_call)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            for row in result.rows:
                shipped = row.pop(_ROW_KEY, None)
                if shipped is not None:
                    tracer._adopt(shipped, idx)
            return result

        return traced

    def _wrap_cell_worker(self, fn):
        """Runs in a forked pool worker: records the cell's spans from a
        clean buffer and ships them back in the row it returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(args):
            tracer._reset_arrays()
            idx = tracer._open(tracer._id(CELL_SPAN))
            try:
                row = fn(args)
            finally:
                tracer._close(idx)
            row[_ROW_KEY] = tracer._export()
            tracer._reset_arrays()
            return row

        return traced

    def _export(self) -> tuple:
        return (list(self.names), self.name_id, self.start, self.end, self.parent,
                self.evaluate_bytes)

    def _adopt(self, shipped: tuple, parent_idx: int) -> None:
        names, name_id, start, end, parent, evaluate_bytes = shipped
        remap = [self._id(n) for n in names]
        base = len(self.start)
        self.name_id.extend(remap[i] for i in name_id)
        self.start.extend(start)
        self.end.extend(end)
        self.parent.extend(parent_idx if p < 0 else base + p for p in parent)
        self.evaluate_bytes += evaluate_bytes

    def install(self) -> None:
        import importlib

        from ngnopt import harness

        for mod, fn_name in TARGETS:
            module = importlib.import_module(f"ngnopt.{mod}")
            original = getattr(module, fn_name)
            if fn_name == "apply_step":
                wrapper = self._wrap_apply_step(original)
            elif fn_name == "evaluate":
                wrapper = self._wrap_evaluate(original)
            elif fn_name == "run_sweep":
                wrapper = self._wrap_run_sweep(original)
            else:
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
            self._patch.replace(original, wrapper)
        self._patch.replace(harness._cell_worker, self._wrap_cell_worker(harness._cell_worker))

    def uninstall(self) -> None:
        self._patch.undo()

    def spans(self) -> dict:
        """The recorded spans as numpy arrays plus the name table."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, **self.spans())

    def summary(self) -> dict:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the part of it that its
        children cover; children of a pool sweep overlap, so the covered
        part is the union of their intervals, not the sum.
        """
        s = self.spans()
        dur = s["end"] - s["start"]
        covered = _covered_by_children(s["start"], s["end"], s["parent"])
        self_time = dur - covered
        n = len(self.names)
        calls = np.bincount(s["name_id"], minlength=n)
        busy = np.bincount(s["name_id"], weights=dur, minlength=n)
        own = np.bincount(s["name_id"], weights=self_time, minlength=n)
        return {name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}


def _covered_by_children(start, end, parent) -> np.ndarray:
    """For each span, the length of the union of its children's intervals."""
    covered = np.zeros(start.size)
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return covered
    order = kids[np.lexsort((start[kids], parent[kids]))]
    p = parent[order]
    t0 = float(start.min())
    s = start[order] - t0
    e = end[order] - t0
    # Shift each parent's group past the previous one so that a single
    # running maximum of end times never carries across groups.
    group = np.concatenate(([0], np.cumsum(p[1:] != p[:-1])))
    shift = group * (float(e.max()) + 1.0)
    s = s + shift
    e = e + shift
    reach = np.maximum.accumulate(e)
    prev = np.concatenate(([-np.inf], reach[:-1]))
    gained = np.clip(e - np.maximum(s, prev), 0.0, None)
    covered += np.bincount(p, weights=gained, minlength=start.size)
    return covered
