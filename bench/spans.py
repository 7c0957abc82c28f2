"""Outside-in tracing of ``digital_pde`` layer functions.

The tracer rebinds each listed function, in every ``digital_pde``
module that holds it, to a wrapper that records one span per call:
name, start, end and the enclosing span.  ``catalog`` and
``experiments`` import names from ``topology``, ``invariants`` and
``solver``, so rebinding only the defining module would miss their
calls.  Nothing under ``src/`` changes.

Spans stay in flat in-memory arrays while the traced passes run and
are written out once at the end.  A span's self time is its duration
minus the durations of its direct children; a function's total time
counts only its outermost spans, so recursion (``is_contractible``) is
not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

from digital_pde import (
    canonical,
    catalog,
    experiments,
    graph_core,
    invariants,
    problem_io,
    solver,
    svgplot,
    topology,
)

# (layer module, attribute) for every wrapped function.  A dotted
# attribute is a method, wrapped on its class.
LAYER_FUNCTIONS: List[Tuple[object, str]] = [
    (graph_core, "DigitalSpace.induced"),
    (graph_core, "DigitalSpace.delete_point"),
    (canonical, "canonical_form"),
    (topology, "is_contractible"),
    (topology, "is_n_sphere"),
    (topology, "is_n_manifold"),
    (invariants, "clique_complex"),
    (invariants, "boundary_matrix"),
    (invariants, "smith_normal_form"),
    (invariants, "homology"),
    (catalog, "entry"),
    (catalog, "verify_entry"),
    (solver, "bind"),
    (solver, "uniform_coefficients"),
    (solver, "step"),
    (solver, "solve_ivp"),
    (solver, "solve_bvp"),
    (solver, "is_diffusion"),
    (solver, "is_irreducible"),
    (solver, "is_primitive"),
    (solver, "limit_matrix"),
    (solver, "stationary_solution"),
    (solver, "elliptic_residual"),
    (experiments, "experiment"),
    (experiments, "run"),
    (problem_io, "trajectory_csv"),
    (svgplot, "line_chart"),
]

LAYER_MODULES = ["graph_core", "canonical", "topology", "invariants", "catalog",
                 "solver", "experiments", "problem_io", "svgplot"]


def span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


def _matrix_cells(args, kwargs) -> int:
    matrix = args[0] if args else kwargs["matrix"]
    return len(matrix) * len(matrix[0]) if len(matrix) else 0


def _text_bytes(result) -> int:
    return len(result.encode())


# Work counted at a span boundary besides calls: name -> (counter, measure).
ARG_COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "invariants.smith_normal_form": ("cells", _matrix_cells),
}
RESULT_COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "problem_io.trajectory_csv": ("bytes", _text_bytes),
    "svgplot.line_chart": ("bytes", _text_bytes),
}


class Tracer:
    """Records spans of the listed layer functions while installed."""

    def __init__(self):
        self.names: List[str] = [span_name(m, a) for m, a in LAYER_FUNCTIONS]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: Dict[str, int] = {}
        self._stack = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn: Callable) -> Callable:
        names, starts, ends, parents, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter
        counters = self.counters
        name = self.names[nid]
        on_args = ARG_COUNTERS.get(name)
        on_result = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_args is not None:
                key = f"{name}.{on_args[0]}"
                counters[key] = counters.get(key, 0) + on_args[1](args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                key = f"{name}.{on_result[0]}"
                counters[key] = counters.get(key, 0) + on_result[1](result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function wherever a ``digital_pde`` module holds it."""
        holders = [m for key, m in sorted(sys.modules.items())
                   if key == "digital_pde" or key.startswith("digital_pde.")]
        for nid, (module, attr) in enumerate(LAYER_FUNCTIONS):
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, original, self._wrap(nid, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(nid, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, key, original, wrapper)

    def _rebind(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def arrays(self):
        return (np.array(self.name_id, dtype=np.int32), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=np.int32))

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per function: calls, self seconds and outermost-inclusive seconds."""
        nid, start, end, parent = self.arrays()
        k = len(self.names)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        calls = np.bincount(nid, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            mine = nid == i
            s, e = start[mine], end[mine]
            if len(s):
                # Spans of one name are in start order; one that starts
                # before an earlier one ends is nested inside it.
                reach = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
                total = float((e - s)[s >= reach].sum())
            else:
                total = 0.0
            out[name] = {"calls": int(calls[i]), "self_s": float(self_s[i]),
                         "total_s": total}
        return out

    def save(self, path: str) -> None:
        nid, start, end, parent = self.arrays()
        np.savez(path, name_id=nid, start=start, end=end, parent=parent,
                 names=np.array(self.names))


def layer_metrics(tracer: Tracer, passes: int, traced_wall: List[float],
                  untraced_wall: List[float]) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """Per-layer metrics (per pass) and the absolute per-function totals.

    Self and total times are given as a share of the traced wall time,
    so that a function never called on a workload reads 0 % rather than
    a time; the absolute seconds go into the returned detail.
    """
    totals = tracer.totals()
    wall = float(sum(traced_wall))
    metrics: Dict[str, dict] = {}
    module_self: Dict[str, float] = {m: 0.0 for m in LAYER_MODULES}
    for name, t in totals.items():
        metrics[f"{name}.calls"] = {"value": t["calls"] / passes, "unit": "count"}
        metrics[f"{name}.self_pct"] = {"value": 100.0 * t["self_s"] / wall, "unit": "%"}
        metrics[f"{name}.total_pct"] = {"value": 100.0 * t["total_s"] / wall, "unit": "%"}
        module_self[name.split(".")[0]] += t["self_s"]
    for module, s in module_self.items():
        metrics[f"{module}.self_pct"] = {"value": 100.0 * s / wall, "unit": "%"}
    for name, (counter, _) in {**ARG_COUNTERS, **RESULT_COUNTERS}.items():
        key = f"{name}.{counter}"
        metrics[key] = {"value": tracer.counters.get(key, 0) / passes, "unit": "count"}
    attributed = sum(t["self_s"] for t in totals.values())
    metrics["trace.wall_s"] = {"value": float(np.median(traced_wall)), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": float(np.median(traced_wall) - np.median(untraced_wall)), "unit": "s"}
    metrics["trace.unattributed_s"] = {"value": (wall - attributed) / passes, "unit": "s"}
    return metrics, totals
