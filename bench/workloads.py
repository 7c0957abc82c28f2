"""The four benchmark workloads.

Each workload builds its inputs from a seed (``generate``), runs one
pass of timed operations (``run_pass``), reduces each operation's
output to what its check needs (``summarize``, outside the timed
pass, so that large outputs are dropped before the next pass and
peak memory does not depend on how many passes fit in the run), and
checks the summaries against independent oracles after timing
(``check``).

* ``recognize``: catalog verification plus sphere checks on grown
  spheres and one negative case; canonical forms and the
  contractibility search dominate.
* ``surface_homology``: manifold check and integral homology of grown
  closed surfaces and of a contractible plane patch.
* ``diffusion_large``: the explicit scheme at n = 400 and n = 1600 with
  dense coefficients, and a stationary solve; ``bind``, the step and
  ``is_primitive`` dominate.
* ``diffusion_small``: the six bundled experiments (n <= 16) with their
  CSV and SVG output, where per-step overhead and formatting dominate.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from digital_pde import (
    catalog,
    experiments,
    invariants,
    problem_io,
    solver,
    svgplot,
    topology,
)

import inputs

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# One timed operation: (label, seconds, raw output or Failure).
Op = Tuple[str, float, object]


class Failure:
    """An operation raised; the message is kept for the failure report."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def timed(ops: List[Op], label: str, fn: Callable, *args):
    start = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # counted as a failed operation, the run goes on
        value = Failure(exc)
    ops.append((label, time.perf_counter() - start, value))
    return value


def _summarize(workload, items, label: str, value):
    if isinstance(value, Failure):
        return value
    try:
        return workload.summarize(items, label, value)
    except Exception as exc:  # a malformed output fails its check
        return Failure(exc)


def run_window(workload, items, seconds: float) -> Tuple[List[float], List[Op]]:
    """Timed passes until ``seconds`` elapse (at least one).

    Returns the wall time of each pass and every op with its summary;
    raw outputs are summarized and dropped between passes.
    """
    walls: List[float] = []
    ops: List[Op] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        raw = workload.run_pass(items)
        walls.append(time.perf_counter() - t)
        ops.extend((label, dt, _summarize(workload, items, label, value))
                   for label, dt, value in raw)
        del raw
        if time.perf_counter() - start >= seconds:
            return walls, ops


def check_ops(workload, items, ops: List[Op]) -> List[Tuple[str, str]]:
    """Failed checks as (label, message); an op fails at most once."""
    failures = []
    for label, _, summary in ops:
        if isinstance(summary, Failure):
            failures.append((label, summary.message))
            continue
        try:
            message = workload.check(items, label, summary)
        except Exception as exc:  # a malformed output fails its check
            message = f"{type(exc).__name__}: {exc}"
        if message is not None:
            failures.append((label, message))
    return failures


def fastest_pass(ops: List[Op]) -> float:
    """The sum over a pass's operations of the fastest time each took.

    Interference from other work on the host only ever adds time, and
    it comes in bursts: a 20 ms operation often runs at full speed, a
    pass of several seconds almost never does.  So each operation's
    fastest run is the steadiest estimate of its cost.
    """
    fastest: Dict[str, float] = {}
    for label, dt, _ in ops:
        fastest[label] = min(dt, fastest.get(label, dt))
    return sum(fastest.values())


def steps_per_s(ops: List[Op]) -> Optional[float]:
    """Explicit steps per second spent in solve_ivp and solve_bvp ops."""
    steps = seconds = 0.0
    for label, dt, summary in ops:
        if label.split(":")[0] in ("ivp", "bvp") and not isinstance(summary, Failure):
            steps += summary[0]
            seconds += dt
    return steps / seconds if seconds else None


class Recognize:
    name = "recognize"

    def generate(self, seed: int):
        return inputs.recognize_inputs(seed)

    def run_pass(self, items) -> List[Op]:
        ops: List[Op] = []
        # Every CLI call starts with cold caches, and each op is timed
        # on its own, so the caches are cleared before each one.
        for name in inputs.CATALOG_NAMES:
            topology.clear_caches()
            timed(ops, f"verify:{name}",
                  lambda n: catalog.verify_entry(catalog.entry(n)), name)
        for item in items:
            topology.clear_caches()
            timed(ops, f"sphere:{item.label}", topology.is_n_sphere, item.space, item.dim)
        return ops

    def summarize(self, items, label: str, value):
        if value is None:
            return None
        return (value.ok, value.witness_reason)

    def check(self, items, label: str, summary) -> Optional[str]:
        kind, _, what = label.partition(":")
        if kind == "verify":
            return None  # verify_entry raises on any mismatch
        item = next(i for i in items if i.label == what)
        ok, reason = summary
        exp = item.expected
        if ok != exp.ok:
            return f"verdict {ok}, expected {exp.ok}"
        if not ok and (reason is None or exp.witness not in reason):
            return f"witness {reason!r} lacks {exp.witness!r}"
        return None


class SurfaceHomology:
    name = "surface_homology"

    def generate(self, seed: int):
        return inputs.surface_inputs(seed)

    @staticmethod
    def _classify(item):
        report = None if item.dim is None else topology.is_n_manifold(item.space, item.dim)
        return report, invariants.homology(item.space)

    def run_pass(self, items) -> List[Op]:
        ops: List[Op] = []
        for item in items:
            topology.clear_caches()
            timed(ops, item.label, self._classify, item)
        return ops

    def summarize(self, items, label: str, value):
        report, profile = value
        return (None if report is None else report.ok, list(profile.betti),
                [list(t) for t in profile.torsion])

    def check(self, items, label: str, summary) -> Optional[str]:
        item = next(i for i in items if i.label == label)
        ok, betti, torsion = summary
        exp = item.expected
        if item.dim is not None and ok != exp.ok:
            return f"manifold verdict {ok}, expected {exp.ok}"
        if betti != exp.betti or torsion != exp.torsion:
            return f"homology {betti} {torsion}, expected {exp.betti} {exp.torsion}"
        return None


def reference_matrix(patch) -> np.ndarray:
    """The coefficient matrix built independently of the solver."""
    index = {p: i for i, p in enumerate(patch.space.points)}
    mat = np.zeros((len(index), len(index)))
    for u, v in patch.space.edges:
        mat[index[u], index[v]] = mat[index[v], index[u]] = inputs.EDGE_WEIGHT
    for p, d in patch.diag.items():
        mat[index[p], index[p]] = d
    return mat


class DiffusionLarge:
    name = "diffusion_large"

    def __init__(self):
        self._oracle: Dict[str, np.ndarray] = {}

    def generate(self, seed: int):
        self._oracle.clear()
        return inputs.diffusion_inputs(seed)

    @staticmethod
    def _problem(patch, coeffs, boundary: bool):
        clamps = patch.clamps
        return solver.Problem(
            patch.space, coeffs, patch.initial,
            boundary_points=sorted(clamps) if boundary else None,
            boundary_values=(lambda t: clamps) if boundary else None,
            steps=patch.steps, tol=0.0)

    def run_pass(self, patches) -> List[Op]:
        ops: List[Op] = []
        for patch in patches:
            coeffs = patch.coeffs
            for kind in patch.ops:
                label = f"{kind}:{patch.label}"
                if kind == "coefficients":
                    coeffs = timed(ops, label, solver.uniform_coefficients,
                                   patch.space, inputs.EDGE_WEIGHT, patch.diag)
                elif kind == "ivp":
                    timed(ops, label,
                          lambda: solver.solve_ivp(self._problem(patch, coeffs, False)))
                elif kind == "bvp":
                    timed(ops, label,
                          lambda: solver.solve_bvp(self._problem(patch, coeffs, True)))
                else:
                    timed(ops, label, solver.stationary_solution, coeffs, patch.initial)
        return ops

    def summarize(self, patches, label: str, value):
        kind, _, patch_label = label.partition(":")
        if kind == "coefficients":
            return None
        if kind == "stationary":
            return np.array(value.values)
        steps = value.terminal.t
        if kind == "ivp":
            return steps, np.array(value.terminal.values), np.array(value.sums)
        patch = next(p for p in patches if p.label == patch_label)
        rows = [patch.space.points.index(p) for p in patch.clamps]
        return steps, np.array([s.values[rows] for s in value.states])

    def check(self, patches, label: str, summary) -> Optional[str]:
        kind, _, patch_label = label.partition(":")
        patch = next(p for p in patches if p.label == patch_label)
        n = len(patch.space.points)
        total = float(patch.initial.sum())
        if kind == "coefficients":
            return None
        if kind == "stationary":
            column = summary / total
            worst = float(np.abs(column - 1.0 / n).max())
            return None if worst <= 1e-9 / n else f"stationary column off 1/n by {worst:.3g}"
        steps = summary[0]
        if steps != patch.steps:
            return f"ran {steps} steps, expected {patch.steps}"
        if kind == "ivp":
            _, terminal, sums = summary
            drift = float(np.abs(sums - total).max())
            if drift > 1e-9 * total:
                return f"mass drift {drift:.3g} exceeds 1e-9 * S"
            expected = self._ivp_oracle(patch)
            worst = float(np.abs(terminal - expected).max())
            if worst > 1e-9 * total / n:
                return f"terminal state off C^{steps} f0 by {worst:.3g}"
            return None
        values = summary[1]
        for col, (p, s) in enumerate(patch.clamps.items()):
            if not np.all(values[:, col] == s):
                return f"clamp at point {p} does not hold at every step"
        return None

    def _ivp_oracle(self, patch) -> np.ndarray:
        if patch.label not in self._oracle:
            mat, f = reference_matrix(patch), patch.initial
            for _ in range(patch.steps):
                f = mat @ f
            self._oracle[patch.label] = f
        return self._oracle[patch.label]


def plot_series(result) -> Dict[str, List[float]]:
    """The series ``digital-pde experiment`` plots: one per plot point."""
    space = result.spec.problem.space
    series = {}
    for p in result.spec.plot_points:
        i = space.points.index(p)
        series[f"point {p}"] = [s.values[i] for s in result.trajectory.states]
    return series


def render_experiment(exp_id: str):
    """What ``digital-pde experiment`` computes before writing its files."""
    result = experiments.run(exp_id)
    csv = problem_io.trajectory_csv(result.trajectory, result.spec.problem.space)
    svg = svgplot.line_chart(plot_series(result), y_label="f", x_label="t")
    return result, csv, svg


def output_digests(csv: str, svg: str) -> Dict[str, str]:
    return {"csv": hashlib.sha256(csv.encode()).hexdigest(),
            "svg": hashlib.sha256(svg.encode()).hexdigest()}


class DiffusionSmall:
    name = "diffusion_small"

    def __init__(self):
        with open(DIGESTS_PATH) as f:
            self._digests = json.load(f)
        self._seen: Dict[tuple, tuple] = {}

    def generate(self, seed: int):
        return inputs.experiment_order(seed, experiments.EXPERIMENT_IDS)

    def run_pass(self, order) -> List[Op]:
        ops: List[Op] = []
        for exp_id in order:
            timed(ops, exp_id, render_experiment, exp_id)
        return ops

    def summarize(self, items, label: str, value):
        result, csv, svg = value
        digests = output_digests(csv, svg)
        summary = (result.ok, tuple(result.failures), digests["csv"], digests["svg"])
        # Equal outputs share one summary object, so memory does not grow
        # with the number of rounds that fit in a run.
        return self._seen.setdefault(summary, summary)

    def check(self, order, label: str, summary) -> Optional[str]:
        ok, failures, csv_digest, svg_digest = summary
        if not ok:
            return f"experiment failed: {list(failures)}"
        if {"csv": csv_digest, "svg": svg_digest} != self._digests.get(label):
            return "CSV or SVG bytes differ from the recorded digests"
        return None


WORKLOADS = {w.name: w for w in (Recognize, SurfaceHomology, DiffusionLarge, DiffusionSmall)}
