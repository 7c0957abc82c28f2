"""The bundled diffusion experiments on the catalog spaces.

Each experiment fixes a space, a coefficient table, initial (and
possibly clamped) values, and where a limit is known, the expected
stationary value at every free point.

Notes on two awkward corners of the source material:

* The projective-plane IVP is run with f(1) = 11 at t = 0.  With the
  symmetric 0.1-per-edge table the total mass is conserved and the
  stationary value is the uniform S/11, so the advertised limit of 1
  at all eleven points forces S = 11.
* The directed-network table is stated entry-wise as c[p][k]; read
  destination-major it is row-stochastic, not column-stochastic, and
  would not conserve mass.  We load its transpose (flow p -> k), under
  which every column sums to one and the run conserves S = 8.  The
  network run has no published limit; it is checked for conservation
  and for settling into a fixed point of the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import catalog
from .solver import (
    CoefficientMatrix,
    Problem,
    Trajectory,
    bind_entries,
    elliptic_residual,
    solve_bvp,
    solve_ivp,
    uniform_coefficients,
)

LIMIT_TOL = 1e-6  # worst deviation of the terminal state from a known limit
RESIDUAL_TOL = 1e-8  # 1-norm of f - C f at the terminal state, when no limit is known


@dataclass
class ExperimentSpec:
    id: str
    problem: Problem
    plot_points: List[int]
    expected_limit: Optional[float]  # per free point; None when unpublished


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    trajectory: Trajectory
    ok: bool
    failures: List[str]


def _point_mass(space, point: int, value: float) -> np.ndarray:
    values = np.zeros(len(space.points))
    values[space.index[point]] = value
    return values


def _klein_ivp() -> ExperimentSpec:
    space = catalog.space("klein_bottle_16")
    coeffs = uniform_coefficients(space, 0.1, 0.4)
    problem = Problem(space, coeffs, _point_mass(space, 1, 16.0))
    return ExperimentSpec("klein_ivp", problem, [1, 3], 1.0)


def _projective_coeffs(space) -> CoefficientMatrix:
    diag = {p: 1.0 - 0.1 * space.degree(p) for p in space.points}
    return uniform_coefficients(space, 0.1, diag)


def _projective_ivp() -> ExperimentSpec:
    space = catalog.space("projective_plane_11")
    problem = Problem(space, _projective_coeffs(space), _point_mass(space, 1, 11.0))
    return ExperimentSpec("projective_ivp", problem, [1, 2, 10], 1.0)


def _projective_bvp() -> ExperimentSpec:
    space = catalog.space("projective_plane_11")
    clamps = {1: 1.0, 11: 4.0}
    initial = np.zeros(len(space.points))
    problem = Problem(
        space, _projective_coeffs(space), initial,
        boundary_points=sorted(clamps),
        boundary_values=lambda t: clamps,
    )
    return ExperimentSpec("projective_bvp", problem, [2, 9, 10], None)


def _moebius_ivp() -> ExperimentSpec:
    space = catalog.space("moebius_12")
    diag = {p: 0.6 if p <= 8 else 0.4 for p in space.points}
    problem = Problem(space, uniform_coefficients(space, 0.1, diag),
                      _point_mass(space, 1, 12.0))
    return ExperimentSpec("moebius_ivp", problem, [1, 2, 12], 1.0)


def _s4_ivp() -> ExperimentSpec:
    space = catalog.space("s4_min")
    problem = Problem(space, uniform_coefficients(space, 0.01, 0.92),
                      _point_mass(space, 1, 1.0))
    return ExperimentSpec("s4_ivp", problem, [1, 2, 6], 0.1)


# Directed flows p -> k with weight v; stored as C[k, p] = v.
_NETWORK_FLOWS = [
    (1, 2, 0.2), (1, 3, 0.2), (1, 4, 0.2), (1, 5, 0.2),
    (2, 1, 0.4), (2, 8, 0.4),
    (3, 4, 0.4), (3, 8, 0.4),
    (4, 5, 0.4), (4, 8, 0.4),
    (5, 6, 0.4), (5, 8, 0.4),
    (6, 7, 0.4), (6, 1, 0.4),
    (7, 2, 0.4), (7, 1, 0.4),
    (8, 6, 0.4), (8, 7, 0.4),
]
_NETWORK_DIAG = 0.2


def network_coefficients() -> CoefficientMatrix:
    space = catalog.space("sphere2_8")
    entries = [(dst, src, v) for src, dst, v in _NETWORK_FLOWS]
    entries += [(p, p, _NETWORK_DIAG) for p in space.points]
    return bind_entries(space, entries)


def _network_s2() -> ExperimentSpec:
    coeffs = network_coefficients()
    space = coeffs.space
    problem = Problem(space, coeffs, _point_mass(space, 1, 8.0))
    return ExperimentSpec("network_s2", problem, [1, 2, 8], None)


_BUILDERS = {
    "klein_ivp": _klein_ivp,
    "projective_ivp": _projective_ivp,
    "projective_bvp": _projective_bvp,
    "moebius_ivp": _moebius_ivp,
    "s4_ivp": _s4_ivp,
    "network_s2": _network_s2,
}

EXPERIMENT_IDS = list(_BUILDERS)


def experiment(exp_id: str) -> ExperimentSpec:
    if exp_id not in _BUILDERS:
        raise KeyError(f"unknown experiment: {exp_id}")
    return _BUILDERS[exp_id]()


def run(exp_id: str) -> ExperimentResult:
    """Run one experiment and check its stated expectations."""
    spec = experiment(exp_id)
    problem = spec.problem
    failures: List[str] = []
    if problem.has_boundary:
        trajectory = solve_bvp(problem)
        free = [p for p in problem.space.points if p not in problem.boundary_points]
        residual = elliptic_residual(
            problem.coefficients, trajectory.terminal.values, points=free)
        if residual >= RESIDUAL_TOL:
            failures.append(f"terminal free-point residual {residual:.3g}")
    else:
        trajectory = solve_ivp(problem)
        if spec.expected_limit is not None:
            terminal = trajectory.terminal.values
            worst = float(np.abs(terminal - spec.expected_limit).max())
            if worst >= LIMIT_TOL:
                failures.append(
                    f"limit mismatch: worst deviation {worst:.3g} from "
                    f"{spec.expected_limit}")
        else:
            residual = elliptic_residual(problem.coefficients,
                                         trajectory.terminal.values)
            if residual >= RESIDUAL_TOL:
                failures.append(f"terminal residual {residual:.3g}")
        total0 = trajectory.sums[0]
        drift = float(np.abs(trajectory.sums - total0).max())
        if drift >= 1e-9 * max(abs(total0), 1.0):
            failures.append(f"conserved sum drifted by {drift:.3g}")
    return ExperimentResult(spec, trajectory, not failures, failures)
