"""Explicit parabolic scheme on a digital space, and its diffusion
specialization.

The update is f[p] at t+1 = sum over the ball of p of c[p,k] * f[k]
plus a source term.  Coefficients live on balls only: c[p,k] may be
nonzero only when p == k or (p,k) is an edge of the bound space.

Convention (load-bearing for the directed-network case): C is stored
destination-major, C[p,k] weighting the flow from source k into
destination p.  A diffusion matrix is nonnegative with every COLUMN
summing to one, which is exactly what conserves the total mass
S = sum(f).  The symmetric examples hide the row/column distinction;
the directed network does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from .graph_core import DigitalSpace

DIFFUSION_TOL = 1e-12
DEFAULT_TRAJECTORY_TOL = 1e-10
DEFAULT_MAX_STEPS = 10 ** 6
DEFAULT_BLOWUP_FACTOR = 1e6

MatrixRule = Callable[[int], np.ndarray]


class SupportError(ValueError):
    """Coefficient support escapes the ball structure of the space."""


class DivergenceError(RuntimeError):
    """Trajectory norm exceeded the blow-up guard."""


@dataclass
class CoefficientMatrix:
    """Coefficients bound to a space, constant or time-dependent.

    ``matrix`` is the t=0 matrix; ``rule`` (if given) produces C(t)
    for any step and must respect the same support.
    """

    space: DigitalSpace
    matrix: np.ndarray
    rule: Optional[MatrixRule] = None
    index: Dict[int, int] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.space.points)

    @property
    def time_dependent(self) -> bool:
        return self.rule is not None

    def at(self, t: int) -> np.ndarray:
        return self.matrix if self.rule is None else self.rule(t)


def bind(space: DigitalSpace, matrix: np.ndarray,
         rule: Optional[MatrixRule] = None) -> CoefficientMatrix:
    """Validate coefficient support against the space and bind them.

    Rows/columns follow the point order of ``space``.  Directed
    support is fine (C[p,k] != C[k,p]); support outside the ball
    structure is rejected naming the offending pair.
    """
    n = len(space.points)
    mat = np.asarray(matrix, dtype=float)
    if mat.shape != (n, n):
        raise ValueError(f"matrix shape {mat.shape} does not match {n} points")
    index = {p: i for i, p in enumerate(space.points)}
    for i, p in enumerate(space.points):
        for j, k in enumerate(space.points):
            if i != j and mat[i, j] != 0.0 and not space.has_edge(p, k):
                raise SupportError(
                    f"coefficient ({p},{k}) is nonzero but the points are not adjacent")
    return CoefficientMatrix(space=space, matrix=mat, rule=rule, index=index)


def uniform_coefficients(space: DigitalSpace, offdiag: float,
                         diag: Union[float, Dict[int, float]]) -> CoefficientMatrix:
    """Same weight on every edge, per-point (or constant) diagonal."""
    n = len(space.points)
    index = {p: i for i, p in enumerate(space.points)}
    mat = np.zeros((n, n))
    for u, v in space.edges:
        mat[index[u], index[v]] = offdiag
        mat[index[v], index[u]] = offdiag
    for p in space.points:
        d = diag[p] if isinstance(diag, dict) else diag
        mat[index[p], index[p]] = d
    return bind(space, mat)


def is_diffusion(c: CoefficientMatrix, tol: float = DIFFUSION_TOL) -> bool:
    """Nonnegative entries, every column summing to one."""
    mat = c.matrix
    if (mat < 0).any():
        return False
    return bool(np.all(np.abs(mat.sum(axis=0) - 1.0) <= tol))


@dataclass
class FieldState:
    """Per-point function values at one time step."""

    t: int
    values: np.ndarray

    def value_at(self, c: CoefficientMatrix, point: int) -> float:
        return float(self.values[c.index[point]])


@dataclass
class Problem:
    """An initial or boundary value problem on a digital space."""

    space: DigitalSpace
    coefficients: CoefficientMatrix
    initial: np.ndarray
    source: Optional[Callable[[int], np.ndarray]] = None  # g(t), default zero
    boundary_points: Optional[List[int]] = None
    boundary_values: Optional[Callable[[int], Dict[int, float]]] = None
    steps: int = 2000
    tol: float = DEFAULT_TRAJECTORY_TOL
    blowup_factor: float = DEFAULT_BLOWUP_FACTOR

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        if self.initial.shape != (len(self.space.points),):
            raise ValueError("initial values length must equal point count")
        if self.boundary_points:
            unknown = set(self.boundary_points) - set(self.space.points)
            if unknown:
                raise ValueError(f"boundary points {sorted(unknown)} not in space")

    @property
    def has_boundary(self) -> bool:
        return bool(self.boundary_points)


@dataclass
class Trajectory:
    """States t=0..T with the conserved-sum and 1-norm records."""

    states: List[FieldState]
    sums: List[float]
    norms: List[float]

    @property
    def terminal(self) -> FieldState:
        return self.states[-1]

    def converged(self, tol: float) -> bool:
        if len(self.states) < 2:
            return False
        diff = self.states[-1].values - self.states[-2].values
        return float(np.abs(diff).sum()) < tol


def step(f: FieldState, c: CoefficientMatrix,
         g: Optional[np.ndarray] = None) -> FieldState:
    """One explicit update: matrix-vector product plus source."""
    nxt = c.at(f.t) @ f.values
    if g is not None:
        nxt = nxt + g
    return FieldState(t=f.t + 1, values=nxt)


def _clamp(values: np.ndarray, problem: Problem, t: int) -> None:
    clamps = problem.boundary_values(t)
    for p, s in clamps.items():
        values[problem.coefficients.index[p]] = s


def _iterate(problem: Problem, clamped: bool) -> Trajectory:
    c = problem.coefficients
    values = problem.initial.copy()
    if clamped:
        _clamp(values, problem, 0)
    state = FieldState(t=0, values=values)
    states = [state]
    sums = [float(values.sum())]
    norms = [float(np.abs(values).sum())]
    guard = problem.blowup_factor * max(norms[0], 1.0)
    for _ in range(problem.steps):
        g = problem.source(state.t) if problem.source is not None else None
        nxt = step(state, c, g)
        if clamped:
            _clamp(nxt.values, problem, nxt.t)
        states.append(nxt)
        sums.append(float(nxt.values.sum()))
        norm = float(np.abs(nxt.values).sum())
        norms.append(norm)
        if norm > guard:
            raise DivergenceError(
                f"norm {norm:.3g} exceeded blow-up guard at step {nxt.t}")
        delta = float(np.abs(nxt.values - state.values).sum())
        state = nxt
        if delta < problem.tol:
            break
    return Trajectory(states=states, sums=sums, norms=norms)


def solve_ivp(problem: Problem) -> Trajectory:
    """Iterate the scheme from the initial values (no boundary clause)."""
    if problem.has_boundary:
        raise ValueError("problem has a boundary clause; use solve_bvp")
    return _iterate(problem, clamped=False)


def solve_bvp(problem: Problem) -> Trajectory:
    """As solve_ivp, but clamp the boundary subgraph after every step.

    Clamped values still participate as sources in the next step,
    which is the usual Dirichlet reading.
    """
    if not problem.has_boundary:
        raise ValueError("problem has no boundary clause; use solve_ivp")
    return _iterate(problem, clamped=True)


# ---------------------------------------------------------------------------
# stability / spectral analysis
# ---------------------------------------------------------------------------

def stability_bound_check(c: CoefficientMatrix, n: Optional[int] = None,
                          sample_steps: Sequence[int] = (0,)) -> bool:
    """Sufficient stability condition: every |c[p,k]| strictly below 1/n.

    A failing check says nothing about divergence; diffusion matrices
    routinely fail it and still converge.
    """
    n = n or c.n
    bound = 1.0 / n
    steps = sample_steps if c.time_dependent else (0,)
    return all(float(np.abs(c.at(t)).max()) < bound for t in steps)


def _support_adjacency(mat: np.ndarray) -> np.ndarray:
    return (mat != 0).astype(np.int8)


def is_irreducible(c: CoefficientMatrix) -> bool:
    """The directed support graph is strongly connected."""
    from scipy.sparse.csgraph import connected_components

    n = c.n
    if n == 1:
        return True
    mat = _support_adjacency(c.matrix)
    offdiag = mat.copy()
    np.fill_diagonal(offdiag, 0)
    if not offdiag.any():
        return False
    ncomp, _ = connected_components(mat, directed=True, connection="strong")
    return ncomp == 1


def is_primitive(c: CoefficientMatrix) -> bool:
    """Irreducible with aperiodic support: some power of the support
    pattern is entrywise positive (checked up to the Wielandt bound)."""
    if not is_irreducible(c):
        return False
    n = c.n
    pattern = _support_adjacency(c.matrix).astype(np.int64)
    power = pattern.copy()
    limit = (n - 1) ** 2 + 1
    for _ in range(limit):
        if power.all():
            return True
        power = np.minimum(power @ pattern, 1)
    return bool(power.all())


@dataclass
class SpectralReport:
    irreducible: bool
    primitive: bool
    limit: Optional[np.ndarray]
    stationary_column: Optional[np.ndarray]
    iterations: int
    residual: float


def limit_matrix(c: CoefficientMatrix, tol: float = 1e-12,
                 max_iter: int = 200) -> SpectralReport:
    """Limit of C^t for a constant diffusion matrix, by repeated squaring.

    When the support is primitive, all columns of the limit agree and
    the common column is the stationary distribution.
    """
    if c.time_dependent:
        raise ValueError("limit_matrix supports constant coefficients only")
    if not is_diffusion(c):
        raise ValueError("limit_matrix requires a diffusion matrix")
    irreducible = is_irreducible(c)
    primitive = is_primitive(c)
    power = c.matrix.copy()
    iterations = 0
    residual = float("inf")
    for iterations in range(1, max_iter + 1):
        nxt = power @ power
        residual = float(np.abs(nxt - power).max())
        power = nxt
        if residual < tol:
            break
    if residual >= tol:
        return SpectralReport(irreducible, False, None, None, iterations, residual)
    column = power.mean(axis=1)
    col_spread = float(np.abs(power - column[:, None]).max())
    if primitive and col_spread > max(tol * 10, 1e-9):
        raise AssertionError(
            f"primitive matrix converged to unequal columns (spread {col_spread:.3g})")
    return SpectralReport(irreducible, primitive, power,
                          column if primitive else None, iterations, residual)


def stationary_solution(c: CoefficientMatrix, f0: np.ndarray,
                        tol: float = 1e-12) -> FieldState:
    """f_inf = S * stationary column, with S the initial total mass."""
    report = limit_matrix(c, tol=tol)
    if not report.primitive or report.stationary_column is None:
        raise ValueError(
            "coefficients are not primitive; inspect limit_matrix diagnostics")
    total = float(np.asarray(f0, dtype=float).sum())
    return FieldState(t=-1, values=total * report.stationary_column)


def elliptic_residual(c: CoefficientMatrix, f: np.ndarray,
                      points: Optional[Sequence[int]] = None) -> float:
    """1-norm of f - C f; zero exactly at fixed points.

    ``points`` restricts the residual to a subset (used for boundary
    value problems, where clamped points are not expected to balance).
    """
    f = np.asarray(f, dtype=float)
    diff = f - c.matrix @ f
    if points is not None:
        rows = [c.index[p] for p in points]
        diff = diff[rows]
    return float(np.abs(diff).sum())
