"""Reference oracle for the ball keys, the solver's coefficient fills,
support check, support-graph verdicts, limit and time loop.

The matrix-power definitions, applied directly: a support is primitive
when some power of its 0/1 pattern is entrywise positive, checked for
every power up to the Wielandt bound (n - 1)^2 + 1, and the limit of
C^t of a primitive C is its stationary column, solved exactly in
fractions from the float matrix, in every column.  The time loop keeps
one (t, values) state per step and recomputes convergence from the last
two states; it takes each product from ``digital_pde.solver.step``,
which ``test_stored_pairs_match_dense_reference`` checks against the
dense product.  The coefficient fills are the per-entry loops that each
caller of the solver once ran on its own n x n array, and the ball keys
are sorted as Python ints, as the space once sorted them.  Dense and slow;
the tests compare ``digital_pde`` against it on small inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Tuple

import numpy as np
from scipy.sparse.csgraph import connected_components

from digital_pde.solver import step


def ball_keys(space) -> np.ndarray:
    """The flat keys i * n + j of the ball pairs, built and sorted as
    Python ints: the diagonal, then both directions of every edge."""
    n = len(space.points)
    index = {p: i for i, p in enumerate(space.points)}
    ends = [(index[u], index[v]) for u, v in space.edges]
    keys = [i * (n + 1) for i in range(n)]
    keys += [i * n + j for i, j in ends] + [j * n + i for i, j in ends]
    return np.array(sorted(keys), dtype=np.intp)


def uniform_matrix(space, offdiag: float, diag) -> np.ndarray:
    """The same weight on every edge; ``diag`` a float or a dict by point."""
    n = len(space.points)
    index = {p: i for i, p in enumerate(space.points)}
    mat = np.zeros((n, n))
    for u, v in space.edges:
        mat[index[u], index[v]] = offdiag
        mat[index[v], index[u]] = offdiag
    for p in space.points:
        d = diag[p] if isinstance(diag, dict) else diag
        mat[index[p], index[p]] = d
    return mat


def network_matrix(space, flows, diag: float) -> np.ndarray:
    """Directed flows (src, dst, v) stored as C[dst, src] = v, then the
    diagonal."""
    n = len(space.points)
    index = {p: i for i, p in enumerate(space.points)}
    mat = np.zeros((n, n))
    for src, dst, v in flows:
        mat[index[dst], index[src]] = v
    for p in space.points:
        mat[index[p], index[p]] = diag
    return mat


def entries_matrix(space, entries) -> np.ndarray:
    """Problem JSON ``coefficients.entries``: C[p, k] = v, a later entry
    for the same pair overwriting an earlier one."""
    n = len(space.points)
    index = {p: i for i, p in enumerate(space.points)}
    mat = np.zeros((n, n))
    for p, k, v in entries:
        mat[index[p], index[k]] = v
    return mat


def random_diffusion_matrix(space, np_rng) -> np.ndarray:
    """Column k: random weights on the neighbours of k and k itself,
    normalised to sum to one, drawn column by column in point order."""
    n = len(space.points)
    index = {p: i for i, p in enumerate(space.points)}
    mat = np.zeros((n, n))
    for j, k in enumerate(space.points):
        targets = [index[p] for p in space.neighbors(k)] + [j]
        weights = np_rng.random(len(targets))
        weights /= weights.sum()
        for i, w in zip(targets, weights):
            mat[i, j] = w
    return mat


def first_pair_off_balls(space, mat: np.ndarray):
    """The first nonzero entry, row-major, whose two points are neither
    equal nor adjacent, as a pair of points; None when there is none."""
    points = space.points
    for i, j in zip(*np.nonzero(mat)):
        if i != j and not space.has_edge(points[i], points[j]):
            return points[i], points[j]
    return None


def is_diffusion(mat: np.ndarray, tol: float = 1e-12) -> bool:
    """Nonnegative, every column summing to one within ``tol``."""
    return bool((mat >= 0).all() and np.all(np.abs(mat.sum(axis=0) - 1.0) <= tol))


def elliptic_residual(mat: np.ndarray, f: np.ndarray, rows=None) -> float:
    """1-norm of f - C f, over ``rows`` when given."""
    diff = f - mat @ f
    return float(np.abs(diff if rows is None else diff[rows]).sum())


def is_irreducible(mat: np.ndarray) -> bool:
    """The directed support graph is strongly connected."""
    n = mat.shape[0]
    if n == 1:
        return True
    pattern = (mat != 0).astype(np.int8)
    offdiag = pattern.copy()
    np.fill_diagonal(offdiag, 0)
    if not offdiag.any():
        return False
    ncomp, _ = connected_components(pattern, directed=True, connection="strong")
    return ncomp == 1


def is_primitive(mat: np.ndarray) -> bool:
    """Irreducible, and some power of the support pattern up to the
    Wielandt bound is entrywise positive."""
    if not is_irreducible(mat):
        return False
    n = mat.shape[0]
    pattern = (mat != 0).astype(np.int64)
    power = pattern.copy()
    for _ in range((n - 1) ** 2 + 1):
        if power.all():
            return True
        power = np.minimum(power @ pattern, 1)
    return bool(power.all())


def limit(mat: np.ndarray) -> np.ndarray:
    """lim C^t of a primitive diffusion C: every column is the x of sum 1
    with x_i = (C x)_i on the first n - 1 rows, solved exactly from the
    float entries, so the oracle's own error is the final rounding of x.
    Each row is scaled to integers, and fraction-free Gauss-Jordan
    elimination (Bareiss) keeps them integers: every entry is a minor of
    the scaled matrix, so each division is exact.  Meant for n <= 16."""
    n = len(mat)
    rows = [[Fraction(float(v)) - (i == j) for j, v in enumerate(mat[i])] + [Fraction(0)]
            for i in range(n - 1)] + [[Fraction(1)] * (n + 1)]
    rows = [[int(v * scale) for v in row] for row in rows
            for scale in [lcm(*(v.denominator for v in row))]]
    previous = 1
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        row, lead = rows[k], rows[k][k]
        for i in range(n):
            if i != k:
                factor = rows[i][k]
                rows[i] = [(lead * a - factor * b) // previous for a, b in zip(rows[i], row)]
        previous = lead
    column = np.array([float(Fraction(row[n], row[i])) for i, row in enumerate(rows)])
    return np.outer(column, np.ones(n))


def trajectory(problem) -> Tuple[List[np.ndarray], List[float], List[float], bool]:
    """Iterate ``problem`` one state at a time: the rows f(0), f(1), ...,
    their sums and 1-norms as Python floats, and whether the last delta
    is below ``problem.tol``.  Boundary points are clamped from
    ``boundary_values(t)`` after every step; there is no blow-up guard."""

    def clamp(values, t):
        if problem.has_boundary:
            for p, v in problem.boundary_values(t).items():
                values[problem.coefficients.space.index[p]] = v

    values = problem.initial.copy()
    clamp(values, 0)
    states = [(0, values)]
    for _ in range(problem.steps):
        t, f = states[-1]
        g = problem.source(t) if problem.source is not None else None
        nxt = step(f, problem.coefficients, t, g)
        clamp(nxt, t + 1)
        states.append((t + 1, nxt))
        if float(np.abs(nxt - f).sum()) < problem.tol:
            break
    rows = [v for _, v in states]
    converged = len(rows) >= 2 and float(np.abs(rows[-1] - rows[-2]).sum()) < problem.tol
    return (rows, [float(v.sum()) for v in rows],
            [float(np.abs(v).sum()) for v in rows], converged)
