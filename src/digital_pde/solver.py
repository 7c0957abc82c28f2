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

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .graph_core import DigitalSpace, is_label

DIFFUSION_TOL = 1e-12
DEFAULT_TRAJECTORY_TOL = 1e-10
BLOWUP_FACTOR = 1e6
# From this many points on, a product sums slot-major pairs (see
# ``CoefficientMatrix._slots``; a hub matrix has none) rather than calling
# ``np.bincount``: below it the slots' fixed cost per product is more than
# they save.
SLOT_MIN_POINTS = 160
# A run computes its steps in blocks of up to BLOCK_ROWS rows, fewer when a
# block would hold more than BLOCK_BYTES, and checks the blow-up guard and
# tol once per block: two reductions over the block rather than four numpy
# calls and two Python floats per step.
BLOCK_ROWS = 32
BLOCK_BYTES = 1 << 19

MatrixRule = Callable[[int], "CoefficientMatrix"]


class SupportError(ValueError):
    """Coefficient support escapes the ball structure of the space."""


class DivergenceError(RuntimeError):
    """A trajectory 1-norm exceeded the blow-up guard or is not finite."""


def _real(value, name: str) -> float:
    """The one reading of a number the solver takes: ``value`` as a float
    (NaN and inf pass), or a ValueError naming the field unless it is a
    real number, not a bool (``float`` would take ``True`` and ``"1"``).
    An integer too large for a float is refused as not finite.  A plain
    float is returned as it is."""
    if type(value) is float:
        return value
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name}: expected a finite number, got {value!r}") from None


def finite_number(value, name: str) -> float:
    """``value`` as a finite float (see ``_real``), or a ValueError naming the field."""
    x = _real(value, name)
    if not math.isfinite(x):
        raise ValueError(f"{name}: expected a finite number, got {value!r}")
    return x


def _reals(values, name: str, copy: bool = False) -> np.ndarray:
    """``values`` as a float array, a new one if ``copy`` is set.  An array
    of integers or floats passes on its dtype alone; anything else is read
    by ``_real``, value by value in flat order, naming the argument."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return (np.array if copy else np.asarray)(values, dtype=float)
    objects = np.asarray(values, dtype=object)
    return np.fromiter((_real(x, name) for x in objects.flat), float,
                       objects.size).reshape(objects.shape)


def _positions(values, name: str, n: int) -> np.ndarray:
    """``values`` as a new intp array, refused with a ValueError naming the
    argument unless each value is an integer (not a bool) that fits one.
    An integer array passes on its dtype alone."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        for x in np.asarray(values, dtype=object).flat:
            if not is_label(x):  # an int or a NumPy integer, not a bool
                raise ValueError(f"{name}: expected an integer, got {x!r}")
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:
        raise ValueError(f"{name}: a position is out of range for {n} points") from None


@dataclass(frozen=True)
class CoefficientMatrix:
    """Coefficients bound to a space, constant or time-dependent.

    C(0) is stored as its nonzero entries, one per pair, in row-major
    order: C[rows[i], cols[i]] == data[i], and every other entry is zero.
    The constructor is the one check of coefficients: each value must be
    finite and each pair on the balls of ``space``; ``rows`` and ``cols``
    must hold integers and ``data`` real numbers, refused naming the
    argument.  It makes the three
    arrays read-only and the matrix frozen, so they stay as checked and
    the product's layout, built from them on first use, stays theirs.
    Rows and columns follow ``space.index``.  Build one with ``bind`` or
    ``bind_entries``; ``toarray`` gives the dense matrix.

    ``rule`` (if given) gives C(t) for t >= 1 as a CoefficientMatrix bound
    to the same space, built by ``bind``, ``bind_entries`` or this
    constructor and so checked as C(0) is; ``at`` returns it, and a step
    multiplies by its stored pairs.  The rule is never called at t = 0,
    so the pairs stored here are the one C(0).  A rule that builds C(t)
    at every step pays for a constructor and a layout at every step:
    return prebuilt matrices when C(t) repeats.
    """

    space: DigitalSpace
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    rule: Optional[MatrixRule] = None

    def __post_init__(self):
        n, points = self.n, self.space.points
        rows, cols = _positions(self.rows, "rows", n), _positions(self.cols, "cols", n)
        data = _reals(self.data, "data", copy=True)
        if not rows.shape == cols.shape == data.shape == (data.size,):
            raise ValueError("rows, cols and data must be 1-D and of one length")
        try:
            keys = np.ravel_multi_index((rows, cols), (n, n))
        except ValueError:  # a position out of range
            name = "rows" if ((rows < 0) | (rows >= n)).any() else "cols"
            raise ValueError(f"{name}: a position is out of range for {n} points") from None
        if not ((keys[1:] > keys[:-1]).all() and data.all()):
            raise ValueError("rows, cols and data must list nonzero entries, "
                             "one per pair, in row-major order")
        # Each refusal names the first bad pair in row-major order.
        nonfinite = ~np.isfinite(data)
        if nonfinite.any():
            k = nonfinite.argmax()
            raise ValueError(f"coefficient ({points[rows[k]]},{points[cols[k]]}) "
                             f"is {data[k]}, not a finite number")
        balls = self.space.ball_keys()
        off = balls.take(np.searchsorted(balls, keys), mode="clip") != keys
        if off.any():
            k = off.argmax()
            raise SupportError(f"coefficient ({points[rows[k]]},{points[cols[k]]}) "
                               "is nonzero but the points are not adjacent")
        for name, array in (("rows", rows), ("cols", cols), ("data", data)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n(self) -> int:
        return len(self.space.points)

    def at(self, t: int) -> "CoefficientMatrix":
        """C(t): this matrix at t = 0 or without a rule, else ``rule(t)``."""
        if self.rule is None or t == 0:
            return self
        c = self.rule(t)
        if not isinstance(c, CoefficientMatrix):
            raise ValueError(f"rule({t}) returned {type(c).__name__}, not a CoefficientMatrix")
        if not _same_space(c.space, self.space):
            raise ValueError(f"rule({t}) returned coefficients bound to a different space")
        return c

    def toarray(self) -> np.ndarray:
        """C(0) as a new dense n x n array."""
        mat = np.zeros((self.n, self.n))
        mat[self.rows, self.cols] = self.data
        return mat

    @cached_property
    def _slots(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The stored pairs slot-major, built on first use: ``weights`` and
        ``columns`` of shape (w, n), slot k of row i holding that row's
        k-th pair in column order, with w the most pairs in a row.  None
        when w * n > 2 * nnz: a hub row would make most cells padding, so
        ``np.bincount`` sums such a matrix.  A padded slot weighs 0 and reads
        column n, which the product holds at 0: never a real column, whose
        value may be inf or NaN."""
        n, rows = self.n, self.rows
        counts = np.bincount(rows, minlength=n)
        width = int(counts.max(initial=0))
        if width * n > 2 * len(rows):
            return None
        slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        weights = np.zeros((width, n))
        columns = np.full((width, n), n, dtype=np.intp)
        weights[slot, rows] = self.data
        columns[slot, rows] = self.cols
        return weights, columns

    def _times(self, f: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """C(0) f over the stored pairs, into ``out`` when given (which must
        not be ``f``): row i sums data * f[col] over its pairs from +0.0, in
        column order.  Below ``SLOT_MIN_POINTS`` points, or when a hub row
        leaves no slot layout (``_slots`` is None), that sum is
        ``np.bincount``'s; otherwise the slots give it: the reduction adds
        slot after slot, one elementwise add each, so both paths give the
        same bits."""
        n = self.n
        if n < SLOT_MIN_POINTS or self._slots is None:
            product = np.bincount(self.rows, self.data * f[self.cols], minlength=n)
            if out is None:
                return product
            out[:] = product
            return out
        weights, columns = self._slots
        padded = np.empty(n + 1)
        padded[:n] = f
        padded[n] = 0.0
        terms = padded[columns]
        terms *= weights
        return np.add.reduce(terms, axis=0, initial=0.0, out=out)


def _same_space(a: DigitalSpace, b: DigitalSpace) -> bool:
    """Coefficients bound to ``a`` run on ``b``: same points, in the same
    order, and same edges."""
    return a is b or (a.points == b.points and a == b)


def bind(space: DigitalSpace, matrix: np.ndarray,
         rule: Optional[MatrixRule] = None) -> CoefficientMatrix:
    """Validate the n x n array ``matrix`` against the space and bind its
    nonzero entries.

    Rows/columns follow the point order of ``space``.  Each entry must be
    a real number (not a bool or a string), refused naming ``matrix``.
    Directed support is fine (C[p,k] != C[k,p]); support outside the ball
    structure is rejected naming the offending pair.
    """
    n = len(space.points)
    matrix = _reals(matrix, "matrix")
    if matrix.shape != (n, n):
        raise ValueError(f"matrix shape {matrix.shape} does not match {n} points")
    flat = matrix.ravel()
    keys = np.flatnonzero(flat != 0)
    rows, cols = np.divmod(keys, n)
    return CoefficientMatrix(space=space, rows=rows, cols=cols, data=flat[keys], rule=rule)


def bind_entries(space: DigitalSpace,
                 entries: Iterable[Tuple[int, int, float]]) -> CoefficientMatrix:
    """Bind the coefficients given as ``(p, k, v)`` triples: v weights
    the flow from source k into destination p.  Pairs not named are
    zero, and a later triple for the same pair wins.  Each entry is
    unpacked and its v checked as ``finite_number`` checks it before any
    point is looked up; either refusal names ``entries``, as does one of
    ``entries`` that are not a collection.  Support is checked as in
    ``bind``; a point that is not an integer label of the space (``True``,
    ``1.0``, 99) raises UnknownPointError."""
    n = len(space.points)
    try:
        entries = iter(entries)
    except TypeError:
        raise ValueError(f"entries: expected a collection of entries, got {entries!r}") from None
    ps, ks, values = [], [], []
    for entry in entries:
        try:
            p, k, v = entry
        except (TypeError, ValueError):
            raise ValueError(f"entries: bad entry {entry!r}") from None
        ps.append(p)
        ks.append(k)
        values.append(finite_number(v, "entries"))
    rows, cols = space.positions(ps, "entries"), space.positions(ks, "entries")
    cells = {i * n + j: v for i, j, v in zip(rows, cols, values)}  # a later triple wins
    keys = sorted(key for key, v in cells.items() if v != 0)
    rows, cols = np.divmod(np.array(keys, dtype=np.intp), n)
    return CoefficientMatrix(space=space, rows=rows, cols=cols,
                             data=np.array([cells[key] for key in keys]))


def uniform_coefficients(space: DigitalSpace, offdiag: float,
                         diag: Union[float, Dict[int, float]]) -> CoefficientMatrix:
    """Same weight on every edge, per-point (or constant) diagonal.  Each
    weight is checked as ``finite_number`` checks it, naming ``offdiag``
    or ``diag``.  A ``diag`` map must give a value for exactly the points
    of the space, each keyed by its integer label; its values are checked
    before its points are looked up."""
    n = len(space.points)
    # Slot i holds the diagonal of position i, and slot n offdiag.
    weights = np.empty(n + 1)
    weights[n] = finite_number(offdiag, "offdiag")
    if isinstance(diag, dict):
        array = np.fromiter((finite_number(v, "diag") for v in diag.values()), float, len(diag))
        positions = space.positions(diag, "diag")
        if len(diag) != n:
            p = next(p for p in space.points if p not in diag)
            raise ValueError(f"diag: point {p!r} has no value")
        weights[np.fromiter(positions, np.intp, n)] = array  # faster than indexing by the list
    else:
        weights[:n] = finite_number(diag, "diag")
    # Its pairs are the ball pairs, ascending: the diagonal reads its slot,
    # and every other pair slot n.
    rows, cols = np.divmod(space.ball_keys(), n)
    data = weights[np.where(rows == cols, rows, n)]
    kept = data != 0
    return CoefficientMatrix(space=space, rows=rows[kept], cols=cols[kept], data=data[kept])


def is_diffusion(c: CoefficientMatrix) -> bool:
    """Nonnegative entries, every column summing to one (within
    ``DIFFUSION_TOL``)."""
    if (c.data < 0).any():
        return False
    sums = np.bincount(c.cols, c.data, minlength=c.n)
    return bool(np.all(np.abs(sums - 1.0) <= DIFFUSION_TOL))


@dataclass
class FieldState:
    """Per-point function values at one time step."""

    t: int
    values: np.ndarray


@dataclass(frozen=True)
class Problem:
    """An initial or boundary value problem on a digital space, checked
    once, by the constructor, and frozen after it (``dataclasses.replace``
    checks again).  ``initial`` is kept as a read-only float copy and
    ``boundary_points`` as a tuple; ``steps`` may be an integral float.
    What it cannot run is refused with a ValueError naming the field.

    A run computes its steps in blocks (see ``BLOCK_ROWS``) and checks the
    blow-up guard and ``tol`` once per block, so ``source``,
    ``boundary_values`` and a coefficient ``rule`` may be called for up to
    one block of steps past the step that ends the run.  Those calls do not
    change the run's outcome: what they return is dropped, and what they
    raise there is dropped too."""

    space: DigitalSpace
    coefficients: CoefficientMatrix
    initial: np.ndarray
    source: Optional[Callable[[int], np.ndarray]] = None  # g(t), default zero
    boundary_points: Optional[Sequence[int]] = None
    boundary_values: Optional[Callable[[int], Dict[int, float]]] = None
    steps: int = 2000
    tol: float = DEFAULT_TRAJECTORY_TOL

    def __post_init__(self):
        if not _same_space(self.coefficients.space, self.space):
            raise ValueError("coefficients are bound to a different space "
                             "(points, their order and edges must match)")
        initial = _field(self.coefficients, self.initial, "initial", finite=True).copy()
        initial.flags.writeable = False
        steps = self.steps
        if not (is_label(steps)  # an int or a NumPy integer, not a bool
                or isinstance(steps, (float, np.floating)) and steps.is_integer()) or steps < 0:
            raise ValueError(f"steps: expected a nonnegative integer, got {steps!r}")
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "steps", int(steps))
        object.__setattr__(self, "tol", finite_number(self.tol, "tol"))
        if (self.boundary_points is None) != (self.boundary_values is None):
            raise ValueError("boundary_points and boundary_values: give both or neither")
        if self.boundary_points is not None:
            try:
                points = iter(self.boundary_points)
            except TypeError:
                raise ValueError("boundary_points: expected a collection of points, "
                                 f"got {self.boundary_points!r}") from None
            points = tuple(points)
            self.space.positions(points, "boundary_points")
            if len(set(points)) != len(points):
                raise ValueError(f"boundary_points: repeated points in {list(points)}")
            object.__setattr__(self, "boundary_points", points)

    @property
    def has_boundary(self) -> bool:
        return bool(self.boundary_points)


@dataclass(frozen=True)
class Trajectory:
    """A run t = 0..T: row t of ``values`` is f(t), with its sum in
    ``sums`` and its 1-norm in ``norms``, each array holding exactly its
    T + 1 rows.  ``converged`` says whether the run stopped on the
    problem's ``tol`` rather than on its step cap."""

    values: np.ndarray
    sums: np.ndarray
    norms: np.ndarray
    converged: bool

    @property
    def terminal(self) -> FieldState:
        return FieldState(t=len(self.values) - 1, values=self.values[-1])

    @cached_property
    def states(self) -> List[FieldState]:
        """One view per row of ``values``, built on first use."""
        return [FieldState(t=t, values=row) for t, row in enumerate(self.values)]


def step(f: np.ndarray, c: CoefficientMatrix, t: int, g: Optional[np.ndarray] = None,
         out: Optional[np.ndarray] = None) -> np.ndarray:
    """One explicit update f(t) -> f(t+1): C(t) f over its stored pairs,
    plus the source g(t), which must hold one value per point.  Written
    into ``out`` when given (a run passes its next record row), which must
    not be ``f``; the values are the same either way."""
    nxt = (c if c.rule is None else c.at(t))._times(f, out)
    if g is not None:
        nxt += _field(c, g, f"source({t})")
    return nxt


def _clamp(values: np.ndarray, problem: Problem, where: Dict[int, int], t: int) -> None:
    """Hold each boundary point, at its ``where`` entry, at its value from
    ``boundary_values(t)``: a mapping of exactly the boundary points, keyed
    by their integer labels (not ``True`` or ``1.0``), to numbers read by
    ``_real`` (NaN and inf are left to the blow-up guard).  A missing
    boundary point is named before a key that is not one."""
    clamps = problem.boundary_values(t)
    if not hasattr(clamps, "items"):
        raise ValueError(f"boundary_values({t}): expected a mapping of boundary points "
                         f"to numbers, got {clamps!r}")
    held, others = [], []
    for p, v in clamps.items():
        i = where.get(p) if type(p) is int or is_label(p) else None
        if i is None:
            others.append(p)
        else:
            values[i] = v if type(v) is float else _real(v, f"boundary_values({t})")
            held.append(i)
    if len(held) < len(where):  # a mapping names each point at most once
        p = next(p for p, i in where.items() if i not in held)
        raise ValueError(f"boundary_values({t}) has no value for boundary point {p}")
    if others:
        raise ValueError(f"boundary_values({t}) names point {others[0]!r}, not a boundary point")


# Overflow and invalid-value warnings are off: the guard refuses an inf or
# NaN 1-norm, and an inf or NaN change is no convergence.  A block may run
# past the step that ends the run, into values that overflow.
@np.errstate(over="ignore", invalid="ignore")
def _iterate(problem: Problem) -> Trajectory:
    c = problem.coefficients
    n = c.n
    where = {p: problem.space.index[p] for p in problem.boundary_points or ()}
    source, tol, steps = problem.source, problem.tol, problem.steps
    # Row t of the record is f(t), with its sum at sums[t] and its 1-norm at
    # norms[t].  A run with tol <= 0 ends only at its step cap or by
    # raising, so it allocates its steps + 1 rows once.  Any other run, and
    # one whose cap is beyond memory (MemoryError, or numpy's ValueError for
    # a size beyond its range), starts small and doubles in place when a
    # block would not fit, so a run that stops early is not sized by its
    # cap.  Resizing in place is safe because no view of the buffers is used
    # across a resize, and none is handed out until they are trimmed.
    start = min(steps, 255) + 1
    try:
        record, sums, norms = _buffers(steps + 1 if tol <= 0 else start, n)
    except (MemoryError, ValueError):
        record, sums, norms = _buffers(start, n)
    record[0] = problem.initial
    if where:
        _clamp(record[0], problem, where, 0)
    # Sums, 1-norms and changes by np.add.reduce over each row of a block:
    # per row, the same sum as ndarray.sum, without its Python wrapper.
    sums[0] = np.add.reduce(record[0])
    norms[0] = np.add.reduce(np.abs(record[0]))
    # Finite, so that a 1-norm that overflows is a blow-up, even at t = 0.
    guard = min(BLOWUP_FACTOR * max(norms[0], 1.0), sys.float_info.max)
    if not norms[0] <= guard:
        raise DivergenceError(f"norm {norms[0]:.3g} exceeded blow-up guard at step 0")
    block = max(1, min(BLOCK_ROWS, BLOCK_BYTES // (8 * max(n, 1))))
    scratch = np.empty((block, n))
    converged, t = False, 0  # rows 0..t are recorded and checked
    while t < steps:
        end = min(t + block, steps)
        if end >= len(record):
            size = 2 * len(record)
            while size <= end:
                size *= 2
            for buffer in (record, sums, norms):
                buffer.resize((size,) + buffer.shape[1:], refcheck=False)
        # Rows t+1..end, each product written into its record row.  What
        # source, boundary_values or a rule raises past the step that ends
        # the run is dropped: the run's outcome is that step's.
        error = None
        try:
            for s in range(t, end):
                nxt = step(record[s], c, s, None if source is None else source(s),
                           record[s + 1])
                if where:
                    _clamp(nxt, problem, where, s + 1)
        except Exception as exc:  # re-raised below unless the run stopped before step s + 1
            error, end = exc, s
        k = end - t
        np.add.reduce(record[t + 1:end + 1], axis=1, out=sums[t + 1:end + 1])
        norm = np.add.reduce(np.abs(record[t + 1:end + 1], scratch[:k]), axis=1,
                             out=norms[t + 1:end + 1])
        over = np.flatnonzero(~(norm <= guard))
        # Steps before the first blow-up; within one step the guard wins.
        k = int(over[0]) if len(over) else k
        if tol > 0:  # a change, never negative, cannot be below tol <= 0
            change = np.subtract(record[t + 1:t + k + 1], record[t:t + k], scratch[:k])
            done = np.flatnonzero(np.add.reduce(np.abs(change, change), axis=1) < tol)
            if len(done):
                t, converged = t + int(done[0]) + 1, True
                break
        if len(over):
            raise DivergenceError(f"norm {norm[k]:.3g} exceeded blow-up guard "
                                  f"at step {t + k + 1}")
        if error is not None:
            raise error
        t = end
    # Trimmed in place to the rows used, so a trajectory holds no more.
    for buffer in (record, sums, norms):
        buffer.resize((t + 1,) + buffer.shape[1:], refcheck=False)
    return Trajectory(record, sums, norms, converged)


def _buffers(size: int, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A run's record of ``size`` rows of n values, and its sums and norms."""
    return np.empty((size, n)), np.empty(size), np.empty(size)


def solve_ivp(problem: Problem) -> Trajectory:
    """Iterate the scheme from the initial values (no boundary clause)."""
    if problem.has_boundary:
        raise ValueError("problem has a boundary clause; use solve_bvp")
    return _iterate(problem)


def solve_bvp(problem: Problem) -> Trajectory:
    """As solve_ivp, but clamp the boundary subgraph after every step.

    Clamped values still participate as sources in the next step,
    which is the usual Dirichlet reading.
    """
    if not problem.has_boundary:
        raise ValueError("problem has no boundary clause; use solve_ivp")
    return _iterate(problem)


# ---------------------------------------------------------------------------
# stability / spectral analysis
# ---------------------------------------------------------------------------

def stability_bound_check(c: CoefficientMatrix) -> bool:
    """Sufficient stability condition: every |c[p,k]| of C(0) strictly
    below 1/n.

    A failing check says nothing about divergence; diffusion matrices
    routinely fail it and still converge.
    """
    if c.n == 0:  # no entry to break the bound
        return True
    return float(np.abs(c.data).max(initial=0.0)) < 1.0 / c.n


def _levels(n: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Breadth-first distance from point 0 over the arcs heads[k] -> tails[k]
    (``heads`` ascending), -1 where point 0 does not reach."""
    first = np.searchsorted(heads, np.arange(n + 1))  # point i's arcs: first[i]..first[i+1]
    counts = np.diff(first)
    level = np.full(n, -1, dtype=np.int64)
    level[0] = 0
    owner = np.empty(n, dtype=np.intp)
    frontier, depth = np.zeros(1, dtype=np.intp), 0
    while len(frontier):
        depth += 1
        count = counts[frontier]
        ends = np.cumsum(count)
        arcs = np.arange(ends[-1]) + np.repeat(first[frontier] - (ends - count), count)
        reached = tails[arcs]
        reached = reached[level[reached] < 0]
        # Each point once: of its copies, only the one whose slot it holds.
        slots = np.arange(len(reached))
        owner[reached] = slots
        frontier = reached[owner[reached] == slots]
        level[frontier] = depth
    return level


def _support_verdicts(c: CoefficientMatrix) -> Tuple[bool, bool]:
    """(irreducible, primitive) for C(0), from its support arcs i -> j
    (C[i,j] != 0): strongly connected, and that with period 1.  Strongly
    connected means point 0 reaches every point forward and backward.  With
    ``level`` the forward breadth-first distance from point 0, a closed
    walk's length is a sum of the terms level[i] + 1 - level[j] over its
    arcs, and their gcd over all arcs is the period (a nonzero diagonal
    entry gives a term of 1)."""
    n = c.n
    if n == 0:
        return False, False
    level = _levels(n, c.rows, c.cols)
    order = np.argsort(c.cols, kind="stable")
    if (level < 0).any() or (_levels(n, c.cols[order], c.rows[order]) < 0).any():
        return False, False
    return True, int(np.gcd.reduce(level[c.rows] + 1 - level[c.cols])) == 1


def is_irreducible(c: CoefficientMatrix) -> bool:
    """The directed support graph is strongly connected."""
    return _support_verdicts(c)[0]


def is_primitive(c: CoefficientMatrix) -> bool:
    """Irreducible with period 1 (see ``_support_verdicts``)."""
    return _support_verdicts(c)[1]


@dataclass
class SpectralReport:
    irreducible: bool
    primitive: bool
    stationary_column: Optional[np.ndarray]

    @property
    def limit(self) -> Optional[np.ndarray]:
        """lim C^t (a new n x n array, each column the stationary one) or None."""
        column = self.stationary_column
        return None if column is None else np.outer(column, np.ones(len(column)))


def limit_matrix(c: CoefficientMatrix) -> SpectralReport:
    """Limit of C^t for a constant diffusion matrix, reported only for a
    primitive C, whose powers converge to equal columns; otherwise
    ``limit`` and ``stationary_column`` are None, though C^t may converge
    (on ``path_space(2)``, the reducible [[1, .5], [0, .5]]).  The
    stationary column solves C x = x with sum(x) = 1.  When the rows of C
    also sum to one (within ``DIFFUSION_TOL``), as those of every
    symmetric diffusion do, C fixes the uniform vector, and a primitive C
    fixes no other column of sum 1 (Perron-Frobenius), so the column is
    1/n everywhere and no solve is made.
    """
    if c.rule is not None:
        raise ValueError("limit_matrix supports constant coefficients only")
    if not is_diffusion(c):
        raise ValueError("limit_matrix requires a diffusion matrix")
    irreducible, primitive = _support_verdicts(c)
    if not primitive:
        return SpectralReport(irreducible, False, None)
    n = c.n
    if np.all(np.abs(np.bincount(c.rows, c.data, minlength=n) - 1.0) <= DIFFUSION_TOL):
        column = np.full(n, 1.0 / n)
    else:
        column = _pinned_fixed_column(c)
    residual = float(np.abs(c._times(column) - column).max())
    if residual > 1e-9:
        raise AssertionError(
            f"stationary column of a primitive matrix is not fixed (residual {residual:.3g})")
    return SpectralReport(True, True, column)


def _pinned_fixed_column(c: CoefficientMatrix) -> np.ndarray:
    """The column x = C x of sum 1 of a primitive diffusion C on n >= 2
    points, by one sparse solve with x[n-1] pinned to 1: on the other m =
    n - 1 points x = C x reads (I - C)[:m, :m] x[:m] = C[:m, m].  Every
    proper principal submatrix of I - C is nonsingular when C is
    irreducible, so that system has one solution."""
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import spsolve

    m = c.n - 1
    inner = (c.rows < m) & (c.cols < m)
    last = (c.rows < m) & (c.cols == m)
    diag = np.arange(m)
    # -C[:m, :m] plus the identity; entries given twice (-C[i,i] and 1) are summed.
    system = csc_array((np.concatenate((-c.data[inner], np.ones(m))),
                        (np.concatenate((c.rows[inner], diag)),
                         np.concatenate((c.cols[inner], diag)))),
                       shape=(m, m))
    rhs = np.zeros(m)
    rhs[c.rows[last]] = c.data[last]
    x = np.append(np.atleast_1d(spsolve(system, rhs)), 1.0)
    return x / x.sum()


def _field(c: CoefficientMatrix, f, name: str, finite: bool = False) -> np.ndarray:
    """``f`` as a float array, refused with a ValueError naming the field
    unless it holds one real number per point (see ``_reals``), finite if
    ``finite`` is set."""
    f = _reals(f, name)
    if f.shape != (c.n,):
        raise ValueError(f"{name}: expected shape ({c.n},), got {f.shape}")
    if finite and not np.isfinite(f).all():
        raise ValueError(f"{name}: values must be finite")
    return f


def stationary_solution(c: CoefficientMatrix, f0: np.ndarray) -> FieldState:
    """f_inf = S * stationary column, with S the initial total mass.
    ``f0`` must hold one finite value per point."""
    f0 = _field(c, f0, "f0", finite=True)
    report = limit_matrix(c)
    if not report.primitive:
        raise ValueError(
            "coefficients are not primitive; inspect limit_matrix diagnostics")
    total = float(f0.sum())
    return FieldState(t=-1, values=total * report.stationary_column)


def elliptic_residual(c: CoefficientMatrix, f: np.ndarray,
                      points: Optional[Sequence[int]] = None) -> float:
    """1-norm of f - C f; zero exactly at fixed points.

    ``f`` holds one value per point.  ``points`` restricts the residual
    to a subset (used for boundary value problems, where clamped points
    are not expected to balance); a point that is not an integer label
    of the space raises UnknownPointError.
    """
    f = _field(c, f, "f")
    diff = f - c._times(f)
    if points is not None:
        diff = diff[c.space.positions(points, "points")]
    return float(np.abs(diff).sum())
