"""The step product is exact: each row of C f equals, bit for bit and
sign for sign, the sum of that row's coefficient times value products
taken from 0.0 in column order in plain Python floats.  Both kernels are
checked (``np.bincount`` below ``SLOT_MIN_POINTS`` points, the slot-major
layout from there on), through ``step``, ``elliptic_residual`` and a rule
of prebuilt matrices."""

import random

import numpy as np
import pytest

from digital_pde import catalog, solver
from digital_pde.graph_core import DigitalSpace
from digital_pde.solver import (
    CoefficientMatrix,
    elliptic_residual,
    step,
    uniform_coefficients,
)


@pytest.fixture(params=["bincount", "slots"])
def kernel(request, monkeypatch):
    monkeypatch.setattr(solver, "SLOT_MIN_POINTS", 10**9 if request.param == "bincount" else 1)
    return request.param


def row_pairs(space, weight):
    """Each row's pairs {column: coefficient}, read from the edges:
    ``weight(i, j)`` for the diagonal and both directions of each edge,
    zeros left out."""
    index = {p: i for i, p in enumerate(space.points)}
    rows = [{i: weight(i, i)} for i in range(len(index))]
    for u, v in space.edges:
        i, j = index[u], index[v]
        rows[i][j], rows[j][i] = weight(i, j), weight(j, i)
    return [{j: w for j, w in row.items() if w != 0} for row in rows]


def reference_product(pairs, f):
    """C f in Python floats: each row summed from 0.0 in column order."""
    values = [float(x) for x in f]
    out = []
    for row in pairs:
        total = 0.0
        for j in sorted(row):
            total += row[j] * values[j]
        out.append(total)
    return np.array(out)


def matrix(space, pairs, rule=None):
    """The matrix of ``pairs``, built by the constructor from its pairs
    in row-major order."""
    cells = [(i, j, row[j]) for i, row in enumerate(pairs) for j in sorted(row)]
    rows, cols, data = zip(*cells)
    return CoefficientMatrix(space, rows, cols, data, rule)


def fields(n, seed):
    """Values with signs, zeros of both signs and a wide range of scales."""
    rng = np.random.default_rng(seed)
    mixed = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    mixed[rng.random(n) < 0.1] = 0.0
    mixed[rng.random(n) < 0.1] = -0.0
    return [mixed, rng.random(n), np.zeros(n), np.full(n, -0.0)]


def assert_exact(got, expected):
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def assert_slots_bounded(c):
    if c.n >= solver.SLOT_MIN_POINTS:
        weights, columns, tail_rows, _, _ = c._slots
        assert weights.shape == columns.shape
        assert weights.size <= 2 * len(c.data)
        assert weights.size + len(tail_rows) >= len(c.data)


def check_product(c, pairs, seed):
    for f in fields(c.n, seed):
        assert_exact(step(f, c, 0), reference_product(pairs, f))
    assert_slots_bounded(c)


def uniform_pairs(space, offdiag, diag):
    return row_pairs(space, lambda i, j: diag[i] if i == j else offdiag)


@pytest.mark.parametrize("side", [5, 8, 13, 20, 31, 40])
def test_plane_patches(kernel, side):
    space = catalog.digital_plane_patch(side, side).space
    rng = random.Random(side)
    diag = [rng.uniform(-1.0, 1.0) for _ in space.points]
    c = uniform_coefficients(space, 0.1, dict(zip(space.points, diag)))
    check_product(c, uniform_pairs(space, 0.1, diag), side)


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_spaces(kernel, name):
    space = catalog.space(name)
    diag = [1.0 - 0.05 * len(space.neighbors(p)) for p in space.points]
    c = uniform_coefficients(space, 0.05, dict(zip(space.points, diag)))
    check_product(c, uniform_pairs(space, 0.05, diag), len(space.points))


def test_star_plus_path_uses_the_tail():
    # Point 1 is joined to 1,000 points and a path runs through 2..3000:
    # its row has 1,001 pairs, far more than 2 nnz / n, so most of them
    # are summed after the slots, in column order.
    n = 3000
    space = DigitalSpace(range(1, n + 1),
                         [(1, p) for p in range(2, 1002)] + [(p, p + 1) for p in range(2, n)])
    rng = random.Random(3)
    pairs = row_pairs(space, lambda i, j: rng.uniform(-1.0, 1.0))
    c = matrix(space, pairs)
    weights, _, tail_rows, _, _ = c._slots
    assert len(weights) < 1001 and set(tail_rows.tolist()) == {0}
    check_product(c, pairs, 3)


@pytest.mark.parametrize("seed", range(6))
def test_random_signed_weights_with_zero_diagonal(kernel, seed):
    rng = random.Random(seed)
    n = rng.randint(2, 300)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 6 / n}
    space = DigitalSpace(range(n), edges)
    pairs = row_pairs(space, lambda i, j: 0.0 if i == j else rng.choice([-1, 1]) * rng.random())
    c = matrix(space, pairs)
    assert not (c.rows == c.cols).any()
    check_product(c, pairs, seed)


def test_elliptic_residual_with_inf_and_nan(kernel):
    # inf at the first point and NaN at the last: a row that does not
    # hold either of them must stay finite, so no padded slot reads them.
    space = catalog.digital_plane_patch(20, 20).space
    diag = [1.0 - 0.1 * len(space.neighbors(p)) for p in space.points]
    c = uniform_coefficients(space, 0.1, dict(zip(space.points, diag)))
    pairs = uniform_pairs(space, 0.1, diag)
    f = fields(c.n, 7)[0]
    f[0], f[-1] = np.inf, np.nan
    expected = reference_product(pairs, f)
    with np.errstate(invalid="ignore"):
        assert_exact(step(f, c, 0), expected)
        far = [p for i, p in enumerate(space.points) if not {0, c.n - 1} & set(pairs[i])]
        residual = elliptic_residual(c, f, points=far)
        diff = (f - expected)[[space.index[p] for p in far]]
        assert np.isfinite(residual) and residual == float(np.abs(diff).sum())
        assert np.isnan(elliptic_residual(c, f))


def test_rule_of_prebuilt_matrices(kernel):
    space = catalog.digital_plane_patch(12, 12).space
    rng = random.Random(5)
    pairs = [row_pairs(space, lambda i, j: rng.uniform(-1.0, 1.0)) for _ in range(2)]
    prebuilt = [matrix(space, p) for p in pairs]
    c = matrix(space, pairs[0], rule=lambda t: prebuilt[t % 2])
    f = fields(c.n, 5)[0]
    layouts = []
    for t in range(6):
        assert_exact(step(f, c, t), reference_product(pairs[t % 2], f))
        layouts.append(c.at(t).__dict__.get("_slots"))
    assert c.at(0) is c and c.at(2) is prebuilt[0] and c.at(3) is prebuilt[1]
    if kernel == "slots":  # each matrix keeps the layout it built at its first step
        assert layouts[1] is layouts[3] is layouts[5] is not None
        assert layouts[2] is layouts[4] is not None
