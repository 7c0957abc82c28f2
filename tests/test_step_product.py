"""The step product is exact: each row of C f equals, bit for bit and
sign for sign, the sum of that row's coefficient times value products
taken from 0.0 in column order in plain Python floats.  Both kernels are
checked (``np.bincount`` below ``SLOT_MIN_POINTS`` points or when a hub row
leaves no slot layout, the slot-major layout otherwise), through ``step``,
``elliptic_residual`` and a rule of prebuilt matrices."""

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
from digital_pde.topology import cone


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
    """No slot layout, or one of between nnz and 2 nnz cells."""
    if c._slots is not None:
        weights, columns = c._slots
        assert weights.shape == columns.shape
        assert len(c.data) <= weights.size <= 2 * len(c.data)


def check_product(c, pairs, seed, kernel):
    """Bit-exact steps on ``fields``.  Under the ``slots`` kernel the
    matrix must have a slot layout, so that the case does not test
    ``np.bincount`` twice; a hub matrix built to fall back passes None."""
    if kernel == "slots":
        assert c._slots is not None
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
    check_product(c, uniform_pairs(space, 0.1, diag), side, kernel)


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_spaces(kernel, name):
    space = catalog.space(name)
    diag = [1.0 - 0.05 * len(space.neighbors(p)) for p in space.points]
    c = uniform_coefficients(space, 0.05, dict(zip(space.points, diag)))
    check_product(c, uniform_pairs(space, 0.05, diag), len(space.points), kernel)


def random_pairs_matrix(space, seed):
    rng = random.Random(seed)
    pairs = row_pairs(space, lambda i, j: rng.uniform(-1.0, 1.0))
    return matrix(space, pairs), pairs


def patch_plus_a_hub(degree):
    """The 40x40 plane patch and one more point joined to its first
    ``degree`` points."""
    patch = catalog.digital_plane_patch(40, 40).space
    hub = max(patch.points) + 1
    return DigitalSpace(patch.points + (hub,),
                        set(patch.edges) | {(hub, p) for p in patch.points[:degree]})


def test_star_plus_path_falls_back(kernel):
    # Point 1 is joined to 1,000 points and a path runs through 2..3000:
    # its row has 1,001 pairs, so w * n is far above 2 nnz and the
    # product is np.bincount's.
    n = 3000
    space = DigitalSpace(range(1, n + 1),
                         [(1, p) for p in range(2, 1002)] + [(p, p + 1) for p in range(2, n)])
    c, pairs = random_pairs_matrix(space, 3)
    assert c._slots is None
    check_product(c, pairs, 3, None)


def test_cone_over_a_patch_falls_back(kernel):
    # The apex's row holds all 1,601 points.
    c, pairs = random_pairs_matrix(cone(catalog.digital_plane_patch(40, 40).space), 4)
    assert c.n == 1601 and c._slots is None
    check_product(c, pairs, 4, None)


@pytest.mark.parametrize("degree, slots", [(12, True), (30, False)])
def test_patch_plus_a_hub(kernel, degree, slots):
    # n = 1601 and nnz = 10,883 + 2 degree: a hub row of 13 pairs keeps
    # w * n <= 2 nnz, one of 31 does not.
    c, pairs = random_pairs_matrix(patch_plus_a_hub(degree), degree)
    assert c.n == 1601 and (c._slots is not None) == slots
    check_product(c, pairs, degree, kernel if slots else None)


@pytest.mark.parametrize("seed", range(6))
def test_random_signed_weights_with_zero_diagonal(kernel, seed):
    def signed_matrix(edges):
        space = DigitalSpace(range(n), edges)
        pairs = row_pairs(space,
                          lambda i, j: 0.0 if i == j else rng.choice([-1, 1]) * rng.random())
        c = matrix(space, pairs)
        assert not (c.rows == c.cols).any()
        return c, pairs

    rng = random.Random(seed)
    n = rng.randint(2, 300)
    c, pairs = signed_matrix(
        {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 6 / n})
    # Most of these graphs have a point of more than twice the mean degree:
    # w * n > 2 nnz, and the product is np.bincount's under either kernel.
    fits = max(map(len, pairs)) * n <= 2 * sum(map(len, pairs))
    assert (c._slots is not None) == fits
    check_product(c, pairs, seed, kernel if fits else None)
    # A ring with random chords: every degree is at most 3 and the mean at
    # least 2 (1 for n = 2), so the slots fit.
    order = list(range(n))
    rng.shuffle(order)
    ring = {(u, (u + 1) % n) for u in range(n)}
    c, pairs = signed_matrix(ring | set(zip(order[::2], order[1::2])))
    check_product(c, pairs, seed, kernel)


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
