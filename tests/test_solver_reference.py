"""Differential tests: the coefficient builders, the solver's support
check, its readers of the stored pairs (step, diffusion, support-graph
and stability verdicts, limit, residual) and time loop against the
dense oracles in ``reference_solver``."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from digital_pde import catalog, cli, experiments
from digital_pde.graph_core import DigitalSpace, cycle_space
from digital_pde.problem_io import problem_from_json_dict
from digital_pde.solver import (
    Problem,
    SupportError,
    bind,
    bind_entries,
    elliptic_residual,
    is_diffusion,
    is_irreducible,
    is_primitive,
    limit_matrix,
    solve_bvp,
    solve_ivp,
    stability_bound_check,
    step,
    uniform_coefficients,
)

import reference_solver as ref


def complete_space(n):
    return DigitalSpace(list(range(1, n + 1)),
                        [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


@st.composite
def supports(draw, max_points=8):
    """A random 0/1 support on n <= 8 points; half of the draws have a
    zero diagonal, so that periodic supports come up often."""
    n = draw(st.integers(1, max_points))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    mat = np.array(cells, dtype=float).reshape(n, n)
    if draw(st.booleans()):
        np.fill_diagonal(mat, 0.0)
    return mat


@settings(max_examples=200, deadline=None)
@given(supports(), st.sampled_from(["torus_16", "moebius_12", "sphere2_8", "projective_plane_11"]),
       st.randoms(use_true_random=False))
def test_support_check_matches_reference(mat, name, order):
    """A random support on the first points of a catalog space, padded
    with zeros: ``bind``, and ``bind_entries`` on its nonzero entries in
    a random order, name the same first pair as the loop."""
    space = catalog.space(name)
    full = np.zeros((len(space.points), len(space.points)))
    full[:len(mat), :len(mat)] = mat
    points = space.points
    entries = [(points[i], points[j], full[i, j]) for i, j in zip(*np.nonzero(full))]
    order.shuffle(entries)
    expected = ref.first_pair_off_balls(space, full)
    for build in (lambda: bind(space, full), lambda: bind_entries(space, entries)):
        if expected is None:
            build()
        else:
            with pytest.raises(SupportError, match=r"^coefficient \(%d,%d\) " % expected):
                build()


def assert_bitwise_equal(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


PLANE_PATCHES = {"patch_3x3": (3, 3), "patch_4x7": (4, 7), "patch_10x10": (10, 10)}


@pytest.mark.parametrize("name", catalog.names() + list(PLANE_PATCHES))
def test_uniform_coefficients_match_reference(name):
    """A float diagonal and a per-point dict diagonal give the matrix of
    the edge-by-edge fill."""
    if name in PLANE_PATCHES:
        space = catalog.digital_plane_patch(*PLANE_PATCHES[name]).space
    else:
        space = catalog.space(name)
    rng = np.random.default_rng(len(space.points))
    diag = {p: float(v) for p, v in zip(space.points, rng.random(len(space.points)))}
    for offdiag, d in ((0.1, 0.4), (0.01, diag)):
        assert_bitwise_equal(uniform_coefficients(space, offdiag, d).toarray(),
                             ref.uniform_matrix(space, offdiag, d))


def test_network_coefficients_match_reference():
    c = experiments.network_coefficients()
    assert_bitwise_equal(c.toarray(), ref.network_matrix(
        c.space, experiments._NETWORK_FLOWS, experiments._NETWORK_DIAG))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["torus_16", "moebius_12", "sphere2_8", "s2_min"]), st.data())
def test_problem_entries_match_reference(name, data):
    """Problem JSON ``entries`` with repeated pairs (the later weight
    wins, even when it is zero) and zero weights off the balls, which
    are accepted: the matrix of the entry-by-entry fill.  A weight of
    -0.0 is a zero and is not stored, so the fill's -0.0 reads as 0.0."""
    space = catalog.space(name)
    pair = st.tuples(st.sampled_from(space.points), st.sampled_from(space.points))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=30))
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=5))
    weight = st.floats(-2, 2) | st.just(0.0)
    entries = [[p, k, data.draw(weight) if p == k or space.has_edge(p, k) else 0.0]
               for p, k in pairs]
    problem = problem_from_json_dict({"space": name, "coefficients": {"entries": entries},
                                      "initial": [0.0] * len(space.points)})
    assert_bitwise_equal(problem.coefficients.toarray(),
                         ref.entries_matrix(problem.space, entries) + 0.0)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 2 ** 32 - 1])
def test_random_diffusion_matches_reference(seed):
    """``digital-pde properties`` draws the same coefficients, column by
    column, as the loop that filled its matrix in place."""
    for name in catalog.names():
        space = catalog.space(name)
        got = cli._random_diffusion(space, np.random.default_rng(seed))
        assert_bitwise_equal(got.toarray(), ref.random_diffusion_matrix(
            space, np.random.default_rng(seed)))


@settings(max_examples=500, deadline=None)
@given(supports())
def test_verdicts_match_reference(mat):
    c = bind(complete_space(len(mat)), mat)
    assert is_irreducible(c) == ref.is_irreducible(mat)
    assert is_primitive(c) == ref.is_primitive(mat)


@settings(max_examples=200, deadline=None)
@given(supports())
def test_limit_matches_reference_on_random_supports(mat):
    assume(mat.any(axis=0).all())
    mat = mat / mat.sum(axis=0)
    report = limit_matrix(bind(complete_space(len(mat)), mat))
    assert report.primitive == ref.is_primitive(mat)
    if report.primitive:
        np.testing.assert_allclose(report.limit, ref.limit(mat), rtol=0, atol=1e-12)
    else:
        assert report.limit is None and report.stationary_column is None


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["torus_16", "klein_bottle_16", "projective_plane_11",
                        "moebius_12", "sphere2_8", "s2_min"]),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_limit_matches_reference_on_catalog_diffusions(name, seed, zero_diagonal):
    """Random column-stochastic coefficients on the ball support, with
    some diagonal entries zero when ``zero_diagonal`` is drawn."""
    space = catalog.space(name)
    rng = np.random.default_rng(seed)
    index = {p: i for i, p in enumerate(space.points)}
    mat = np.zeros((len(space.points), len(space.points)))
    for j, k in enumerate(space.points):
        targets = [index[p] for p in space.neighbors(k)]
        if not (zero_diagonal and rng.random() < 0.5):
            targets.append(j)
        weights = rng.random(len(targets)) + 1e-3
        mat[targets, j] = weights / weights.sum()
    assume(ref.is_primitive(mat))
    report = limit_matrix(bind(space, mat))
    assert report.primitive
    np.testing.assert_allclose(report.limit, ref.limit(mat), rtol=0, atol=1e-12)


def rotation(n):
    mat = np.zeros((n, n))
    mat[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    return mat


@pytest.mark.parametrize("space,mat", [
    (DigitalSpace([1, 2], [(1, 2)]), np.array([[0.0, 1.0], [1.0, 0.0]])),
    (cycle_space(4), rotation(4)),
    (cycle_space(4), (rotation(4) + rotation(4).T) / 2),
], ids=["flip", "directed-4-rotation", "bipartite-4-cycle"])
def test_periodic_diffusion_has_no_limit(space, mat):
    # C^t cycles through the period and never converges; squaring C
    # reaches a fixed point anyway, which used to be reported as the limit.
    report = limit_matrix(bind(space, mat))
    assert report.irreducible
    assert not report.primitive
    assert report.limit is None and report.stationary_column is None


def test_one_point():
    g = DigitalSpace([1], [])
    assert is_irreducible(bind(g, np.zeros((1, 1))))
    assert not is_primitive(bind(g, np.zeros((1, 1))))
    assert is_primitive(bind(g, np.ones((1, 1))))
    np.testing.assert_array_equal(limit_matrix(bind(g, np.ones((1, 1)))).limit, [[1.0]])


def test_empty_space():
    c = bind(DigitalSpace([], []), np.zeros((0, 0)))
    assert (is_irreducible(c), is_primitive(c)) == (False, False)
    assert limit_matrix(c).stationary_column is None


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 13])
def test_directed_cycle_has_period_k(k):
    """A directed k-cycle with no diagonal has period k; one more arc
    closing a cycle of k - 1 arcs (a loop when k = 2) makes it primitive."""
    mat = rotation(k)
    c = bind(complete_space(k), mat)
    assert (is_irreducible(c), is_primitive(c)) == (True, False)
    assert ref.is_irreducible(mat) and not ref.is_primitive(mat)
    mat[2 % k, 0] = 1.0
    assert is_primitive(bind(complete_space(k), mat)) and ref.is_primitive(mat)


@pytest.mark.parametrize("arcs", [
    [(0, 1), (1, 2)],
    [(1, 0), (2, 1)],
    [(0, 1), (1, 0), (2, 3), (3, 2)],
    [(0, 1), (1, 2), (2, 0), (2, 3)],
    [(1, 2), (2, 1)],
], ids=["0-reaches-all", "all-reach-0", "two-2-cycles", "3-cycle-and-arc-out", "0-isolated"])
@pytest.mark.parametrize("diagonal", [0.0, 1.0])
def test_reducible_supports(arcs, diagonal):
    n = 1 + max(max(arc) for arc in arcs)
    mat = np.eye(n) * diagonal
    for i, j in arcs:
        mat[i, j] = 1.0
    c = bind(complete_space(n), mat)
    assert not ref.is_irreducible(mat)
    assert (is_irreducible(c), is_primitive(c)) == (False, False)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", ["patch_6x6", "cycle_10"])
def test_verdicts_match_reference_on_larger_supports(name, seed):
    """Random directed supports on the ball pairs of a 36-point plane
    patch and of a 10-cycle (bipartite, so period 2 when no diagonal
    entry is kept): each arc kept with a probability from 0.7 to 1."""
    space = catalog.digital_plane_patch(6, 6).space if name == "patch_6x6" else cycle_space(10)
    n = len(space.points)
    rng = np.random.default_rng(seed)
    rows, cols = np.divmod(space.ball_keys(), n)
    keep = rng.random(len(rows)) < rng.uniform(0.7, 1.0)
    if seed % 2:
        keep &= rows != cols
    mat = np.zeros((n, n))
    mat[rows[keep], cols[keep]] = 1.0
    c = bind(space, mat)
    assert is_irreducible(c) == ref.is_irreducible(mat)
    assert is_primitive(c) == ref.is_primitive(mat)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["torus_16", "klein_bottle_16", "projective_plane_11",
                        "moebius_12", "sphere2_8", "s2_min"]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 3), st.integers(0, 150),
       st.sampled_from([0.0, 1e-10, 1e-4, 1e-1]))
def test_trajectory_matches_reference(name, seed, boundary, steps, tol):
    """Random diffusions on the ball support, with ``boundary`` clamped
    points (an IVP when 0) and tolerances from never met to met within a
    few steps: the recorded rows, sums, norms and convergence flag are
    bitwise those of the state-per-step loop."""
    space = catalog.space(name)
    rng = np.random.default_rng(seed)
    n = len(space.points)
    index = {p: i for i, p in enumerate(space.points)}
    mat = np.zeros((n, n))
    for j, k in enumerate(space.points):
        targets = [index[p] for p in space.neighbors(k)] + [j]
        weights = rng.random(len(targets)) + 1e-3
        mat[targets, j] = weights / weights.sum()
    points = [int(p) for p in rng.choice(space.points, size=boundary, replace=False)]
    clamps = {p: float(v) for p, v in zip(points, rng.random(boundary) * 5)}
    problem = Problem(space, bind(space, mat), rng.random(n) * 10,
                      boundary_points=points or None,
                      boundary_values=(lambda t: clamps) if points else None,
                      steps=steps, tol=tol)
    trajectory = solve_bvp(problem) if points else solve_ivp(problem)
    rows, sums, norms, converged = ref.trajectory(problem)
    assert np.array_equal(trajectory.values, np.array(rows))
    assert trajectory.sums.tolist() == sums
    assert trajectory.norms.tolist() == norms
    assert trajectory.converged == converged
    assert [s.t for s in trajectory.states] == list(range(len(rows)))
    assert trajectory.terminal.t == len(rows) - 1


DENSE_SPACES = ["s1_min", "sphere2_8", "projective_plane_11", "moebius_12", "torus_16"]


@st.composite
def ball_matrices(draw):
    """A catalog space and a random matrix on its balls: each ball entry
    is kept with probability 0, 1/2 or 1 (0 gives the zero matrix), the
    diagonal is zero on a third of the draws, and on half of the draws
    the entries are made nonnegative and each nonzero column scaled to
    sum to one."""
    space = catalog.space(draw(st.sampled_from(DENSE_SPACES)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = len(space.points)
    index = {p: i for i, p in enumerate(space.points)}
    mat = np.zeros((n, n))
    ends = [(index[u], index[v]) for u, v in space.edges]
    pairs = [(i, i) for i in range(n)] + ends + [(j, i) for i, j in ends]
    keep = draw(st.sampled_from([0.0, 0.5, 1.0]))
    for i, j in pairs:
        if rng.random() < keep:
            mat[i, j] = rng.uniform(-1.0, 1.0)
    if draw(st.integers(0, 2)) == 0:
        np.fill_diagonal(mat, 0.0)
    if draw(st.booleans()):
        mat = np.abs(mat)
        sums = mat.sum(axis=0)
        mat[:, sums > 0] /= sums[sums > 0]
    return space, mat, rng


@settings(max_examples=400, deadline=None)
@given(ball_matrices())
def test_stored_pairs_match_dense_reference(drawn):
    """Every reader of the stored pairs agrees with the dense matrix it
    was bound from, within 1e-12: the step (constant and by a rule),
    the diffusion, support-graph and stability verdicts, the limit and
    the elliptic residual."""
    space, mat, rng = drawn
    n = len(space.points)
    c = bind(space, mat)
    assert_bitwise_equal(c.toarray(), mat)
    f = rng.uniform(-5.0, 5.0, n)
    np.testing.assert_allclose(step(f, c, 0), mat @ f, rtol=0, atol=1e-12)
    by_rule = bind(space, np.zeros((n, n)), rule=lambda t: bind(space, mat))
    np.testing.assert_allclose(step(f, by_rule, 3), mat @ f, rtol=0, atol=1e-12)
    assert stability_bound_check(c) == (float(np.abs(mat).max()) < 1.0 / n)
    assert is_irreducible(c) == ref.is_irreducible(mat)
    assert is_primitive(c) == ref.is_primitive(mat)
    points = [p for p in space.points if rng.random() < 0.5]
    for subset, rows in ((None, None), (points, [c.space.index[p] for p in points])):
        assert abs(elliptic_residual(c, f, subset)
                   - ref.elliptic_residual(mat, f, rows)) <= 1e-12
    assert is_diffusion(c) == ref.is_diffusion(mat)
    if not is_diffusion(c):
        with pytest.raises(ValueError, match="diffusion"):
            limit_matrix(c)
        return
    report = limit_matrix(c)
    assert report.primitive == ref.is_primitive(mat)
    if report.primitive:
        np.testing.assert_allclose(report.limit, ref.limit(mat), rtol=0, atol=1e-12)
    else:
        assert report.limit is None and report.stationary_column is None

