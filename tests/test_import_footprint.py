"""The bundled experiments, catalog verification, a plain solve at 1,600
and at 10^4 points, and the support-graph verdicts, limit and stationary
solution of uniform diffusions on the 12x12 and 100x100 patches, run
without importing ``scipy.sparse``.  That import costs about 0.2 s and
20-30 MB of resident memory, more than the whole start-up of a small run
(the first ``is_primitive`` in a process took 0.26 s when the verdicts
used ``scipy.sparse.csgraph``, nearly all of it import).  The verdicts are
breadth-first searches in numpy, and the stationary column of a diffusion
whose rows also sum to one is 1/n without a solve, so only
``limit_matrix`` (and ``stationary_solution`` through it) of another
diffusion pulls the import in, and only when called."""

from isolated import run_isolated

SCRIPT = """
import sys
import digital_pde
import numpy as np
from digital_pde import catalog, experiments, solver


def sparse_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy.sparse"))


def uniform(space):
    return solver.uniform_coefficients(space, 0.1, {p: 1.0 - 0.1 * space.degree(p)
                                                    for p in space.points})


for exp_id in experiments.EXPERIMENT_IDS:
    experiments.run(exp_id)
catalog.verify_all()
space = catalog.digital_plane_patch(40, 40).space
solver.solve_ivp(solver.Problem(space, uniform(space), np.ones(len(space.points)), steps=30,
                                tol=0.0))
space = catalog.digital_plane_patch(100, 100).space
run = solver.solve_ivp(solver.Problem(space, uniform(space), np.ones(len(space.points)),
                                      steps=20, tol=0.0))
assert run.terminal.t == 20 and len(space.points) == 10**4
for k in (12, 100):
    space = catalog.digital_plane_patch(k, k).space
    coeffs, n = uniform(space), len(space.points)
    assert solver.is_irreducible(coeffs) and solver.is_primitive(coeffs)
    assert np.array_equal(solver.limit_matrix(coeffs).stationary_column, np.full(n, 1.0 / n))
    assert solver.stationary_solution(coeffs, np.arange(n, dtype=float)).values.shape == (n,)
print(sparse_modules())
# A diffusion whose rows do not sum to one takes the sparse solve, so the
# check above would see the import.
space = catalog.digital_plane_patch(12, 12).space
mat = uniform(space).toarray()
mat[:, 0] = 0.0
mat[space.index[space.points[0]], 0] = 0.5
mat[space.index[next(iter(space.neighbors(space.points[0])))], 0] = 0.5
assert solver.limit_matrix(solver.bind(space, mat)).primitive
print("scipy.sparse" in sparse_modules())
"""


def test_experiments_and_catalog_leave_scipy_sparse_unimported():
    result = run_isolated(["-c", SCRIPT], timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "True"]
