"""The bundled experiments, catalog verification and a plain solve, at
1,600 and at 10^4 points, run without importing ``scipy.sparse``.  That
import costs about 0.2 s and 20 MB of resident memory, more than the
whole start-up of a small run, so only the support-graph verdicts
(``is_irreducible``, ``is_primitive``) and ``limit_matrix`` may pull it
in, and only when called."""

from isolated import run_isolated

SCRIPT = """
import sys
import digital_pde
import numpy as np
from digital_pde import catalog, experiments, solver
for exp_id in experiments.EXPERIMENT_IDS:
    experiments.run(exp_id)
catalog.verify_all()
space = catalog.digital_plane_patch(40, 40).space
coeffs = solver.uniform_coefficients(space, 0.1, {p: 1.0 - 0.1 * space.degree(p)
                                                  for p in space.points})
solver.solve_ivp(solver.Problem(space, coeffs, np.ones(len(space.points)), steps=30, tol=0.0))
space = catalog.digital_plane_patch(100, 100).space
coeffs = solver.uniform_coefficients(space, 0.1, {p: 1.0 - 0.1 * space.degree(p)
                                                  for p in space.points})
run = solver.solve_ivp(solver.Problem(space, coeffs, np.ones(len(space.points)), steps=20, tol=0.0))
assert run.terminal.t == 20 and len(space.points) == 10**4
print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
"""


def test_experiments_and_catalog_leave_scipy_sparse_unimported():
    result = run_isolated(["-c", SCRIPT], timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
