"""Acceptance suite: one criterion per test, one printed verdict line each.

Every numbered test prints ``criterion NN <label>: PASS`` (or FAIL with
the reasons) even under pytest's output capture, so a plain ``pytest -v``
run shows the full scorecard.
"""

import numpy as np

from digital_pde import catalog, experiments
from digital_pde.graph_core import cycle_space, join
from digital_pde.invariants import boundary_matrix, clique_complex, homology
from digital_pde.solver import (
    Problem,
    bind,
    elliptic_residual,
    is_diffusion,
    limit_matrix,
    solve_ivp,
    stationary_solution,
    step,
)
from digital_pde.topology import (
    homotopy_reduce,
    is_n_manifold,
    is_n_sphere,
    is_simple_point,
    minimal_sphere,
    r_transform,
    zero_sphere,
)

from reference_invariants import dense

SEED = 20240817
PROPERTY_CASES = 200


def _verdict(capsys, number, label, failures):
    status = "PASS" if not failures else "FAIL (" + "; ".join(failures) + ")"
    with capsys.disabled():
        print(f"criterion {number:2d} {label}: {status}")
    assert not failures, failures


def _ivp_failures(exp_id, expected_limit, expected_sum, limit_tol=1e-6,
                  sum_tol=1e-9):
    result = experiments.run(exp_id)
    trajectory = result.trajectory
    failures = []
    worst = float(np.abs(trajectory.terminal.values - expected_limit).max())
    if worst >= limit_tol:
        failures.append(f"worst deviation from {expected_limit} is {worst:.3g}")
    if trajectory.terminal.t > 2000:
        failures.append(f"needed {trajectory.terminal.t} steps")
    drift = max(abs(s - expected_sum) for s in trajectory.sums)
    if drift >= sum_tol:
        failures.append(f"sum drifted by {drift:.3g}")
    return failures


def test_criterion_01_klein_heat_run(capsys):
    failures = _ivp_failures("klein_ivp", 1.0, 16.0)
    _verdict(capsys, 1, "Klein-bottle heat run", failures)


def test_criterion_02_s4_run(capsys):
    failures = _ivp_failures("s4_ivp", 0.1, 1.0)
    _verdict(capsys, 2, "minimal 4-sphere run", failures)


def test_criterion_03_moebius_run(capsys):
    failures = _ivp_failures("moebius_ivp", 1.0, 12.0)
    _verdict(capsys, 3, "Moebius strip run", failures)


def test_criterion_04_projective_ivp(capsys):
    failures = _ivp_failures("projective_ivp", 1.0, 11.0)
    _verdict(capsys, 4, "projective-plane IVP", failures)


def test_criterion_05_projective_bvp(capsys):
    result = experiments.run("projective_bvp")
    problem = result.spec.problem
    trajectory = result.trajectory
    failures = []
    clamps = problem.boundary_values(0)
    for p, expected in sorted(clamps.items()):
        i = problem.coefficients.space.index[p]
        if any(state.values[i] != expected for state in trajectory.states):
            failures.append(f"clamp at point {p} deviated from {expected}")
    free = [p for p in problem.space.points if p not in clamps]
    residual = elliptic_residual(problem.coefficients,
                                 trajectory.terminal.values, points=free)
    if residual >= 1e-8:
        failures.append(f"free-point residual {residual:.3g}")
    _verdict(capsys, 5, "projective-plane BVP", failures)


def test_criterion_06_directed_network(capsys):
    failures = []
    c = experiments.network_coefficients()
    if not is_diffusion(c):
        failures.append("coefficient table is not column-stochastic")
    result = experiments.run("network_s2")
    trajectory = result.trajectory
    if trajectory.terminal.t < 30:
        # re-run without early convergence exit to cover 30+ steps
        trajectory = solve_ivp(Problem(result.spec.problem.space, c,
                                       result.spec.problem.initial,
                                       steps=40, tol=0.0))
    drift = max(abs(s - 8.0) for s in trajectory.sums)
    if drift >= 1e-9:
        failures.append(f"sum drifted by {drift:.3g}")
    terminal = experiments.run("network_s2").trajectory.terminal.values
    residual = elliptic_residual(c, terminal)
    if residual >= 1e-8:
        failures.append(f"stationary residual {residual:.3g}")
    _verdict(capsys, 6, "directed network on the 8-point sphere", failures)


def test_criterion_07_catalog_verification(capsys):
    failures = []
    for n in range(5):
        g = minimal_sphere(n)
        if len(g.points) != 2 * (n + 1):
            failures.append(f"minimal {n}-sphere has {len(g.points)} points")
        if not is_n_sphere(g, n).ok:
            failures.append(f"minimal {n}-sphere failed the sphere check")
    for name in ("torus_16", "klein_bottle_16"):
        g = catalog.space(name)
        if not is_n_manifold(g, 2).ok:
            failures.append(f"{name} failed the 2-manifold check")
        for v in g.points:
            rim = g.rim(v)
            if len(rim.points) != 6 or not is_n_sphere(rim, 1).ok:
                failures.append(f"{name}: rim of {v} is not a 6-point circle")
                break
    for name in ("projective_plane_11", "sphere2_8"):
        if not is_n_manifold(catalog.space(name), 2).ok:
            failures.append(f"{name} failed the 2-manifold check")
    moebius = catalog.space("moebius_12")
    if is_n_manifold(moebius, 2).ok:
        failures.append("moebius_12 unexpectedly passed the manifold check")
    entry = catalog.moebius_12()
    if len(entry.interior_points) != 4:
        failures.append("moebius_12 interior is not 4 points")
    for p in entry.interior_points:
        if not is_n_sphere(moebius.rim(p), 1).ok:
            failures.append(f"moebius_12 interior rim at {p} is not a circle")
    boundary = moebius.induced(entry.boundary_points)
    if not (len(boundary.edges) == 8 and boundary.is_connected()
            and all(boundary.degree(v) == 2 for v in boundary.points)):
        failures.append("moebius_12 boundary is not a single 8-cycle")
    _verdict(capsys, 7, "catalog verification", failures)


def test_criterion_08_invariant_oracle(capsys):
    failures = []
    expected = {
        "torus_16": (0, [1, 2, 1], {}),
        "klein_bottle_16": (0, [1, 1, 0], {1: [2]}),
        "projective_plane_11": (1, [1, 0, 0], {1: [2]}),
        "moebius_12": (0, [1, 1, 0], {}),
        "sphere2_8": (2, [1, 0, 1], {}),
        "s4_min": (2, [1, 0, 0, 0, 1], {}),
    }
    for name, (chi, betti, torsion) in expected.items():
        h = homology(catalog.space(name))
        if h.euler_characteristic != chi:
            failures.append(f"{name}: chi {h.euler_characteristic} != {chi}")
        if h.betti[:len(betti)] != betti or any(h.betti[len(betti):]):
            failures.append(f"{name}: betti {h.betti} != {betti}")
        for k, tor in torsion.items():
            if h.torsion[k] != tor:
                failures.append(f"{name}: torsion {h.torsion} != {torsion}")
        for k in range(len(torsion), len(h.torsion)):
            if k not in torsion and h.torsion[k]:
                failures.append(f"{name}: unexpected torsion {h.torsion}")
    for name in catalog.names():
        cx = clique_complex(catalog.space(name))
        for k in range(2, cx.max_dim + 1):
            d_k = np.array(dense(boundary_matrix(cx, k), cx.count(k - 1)), dtype=object)
            d_km1 = np.array(dense(boundary_matrix(cx, k - 1), cx.count(k - 2)), dtype=object)
            if d_k.size and d_km1.size and (d_km1 @ d_k != 0).any():
                failures.append(f"{name}: boundary composition nonzero at k={k}")
    _verdict(capsys, 8, "Euler characteristic and homology oracle", failures)


def _random_diffusion(space, rng):
    n = len(space.points)
    index = {p: i for i, p in enumerate(space.points)}
    mat = np.zeros((n, n))
    for j, k in enumerate(space.points):
        targets = [index[p] for p in space.neighbors(k)] + [j]
        weights = rng.random(len(targets)) + 1e-3
        weights /= weights.sum()
        for i, w in zip(targets, weights):
            mat[i, j] = w
    return bind(space, mat)


_PROPERTY_SPACES = ["torus_16", "klein_bottle_16", "projective_plane_11",
                    "moebius_12", "sphere2_8", "s2_min"]


def test_criterion_09_theorem_property_suites(capsys):
    rng = np.random.default_rng(SEED)
    failures = []

    # conservation of the total sum under any diffusion matrix
    for case in range(PROPERTY_CASES):
        space = catalog.space(_PROPERTY_SPACES[case % len(_PROPERTY_SPACES)])
        c = _random_diffusion(space, rng)
        f0 = rng.normal(size=len(space.points)) * 10
        trajectory = solve_ivp(Problem(space, c, f0, steps=30, tol=0.0))
        drift = max(abs(s - trajectory.sums[0]) for s in trajectory.sums)
        if drift >= 1e-9 * max(1.0, abs(trajectory.sums[0])):
            failures.append(f"conservation case {case}: drift {drift:.3g}")
            break

    # 1-norm monotonicity for sign-mixed initial values
    for case in range(PROPERTY_CASES):
        space = catalog.space(_PROPERTY_SPACES[case % len(_PROPERTY_SPACES)])
        c = _random_diffusion(space, rng)
        f0 = rng.normal(size=len(space.points)) * 5
        trajectory = solve_ivp(Problem(space, c, f0, steps=30, tol=0.0))
        if any(b > a + 1e-12
               for a, b in zip(trajectory.norms, trajectory.norms[1:])):
            failures.append(f"monotonicity case {case}: 1-norm grew")
            break

    # sufficient stability condition: max |c| < 1/n bounds the sup norm
    for case in range(PROPERTY_CASES):
        space = catalog.space(_PROPERTY_SPACES[case % len(_PROPERTY_SPACES)])
        n = len(space.points)
        index = {p: i for i, p in enumerate(space.points)}
        mat = np.zeros((n, n))
        for j, k in enumerate(space.points):
            for p in list(space.neighbors(k)) + [k]:
                mat[index[p], j] = rng.uniform(-1.0, 1.0)
        mat *= 0.95 / (n * max(np.abs(mat).max(), 1e-12))
        c = bind(space, mat)
        f = rng.normal(size=n) * 3
        sup = float(np.abs(f).max())
        ok = True
        for t in range(40):
            f = step(f, c, t)
            nxt_sup = float(np.abs(f).max())
            if nxt_sup > sup + 1e-12:
                ok = False
                break
            sup = nxt_sup
        if not ok:
            failures.append(f"stability case {case}: sup norm grew")
            break

    # the limit depends on f0 only through its sum, and C C_inf = C_inf
    for case in range(PROPERTY_CASES):
        space = catalog.space(_PROPERTY_SPACES[case % len(_PROPERTY_SPACES)])
        c = _random_diffusion(space, rng)
        report = limit_matrix(c)
        if not report.primitive:
            failures.append(f"limit case {case}: matrix not primitive")
            break
        if float(np.abs(c.toarray() @ report.limit - report.limit).max()) >= 1e-9:
            failures.append(f"limit case {case}: C C_inf != C_inf")
            break
        total = float(rng.uniform(1.0, 20.0))
        f_a = rng.random(len(space.points))
        f_a *= total / f_a.sum()
        f_b = rng.random(len(space.points))
        f_b *= total / f_b.sum()
        lim_a = report.limit @ f_a
        lim_b = report.limit @ f_b
        if float(np.abs(lim_a - lim_b).max()) >= 1e-9:
            failures.append(f"limit case {case}: limit depends on distribution")
            break
        f_inf = stationary_solution(c, f_a)
        if float(np.abs(f_inf.values - lim_a).max()) >= 1e-9:
            failures.append(f"limit case {case}: stationary mismatch")
            break

    _verdict(capsys, 9, "theorem property suites", failures)


def test_criterion_10_topology_property_suite(capsys):
    rng = np.random.default_rng(SEED)
    failures = []

    manifolds = ["torus_16", "klein_bottle_16", "projective_plane_11",
                 "sphere2_8", "s2_min"]
    for case in range(50):
        name = manifolds[case % len(manifolds)]
        g = catalog.space(name)
        edges = sorted(g.edges)
        u, v = edges[int(rng.integers(len(edges)))]
        before = homology(g)
        transformed = r_transform(g, u, v, max(g.points) + 1)
        after = homology(transformed)
        if (after.betti != before.betti or after.torsion != before.torsion):
            failures.append(f"r_transform changed homology of {name} at ({u},{v})")
            break
        if not is_n_manifold(transformed, 2).ok:
            failures.append(f"r_transform broke the manifold {name} at ({u},{v})")
            break

    moebius = catalog.space("moebius_12")
    g = moebius
    before = homology(g)
    deleted = 0
    for v in list(g.points):
        if v in g and is_simple_point(g, v):
            g = g.delete_point(v)
            deleted += 1
            after = homology(g)
            if (after.euler_characteristic != before.euler_characteristic
                    or after.betti[:2] != before.betti[:2]):
                failures.append(f"simple deletion of {v} changed invariants")
                break
        if deleted == 4:
            break
    if deleted == 0:
        failures.append("found no simple point to delete")

    projective = catalog.space("projective_plane_11")
    for v in projective.points:
        core, _ = homotopy_reduce(projective.delete_point(v))
        h = homology(core)
        if h.euler_characteristic != 0 or h.betti[:2] != [1, 1]:
            failures.append(f"projective plane minus {v} is not a circle")
            break

    circle6 = cycle_space(6)
    if not is_n_sphere(join(zero_sphere(), circle6), 2).ok:
        failures.append("join of the 0-sphere and a 6-point circle failed")

    _verdict(capsys, 10, "topology property suite", failures)


def test_criterion_11_orthogonal_grid_negative_control(capsys):
    failures = []
    grid = catalog.orthogonal_grid(4, 4)
    report = is_n_manifold(grid, 2)
    if report.ok:
        failures.append("orthogonal grid unexpectedly passed")
    elif report.witness_point is None:
        failures.append("no witness point reported")
    else:
        rim = grid.rim(report.witness_point)
        if rim.edges:
            failures.append("witness rim is not a set of isolated points")
        interior = [v for v in grid.points if grid.degree(v) == 4]
        witnesses = [v for v in interior
                     if not grid.rim(v).edges and len(grid.rim(v).points) == 4]
        if not witnesses:
            failures.append("no witness with a rim of 4 isolated points")
    _verdict(capsys, 11, "orthogonal grid negative control", failures)
