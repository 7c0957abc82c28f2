"""Self-test of the benchmark's seeded inputs and output checks.

    python3 -m pytest bench/selftest.py

Not collected by the repository's own test run (the file name does not
match ``test_*.py``), because it runs the seeded operations in full,
which takes about 15 seconds.  For two seeds it checks that the
generated inputs have the documented sizes, that a seed always gives
the same inputs, and that every check on the seeded inputs passes on
the outputs the library produces for them.  It also checks that the
checks reject wrong answers.
"""

import numpy as np
import pytest

import run

if run.import_library() is None:
    raise ImportError(f"no digital_pde package under {run.SRC}")

import inputs  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)


def _same_space(a, b) -> bool:
    return a.points == b.points and a.edges == b.edges


@pytest.mark.parametrize("seed", SEEDS)
def test_sizes(seed):
    sizes = {i.label: len(i.space.points) for i in inputs.recognize_inputs(seed)}
    assert sizes == {"s2_min+3": 9, "sphere2_8+1": 9, "projective_plane_11": 11}
    sizes = {i.label: len(i.space.points) for i in inputs.surface_inputs(seed)}
    assert sizes == {"klein_bottle_16+20": 36, "projective_plane_11+20": 31,
                     "torus_16+20": 36, "plane_patch_7x7": 49}
    for patch in inputs.diffusion_inputs(seed):
        n = len(patch.space.points)
        assert patch.initial.shape == (n,)
        assert len(patch.clamps) == (2 if "bvp" in patch.ops else 0)
        assert set(patch.clamps) <= set(patch.space.points)
        assert (patch.coeffs is None) == ("coefficients" in patch.ops)
    assert [len(p.space.points) for p in inputs.diffusion_inputs(seed)] == [400, 1600, 144]
    order = inputs.experiment_order(seed, workloads.experiments.EXPERIMENT_IDS)
    assert sorted(order) == sorted(workloads.experiments.EXPERIMENT_IDS)


def test_seed_fixes_inputs():
    for make in (inputs.recognize_inputs, inputs.surface_inputs):
        first, again, other = make(SEEDS[0]), make(SEEDS[0]), make(SEEDS[1])
        assert all(_same_space(a.space, b.space) for a, b in zip(first, again))
        assert not all(_same_space(a.space, b.space) for a, b in zip(first, other))
    first, again = inputs.diffusion_inputs(SEEDS[0]), inputs.diffusion_inputs(SEEDS[0])
    for a, b in zip(first, again):
        assert np.array_equal(a.initial, b.initial) and a.clamps == b.clamps
    other = inputs.diffusion_inputs(SEEDS[1])
    assert not np.array_equal(first[0].initial, other[0].initial)


def _checked(workload, items):
    ops = workloads.run_window(workload, items, 0.0)[1]
    return ops, workloads.check_ops(workload, items, ops)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["surface_homology", "diffusion_large", "diffusion_small"])
def test_every_check_passes(name, seed):
    workload = workloads.WORKLOADS[name]()
    ops, failures = _checked(workload, workload.generate(seed))
    assert ops and failures == []


@pytest.mark.parametrize("seed", SEEDS)
def test_sphere_checks_pass(seed):
    # The recognize pass also replays the fixed catalog verification,
    # which the repository's own tests cover; only the seeded sphere
    # checks are run here.
    workload = workloads.Recognize()
    items = workload.generate(seed)
    ops = [(f"sphere:{i.label}", 0.0, workload.summarize(
        items, "", workloads.topology.is_n_sphere(i.space, i.dim))) for i in items]
    assert workloads.check_ops(workload, items, ops) == []


def test_checks_catch_wrong_answers():
    workload = workloads.SurfaceHomology()
    items = workload.generate(SEEDS[0])
    torus = next(i for i in items if i.label.startswith("torus"))
    assert workload.check(items, torus.label, (True, [1, 1, 0], [[], [2], []]))
    sphere = workloads.Recognize()
    items = sphere.generate(SEEDS[0])
    assert sphere.check(items, "sphere:projective_plane_11", (True, None))
    assert sphere.check(items, "sphere:projective_plane_11", (False, "rim of 3"))


def test_diffusion_checks_catch_wrong_answers():
    workload = workloads.DiffusionLarge()
    patches = workload.generate(SEEDS[0])
    stationary = next(p for p in patches if "stationary" in p.ops)
    n, total = len(stationary.space.points), float(stationary.initial.sum())
    label = stationary.label
    assert workload.check(patches, f"stationary:{label}", np.full(n, total / n)) is None
    assert workload.check(patches, f"stationary:{label}", np.full(n, 1.01 * total / n))
    patch = next(p for p in patches if "bvp" in p.ops)
    total, label, steps = float(patch.initial.sum()), patch.label, patch.steps
    terminal, sums = workload._ivp_oracle(patch), np.full(steps + 1, total)
    assert workload.check(patches, f"ivp:{label}", (steps, terminal, sums)) is None
    assert workload.check(patches, f"ivp:{label}", (steps - 1, terminal, sums))
    assert workload.check(patches, f"ivp:{label}", (steps, terminal * 1.001, sums))
    assert workload.check(patches, f"ivp:{label}", (steps, terminal, sums * (1 + 1e-6)))
    clamped = np.tile(list(patch.clamps.values()), (steps + 1, 1))
    assert workload.check(patches, f"bvp:{label}", (steps, clamped)) is None
    clamped[7, 1] += 1e-12
    assert workload.check(patches, f"bvp:{label}", (steps, clamped))
    small = workloads.DiffusionSmall()
    recorded = small._digests["klein_ivp"]
    good = (True, (), recorded["csv"], recorded["svg"])
    assert small.check(None, "klein_ivp", good) is None
    assert small.check(None, "klein_ivp", (False, ("limit mismatch",)) + good[2:])
    assert small.check(None, "klein_ivp", good[:3] + ("0" * 64,))
