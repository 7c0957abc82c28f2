"""The benchmark under ``bench/`` is kept fixed while the library
changes.  Its tracer rebinds library functions by name, and its
workloads call ``topology.clear_caches``; these tests fail when a
change removes or renames one of those names."""

import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans as module
    return module


def _holder(module, attr):
    """The namespace an attribute lives in: the module, or the class of
    a dotted method name."""
    if "." in attr:
        cls, attr = attr.split(".")
        return vars(getattr(module, cls)), attr
    return vars(module), attr


def test_tracer_installs_and_uninstalls(spans):
    originals = [_holder(m, a) for m, a in spans.LAYER_FUNCTIONS]
    before = [space[name] for space, name in originals]
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert [space[name] for space, name in originals] == before


def test_workload_names_exist():
    from digital_pde import topology
    assert callable(topology.clear_caches)


def test_tracer_sees_homology_layers(spans):
    """homology calls boundary_matrix and smith_normal_form through its
    module's names, so the tracer counts them; an inlined or aliased
    call would read as zero calls in the per-layer metrics.  The Klein
    bottle's complex has dimension 2, and d1 is read from the connected
    components, so each is called once, for d2."""
    from digital_pde import catalog, invariants
    tracer = spans.Tracer()
    tracer.install()
    try:
        invariants.homology(catalog.space("klein_bottle_16"))
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["invariants.homology"]["calls"] == 1
    assert totals["invariants.boundary_matrix"]["calls"] == 1
    assert totals["invariants.smith_normal_form"]["calls"] == 1


def test_tracer_counts_one_step_per_scheme_step(spans):
    """``_iterate`` calls ``step`` through the module's name once per
    step, so ``solver.step.calls`` counts the steps a run took."""
    import numpy as np

    from digital_pde import catalog, solver
    space = catalog.digital_plane_patch(10, 10).space
    coeffs = solver.uniform_coefficients(space, 0.1, {p: 1.0 - 0.1 * space.degree(p)
                                                      for p in space.points})
    problem = solver.Problem(space, coeffs, np.ones(len(space.points)), steps=30, tol=0.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        solver.solve_ivp(problem)
    finally:
        tracer.uninstall()
    assert tracer.totals()["solver.step"]["calls"] == 30
