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
