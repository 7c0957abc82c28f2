import pytest

from digital_pde import catalog, solver
from digital_pde.graph_core import DigitalSpace, cycle_space, path_space
from digital_pde.topology import minimal_sphere


@pytest.fixture(scope="session")
def octahedron():
    return minimal_sphere(2)


@pytest.fixture(scope="session")
def four_cycle():
    return cycle_space(4)


@pytest.fixture(scope="session")
def triangle():
    return cycle_space(3)


@pytest.fixture(scope="session")
def path3():
    return path_space(3)


@pytest.fixture(scope="session")
def one_point():
    return DigitalSpace([1], [])


@pytest.fixture(scope="session")
def s0():
    return DigitalSpace([1, 2], [])


@pytest.fixture(scope="session")
def klein():
    return catalog.space("klein_bottle_16")


@pytest.fixture(scope="session")
def torus():
    return catalog.space("torus_16")


@pytest.fixture(scope="session")
def projective():
    return catalog.space("projective_plane_11")


@pytest.fixture(scope="session")
def moebius():
    return catalog.space("moebius_12")


@pytest.fixture(params=["bincount", "slots"])
def kernel(request, monkeypatch):
    """The step product: ``np.bincount``'s, or the slot-major one, which
    ``SLOT_MIN_POINTS`` = 1 selects even on few points."""
    monkeypatch.setattr(solver, "SLOT_MIN_POINTS", 10**9 if request.param == "bincount" else 1)
    return request.param
