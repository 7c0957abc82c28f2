"""The least-entry Smith normal form against the routine it replaced.

``reference_invariants.smith_normal_form`` is the earlier Euclid loop,
kept verbatim.  Elementary divisors are unique, so on every boundary
matrix both must return the same list.  The inputs are ones on which
the earlier loop terminates: the catalog, plane patches and the grown
surfaces of the ``surface_homology`` benchmark workload.
"""

import os

import pytest

from digital_pde import catalog
from digital_pde.invariants import boundary_matrix, clique_complex, smith_normal_form

import reference_invariants as ref

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def assert_same_divisors(g):
    cx = clique_complex(g)
    for k in range(1, cx.max_dim + 1):
        matrix = ref.dense(boundary_matrix(cx, k), cx.count(k - 1))
        assert smith_normal_form(matrix) == ref.smith_normal_form(matrix), (g.name, k)


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_boundaries(name):
    assert_same_divisors(catalog.space(name))


@pytest.mark.parametrize("side", range(3, 11))
def test_plane_patch_boundaries(side):
    assert_same_divisors(catalog.digital_plane_patch(side, side).space)


@pytest.mark.parametrize("seed", [0, 1, 2, 17])
def test_grown_surface_boundaries(seed, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import inputs
    for item in inputs.surface_inputs(seed):
        assert_same_divisors(item.space)
