"""Invariants against the routines they replaced.

``reference_invariants.smith_normal_form`` is the earlier Euclid loop,
kept verbatim.  Elementary divisors are unique, so on every boundary
matrix both must return the same list.  The inputs are ones on which
the earlier loop terminates: the catalog, plane patches and the grown
surfaces of the ``surface_homology`` benchmark workload.

``reference_invariants.homology_profile`` is the earlier homology
pipeline, which enumerates cliques by intersecting every member's
neighbours and reduces d1 too; ``homology`` and ``clique_complex`` must
agree with it.
"""

import os
import random

import pytest

from digital_pde import catalog
from digital_pde.graph_core import DigitalSpace
from digital_pde.invariants import boundary_matrix, clique_complex, homology, smith_normal_form
from digital_pde.topology import minimal_sphere

import reference_invariants as ref
from test_invariants import complete_graph, disjoint_union

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


def random_graph(seed):
    """1 to 12 points with distinct, unordered labels, each pair an edge
    with a density drawn per graph."""
    rng = random.Random(seed)
    labels = rng.sample(range(1, 41), rng.randint(1, 12))
    density = rng.random()
    return DigitalSpace(labels, [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]
                                 if rng.random() < density])


def assert_same_homology(g, what):
    """Simplices, chi, Betti numbers and torsion equal to the earlier
    pipeline, which reduces d1 as well."""
    assert clique_complex(g).simplices == ref.clique_levels(g), what
    h = homology(g)
    assert (h.euler_characteristic, h.betti, h.torsion) == ref.homology_profile(g), what


class TestAgainstEarlierPipeline:
    """d1 read from the connected components and cliques grown from
    carried candidate sets, against every boundary map reduced and the
    neighbours of every member intersected again."""

    @pytest.mark.parametrize("name", catalog.names())
    def test_catalog(self, name):
        assert_same_homology(catalog.space(name), name)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_grown_surfaces(self, seed, monkeypatch):
        monkeypatch.syspath_prepend(BENCH)
        import inputs
        for item in inputs.surface_inputs(seed):
            assert_same_homology(item.space, item.label)

    @pytest.mark.parametrize("side", range(3, 11))
    def test_plane_patch(self, side):
        assert_same_homology(catalog.digital_plane_patch(side, side).space, side)

    @pytest.mark.parametrize("n", range(6))
    def test_minimal_sphere(self, n):
        assert_same_homology(minimal_sphere(n), n)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_complete_graph(self, k):
        assert_same_homology(complete_graph(k), k)

    def test_disjoint_unions(self):
        torus, projective = catalog.space("torus_16"), catalog.space("projective_plane_11")
        point = DigitalSpace([1], [])
        for parts in [(torus, projective, point), (point, point, point),
                      (catalog.space("klein_bottle_16"), minimal_sphere(3)),
                      (catalog.digital_plane_patch(4, 4).space, catalog.space("moebius_12"))]:
            assert_same_homology(disjoint_union(*parts), [len(g.points) for g in parts])

    def test_random_graphs(self):
        for seed in range(600):
            assert_same_homology(random_graph(seed), seed)
