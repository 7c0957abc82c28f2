import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digital_pde import catalog
from digital_pde.canonical import are_isomorphic
from digital_pde.graph_core import (
    DigitalSpace,
    UnknownPointError,
    cycle_space,
    join,
    path_space,
)
from digital_pde.invariants import clique_complex, euler_characteristic, homology
from digital_pde.topology import (
    ReductionTrace,
    _Verdicts,
    attach_edge,
    attach_point,
    cone,
    disk_from_sphere,
    homotopy_reduce,
    is_contractible,
    is_n_manifold,
    is_n_sphere,
    is_n_surface,
    is_simple_edge,
    is_simple_point,
    minimal_sphere,
    r_transform,
    zero_sphere,
)

import reference_topology as ref
from isolated import run_isolated
from test_topology_reference import graphs


class TestContractible:
    def test_one_point(self, one_point):
        ok, trace = is_contractible(one_point)
        assert ok
        assert trace.deleted_points == []

    def test_4_cycle_not_contractible(self, four_cycle):
        ok, trace = is_contractible(four_cycle)
        assert not ok and trace is None

    def test_2_disk_contractible(self, octahedron):
        disk = octahedron.delete_point(1)
        ok, trace = is_contractible(disk)
        assert ok
        assert len(trace.terminal.points) == 1
        # replaying the trace reproduces the terminal graph
        assert trace.replay(disk) == trace.terminal

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            is_contractible(DigitalSpace([], []))

    def test_trees_contractible(self):
        assert is_contractible(path_space(6))[0]

    def test_disconnected_not_contractible(self, s0):
        assert not is_contractible(s0)[0]


class TestSimple:
    def test_path_endpoint_simple(self, path3):
        assert is_simple_point(path3, 1)

    def test_4cycle_points_not_simple(self, four_cycle):
        assert not any(is_simple_point(four_cycle, v) for v in four_cycle.points)

    def test_octahedron_points_not_simple(self, octahedron):
        assert not any(is_simple_point(octahedron, v) for v in octahedron.points)

    def test_triangle_edges_simple(self, triangle):
        for u, v in triangle.edges:
            assert is_simple_edge(triangle, u, v)

    def test_4cycle_edges_not_simple(self, four_cycle):
        for u, v in four_cycle.edges:
            assert not is_simple_edge(four_cycle, u, v)

    def test_octahedron_edges_not_simple(self, octahedron):
        for u, v in octahedron.edges:
            assert not is_simple_edge(octahedron, u, v)


class TestAttach:
    def test_attach_point_to_one_point(self, one_point):
        g = attach_point(one_point, [1], 2)
        assert g.has_edge(1, 2)
        assert is_simple_point(g, 2)

    def test_attach_rejects_non_contractible_rim(self, four_cycle):
        with pytest.raises(ValueError):
            attach_point(four_cycle, [1, 2, 3, 4], 5)

    def test_attach_rejects_duplicate_id(self, one_point):
        with pytest.raises(ValueError):
            attach_point(one_point, [1], 1)

    def test_attach_path_rim_on_4cycle(self, four_cycle):
        g = attach_point(four_cycle, [1, 2, 3], 5)
        assert set(g.neighbors(5)) == {1, 2, 3}
        assert is_simple_point(g, 5)

    def test_attach_edge_checks_simplicity_after_insertion(self, path3):
        g = attach_edge(path3, 1, 3)  # edge rim after insertion = {2}
        assert g.has_edge(1, 3)
        s0 = zero_sphere()
        with pytest.raises(ValueError):
            attach_edge(s0, 1, 2)  # empty edge rim, never simple
        with pytest.raises(ValueError):
            attach_edge(cycle_space(4), 1, 3)  # rim would be two isolated points

    def test_attachment_sequence_preserves_sphere(self, octahedron):
        # Subdivide two edges (R-transformations are attach+delete pairs)
        g = r_transform(octahedron, 1, 3, 7)
        g = r_transform(g, 2, 4, 8)
        assert is_n_sphere(g, 2).ok


class TestSphereRecognition:
    def test_s0(self, s0):
        assert is_n_sphere(s0, 0).ok
        assert not is_n_sphere(cycle_space(4), 0).ok

    def test_4cycle_is_1_sphere_triangle_is_not(self, four_cycle, triangle):
        assert is_n_sphere(four_cycle, 1).ok
        report = is_n_sphere(triangle, 1)
        assert not report.ok
        assert report.witness_point in triangle.points

    def test_minimal_spheres(self):
        for n in range(5):
            assert is_n_sphere(minimal_sphere(n), n).ok

    def test_minimal_sphere_edge_counts(self):
        assert len(minimal_sphere(2).edges) == 12
        assert len(minimal_sphere(4).edges) == 40

    def test_sphere_join_dimensions_add(self, s0):
        s1 = minimal_sphere(1)
        assert is_n_sphere(join(s0, s1), 2).ok
        assert is_n_sphere(join(s1, s1), 3).ok

    def test_report_json(self, four_cycle):
        d = is_n_sphere(four_cycle, 1).to_json_dict()
        assert d["verdict"] == "1-sphere"
        assert d["witness"] is None


class TestManifoldSurface:
    def test_klein_is_2_manifold(self, klein):
        assert is_n_manifold(klein, 2).ok

    def test_projective_is_2_manifold(self, projective):
        assert is_n_manifold(projective, 2).ok

    def test_4cycle_not_2_manifold(self, four_cycle):
        report = is_n_manifold(four_cycle, 2)
        assert not report.ok

    def test_moebius_not_2_manifold_with_boundary_witness(self, moebius):
        report = is_n_manifold(moebius, 2)
        assert not report.ok
        assert report.witness_point in range(1, 9)

    def test_manifolds_are_surfaces(self, klein, torus):
        assert is_n_surface(klein, 2).ok
        assert is_n_surface(torus, 2).ok

    def test_s0_is_0_surface(self, s0):
        assert is_n_surface(s0, 0).ok

    @pytest.mark.parametrize("check", [is_n_sphere, is_n_manifold, is_n_surface])
    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_graph_refused(self, check, n):
        report = check(DigitalSpace([], []), n)
        assert not report.ok
        assert report.witness_reason == "empty graph"

    @pytest.mark.parametrize("check, n", [(is_n_sphere, -1), (is_n_surface, -1),
                                          (is_n_surface, -2), (is_n_manifold, 0),
                                          (is_n_manifold, -1)])
    def test_bad_dimension_refused(self, four_cycle, check, n):
        with pytest.raises(ValueError, match="dimension must be"):
            check(four_cycle, n)

    @pytest.mark.parametrize("check", [is_n_sphere, is_n_surface])
    def test_empty_graph_at_zero_is_not_two_points(self, check):
        # The n = 0 base case comes before the empty-graph refusal.
        report = check(DigitalSpace([], []), 0)
        assert (report.ok, report.witness_point, report.witness_reason) == (
            False, None, "not two isolated points")


class TestReplay:
    def test_unknown_point(self, path3):
        with pytest.raises(UnknownPointError,
                           match=r"^deleted_points: point 9 is not in the space$"):
            ReductionTrace(deleted_points=[1, 9]).replay(path3)

    def test_point_deleted_twice(self, path3):
        with pytest.raises(ValueError, match=r"^deleted_points: repeated points in \[1, 1\]$"):
            ReductionTrace(deleted_points=[1, 1]).replay(path3)

    def test_non_simple_deletion(self, path3):
        with pytest.raises(ValueError, match="point 2 was not simple"):
            ReductionTrace(deleted_points=[2]).replay(path3)

    def test_empty_order_returns_start(self, path3):
        assert ReductionTrace(deleted_points=[]).replay(path3) is path3


class TestRTransform:
    def test_octahedron_to_7_point_sphere(self, octahedron):
        u, v = sorted(octahedron.edges)[0]
        g = r_transform(octahedron, u, v, 7)
        assert len(g.points) == 7
        assert not g.has_edge(u, v)
        assert is_n_sphere(g, 2).ok

    def test_new_point_rim(self, octahedron):
        common = octahedron.neighbors(1) & octahedron.neighbors(3)
        g = r_transform(octahedron, 1, 3, 7)
        assert set(g.neighbors(7)) == common | {1, 3}

    def test_preserves_homology_on_catalog_manifolds(self, klein, torus, projective):
        for g in (klein, torus, projective):
            before = homology(g)
            u, v = sorted(g.edges)[0]
            after = homology(r_transform(g, u, v, 99))
            assert after.betti == before.betti
            assert after.torsion == before.torsion

    def test_non_edge_rejected(self, four_cycle):
        with pytest.raises(Exception):
            r_transform(four_cycle, 1, 3, 9)


class TestDisk:
    def test_octahedron_disk(self, octahedron):
        disk, boundary, interior = disk_from_sphere(octahedron, 1)
        assert len(disk.points) == 5
        assert is_contractible(disk)[0]
        assert len(boundary.points) == 4 and len(boundary.edges) == 4
        assert set(interior.points) == {2}  # the point opposite to 1

    def test_4cycle_disk(self, four_cycle):
        disk, boundary, interior = disk_from_sphere(four_cycle, 1)
        assert are_isomorphic(disk, path_space(3))
        assert len(boundary.points) == 2 and not boundary.edges

    def test_interior_count(self, octahedron):
        for v in octahedron.points:
            _, boundary, interior = disk_from_sphere(octahedron, v)
            assert len(interior.points) == \
                len(octahedron.points) - 1 - len(boundary.points)


class TestHomotopyReduce:
    def test_contractible_reduces_to_point(self, octahedron):
        disk = octahedron.delete_point(1)
        core, trace = homotopy_reduce(disk)
        assert len(core.points) == 1
        assert trace.replay(disk) == core

    def test_sphere_keeps_chi_2(self):
        g = r_transform(minimal_sphere(2), 1, 3, 7)  # 7-point 2-sphere
        core, _ = homotopy_reduce(g)
        assert euler_characteristic(core) == 2

    def test_moebius_reduces_to_circle(self, moebius):
        core, _ = homotopy_reduce(moebius)
        h = homology(core)
        assert h.euler_characteristic == 0
        assert h.betti[:2] == [1, 1]

    def test_cone_always_contractible(self, four_cycle, octahedron):
        for g in (four_cycle, octahedron):
            assert is_contractible(cone(g))[0]

    def test_sphere_minus_any_point_reduces_to_point(self, octahedron):
        for v in octahedron.points:
            core, _ = homotopy_reduce(octahedron.delete_point(v))
            assert len(core.points) == 1


class TestSimpleDeletionInvariance:
    def test_chi_and_homology_stable(self, moebius):
        g = moebius
        before = homology(g)
        # boundary points of the strip are simple; delete a few in sequence
        deleted = 0
        for v in list(g.points):
            if v in g and is_simple_point(g, v):
                g = g.delete_point(v)
                deleted += 1
                after = homology(g)
                assert after.euler_characteristic == before.euler_characteristic
                assert after.betti[:2] == before.betti[:2]
            if deleted == 3:
                break
        assert deleted == 3


def punctured_patch(side):
    """The side x side plane patch minus the ball of its centre point: an
    annulus, chi 0, so not contractible."""
    g = catalog.digital_plane_patch(side, side).space
    centre = (side // 2) * side + side // 2 + 1
    return g.delete_points(g.neighbors(centre) | {centre})


def wedge_octahedron_4cycle():
    """An octahedron and a 4-cycle sharing point 1: chi = 2 + 0 - 1 = 1,
    yet not contractible."""
    g = minimal_sphere(2)
    return DigitalSpace(list(g.points) + [7, 8, 9],
                        list(g.edges) + [(1, 7), (7, 8), (8, 9), (9, 1)])


@st.composite
def graphs_and_subsets(draw):
    g = draw(graphs(max_points=10))
    return g, draw(st.frozensets(st.sampled_from(g.points)))


class TestChiRefutation:
    def test_punctured_7x7_patch_in_subprocess(self):
        code = ("from digital_pde import catalog; "
                "from digital_pde.topology import is_contractible; "
                "g = catalog.digital_plane_patch(7, 7).space; "
                "print(is_contractible(g.delete_points(g.neighbors(25) | {25})))")
        assert run_isolated(["-c", code], timeout=30).stdout == "(False, None)\n"

    def test_grown_torus_as_sphere_in_subprocess(self):
        code = ("import random, inputs; "
                "from digital_pde import catalog; "
                "from digital_pde.topology import is_n_sphere; "
                "g = inputs.grow(catalog.space('torus_16'), 10, random.Random(10)); "
                "r = is_n_sphere(g, 2); "
                "print(len(g.points), r.ok, r.witness_point, r.witness_reason, sep='|')")
        assert run_isolated(["-c", code], timeout=30).stdout == \
            "26|False|1|deleting 1 leaves a non-contractible graph\n"

    @given(graphs_and_subsets())
    @settings(max_examples=150, deadline=None)
    def test_bitset_chi_matches_clique_complex(self, case):
        g, pts = case
        expected = clique_complex(g.induced(pts)).euler_characteristic()
        assert _Verdicts(g).euler_characteristic(pts) == expected
        assert euler_characteristic(g.induced(pts)) == expected

    @pytest.fixture()
    def counts(self, monkeypatch):
        calls = []
        count = _Verdicts.euler_characteristic

        def spy(self, pts):
            calls.append(pts)
            return count(self, pts)

        monkeypatch.setattr(_Verdicts, "euler_characteristic", spy)
        return calls

    def test_dead_root_counts_nothing(self, counts):
        assert is_contractible(minimal_sphere(5)) == (False, None)
        assert counts == []

    def test_punctured_patch_counts_once(self, counts):
        assert is_contractible(punctured_patch(5)) == (False, None)
        assert len(counts) == 1

    def test_wedge_with_chi_1_is_refuted_by_the_search(self, counts):
        wedge = wedge_octahedron_4cycle()
        assert euler_characteristic(wedge) == 1
        assert is_contractible(wedge) == (False, None)
        # With a pendant point the search goes one state deep before its
        # dead end; chi = 1 there, so the full search refutes it.
        assert is_contractible(wedge.add_point(10, [7])) == (False, None)
        assert len(counts) == 1

    def test_wedge_with_pendants_backtracks_and_resumes(self, counts):
        # A pendant point on each of the first 6 points: the search visits
        # states with each subset of them deleted, so it backtracks and
        # resumes after the key of the point it puts back again and again.
        wedge = wedge_octahedron_4cycle()
        g = DigitalSpace(list(wedge.points) + list(range(10, 16)),
                         list(wedge.edges) + [(v, v + 9) for v in range(1, 7)])
        assert is_contractible(g) == (False, None) == ref.contractible_order(g)
        assert len(counts) == 1


def test_contractibility_search_keeps_no_point_set_per_deletion():
    # The search holds one state; keeping a point set per deletion
    # traced about 45 MB here.
    g = catalog.digital_plane_patch(30, 30).space
    tracemalloc.start()
    try:
        ok, trace = is_contractible(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and peak < 5e6
    assert trace.replay(g) == trace.terminal
