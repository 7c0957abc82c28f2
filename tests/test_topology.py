import random
import re
import tracemalloc

import numpy as np
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

    @pytest.mark.parametrize("position, simple", [(0, True), (5050, False)],
                             ids=["corner", "interior"])
    def test_one_point_query_reads_one_rim(self, monkeypatch, position, simple):
        # The verdict reads the space's own adjacency, so a query on the
        # 100x100 patch asks for at most one neighbour set per rim point,
        # not one per point of the patch.
        g = catalog.digital_plane_patch(100, 100).space
        v = g.points[position]
        rim_size = g.degree(v)
        calls = []
        neighbors = DigitalSpace.neighbors

        def spy(self, p):
            calls.append(p)
            return neighbors(self, p)

        monkeypatch.setattr(DigitalSpace, "neighbors", spy)
        assert is_simple_point(g, v) is simple
        assert len(calls) <= rim_size


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

    @pytest.mark.parametrize("n", [1.5, 2.0, True, "2", None], ids=repr)
    @pytest.mark.parametrize("check, kind", [(is_n_sphere, "sphere"), (is_n_surface, "surface"),
                                             (is_n_manifold, "manifold")])
    def test_dimension_not_an_integer_refused(self, check, kind, n):
        # 1.5 answered no with the witness "not a 0.5-sphere", 2.0 reported a
        # "2.0-sphere", True ran as 1, and "2" died with a bare TypeError.
        message = f"^{kind} dimension must be an integer, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            check(minimal_sphere(2), n)

    @pytest.mark.parametrize("n", [1.5, 2.0, True, "2"], ids=repr)
    def test_minimal_sphere_dimension_not_an_integer_refused(self, n):
        message = f"^sphere dimension must be an integer, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            minimal_sphere(n)

    def test_numpy_integer_dimension_accepted_as_an_int(self):
        g = minimal_sphere(np.int64(2))
        assert g.name == "s2_min" and len(g.edges) == 12
        for check in (is_n_sphere, is_n_surface, is_n_manifold):
            report = check(g, np.int8(2))
            assert report.ok and type(report.n) is int and report.n == 2

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


def random_tree(n, rng, labels=None):
    """A tree on n points: point i joins a random earlier point."""
    labels = labels or rng.sample(range(1, 10 * n + 1), n)
    return DigitalSpace(labels, [(labels[rng.randrange(i)], labels[i]) for i in range(1, n)])


@st.composite
def trees_plus_an_edge(draw):
    """A tree of 3 to 12 points with distinct, unordered labels, and the
    same tree with one more edge."""
    n = draw(st.integers(3, 12))
    labels = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n, unique=True))
    edges = [(labels[draw(st.integers(0, i - 1))], labels[i]) for i in range(1, n)]
    tree = DigitalSpace(labels, edges)
    extra = draw(st.sampled_from([(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
                                  if not tree.has_edge(a, b)]))
    return tree, DigitalSpace(labels, edges + [extra])


class TestTreesAndEdgeCounts:
    """Trees, cones and sets with too few edges are decided from their
    rim sizes, without a deletion search."""

    @pytest.fixture()
    def no_search(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("searched")

        monkeypatch.setattr(_Verdicts, "reduction", refuse)
        return refuse

    @staticmethod
    def verdict(g):
        return _Verdicts(g).contractible(frozenset(g.points))

    def test_long_path(self, no_search):
        g = path_space(10 ** 4)
        assert self.verdict(g)
        assert attach_point(g, g.points, 0).degree(0) == 10 ** 4

    @pytest.mark.parametrize("seed", range(3))
    def test_random_trees(self, no_search, seed):
        assert self.verdict(random_tree(2000, random.Random(seed)))

    @pytest.mark.parametrize("seed", range(3))
    def test_forests_refused(self, no_search, seed):
        rng = random.Random(seed)
        a, b = random_tree(1000, rng), random_tree(1000, rng, list(range(20001, 21001)))
        forest = DigitalSpace(a.points + b.points, a.edges | b.edges)
        assert not self.verdict(forest)
        assert is_contractible(forest) == (False, None)
        with pytest.raises(ValueError, match="not contractible"):
            attach_point(forest, forest.points, 0)

    def test_sparse_sets_and_cones_need_no_walk(self, no_search, monkeypatch):
        # Fewer than |S| - 1 edges: disconnected without a walk.
        monkeypatch.setattr(_Verdicts, "connected", no_search)
        assert not self.verdict(DigitalSpace([1, 2, 3, 4], [(1, 2), (3, 4)]))
        assert self.verdict(cone(cycle_space(6)))
        assert self.verdict(DigitalSpace([1], []))  # a lone point is a cone

    @given(trees_plus_an_edge())
    @settings(max_examples=150, deadline=None)
    def test_tree_plus_an_edge_matches_reference(self, case):
        for g in case:
            ok, trace = is_contractible(g)
            ref_ok, ref_order = ref.contractible_order(g)
            assert self.verdict(g) == ok == ref_ok
            assert (trace.deleted_points if ok else None) == ref_order


# Two contractible graphs of 10 and 11 points on which a search that kept
# a point's simple verdict after a neighbour's deletion found another
# deletion order (the first) or none (the second).
STALE_VERDICT_GRAPHS = [
    DigitalSpace([35, 43, 20, 30, 55, 32, 47, 41, 13, 50], [
        (13, 20), (13, 30), (13, 32), (13, 43), (13, 50), (20, 30), (20, 32), (20, 35),
        (20, 41), (20, 47), (30, 41), (30, 43), (30, 50), (32, 35), (32, 41), (32, 43),
        (32, 47), (32, 50), (32, 55), (35, 50), (35, 55), (41, 47), (43, 47), (47, 55),
        (50, 55)]),
    DigitalSpace([39, 31, 55, 45, 49, 46, 10, 37, 20, 21, 16], [
        (10, 16), (10, 20), (10, 21), (10, 31), (10, 37), (10, 39), (10, 46), (10, 49),
        (10, 55), (16, 20), (16, 31), (16, 37), (16, 45), (16, 46), (16, 55), (20, 21),
        (20, 31), (20, 39), (20, 45), (20, 46), (20, 49), (20, 55), (21, 37), (21, 45),
        (21, 46), (21, 49), (21, 55), (31, 37), (31, 39), (31, 45), (31, 49), (37, 39),
        (37, 45), (37, 49), (39, 45), (39, 46), (39, 55), (45, 46), (45, 49), (45, 55),
        (46, 55)]),
]


class TestSearchCost:
    @pytest.mark.parametrize("g", STALE_VERDICT_GRAPHS)
    def test_a_deletion_renews_its_neighbours_verdicts(self, g):
        ok, trace = is_contractible(g)
        assert (ok, trace.deleted_points) == ref.contractible_order(g)
        assert trace.replay(g) == trace.terminal
        assert homotopy_reduce(g)[1].deleted_points == ref.reduce_order(g)

    def test_verdicts_are_decided_lazily(self, monkeypatch):
        # One simple verdict per deletion on the 30x30 patch; deciding
        # every live point's verdict up front made 8,185 calls there.
        calls = []
        simple = _Verdicts.simple

        def spy(self, rim):
            calls.append(rim)
            return simple(self, rim)

        monkeypatch.setattr(_Verdicts, "simple", spy)
        assert is_contractible(catalog.digital_plane_patch(30, 30).space)[0]
        assert len(calls) <= 899

    # The deletion orders of the 100x100 patch and of homotopy reduction
    # on a 4,000-point cycle with a 4,000-point tail; a search that sorts
    # or rescans every live point per deletion takes 8-11 s on each.
    @pytest.mark.parametrize("code, digest", [
        ("from digital_pde import catalog; "
         "from digital_pde.topology import is_contractible; "
         "order = is_contractible(catalog.digital_plane_patch(100, 100).space)[1].deleted_points",
         "e7de1f147801343d5b2eaca3b5804107994dafeb694d5c258c31ee9106f72a32"),
        ("from digital_pde.graph_core import DigitalSpace; "
         "from digital_pde.topology import homotopy_reduce; n = 4000; "
         "g = DigitalSpace(range(1, 2 * n + 1), [(i, i % n + 1) for i in range(1, n + 1)] "
         "+ [(1, n + 1)] + [(i, i + 1) for i in range(n + 1, 2 * n)]); "
         "order = homotopy_reduce(g)[1].deleted_points",
         "9995102f22b777438858d52eda32f7358206a55d4de0de4518a72abb1669d21b"),
    ], ids=["contractible-patch-100x100", "reduce-cycle-with-tail-4000"])
    def test_at_scale_in_subprocess(self, code, digest):
        code += "; import hashlib; print(hashlib.sha256(repr(order).encode()).hexdigest())"
        assert run_isolated(["-c", code], timeout=5).stdout == digest + "\n"


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
