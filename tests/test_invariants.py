import math
import random
import sys
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digital_pde import catalog, invariants
from digital_pde.graph_core import DigitalSpace, cycle_space, path_space
from digital_pde.invariants import (
    boundary_matrix,
    clique_complex,
    euler_characteristic,
    homology,
    smith_normal_form,
)
from digital_pde.topology import cone, minimal_sphere, r_transform

import reference_invariants as ref
from isolated import run_isolated
from test_topology_reference import graphs


def exact_rank(matrix):
    """Independent rank oracle: fraction-free Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m or not m[0]:
        return 0
    rank = 0
    cols = len(m[0])
    row = 0
    for col in range(cols):
        pivot = next((i for i in range(row, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for i in range(len(m)):
            if i != row and m[i][col]:
                factor = m[i][col] / m[row][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        rank += 1
        row += 1
    return rank


def determinant(m):
    """Leibniz formula; exact on Python integers."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * math.prod(m[i][j] for i, j in enumerate(perm))
    return total


def determinantal_divisors(matrix):
    """Independent SNF oracle: d1 * ... * dk is the gcd of the k x k minors."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    divisors, previous = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = math.gcd(*(determinant([[matrix[i][j] for j in cs] for i in rs])
                       for rs in combinations(range(rows), k)
                       for cs in combinations(range(cols), k)))
        if g == 0:
            break
        divisors.append(g // previous)
        previous = g
    return divisors


# A matrix on which the earlier Euclid loop ran for more than 20 s, its
# entries growing past 100,000 bits.
RUNAWAY = [[4, 6, -1, 0, 6, 0, 0], [-9, -3, -9, 12, 12, 0, -6], [4, 2, 1, -9, 2, -9, 0],
           [1, -6, 1, 1, 0, 6, 4], [0, 0, 2, 6, 4, 0, -1], [6, -1, -9, 0, 6, 2, 6],
           [1, -6, 6, -6, -1, 4, 0], [-6, -3, 2, -6, 1, -1, 0]]


class TestCliqueComplex:
    def test_triangle(self, triangle):
        cx = clique_complex(triangle)
        assert [cx.count(k) for k in range(3)] == [3, 3, 1]

    def test_4cycle_has_no_triangles(self, four_cycle):
        cx = clique_complex(four_cycle)
        assert cx.max_dim == 1
        assert [cx.count(k) for k in range(2)] == [4, 4]

    def test_octahedron_counts(self, octahedron):
        cx = clique_complex(octahedron)
        assert [cx.count(k) for k in range(4)] == [6, 12, 8, 0]

    def test_face_closed(self, klein):
        cx = clique_complex(klein)
        for k in range(1, cx.max_dim + 1):
            lower = set(cx.simplices[k - 1])
            for s in cx.simplices[k]:
                for i in range(len(s)):
                    assert s[:i] + s[i + 1:] in lower


class TestEulerCharacteristic:
    def test_octahedron(self, octahedron):
        assert euler_characteristic(octahedron) == 2

    def test_klein(self, klein):
        assert euler_characteristic(klein) == 0

    def test_projective(self, projective):
        assert euler_characteristic(projective) == 1

    def test_torus(self, torus):
        assert euler_characteristic(torus) == 0

    def test_clique_deeper_than_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 100
        clique = DigitalSpace(range(n), [(i, j) for i in range(n) for j in range(i)])
        assert euler_characteristic(clique) == 1


class TestSmithNormalForm:
    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == []
        assert smith_normal_form([]) == []

    def test_identity(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]

    def test_diag_2_3(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]

    def test_dict_columns(self):
        columns = [{0: 2}, {1: 3}]
        assert smith_normal_form(columns) == [1, 6]
        assert columns == [{0: 2}, {1: 3}]
        columns = [{0: 2, 1: 4}, {1: -3}]
        assert smith_normal_form(columns) == [1, 6]
        assert columns == [{0: 2, 1: 4}, {1: -3}]
        assert smith_normal_form([{0: 0, 1: 2}, {1: 0}]) == [2]  # stored zeros

    def test_divisibility_chain(self):
        divisors = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0

    @given(st.lists(st.lists(st.integers(min_value=-9, max_value=9),
                             min_size=3, max_size=3),
                    min_size=3, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_rank_matches_exact_elimination(self, matrix):
        divisors = smith_normal_form(matrix)
        assert len(divisors) == exact_rank(matrix)
        assert all(d > 0 for d in divisors)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0


    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(st.lists(st.integers(min_value=-12, max_value=12),
                                       min_size=cols, max_size=cols),
                              min_size=1, max_size=5)))
    @settings(max_examples=300, deadline=None)
    def test_matches_determinantal_divisors(self, matrix):
        assert smith_normal_form(matrix) == determinantal_divisors(matrix)

    @pytest.mark.parametrize("matrix, where", [
        ([[2.5]], "column 0, row 0"),
        ([["3"]], "column 0, row 0"),
        ([[1, 0], [2, float("nan")]], "column 1, row 1"),
        ([{0: 2}, {4: 1.0}], "column 1, row 4"),
    ])
    def test_non_integer_entry_refused(self, matrix, where):
        with pytest.raises(ValueError, match=f"{where}: entry .* is not an integer"):
            smith_normal_form(matrix)

    def test_integer_types_accepted(self):
        assert smith_normal_form([[True, 0], [0, np.int64(3)]]) == [1, 3]
        assert smith_normal_form(np.array([[2, 0], [0, 3]])) == [1, 6]

    def test_runaway_matrix_terminates(self):
        # A subprocess, so that a loop that does not terminate fails the
        # test instead of hanging the suite.
        columns = [{i: row[j] for i, row in enumerate(RUNAWAY) if row[j]}
                   for j in range(len(RUNAWAY[0]))]
        code = ("from digital_pde.invariants import smith_normal_form; "
                f"print(smith_normal_form({RUNAWAY!r})); "
                f"print(smith_normal_form({columns!r}))")
        done = run_isolated(["-c", code], timeout=10)
        assert done.stdout.split("\n")[:2] == ["[1, 1, 1, 1, 1, 1, 3]"] * 2


class TestHomology:
    def test_torus(self, torus):
        h = homology(torus)
        assert h.euler_characteristic == 0
        assert h.betti == [1, 2, 1]
        assert not any(h.torsion)

    def test_klein(self, klein):
        h = homology(klein)
        assert h.euler_characteristic == 0
        assert h.betti == [1, 1, 0]
        assert h.torsion[1] == [2]

    def test_projective(self, projective):
        h = homology(projective)
        assert h.euler_characteristic == 1
        assert h.betti == [1, 0, 0]
        assert h.torsion[1] == [2]

    def test_minimal_4_sphere(self):
        h = homology(minimal_sphere(4))
        assert h.betti == [1, 0, 0, 0, 1]
        assert not any(h.torsion)

    def test_h0_counts_components(self):
        g = DigitalSpace([1, 2, 3, 4], [(1, 2)])
        assert homology(g).betti[0] == 3

    def test_cone_is_acyclic(self, four_cycle):
        h = homology(cone(four_cycle))
        assert h.betti[0] == 1
        assert not any(h.betti[1:])
        assert not any(h.torsion)

    def test_boundary_of_boundary_vanishes(self, klein, projective, octahedron):
        for g in (klein, projective, octahedron, minimal_sphere(3)):
            cx = clique_complex(g)
            for k in range(2, cx.max_dim + 1):
                d_k = ref.dense(boundary_matrix(cx, k), cx.count(k - 1))
                d_km1 = ref.dense(boundary_matrix(cx, k - 1), cx.count(k - 2))
                rows = len(d_km1)
                for j in range(len(d_k[0])):
                    col = [sum(d_km1[i][l] * d_k[l][j] for l in range(len(d_k)))
                           for i in range(rows)]
                    assert all(x == 0 for x in col)

    def test_json_shape(self, klein):
        d = homology(klein).to_json_dict()
        assert set(d) == {"chi", "betti", "torsion"}


def disjoint_union(*spaces):
    """The spaces side by side, each relabelled above the one before."""
    points, edges, offset = [], [], 0
    for g in spaces:
        points += [p + offset for p in g.points]
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += max(g.points, default=0)
    return DigitalSpace(points, edges)


class TestFirstBoundaryFromComponents:
    """d1 is the signed incidence matrix, of rank n - c: homology takes its
    divisors from the connected components and never builds it.  On these
    inputs that rule decides every Betti number."""

    @pytest.fixture
    def dimensions(self, monkeypatch):
        seen = []
        build = invariants.boundary_matrix

        def recording(cx, k):
            seen.append(k)
            return build(cx, k)

        monkeypatch.setattr(invariants, "boundary_matrix", recording)
        return seen

    @pytest.mark.parametrize("g, chi, betti", [
        (DigitalSpace([], []), 0, [0]),
        (DigitalSpace([5], []), 1, [1]),
        (DigitalSpace([4, 1, 9], []), 3, [3]),
        (DigitalSpace([1, 2, 3, 4, 5, 6], [(1, 2), (2, 3), (2, 4), (4, 5), (4, 6)]), 1, [1, 0]),
        (disjoint_union(path_space(3), path_space(1), path_space(5)), 3, [3, 0]),
        (cycle_space(5), 0, [1, 1]),
        (disjoint_union(cycle_space(4), cycle_space(4)), 0, [2, 2]),
    ], ids=["empty", "point", "three-points", "tree", "forest", "5-cycle", "two-4-cycles"])
    def test_decided_by_components(self, dimensions, g, chi, betti):
        h = homology(g)
        assert (h.euler_characteristic, h.betti, h.torsion) == (chi, betti, [[]] * len(betti))
        assert dimensions == []

    def test_only_higher_maps_are_built(self, dimensions, klein):
        assert homology(klein).torsion == [[], [2], []]
        assert dimensions == [2]
        assert homology(minimal_sphere(3)).betti == [1, 0, 0, 1]
        assert dimensions == [2, 2, 3]


def dense_profile(g):
    """Homology from the densified boundary maps and the reference SNF."""
    cx = clique_complex(g)
    top = cx.max_dim
    divisors = [[]] + [ref.smith_normal_form(ref.dense(boundary_matrix(cx, k), cx.count(k - 1)))
                       for k in range(1, top + 1)] + [[]]
    betti = [cx.count(k) - len(divisors[k]) - len(divisors[k + 1]) for k in range(top + 1)]
    torsion = [[d for d in divisors[k + 1] if d > 1] for k in range(top + 1)]
    return cx.euler_characteristic(), betti, torsion


def grown(name, transforms, seed):
    g = catalog.space(name)
    rng = random.Random(seed)
    for _ in range(transforms):
        u, v = rng.choice(sorted(g.edges))
        g = r_transform(g, u, v, max(g.points) + 1)
    return g


class TestUnitElimination:
    """The elimination of the sparse boundary columns, +-1 pivots first and
    least-entry pivots on what is left, against the dense reference on the
    whole boundary matrix."""

    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_homology_matches_dense_reference(self, g):
        h = homology(g)
        assert (h.euler_characteristic, h.betti, h.torsion) == dense_profile(g)

    @pytest.mark.parametrize("name", ["klein_bottle_16", "projective_plane_11"])
    def test_grown_surface_carries_torsion(self, name):
        g = grown(name, 100, seed=11)
        h = homology(g)
        assert h.torsion == [[], [2], []]
        assert (h.euler_characteristic, h.betti, h.torsion) == dense_profile(g)

    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda rows: st.lists(st.lists(st.sampled_from([0, 1, -1, 2, -3, 4]),
                                       min_size=rows, max_size=rows),
                              min_size=1, max_size=6)))
    @settings(max_examples=300, deadline=None)
    def test_matrix_divisors_match_dense_snf(self, columns):
        matrix = [list(row) for row in zip(*columns)]
        sparse = [{i: x for i, x in enumerate(col) if x} for col in columns]
        divisors = determinantal_divisors(matrix)
        assert smith_normal_form(sparse) == smith_normal_form(matrix) == divisors


def complete_graph(k):
    pts = list(range(1, k + 1))
    return DigitalSpace(pts, [(i, j) for i in pts for j in pts if i < j])


class TestCompleteGraph:
    """A complete graph is a simplex: acyclic, chi 1.  Its clique complex
    is enumerated whole at any size; one cut off below its top dimension
    would rank the top degree wrong."""

    @pytest.mark.parametrize("k", [7, 8, 9, 12])
    def test_simplex_is_acyclic(self, k):
        h = homology(complete_graph(k))
        assert h.euler_characteristic == euler_characteristic(complete_graph(k)) == 1
        assert h.betti == [1] + [0] * (k - 1)
        assert not any(h.torsion)
