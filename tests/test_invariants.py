from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digital_pde.graph_core import DigitalSpace
from digital_pde.invariants import (
    boundary_matrix,
    clique_complex,
    euler_characteristic,
    homology,
    smith_normal_form,
)
from digital_pde.topology import cone, minimal_sphere


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

    def test_max_dim_cap(self, octahedron):
        cx = clique_complex(octahedron, max_dim=1)
        assert cx.max_dim == 1

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


class TestSmithNormalForm:
    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == []
        assert smith_normal_form([]) == []

    def test_identity(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]

    def test_diag_2_3(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]

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
                d_k = boundary_matrix(cx, k)
                d_km1 = boundary_matrix(cx, k - 1)
                rows = len(d_km1)
                for j in range(len(d_k[0])):
                    col = [sum(d_km1[i][l] * d_k[l][j] for l in range(len(d_k)))
                           for i in range(rows)]
                    assert all(x == 0 for x in col)

    def test_json_shape(self, klein):
        d = homology(klein).to_json_dict()
        assert set(d) == {"chi", "betti", "torsion"}


def complete_graph(k):
    pts = list(range(1, k + 1))
    return DigitalSpace(pts, [(i, j) for i in pts for j in pts if i < j])


class TestCliqueTruncation:
    """A complete graph is a simplex: acyclic, chi 1.  Its clique complex
    reaches past the default max_dim from K8 on."""

    def test_k7_within_default(self):
        h = homology(complete_graph(7))
        assert h.euler_characteristic == 1
        assert h.betti == [1, 0, 0, 0, 0, 0, 0]
        assert not any(h.torsion)

    def test_k8_refused_at_default(self):
        with pytest.raises(ValueError, match="max_dim=6"):
            homology(complete_graph(8))
        with pytest.raises(ValueError, match="max_dim=6"):
            euler_characteristic(complete_graph(8))

    def test_k8_with_room(self):
        h = homology(complete_graph(8), max_dim=7)
        assert h.euler_characteristic == 1
        assert h.betti == [1] + [0] * 7

    def test_k9_refused_at_default(self):
        with pytest.raises(ValueError, match="max_dim=6"):
            homology(complete_graph(9))

    def test_k9_with_room(self):
        h = homology(complete_graph(9), max_dim=8)
        assert h.euler_characteristic == 1
        assert h.betti == [1] + [0] * 8
        assert not any(h.torsion)
