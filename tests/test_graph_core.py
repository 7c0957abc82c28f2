import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digital_pde.graph_core import (
    DigitalSpace,
    UnknownEdgeError,
    UnknownPointError,
    cycle_space,
    is_label,
    join,
    parse_label,
    path_space,
)
from digital_pde.canonical import are_isomorphic
from digital_pde.topology import minimal_sphere


def random_graph(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pts = list(range(1, n + 1))
    pairs = [(u, v) for u in pts for v in pts if u < v]
    edges = [p for p in pairs if draw(st.booleans())]
    return DigitalSpace(pts, edges)


graphs = st.composite(random_graph)()


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            DigitalSpace([1, 2], [(1, 1)])

    def test_rejects_dangling_edge(self):
        with pytest.raises(UnknownPointError):
            DigitalSpace([1, 2], [(1, 3)])

    @pytest.mark.parametrize("points, edges, message", [
        ([1, 2, 3], [(True, 2)], r"^edges: expected a pair of integers, got \(True, 2\)$"),
        ([1, 2, 3], [[1, 2.0]], r"^edges: expected a pair of integers, got \[1, 2.0\]$"),
        ([1.0, 2], [], "^points: expected integers, got 1.0$"),
        ([1, True], [], "^points: expected integers, got True$"),
    ], ids=["bool-endpoint", "float-endpoint", "float-point", "bool-point"])
    def test_refuses_a_label_that_is_not_an_integer(self, points, edges, message):
        with pytest.raises(ValueError, match=message):
            DigitalSpace(points, edges)

    def test_numpy_integer_labels_are_stored_as_int(self):
        g = DigitalSpace(np.arange(1, 4), [(np.int64(1), np.int64(2)), np.array([2, 3])])
        assert all(type(p) is int for p in g.points)
        assert all(type(p) is int for e in g.edges for p in e)
        assert DigitalSpace.from_json_dict(json.loads(g.to_json())) == g
        assert g.induced([np.int64(2), 3]).edges == {(2, 3)}

    def test_duplicate_edges_collapse(self):
        g = DigitalSpace([1, 2], [(1, 2), (2, 1)])
        assert len(g.edges) == 1

    def test_immutable(self):
        g = DigitalSpace([1], [])
        with pytest.raises(AttributeError):
            g.name = "x"


class TestRimBall:
    def test_octahedron_rim_is_4_cycle(self, octahedron):
        for v in octahedron.points:
            rim = octahedron.rim(v)
            assert len(rim.points) == 4
            assert len(rim.edges) == 4
            assert all(rim.degree(w) == 2 for w in rim.points)

    def test_isolated_point_rim_empty(self, s0):
        rim = s0.rim(1)
        assert rim.points == ()

    def test_one_point_ball_is_itself(self, one_point):
        ball = one_point.ball(1)
        assert set(ball.points) == {1}
        assert not ball.edges

    def test_4cycle_ball_is_path(self, four_cycle):
        ball = four_cycle.ball(1)
        assert len(ball.points) == 3
        assert len(ball.edges) == 2
        assert ball.degree(1) == 2

    def test_octahedron_ball_is_wheel(self, octahedron):
        ball = octahedron.ball(1)
        assert len(ball.points) == 5
        assert len(ball.edges) == 8  # 4-cycle plus 4 spokes
        assert ball.degree(1) == 4

    def test_unknown_point_raises(self, four_cycle):
        with pytest.raises(UnknownPointError):
            four_cycle.rim(99)

    def test_ball_is_rim_plus_center(self, octahedron):
        for v in octahedron.points:
            assert set(octahedron.ball(v).points) == \
                set(octahedron.rim(v).points) | {v}


class TestEdgeRim:
    def test_triangle_edge_rim_single_point(self, triangle):
        rim = triangle.edge_rim(1, 2)
        assert set(rim.points) == {3}

    def test_4cycle_edge_rim_empty(self, four_cycle):
        assert four_cycle.edge_rim(1, 2).points == ()

    def test_octahedron_edge_rim_is_s0(self, octahedron):
        for u, v in octahedron.edges:
            rim = octahedron.edge_rim(u, v)
            assert len(rim.points) == 2
            assert not rim.edges

    def test_non_edge_raises(self, four_cycle):
        with pytest.raises(UnknownEdgeError):
            four_cycle.edge_rim(1, 3)

    @given(graphs)
    @settings(max_examples=60, deadline=None)
    def test_edge_rim_is_rim_intersection(self, g):
        for u, v in g.edges:
            expected = set(g.rim(u).points) & set(g.rim(v).points)
            assert set(g.edge_rim(u, v).points) == expected


class TestJoin:
    def test_s0_join_s0_is_4_cycle(self, s0):
        j = join(s0, s0)
        assert are_isomorphic(j, cycle_space(4))

    def test_triple_s0_join_is_octahedron(self, s0, octahedron):
        j = join(join(s0, s0), s0)
        assert are_isomorphic(j, octahedron)

    def test_join_counts(self):
        g = cycle_space(4)
        h = path_space(3)
        j = join(g, h)
        assert len(j.points) == 7
        assert len(j.edges) == 4 + 2 + 12

    @given(graphs, graphs)
    @settings(max_examples=40, deadline=None)
    def test_join_associative_on_counts(self, g, h):
        k = path_space(2)
        left = join(join(g, h), k)
        right = join(g, join(h, k))
        assert len(left.points) == len(right.points)
        assert len(left.edges) == len(right.edges)
        assert sorted(left.degree(v) for v in left.points) == \
            sorted(right.degree(v) for v in right.points)


class TestMutationsReturnNewValues:
    def test_delete_point_of_4cycle_is_path(self, four_cycle):
        g = four_cycle.delete_point(1)
        assert are_isomorphic(g, path_space(3))
        assert len(four_cycle.points) == 4  # original untouched

    def test_delete_edge(self, four_cycle):
        g = four_cycle.delete_edge(1, 2)
        assert len(g.edges) == 3
        assert len(four_cycle.edges) == 4

    def test_delete_unknown_raises(self, four_cycle):
        with pytest.raises(UnknownPointError):
            four_cycle.delete_point(9)
        with pytest.raises(UnknownEdgeError):
            four_cycle.delete_edge(1, 3)

    @given(graphs)
    @settings(max_examples=60, deadline=None)
    def test_delete_readd_roundtrip(self, g):
        v = g.points[0]
        nbrs = g.neighbors(v)
        back = g.delete_point(v).add_point(v, nbrs)
        assert back == g


class TestConnectivity:
    def test_s0_disconnected(self, s0):
        assert not s0.is_connected()

    def test_one_point_connected(self, one_point):
        assert one_point.is_connected()

    def test_components(self, s0):
        assert len(s0.connected_components()) == 2


class TestJson:
    def test_roundtrip(self, octahedron):
        d = json.loads(octahedron.to_json())
        g = DigitalSpace.from_json_dict(d)
        assert g == octahedron
        assert d["points"] == sorted(octahedron.points)

    def test_edges_sorted(self, octahedron):
        d = octahedron.to_json_dict()
        assert d["edges"] == sorted(d["edges"])

    @pytest.mark.parametrize("doc, field", [
        ([1, 2], "graph JSON: expected an object"),
        ({"edges": []}, "points: expected a list"),
        ({"points": "abc", "edges": []}, "points: expected a list"),
        ({"points": [True, 2], "edges": []}, "points: expected integers, got True"),
        ({"points": [1.0, 2], "edges": []}, "points: expected integers, got 1.0"),
        ({"points": [1, None], "edges": []}, "points: expected integers, got None"),
        ({"points": [1, 2]}, "edges: expected a list"),
        ({"points": [1, 2], "edges": [[1, 2, 3]]}, r"edges: expected a pair of integers, got \[1, 2, 3\]"),
        ({"points": [1, 2], "edges": [[True, 2]]}, r"edges: expected a pair of integers, got \[True, 2\]"),
        ({"points": [1, 2], "edges": ["12"]}, "edges: expected a pair of integers, got '12'"),
        ({"points": [1, 2], "edges": [[1, 2]], "name": [1]}, r"name: expected a string, got \[1\]"),
        ({"points": [1, 2], "edges": [[1, 2]], "name": {"a": 1}}, "name: expected a string"),
        ({"points": [1, 2], "edges": [[1, 2]], "name": True}, "name: expected a string, got True"),
        ({"points": [1, 2], "edges": [[1, 2]], "name": 7}, "name: expected a string, got 7"),
    ], ids=["list-document", "no-points", "string-points", "bool-point", "float-point",
            "null-point", "no-edges", "triple-edge", "bool-edge", "string-edge",
            "list-name", "object-name", "bool-name", "number-name"])
    def test_refuses_non_integer_labels(self, doc, field):
        with pytest.raises(ValueError, match=field):
            DigitalSpace.from_json_dict(doc)

    @pytest.mark.parametrize("name", [{}, {"name": None}, {"name": ""}],
                             ids=["missing", "null", "empty"])
    def test_absent_name_means_no_name(self, name):
        g = DigitalSpace.from_json_dict(dict({"points": [1, 2], "edges": [[1, 2]]}, **name))
        assert g.name is None
        assert g.to_json_dict()["name"] == ""


class TestLabels:
    @given(st.integers())
    def test_parse_label_reads_str_of_every_integer(self, p):
        assert parse_label(str(p), "points") == p

    @given(st.integers())
    def test_parse_label_refuses_a_leading_zero(self, p):
        with pytest.raises(ValueError, match=f"^points: bad point label '0{p}'$"):
            parse_label("0" + str(p), "points")

    @pytest.mark.parametrize("text", ["", " 1", "1 ", "+1", "1_0", "1.0", "-0", "\u0661", "a", 1])
    def test_parse_label_refuses_other_spellings(self, text):
        with pytest.raises(ValueError, match="^points: bad point label "):
            parse_label(text, "points")

    @pytest.mark.parametrize("value, label", [
        (1, True), (-3, True), (np.int64(2), True),
        (True, False), (1.0, False), ("1", False), (None, False), ([1], False),
    ])
    def test_is_label(self, value, label):
        assert is_label(value) is label


class TestIndex:
    def test_maps_each_point_to_its_position(self):
        g = DigitalSpace([5, 2, 9], [(5, 9)])
        assert dict(g.index) == {5: 0, 2: 1, 9: 2}
        assert all(g.points[i] == p for p, i in g.index.items())
        assert dict(g.delete_point(2).index) == {5: 0, 9: 1}

    def test_read_only(self, four_cycle):
        with pytest.raises(TypeError):
            four_cycle.index[1] = 5
        with pytest.raises(TypeError):
            del four_cycle.index[1]
        with pytest.raises(AttributeError):
            four_cycle.index = {}
        assert four_cycle.index[1] == 0


class TestSubspace:
    def test_induced_keeps_parent_edges(self, octahedron):
        sub = octahedron.induced([1, 3, 4])
        expected = {e for e in octahedron.edges if set(e) <= {1, 3, 4}}
        assert sub.edges == expected

    def test_minimal_sphere_point_counts(self):
        for n in range(5):
            g = minimal_sphere(n)
            assert len(g.points) == 2 * (n + 1)
