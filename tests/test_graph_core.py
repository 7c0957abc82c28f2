import json
import re
from itertools import chain

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
from digital_pde import catalog
from digital_pde.canonical import are_isomorphic
from digital_pde.invariants import homology
from digital_pde.solver import Problem, uniform_coefficients
from digital_pde.topology import is_n_sphere, minimal_sphere


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
        ([1, 2], [1], "^edges: expected a pair of integers, got 1$"),
        ([1, 2], [(1, 2, 3)], r"^edges: expected a pair of integers, got \(1, 2, 3\)$"),
        ([1, 2], [[1]], r"^edges: expected a pair of integers, got \[1\]$"),
    ], ids=["bool-endpoint", "float-endpoint", "float-point", "bool-point", "int-edge",
            "triple-edge", "one-end-edge"])
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
        ({"points": [1, 2], "edges": [1]}, "edges: expected a pair of integers, got 1$"),
        ({"points": [1, 2], "edges": [None]}, "edges: expected a pair of integers, got None$"),
        ({"points": [1, 2], "edges": [[1, 2]], "name": [1]}, r"name: expected a string, got \[1\]"),
        ({"points": [1, 2], "edges": [[1, 2]], "name": {"a": 1}}, "name: expected a string"),
        ({"points": [1, 2], "edges": [[1, 2]], "name": True}, "name: expected a string, got True"),
        ({"points": [1, 2], "edges": [[1, 2]], "name": 7}, "name: expected a string, got 7"),
    ], ids=["list-document", "no-points", "string-points", "bool-point", "float-point",
            "null-point", "no-edges", "triple-edge", "bool-edge", "string-edge", "number-edge",
            "null-edge",
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
        assert dict(g.induced([9, 2]).index) == {2: 0, 9: 1}

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


class TestCountArguments:
    @pytest.mark.parametrize("build", [cycle_space, path_space])
    @pytest.mark.parametrize("n", [4.0, 2.5, True, "4", None], ids=repr)
    def test_refuses_a_count_that_is_not_an_integer(self, build, n):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
            build(n)

    def test_numpy_integer_count(self):
        assert cycle_space(np.int64(4)) == cycle_space(4)
        assert path_space(np.int8(3)).points == (1, 2, 3)
        with pytest.raises(ValueError, match="^cycle needs at least 3 points$"):
            cycle_space(2)


def assert_same_graph(got, want):
    assert got.points == want.points
    assert dict(got.index) == dict(want.index)
    assert dict(got.adjacency) == dict(want.adjacency)
    assert got.edges == want.edges
    assert got.name == want.name
    assert got.to_json() == want.to_json()
    labels = [*got.points, *got.adjacency, *chain.from_iterable(got.adjacency.values())]
    assert all(type(p) is int for p in labels)


def maybe_numpy(draw, p):
    return np.int64(p) if draw(st.booleans()) else p


@st.composite
def derived_graphs(draw):
    """A graph with distinct labels in any order, one of its derived graphs,
    with NumPy integers among the arguments, and the reference: the graph
    the checking constructor builds from the filtered edge list, as every
    derived graph was once made."""
    points = draw(st.lists(st.integers(-20, 20), unique=True, max_size=9))
    pairs = [(u, v) for i, u in enumerate(points) for v in points[i + 1:]]
    edges = [e for e in pairs if draw(st.booleans())]
    name = draw(st.sampled_from([None, "g"]))
    g = DigitalSpace(points, edges, name=name)
    ops = ["induced", "delete_points", "add_point"] + ["delete_edge"] * bool(edges)
    ops += ["add_edge"] * (len(edges) < len(pairs))
    op = draw(st.sampled_from(ops))
    if op in ("induced", "delete_points"):
        named = draw(st.lists(st.sampled_from(points), max_size=len(points) + 2)) if points else []
        arg = [maybe_numpy(draw, p) for p in named]
        if op == "induced":
            sub = set(named)
            want = DigitalSpace([p for p in points if p in sub],
                                [e for e in edges if e[0] in sub and e[1] in sub])
            return g.induced(arg), want
        gone = set(named)
        want = DigitalSpace([p for p in points if p not in gone],
                            [e for e in edges if e[0] not in gone and e[1] not in gone],
                            name=name)
        return g.delete_points(arg), want
    if op == "add_point":
        v = draw(st.integers(21, 30))
        nbrs = draw(st.lists(st.sampled_from(points), unique=True)) if points else []
        want = DigitalSpace(points + [v], edges + [(v, u) for u in nbrs], name=name)
        return g.add_point(maybe_numpy(draw, v), [maybe_numpy(draw, u) for u in nbrs]), want
    pool = edges if op == "delete_edge" else [e for e in pairs if e not in edges]
    u, v = draw(st.sampled_from(pool))
    if draw(st.booleans()):
        u, v = v, u
    pair = (maybe_numpy(draw, u), maybe_numpy(draw, v))
    if op == "delete_edge":
        want = DigitalSpace(points, [e for e in edges if set(e) != {u, v}], name=name)
        return g.delete_edge(*pair), want
    return g.add_edge(*pair), DigitalSpace(points, edges + [(u, v)], name=name)


class TestDerivedGraphs:
    @given(derived_graphs())
    @settings(max_examples=300, deadline=None)
    def test_equal_the_checked_graph_of_the_filtered_edges(self, drawn):
        got, want = drawn
        assert_same_graph(got, want)

    def test_read_neither_edges_nor_the_checking_constructor(self, monkeypatch):
        """Every reader of the graph, and the graphs derived from it, work
        from the neighbour sets: ``edges`` raises, and so does the checking
        constructor, for the whole run."""
        g, patch = minimal_sphere(2), catalog.digital_plane_patch(4, 4).space
        copy = DigitalSpace(g.points, g.edges)
        c = uniform_coefficients(g, 0.1, 0.6)

        def refuse(*args, **kwargs):
            raise AssertionError("read the edge set or ran the checking constructor")

        monkeypatch.setattr(DigitalSpace, "edges", property(refuse))
        monkeypatch.setattr(DigitalSpace, "__init__", refuse)
        assert g.rim(1).points == (3, 4, 5, 6) and g.ball(1).points == (1, 3, 4, 5, 6)
        assert g.edge_rim(1, 3).points == (5, 6)
        assert g.delete_points([1, 2]).points == (3, 4, 5, 6)
        assert not g.delete_edge(1, 3).has_edge(3, 1) and g.has_edge(3, 1)
        assert copy == g and g.delete_edge(1, 3) != g
        assert len(g.ball_keys()) == 6 + 2 * 12
        assert is_n_sphere(g, 2).ok
        assert homology(patch).betti == [1, 0, 0]
        assert Problem(copy, c, np.ones(6)).coefficients.space is g
        assert uniform_coefficients(patch, 0.1, 0.5).n == 16
