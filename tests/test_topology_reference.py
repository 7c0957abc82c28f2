"""Differential tests: the topology module against the recursive oracle
in ``reference_topology`` on random graphs of at most 9 points, and on
the grown surfaces and spheres of the benchmark and the minimal spheres."""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digital_pde import catalog
from digital_pde.graph_core import DigitalSpace, join
from digital_pde.topology import (
    cone,
    homotopy_reduce,
    is_contractible,
    is_n_manifold,
    is_n_sphere,
    is_n_surface,
    minimal_sphere,
    r_transform,
)

import reference_topology as ref


@st.composite
def graphs(draw, max_points=9):
    """Random graph with distinct, unordered labels so that label order
    and point order both matter to the checks."""
    n = draw(st.integers(1, max_points))
    labels = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n, unique=True))
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return DigitalSpace(labels, [e for e, k in zip(pairs, keep) if k])


@st.composite
def grown_spheres(draw):
    """A minimal 1-, 2- or 3-sphere grown by R-transforms to at most 9
    points, sometimes with a point deleted (a disk), then relabeled and
    reordered."""
    g = minimal_sphere(draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(0, 9 - len(g.points)))):
        u, v = draw(st.sampled_from(sorted(g.edges)))
        g = r_transform(g, u, v, max(g.points) + 1)
    if draw(st.booleans()):
        g = g.delete_point(draw(st.sampled_from(g.points)))
    labels = draw(st.lists(st.integers(1, 40), min_size=len(g.points),
                           max_size=len(g.points), unique=True))
    relabel = dict(zip(g.points, labels))
    order = draw(st.permutations(labels))
    return DigitalSpace(order, [(relabel[a], relabel[b]) for a, b in g.edges])


# Random graphs are almost never spheres or manifolds; grown spheres and
# joins (a join of spheres is a sphere) give the "yes" verdicts.
small_spaces = st.one_of(
    graphs(),
    grown_spheres(),
    st.builds(join, graphs(max_points=4), graphs(max_points=5)),
)


def report_tuple(report):
    return report.ok, report.witness_point, report.witness_reason


@settings(max_examples=300, deadline=None)
@given(small_spaces)
def test_contractible_matches_reference(g):
    ok, trace = is_contractible(g)
    ref_ok, ref_order = ref.contractible_order(g)
    assert ok == ref_ok
    if ok:
        assert trace.deleted_points == ref_order
        assert trace.replay(g) == trace.terminal
    else:
        assert trace is None


@settings(max_examples=200, deadline=None)
@given(small_spaces, st.integers(0, 3))
def test_recognizers_match_reference(g, n):
    assert report_tuple(is_n_sphere(g, n)) == ref.sphere_report(g, n)
    if n == 0:
        with pytest.raises(ValueError):
            is_n_manifold(g, n)
    else:
        assert report_tuple(is_n_manifold(g, n)) == ref.manifold_report(g, n)
    assert report_tuple(is_n_surface(g, n)) == ref.surface_report(g, n)


def random_graph(rng, max_points=9):
    n = rng.randint(1, max_points)
    labels = rng.sample(range(1, 41), n)
    p = rng.random()
    return DigitalSpace(labels, [(labels[i], labels[j]) for i in range(n)
                                 for j in range(i + 1, n) if rng.random() < p])


def grown_2_sphere(rng, max_points=20):
    """``minimal_sphere(2)`` or ``sphere2_8`` grown by R-transforms on
    uniformly drawn edges to at most ``max_points`` points."""
    g = rng.choice([minimal_sphere(2), catalog.space("sphere2_8")])
    for _ in range(rng.randint(0, max_points - len(g.points))):
        u, v = rng.choice(sorted(g.edges))
        g = r_transform(g, u, v, max(g.points) + 1)
    return g


# The S - v verdicts of a sphere are reached only by sets whose rims are
# all spheres, which random graphs rarely are.  So most of the corpus is
# grown 2-spheres, each checked as it is, with one edge deleted, and with
# a point attached to the rim of one point (a second point with that rim).
@pytest.mark.parametrize("seed", range(4))
def test_recognizers_on_grown_spheres_match_reference(seed):
    rng = random.Random(seed)
    spaces = [random_graph(rng) for _ in range(30)]
    for _ in range(10):
        g = grown_2_sphere(rng)
        spaces += [g, g.delete_edge(*rng.choice(sorted(g.edges))),
                   g.add_point(max(g.points) + 1, g.neighbors(rng.choice(g.points)))]
    for g in spaces:
        for n in (1, 2, 3):
            assert report_tuple(is_n_sphere(g, n)) == ref.sphere_report(g, n)
            assert report_tuple(is_n_manifold(g, n)) == ref.manifold_report(g, n)
            assert report_tuple(is_n_surface(g, n)) == ref.surface_report(g, n)


@settings(max_examples=100, deadline=None)
@given(graphs(max_points=8))
def test_cone_is_contractible(g):
    ok, trace = is_contractible(cone(g))
    assert ok
    assert len(trace.terminal.points) == 1


@settings(max_examples=100, deadline=None)
@given(small_spaces)
def test_homotopy_reduce_trace_replays(g):
    core, trace = homotopy_reduce(g)
    assert trace.replay(g) == core


@settings(max_examples=150, deadline=None)
@given(small_spaces)
def test_homotopy_reduce_order_matches_reference(g):
    # small_spaces relabels and reorders points, so label order and point
    # order differ: the deletion order must follow the labels.
    assert homotopy_reduce(g)[1].deleted_points == ref.reduce_order(g)


def test_large_patch_without_recursion_limit():
    # A deletion sequence is as long as the graph: 400 points here,
    # deeper than Python's default recursion limit allows recursing.
    g = catalog.digital_plane_patch(20, 20).space
    ok, trace = is_contractible(g)
    assert ok
    assert len(trace.deleted_points) == 399
    assert trace.replay(g) == trace.terminal


def test_suspended_surfaces_match_reference():
    # The rims of the two apexes are closed surfaces whose own rims are all
    # circles, so only the inner "G - v contractible" clause tells the
    # projective plane from a 2-sphere; the suspended sphere2_8 is a 3-sphere.
    s0 = DigitalSpace([1, 2], [])
    for name in ("projective_plane_11", "sphere2_8"):
        g = join(s0, catalog.space(name))
        for check, oracle in ((is_n_sphere, ref.sphere_report),
                              (is_n_manifold, ref.manifold_report)):
            assert report_tuple(check(g, 3)) == oracle(g, 3)


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture()
def bench_inputs(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import inputs
    return inputs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grown_spaces_match_reference(bench_inputs, seed):
    # The closed surfaces of the surface workload (31-36 points) and the
    # grown spheres of the recognize workload; n = 1 and 3 give witnesses.
    for item in bench_inputs.surface_inputs(seed)[:3]:
        g = item.space
        assert len(g.points) > 9
        for n in (1, 2, 3):
            assert report_tuple(is_n_manifold(g, n)) == ref.manifold_report(g, n)
            assert report_tuple(is_n_surface(g, n)) == ref.surface_report(g, n)
    for item in bench_inputs.recognize_inputs(seed)[:2]:
        for n in (1, 2, 3):
            assert report_tuple(is_n_sphere(item.space, n)) == ref.sphere_report(item.space, n)


# minimal_sphere(d) at n = d - 1, d and d + 1.  The oracle takes about a
# minute on minimal_sphere(5) at n = 5 (twelve searches of an 11-point
# cone and twelve unmemoized 4-sphere checks), so that case is compared
# with its known verdict: a join of 0-spheres is a sphere.
@pytest.mark.parametrize("d, n", [(d, n) for d in range(6) for n in range(max(d - 1, 0), d + 2)])
def test_minimal_spheres_match_reference(d, n):
    g = minimal_sphere(d)
    expected = (True, None, None) if (d, n) == (5, 5) else ref.sphere_report(g, n)
    assert report_tuple(is_n_sphere(g, n)) == expected
