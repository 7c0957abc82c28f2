"""Differential tests: the topology module against the recursive oracle
in ``reference_topology`` on random graphs of at most 9 points."""

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


@settings(max_examples=150, deadline=None)
@given(small_spaces, st.integers(1, 3))
def test_recognizers_match_reference(g, n):
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
