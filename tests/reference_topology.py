"""Reference oracle for the topology module's verdicts.

A direct transcription of the recursive definitions: every rim, rim of
a rim and G - v is built as its own graph, the deletion search recurses
on Python's stack with a dead-state set local to each call, and nothing
is shared between calls.  It is slow and small-input only; the tests
compare ``digital_pde.topology`` against it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


def contractible_order(g) -> Tuple[bool, Optional[List[int]]]:
    """Verdict and deletion order, trying smallest rim first, then label."""
    if len(g.points) == 0:
        raise ValueError("contractibility is undefined for the empty graph")
    if not g.is_connected():
        return False, None
    dead: set = set()
    adj = {v: g.neighbors(v) for v in g.points}

    def rim_contractible(live: frozenset, v) -> bool:
        rim_pts = adj[v] & live
        if not rim_pts:
            return False
        return contractible_order(g.induced(rim_pts))[0]

    def search(live: frozenset) -> Optional[List[int]]:
        if len(live) == 1:
            return []
        if live in dead:
            return None
        candidates = sorted(
            (v for v in live if rim_contractible(live, v)),
            key=lambda v: (len(adj[v] & live), v),
        )
        for v in candidates:
            rest = search(live - {v})
            if rest is not None:
                return [v] + rest
        dead.add(live)
        return None

    order = search(frozenset(g.points))
    return order is not None, order


def reduce_order(g) -> List[int]:
    """Points that homotopy reduction deletes, in order: each time the
    smallest label whose rim is nonempty and contractible, until one
    point or no simple point is left."""
    order: List[int] = []
    while len(g.points) > 1:
        simple = [v for v in sorted(g.points)
                  if g.neighbors(v) and contractible_order(g.rim(v))[0]]
        if not simple:
            break
        order.append(simple[0])
        g = g.delete_point(simple[0])
    return order


def _sphere(g, n: int) -> bool:
    if n < 0:
        return False
    if n == 0:
        return len(g.points) == 2 and len(g.edges) == 0
    if not g.is_connected() or len(g.points) < 2:
        return False
    return (all(_sphere(g.rim(v), n - 1) for v in g.points)
            and all(contractible_order(g.delete_point(v))[0] for v in g.points))


def _surface(g, n: int) -> bool:
    if n < 0:
        return False
    if n == 0:
        return len(g.points) == 2 and len(g.edges) == 0
    return (g.is_connected() and len(g.points) > 0
            and all(_surface(g.rim(v), n - 1) for v in g.points))


def _zero_report(g):
    """(ok, witness_point, witness_reason) of the n = 0 sphere and
    surface checks: two isolated points."""
    if _sphere(g, 0):
        return True, None, None
    return False, None, "not two isolated points"


def sphere_report(g, n: int):
    """(ok, witness_point, witness_reason) of the n-sphere check, n >= 0."""
    if n == 0:
        return _zero_report(g)
    if not g.is_connected():
        return False, None, "not connected"
    for v in g.points:
        if not _sphere(g.rim(v), n - 1):
            return False, v, f"rim of {v} is not a {n - 1}-sphere"
    for v in g.points:
        if not contractible_order(g.delete_point(v))[0]:
            return False, v, f"deleting {v} leaves a non-contractible graph"
    return True, None, None


def manifold_report(g, n: int):
    """(ok, witness_point, witness_reason) of the n-manifold check, n >= 1."""
    if not g.is_connected():
        return False, None, "not connected"
    for v in g.points:
        if not _sphere(g.rim(v), n - 1):
            return False, v, f"rim of {v} is not a {n - 1}-sphere"
    return True, None, None


def surface_report(g, n: int):
    """(ok, witness_point, witness_reason) of the n-surface check, n >= 0."""
    if n == 0:
        return _zero_report(g)
    if not g.is_connected():
        return False, None, "not connected"
    for v in g.points:
        if not _surface(g.rim(v), n - 1):
            return False, v, f"rim of {v} is not a {n - 1}-surface"
    return True, None, None
