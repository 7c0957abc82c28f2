"""Contractibility, simple points, digital spheres/manifolds/surfaces.

The central notion is contractibility: a one-point graph is
contractible, and so is any graph that can be reduced to one point by
sequentially deleting simple points (a point is simple when its rim is
contractible; an edge is simple when its edge rim is contractible).

On top of that sit the recursive recognizers: a digital n-sphere is a
connected graph all of whose rims are (n-1)-spheres and which stays
contractible after deleting any single point; an n-manifold only needs
the rim condition.  A 0-sphere is two isolated points.

Every graph these checks visit (rims, rims of rims, G - v, the
intermediate graphs of a deletion search) is an induced subgraph of the
graph the check started on.  So each public call makes one
``_Verdicts`` over its input, names every such subgraph by its point
set, and decides it from the input's adjacency without building it.
Verdicts are memoized by point set for the length of that call only.
Greedy deletion can dead-end in principle, so contractibility is a
depth-first search over deletion choices, run on an explicit stack
because a deletion sequence is as long as the graph.  A graph with a
point adjacent to all others is contractible outright (the cone lemma).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .graph_core import DigitalSpace, Subspace, UnknownEdgeError, UnknownPointError, join


def clear_caches() -> None:
    """Kept for callers that reset state between runs.

    Verdict memos live only as long as one public call, so there is
    nothing left to clear.
    """


@dataclass
class ReductionTrace:
    """Sequence of simple-point deletions applied to a start graph."""

    deleted_points: List[int] = field(default_factory=list)
    terminal: Optional[DigitalSpace] = None

    def replay(self, start: DigitalSpace) -> DigitalSpace:
        g = start
        for v in self.deleted_points:
            if not is_simple_point(g, v):
                raise ValueError(f"point {v} was not simple at its deletion step")
            g = g.delete_point(v)
        return g


@dataclass
class ManifoldReport:
    """Outcome of a sphere/manifold/surface check, with a failure witness."""

    space: str
    n: int
    kind: str  # "sphere" | "manifold" | "surface"
    ok: bool
    witness_point: Optional[int] = None
    witness_reason: Optional[str] = None

    def to_json_dict(self) -> dict:
        witness = None
        if not self.ok:
            witness = {"point": self.witness_point, "reason": self.witness_reason}
        return {
            "space": self.space,
            "n": self.n,
            "verdict": f"{self.n}-{self.kind}" if self.ok else "none",
            "witness": witness,
        }


class _Verdicts:
    """Memoized verdicts on the induced subgraphs of one graph.

    A subgraph is given by its point set: the rim of v in S is
    ``adj[v] & S`` and S - v is ``S - {v}``.  Point sets passed in must
    be nonempty unless a method says otherwise.
    """

    def __init__(self, g: DigitalSpace):
        self.adj = {v: g.neighbors(v) for v in g.points}
        self._contractible: Dict[frozenset, bool] = {}
        self._sphere: Dict[Tuple[frozenset, int], bool] = {}
        self._surface: Dict[Tuple[frozenset, int], bool] = {}

    def connected(self, pts: frozenset) -> bool:
        adj = self.adj
        start = next(iter(pts))
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()] & pts:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(pts)

    def is_simple(self, live: frozenset, v) -> bool:
        rim = self.adj[v] & live
        return bool(rim) and self.contractible(rim)

    def contractible(self, pts: frozenset) -> bool:
        known = self._contractible.get(pts)
        if known is None:
            others = len(pts) - 1
            known = others == 0 or (
                self.connected(pts)
                and (any(len(self.adj[v] & pts) == others for v in pts)  # cone
                     or self.reduction(pts) is not None))
            self._contractible[pts] = known
        return known

    def _simple_points(self, live: frozenset) -> Iterator[int]:
        """Simple points of ``live``, smallest rim first, then by label."""
        adj = self.adj
        for _, v in sorted((len(adj[v] & live), v) for v in live):
            if self.is_simple(live, v):
                yield v

    def reduction(self, start: frozenset) -> Optional[List[int]]:
        """Simple-point deletions reducing connected ``start`` to one
        point, the first such sequence in search order, or None."""
        memo = self._contractible
        order: List[int] = []
        stack = [(start, self._simple_points(start))]
        while len(stack[-1][0]) > 1:
            live, candidates = stack[-1]
            for v in candidates:
                rest = live - {v}
                if memo.get(rest) is not False:
                    order.append(v)
                    stack.append((rest, self._simple_points(rest)))
                    break
            else:
                memo[live] = False
                stack.pop()
                if not stack:
                    return None
                order.pop()
        for live, _ in stack:
            memo[live] = True
        return order

    def _two_isolated(self, pts: frozenset) -> bool:
        return len(pts) == 2 and not any(self.adj[v] & pts for v in pts)

    def sphere(self, pts: frozenset, n: int) -> bool:
        """Digital n-sphere verdict; ``pts`` may be empty."""
        if n <= 0:
            return n == 0 and self._two_isolated(pts)
        key = (pts, n)
        known = self._sphere.get(key)
        if known is None:
            adj = self.adj
            # The definition quantifies over every point: S - v must be
            # contractible for each v, not just one sample.
            known = (len(pts) >= 2 and self.connected(pts)
                     and all(self.sphere(adj[v] & pts, n - 1) for v in pts)
                     and all(self.contractible(pts - {v}) for v in pts))
            self._sphere[key] = known
        return known

    def surface(self, pts: frozenset, n: int) -> bool:
        """Digital n-surface verdict; ``pts`` may be empty."""
        if n <= 0:
            return n == 0 and self._two_isolated(pts)
        key = (pts, n)
        known = self._surface.get(key)
        if known is None:
            adj = self.adj
            known = (len(pts) > 0 and self.connected(pts)
                     and all(self.surface(adj[v] & pts, n - 1) for v in pts))
            self._surface[key] = known
        return known


# ---------------------------------------------------------------------------
# contractibility
# ---------------------------------------------------------------------------

def is_contractible(g: DigitalSpace) -> Tuple[bool, Optional[ReductionTrace]]:
    """Decide reducibility to one point by simple-point deletions.

    Returns the verdict and, when contractible, a witnessing deletion
    order.  The search is exact: it backtracks over deletion choices
    rather than trusting a greedy order.
    """
    if len(g.points) == 0:
        raise ValueError("contractibility is undefined for the empty graph")
    if not g.is_connected():
        return False, None
    order = _Verdicts(g).reduction(frozenset(g.points))
    if order is None:
        return False, None
    terminal = g.delete_points(order) if order else g
    return True, ReductionTrace(deleted_points=order, terminal=terminal)


def is_simple_point(g: DigitalSpace, v) -> bool:
    """A point is simple when its rim is contractible."""
    rim = g.neighbors(v)
    return bool(rim) and _Verdicts(g).contractible(rim)


def is_simple_edge(g: DigitalSpace, u, v) -> bool:
    """An edge is simple when its edge rim is contractible."""
    if not g.has_edge(u, v):
        raise UnknownEdgeError(f"({u},{v}) is not an edge")
    rim = g.neighbors(u) & g.neighbors(v)
    return bool(rim) and _Verdicts(g).contractible(rim)


# ---------------------------------------------------------------------------
# contractible transformations
# ---------------------------------------------------------------------------

def attach_point(g: DigitalSpace, rim_points, new_id) -> DigitalSpace:
    """Glue a new point whose rim is the given contractible subgraph."""
    rim = frozenset(rim_points)
    for p in rim:
        if p not in g:
            raise UnknownPointError(f"unknown point {p}")
    if not rim or not _Verdicts(g).contractible(rim):
        raise ValueError("attachment rim is not contractible")
    return g.add_point(new_id, rim_points)


def attach_edge(g: DigitalSpace, u, v) -> DigitalSpace:
    """Insert edge (u,v); valid only if the edge is simple afterwards."""
    result = g.add_edge(u, v)
    if not is_simple_edge(result, u, v):
        raise ValueError(f"edge ({u},{v}) would not be simple")
    return result


def r_transform(m: DigitalSpace, u, v, new_id) -> DigitalSpace:
    """Replace the edge (u,v) by a new point.

    The new point is glued with rim {u, v} plus the common neighbors
    of u and v, and the edge (u,v) is removed.  On a digital manifold
    this is a homeomorphism: it adds one point and keeps both local
    and global topology.
    """
    if not m.has_edge(u, v):
        raise UnknownEdgeError(f"({u},{v}) is not an edge")
    common = m.neighbors(u) & m.neighbors(v)
    return m.add_point(new_id, common | {u, v}).delete_edge(u, v)


def homotopy_reduce(g: DigitalSpace) -> Tuple[DigitalSpace, ReductionTrace]:
    """Delete simple points (smallest label first) until none remain.

    The result is homotopy-equivalent to the input by construction; it
    is a heuristic core, not a minimal model.
    """
    if len(g.points) == 0:
        raise ValueError("cannot reduce the empty graph")
    verdicts = _Verdicts(g)
    live = frozenset(g.points)
    remaining = sorted(live)
    deleted = []
    while len(remaining) > 1:
        for v in remaining:
            if verdicts.is_simple(live, v):
                live = live - {v}
                remaining.remove(v)
                deleted.append(v)
                break
        else:
            break
    core = g.delete_points(deleted) if deleted else g
    return core, ReductionTrace(deleted_points=deleted, terminal=core)


# ---------------------------------------------------------------------------
# spheres, manifolds, surfaces
# ---------------------------------------------------------------------------

def _sphere_verdict(g: DigitalSpace, n: int) -> bool:
    return _Verdicts(g).sphere(frozenset(g.points), n)


def _report(g: DigitalSpace, n: int, kind: str) -> ManifoldReport:
    """Check every rim (and, for a sphere, every G - v), naming the
    first point in point order that fails."""
    name = g.name or "space"
    if not g.is_connected():
        return ManifoldReport(name, n, kind, False, witness_reason="not connected")
    verdicts = _Verdicts(g)
    rim_kind = "surface" if kind == "surface" else "sphere"
    rim_ok = verdicts.surface if kind == "surface" else verdicts.sphere
    for v in g.points:
        if not rim_ok(verdicts.adj[v], n - 1):
            return ManifoldReport(name, n, kind, False, v,
                                  f"rim of {v} is not a {n - 1}-{rim_kind}")
    if kind == "sphere":
        everything = frozenset(g.points)
        for v in g.points:
            if not verdicts.contractible(everything - {v}):
                return ManifoldReport(name, n, kind, False, v,
                                      f"deleting {v} leaves a non-contractible graph")
    return ManifoldReport(name, n, kind, True)


def _zero_sphere_report(g: DigitalSpace, kind: str) -> ManifoldReport:
    ok = len(g.points) == 2 and len(g.edges) == 0
    return ManifoldReport(g.name or "space", 0, kind, ok,
                          witness_reason=None if ok else "not two isolated points")


def is_n_sphere(g: DigitalSpace, n: int) -> ManifoldReport:
    """Check the recursive digital n-sphere definition, with witness."""
    if n == 0:
        return _zero_sphere_report(g, "sphere")
    return _report(g, n, "sphere")


def is_n_manifold(g: DigitalSpace, n: int) -> ManifoldReport:
    """Connected graph whose every rim is a digital (n-1)-sphere."""
    if n < 1:
        raise ValueError("manifold dimension must be >= 1")
    return _report(g, n, "manifold")


def is_n_surface(g: DigitalSpace, n: int) -> ManifoldReport:
    """Recursive surface check; the n=0 base case is the 0-sphere."""
    if n == 0:
        return _zero_sphere_report(g, "surface")
    return _report(g, n, "surface")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def zero_sphere() -> DigitalSpace:
    return DigitalSpace([1, 2], [], name="s0")


def minimal_sphere(n: int) -> DigitalSpace:
    """Join of (n+1) copies of the 0-sphere: complete (n+1)-partite
    graph with parts of size two, 2(n+1) points total."""
    if n < 0:
        raise ValueError("sphere dimension must be >= 0")
    pts = list(range(1, 2 * (n + 1) + 1))
    # Points 2i-1, 2i form the i-th antipodal pair (no edge inside a pair).
    edges = []
    for i in pts:
        for j in pts:
            if i < j and (i - 1) // 2 != (j - 1) // 2:
                edges.append((i, j))
    return DigitalSpace(pts, edges, name=f"s{n}_min")


def disk_from_sphere(m: DigitalSpace, v) -> Tuple[DigitalSpace, Subspace, Subspace]:
    """Split a sphere at v into a disk, its boundary, and its interior.

    Returns (disk = m - v, boundary = rim of v, interior = disk minus
    boundary).  The caller is responsible for m actually being a
    sphere; the decomposition itself is purely structural.
    """
    boundary = m.rim(v)
    disk = m.delete_point(v)
    interior = disk.induced(set(disk.points) - set(boundary.points))
    return disk, boundary, interior


def cone(g: DigitalSpace) -> DigitalSpace:
    """Join with a single apex point; always contractible."""
    apex = DigitalSpace([1], [], name="pt")
    return join(apex, g, name=f"cone({g.name or 'space'})")
