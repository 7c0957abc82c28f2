"""Contractibility, simple points, digital spheres/manifolds/surfaces.

The central notion is contractibility: a one-point graph is
contractible, and so is any graph that can be reduced to one point by
sequentially deleting simple points (a point is simple when its rim is
contractible; an edge is simple when its edge rim is contractible).

On top of that sits one recursion over rims: a digital n-sphere is a
connected graph all of whose rims are (n-1)-spheres and which stays
contractible after deleting any single point; an n-manifold only needs
the rim condition, and an n-surface asks its rims to be (n-1)-surfaces.
A 0-sphere (and a 0-surface) is two isolated points.  The same
recursion gives the verdict of an inner level and the witness of the
top level: it returns the first point, in point order, that breaks the
definition, with the reason.

Every graph these checks visit (rims, rims of rims, G - v, the
intermediate graphs of a deletion search) is an induced subgraph of the
graph the check started on.  So each public call makes one
``_Verdicts`` over its input, names every such subgraph by its point
set, and decides it from the input's adjacency without building it.
Verdicts are memoized by point set for the length of that call only.
A verdict alone needs no search for a cone (a point adjacent to all
others), a set with fewer than |S| - 1 edges (disconnected) or a
connected one with exactly |S| - 1 edges (a tree, whose leaves are
simple).  Greedy deletion can dead-end in principle, so otherwise
contractibility is a depth-first search over deletion choices that
holds one state: the live points in buckets by rim size, each sorted by
label; each point's simple verdict, kept until a neighbour is deleted
or put back (a point found not simple leaves its bucket until then);
and the (rim size, label) key of each deletion.  A backtrack puts the
last deleted point back and resumes just after its key.  Dead states
are remembered as int masks over the point index.
Homotopy reduction keeps a heap of the points whose verdict a deletion
may have changed.

A "no" would need every deletion order, so the Euler characteristic of
the clique complex cuts it short.  The cliques containing a point v are
v joined to a clique of its rim, so chi(G) = chi(G - v) + 1 - chi(rim
of v); a simple point's rim is contractible, so by induction a
contractible graph has chi = 1 and a simple deletion keeps chi.  The
first time a search would backtrack from below its start, it counts chi
of that state on bitsets and answers "no" when chi != 1.  A graph with
chi = 1 is still searched in full.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Set, Tuple

from .graph_core import DigitalSpace, UnknownEdgeError, as_integer, join
from .invariants import chi_counter


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
        points = [start.points[i] for i in start.positions(self.deleted_points, "deleted_points")]
        if len(set(points)) != len(points):
            raise ValueError(f"deleted_points: repeated points in {points}")
        verdicts = _Verdicts(start)
        live = set(start.points)
        for v in points:
            if not verdicts.simple(verdicts.adj[v] & live):
                raise ValueError(f"point {v} was not simple at its deletion step")
            live.remove(v)
        return start.delete_points(points) if points else start


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


Failure = Tuple[Optional[int], str]  # (point, reason)


class _Verdicts:
    """Memoized verdicts on the induced subgraphs of one graph.

    A subgraph is given by its point set: the rim of v in S is
    ``adj[v] & S`` and S - v is ``S - {v}``.  Point sets passed in must
    be nonempty unless a method says otherwise.
    """

    def __init__(self, g: DigitalSpace):
        self.g = g
        self.adj = g.adjacency
        self.index = g.index
        self._contractible: Dict[frozenset, bool] = {}
        self._dead: Set[int] = set()  # masks of dead search states
        self._chi: Optional[Callable[[frozenset], int]] = None  # once chi is needed
        self._failure: Dict[Tuple[frozenset, int, str], Optional[Failure]] = {}

    def connected(self, pts: frozenset, rims: Optional[Dict[int, frozenset]] = None) -> bool:
        """``rims``, when given, maps each point of ``pts`` to its rim in a
        superset of ``pts``; the walk keeps only the points of ``pts``."""
        rims = self.adj if rims is None else rims
        start = next(iter(pts))
        seen = {start}
        stack = [start]
        while stack:
            for w in rims[stack.pop()]:
                if w not in seen and w in pts:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(pts)

    def isolated_pair(self, pts: frozenset) -> bool:
        """A 0-sphere: two points, neither in the other's rim."""
        if len(pts) != 2:
            return False
        u, v = pts
        return v not in self.adj[u]

    def simple(self, rim: frozenset) -> bool:
        """A point or an edge is simple when its rim is nonempty and contractible."""
        return bool(rim) and self.contractible(rim)

    def contractible(self, pts: frozenset, rim_size: Optional[Dict[int, int]] = None,
                     connected: bool = False) -> bool:
        """Decided from the rim sizes inside ``pts`` where they suffice:
        a cone (a point adjacent to all others, as a lone point is) is
        contractible, fewer than |pts| - 1 edges leave ``pts`` disconnected, and a connected
        set with exactly |pts| - 1 edges is a tree, whose leaves are
        simple.  Only the remaining sets are searched.  A caller that
        has the rim sizes inside ``pts`` passes them (the search uses
        them up), and one that knows ``pts`` is connected says so, which
        skips the walk."""
        known = self._contractible.get(pts)
        if known is None:
            others = len(pts) - 1
            if rim_size is None:
                rim_size = {v: len(self.adj[v] & pts) for v in pts}
            edges = sum(rim_size.values()) // 2
            known = others in rim_size.values() or (
                edges >= others and (connected or self.connected(pts))
                and (edges == others or self.reduction(pts, rim_size) is not None))
            self._contractible[pts] = known
        return known

    def euler_characteristic(self, pts: frozenset) -> int:
        """chi of the clique complex of ``pts``, counted on bitsets."""
        if self._chi is None:
            self._chi = chi_counter(self.g)
        return self._chi(pts)

    def reduction(self, start: frozenset,
                  rim_size: Optional[Dict[int, int]] = None) -> Optional[List[int]]:
        """Simple-point deletions reducing connected ``start`` to one
        point, the first such sequence in search order, or None.
        ``rim_size``, when given, holds each point's rim size inside
        ``start`` and is used up by the search.

        Candidates come in ``(rim size, label)`` order, the smallest-last
        order of Matula and Beck: the live points sit in buckets by rim
        size, each sorted by label, and a deletion or a put-back moves
        only the point's neighbours between buckets.  Each live point's
        simple verdict is decided when the point is first tried and kept
        until one of its neighbours is deleted or put back, since it
        depends only on ``adj[v] & live``; a point found not simple is
        taken out of its bucket for that long, so no scan reads it again.
        A dead state is remembered by its int mask over ``g.index`` (bit i
        is ``g.points[i]``), for the length of the public call (``start``
        itself is not: its verdict is kept by ``contractible``).  A
        backtrack remembers the dead state, puts the last point back and
        resumes just after its key.

        The first time it would backtrack from a state below ``start``,
        chi of that state is counted, and chi != 1 ends the search with
        None.  This is exact: the cliques containing v are v joined to a
        clique of its rim, so chi(G) = chi(G - v) + 1 - chi(rim of v).  A
        simple point's rim is contractible, and by induction on size a
        contractible graph has chi = 1, so a simple deletion keeps chi.
        Every state of the search therefore has the chi of ``start``, and
        none of them is contractible when it is not 1.  A "yes" search
        has chi = 1, so it runs, and finds its order, exactly as without
        the count."""
        adj, index, dead = self.adj, self.index, self._dead
        live, mask = set(start), sum(1 << index[w] for w in start)
        if rim_size is None:
            rim_size = {v: len(adj[v] & start) for v in start}
        buckets = [[] for _ in range(max(rim_size.values()) + 1)]
        for v in sorted(start):
            buckets[rim_size[v]].append(v)
        simple: Dict[int, bool] = {}  # verdicts of live points, while valid
        deleted: List[Tuple[int, int]] = []  # the (rim size, label) key of each deletion
        counted = False

        def move(w: int, by: int) -> None:
            if simple.pop(w, True):  # a point found not simple is parked
                old = buckets[rim_size[w]]
                del old[bisect_left(old, w)]
            rim_size[w] += by
            insort(buckets[rim_size[w]], w)

        def next_simple(size: int, at: int) -> Optional[Tuple[int, int]]:
            """(bucket, position) of the first simple point at or after
            the given one, or None."""
            for size in range(size, len(buckets)):
                bucket = buckets[size]
                while at < len(bucket):
                    v = bucket[at]
                    if v not in simple:
                        simple[v] = self.simple(adj[v] & live)
                    if simple[v]:
                        return size, at
                    del bucket[at]  # parked until ``move`` puts it back
                at = 0
            return None

        resume = 0, 0
        while len(live) > 1:
            found = next_simple(*resume)
            if found is None:
                if not deleted:
                    return None
                if not counted:
                    counted = True
                    if self.euler_characteristic(live) != 1:
                        return None
                dead.add(mask)
                size, v = deleted.pop()  # put v back with its rim size
                live.add(v)
                mask ^= 1 << index[v]
                for w in adj[v] & live:
                    move(w, 1)
                bucket = buckets[size]
                at = bisect_left(bucket, v)
                bucket.insert(at, v)
                resume = size, at + 1
                continue
            size, at = found
            v = buckets[size][at]
            if (mask ^ 1 << index[v]) in dead:
                resume = size, at + 1
                continue
            del buckets[size][at]
            live.remove(v)
            mask ^= 1 << index[v]
            deleted.append((size, v))
            for w in adj[v] & live:
                move(w, -1)
            resume = 0, 0
        return [v for _, v in deleted]

    def failure(self, pts: frozenset, n: int, kind: str) -> Optional[Failure]:
        """None when ``pts`` is a digital n-``kind`` (n >= 0), else the
        first ``(point, reason)`` breaking the definition; ``pts`` may be
        empty.  The point is None for a failure of the whole set.

        The S - v verdicts of a sphere run only once S is connected and
        every rim is an (n-1)-sphere, and then S - v is connected too, so
        it gets no walk.  For n >= 2 the rim of v is a sphere of
        dimension >= 1, nonempty and connected, and a path of S through v
        enters and leaves v in its rim, so it can go round v inside the
        rim.  For n = 1 every rim is two non-adjacent points, so S is a
        cycle of at least four points and S - v is a path."""
        key = (pts, n, kind)
        if key in self._failure:
            return self._failure[key]
        adj = self.adj
        # Every test at this level reads these rims, in point order.
        rims = {v: adj[v] & pts for v in sorted(pts, key=self.index.__getitem__)}
        found = None
        if n == 0:
            if not self.isolated_pair(pts):
                found = None, "not two isolated points"
        elif not pts:
            found = None, "empty graph"
        elif not self.connected(pts, rims):
            found = None, "not connected"
        else:
            rim_kind = "surface" if kind == "surface" else "sphere"
            for v, rim in rims.items():
                if (not self.isolated_pair(rim) if n == 1
                        else self.failure(rim, n - 1, rim_kind) is not None):
                    found = v, f"rim of {v} is not a {n - 1}-{rim_kind}"
                    break
            else:
                # The definition quantifies over every point: S - v must
                # be contractible for each v, not just one sample.
                if kind == "sphere":
                    size = {v: len(rim) for v, rim in rims.items()}
                    for v, rim in rims.items():
                        rest = dict(size)  # the rim sizes inside S - v
                        del rest[v]
                        for w in rim:
                            rest[w] -= 1
                        if not self.contractible(pts - {v}, rest, connected=True):
                            found = v, f"deleting {v} leaves a non-contractible graph"
                            break
        self._failure[key] = found
        return found


# ---------------------------------------------------------------------------
# contractibility
# ---------------------------------------------------------------------------

def is_contractible(g: DigitalSpace) -> Tuple[bool, Optional[ReductionTrace]]:
    """Decide reducibility to one point by simple-point deletions.

    Returns the verdict and, when contractible, a witnessing deletion
    order.  The search is exact: it backtracks over deletion choices
    rather than trusting a greedy order.  Simple deletions keep the
    Euler characteristic of the clique complex, and a contractible
    graph has chi = 1, so the first time the search would backtrack it
    counts chi and answers False when chi != 1; only a graph with
    chi = 1 pays for the full search before a False.
    """
    if len(g.points) == 0:
        raise ValueError("contractibility is undefined for the empty graph")
    verdicts, pts = _Verdicts(g), frozenset(g.points)
    order = verdicts.reduction(pts) if verdicts.connected(pts) else None
    if order is None:
        return False, None
    terminal = g.delete_points(order) if order else g
    return True, ReductionTrace(deleted_points=order, terminal=terminal)


def is_simple_point(g: DigitalSpace, v) -> bool:
    """A point is simple when its rim is contractible."""
    return _Verdicts(g).simple(g.neighbors(v))


def is_simple_edge(g: DigitalSpace, u, v) -> bool:
    """An edge is simple when its edge rim is contractible."""
    if not g.has_edge(u, v):
        raise UnknownEdgeError(f"({u},{v}) is not an edge")
    return _Verdicts(g).simple(g.neighbors(u) & g.neighbors(v))


# ---------------------------------------------------------------------------
# contractible transformations
# ---------------------------------------------------------------------------

def attach_point(g: DigitalSpace, rim_points, new_id) -> DigitalSpace:
    """Glue a new point whose rim is the given contractible subgraph."""
    rim = frozenset(g.points[i] for i in g.positions(rim_points, "attach_point"))
    if not _Verdicts(g).simple(rim):
        raise ValueError("attachment rim is not contractible")
    return g.add_point(new_id, rim)


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
    is a heuristic core, not a minimal model.  A heap holds the labels of
    the points not yet decided since their rim last changed; the others
    are not simple.  A deletion changes only its neighbours' rims, so
    only they go back on the heap.
    """
    if len(g.points) == 0:
        raise ValueError("cannot reduce the empty graph")
    verdicts = _Verdicts(g)
    adj = verdicts.adj
    live = set(g.points)
    queue = sorted(live)  # a sorted list is a heap
    queued = set(queue)
    deleted = []
    while len(live) > 1 and queue:
        v = heappop(queue)
        queued.remove(v)
        if verdicts.simple(adj[v] & live):
            live.remove(v)
            deleted.append(v)
            for w in adj[v] & live:
                if w not in queued:
                    queued.add(w)
                    heappush(queue, w)
    core = g.delete_points(deleted) if deleted else g
    return core, ReductionTrace(deleted_points=deleted, terminal=core)


# ---------------------------------------------------------------------------
# spheres, manifolds, surfaces
# ---------------------------------------------------------------------------

def _report(g: DigitalSpace, n: int, kind: str) -> ManifoldReport:
    least = 1 if kind == "manifold" else 0
    n = as_integer(n, f"{kind} dimension")
    if n < least:
        raise ValueError(f"{kind} dimension must be >= {least}")
    found = _Verdicts(g).failure(frozenset(g.points), n, kind)
    name = g.name or "space"
    if found is None:
        return ManifoldReport(name, n, kind, True)
    return ManifoldReport(name, n, kind, False, *found)


def is_n_sphere(g: DigitalSpace, n: int) -> ManifoldReport:
    """Check the recursive digital n-sphere definition, with witness."""
    return _report(g, n, "sphere")


def is_n_manifold(g: DigitalSpace, n: int) -> ManifoldReport:
    """Connected graph whose every rim is a digital (n-1)-sphere."""
    return _report(g, n, "manifold")


def is_n_surface(g: DigitalSpace, n: int) -> ManifoldReport:
    """Recursive surface check; the n=0 base case is the 0-sphere."""
    return _report(g, n, "surface")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def zero_sphere() -> DigitalSpace:
    return DigitalSpace([1, 2], [], name="s0")


def minimal_sphere(n: int) -> DigitalSpace:
    """Join of (n+1) copies of the 0-sphere: complete (n+1)-partite
    graph with parts of size two, 2(n+1) points total."""
    n = as_integer(n, "sphere dimension")
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


def disk_from_sphere(m: DigitalSpace, v) -> Tuple[DigitalSpace, DigitalSpace, DigitalSpace]:
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
