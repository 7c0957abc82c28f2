"""Finite simple undirected graphs viewed as digital spaces.

A digital space is just a labeled simple graph; adjacency encodes
nearness.  Everything downstream (contractibility, manifold checks,
the diffusion solver) consumes the primitives defined here: the rim
O(v) of a point, the ball U(v), the rim O(uv) of an edge, joins and
induced subspaces.

Graphs are immutable values.  Every transformation returns a new
graph, so results can be shared and memoized safely.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Sequence, Tuple


class UnknownPointError(KeyError):
    """Raised when an operation names a point the space does not contain."""


class UnknownEdgeError(KeyError):
    """Raised when an operation names a pair that is not an edge."""


def _normalize_edge(u, v) -> Tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class DigitalSpace:
    """A finite simple undirected graph with stable point labels.

    Points are integer identifiers kept in a fixed order; edges are
    unordered pairs of distinct points.  Self-loops and duplicate
    edges are rejected at construction.
    """

    __slots__ = ("points", "edges", "name", "_adj", "_hash")

    def __init__(self, points: Iterable[int], edges: Iterable[Sequence[int]],
                 name: Optional[str] = None):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate point identifiers")
        pset = set(pts)
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at point {u}")
            if u not in pset or v not in pset:
                raise UnknownPointError(f"edge ({u},{v}) endpoint not a point")
            norm.add(_normalize_edge(u, v))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "name", name)
        adj = {p: set() for p in pts}
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", {p: frozenset(s) for p, s in adj.items()})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *args):
        raise AttributeError("DigitalSpace is immutable")

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        return p in self._adj

    def __eq__(self, other) -> bool:
        if not isinstance(other, DigitalSpace):
            return NotImplemented
        return set(self.points) == set(other.points) and self.edges == other.edges

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((frozenset(self.points), self.edges))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        label = self.name or "space"
        return f"<DigitalSpace {label}: {len(self.points)} points, {len(self.edges)} edges>"

    def neighbors(self, v) -> frozenset:
        if v not in self._adj:
            raise UnknownPointError(f"unknown point {v}")
        return self._adj[v]

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u, v) -> bool:
        return _normalize_edge(u, v) in self.edges

    # -- digital-topology primitives -------------------------------------

    def rim(self, v) -> "Subspace":
        """Induced subgraph on the neighbors of v, excluding v itself."""
        return self.induced(self.neighbors(v))

    def ball(self, v) -> "Subspace":
        """The rim of v together with v and its incident edges."""
        return self.induced(self.neighbors(v) | {v})

    def edge_rim(self, u, v) -> "Subspace":
        """Induced subgraph on the common neighbors of the edge (u, v)."""
        if not self.has_edge(u, v):
            raise UnknownEdgeError(f"({u},{v}) is not an edge")
        return self.induced(self.neighbors(u) & self.neighbors(v))

    def induced(self, subset: Iterable[int]) -> "Subspace":
        sub = set(subset)
        for p in sub:
            if p not in self._adj:
                raise UnknownPointError(f"unknown point {p}")
        pts = tuple(p for p in self.points if p in sub)
        edges = [e for e in self.edges if e[0] in sub and e[1] in sub]
        return Subspace(self, pts, edges)

    # -- transformations (always return new values) ----------------------

    def delete_point(self, v) -> "DigitalSpace":
        if v not in self._adj:
            raise UnknownPointError(f"unknown point {v}")
        pts = tuple(p for p in self.points if p != v)
        edges = [e for e in self.edges if v not in e]
        return DigitalSpace(pts, edges, name=self.name)

    def delete_points(self, vs: Iterable[int]) -> "DigitalSpace":
        gone = set(vs)
        for v in gone:
            if v not in self._adj:
                raise UnknownPointError(f"unknown point {v}")
        pts = tuple(p for p in self.points if p not in gone)
        edges = [e for e in self.edges if e[0] not in gone and e[1] not in gone]
        return DigitalSpace(pts, edges, name=self.name)

    def delete_edge(self, u, v) -> "DigitalSpace":
        e = _normalize_edge(u, v)
        if e not in self.edges:
            raise UnknownEdgeError(f"({u},{v}) is not an edge")
        return DigitalSpace(self.points, self.edges - {e}, name=self.name)

    def add_point(self, v, neighbors: Iterable[int] = ()) -> "DigitalSpace":
        if v in self._adj:
            raise ValueError(f"point {v} already present")
        nbrs = list(neighbors)
        edges = list(self.edges) + [(v, u) for u in nbrs]
        return DigitalSpace(self.points + (v,), edges, name=self.name)

    def add_edge(self, u, v) -> "DigitalSpace":
        if self.has_edge(u, v):
            raise ValueError(f"({u},{v}) already an edge")
        return DigitalSpace(self.points, set(self.edges) | {_normalize_edge(u, v)},
                            name=self.name)

    def is_connected(self) -> bool:
        if not self.points:
            return True
        seen = {self.points[0]}
        stack = [self.points[0]]
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.points)

    def connected_components(self):
        seen = set()
        comps = []
        for start in self.points:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                for w in self._adj[stack.pop()]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name or "",
            "points": sorted(self.points),
            "edges": sorted([list(e) for e in self.edges]),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "DigitalSpace":
        return cls(d["points"], d["edges"], name=d.get("name") or None)

    @classmethod
    def from_json(cls, text: str) -> "DigitalSpace":
        return cls.from_json_dict(json.loads(text))


class Subspace(DigitalSpace):
    """An induced subgraph, remembering which space it came from."""

    __slots__ = ("parent",)

    def __init__(self, parent: DigitalSpace, points, edges):
        super().__init__(points, edges, name=None)
        object.__setattr__(self, "parent", parent)

    def detach(self) -> DigitalSpace:
        """Forget the parent and return a plain digital space."""
        return DigitalSpace(self.points, self.edges)


def join(g: DigitalSpace, h: DigitalSpace, name: Optional[str] = None) -> DigitalSpace:
    """Disjoint union of g and h plus every cross edge.

    Points are relabeled 1..|g|+|h| to guarantee disjointness; g keeps
    its relative order in 1..|g|, h follows.
    """
    gmap = {p: i + 1 for i, p in enumerate(g.points)}
    offset = len(g.points)
    hmap = {p: offset + i + 1 for i, p in enumerate(h.points)}
    points = list(range(1, offset + len(h.points) + 1))
    edges = [(gmap[u], gmap[v]) for u, v in g.edges]
    edges += [(hmap[u], hmap[v]) for u, v in h.edges]
    edges += [(gp, hp) for gp in gmap.values() for hp in hmap.values()]
    return DigitalSpace(points, edges, name=name)


def cycle_space(n: int, name: Optional[str] = None) -> DigitalSpace:
    """Cycle on points 1..n (n >= 3)."""
    if n < 3:
        raise ValueError("cycle needs at least 3 points")
    pts = list(range(1, n + 1))
    edges = [(i, i % n + 1) for i in pts]
    return DigitalSpace(pts, edges, name=name)


def path_space(n: int, name: Optional[str] = None) -> DigitalSpace:
    """Path on points 1..n."""
    pts = list(range(1, n + 1))
    return DigitalSpace(pts, [(i, i + 1) for i in pts[:-1]], name=name)
