"""Finite simple undirected graphs viewed as digital spaces.

A digital space is just a labeled simple graph; adjacency encodes
nearness.  Everything downstream (contractibility, manifold checks,
the diffusion solver) consumes the primitives defined here: the rim
O(v) of a point, the ball U(v), the rim O(uv) of an edge, joins and
induced subgraphs.

Graphs are immutable values.  Every transformation returns a new
graph, so results can be shared and memoized safely.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


class UnknownPointError(ValueError):
    """Raised when an operation names a point the space does not contain."""


class UnknownEdgeError(ValueError):
    """Raised when an operation names a pair that is not an edge."""


def is_label(p) -> bool:
    """Whether a value is a point label: an integer, not a bool."""
    return isinstance(p, (int, np.integer)) and not isinstance(p, bool)


def parse_label(text: str, name: str) -> int:
    """The point p that ``text`` names, which it does only as ``str(p)``
    (not ``"01"``, ``" 1"`` or ``"1_0"``); else a ValueError naming the field."""
    try:
        if str(int(text)) == text:
            return int(text)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name}: bad point label {text!r}")


def _normalize_edge(u, v) -> Tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class DigitalSpace:
    """A finite simple undirected graph with stable point labels.

    Points are integer labels kept in a fixed order, and the read-only
    mapping ``index`` gives each point's position in it; edges are
    unordered pairs of distinct points.  The constructor refuses a label
    that is not an integer (``True`` and ``1.0`` equal 1 but are not
    labels), a repeated point, a self-loop and an edge to no point, and
    stores each label as a Python int.
    """

    __slots__ = ("points", "edges", "name", "index", "_index", "_adj", "_hash", "_ball_keys")

    def __init__(self, points: Iterable[int], edges: Iterable[Sequence[int]],
                 name: Optional[str] = None):
        pts = tuple(points)
        if not set(map(type, pts)) <= {int}:  # plain ints skip is_label
            for p in pts:
                if not is_label(p):
                    raise ValueError(f"points: expected integers, got {p!r}")
            pts = tuple(map(int, pts))
        index = {p: i for i, p in enumerate(pts)}
        if len(index) != len(pts):
            raise ValueError("duplicate point identifiers")
        norm = set()
        for e in edges:
            u, v = e
            if type(u) is not int or type(v) is not int:
                if not (is_label(u) and is_label(v)):
                    raise ValueError(f"edges: expected a pair of integers, got {e!r}")
                u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at point {u}")
            if u not in index or v not in index:
                raise UnknownPointError(f"edge ({u},{v}) endpoint not a point")
            norm.add(_normalize_edge(u, v))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_index", index)  # for positions: faster than the proxy
        object.__setattr__(self, "index", MappingProxyType(index))
        adj = {p: set() for p in pts}
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", {p: frozenset(s) for p, s in adj.items()})
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_ball_keys", None)

    def __setattr__(self, *args):
        raise AttributeError("DigitalSpace is immutable")

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        return (type(p) is int or is_label(p)) and p in self._adj

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
        if type(v) is int:  # a plain int is a label: a lookup decides
            try:
                return self._adj[v]
            except KeyError:
                pass
        self.positions((v,), "neighbors")  # refuses v unless it is a label of the space
        return self._adj[v]

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u, v) -> bool:
        """Whether u and v are points of the space and an edge joins them."""
        return u in self and v in self and _normalize_edge(u, v) in self.edges

    # -- digital-topology primitives -------------------------------------

    def rim(self, v) -> "DigitalSpace":
        """Induced subgraph on the neighbors of v, excluding v itself."""
        return self.induced(self.neighbors(v))

    def ball(self, v) -> "DigitalSpace":
        """The rim of v together with v and its incident edges."""
        return self.induced(self.neighbors(v) | {v})

    def positions(self, points: Iterable[int], name: str) -> List[int]:
        """The one lookup of points a caller names: their positions, in order, or an
        UnknownPointError naming the field and the first not a label of the space."""
        points, index = list(points), self._index
        try:
            if set(map(type, points)) <= {int}:  # a plain int is a label: a lookup decides
                return list(map(index.__getitem__, points))
        except KeyError:
            pass
        for p in points:
            if not (is_label(p) and p in index):
                raise UnknownPointError(f"{name}: point {p!r} is not in the space")
        return [index[p] for p in points]

    def ball_keys(self) -> np.ndarray:
        """Flat keys i * n + j, ascending and read-only, of the position
        pairs (i, j) on the balls: the diagonal and both directions of
        every edge.  Built on first use."""
        if self._ball_keys is None:
            # Sorted in Python: numpy's sort maps about 0.5 MB of code,
            # 1.5% of a small run's peak memory.
            n, index = len(self.points), self.index
            ends = [(index[u], index[v]) for u, v in self.edges]
            keys = [i * (n + 1) for i in range(n)]
            keys += [i * n + j for i, j in ends] + [j * n + i for i, j in ends]
            keys = np.array(sorted(keys), dtype=np.intp)
            keys.flags.writeable = False
            object.__setattr__(self, "_ball_keys", keys)
        return self._ball_keys

    def edge_rim(self, u, v) -> "DigitalSpace":
        """Induced subgraph on the common neighbors of the edge (u, v)."""
        if not self.has_edge(u, v):
            raise UnknownEdgeError(f"({u},{v}) is not an edge")
        return self.induced(self.neighbors(u) & self.neighbors(v))

    def induced(self, subset: Iterable[int]) -> "DigitalSpace":
        sub = set(subset)
        self.positions(sub, "induced")
        pts = tuple(p for p in self.points if p in sub)
        edges = [e for e in self.edges if e[0] in sub and e[1] in sub]
        return DigitalSpace(pts, edges)

    # -- transformations (always return new values) ----------------------

    def delete_point(self, v) -> "DigitalSpace":
        return self.delete_points((v,))

    def delete_points(self, vs: Iterable[int]) -> "DigitalSpace":
        gone = set(vs)
        self.positions(gone, "delete_points")
        pts = tuple(p for p in self.points if p not in gone)
        edges = [e for e in self.edges if e[0] not in gone and e[1] not in gone]
        return DigitalSpace(pts, edges, name=self.name)

    def delete_edge(self, u, v) -> "DigitalSpace":
        if not self.has_edge(u, v):
            raise UnknownEdgeError(f"({u},{v}) is not an edge")
        return DigitalSpace(self.points, self.edges - {_normalize_edge(u, v)}, name=self.name)

    def add_point(self, v, neighbors: Iterable[int] = ()) -> "DigitalSpace":
        if v in self:
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
        return len(self.connected_components()) <= 1

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
        """Read graph JSON.  A document that is not an object, ``points``
        that are not a list, ``edges`` that are not a list of pairs and a
        ``name`` that is not a string are refused with a ValueError naming
        the field, and so is every graph the constructor refuses.  A
        missing, null or empty name means no name."""
        if not isinstance(d, dict):
            raise ValueError(f"graph JSON: expected an object, got {type(d).__name__}")
        points, edges = d.get("points"), d.get("edges")
        if not isinstance(points, list):
            raise ValueError(f"points: expected a list of integers, got {points!r}")
        if not isinstance(edges, list):
            raise ValueError(f"edges: expected a list of integer pairs, got {edges!r}")
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2):
                raise ValueError(f"edges: expected a pair of integers, got {e!r}")
        name = d.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError(f"name: expected a string, got {name!r}")
        return cls(points, edges, name=name or None)

    @classmethod
    def from_json(cls, text: str) -> "DigitalSpace":
        return cls.from_json_dict(json.loads(text))


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
