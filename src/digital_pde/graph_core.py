"""Finite simple undirected graphs viewed as digital spaces.

A digital space is just a labeled simple graph; adjacency encodes
nearness.  Everything downstream (contractibility, manifold checks,
the diffusion solver) consumes the primitives defined here: the rim
O(v) of a point, the ball U(v), the rim O(uv) of an edge, joins and
induced subgraphs.

A space stores its graph once, as each point's neighbour set; ``edges``
is read from those sets, and a rim or any induced subgraph is built from
the parent's sets at the cost of its own size, not the space's.

Graphs are immutable values.  Every transformation returns a new
graph, so results can be shared and memoized safely.
"""

from __future__ import annotations

import json
from itertools import chain
from types import MappingProxyType
from typing import Iterable, List, Optional, Sequence

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


class DigitalSpace:
    """A finite simple undirected graph with stable point labels.

    Points are integer labels kept in a fixed order, and the read-only
    mapping ``index`` gives each point's position in it.  The read-only
    mapping ``adjacency``, each point's neighbours as a frozenset, is the
    stored graph; ``edges`` is read from it.  The constructor refuses a
    label that is not an integer (``True`` and ``1.0`` equal 1 but are not
    labels), a repeated point, an edge that is not a pair, a self-loop and
    an edge to no point, and stores each label as a Python int.
    """

    __slots__ = ("points", "name", "index", "adjacency", "_index", "_adj", "_ball_keys")

    def __init__(self, points: Iterable[int], edges: Iterable[Sequence[int]],
                 name: Optional[str] = None):
        pts = tuple(points)
        if not set(map(type, pts)) <= {int}:  # plain ints skip is_label
            for p in pts:
                if not is_label(p):
                    raise ValueError(f"points: expected integers, got {p!r}")
            pts = tuple(map(int, pts))
        adj = {p: set() for p in pts}
        if len(adj) != len(pts):
            raise ValueError("duplicate point identifiers")
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                u = v = None  # not a pair: refused below, as a non-label is
            if type(u) is not int or type(v) is not int:
                if not (is_label(u) and is_label(v)):
                    raise ValueError(f"edges: expected a pair of integers, got {e!r}")
                u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at point {u}")
            if u not in adj or v not in adj:
                raise UnknownPointError(f"edge ({u},{v}) endpoint not a point")
            adj[u].add(v)
            adj[v].add(u)
        self._assemble({p: frozenset(s) for p, s in adj.items()}, name)

    def _assemble(self, adj: dict, name: Optional[str]) -> "DigitalSpace":
        """Store checked neighbour sets: int labels, in point order, each edge at both ends."""
        index = {p: i for i, p in enumerate(adj)}
        object.__setattr__(self, "points", tuple(adj))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_index", index)  # for positions: faster than the proxy
        object.__setattr__(self, "index", MappingProxyType(index))
        object.__setattr__(self, "_adj", adj)  # for neighbors: faster than the proxy
        object.__setattr__(self, "adjacency", MappingProxyType(adj))
        object.__setattr__(self, "_ball_keys", None)
        return self

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
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(frozenset(self._adj.items()))

    def __repr__(self) -> str:
        label = self.name or "space"
        return f"<DigitalSpace {label}: {len(self.points)} points, {len(self.edges)} edges>"

    @property
    def edges(self) -> frozenset:
        """Each edge once, as (u, v) with u < v, read from ``adjacency``."""
        return frozenset((u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v)

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
        return u in self and v in self and v in self._adj[u]

    # -- digital-topology primitives -------------------------------------

    def rim(self, v) -> "DigitalSpace":
        """Induced subgraph on the neighbors of v, excluding v itself."""
        return self.induced(self.neighbors(v))

    def ball(self, v) -> "DigitalSpace":
        """The rim of v together with v and its incident edges."""
        return self.induced(self.neighbors(v) | {v})

    def positions(self, points: Iterable[int], name: str) -> List[int]:
        """The one lookup of points a caller names: their positions, in order, or an
        UnknownPointError naming the field and the first not a label of the space.
        Points that are not a collection are refused with a ValueError naming the field."""
        try:
            points = iter(points)
        except TypeError:
            raise ValueError(f"{name}: expected a collection of points, got {points!r}") from None
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
            # Both directions of every edge, read from the adjacency, whose
            # keys are the points in order: row i's neighbours follow its degree.
            n, index = len(self.points), self._index
            rims = list(self._adj.values())
            degrees = np.fromiter(map(len, rims), dtype=np.intp, count=n)
            ends = np.fromiter(map(index.__getitem__, chain.from_iterable(rims)),
                               dtype=np.intp, count=int(degrees.sum()))
            starts = np.arange(n, dtype=np.intp) * n
            keys = np.concatenate((starts + np.arange(n), np.repeat(starts, degrees) + ends))
            keys.sort()
            keys.flags.writeable = False
            object.__setattr__(self, "_ball_keys", keys)
        return self._ball_keys

    def edge_rim(self, u, v) -> "DigitalSpace":
        """Induced subgraph on the common neighbors of the edge (u, v)."""
        if not self.has_edge(u, v):
            raise UnknownEdgeError(f"({u},{v}) is not an edge")
        return self.induced(self.neighbors(u) & self.neighbors(v))

    def induced(self, subset: Iterable[int]) -> "DigitalSpace":
        """The subgraph on the named points, built from their neighbour sets
        and the space's own labels (never the caller's objects), in its order."""
        pts = [self.points[i] for i in sorted(set(self.positions(subset, "induced")))]
        sub, adj = frozenset(pts), self._adj
        return object.__new__(DigitalSpace)._assemble({p: adj[p] & sub for p in pts}, None)

    # -- transformations (always return new values) ----------------------

    def delete_point(self, v) -> "DigitalSpace":
        return self.delete_points((v,))

    def delete_points(self, vs: Iterable[int]) -> "DigitalSpace":
        gone = {self.points[i] for i in self.positions(vs, "delete_points")}
        adj = {p: nbrs - gone for p, nbrs in self._adj.items() if p not in gone}
        return object.__new__(DigitalSpace)._assemble(adj, self.name)

    def delete_edge(self, u, v) -> "DigitalSpace":
        if not self.has_edge(u, v):
            raise UnknownEdgeError(f"({u},{v}) is not an edge")
        adj = dict(self._adj)  # keys are the space's labels, though u and v may not be
        adj[u], adj[v] = adj[u] - {v}, adj[v] - {u}
        return object.__new__(DigitalSpace)._assemble(adj, self.name)

    def add_point(self, v, neighbors: Iterable[int] = ()) -> "DigitalSpace":
        if v in self:
            raise ValueError(f"point {v} already present")
        edges = [*self.edges, *((v, u) for u in neighbors)]
        return DigitalSpace(self.points + (v,), edges, name=self.name)

    def add_edge(self, u, v) -> "DigitalSpace":
        if self.has_edge(u, v):
            raise ValueError(f"({u},{v}) already an edge")
        return DigitalSpace(self.points, [*self.edges, (u, v)], name=self.name)

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
        """Read graph JSON.  A document that is not an object, ``points`` or
        ``edges`` that are not a list and a ``name`` that is not a string are
        refused with a ValueError naming the field, and so is every graph the
        constructor refuses.  A missing, null or empty name means no name."""
        if not isinstance(d, dict):
            raise ValueError(f"graph JSON: expected an object, got {type(d).__name__}")
        points, edges = d.get("points"), d.get("edges")
        if not isinstance(points, list):
            raise ValueError(f"points: expected a list of integers, got {points!r}")
        if not isinstance(edges, list):
            raise ValueError(f"edges: expected a list of integer pairs, got {edges!r}")
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


def as_integer(value, what: str) -> int:
    """``value`` as an int, or a ValueError naming ``what`` unless it is an
    int or a NumPy integer, not a bool (``is_label``'s rule)."""
    if not is_label(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def cycle_space(n: int, name: Optional[str] = None) -> DigitalSpace:
    """Cycle on points 1..n (n >= 3)."""
    n = as_integer(n, "n")
    if n < 3:
        raise ValueError("cycle needs at least 3 points")
    pts = list(range(1, n + 1))
    edges = [(i, i % n + 1) for i in pts]
    return DigitalSpace(pts, edges, name=name)


def path_space(n: int, name: Optional[str] = None) -> DigitalSpace:
    """Path on points 1..n."""
    pts = list(range(1, as_integer(n, "n") + 1))
    return DigitalSpace(pts, [(i, i + 1) for i in pts[:-1]], name=name)
