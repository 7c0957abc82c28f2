"""Canonical forms and exact isomorphism testing for small graphs.

Used by tests that compare graphs up to relabeling.
The implementation is a small refine-and-individualize search, fine
for the graph sizes in scope (tens of points); it makes no attempt
at nauty-level performance.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .graph_core import DigitalSpace

CanonicalForm = Tuple[int, Tuple[Tuple[int, int], ...]]


def _refine(adj: Dict[int, frozenset], colors: Dict[int, int]) -> Dict[int, int]:
    """Stable color refinement: split classes by multiset of neighbor colors."""
    while True:
        sig = {v: (colors[v], tuple(sorted(colors[w] for w in adj[v])))
               for v in adj}
        order = sorted(set(sig.values()))
        ranks = {s: i for i, s in enumerate(order)}
        new = {v: ranks[sig[v]] for v in adj}
        if new == colors:
            return colors
        colors = new


def _encode(adj, ordering) -> Tuple[Tuple[int, int], ...]:
    pos = {v: i for i, v in enumerate(ordering)}
    edges = set()
    for v in adj:
        for w in adj[v]:
            a, b = pos[v], pos[w]
            edges.add((a, b) if a < b else (b, a))
    return tuple(sorted(edges))


def canonical_form(g: DigitalSpace) -> CanonicalForm:
    """A label-independent encoding: isomorphic graphs map to equal values."""
    adj = g.adjacency
    n = len(g.points)
    if n == 0:
        return (0, ())
    init = _refine(adj, {v: 0 for v in adj})

    best = [None]

    def descend(colors):
        classes: Dict[int, list] = {}
        for v, c in colors.items():
            classes.setdefault(c, []).append(v)
        target = None
        for c in sorted(classes):
            if len(classes[c]) > 1:
                target = classes[c]
                break
        if target is None:
            ordering = sorted(colors, key=lambda v: colors[v])
            enc = _encode(adj, ordering)
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return
        fresh = max(colors.values()) + 1
        for v in target:
            branch = dict(colors)
            branch[v] = fresh
            descend(_refine(adj, branch))

    descend(init)
    return (n, best[0])


def are_isomorphic(g: DigitalSpace, h: DigitalSpace) -> bool:
    """Exact isomorphism test with cheap invariant pruning first."""
    if len(g.points) != len(h.points) or len(g.edges) != len(h.edges):
        return False
    if sorted(g.degree(v) for v in g.points) != sorted(h.degree(v) for v in h.points):
        return False
    return canonical_form(g) == canonical_form(h)
