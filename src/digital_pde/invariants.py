"""Clique complexes, Euler characteristic, and integral homology.

Homology is computed over the integers, because the torsion part
matters here: Z/2 torsion in dimension one is what tells a Klein bottle
apart from a torus.  The first boundary map, the graph's signed
incidence matrix, is totally unimodular with rank n - c for c connected
components, so its divisors are read from the components.  Each higher
boundary map is held as sparse columns, and one integer elimination
reduces them: a pass of pivots on +-1 entries, then least-entry pivots
on the same columns for what is left (Kaczynski, Mischaikow and Mrozek,
*Computational Homology*, 2004).
All arithmetic uses Python integers, so there is no overflow to guard
against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple, Union

from .graph_core import DigitalSpace


@dataclass
class CliqueComplex:
    """Simplices of a graph's clique complex, grouped by dimension.

    simplices[k] lists the (k+1)-cliques as sorted point tuples, in
    lexicographic order, so boundary matrix bases are deterministic.
    """

    simplices: List[List[Tuple[int, ...]]]

    @property
    def max_dim(self) -> int:
        return len(self.simplices) - 1

    def count(self, k: int) -> int:
        if 0 <= k < len(self.simplices):
            return len(self.simplices[k])
        return 0

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(s) for k, s in enumerate(self.simplices))


@dataclass
class HomologyProfile:
    """Integral homology summary: chi, Betti numbers, torsion coefficients."""

    euler_characteristic: int
    betti: List[int]
    torsion: List[List[int]]

    def to_json_dict(self) -> dict:
        return {
            "chi": self.euler_characteristic,
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
        }


def clique_complex(g: DigitalSpace) -> CliqueComplex:
    """Enumerate every clique of g, grouped by dimension.

    Each clique carries the set of its common neighbours above its last
    point, and is extended by each w of that set in sorted order, the new
    clique carrying that set intersected with the neighbours of w above w
    (D. Eppstein, M. Loeffler and D. Strash, ISAAC 2010).  So every
    intersection is done once, every level comes out in lexicographic
    order, and the result is face-closed by construction.  It is never
    cut off at a dimension: a cut-off complex mis-ranks its top degree
    (K8 would not be acyclic).
    """
    up = {p: frozenset(w for w in nbrs if w > p) for p, nbrs in g.adjacency.items()}
    cliques = [(p,) for p in sorted(g.points)]
    commons = [up[p] for (p,) in cliques]
    levels: List[List[Tuple[int, ...]]] = [cliques]
    while True:
        # Parallel lists: a (clique, set) pair per clique would be one more
        # object for the garbage collector to track.
        grown, carried = [], []
        for clique, common in zip(cliques, commons):
            for w in sorted(common):
                grown.append(clique + (w,))
                carried.append(common & up[w])
        if not grown:
            return CliqueComplex(levels)
        levels.append(grown)
        cliques, commons = grown, carried


def chi_counter(g: DigitalSpace) -> Callable[[Iterable[int]], int]:
    """The function taking a point set S of g to chi of the clique
    complex of S, counted on bitsets (bit i is ``g.points[i]``) and
    memoized by bitset.  Grouped by their lowest point v, the cliques of
    S are v joined to a clique, empty or not, of v's neighbours in S
    above it, which adds 1 - chi(those neighbours)."""
    bit = {p: 1 << i for p, i in g.index.items()}
    nbits = [sum(map(bit.__getitem__, g.neighbors(p))) for p in g.points]
    memo: Dict[int, int] = {0: 0}

    def chi(mask: int) -> int:
        # A stack, not recursion: a clique of k points nests k counts.  A
        # frame is a set, its points not yet visited, the sum so far and the
        # set whose chi it waits for, to subtract from that sum.
        stack = [(mask, mask, 0, 0)]
        while mask not in memo:
            top, rest, value, wait = stack.pop()
            value -= memo[wait]
            while rest:
                low = rest & -rest
                rest ^= low
                above = nbits[low.bit_length() - 1] & rest
                sub = memo.get(above)
                if sub is None:
                    stack += [(top, rest, value + 1, above), (above, above, 0, 0)]
                    break
                value += 1 - sub
            else:
                memo[top] = value
        return memo[mask]

    return lambda pts: chi(sum(map(bit.__getitem__, pts)))


def euler_characteristic(g: DigitalSpace) -> int:
    """Alternating sum of clique counts."""
    return chi_counter(g)(g.points)


def boundary_matrix(cx: CliqueComplex, k: int) -> List[Dict[int, int]]:
    """The boundary map from k-chains to (k-1)-chains, as sparse columns.

    Column j maps the row of each face of the j-th k-simplex to its sign:
    the face omitting the i-th vertex carries (-1)^i.  Rows index the
    (k-1)-simplices in cx order.
    """
    if k <= 0 or k > cx.max_dim:
        return []
    rows = {s: i for i, s in enumerate(cx.simplices[k - 1])}
    signs = [(-1) ** i for i in range(k + 1)]
    return [{rows[s[:i] + s[i + 1:]]: signs[i] for i in range(k + 1)}
            for s in cx.simplices[k]]


def _clear_row(columns: List[Dict[int, int]], index: Dict[int, Set[int]],
               j: int, r: int) -> int:
    """Pop the pivot p at row r of column j, then take from every other
    column with an entry in row r the multiple of column j that leaves
    its remainder mod p there.  Returns p; index[r] keeps the columns
    whose remainder is not zero."""
    col = columns[j]
    p = col.pop(r)
    rest = index[r]
    rest.discard(j)
    for c in list(rest):
        other = columns[c]
        q, x = divmod(other.pop(r), p)
        if x:
            other[r] = x
        else:
            rest.discard(c)
        for s, v in col.items():
            y = other.get(s, 0) - q * v
            if y:
                other[s] = y
                index[s].add(c)
            else:
                del other[s]
                index[s].discard(c)
    return p


def smith_normal_form(matrix: Sequence[Union[Dict[int, int], Sequence[int]]]) -> List[int]:
    """Elementary divisors d1 | d2 | ... of an integer matrix.

    ``matrix`` is a sequence of columns, each a dict from row to entry or
    a sequence of entries; a list of rows reads as the transpose, which
    has the same divisors.  The caller's columns are not changed.  An
    entry must be an integer (an int, a bool or a NumPy integer); any
    other is refused with a ValueError naming its column and row.

    Exact column elimination on sparse copies with a row -> columns
    index.  One pass in column order pivots on the +-1 entry whose row
    meets the fewest columns, each a divisor 1.  Then each pass pivots on
    an entry of least absolute value and clears its row by floor
    division: it either records a divisor and drops the pivot's row and
    column, or leaves an entry smaller than the pivot, so the loop always
    terminates.  Returns the nonzero divisors, each positive, in
    divisibility order.
    """
    cols = [dict(c) if isinstance(c, dict) else dict(enumerate(c)) for c in matrix]
    if not all(type(v) is int and v for col in cols for v in col.values()):
        for j, col in enumerate(cols):
            for r, v in col.items():
                try:
                    col[r] = operator.index(v)
                except TypeError:
                    raise ValueError(
                        f"column {j}, row {r}: entry {v!r} is not an integer") from None
        cols = [{r: v for r, v in col.items() if v} for col in cols]
    index: Dict[int, Set[int]] = {}  # row -> columns with a nonzero entry there
    for j, col in enumerate(cols):
        for r in col:
            index.setdefault(r, set()).add(j)
    divisors: List[int] = []
    for j, col in enumerate(cols):
        units = [r for r, v in col.items() if v == 1 or v == -1]
        if units:
            _clear_row(cols, index, j, min(units, key=lambda r: len(index[r])))
            for s in col:
                index[s].discard(j)
            col.clear()
            divisors.append(1)
    live = range(len(cols))
    while live := [j for j in live if cols[j]]:
        _, r, j = min((abs(v), r, j) for j in live for r, v in cols[j].items())
        col = cols[j]
        p = _clear_row(cols, index, j, r)
        if not index[r]:
            # Row r is p times a unit vector, so row operations change only
            # column j: they clear it when p divides every entry.  Otherwise
            # add in a column p does not divide, unless column j is one;
            # reduce mod p.
            bad = next((c for c in (col, *(cols[k] for k in live))
                        if any(x % p for x in c.values())), None) if abs(p) > 1 else None
            for s in col:
                index[s].discard(j)
            if bad is None:
                divisors.append(abs(p))
                col.clear()
                continue
            cols[j] = col = {s: x % p for s, x in bad.items() if x % p}
            for s in col:
                index[s].add(j)
        col[r] = p
        index[r].add(j)
    return divisors


def homology(g: DigitalSpace) -> HomologyProfile:
    """Integral simplicial homology of the clique complex.

    betti[k] = dim C_k - rank d_k - rank d_{k+1}; torsion[k] collects
    the elementary divisors of d_{k+1} that exceed one.  d_1 is the
    signed incidence matrix of g, which is totally unimodular with rank
    n - c for c connected components, so its divisors are n - c ones and
    it is never built.  The maps from d_2 up are built and reduced.  The
    Euler characteristic is cross-checked against the Betti alternating
    sum.
    """
    cx = clique_complex(g)
    top = cx.max_dim
    divisors = [[], [1] * (cx.count(0) - len(g.connected_components()))]
    divisors += [smith_normal_form(boundary_matrix(cx, k)) for k in range(2, top + 1)]
    divisors.append([])
    betti = [cx.count(k) - len(divisors[k]) - len(divisors[k + 1]) for k in range(top + 1)]
    torsion = [[d for d in divisors[k + 1] if d > 1] for k in range(top + 1)]
    chi = cx.euler_characteristic()
    alt = sum((-1) ** k * b for k, b in enumerate(betti))
    if chi != alt:
        raise AssertionError(
            f"Euler characteristic mismatch: clique count {chi} vs Betti sum {alt}")
    return HomologyProfile(chi, betti, torsion)
