"""Clique complexes, Euler characteristic, and integral homology.

Homology is computed over the integers, because the torsion part
matters here: Z/2 torsion in dimension one is what tells a Klein bottle
apart from a torus.  Each boundary map is held as sparse columns and
eliminated on its +-1 entries first, each pivot one elementary divisor
1; only the block left without a unit pivot goes to the least-entry
Smith normal form (Kaczynski, Mischaikow and Mrozek, *Computational
Homology*, 2004).  All arithmetic uses Python integers, so there is no
overflow to guard against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .graph_core import DigitalSpace

DEFAULT_MAX_DIM = 6  # covers every catalog space; 5-cliques appear in the 4-sphere


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


def clique_complex(g: DigitalSpace, max_dim: int = DEFAULT_MAX_DIM) -> CliqueComplex:
    """Enumerate all cliques of size <= max_dim + 1, grouped by dimension.

    Expansion is incremental: (k+1)-cliques are grown from k-cliques by
    adding a larger vertex adjacent to all members, so the result is
    face-closed by construction.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    levels: List[List[Tuple[int, ...]]] = [[(p,) for p in sorted(g.points)]]
    while len(levels) <= max_dim:
        prev = levels[-1]
        nxt = []
        for clique in prev:
            common = g.neighbors(clique[0])
            for p in clique[1:]:
                common = common & g.neighbors(p)
            last = clique[-1]
            for w in sorted(common):
                if w > last:
                    nxt.append(clique + (w,))
        if not nxt:
            break
        levels.append(nxt)
    return CliqueComplex(levels)


def _whole_complex(g: DigitalSpace, max_dim: int) -> CliqueComplex:
    """The clique complex of g, refused when it has simplices above max_dim.

    Enumeration goes one degree past max_dim to find out: a complex cut
    off at max_dim has the wrong Euler characteristic and mis-ranks its
    top degree, whose homology depends on the boundary from above.
    """
    cx = clique_complex(g, max_dim + 1)
    if cx.max_dim > max_dim:
        raise ValueError(
            f"clique complex has {max_dim + 2}-point cliques, above max_dim={max_dim}; "
            f"pass a larger max_dim")
    return cx


def euler_characteristic(g: DigitalSpace, max_dim: int = DEFAULT_MAX_DIM) -> int:
    """Alternating sum of clique counts."""
    return _whole_complex(g, max_dim).euler_characteristic()


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


def _eliminate_units(columns: List[Dict[int, int]]) -> Tuple[int, List[List[int]]]:
    """Pivot on +-1 entries in one pass over sparse columns, in place.

    Each column maps rows to its nonzero entries.  At each column, the
    unit entry whose row meets the fewest columns is the pivot; integer
    column operations clear its row elsewhere, and the pivot's row and
    column drop out, one elementary divisor 1.  A column with no unit
    entry when the pass reaches it is left.  Returns the pivot count and
    the leftover block as a dense matrix.
    """
    index: Dict[int, Set[int]] = {}  # row -> columns with a nonzero entry there
    for j, col in enumerate(columns):
        for r in col:
            index.setdefault(r, set()).add(j)
    pivots = 0
    for j, col in enumerate(columns):
        units = [r for r, v in col.items() if v == 1 or v == -1]
        if not units:
            continue
        r = min(units, key=lambda r: len(index[r]))
        u = col.pop(r)
        for c in index.pop(r) - {j}:
            other = columns[c]
            q = other.pop(r) * u
            for s, v in col.items():
                x = other.get(s, 0) - q * v
                if x:
                    other[s] = x
                    index[s].add(c)
                else:
                    del other[s]
                    index[s].discard(c)
        for s in col:
            index[s].discard(j)
        col.clear()
        pivots += 1
    leftover = [col for col in columns if col]
    rows = sorted({r for col in leftover for r in col})
    return pivots, [[col.get(r, 0) for col in leftover] for r in rows]


def _least(m: List[List[int]]) -> Tuple[List[int], int]:
    """A row of m and the column of its least nonzero |entry|, least over m;
    a unit is taken from the first row that has one."""
    unit = next((row for row in m if 1 in row or -1 in row), None)
    v, row = (1, unit) if unit else min((min(map(abs, filter(None, r))), r) for r in m)
    return row, row.index(v) if v in row else row.index(-v)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> List[int]:
    """Elementary divisors d1 | d2 | ... of an integer matrix.

    Exact integer elimination that pivots on an entry of least absolute
    value (Kaczynski, Mischaikow and Mrozek, *Computational Homology*,
    2004).  Each pass either records a divisor and drops its row, or
    leaves a nonzero entry smaller than the pivot, so the loop always
    terminates.  Returns the nonzero divisors, each positive, in
    divisibility order.
    """
    m = [[int(x) for x in row] for row in matrix]
    divisors: List[int] = []
    while m := [row for row in m if any(row)]:
        pivot, j = _least(m)
        p = pivot[j]
        for row in m:
            if row[j] and row is not pivot:
                q = row[j] // p
                row[:] = [a - q * b for a, b in zip(row, pivot)]
        if any(row[j] for row in m if row is not pivot):
            continue  # a remainder smaller than |p| is left in column j
        # Column j is p times a unit vector, so column operations change only
        # the pivot row: they clear it when p divides every entry.  Otherwise
        # add in a row p does not divide, unless the pivot row is one; reduce mod p.
        rows = (pivot, *m) if abs(p) > 1 else ()
        bad = next((r for r in rows if any(x % p for x in r)), None)
        if bad is None:
            divisors.append(abs(p))
            pivot.clear()
        else:
            pivot[:] = [x % p for x in bad]
            pivot[j] = p
    return divisors


def homology(g: DigitalSpace, max_dim: int = DEFAULT_MAX_DIM) -> HomologyProfile:
    """Integral simplicial homology of the clique complex.

    betti[k] = dim C_k - rank d_k - rank d_{k+1}; torsion[k] collects
    the elementary divisors of d_{k+1} that exceed one.  Each d_k is
    eliminated on its unit entries, and only the leftover block goes to
    smith_normal_form.  The Euler characteristic is cross-checked
    against the Betti alternating sum.
    Raises ValueError when g has cliques of more than max_dim + 1 points.
    """
    cx = _whole_complex(g, max_dim)
    top = cx.max_dim
    divisors = [[]]
    for k in range(1, top + 1):
        pivots, leftover = _eliminate_units(boundary_matrix(cx, k))
        divisors.append([1] * pivots + smith_normal_form(leftover))
    divisors.append([])
    betti = [cx.count(k) - len(divisors[k]) - len(divisors[k + 1]) for k in range(top + 1)]
    torsion = [[d for d in divisors[k + 1] if d > 1] for k in range(top + 1)]
    chi = cx.euler_characteristic()
    alt = sum((-1) ** k * b for k, b in enumerate(betti))
    if chi != alt:
        raise AssertionError(
            f"Euler characteristic mismatch: clique count {chi} vs Betti sum {alt}")
    return HomologyProfile(chi, betti, torsion)
