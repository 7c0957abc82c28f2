"""Clique complexes, Euler characteristic, and integral homology.

Homology is computed over the integers via Smith normal form of the
boundary matrices, because the torsion part matters here: Z/2 torsion
in dimension one is what tells a Klein bottle apart from a torus.
All arithmetic uses Python integers, so there is no overflow to guard
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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


def boundary_matrix(cx: CliqueComplex, k: int) -> List[List[int]]:
    """Integer matrix of the boundary map from k-chains to (k-1)-chains.

    Rows index (k-1)-simplices, columns index k-simplices; the face
    omitting the i-th vertex carries sign (-1)^i.
    """
    if k <= 0 or k > cx.max_dim:
        return []
    rows = {s: i for i, s in enumerate(cx.simplices[k - 1])}
    mat = [[0] * len(cx.simplices[k]) for _ in range(len(cx.simplices[k - 1]))]
    for j, simplex in enumerate(cx.simplices[k]):
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1:]
            mat[rows[face]][j] = (-1) ** i
    return mat


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> List[int]:
    """Elementary divisors d1 | d2 | ... of an integer matrix.

    Exact integer row/column elimination; returns only the nonzero
    divisors, each positive, in divisibility order.
    """
    m = [list(map(int, row)) for row in matrix]
    if not m or not m[0]:
        return []
    rows, cols = len(m), len(m[0])
    divisors: List[int] = []
    top = 0
    while top < rows and top < cols:
        # Locate a pivot of minimal absolute value in the active block.
        pivot = None
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        while True:
            # Clear the pivot column, then the pivot row.
            changed = False
            for i in range(top + 1, rows):
                if m[i][top]:
                    q = m[i][top] // m[top][top]
                    for j in range(top, cols):
                        m[i][j] -= q * m[top][j]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                    changed = True
            for j in range(top + 1, cols):
                if m[top][j]:
                    q = m[top][j] // m[top][top]
                    for i in range(top, rows):
                        m[i][j] -= q * m[i][top]
                    if m[top][j]:
                        for i in range(top, rows):
                            m[i][top], m[i][j] = m[i][j], m[i][top]
                    changed = True
            if not changed:
                break
        # Enforce divisibility: fold in any entry the pivot does not divide.
        d = m[top][top]
        retry = False
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if m[i][j] % d:
                    for jj in range(top, cols):
                        m[top][jj] += m[i][jj]
                    retry = True
                    break
            if retry:
                break
        if retry:
            continue
        divisors.append(abs(d))
        top += 1
    return divisors


def _rank_and_torsion(divisors: List[int]) -> Tuple[int, List[int]]:
    return len(divisors), [d for d in divisors if d > 1]


def homology(g: DigitalSpace, max_dim: int = DEFAULT_MAX_DIM) -> HomologyProfile:
    """Integral simplicial homology of the clique complex.

    betti[k] = dim C_k - rank d_k - rank d_{k+1}; torsion[k] collects
    the elementary divisors of d_{k+1} that exceed one.  The Euler
    characteristic is cross-checked against the Betti alternating sum.
    Raises ValueError when g has cliques of more than max_dim + 1 points.
    """
    cx = _whole_complex(g, max_dim)
    top = cx.max_dim
    ranks: Dict[int, int] = {0: 0, top + 1: 0}
    torsion_of: Dict[int, List[int]] = {top + 1: []}
    for k in range(1, top + 1):
        ranks[k], torsion_of[k] = _rank_and_torsion(smith_normal_form(boundary_matrix(cx, k)))
    betti = [cx.count(k) - ranks[k] - ranks[k + 1] for k in range(top + 1)]
    torsion = [torsion_of[k + 1] for k in range(top + 1)]
    chi = cx.euler_characteristic()
    alt = sum((-1) ** k * b for k, b in enumerate(betti))
    if chi != alt:
        raise AssertionError(
            f"Euler characteristic mismatch: clique count {chi} vs Betti sum {alt}")
    return HomologyProfile(chi, betti, torsion)
