"""Earlier invariants routines, kept verbatim as differential oracles.

``smith_normal_form`` is the Smith normal form as it was before the
least-entry pivot loop: a Euclid loop that swaps rows and columns
mid-sweep, then retries when the pivot does not divide the rest.  On
every boundary matrix the tests feed it, it terminates, and
``invariants.smith_normal_form`` must return the same divisor list.  It
does not terminate on every integer matrix (see
``tests/test_invariants.py``), so tests give it only boundary matrices.

``dense`` turns the sparse columns of ``invariants.boundary_matrix``
into the rows x columns list of lists this routine reads.

``clique_levels`` and ``homology_profile`` are the homology pipeline as
it was before d1 was read from the connected components: cliques grown
by intersecting the neighbours of every member again, and every
boundary map, d1 included, built and reduced by
``invariants.smith_normal_form``.  ``invariants.clique_complex`` and
``invariants.homology`` must give the same simplices, chi, Betti
numbers and torsion.
"""

from typing import Dict, List, Sequence, Tuple

from digital_pde.graph_core import DigitalSpace
from digital_pde.invariants import CliqueComplex, boundary_matrix
from digital_pde.invariants import smith_normal_form as sparse_smith_normal_form


def dense(columns: Sequence[Dict[int, int]], rows: int) -> List[List[int]]:
    """The rows x len(columns) integer matrix whose column j is columns[j]."""
    return [[col.get(i, 0) for col in columns] for i in range(rows)]


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


def clique_levels(g: DigitalSpace) -> List[List[Tuple[int, ...]]]:
    """Every clique of g, grouped by dimension, each level in
    lexicographic order: (k+1)-cliques grown from k-cliques by adding a
    larger vertex adjacent to all members."""
    levels: List[List[Tuple[int, ...]]] = [[(p,) for p in sorted(g.points)]]
    while True:
        nxt = []
        for clique in levels[-1]:
            common = g.neighbors(clique[0])
            for p in clique[1:]:
                common = common & g.neighbors(p)
            last = clique[-1]
            for w in sorted(common):
                if w > last:
                    nxt.append(clique + (w,))
        if not nxt:
            return levels
        levels.append(nxt)


def homology_profile(g: DigitalSpace):
    """(chi, betti, torsion) of the clique complex, every boundary map
    reduced, d1 included."""
    cx = CliqueComplex(clique_levels(g))
    top = cx.max_dim
    divisors = [[]]
    for k in range(1, top + 1):
        divisors.append(sparse_smith_normal_form(boundary_matrix(cx, k)))
    divisors.append([])
    betti = [cx.count(k) - len(divisors[k]) - len(divisors[k + 1]) for k in range(top + 1)]
    torsion = [[d for d in divisors[k + 1] if d > 1] for k in range(top + 1)]
    return cx.euler_characteristic(), betti, torsion
