"""The Smith normal form as it was before the least-entry pivot loop.

A Euclid loop that swaps rows and columns mid-sweep, then retries
when the pivot does not divide the rest.  It is kept verbatim as a
differential oracle: on every boundary matrix the tests feed it, it
terminates, and ``invariants.smith_normal_form`` must return the same
divisor list.  It does not terminate on every integer matrix (see
``tests/test_invariants.py``), so tests give it only boundary matrices.

``dense`` turns the sparse columns of ``invariants.boundary_matrix``
into the rows x columns list of lists this routine reads.
"""

from typing import Dict, List, Sequence


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
