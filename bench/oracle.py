"""Independent Smith normal form, used to check the random matrices.

Textbook dense reduction over the integers: bring the least nonzero entry
of the remaining block to the pivot position, clear its column and row by
division with remainder, and when the pivot fails to divide some entry of
the block, add that entry's row to the pivot row so the next remainder
is smaller.  It shares no code with ``knotcover.snf`` and is slow, so it
runs once per matrix, outside the timed passes.
"""

from __future__ import annotations


def smith_invariants(matrix: list[list[int]]) -> tuple[list[int], int]:
    """Invariant factors (a divisibility chain, 1s included) and rank, in
    the form ``knotcover.snf.smith_normal_form`` returns them."""
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    diagonal = []
    top = 0
    while top < min(nrows, ncols):
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = m[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        pivot = m[top][top]
        cleared = True
        for i in range(top + 1, nrows):
            q = m[i][top] // pivot
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[top])]
            cleared = cleared and not m[i][top]
        for j in range(top + 1, ncols):
            q = m[top][j] // pivot
            if q:
                for row in m:
                    row[j] -= q * row[top]
            cleared = cleared and not m[top][j]
        if not cleared:
            continue
        offender = next(
            (i for i in range(top + 1, nrows)
             for j in range(top + 1, ncols) if m[i][j] % pivot),
            None,
        )
        if offender is not None:
            m[top] = [a + b for a, b in zip(m[top], m[offender])]
            continue
        diagonal.append(abs(pivot))
        top += 1
    return diagonal, len(diagonal)
