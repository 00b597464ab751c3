"""Smith normal form of integer matrices with exact arithmetic.

The public entry points accept either a dense list-of-rows matrix or a
sparse mapping and return the full invariant-factor chain together with
the rank.  All arithmetic is exact; no floating point is involved.

The computation runs in three stages, each with a totally ordered pivot
rule so results are deterministic:

1. Sparse elimination at divisor pivots: entries v whose absolute value
   equals the gcd of their row and the gcd of their column, chosen by
   least (|v|, Markowitz fill cost, row, column).  Clearing the column
   by integer row operations is exact, after which column operations
   clear the pivot row without touching any other row.  So each pivot
   splits the matrix into diag(v) + M' and contributes v to the factor
   list; units are the case |v| = 1 and go first.  Following Havas,
   Holt and Rees ("Recognizing badly presented Z-modules", 1993), this
   leaves a far smaller dense residual than unit pivots alone.
2. Fraction-free (Bareiss) elimination of the small dense residual.
   Every intermediate value is a true minor of the residual, which
   bounds coefficient size and yields the rank r plus the determinant D
   of a nonsingular r x r minor.
3. Local elimination of the residual, one prime at a time.  Every
   invariant factor divides D, and so does their product, so when D
   factors over the primes below 100 each p-part is found modulo p^k:
   Z/p^k is local, so the first entry (row-major) not divisible by p is
   a unit pivot and clears its column in one row operation per row;
   when no unit is left everything is divided by p and later pivots
   count one power of p more.  The rows of the residual plus p^k Z^cols
   have invariant factors gcd(d_i, p^k) and copies of p^k, so r pivots
   certify that every p-part is below p^k and exact.  With fewer, k
   (started at the largest power below 2^30) doubles, capped at v_p(D),
   where the missing p-parts can only be p^v_p(D).  The sorted exponent
   lists of the primes zip into d_1 | ... | d_r.
   If D has a prime factor of 100 or more, modulo-D elimination runs
   instead.  Because every invariant factor divides D, rows D*e_j may
   be adjoined for each residual column without changing the torsion,
   which licenses reducing every entry into the balanced range
   (-D/2, D/2].  Extracted pivots v give factors gcd(v, D) and columns
   exhausted mod D give factor D.  These factors normalise to the chain
   of the adjoined matrix, d_1 | ... | d_r followed by cols - r copies
   of D; the reduction may split a factor into coprime pieces, so the
   factors are normalised to that chain first and its last cols - r
   entries are then dropped.

The factors of all stages are merged into one divisibility chain.
Stage 1 handles the bulk of the large, very sparse relator matrices
produced by subgroup rewriting; stages 2 and 3 keep the dense core
exact without the exponential entry blow-up of plain Euclidean
elimination.  On the kernel matrices the local stage works modulo
prime powers below 2^30 instead of a determinant of 137 bits or more
(stage count 5 on); it follows the local approach of Dumas, Saunders
and Villard ("On efficient sparse integer matrix Smith normal forms",
2001).
"""

from __future__ import annotations

import heapq
from math import gcd

SparseRows = dict[int, dict[int, int]]


def smith_normal_form(matrix: list[list[int]]) -> tuple[list[int], int]:
    """Invariant factors (divisibility chain, including 1s) and rank.

    >>> smith_normal_form([[2, 0], [0, 3]])
    ([1, 6], 2)
    >>> smith_normal_form([[0, 0], [0, 0]])
    ([], 0)
    """
    rows: SparseRows = {}
    for i, row in enumerate(matrix):
        entries = {j: v for j, v in enumerate(row) if v}
        if entries:
            rows[i] = entries
    return smith_normal_form_sparse(rows)


def smith_normal_form_sparse(rows: SparseRows) -> tuple[list[int], int]:
    """Smith normal form of a sparse integer matrix.

    ``rows`` maps row index to {column index: nonzero value}.  Rows and
    columns absent from the mapping are zero.  Returns the invariant
    factors as a divisibility chain (1s included) and the rank.
    """
    work = {i: dict(r) for i, r in rows.items() if r}
    factors = _divisor_stage(work)
    dense, ncols = _densify(work)
    rank_rest, det = _bareiss_rank_det([row[:] for row in dense])
    if rank_rest:
        valuations = _smooth_valuations(det)
        if valuations is None:
            factors.extend(_mod_det_factors(dense, ncols, rank_rest, det))
        else:
            factors.extend(_local_factors(dense, rank_rest, valuations))
    return _divisibility_chain(factors), len(factors)


def _divisor_stage(rows: SparseRows) -> list[int]:
    """Eliminate at divisor pivots in place; return the pivot values.

    Pivot choice: least (|v|, Markowitz cost (len(row)-1)*(len(col)-1),
    row, column).  Candidates live in a lazily validated heap; stale
    entries are discarded on pop.  Units are pushed as soon as they
    appear.  Other candidates come from a scan for entries v equal to
    their row gcd, and elimination keeps such a row divisible by v: a
    pivot w at (r, c) subtracts e/w times row r, a multiple of w, from
    a row holding e at column c, so the row changes by a multiple of e.
    Only the column is checked on pop.  A column can become divisible
    without its row changing, so the scan is repeated until a round
    makes no pivot.
    """
    cols: dict[int, set[int]] = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)

    heap: list[tuple[int, int, int, int]] = []

    def push(i: int, j: int, a: int) -> None:
        cost = (len(rows[i]) - 1) * (len(cols[j]) - 1)
        heapq.heappush(heap, (a, cost, i, j))

    for i, r in rows.items():
        for j, v in r.items():
            if abs(v) == 1:
                push(i, j, 1)

    pivots: list[int] = []
    scanned = -1
    while True:
        while heap:
            a, cost, pr, pc = heapq.heappop(heap)
            row = rows.get(pr)
            if row is None:
                continue
            v = row.get(pc, 0)
            if abs(v) != a:
                continue
            if cost != (len(row) - 1) * (len(cols[pc]) - 1):
                push(pr, pc, a)
                continue
            if a != 1 and gcd(*[rows[i][pc] for i in cols[pc]]) != a:
                continue
            # Clear the column: exact since v divides it.  The pivot
            # row is then cleared by column operations that touch no
            # other row, which splits off diag(v).
            for i in list(cols[pc]):
                if i == pr:
                    continue
                trow = rows[i]
                q = trow[pc] // v
                for j, s in row.items():
                    new = trow.get(j, 0) - q * s
                    if new:
                        if j not in trow:
                            cols[j].add(i)
                        trow[j] = new
                        if abs(new) == 1:
                            push(i, j, 1)
                    elif j in trow:
                        del trow[j]
                        cols[j].discard(i)
                if not trow:
                    del rows[i]
            for j in row:
                cols[j].discard(pr)
            del rows[pr]
            del cols[pc]
            pivots.append(a)
        if scanned == len(pivots):
            return pivots
        # Units are pushed as they appear, so only rows with gcd above
        # 1 can hold a new candidate.
        scanned = len(pivots)
        for i, r in rows.items():
            g = gcd(*r.values())
            if g > 1:
                for j, v in r.items():
                    if abs(v) == g:
                        push(i, j, g)


def _densify(rows: SparseRows) -> tuple[list[list[int]], int]:
    """Pack the residual into a dense matrix over its live columns."""
    live = sorted({j for r in rows.values() for j in r})
    colmap = {j: k for k, j in enumerate(live)}
    dense = []
    for i in sorted(rows):
        row = [0] * len(live)
        for j, v in rows[i].items():
            row[colmap[j]] = v
        dense.append(row)
    return dense, len(live)


def _bareiss_rank_det(m: list[list[int]]) -> tuple[int, int]:
    """Rank and determinant of a leading nonsingular minor, in place.

    Fraction-free elimination: every intermediate entry is a minor of
    the input, so sizes stay polynomially bounded.  Pivots are chosen
    by least absolute value (ties row-major) to keep the minor small.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    prev = 1
    rank = 0
    for k in range(min(nrows, ncols)):
        best = None
        for i in range(k, nrows):
            mi = m[i]
            for j in range(k, ncols):
                v = mi[j]
                if v:
                    key = (abs(v), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, bi, bj = best
        if bi != k:
            m[k], m[bi] = m[bi], m[k]
        if bj != k:
            for row in m:
                row[k], row[bj] = row[bj], row[k]
        piv = m[k][k]
        mk = m[k]
        # The division by the previous pivot is exact by Sylvester's
        # identity, but only if every row is updated, zeros included.
        for i in range(k + 1, nrows):
            mi = m[i]
            f = mi[k]
            for j in range(k + 1, ncols):
                mi[j] = (piv * mi[j] - f * mk[j]) // prev
            mi[k] = 0
        prev = piv
        rank += 1
    return rank, abs(prev) if rank else 0


_SMALL_PRIMES = tuple(p for p in range(2, 100)
                      if all(p % q for q in range(2, p)))


def _smooth_valuations(det: int) -> dict[int, int] | None:
    """{p: v_p(det)} when det factors over the primes below 100, else None."""
    valuations = {}
    for p in _SMALL_PRIMES:
        v = 0
        while det % p == 0:
            det //= p
            v += 1
        if v:
            valuations[p] = v
    return valuations if det == 1 else None


def _local_factors(
    dense: list[list[int]], rank: int, valuations: dict[int, int]
) -> list[int]:
    """Invariant factors of the dense residual from its p-parts.

    ``valuations`` maps each prime p dividing the determinant D of a
    nonsingular rank x rank minor to v_p(D); the product of the
    invariant factors divides D, so no other prime occurs and no
    p-part exceeds p^v_p(D).  Exponent lists are sorted, so zipping
    them gives the chain d_1 | ... | d_rank.
    """
    factors = [1] * rank
    for p, v in valuations.items():
        k = 1
        while p ** (k + 1) < 1 << 30:
            k += 1
        k = min(k, v)
        while True:
            exponents = _local_exponents(dense, p, k, rank)
            # rank pivots certify every p-part; at k = v_p(D) the
            # missing ones can only be p^k.
            if len(exponents) == rank or k == v:
                break
            k = min(2 * k, v)
        exponents += [k] * (rank - len(exponents))
        factors = [d * p ** e for d, e in zip(factors, exponents)]
    return factors


def _local_exponents(dense: list[list[int]], p: int, k: int,
                     limit: int) -> list[int]:
    """Exponents below k of the invariant factors of the rows modulo p^k.

    Z/p^k is local, so every entry not divisible by p is a unit and
    clears its column in one row operation per row.  When no unit is
    left, every entry is divisible by p: dividing by p lowers k by one
    and raises the exponent of later pivots by one.  The result is
    sorted and stops at ``limit`` pivots.
    """
    q = p ** k
    rows = [row for row in ([x % q for x in r] for r in dense) if any(row)]
    exponents: list[int] = []
    shift = 0
    while rows and len(exponents) < limit:
        for i, row in enumerate(rows):
            pc = next((j for j, x in enumerate(row) if x % p), None)
            if pc is not None:
                break
        else:
            q //= p
            shift += 1
            rows = [row for row in ([x // p for x in r] for r in rows)
                    if any(row)]
            continue
        # Once the pivot column is cleared it is zero in every other row,
        # so it is dropped; the rest of the pivot row would be cleared by
        # column operations that touch no other row.
        prow = rows.pop(i)
        inv = pow(prow.pop(pc), -1, q)
        prow = [x * inv % q for x in prow]
        cleared = []
        for row in rows:
            f = row.pop(pc)
            if f:
                row = [(x - f * y) % q for x, y in zip(row, prow)]
                if not any(row):
                    continue
            cleared.append(row)
        rows = cleared
        exponents.append(shift)
    return exponents


def _mod_det_factors(
    dense: list[list[int]], ncols: int, rank: int, det: int
) -> list[int]:
    """Invariant factors of the dense residual via modulo-D reduction.

    ``det`` is the determinant of a nonsingular rank x rank minor; all
    invariant factors divide it, so arithmetic is sound modulo det with
    entries kept in the balanced range.  Exactly ``ncols - rank``
    spurious factors equal to det are discarded.
    """
    d = det
    half = d // 2

    def bal(v: int) -> int:
        v %= d
        if v > half:
            v -= d
        return v

    rows: SparseRows = {}
    for i, row in enumerate(dense):
        entries = {j: bal(v) for j, v in enumerate(row)}
        entries = {j: v for j, v in entries.items() if v}
        if entries:
            rows[i] = entries
    cols: dict[int, set[int]] = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)

    def row_sub(t: int, s: int, q: int) -> None:
        trow = rows[t]
        for j, v in rows[s].items():
            new = bal(trow.get(j, 0) - q * v)
            if new:
                if j not in trow:
                    cols[j].add(t)
                trow[j] = new
            elif j in trow:
                del trow[j]
                cols[j].discard(t)
        if not trow:
            del rows[t]

    factors = []
    pivot_cols = 0
    while rows:
        best = None
        for i, r in rows.items():
            for j, v in r.items():
                key = (abs(v), i, j)
                if best is None or key < best:
                    best = key
        _, pr, pc = best
        while True:
            v = rows[pr][pc]
            moved = False
            for i in sorted(cols[pc]):
                if i == pr:
                    continue
                e = rows[i][pc]
                q = e // v
                if q:
                    row_sub(i, pr, q)
                if rows.get(i, {}).get(pc):
                    pr = i
                    moved = True
                    break
            if moved:
                continue
            prow = rows[pr]
            v = prow[pc]
            for j in sorted(prow):
                if j == pc:
                    continue
                e = prow[j]
                q = e // v
                if q:
                    new = bal(e - q * v)
                    if new:
                        prow[j] = new
                    else:
                        del prow[j]
                        cols[j].discard(pr)
                if prow.get(j):
                    pc = j
                    moved = True
                    break
            if moved:
                continue
            break
        factors.append(gcd(rows[pr][pc], d))
        for j in list(rows[pr]):
            cols[j].discard(pr)
        del rows[pr]
        pivot_cols += 1
    # Columns exhausted modulo det carry factor det from the adjoined
    # rows.  Reduction modulo det can split a factor into coprime
    # pieces, so only the chain is well defined: it ends in the
    # cols - rank artifact copies of det, which are dropped.
    factors.extend([d] * (ncols - pivot_cols))
    return _divisibility_chain(factors)[:rank]


def _divisibility_chain(factors: list[int]) -> list[int]:
    """Normalize positive factors into a divisibility chain."""
    chain = sorted(factors)
    changed = True
    while changed:
        changed = False
        for i in range(len(chain) - 1):
            a, b = chain[i], chain[i + 1]
            if b % a:
                g = gcd(a, b)
                chain[i], chain[i + 1] = g, a * b // g
                changed = True
        chain.sort()
    return chain
