"""Smith normal form of integer matrices with exact arithmetic.

The public entry points accept either a dense list-of-rows matrix or a
sparse mapping and return the full invariant-factor chain together with
the rank.  All arithmetic is exact; no floating point is involved.

The computation runs in three stages, each with a totally ordered pivot
rule so results are deterministic:

1. Sparse elimination at divisor pivots: entries v whose absolute value
   equals the gcd of their row and the gcd of their column, chosen by
   least (Markowitz fill cost, |v|, row, column), whatever their value.
   Each row offers one candidate, its cheapest entry equal to its gcd
   (a unit when the gcd is 1), as in Markowitz searches that look at a
   few rows at a time (Duff, Erisman and Reid, "Direct Methods for
   Sparse Matrices", 1986), so the queue holds about one entry per row.
   The search compares column length, then column, and applies the
   row's factor of the cost once; a row that gains a +-1 has gcd 1.
   A row whose candidate does not divide its column offers none until a
   pivot updates it; any other divisor is left to the dense stages.
   Clearing the column by integer row operations is exact, after which
   column operations clear the pivot row without touching any other
   row.  So each pivot splits the matrix into diag(v) + M' and
   contributes v to the factor list; units are the case |v| = 1.
   Following Havas, Holt and Rees ("Recognizing badly presented
   Z-modules", 1993), divisor pivots leave a far smaller dense residual
   than unit pivots alone, and taking the cheapest first (Markowitz,
   "The elimination form of the inverse and its application to linear
   programming", 1957) keeps the fill low: a unit of cost in the
   thousands waits behind a 2 of cost 2.  Stages 2 and 3 run on its
   distinct rows: of rows equal up to sign only the first is kept,
   which leaves the row lattice unchanged.  How many remain on the
   kernel matrices is pinned by the dense residual shape tests in
   tests/test_snf.py and tests/test_subgroups.py.
2. Fraction-free (Bareiss) elimination of the small dense residual,
   column by column.  Every intermediate value is a true minor of the
   residual (Bareiss, "Sylvester's identity and multistep
   integer-preserving Gaussian elimination", 1968), which bounds
   coefficient size, and any nonzero pivot keeps the divisions exact:
   in each column the first row at or below the rank with a nonzero
   entry is the pivot, and a column with none is skipped.  A row whose
   multiplier in a column is 0 would only be rescaled, so it is left
   as it is and keeps the pivot it was last updated against; its next
   update divides by that pivot, which the same identity keeps exact.
   On the kernel matrices that skips 28-34% of the row updates at
   stage counts 3 to 5 and 70-85% from stage count 8 on.  This yields
   the rank r plus D, the gcd of the r x r minors in the last pivot row
   and multipliers, a multiple of d_1 ... d_r.  It divides the
   determinant of the last pivot's minor and is often far smaller.
3. Local elimination of the residual, one base at a time, skipped
   when D = 1.  The product of the invariant factors divides D, so
   every factor does too; as in modulo-determinant methods (Domich,
   Kannan and Trotter, "Hermite normal form computation using modulo
   determinant arithmetic", 1987), any such multiple will do.  The
   bases start as D alone; splits keep them pairwise coprime.  Each
   b-part is found modulo b^k: entries coprime to b are units, so the
   first entry (row-major) not divisible by b is a pivot and clears its
   column in one row operation per row; when no such entry is left
   everything is divided by b and later pivots count one power of b
   more.  The rows of the residual plus b^k Z^cols have invariant
   factors gcd(d_i, b^k) and copies of b^k, so r pivots certify that
   every b-part is below b^k and a power of b.  With fewer, k (started
   at the largest power below 2^30) doubles, capped at v where
   D = b^v c with gcd(b, c) = 1: there the missing b-parts can only be
   b^v.  A base is split, following the dynamic evaluation of Della
   Dora, Dicrescenzo and Duval (EUROCAL '85), when gcd(b, c) > 1 or a
   pivot shares a factor g with b: b becomes g and b stripped of every
   prime of g, and each piece is worked again.  The sorted exponent
   lists of the bases zip into d_1 | ... | d_r.

The factors of all stages are merged into one divisibility chain by one
sweep, as diag(a, b) ~ diag(gcd(a, b), lcm(a, b)) (Newman, 1972, ch. II).
Stage 1 handles the bulk of the large, very sparse relator matrices
produced by subgroup rewriting; stages 2 and 3 keep the dense core
exact without the exponential entry blow-up of plain Euclidean
elimination.  On the kernel matrices D has the last pivot's bits, 114
or more (stage count 5 on), and splitting takes it down to bases that
are powers of 2, 3 and 5 (stage counts 3 to 11), each worked modulo
powers below 2^30, plus at stage count 8 the prime 17, which divides D
but no factor and takes one pass modulo 17; this follows the local
approach of Dumas, Saunders and Villard ("On efficient sparse integer
matrix Smith normal forms", 2001).
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd

SparseRows = dict[int, dict[int, int]]


def smith_normal_form(matrix: list[list[int]]) -> tuple[list[int], int]:
    """Invariant factors (divisibility chain, including 1s) and rank.

    Every row must be as long as row 0; ValueError names the first that
    is not.

    >>> smith_normal_form([[2, 0], [0, 3]])
    ([1, 6], 2)
    >>> smith_normal_form([[0, 0], [0, 0]])
    ([], 0)
    """
    width = len(matrix[0]) if matrix else 0
    work: SparseRows = {}
    for i, row in enumerate(matrix):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} entries, row 0 has "
                             f"{width}")
        entries = {j: v for j, v in enumerate(row) if v}
        if entries:
            work[i] = entries
    return _smith(work)


def smith_normal_form_sparse(rows: SparseRows) -> tuple[list[int], int]:
    """Smith normal form of a sparse integer matrix.

    ``rows`` maps row index to {column index: value}.  Rows and columns
    absent from the mapping are zero.  Returns the invariant factors as a
    divisibility chain (1s included) and the rank.  ``rows`` is never
    changed: the stages work on a copy that leaves out zero entries and
    the rows they leave empty.
    """
    work: SparseRows = {}
    for i, r in rows.items():
        if entries := {j: v for j, v in r.items() if v}:
            work[i] = entries
    return _smith(work)


def _smith(work: SparseRows) -> tuple[list[int], int]:
    """The three stages on ``work``, a mapping they consume: its rows are
    non-empty, its entries nonzero, and no caller reads it afterwards.
    Stage 1's residual is cleared from it as soon as ``_densify`` has
    read it, so Bareiss and the local stage run beside the dense copy
    alone and ``work`` is left empty."""
    factors = _divisor_stage(work)
    dense = _densify(work)
    work.clear()
    rank_rest, det = _bareiss_rank_det([row[:] for row in dense])
    if rank_rest:
        factors.extend(_local_factors(dense, rank_rest, det))
    return _divisibility_chain(factors), len(factors)


def _divisor_stage(rows: SparseRows) -> list[int]:
    """Eliminate at divisor pivots in place; return the pivot values.

    Pivot choice: least (Markowitz cost (len(row)-1)*(len(col)-1), |v|,
    row, column).  Each row queues one candidate in a lazily validated
    heap: its least (cost, column) entry equal to ±g, g the row gcd.  As
    len(row)-1 is the same for all the row's entries, the search takes
    the least (len(col), column) and multiplies once; a row that gained
    a ±1 in an update is queued with g = 1, no gcd taken.  A popped
    entry leaves ``queued``: one that was replaced or whose row is gone
    is skipped, one whose value or cost went stale is replaced by the
    row's current candidate, and one with g > 1 that does not divide its
    column is dropped, which leaves the row nothing in the heap.  After
    a pivot, the updated rows that gained a unit, hold no candidate or
    hold a g > 1 candidate are queued again, so a live candidate divides
    its row and only its column is checked.  A row whose candidate
    column becomes divisible later, with the row unchanged, stays in the
    residual for the dense stages.

    ``cols[j]`` lists the rows with an entry in column j, each once, in no
    particular order: a row is appended when it gains the column and
    removed when its entry cancels or it is pivoted.  A column holds a few
    rows, so a plain list is far smaller than a set, though ``remove`` is
    linear in the column's length.
    """
    cols: dict[int, list[int]] = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, []).append(i)

    heap: list[tuple[int, int, int, int]] = []
    queued: dict[int, tuple[int, int, int, int]] = {}

    def queue(i: int, row: dict[int, int], g: int) -> None:
        size = best = 0
        for j, v in row.items():
            if v == g or v == -g:
                n = len(cols[j])
                if not size or n < size or n == size and j < best:
                    size, best = n, j
        if size:
            queued[i] = entry = ((len(row) - 1) * (size - 1), g, i, best)
            heappush(heap, entry)
        else:
            queued.pop(i, None)

    for i, r in rows.items():
        queue(i, r, gcd(*r.values()))
    pivots: list[int] = []
    while heap:
        entry = heappop(heap)
        cost, a, pr, pc = entry
        if queued.get(pr) is not entry:
            continue
        del queued[pr]
        row = rows[pr]
        v = row.get(pc)
        if (v != a and v != -a
                or cost != (len(row) - 1) * (len(cols[pc]) - 1)):
            queue(pr, row, gcd(*row.values()))
            continue
        col = cols[pc]
        if a > 1 and gcd(*[rows[i][pc] for i in col]) != a:
            continue
        # Clear the column: exact since v divides it.  The pivot row is
        # then cleared by column operations that touch no other row,
        # which splits off diag(v).
        del cols[pc], row[pc]
        col.remove(pr)
        requeue = []
        for i in col:
            trow = rows[i]
            q = trow.pop(pc) // v
            unit = False
            for j, s in row.items():
                t = trow.get(j)
                if t is None:
                    # q and s are nonzero, so a new entry is too
                    trow[j] = new = -q * s
                    cols[j].append(i)
                else:
                    new = t - q * s
                    if not new:
                        del trow[j]
                        cols[j].remove(i)
                        continue
                    trow[j] = new
                if new == 1 or new == -1:
                    unit = True
            if not trow:
                del rows[i]
                queued.pop(i, None)
            elif unit:
                requeue.append((i, 1))
            elif (e := queued.get(i)) is None or e[1] > 1:
                requeue.append((i, gcd(*trow.values())))
        for j in row:
            cols[j].remove(pr)
        del rows[pr]
        pivots.append(a)
        # Column lengths are final only now that every row is updated and
        # the pivot row is gone; a cost taken earlier would go stale.
        for i, g in requeue:
            queue(i, rows[i], g)
    return pivots


def _densify(rows: SparseRows) -> list[list[int]]:
    """Pack the residual into a dense matrix over its live columns.

    Rows equal up to sign span the same lattice, so only the first of
    each class is kept, with its first nonzero entry made positive; the
    rank and the invariant factors are unchanged.
    """
    live = sorted({j for r in rows.values() for j in r})
    colmap = {j: k for k, j in enumerate(live)}
    distinct: dict[tuple[int, ...], None] = {}
    for i in sorted(rows):
        row = [0] * len(live)
        for j, v in rows[i].items():
            row[colmap[j]] = v
        if next(v for v in row if v) < 0:
            row = [-v for v in row]
        distinct[tuple(row)] = None
    return [list(row) for row in distinct]


def _bareiss_rank_det(m: list[list[int]]) -> tuple[int, int]:
    """Rank r and a multiple D of d_1 ... d_r; overwrites the rows of m.

    Fraction-free elimination, one column at a time: every intermediate
    entry is a minor of the input, so sizes stay polynomially bounded,
    and any nonzero pivot keeps the divisions exact.  In column c the
    pivot is the first row at or below the rank with a nonzero entry
    there, swapped up to the rank; a column with no such row is
    skipped, and no later step writes to it.

    A step whose multiplier in a row is 0 would only scale that row by
    piv / prev, the new pivot over the one before; such rows are left
    as they are.  Each row is kept with its scale, the pivot it was last
    updated against (1 at the start).  Invariant: below the rank, a row
    holds its current values times scale / prev, so it is zero exactly
    where its current values are.  A row with multiplier f is updated as
    (piv * x - f * y) // scale against the current pivot row y: this is
    the full update of its current values, whose result is a minor of
    the input (Sylvester's identity), so dividing by the row's own scale
    is exact, and the row is current again with scale piv.  The pivot
    row is brought current first, as x * prev // scale.

    D is the gcd of the r x r minors in the last pivot row, from the last
    pivot column on, and in the last step's multipliers below it, taken
    current as f * prev // scale before that step: a multiple of
    d_1 ... d_r (the gcd of all r x r minors) that divides the last
    pivot, the determinant of a nonsingular r x r minor.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    work = [[1, row] for row in m]
    prev = 1
    rank = last = 0
    mults: list[int] = []
    for c in range(ncols):
        p = next((i for i in range(rank, nrows) if work[i][1][c]), None)
        if p is None:
            continue
        work[rank], work[p] = work[p], work[rank]
        scale, row = work[rank]
        if scale != prev:
            row[c:] = [x * prev // scale for x in row[c:]]
        piv = row[c]
        tail = row[c + 1:]
        mults = []
        for entry in work[rank + 1:]:
            scale, mi = entry
            if f := mi[c]:
                mi[c + 1:] = [(piv * x - f * y) // scale
                              for x, y in zip(mi[c + 1:], tail)]
                mults.append(f * prev // scale)
                entry[0] = piv
        prev = piv
        last = c
        rank += 1
    if not rank:
        return 0, 0
    return rank, gcd(*work[rank - 1][1][last:], *mults)


def _local_factors(dense: list[list[int]], rank: int, det: int) -> list[int]:
    """Invariant factors of the dense residual from its b-parts.

    ``det`` is D, the gcd of the rank x rank minors in the last pivot
    row and multipliers, a multiple of d_1 ... d_rank; the product of
    the invariant factors divides D, and D = 1 leaves nothing to do.
    The bases b start as D alone and stay pairwise coprime.  A base is
    worked only when D = b^v c with gcd(b, c) = 1, so no b-part exceeds
    b^v; a factor of b found in D (gcd(b, c) > 1) or by a pivot splits
    it, and the pieces are worked first.  Exponent lists are sorted, so
    zipping them gives d_1 | ... | d_rank.
    """
    bases = [det] if det > 1 else []
    factors = [1] * rank
    while bases:
        b = bases.pop(0)
        v, c = 0, det
        while c % b == 0:
            c //= b
            v += 1
        split = gcd(b, c)
        k = min(_start_exponent(b), v)
        while split == 1:
            exponents = _local_exponents(dense, b, k, rank)
            if isinstance(exponents, int):
                split = exponents
            # rank pivots certify every b-part; at k = v the missing
            # ones can only be b^k.
            elif len(exponents) == rank or k == v:
                break
            else:
                k = min(2 * k, v)
        if split > 1:
            bases[:0] = _split_base(b, split)
            continue
        exponents += [k] * (rank - len(exponents))
        factors = [d * b ** e for d, e in zip(factors, exponents)]
    return factors


def _start_exponent(b: int) -> int:
    """The largest k >= 1 with b ** k < 2 ** 30, or 1 if there is none."""
    k, power = 1, b * b
    while power < 1 << 30:
        k, power = k + 1, power * b
    return k


def _split_base(b: int, g: int) -> list[int]:
    """Coprime pieces of b for a factor 1 < g < b: g and b stripped of
    every prime of g (dropped when 1)."""
    rest = b
    while (h := gcd(rest, g)) > 1:
        rest //= h
    return [g, rest] if rest > 1 else [g]


def _local_exponents(dense: list[list[int]], b: int, k: int,
                     limit: int) -> list[int] | int:
    """Exponents below k of the invariant factors of the rows modulo b^k.

    Every entry coprime to b is a unit modulo b^k and clears its column
    in one row operation per row.  When every entry is divisible by b,
    dividing by b lowers k by one and raises the exponent of later
    pivots by one.  The result is sorted and stops at ``limit`` pivots.
    The first entry (row-major) not divisible by b is the pivot; if it
    shares a factor g with b, the elimination stops and returns g.
    """
    q = b ** k
    rows = [row for row in ([x % q for x in r] for r in dense) if any(row)]
    exponents: list[int] = []
    shift = 0
    while rows and len(exponents) < limit:
        for i, row in enumerate(rows):
            pc = next((j for j, x in enumerate(row) if x % b), None)
            if pc is not None:
                break
        else:
            q //= b
            shift += 1
            rows = [row for row in ([x // b for x in r] for r in rows)
                    if any(row)]
            continue
        # Once the pivot column is cleared it is zero in every other row,
        # so it is dropped; the rest of the pivot row would be cleared by
        # column operations that touch no other row.
        prow = rows.pop(i)
        pivot = prow.pop(pc)
        g = gcd(pivot, b)
        if g > 1:
            return g
        inv = pow(pivot, -1, q)
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


def _divisibility_chain(factors: list[int]) -> list[int]:
    """Merge positive factors into a divisibility chain in one sweep.

    Each factor above 1 meets every later one; a pair it does not divide
    becomes (gcd, lcm).  Invariant: after its turn an entry divides every
    later one, and they stay its multiples.  The 1s go in front.
    """
    chain = [d for d in factors if d > 1]
    for i, a in enumerate(chain):
        for j in range(i + 1, len(chain)):
            b = chain[j]
            if b % a:
                g = gcd(a, b)
                chain[j] = a // g * b
                a = g
        chain[i] = a
    return [1] * (len(factors) - len(chain)) + chain
