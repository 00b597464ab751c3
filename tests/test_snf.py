"""Tests for exact integer Smith normal form."""

import copy
import hashlib
import random
from collections import Counter
from itertools import combinations, count
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotcover import snf
from knotcover.cosets import kernel_coset_table
from knotcover.homcheck import phi_tables
from knotcover.presentations import kj_presentation
from knotcover.snf import smith_normal_form, smith_normal_form_sparse
from knotcover.subgroups import abelianize, reidemeister_schreier


def naive_snf(matrix):
    """Textbook dense reduction: repeatedly pick the least nonzero entry,
    clear its row and column Euclid-style, and collect the diagonal.
    Slow but simple enough to trust as an oracle."""
    m = [row[:] for row in matrix]
    factors = []
    while True:
        best = None
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                if v and (best is None or (abs(v), i, j) < best):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, pr, pc = best
        while True:
            v = m[pr][pc]
            dirty = False
            for i in range(len(m)):
                if i != pr and m[i][pc]:
                    q = m[i][pc] // v
                    if q:
                        for j in range(len(m[i])):
                            m[i][j] -= q * m[pr][j]
                    if m[i][pc]:
                        pr = i
                        dirty = True
                        break
            if dirty:
                continue
            v = m[pr][pc]
            for j in range(len(m[pr])):
                if j != pc and m[pr][j]:
                    q = m[pr][j] // v
                    if q:
                        for i in range(len(m)):
                            m[i][j] -= q * m[i][pc]
                    if m[pr][j]:
                        pc = j
                        dirty = True
                        break
            if dirty:
                continue
            break
        factors.append(abs(m[pr][pc]))
        for j in range(len(m[pr])):
            m[pr][j] = 0
        for i in range(len(m)):
            m[i][pc] = 0
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
    return chain, len(chain)


def test_diagonal_merges_into_chain():
    assert smith_normal_form([[2, 0], [0, 3]]) == ([1, 6], 2)
    # no unit entry at all: each entry is a divisor pivot
    diag = [[6, 0, 0], [0, 10, 0], [0, 0, 15]]
    assert smith_normal_form(diag) == ([1, 30, 30], 3)


def test_chain_merges_only_factors_above_one():
    chain = snf._divisibility_chain([1] * 50 + [6, 10, 15])
    assert chain == [1] * 51 + [30, 30]


SMOOTH_PRIMES = (2, 3, 5, 7)


def per_prime_chain(entries):
    """Invariant factors of diag(entries), entries products of 2, 3, 5 and
    7: for each prime, the entries' exponents sorted ascending."""
    chain = [1] * len(entries)
    for p in SMOOTH_PRIMES:
        exponents = []
        for d in entries:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            exponents.append(e)
        chain = [c * p ** e for c, e in zip(chain, sorted(exponents))]
    return chain


def smooth_lists(rng):
    """Seeded lists of products of 2, 3, 5 and 7 with 1s mixed in, then
    long lists of pairwise coprime entries, whose product the chain
    gathers into its last entry."""
    for _ in range(300):
        yield [prod(rng.choice(SMOOTH_PRIMES)
                    for _ in range(rng.randint(0, 8)))
               for _ in range(rng.randint(1, 12))]
    for _ in range(20):
        primes = list(SMOOTH_PRIMES)
        rng.shuffle(primes)
        cut = sorted(rng.sample(range(1, 4), rng.randint(0, 3)))
        blocks = [primes[i:j] for i, j in zip([0, *cut], [*cut, 4])]
        entries = [prod(p ** rng.randint(1, 4) for p in block)
                   for block in blocks] + [1] * rng.randint(20, 60)
        rng.shuffle(entries)
        yield entries


def test_merge_matches_the_per_prime_exponents():
    coprime = 0
    for entries in smooth_lists(random.Random(33)):
        expected = per_prime_chain(entries)
        assert snf._divisibility_chain(entries) == expected
        diag = [[d if i == j else 0 for j in range(len(entries))]
                for i, d in enumerate(entries)]
        assert smith_normal_form(diag) == (expected, len(entries))
        if len(entries) >= 20:
            assert expected[-1] == prod(entries)
            coprime += 1
    assert coprime == 20


def test_zero_matrix():
    assert smith_normal_form([[0, 0], [0, 0]]) == ([], 0)


def test_identity():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert smith_normal_form(eye) == ([1, 1, 1], 3)


def test_rank_deficient():
    assert smith_normal_form([[1, 2], [2, 4]]) == ([1], 1)


def test_no_unit_entries_exercises_dense_stages():
    # all entries >= 2 so the unit-pivot stage finds nothing
    assert smith_normal_form([[6, 4], [4, 6]]) == ([2, 10], 2)
    assert smith_normal_form([[2, 4], [4, 2]]) == ([2, 6], 2)


def test_residual_keeps_one_row_per_sign_class():
    # no entry equals its row gcd 2, so the whole matrix is the residual
    matrix = [[6, 4], [4, 6], [-6, -4], [6, 4], [-4, -6]]
    rows = {i: dict(enumerate(row)) for i, row in enumerate(matrix)}
    assert snf._divisor_stage(rows) == []
    assert snf._densify(rows) == [[6, 4], [4, 6]]
    assert smith_normal_form(matrix) == ([2, 10], 2)


def test_divisor_stage_splits_off_each_pivot():
    rows = {0: {0: 6}, 1: {1: 10}, 2: {2: 15}}
    assert snf._divisor_stage(rows) == [6, 10, 15]
    assert rows == {}
    # 2 divides its row and column: subtracting 3 times row 0 leaves -4
    rows = {0: {0: 2, 1: 4}, 1: {0: 6, 1: 8}}
    assert snf._divisor_stage(rows) == [2, 4]
    assert rows == {}


def test_divisor_stage_takes_the_cheapest_pivot_whatever_its_value():
    # the 2 is alone in its row and column (cost 0) and goes before the
    # units (cost 1); clearing the unit at (1, 1) leaves -2 in row 2,
    # which is pushed at once
    rows = {0: {0: 2}, 1: {1: 1, 2: 1}, 2: {1: 1, 2: -1}}
    assert snf._divisor_stage(rows) == [2, 1, 2]
    assert rows == {}


def test_divisor_stage_skips_entries_that_do_not_divide_their_column():
    # 2 divides its row but not the 3 below it; no other entry divides
    # its row, so the whole matrix is left to the dense stages
    rows = {0: {0: 2}, 1: {0: 3, 1: 5}}
    assert snf._divisor_stage(rows) == []
    assert rows == {0: {0: 2}, 1: {0: 3, 1: 5}}
    assert smith_normal_form([[2, 0], [3, 5]]) == ([1, 10], 2)


def heap_traffic(monkeypatch):
    """Lists that fill with every (cost, |v|, row, column) entry the
    divisor stage pushes on its heap and every entry it pops."""
    pushed, popped = [], []
    real_push, real_pop = snf.heappush, snf.heappop

    def push(heap, entry):
        pushed.append(entry)
        real_push(heap, entry)

    def pop(heap):
        popped.append(real_pop(heap))
        return popped[-1]

    monkeypatch.setattr(snf, "heappush", push)
    monkeypatch.setattr(snf, "heappop", pop)
    return pushed, popped


def divisor_stage_queue(monkeypatch, rows):
    """Check the whole form of ``rows`` against the oracle, then run the
    divisor stage on a copy; return its pivots, the residual and every
    (cost, |v|, row, column) entry pushed on its heap."""
    ncols = 1 + max(j for r in rows.values() for j in r)
    matrix = [[r.get(j, 0) for j in range(ncols)] for r in rows.values()]
    assert smith_normal_form(matrix) == naive_snf(matrix)
    pushed, _ = heap_traffic(monkeypatch)
    work = {i: dict(r) for i, r in rows.items()}
    return snf._divisor_stage(work), work, pushed


def test_queued_unit_made_a_non_unit_gives_way_to_the_rows_other_unit(
        monkeypatch):
    # row 1 queues its unit at column 1 (cost 2, before column 2 by index);
    # the pivot at (0, 0) turns it into 3 and gives the row no new unit, so
    # the stale entry is replaced by the row's other unit at column 2
    rows = {0: {0: 1, 1: 1}, 1: {0: -2, 1: 1, 2: 1}, 2: {2: 5, 3: 7}}
    pivots, residual, pushed = divisor_stage_queue(monkeypatch, rows)
    assert [e for e in pushed if e[2] == 1] == [(2, 1, 1, 1), (1, 1, 1, 2)]
    assert pivots == [1, 1]
    assert residual == {2: {1: -15, 3: 7}}


def test_queued_unit_whose_cost_went_stale_is_queued_again(monkeypatch):
    # the pivot at (0, 2) takes row 0 out of column 0, so row 1's unit
    # there drops from cost 1 to 0 and is queued again at its new cost
    rows = {0: {0: 2, 2: 1}, 1: {0: 1, 1: 3}}
    pivots, residual, pushed = divisor_stage_queue(monkeypatch, rows)
    assert [e for e in pushed if e[2] == 1] == [(1, 1, 1, 0), (0, 1, 1, 0)]
    assert pivots == [1, 1]
    assert residual == {}


def test_update_that_gives_a_row_a_cheaper_unit_queues_it(monkeypatch):
    # row 1's only unit, at column 2, costs 6; the pivot at (0, 0) leaves
    # -1 alone in column 1, of cost 0, so row 1 is pivoted there and the
    # rows below its column-2 unit are never touched
    rows = {0: {0: 1, 1: 1}, 1: {0: 3, 1: 2, 2: 1, 3: 2},
            2: {2: 2, 4: 3}, 3: {2: 2, 5: 3}}
    pivots, residual, pushed = divisor_stage_queue(monkeypatch, rows)
    assert [e for e in pushed if e[2] == 1] == [(6, 1, 1, 2), (0, 1, 1, 1)]
    assert pivots == [1, 1]
    assert residual == {2: {2: 2, 4: 3}, 3: {2: 2, 5: 3}}


def test_non_unit_that_fails_its_column_returns_with_a_new_row_gcd(
        monkeypatch):
    # the 2 at (0, 0) divides its row but not the 3 below it, so row 0
    # is left unqueued; the unit pivot at (1, 1) makes it (-10, 0, -20),
    # whose new gcd 10 is queued once the pivot is done and now divides
    # its column
    rows = {0: {0: 2, 1: 4}, 1: {0: 3, 1: 1, 2: 5}}
    pivots, residual, pushed = divisor_stage_queue(monkeypatch, rows)
    assert [e for e in pushed if e[2] == 0] == [(1, 2, 0, 0), (0, 10, 0, 0)]
    assert pivots == [1, 10]
    assert residual == {}


def test_row_with_a_non_unit_gcd_queues_one_candidate(monkeypatch):
    # row 1 has gcd 2 at columns 0, 1 and 3, all of cost 2, and queues
    # only the first; the pivot at (0, 1) updates it to gcd 2 at columns
    # 0, 3 and 4, again all of cost 2, so it queues column 0 once more
    rows = {0: {1: 1, 4: 1}, 1: {0: 2, 1: 2, 3: 2}, 2: {0: 6, 3: 6},
            3: {4: 3, 5: 7}}
    pivots, residual, pushed = divisor_stage_queue(monkeypatch, rows)
    assert [e for e in pushed if e[2] == 1] == [(2, 2, 1, 0), (2, 2, 1, 0)]
    assert pivots == [1, 2]
    assert residual == {2: {4: 6}, 3: {4: 3, 5: 7}}


def test_residual_that_split_a_factor_modulo_det():
    # Reduction modulo D = 180 once split a factor of this residual into
    # coprime pieces; the local stage must give the oracle's chain too.
    residual = [[12, 10, 0], [-12, -48, 18], [-12, -48, 18]]
    assert smith_normal_form(residual) == naive_snf(residual) == ([2, 6], 2)


def test_single_entry():
    assert smith_normal_form([[7]]) == ([7], 1)
    assert smith_normal_form([[-7]]) == ([7], 1)


def test_sparse_and_dense_agree():
    matrix = [[0, 3, 0], [2, 0, -5], [0, 0, 4]]
    rows = {
        i: {j: v for j, v in enumerate(row) if v}
        for i, row in enumerate(matrix)
    }
    assert smith_normal_form_sparse(rows) == smith_normal_form(matrix)


def test_empty_sparse_input():
    assert smith_normal_form_sparse({}) == ([], 0)


def test_sparse_input_with_explicit_zeros():
    # a stored zero is no entry: the zero matrix has rank 0, and a row
    # left empty once its zeros go is no row
    assert smith_normal_form_sparse({0: {0: 0}}) == ([], 0)
    rows = {0: {0: 0, 1: 3}, 1: {0: 0}}
    assert smith_normal_form_sparse(rows) == naive_snf([[0, 3], [0, 0]]) \
        == ([3], 1)


def test_sparse_input_with_zeros_sprinkled_in_against_oracle():
    rng = random.Random(35)
    zeros = 0
    for matrix in sparse_fill_matrices()[:60]:
        rows = {}
        for i, row in enumerate(matrix):
            entries = {j: v for j, v in enumerate(row)
                       if v or rng.random() < 0.2}
            if entries or rng.random() < 0.5:
                rows[i] = entries
            zeros += sum(1 for v in entries.values() if not v)
        assert smith_normal_form_sparse(rows) == naive_snf(matrix), matrix
    assert zeros


def test_sparse_input_is_left_unchanged():
    _, kernel = kernel_relation_rows(3)
    inputs = [{i: dict(r) for i, r in enumerate(kernel)},
              {0: {0: 0, 1: 3}, 1: {0: 0}, 2: {}},
              {0: {0: 2, 1: 4}, 1: {0: 3, 1: 1, 2: 5}}]
    for rows in inputs:
        before = copy.deepcopy(rows)
        smith_normal_form_sparse(rows)
        assert rows == before


def test_smith_consumes_the_mapping_it_is_given():
    # stage 1's residual is cleared once it is densified, so it is not
    # kept alive beside the dense stages; both inputs leave a residual
    _, kernel = kernel_relation_rows(5)
    inputs = [{i: {j: v for j, v in r.items() if v}
               for i, r in enumerate(kernel) if any(r.values())},
              {0: {0: 2, 1: 3}, 1: {0: 4, 1: 5}}]
    for rows in inputs:
        expected = smith_normal_form_sparse(rows)
        assert snf._smith(rows) == expected
        assert rows == {}


@pytest.mark.parametrize("matrix, bad", [([[1, 2], [3]], 1),
                                         ([[1], [2], [3, 4]], 2),
                                         ([[1, 2], [3], [4, 5, 6]], 1)])
def test_ragged_dense_input_is_refused(matrix, bad):
    with pytest.raises(ValueError, match=f"^row {bad} has"):
        smith_normal_form(matrix)


def test_known_torsion_presentation_matrix():
    # relator matrix of Z/2 + Z/4: rows 2e1, 4e2 plus a redundant sum
    matrix = [[2, 0], [0, 4], [2, 4]]
    assert smith_normal_form(matrix) == ([2, 4], 2)


matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda nc: st.lists(
        st.lists(st.integers(min_value=-10, max_value=10),
                 min_size=nc, max_size=nc),
        min_size=1, max_size=5,
    )
)


@given(matrices)
@settings(deadline=None)
def test_matches_naive_oracle(matrix):
    assert smith_normal_form(matrix) == naive_snf(matrix)


@given(matrices, st.randoms(use_true_random=False))
@settings(deadline=None)
def test_invariant_under_row_and_column_shuffle(matrix, rnd):
    shuffled = [row[:] for row in matrix]
    rnd.shuffle(shuffled)
    perm = list(range(len(matrix[0])))
    rnd.shuffle(perm)
    shuffled = [[row[p] for p in perm] for row in shuffled]
    assert smith_normal_form(shuffled) == smith_normal_form(matrix)


@given(matrices)
@settings(deadline=None)
def test_factors_form_divisibility_chain(matrix):
    factors, rank = smith_normal_form(matrix)
    assert len(factors) == rank
    assert all(f > 0 for f in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


@given(matrices)
@example([[2, 5, -1, -1], [8, 0, 2, 2], [8, 2, -10, 8], [8, 2, -10, 8]])
@settings(deadline=None)
def test_transpose_invariance(matrix):
    transposed = [list(col) for col in zip(*matrix)]
    assert smith_normal_form(matrix) == smith_normal_form(transposed)


def test_large_entries_stay_exact():
    # values chosen so intermediate arithmetic would overflow fixed width
    big = 10**30
    factors, rank = smith_normal_form([[big, 0], [0, big + 1]])
    assert rank == 2
    assert factors == [1, big * (big + 1)]


def stress_matrices():
    """Seeded small matrices in five families: sparse ones, some with a
    doubled row; dense ones; low-rank products A B (whose modulo-det
    stage once crashed); rows and columns scaled by 2, 3 or 6 (which
    need divisor pivots); multiples of 101, 103, 101*103 and 101^2 with
    sparse small noise (whose torsion bases split)."""
    rng = random.Random(1207)
    out = []
    for _ in range(300):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        matrix = [
            [rng.randint(-20, 20) if rng.random() < 0.7 else 0
             for _ in range(nc)]
            for _ in range(nr)
        ]
        if nr > 1 and rng.random() < 0.3:
            matrix[-1] = [2 * v for v in matrix[0]]
        out.append(matrix)
    for _ in range(700):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        out.append([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
    for _ in range(1200):
        nr, nc = rng.randint(2, 7), rng.randint(2, 7)
        inner = rng.randint(1, min(nr, nc) - 1)
        a = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(nr)]
        b = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(inner)]
        out.append([[sum(a[x][t] * b[t][y] for t in range(inner))
                     for y in range(nc)] for x in range(nr)])
    for _ in range(800):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rs = [rng.choice((1, 2, 3, 6)) for _ in range(nr)]
        cs = [rng.choice((1, 2, 3, 6)) for _ in range(nc)]
        out.append([[rs[x] * cs[y] * rng.randint(-3, 3) for y in range(nc)]
                    for x in range(nr)])
    for _ in range(400):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        out.append([[rng.choice((101, 103, 101 * 103, 101**2))
                     * rng.randint(-2, 2)
                     + (rng.randint(-2, 2) if rng.random() < 0.3 else 0)
                     for _ in range(nc)] for _ in range(nr)])
    return out


STRESS = stress_matrices()


def sparse_fill_matrices():
    """Seeded sparse matrices, 8 to 14 rows and columns at density 0.3,
    with entries in +-1, +-2, +-3 and +-6: big enough for the divisor
    stage's updates to fill in, and with divisor pivots above 1."""
    rng = random.Random(2026)
    values = (1, -1, 2, -2, 3, -3, 6, -6)
    out = []
    for _ in range(200):
        nr, nc = rng.randint(8, 14), rng.randint(8, 14)
        out.append([[rng.choice(values) if rng.random() < 0.3 else 0
                     for _ in range(nc)] for _ in range(nr)])
    return out


def test_sparse_stress_with_fill_against_oracle():
    # across the family the divisor stage pivots at values above 1 and
    # leaves entries in the residual where the input had zeros
    divisors = filled = 0
    for matrix in sparse_fill_matrices():
        assert smith_normal_form(matrix) == naive_snf(matrix), matrix
        work = {i: {j: v for j, v in enumerate(r) if v}
                for i, r in enumerate(matrix) if any(r)}
        divisors += sum(1 for a in snf._divisor_stage(work) if a > 1)
        filled += sum(1 for i, r in work.items() for j in r if not matrix[i][j])
    assert divisors and filled


# -- the torsion stage: local modulo b^k, with bases split on demand ---------

@pytest.fixture
def torsion_calls(monkeypatch):
    """Record the torsion stage's work and check each of its results
    against the oracle on the residual it was given: ("local", b, k) per
    elimination modulo b^k, ("split", b, g) per split of b at g."""
    calls = []

    def local_factors(dense, *args):
        got = real_factors(dense, *args)
        assert got == naive_snf(dense)[0], dense
        return got

    def local_exponents(dense, b, k, limit):
        calls.append(("local", b, k))
        return real_exponents(dense, b, k, limit)

    def split_base(b, g):
        calls.append(("split", b, g))
        return real_split(b, g)

    real_factors = snf._local_factors
    real_exponents = snf._local_exponents
    real_split = snf._split_base
    monkeypatch.setattr(snf, "_local_factors", local_factors)
    monkeypatch.setattr(snf, "_local_exponents", local_exponents)
    monkeypatch.setattr(snf, "_split_base", split_base)
    return calls


def test_random_stress_against_oracle(torsion_calls):
    # every residual's torsion stage is checked too; some bases are
    # above 100, and some determinants split
    for matrix in STRESS:
        assert smith_normal_form(matrix) == naive_snf(matrix), matrix
    kinds = Counter(call[0] for call in torsion_calls)
    assert kinds["local"] > 0 and kinds["split"] > 0
    assert any(b > 100 for kind, b, _ in torsion_calls if kind == "local")


def test_repeated_rows_change_nothing(monkeypatch):
    # +-copies of existing rows add nothing to the row lattice; most of
    # them reach the residual, where the dense stages see one copy
    dropped = []

    def densify(rows):
        dense = real_densify(rows)
        dropped.append(len(rows) - len(dense))
        return dense

    real_densify = snf._densify
    monkeypatch.setattr(snf, "_densify", densify)
    rng = random.Random(4242)
    for matrix in STRESS[::7]:
        extra = []
        for _ in range(rng.randint(1, 4)):
            sign = rng.choice((1, -1))
            extra.append([sign * v for v in rng.choice(matrix)])
        got = smith_normal_form(matrix + extra)
        assert got == smith_normal_form(matrix) == naive_snf(matrix), matrix
    assert sum(1 for d in dropped if d) > 100


def test_large_prime_in_the_determinant_is_a_base(torsion_calls):
    # no entry divides its row and column; D = 3*5 - 7*101 = -4 * 173
    # is the one base: one pass modulo D finds one unit pivot and none
    # sharing a factor with D, so the missing factor can only be D
    matrix = [[101, 3], [5, 7]]
    assert smith_normal_form(matrix) == naive_snf(matrix) == ([1, 692], 2)
    assert torsion_calls == [("local", 692, 1)]


@pytest.mark.parametrize("matrix, factors, calls", [
    # D = 83327 = 103 * 809; the pivot 103 splits it
    ([[309, 103], [103, 304]], [1, 83327],
     [("local", 83327, 1), ("split", 83327, 103),
      ("local", 103, 1), ("local", 809, 1)]),
    # D = 2 * 101^3 splits at the pivot 10201 into 10201 and 2; D is not
    # 10201^v times a coprime part, so gcd(b, c) = 101 splits 10201
    ([[-10201, 0], [-3, 202]], [1, 2060602],
     [("local", 2 * 101**3, 1), ("split", 2 * 101**3, 10201),
      ("split", 10201, 101), ("local", 101, 3), ("local", 2, 1)]),
], ids=["pivot", "determinant"])
def test_split_bases_match_the_oracle(torsion_calls, matrix, factors, calls):
    assert smith_normal_form(matrix) == naive_snf(matrix) == (factors, 2)
    assert torsion_calls == calls


@pytest.mark.parametrize("matrix, factors, calls", [
    # 2^30 * M with det M = 1: D = 2^60 splits at the pivot 2^31, then
    # at gcd(b, c) down to 4; nothing survives modulo 4^14, modulo 4^28
    # a pivot shares the factor 2 with 4, and nothing survives modulo
    # 2^29, so k doubles to 58, where both pivots appear
    ([[2**31, 3 * 2**30], [3 * 2**30, 5 * 2**30]], [2**30, 2**30],
     [("local", 2**60, 1), ("split", 2**60, 2**31), ("split", 2**31, 2**29),
      ("split", 2**29, 4), ("local", 4, 14), ("local", 4, 28),
      ("split", 4, 2), ("local", 2, 29), ("local", 2, 58)]),
    # D = 3 * 2^41 splits at the pivot 6, and 6 at gcd(b, c) = 2; base 2
    # has one pivot modulo 2^29 and modulo 2^41 = 2^v_2(D), not 2^58,
    # where the missing one can only be 2^41
    ([[6, 6], [7, 2**40 + 7]], [1, 3 * 2**41],
     [("local", 3 * 2**41, 1), ("split", 3 * 2**41, 6), ("split", 6, 2),
      ("local", 2, 29), ("local", 2, 41), ("local", 3, 1)]),
], ids=["doubled", "capped"])
def test_two_adic_valuation_past_the_start_doubles_k(torsion_calls, matrix,
                                                      factors, calls):
    assert smith_normal_form(matrix) == naive_snf(matrix) == (factors, 2)
    assert torsion_calls == calls


def test_start_exponent_matches_the_power_loop():
    # the local stage starts at the largest k with b^k < 2^30, at least 1
    def by_loop(b):
        k = 1
        while b ** (k + 1) < 1 << 30:
            k += 1
        return k

    bases = [*range(2, 5001), 32767, 32768, 2 ** 30 - 1, 2 ** 30,
             2 ** 30 + 1, 3 ** 19, 3 ** 40, 10 ** 50]
    for b in bases:
        assert snf._start_exponent(b) == by_loop(b), b


def test_local_stage_with_more_columns_than_rank(torsion_calls):
    # rank 2 on 3 columns, the third row the sum of the first two; the
    # last pivot's minor is 132 = 2^2 * 3 * 11, but the gcd of the 2 x 2
    # minors in its row and multipliers is D = 4 = d_1 d_2.  A pass
    # modulo 4 meets the pivot 2, which splits 4 at 2, and 2 is settled
    # at its valuation
    matrix = [[6, 10, 0], [14, 0, 22], [20, 10, 22]]
    assert smith_normal_form(matrix) == naive_snf(matrix) == ([2, 2], 2)
    assert torsion_calls == [("local", 4, 1), ("split", 4, 2), ("local", 2, 2)]


def test_torsion_stage_skipped_when_the_minor_gcd_is_one(torsion_calls):
    # the divisor stage takes 3 and leaves the column (2, 3): its last
    # pivot is 2, but the multiplier 3 is a 1 x 1 minor too, so D = 1
    # and no base is worked
    matrix = [[2, 0], [0, 3], [3, 0]]
    assert smith_normal_form(matrix) == naive_snf(matrix) == ([1, 3], 2)
    assert torsion_calls == []


def dense_residual(matrix):
    """The dense residual the divisor stage leaves of ``matrix``."""
    rows = {i: {j: v for j, v in enumerate(row) if v}
            for i, row in enumerate(matrix)}
    rows = {i: r for i, r in rows.items() if r}
    snf._divisor_stage(rows)
    return snf._densify(rows)


# each reaches a column that Bareiss skips: column 1 is zero below the
# rank but not above it; column 0 is zero; a wide matrix of rank 2 skips
# columns 1 and 2 and ends at column 3
BAREISS_HAND_CASES = [
    [[1, 2, 3], [2, 4, 7]],
    [[0, 2, 4], [0, 4, 2]],
    [[2, 4, 0, 6, 8, 2], [1, 2, 0, 3, 4, 1], [0, 0, 0, 4, 6, 2],
     [3, 6, 0, 13, 18, 5]],
]


def test_bareiss_bound_is_a_multiple_of_the_factor_product():
    # D is a gcd of r x r minors, so the product d_1 ... d_r of the
    # residual's invariant factors (the gcd of all of them) divides it
    residuals = [dense_residual(matrix) for matrix in STRESS]
    residuals += BAREISS_HAND_CASES
    checked = 0
    for residual in residuals:
        rank, bound = snf._bareiss_rank_det([row[:] for row in residual])
        factors, oracle_rank = naive_snf(residual)
        assert rank == oracle_rank, residual
        if rank:
            assert bound > 0 and bound % prod(factors) == 0, residual
            checked += 1
    assert checked > 1000


def full_update_bareiss(m):
    """Rank r and a multiple D of d_1 ... d_r, in place.

    Fraction-free elimination, one column at a time: every intermediate
    entry is a minor of the input, so sizes stay polynomially bounded,
    and any nonzero pivot keeps the divisions exact.  In column c the
    pivot is the first row at or below the rank with a nonzero entry
    there, swapped up to the rank; a column with no such row is
    skipped, and no later step writes to it.  D is the gcd of the r x r
    minors in the last pivot row, from the last pivot column on, and in
    the multipliers below it in that column: a multiple of d_1 ... d_r
    (the gcd of all r x r minors) that divides the last pivot, the
    determinant of a nonsingular r x r minor.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    prev = 1
    rank = last = 0
    for c in range(ncols):
        p = next((i for i in range(rank, nrows) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        piv = m[rank][c]
        tail = m[rank][c + 1:]
        # The division by the previous pivot is exact by Sylvester's
        # identity, but only if every row is updated, zeros included.
        for mi in m[rank + 1:]:
            f = mi[c]
            mi[c + 1:] = [(piv * x - f * y) // prev
                          for x, y in zip(mi[c + 1:], tail)]
        prev = piv
        last = c
        rank += 1
    if not rank:
        return 0, 0
    return rank, gcd(*m[rank - 1][last:],
                     *(m[i][last] for i in range(rank, nrows)))


def zero_multiplier_matrices():
    """Seeded block-diagonal matrices of 2 to 16 rows and banded ones of
    4 to 14 rows and columns, a third with their rows shuffled: 81% of
    the row updates have a zero multiplier, so Bareiss leaves rows
    unscaled for several steps in a row."""
    rng = random.Random(3107)
    out = []
    for _ in range(300):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        n = sum(sizes)
        m = [[0] * n for _ in range(n)]
        at = 0
        for size in sizes:
            for i in range(at, at + size):
                for j in range(at, at + size):
                    m[i][j] = rng.randint(-7, 7)
            at += size
        out.append(m)
    for _ in range(300):
        nr, nc = rng.randint(4, 14), rng.randint(4, 14)
        width = rng.randint(0, 2)
        out.append([[rng.randint(-9, 9) if abs(i - j) <= width else 0
                     for j in range(nc)] for i in range(nr)])
    for m in out[::3]:
        rng.shuffle(m)
    return out


def assert_bareiss_matches_the_full_update(matrices):
    for matrix in matrices:
        assert (snf._bareiss_rank_det([row[:] for row in matrix])
                == full_update_bareiss([row[:] for row in matrix])), matrix


def test_bareiss_matches_the_full_update_on_small_matrices():
    # the rows a step leaves unscaled divide by the pivot they were last
    # updated against, which must give the full update's rank and D
    families = [STRESS, [dense_residual(m) for m in STRESS],
                BAREISS_HAND_CASES, zero_multiplier_matrices()]
    families.append([dense_residual(m) for m in families[-1]])
    for matrices in families:
        assert_bareiss_matches_the_full_update(matrices)


@pytest.mark.parametrize("j", range(3, 9))
def test_bareiss_matches_the_full_update_on_kernel_residuals(j):
    # 28-34% of the row updates have a zero multiplier at j = 3..5, and
    # 70% at j = 8
    _, rows = kernel_relation_rows(j)
    sparse = {i: {c: v for c, v in r.items() if v}
              for i, r in enumerate(rows) if any(r.values())}
    snf._divisor_stage(sparse)
    assert_bareiss_matches_the_full_update([snf._densify(sparse)])


def unimodular_mix(rng, m):
    """m after a few seeded elementary row and column operations with
    multipliers in -2..2, which change neither its invariant factors nor
    the absolute value of its determinant."""
    n = len(m)
    m = [row[:] for row in m]
    for _ in range(2 * n):
        s, t = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        m[s] = [x + f * y for x, y in zip(m[s], m[t])]
        s, t = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        for row in m:
            row[s] += f * row[t]
    return m


def seeded_determinant_primes(family, rng):
    """Prime factors, with multiplicity, of the determinants of one
    family: 2^a with a up to 64, a product of two primes above 100, or
    p^2 q^3."""
    above_100 = [p for p in range(101, 400) if all(p % q for q in range(2, p))]
    small = [2, 3, 5, 7, 11, 101, 103]
    out = []
    for i in range(15):
        if family == "2^a":
            out.append([2] * (64 if i == 0 else rng.randint(1, 63)))
        elif family == "pq":
            out.append(rng.sample(above_100, 2))
        else:
            p, q = rng.sample(small, 2)
            out.append([p, p, q, q, q])
    return out


@pytest.mark.parametrize("family", ["2^a", "pq", "p^2 q^3"])
def test_split_path_matches_the_oracle(monkeypatch, family):
    # the local stage starts from the one base D, so splitting finds
    # every base; each split must give pairwise coprime pieces strictly
    # between 1 and the base it splits
    splits = []

    def split_base(b, g):
        pieces = real_split(b, g)
        assert all(1 < x < b for x in pieces), (b, g, pieces)
        assert all(gcd(x, y) == 1 for x, y in combinations(pieces, 2))
        splits.append(b)
        return pieces

    real_split = snf._split_base
    monkeypatch.setattr(snf, "_split_base", split_base)
    rng = random.Random(family)
    for primes in seeded_determinant_primes(family, rng):
        n = rng.randint(2, 4)
        diag = [1] * n
        for p in primes:
            diag[rng.randrange(n)] *= p
        matrix = unimodular_mix(rng, [[diag[i] if i == j else 0
                                       for j in range(n)] for i in range(n)])
        det = prod(primes)
        assert snf._bareiss_rank_det([row[:] for row in matrix]) == (n, det)
        expected = naive_snf(matrix)
        assert smith_normal_form(matrix) == expected, matrix
        assert snf._local_factors(matrix, n, det) == expected[0], matrix
    assert splits


# -- rank modulo p: a certificate independent of the SNF code ---------------

def rank_mod_p(rows, p):
    """Rank over F_p of the rows (mappings column -> value), by inserting
    each row into a row echelon form keyed by leading column."""
    echelon = {}
    for r in rows:
        row = {j: v % p for j, v in r.items() if v % p}
        while row:
            lead = min(row)
            prow = echelon.get(lead)
            if prow is None:
                inv = pow(row[lead], -1, p)
                echelon[lead] = {j: v * inv % p for j, v in row.items()}
                break
            f = row[lead]
            for j, v in prow.items():
                new = (row.get(j, 0) - f * v) % p
                if new:
                    row[j] = new
                else:
                    row.pop(j, None)
    return len(echelon)


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Miller-Rabin with the first twelve prime bases, which is exact
    for n < 3.3 * 10^24 (the stress torsion stays below 2^73)."""
    if n < 2 or any(n % p == 0 for p in MR_BASES):
        return n in MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_dividing(n):
    """Sorted prime factors of n > 0: trial division by small primes,
    then Pollard's rho (Floyd cycle finding) on what is left."""
    out, left = set(), []
    for q in range(2, 1000):
        if n % q == 0:
            out.add(q)
            while n % q == 0:
                n //= q
    if n > 1:
        left.append(n)
    while left:
        m = left.pop()
        if is_prime(m):
            out.add(m)
            continue
        c, g = 0, m
        while g == m:
            c += 1
            x = y = 2
            g = 1
            while g == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                g = gcd(x - y, m)
        left += [g, m // g]
    return sorted(out)


def assert_rank_certificate(rows, ncols, free_rank, torsion):
    """dim_Fp(H1 (x) F_p) = ncols - rank_p(M) must equal the free rank
    plus the number of torsion factors divisible by p, for every prime
    dividing the torsion and for one prime dividing none of it."""
    primes = sorted({q for d in torsion for q in primes_dividing(d)})
    spare = next(q for q in count(2)
                 if primes_dividing(q) == [q] and q not in primes)
    for p in primes + [spare]:
        expected = free_rank + sum(1 for d in torsion if d % p == 0)
        assert ncols - rank_mod_p(rows, p) == expected, p


def test_rank_mod_p_on_hand_checked_matrices():
    assert rank_mod_p([{0: 2}, {1: 3}], 2) == 1
    assert rank_mod_p([{0: 2}, {1: 3}], 5) == 2
    assert rank_mod_p([{0: 1, 1: 2}, {0: 2, 1: 4}], 7) == 1
    assert rank_mod_p([{0: 1, 1: 1}, {0: 1, 1: -1}], 2) == 1
    assert rank_mod_p([{0: 1, 1: 1}, {0: 1, 1: -1}], 3) == 2


def test_rank_mod_p_certificate_on_stress_matrices():
    for matrix in STRESS:
        factors, rank = smith_normal_form(matrix)
        rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
        ncols = len(matrix[0])
        torsion = [d for d in factors if d > 1]
        assert_rank_certificate(rows, ncols, ncols - rank, torsion)


def kernel_relation_rows(j):
    """The rewritten j-stage kernel presentation and its relator
    exponent-sum rows (mappings column -> value, zeros kept)."""
    p = kj_presentation(j)
    derived = reidemeister_schreier(
        p, kernel_coset_table(p, phi_tables(j))).presentation
    index = derived.generator_index()
    rows = []
    for r in derived.relators:
        entries = {}
        for sym, sign in r:
            entries[index[sym]] = entries.get(index[sym], 0) + sign
        rows.append(entries)
    return derived, rows


@pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 8])
def test_rank_mod_p_certificate_on_kernel_matrices(j):
    derived, rows = kernel_relation_rows(j)
    inv = abelianize(derived)
    assert_rank_certificate(
        rows, len(derived.generators), inv.free_rank, inv.torsion)


@pytest.mark.parametrize("j, shape", [(3, (19, 16)), (4, (24, 50)),
                                      (5, (43, 51))])
def test_dense_residual_of_kernel_matrices_has_distinct_rows(j, shape):
    # the divisor stage leaves 62, 80 and 153 rows, most of them repeated
    # up to sign; Bareiss and the local stage see one copy of each
    _, rows = kernel_relation_rows(j)
    sparse = {i: {c: v for c, v in r.items() if v} for i, r in enumerate(rows)}
    snf._divisor_stage(sparse)
    dense = snf._densify(sparse)
    assert (len(dense), len(dense[0])) == shape


@pytest.mark.parametrize("j, pushes, pivots", [(3, 6188, 1511),
                                               (4, 9762, 2030),
                                               (5, 13333, 2536)])
def test_divisor_stage_heap_traffic_on_kernel_matrices(monkeypatch, j, pushes,
                                                      pivots):
    # the queue's bookkeeping may get cheaper, but a change in what it
    # pushes changes the pivot order and so the dense residual
    _, rows = kernel_relation_rows(j)
    sparse = {i: {c: v for c, v in r.items() if v}
              for i, r in enumerate(rows) if any(r.values())}
    pushed, popped = heap_traffic(monkeypatch)
    assert len(snf._divisor_stage(sparse)) == pivots
    assert len(pushed) == len(popped) == pushes


def stage1_pivots(monkeypatch, rows):
    """Run the divisor stage on ``rows``; return its pivots as (row,
    column, value), value signed, in the order they are taken.

    A popped entry is the pivot exactly when its row is gone by the next
    pop: a stale or dropped entry changes no row, and a pivot deletes
    only its own row and rows it left empty."""
    popped, pivots = [], []
    real_pop = snf.heappop

    def settle():
        if popped:
            pr, pc, v = popped.pop()
            if v is not None and pr not in rows:
                pivots.append((pr, pc, v))

    def pop(heap):
        entry = real_pop(heap)
        settle()
        pr, pc = entry[2], entry[3]
        popped.append((pr, pc, rows[pr].get(pc) if pr in rows else None))
        return entry

    monkeypatch.setattr(snf, "heappop", pop)
    values = snf._divisor_stage(rows)
    settle()
    assert [abs(v) for _, _, v in pivots] == values
    return pivots


# sha256 of repr(stage1_pivots(...)) on the kernel matrices: the column
# index and the queue's bookkeeping may change, but not one pivot
KERNEL_PIVOTS_SHA256 = {
    3: "c494016118077d5993037d90c69829b1af7bc571cf6f0abde9877c8feadfcb73",
    4: "edae427e917c39c210514ac678638272a13124b33264e65f4ad6a48b387e839a",
    5: "c0bf2028d38e21a4baf21fdc9c222f16b5452f2fc4aba6f1cf733f660e512e86",
}


@pytest.mark.parametrize("j, count", [(3, 1511), (4, 2030), (5, 2536)])
def test_divisor_stage_pivot_sequence_on_kernel_matrices(monkeypatch, j,
                                                         count):
    _, rows = kernel_relation_rows(j)
    sparse = {i: {c: v for c, v in r.items() if v}
              for i, r in enumerate(rows) if any(r.values())}
    pivots = stage1_pivots(monkeypatch, sparse)
    assert len(pivots) == count
    digest = hashlib.sha256(repr(pivots).encode()).hexdigest()
    assert digest == KERNEL_PIVOTS_SHA256[j]


@pytest.mark.parametrize("j", [3, 4, 5])
def test_kernel_matrices_shuffled_give_the_same_factors(j):
    # the pivot order breaks cost ties by row and column index, so a
    # relabelling changes the elimination but never the result
    _, rows = kernel_relation_rows(j)
    sparse = {i: {c: v for c, v in r.items() if v} for i, r in enumerate(rows)}
    ncols = 1 + max(c for r in sparse.values() for c in r)
    rnd = random.Random(1000 + j)
    row_perm = rnd.sample(range(len(sparse)), len(sparse))
    col_perm = rnd.sample(range(ncols), ncols)
    shuffled = {row_perm[i]: {col_perm[c]: v for c, v in r.items()}
                for i, r in sparse.items()}
    assert smith_normal_form_sparse(shuffled) == smith_normal_form_sparse(sparse)
