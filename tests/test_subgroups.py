"""Tests for subgroup rewriting, abelian invariants, boundary quotients,
the frozen longitude, the rank bound, and kernel homology."""

import hashlib
import inspect
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from knotcover.cosets import cyclic_cover_table, kernel_coset_table, todd_coxeter
from knotcover import snf, subgroups
from knotcover.cosets import CosetTable
from knotcover.errors import CapacityError, TableIntegrityError
from knotcover.homcheck import (
    TREFOIL_A5, eval_word, phi_tables, search_surjections,
)
from knotcover.perm import Perm
from knotcover.presentations import (
    kj_presentation,
    kjss_presentation,
    trefoil_presentation,
)
from knotcover.subgroups import (
    TREFOIL_LONGITUDE,
    TREFOIL_MERIDIAN,
    AbelianInvariants,
    abelianize,
    boundary_quotient,
    cover_homology,
    kernel_homology,
    _schreier_walk,
    reidemeister_schreier,
    schreier_rank_bound,
)
from knotcover.words import (
    Presentation,
    Word,
    parse_presentation,
    print_presentation,
    reduce,
    word,
)

from test_snf import kernel_relation_rows, naive_snf


# -- subgroup presentations ---------------------------------------------------

def test_identity_cover_renames_but_preserves_the_presentation():
    p = trefoil_presentation()
    sub = reidemeister_schreier(p, cyclic_cover_table(p, 1))
    derived = sub.presentation
    assert derived.generators == ("ax1", "bx1")
    assert len(derived.relators) == 1
    assert str(derived.relators[0]) == "bx1^-1 ax1^-1 bx1^-1 ax1 bx1 ax1"


def test_two_fold_cover_counts_and_names():
    p = trefoil_presentation()
    sub = reidemeister_schreier(p, cyclic_cover_table(p, 2))
    assert sub.presentation.generators == (
        "bx1", "ax2", "bx2",
    )
    assert len(sub.presentation.relators) == 2
    assert sub.presentation.relator_names == ("braid@1", "braid@2")


def test_three_fold_cover_transversal_is_breadth_first():
    p = trefoil_presentation()
    sub = reidemeister_schreier(p, cyclic_cover_table(p, 3))
    # from coset 1 the forward a-edge finds 2, then the backward one finds 3
    assert [str(w) for w in sub.transversal] == ["", "a", "a^-1"]
    assert len(sub.presentation.generators) == 4
    assert len(sub.presentation.relators) == 3


@pytest.mark.parametrize("cover", [
    *(pytest.param(j, id=f"kernel-j{j}") for j in range(3, 6)),
    *(pytest.param(-k, id=f"cyclic-k{k}") for k in (*range(1, 13), 1000)),
])
def test_transversal_entries_pass_the_public_check(cover):
    # each entry is built through the trusted path as its tree parent
    # plus one syllable: a reduced word that leads coset 1 to its coset
    if cover > 0:
        p, t = subgroups.kernel_cover(cover)
    else:
        p = trefoil_presentation()
        t = cyclic_cover_table(p, -cover)
    sub = reidemeister_schreier(p, t)
    assert len(sub.transversal) == t.index
    for c, rep in enumerate(sub.transversal, start=1):
        assert Word(rep.syllables) == rep
        assert t.trace(1, rep) == c


@pytest.mark.parametrize(
    "build",
    [
        lambda p=trefoil_presentation(): (p, cyclic_cover_table(p, 4)),
        lambda p=trefoil_presentation(): (p, cyclic_cover_table(p, 6)),
        lambda p=kjss_presentation(1): (p, kernel_coset_table(p, phi_tables(1))),
        lambda p=kjss_presentation(2): (p, kernel_coset_table(p, phi_tables(2))),
    ],
)
def test_schreier_count_identities(build):
    base, table = build()
    sub = reidemeister_schreier(base, table)
    n, g, r = table.index, len(base.generators), len(base.relators)
    assert len(sub.presentation.generators) == n * g - n + 1
    assert len(sub.presentation.relators) == n * r
    assert len(sub.transversal) == n


@pytest.mark.parametrize("cover", [
    pytest.param(3, id="kernel-j3"),
    *(pytest.param(-k, id=f"cyclic-k{k}") for k in range(1, 13)),
    # base names that hold an "x": the name splits at its last one
    pytest.param(0, id="x-in-base-names"),
])
def test_schreier_pairs_read_back_off_the_names(cover):
    if cover > 0:
        p, t = subgroups.kernel_cover(cover)
    elif cover < 0:
        p = trefoil_presentation()
        t = cyclic_cover_table(p, -cover)
    else:
        p = parse_presentation("gens: x xx1\nrel: x xx1 x^-1 xx1^-1\n")
        t = cyclic_cover_table(p, 3)
    sub = reidemeister_schreier(p, t)
    assert sub.schreier_gens == tuple(_schreier_walk(p, t)[1])
    if cover == 0:
        # the tree holds (1, x) and (3, x): coset 3 is x^-1 from coset 1
        assert sub.presentation.generators == (
            "xx1x1", "xx2", "xx1x2", "xx1x3")
        assert sub.schreier_gens == (
            (1, "xx1"), (2, "x"), (2, "xx1"), (3, "xx1"))


def test_rewrite_of_a_subgroup_element():
    # a a from coset 1 crosses the tree edge (1, a), then the pair (2, a)
    q = boundary_quotient(2)
    names = dict(zip(q.relator_names, q.relators))
    assert names["meridian^2@1"] == word("ax2")


def _rewrite_oracle(table, sub, coset, w):
    """rep(coset) * w * rep(trace(coset, w))^-1 in the Schreier generators,
    one syllable at a time from the coset table."""
    names = dict(zip(sub.schreier_gens, sub.presentation.generators))
    out = []
    cur = coset
    for sym, sign in w:
        nxt = table.step(cur, sym, sign)
        # a pair the map lacks is a tree edge
        name = names.get((cur if sign > 0 else nxt, sym))
        if name is not None:
            out.append((name, sign))
        cur = nxt
    return reduce(out)


@pytest.mark.parametrize("k", range(1, 13))
def test_boundary_words_match_a_per_coset_rewrite_oracle(k):
    p = trefoil_presentation()
    table = cyclic_cover_table(p, k)
    sub = reidemeister_schreier(p, table)
    q = boundary_quotient(k)
    names = dict(zip(q.relator_names, q.relators))
    assert q.generators == sub.presentation.generators
    for c in range(1, k + 1):
        for name, w in ((f"meridian^{k}", TREFOIL_MERIDIAN ** k),
                        ("longitude", TREFOIL_LONGITUDE)):
            assert names[f"{name}@{c}"] == _rewrite_oracle(table, sub, c, w)


def _kernel_rewrite(j):
    p = kj_presentation(j)
    return reidemeister_schreier(p, kernel_coset_table(p, phi_tables(j)))


# sha256 of print_presentation: the rewriting output, byte for byte
REWRITE_FINGERPRINTS = {
    "kernel j=3":
        "11f8273296a0ad4cfeb17fcc98d89442da628341249f7b8f027a500c62c862bc",
    "trefoil 3-fold cover":
        "ddd2c37868469af16fda5c86ee97d532125fab5318a88ec8cae4d5306c380f5a",
    "boundary quotient k=2":
        "354428f1617ddc4d5a2995308a62361cbaa7c1f0ba3b74a56fd891a20d5ee486",
}


@pytest.mark.parametrize("name, build", [
    ("kernel j=3", lambda: _kernel_rewrite(3).presentation),
    ("trefoil 3-fold cover", lambda: reidemeister_schreier(
        trefoil_presentation(),
        cyclic_cover_table(trefoil_presentation(), 3)).presentation),
    ("boundary quotient k=2", lambda: boundary_quotient(k=2)),
])
def test_rewritten_presentations_are_pinned(name, build):
    text = print_presentation(build())
    assert hashlib.sha256(text.encode()).hexdigest() == REWRITE_FINGERPRINTS[name]


# sha256 of the transversal, one word per line in coset order
TRANSVERSAL_FINGERPRINTS = {
    "kernel j=3":
        "823417f62b9878923e6fd12e90b7ebd80adc7f44c16fc0c83cd96eb4260c4d1c",
    "trefoil 12-fold cover":
        "5003f94329593c87f6514c7450e27404a37e89c8144427a5a45ab4c8827a840b",
}


@pytest.mark.parametrize("name, build", [
    ("kernel j=3", lambda: _kernel_rewrite(3)),
    ("trefoil 12-fold cover", lambda: reidemeister_schreier(
        trefoil_presentation(),
        cyclic_cover_table(trefoil_presentation(), 12))),
])
def test_transversals_are_pinned(name, build):
    text = "\n".join(map(str, build().transversal))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == TRANSVERSAL_FINGERPRINTS[name])


def test_rewritten_relators_share_the_generator_symbols():
    # one name string per Schreier generator, however often it occurs:
    # relators hold the generator tuple's own strings, not copies
    sub = _kernel_rewrite(3)
    for derived in (sub.presentation, boundary_quotient(3)):
        generators = {id(g) for g in derived.generators}
        assert all(id(sym) in generators
                   for r in derived.relators for sym, _ in r)


def test_rewriting_is_deterministic():
    p = trefoil_presentation()
    a = reidemeister_schreier(p, cyclic_cover_table(p, 3)).presentation
    b = reidemeister_schreier(p, cyclic_cover_table(p, 3)).presentation
    assert a == b


# -- homology read off the coset table -----------------------------------------

def _trefoil_mod_a_cubed():
    base = trefoil_presentation()
    return Presentation(base.generators, base.relators + (word("a") ** 3,))


def _cover(kind, n):
    if kind == "kernel":
        p = kj_presentation(n)
        return p, kernel_coset_table(p, phi_tables(n))
    if kind == "cyclic":
        p = trefoil_presentation()
        return p, cyclic_cover_table(p, n)
    # the trivial subgroup of the binary tetrahedral group, by enumeration
    p = _trefoil_mod_a_cubed()
    return p, todd_coxeter(p)


COVERS = ([("kernel", j) for j in range(1, 7)]
          + [("cyclic", k) for k in range(1, 13)]
          + [("todd-coxeter", 24)])


def _snf_rows(monkeypatch, compute):
    """The rows ``compute`` hands to the Smith normal form's stages, as
    lists of (row, [(column, value), ...]) in dict order."""
    seen = []
    real = subgroups._smith

    def spy(rows):
        seen.append([(i, list(r.items())) for i, r in rows.items()])
        return real(rows)

    monkeypatch.setattr(subgroups, "_smith", spy)
    compute()
    assert len(seen) == 1
    return seen[0]


@pytest.mark.parametrize("kind, n", COVERS)
def test_cover_homology_equals_the_rewritten_presentation_made_abelian(
        monkeypatch, kind, n):
    p, t = _cover(kind, n)
    if kind == "todd-coxeter":
        assert t.index == n
    derived = reidemeister_schreier(p, t).presentation
    direct = _snf_rows(monkeypatch, lambda: cover_homology(p, t))
    rewritten = _snf_rows(monkeypatch, lambda: abelianize(derived))
    assert direct == rewritten
    assert cover_homology(p, t) == abelianize(derived)


def _fox_homology(p, t):
    """H1 of the subgroup ``t`` describes by Fox's rule (Crowell & Fox,
    Introduction to Knot Theory, ch. VII), with no spanning tree: each
    relator is traced from each coset on ``t.action`` alone; g read at
    coset x adds its sign at column (x, g), and g^-1 read at x adds its
    sign at (x * g^-1, g).  Over all index * gens columns the cokernel is
    H1 + Z^(index - 1)."""
    n = t.index
    gen = {g: i for i, g in enumerate(t.gens)}
    forward = dict(zip(t.gens, t.action))
    backward = {g: {d: c for c, d in enumerate(row, 1)}
                for g, row in forward.items()}
    rows = {}
    for r in p.relators:
        for x in range(1, n + 1):
            entries = rows[len(rows)] = {}
            for g, sign in r:
                if sign < 0:
                    x = backward[g][x]
                k = (x, gen[g])
                entries[k] = entries.get(k, 0) + sign
                if sign > 0:
                    x = forward[g][x - 1]
    columns = {k: i for i, k in enumerate(sorted({k for r in rows.values()
                                                  for k in r}))}
    factors, rank = snf.smith_normal_form_sparse(
        {i: {columns[k]: v for k, v in r.items()} for i, r in rows.items()})
    return AbelianInvariants(n * len(t.gens) - rank - (n - 1),
                             tuple(d for d in factors if d > 1))


FOX_COVERS = ([("kernel", j) for j in range(1, 6)]
              + [("cyclic", k) for k in range(1, 13)] + [("trefoil-a5", 60)])


@pytest.mark.parametrize("kind, n", FOX_COVERS)
def test_cover_homology_equals_fox_rows_on_the_action_alone(kind, n):
    # a second route that shares no walk, tree or path with cover_homology
    if kind == "trefoil-a5":
        p = trefoil_presentation()
        t = kernel_coset_table(p, TREFOIL_A5)
        assert t.index == n
    else:
        p, t = _cover(kind, n)
    assert cover_homology(p, t) == _fox_homology(p, t)


@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
def test_kernel_rows_match_the_exponent_sums_of_the_rewritten_words(
        monkeypatch, j):
    # the rows test_snf reads off the rewritten words, every relator's
    # exponent sums with their zeros, in the same order; the elimination
    # drops the zeros itself
    _, rows = kernel_relation_rows(j)
    expected = [(i, list(r.items())) for i, r in enumerate(rows)]
    assert _snf_rows(monkeypatch, lambda: cover_homology(*_cover("kernel", j))) \
        == expected


@pytest.mark.parametrize("j, shape", [(3, (19, 16)), (4, (24, 50)),
                                      (5, (43, 51)), (6, (44, 76)),
                                      (7, (81, 104)), (8, (100, 143))])
def test_dense_residual_shape_from_the_direct_rows(monkeypatch, j, shape):
    # the divisor stage leaves 62 / 80 / 153 / 115 / 248 / 271 rows, most
    # of them repeated up to sign; Bareiss and the local stage see one copy
    # of each.  Stage counts 6 to 8 lie past the benchmark's workloads, so
    # a change of pivot order there fails here too
    rows = _snf_rows(monkeypatch, lambda: cover_homology(*_cover("kernel", j)))
    sparse = {i: dict(r) for i, r in rows}
    snf._divisor_stage(sparse)
    dense = snf._densify(sparse)
    assert (len(dense), len(dense[0])) == shape


def test_invariants_hands_the_rows_it_built_to_the_elimination(monkeypatch):
    # no second copy of the matrix: the stages get the very dict that
    # abelianize filled, or that cover_homology had from _cover_rows, and
    # consume it; _invariants only passes it on
    handed = []
    real = subgroups._smith

    def spy(rows):
        caller = inspect.currentframe().f_back
        builder = caller.f_back
        handed.append((caller.f_code.co_name, builder.f_code.co_name,
                       builder.f_locals["rows"] is rows))
        return real(rows)

    monkeypatch.setattr(subgroups, "_smith", spy)
    cover_homology(*_cover("kernel", 3))
    abelianize(trefoil_presentation())
    assert handed == [("_invariants", "cover_homology", True),
                      ("_invariants", "abelianize", True)]


def test_walk_paths_are_freed_before_the_elimination(monkeypatch):
    # cover_homology drops the walk, and the walk's generator lets go of
    # the relator paths CosetTable.verify traced once its last row is read
    class Paths(list):
        pass

    refs, alive = [], []
    real_verify, real_smith = CosetTable.verify, subgroups._smith

    def verify(self, p):
        paths = Paths(real_verify(self, p))
        refs.append(weakref.ref(paths))
        return paths

    def smith(rows):
        alive.append([ref() is not None for ref in refs])
        return real_smith(rows)

    p, t = _cover("kernel", 3)
    monkeypatch.setattr(CosetTable, "verify", verify)
    monkeypatch.setattr(subgroups, "_smith", smith)
    cover_homology(p, t)
    assert alive == [[False]]


@pytest.mark.parametrize("j", [5, 8])
def test_cover_homology_peak_is_within_three_times_its_rows(j):
    # the elimination runs on the relation rows themselves, beside a list
    # of rows per column and with the walk freed: the traced peak is about
    # twice the rows' size.  A set per column takes it past three times,
    # as does a second copy of the rows with the walk kept alive
    p, t = _cover("kernel", j)
    _, relation_rows = kernel_relation_rows(j)
    tracemalloc.start()
    try:
        rows = {i: {c: v for c, v in r.items() if v}
                for i, r in enumerate(relation_rows) if any(r.values())}
        size = tracemalloc.get_traced_memory()[0]
        del rows
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        cover_homology(p, t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * size, (peak, size)


def test_rewrite_memory_per_relator_syllable():
    # a rewritten word is its syllable tuple in a slotted Word, and the
    # Schreier pairs are read off the names rather than stored: 81-85
    # traced bytes per relator syllable on Python 3.10-3.13, against
    # 92-115 with an instance dict per word and the pairs kept
    p, t = subgroups.kernel_cover(8)
    reidemeister_schreier(p, t)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sub = reidemeister_schreier(p, t)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    syllables = sum(map(len, sub.presentation.relators))
    assert syllables == 21_608
    assert held <= 88 * syllables, (held, held / syllables)


def _bad_tables():
    p = trefoil_presentation()
    t = cyclic_cover_table(p, 3)
    return {
        # the b-row swapped, so the braid relator moves a coset
        "relator": (p, CosetTable(gens=t.gens, action=(t.action[0], (1, 3, 2)),
                                  index=3)),
        # a = b = (1,2) satisfies the braid relator but never reaches coset 3
        "transitive": (p, CosetTable(gens=t.gens,
                                       action=((2, 1, 3), (2, 1, 3)), index=3)),
        "generators": (Presentation(generators=("x", "y"), relators=()), t),
        # both faults: the relator is reported first
        "relator and transitive": (p, CosetTable(
            gens=t.gens, action=((2, 1, 3), (1, 2, 3)), index=3)),
    }


@pytest.mark.parametrize("fault", list(_bad_tables()))
def test_bad_tables_raise_the_verify_message(fault):
    p, t = _bad_tables()[fault]
    with pytest.raises(TableIntegrityError) as expected:
        t.verify(p)
    assert fault.split()[0] in str(expected.value)
    for route in (reidemeister_schreier, cover_homology):
        with pytest.raises(TableIntegrityError) as got:
            route(p, t)
        assert str(got.value) == str(expected.value)


# -- abelian invariants -------------------------------------------------------

def test_trefoil_abelianizes_to_z():
    assert abelianize(trefoil_presentation()) == AbelianInvariants(1)


def test_free_group_abelianizes_to_free_abelian():
    free = Presentation(generators=("a", "b"), relators=())
    assert abelianize(free) == AbelianInvariants(2)


def test_finite_abelian_presentation():
    p = Presentation(
        generators=("a", "b"),
        relators=(
            word("a a"),
            word("b b b b"),
            word("a^-1 b^-1 a b"),
        ),
    )
    assert abelianize(p) == AbelianInvariants(0, (2, 4))


@pytest.mark.parametrize("k,expected", [(2, (1, (3,))), (3, (1, (2, 2)))])
def test_cyclic_cover_homology(k, expected):
    p = trefoil_presentation()
    sub = reidemeister_schreier(p, cyclic_cover_table(p, k))
    inv = abelianize(sub.presentation)
    assert (inv.free_rank, inv.torsion) == expected


def test_invariants_validate_their_shape():
    with pytest.raises(ValueError):
        AbelianInvariants(-1)
    with pytest.raises(ValueError):
        AbelianInvariants(0, (3, 2))
    with pytest.raises(ValueError):
        AbelianInvariants(0, (1,))


def test_invariants_formatting():
    assert str(AbelianInvariants(1, (3,))) == "Z + Z/3"
    assert str(AbelianInvariants(0)) == "0"
    assert str(AbelianInvariants(2, (2, 4))) == "Z + Z + Z/2 + Z/4"
    assert AbelianInvariants(1, (3,)).min_generators == 2
    assert AbelianInvariants(1, (3,)).to_json_dict() == {
        "free_rank": 1,
        "torsion": [3],
    }


# -- the frozen longitude -----------------------------------------------------

SL2_A = ((1, 1), (0, 1))
SL2_B = ((1, 0), (-1, 1))


def sl2(w: Word):
    """Image of a word under a -> SL2_A, b -> SL2_B.

    This braid-style representation has kernel generated by a single
    element of total exponent 12, so matrix equality plus total-exponent
    equality proves equality in the presented group.
    """

    def mul(m, n):
        return tuple(
            tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    def inv(m):
        (p, q), (r, s) = m
        return ((s, -q), (-r, p))

    out = ((1, 0), (0, 1))
    for sym, sign in w:
        m = SL2_A if sym == "a" else SL2_B
        out = mul(out, m if sign > 0 else inv(m))
    return out


def group_equal(w1: Word, w2: Word) -> bool:
    return sl2(w1) == sl2(w2) and w1.total_exponent() == w2.total_exponent()


def test_sl2_representation_satisfies_the_braid_relation():
    assert sl2(word("a b a")) == sl2(word("b a b"))
    assert not group_equal(word("a"), word("b"))


def test_longitude_has_zero_total_exponent():
    assert TREFOIL_LONGITUDE.total_exponent() == 0
    assert TREFOIL_MERIDIAN == word("a")


def test_longitude_matches_diagram_construction():
    # Wirtinger data for the standard 3-crossing diagram: arcs x, y, z
    # with y = z x z^-1, z = x y x^-1, x = y z y^-1; writhe +3.  Reading
    # the over-arcs along the knot (orientation reversed relative to the
    # relator convention) gives y, x, z; appending meridian^-writhe
    # untwists the framing.
    x = word("a")
    z = word("b")
    y = z * x * z.inverse()
    derived = y * x * z * (x ** -3)
    assert derived.total_exponent() == 0
    assert group_equal(derived, TREFOIL_LONGITUDE)
    # the two words differ freely and agree only in the group
    assert derived != TREFOIL_LONGITUDE


def test_longitude_equals_the_commutator_free_normal_form():
    # cabling form: full twist (ab)^3 times meridian^-6
    assert group_equal(TREFOIL_LONGITUDE, (word("a b") ** 3) * (word("a") ** -6))


def test_longitude_commutes_with_meridian_in_every_found_quotient():
    p = trefoil_presentation()
    commutator = (
        TREFOIL_LONGITUDE * TREFOIL_MERIDIAN
        * TREFOIL_LONGITUDE.inverse() * TREFOIL_MERIDIAN.inverse()
    )
    found = search_surjections(p, limit=1000)
    assert len(found) == 120
    for assignment in found:
        assert eval_word(assignment, commutator) == Perm.identity()


def test_longitude_commutes_with_meridian_on_cyclic_covers():
    p = trefoil_presentation()
    for k in range(1, 9):
        t = cyclic_cover_table(p, k)
        lam = t.word_action(TREFOIL_LONGITUDE)
        mer = t.word_action(TREFOIL_MERIDIAN)
        composed_lm = tuple(mer[c - 1] for c in lam)
        composed_ml = tuple(lam[c - 1] for c in mer)
        assert composed_lm == composed_ml


# -- boundary quotients -------------------------------------------------------

def test_two_fold_boundary_quotient_has_order_three_two_ways():
    q = boundary_quotient(k=2)
    assert todd_coxeter(q).index == 3
    inv = abelianize(q)
    assert (inv.free_rank, inv.torsion) == (0, (3,))


def test_identity_cover_boundary_quotient_is_trivial():
    q = boundary_quotient(k=1)
    assert todd_coxeter(q).index == 1
    assert str(abelianize(q)) == "0"


def test_three_fold_boundary_quotient():
    q = boundary_quotient(k=3)
    assert todd_coxeter(q).index == 4
    inv = abelianize(q)
    assert (inv.free_rank, inv.torsion) == (0, (2, 2))


def test_boundary_quotient_names_its_extra_relators():
    q = boundary_quotient(k=2)
    assert "meridian^2@1" in q.relator_names
    assert "longitude@2" in q.relator_names


@pytest.mark.parametrize("k", range(1, 13))
def test_boundary_quotient_is_one_rewrite_of_the_extended_presentation(k):
    # the boundary words are two more relators, rewritten from every coset
    # after the cover's own
    p = trefoil_presentation()
    extended = Presentation(
        generators=p.generators,
        relators=p.relators + (TREFOIL_MERIDIAN ** k, TREFOIL_LONGITUDE),
    )
    q = boundary_quotient(k)
    assert q.relator_names == tuple(
        f"{name}@{c}" for name in ("braid", f"meridian^{k}", "longitude")
        for c in range(1, k + 1))
    assert abelianize(q) == cover_homology(extended, cyclic_cover_table(p, k))


def _alexander_cokernel(k):
    """coker(M^k - I), M the companion matrix of the trefoil's Alexander
    polynomial t^2 - t + 1 (Rolfsen, Knots and Links, ch. 6), by the
    textbook reduction of test_snf rather than knotcover.snf."""
    m = [[0, -1], [1, 1]]
    power = [[1, 0], [0, 1]]
    for _ in range(k):
        power = [[sum(power[i][x] * m[x][j] for x in range(2)) for j in range(2)]
                 for i in range(2)]
    factors, rank = naive_snf(
        [[power[i][j] - (i == j) for j in range(2)] for i in range(2)])
    return AbelianInvariants(2 - rank, tuple(d for d in factors if d > 1))


@pytest.mark.parametrize("k", range(1, 13))
def test_cover_groups_match_the_alexander_module(k):
    # H1 of the k-fold cyclic cover is Z + coker(M^k - I), and killing the
    # boundary kills the Z that the meridian^k lift spans
    p = trefoil_presentation()
    coker = _alexander_cokernel(k)
    assert abelianize(boundary_quotient(k)) == coker
    assert cover_homology(p, cyclic_cover_table(p, k)) == AbelianInvariants(
        coker.free_rank + 1, coker.torsion)


def test_boundary_quotient_refuses_folds_above_the_limit(monkeypatch):
    limit = subgroups.BOUNDARY_QUOTIENT_MAX_FOLD
    # one cover relator and two boundary relators per coset
    assert len(boundary_quotient(limit).relators) == 3 * limit

    def refuse(*args, **kwargs):
        raise AssertionError("cover table built for a refused fold")
    monkeypatch.setattr(subgroups, "cyclic_cover_table", refuse)
    with pytest.raises(CapacityError,
                       match=f"^fold {limit + 1} exceeds the limit {limit}: "):
        boundary_quotient(limit + 1)


# -- rank bound ---------------------------------------------------------------

def test_rank_bound_values():
    assert schreier_rank_bound(102, 60) == Fraction(161, 60)
    assert schreier_rank_bound(61, 60) == 2
    assert schreier_rank_bound(1, 5) == 1
    assert schreier_rank_bound(0, 2) == Fraction(1, 2)


def test_rank_bound_validates_inputs():
    with pytest.raises(ValueError):
        schreier_rank_bound(-1, 60)
    with pytest.raises(ValueError):
        schreier_rank_bound(5, 0)


# -- kernel homology ----------------------------------------------------------

def test_kernel_homology_frozen_values():
    assert kernel_homology(1) == AbelianInvariants(1, (3,))
    assert kernel_homology(2) == AbelianInvariants(4, (2, 2, 6, 6, 6, 6, 6, 6))


def test_kernel_homology_stage_three():
    inv = kernel_homology(3)
    assert inv.free_rank == 36
    assert inv.torsion == (3,) * 21 + (6,) * 39 + (18,) * 2 + (72,) * 4
    assert inv.min_generators == 102


def test_kernel_homology_stage_five():
    inv = kernel_homology(5)
    assert inv.free_rank == 71
    assert Counter(inv.torsion) == {3: 15, 6: 80, 30: 2, 360: 6, 720: 1, 3600: 3}


def test_kernel_homology_stage_six():
    inv = kernel_homology(6)
    assert inv.free_rank == 86
    assert Counter(inv.torsion) == {2: 31, 6: 90, 30: 7, 360: 6, 720: 1, 3600: 3}


def test_kernel_homology_stage_seven():
    inv = kernel_homology(7)
    assert inv.free_rank == 106
    assert Counter(inv.torsion) == {
        3: 9, 6: 115, 30: 8, 120: 2, 360: 6, 720: 2, 3600: 6}
    assert inv.min_generators == 254


def test_kernel_homology_stage_eight():
    inv = kernel_homology(8)
    assert inv.free_rank == 121
    assert Counter(inv.torsion) == {
        2: 37, 6: 119, 30: 13, 120: 2, 360: 6, 720: 2, 3600: 6}
    assert inv.min_generators == 306


def test_kernel_homology_guard():
    with pytest.raises(ValueError):
        kernel_homology(0)
