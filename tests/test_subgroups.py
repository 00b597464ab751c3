"""Tests for subgroup rewriting, abelian invariants, boundary quotients,
the frozen longitude, the rank bound, and kernel homology."""

import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from knotcover.cosets import cyclic_cover_table, kernel_coset_table, todd_coxeter
from knotcover.errors import CapacityError
from knotcover.homcheck import (
    GenAssignment,
    eval_word,
    phi_tables,
    search_surjections,
)
from knotcover.perm import Perm
from knotcover.presentations import (
    kj_presentation,
    kjss_presentation,
    trefoil_presentation,
)
from knotcover.subgroups import (
    KERNEL_HOMOLOGY_MAX_STAGES,
    TREFOIL_LONGITUDE,
    TREFOIL_MERIDIAN,
    AbelianInvariants,
    abelianize,
    boundary_quotient,
    kernel_homology,
    reidemeister_schreier,
    schreier_rank_bound,
)
from knotcover.words import GenSym, Presentation, Word, print_presentation, word


# -- subgroup presentations ---------------------------------------------------

def test_identity_cover_renames_but_preserves_the_presentation():
    p = trefoil_presentation()
    sub = reidemeister_schreier(p, cyclic_cover_table(p, 1))
    derived = sub.presentation
    assert [g.name for g in derived.generators] == ["ax1", "bx1"]
    assert len(derived.relators) == 1
    assert str(derived.relators[0]) == "bx1^-1 ax1^-1 bx1^-1 ax1 bx1 ax1"


def test_two_fold_cover_counts_and_names():
    p = trefoil_presentation()
    sub = reidemeister_schreier(p, cyclic_cover_table(p, 2))
    assert tuple(g.name for g in sub.presentation.generators) == (
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


@pytest.mark.parametrize(
    "table_builder",
    [
        lambda: cyclic_cover_table(trefoil_presentation(), 4),
        lambda: cyclic_cover_table(trefoil_presentation(), 6),
        lambda: kernel_coset_table(kjss_presentation(1), phi_tables(1)),
        lambda: kernel_coset_table(kjss_presentation(2), phi_tables(2)),
    ],
)
def test_schreier_count_identities(table_builder):
    table = table_builder()
    base = (
        trefoil_presentation()
        if table.origin.startswith("cyclic")
        else kjss_presentation(1 if table.index == 2 else 2)
    )
    sub = reidemeister_schreier(base, table)
    n, g, r = table.index, len(base.generators), len(base.relators)
    assert len(sub.presentation.generators) == n * g - n + 1
    assert len(sub.presentation.relators) == n * r
    assert len(sub.tree) == n - 1
    assert len(sub.transversal) == n


def test_rewrite_of_a_subgroup_element():
    p = trefoil_presentation()
    sub = reidemeister_schreier(p, cyclic_cover_table(p, 2))
    assert sub.rewrite_from(1, word("a a")) == word("ax2")
    # tree edges rewrite to nothing
    assert sub.rewrite_from(1, word("a")) == Word()


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
        "5532b382c99ff1190de544cba495b8d7938c77711ddfd37d65c9fde6bbb1f1cb",
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


def test_rewritten_relators_share_the_generator_symbols():
    # one GenSym object per Schreier generator, however often it occurs
    sub = _kernel_rewrite(3)
    generators = {id(g) for g in sub.presentation.generators}
    assert all(id(sym) in generators
               for r in sub.presentation.relators for sym, _ in r)
    rewritten = sub.rewrite_from(2, sub.base.relators[0])
    assert rewritten == sub.presentation.relators[1]
    assert all(id(sym) in generators for sym, _ in rewritten)


def test_rewriting_is_deterministic():
    p = trefoil_presentation()
    a = reidemeister_schreier(p, cyclic_cover_table(p, 3)).presentation
    b = reidemeister_schreier(p, cyclic_cover_table(p, 3)).presentation
    assert a == b


# -- abelian invariants -------------------------------------------------------

def test_trefoil_abelianizes_to_z():
    assert abelianize(trefoil_presentation()) == AbelianInvariants(1)


def test_free_group_abelianizes_to_free_abelian():
    free = Presentation(generators=(GenSym("a"), GenSym("b")), relators=())
    assert abelianize(free) == AbelianInvariants(2)


def test_finite_abelian_presentation():
    p = Presentation(
        generators=(GenSym("a"), GenSym("b")),
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
        m = SL2_A if sym.name == "a" else SL2_B
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


def test_boundary_quotient_rejects_unbalanced_longitude():
    with pytest.raises(ValueError, match="total exponent"):
        boundary_quotient(k=2, longitude=word("a b"))


# -- rank bound ---------------------------------------------------------------

def test_rank_bound_values():
    b = schreier_rank_bound(102, 60)
    assert b.value == Fraction(161, 60)
    assert b.ceiling == 3
    assert schreier_rank_bound(61, 60).value == 2
    assert schreier_rank_bound(1, 5).value == 1
    assert schreier_rank_bound(0, 2).ceiling == 1


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


def test_kernel_homology_guard():
    assert KERNEL_HOMOLOGY_MAX_STAGES == 11
    with pytest.raises(CapacityError, match="force"):
        kernel_homology(KERNEL_HOMOLOGY_MAX_STAGES + 1)
    with pytest.raises(ValueError):
        kernel_homology(0)
