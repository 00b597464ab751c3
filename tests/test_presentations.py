"""Tests for the built-in presentation builders and table data."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotcover.perm import parse_cycles
from knotcover.presentations import (
    boundary_words,
    kj_presentation,
    kjss_presentation,
    sternfeld_fragment,
    sternfeld_tables,
    trefoil_presentation,
)
from knotcover.words import parse_presentation, print_presentation, word


def test_trefoil_shape():
    p = trefoil_presentation()
    assert p.generators == ("a", "b")
    assert len(p.relators) == 1
    assert str(p.relators[0]) == "b^-1 a^-1 b^-1 a b a"
    assert p.relator_names == ("braid",)


def test_trefoil_relator_is_braid_relation():
    # the relator says aba = bab
    p = trefoil_presentation()
    lhs = word("a b a")
    rhs = word("b a b")
    assert p.relators[0] == rhs.inverse() * lhs


@pytest.mark.parametrize("j,gens,relators", [(1, 9, 10), (2, 18, 21), (3, 27, 32)])
def test_staged_knot_group_counts(j, gens, relators):
    p = kj_presentation(j)
    assert len(p.generators) == gens
    assert len(p.relators) == relators
    assert p.label == f"kj-{j}"


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_identified_presentation_adds_three_relators_per_stage(j):
    plain = kj_presentation(j)
    identified = kjss_presentation(j)
    assert identified.generators == plain.generators
    assert identified.relators[: len(plain.relators)] == plain.relators
    assert len(identified.relators) == len(plain.relators) + 3 * j
    assert identified.label == f"kjss-{j}"


def test_generators_carry_their_stage_subscript():
    p = kj_presentation(3)
    # nine letters per stage, stages in order, each name its letter then
    # its stage
    assert p.generators == tuple(
        f"{letter}{l}" for l in (1, 2, 3) for letter in "abcdefghi"
    )


def test_link_block_relators():
    p = kj_presentation(2)
    names = dict(zip(p.relator_names, p.relators))
    assert names["R_{1,1}"] == word("b1 c1^-1 a1^-1 c1")
    assert names["R_{2,4}"] == word("e2 g2 d2^-1 g2^-1")
    # same block shape at every stage, only the stage number changes
    restaged = [
        (f"{sym[0]}2", sign) for sym, sign in names["R_{1,1}"]
    ]
    assert list(names["R_{2,1}"]) == restaged


def test_closing_relator_kills_top_stage_h():
    for j in (1, 2, 3):
        p = kj_presentation(j)
        names = dict(zip(p.relator_names, p.relators))
        assert names[f"h_{j}"] == word(f"h{j}")


def test_sewing_relators_tie_adjacent_stages():
    p = kj_presentation(2)
    names = dict(zip(p.relator_names, p.relators))
    below = boundary_words(1)
    here = boundary_words(2)
    assert names["S_{2,1}"] == below.alpha * here.delta.inverse()
    assert names["S_{2,2}"] == below.beta * here.gamma.inverse()


def test_boundary_words_shape():
    bw = boundary_words(2)
    assert str(bw.alpha) == "h2"
    assert str(bw.beta) == "f2^-1 g2"
    assert str(bw.gamma) == "a2"
    assert str(bw.delta) == "c2 a2 b2 g2^-1 h2^-1 e2^-1 h2"


def test_identification_relators_by_name():
    p = kjss_presentation(4)
    names = dict(zip(p.relator_names, p.relators))
    assert names["a3=b3"] == word("a3 b3^-1")
    assert names["b4=c4"] == word("b4 c4^-1")
    assert names["c1=d1"] == word("c1 d1^-1")


def test_relator_names_are_unique():
    for p in (kj_presentation(3), kjss_presentation(3)):
        assert len(set(p.relator_names)) == len(p.relator_names)
        assert len(p.relator_names) == len(p.relators)


@pytest.mark.parametrize("j", [0, -1])
def test_stage_count_must_be_positive(j):
    with pytest.raises(ValueError):
        kj_presentation(j)
    with pytest.raises(ValueError):
        kjss_presentation(j)


@pytest.mark.parametrize(
    "build", [trefoil_presentation, lambda: kj_presentation(2),
              lambda: kjss_presentation(2)]
)
def test_dsl_round_trip(build):
    p = build()
    assert parse_presentation(print_presentation(p)) == p


@given(st.integers(min_value=1, max_value=6))
def test_staged_counts_formula(j):
    p = kj_presentation(j)
    assert len(p.generators) == 9 * j
    assert len(p.relators) == 9 * j + 2 * (j - 1) + 1


def test_historical_fragment_data():
    images, w = sternfeld_fragment()
    assert str(w) == "o^-1 h f^-1 q"
    got = {g: str(v) for g, v in images.items()}
    assert got == {
        "o": "(1,4)(2,5)",
        "h": "(1,4)(3,5)",
        "f": "(2,3)(4,5)",
        "q": "(1,2)(4,5)",
        "a": "(1,2)(3,4)",
        "r": "(1,2)(3,5)",
    }


def test_historical_tables_shape_and_spot_values():
    top, odd, even = sternfeld_tables()
    letters = list("abcdefghijklmnopqrstu")
    for table in (top, odd, even):
        assert sorted(table) == letters
    assert top["a"] == parse_cycles("(1,2)(3,5)")
    assert top["e"] == parse_cycles("(1,2)(4,5)")
    assert odd["a"] == parse_cycles("(1,2)(4,5)")
    assert odd["f"] == parse_cycles("(2,5)(3,4)")
    assert even["e"] == parse_cycles("(1,4)(3,5)")
    # every table value is an even permutation of at most 5 points
    for table in (top, odd, even):
        for v in table.values():
            assert v.degree <= 5
