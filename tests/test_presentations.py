"""Tests for the built-in presentation builders and table data."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotcover import presentations
from knotcover.errors import CapacityError
from knotcover.homcheck import phi_tables
from knotcover.perm import cycle_string
from knotcover.presentations import (
    STAGE_CAP,
    kj_presentation,
    kjss_presentation,
    stage_boundary_words,
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
    # S_{2,1}: alpha_1 = delta_2 and S_{2,2}: beta_1 = gamma_2
    p = kj_presentation(2)
    names = dict(zip(p.relator_names, p.relators))
    delta2 = word("c2 a2 b2 g2^-1 h2^-1 e2^-1 h2")
    assert names["S_{2,1}"] == word("h1") * delta2.inverse()
    assert names["S_{2,2}"] == word("f1^-1 g1") * word("a2").inverse()


def test_boundary_words_shape():
    # stage 2's curves as literal words in the sewing relators: gamma_2 = a2
    # and delta_2 = c2 a2 b2 g2^-1 h2^-1 e2^-1 h2 sew down to stage 1,
    # alpha_2 = h2 and beta_2 = f2^-1 g2 sew up to stage 3
    p = kj_presentation(3)
    names = dict(zip(p.relator_names, p.relators))
    assert str(names["S_{2,1}"]) == "h1 h2^-1 e2 h2 g2 b2^-1 a2^-1 c2^-1"
    assert str(names["S_{2,2}"]) == "f1^-1 g1 a2^-1"
    assert str(names["S_{3,1}"]) == "h2 h3^-1 e3 h3 g3 b3^-1 a3^-1 c3^-1"
    assert str(names["S_{3,2}"]) == "f2^-1 g2 a3^-1"


@pytest.mark.parametrize("j", [1, 2, 3, 6])
def test_sewing_relators_are_built_from_the_stage_boundary_words(j):
    p = kj_presentation(j)
    names = dict(zip(p.relator_names, p.relators))
    for l in range(2, j + 1):
        (alpha, beta), _ = stage_boundary_words(l - 1)
        _, (gamma, delta) = stage_boundary_words(l)
        assert names[f"S_{{{l},1}}"] == alpha * delta.inverse()
        assert names[f"S_{{{l},2}}"] == beta * gamma.inverse()
    assert names[f"h_{j}"] == stage_boundary_words(j)[0][0]


@pytest.mark.parametrize("j", range(1, 6))
def test_each_stage_boundary_is_built_once(monkeypatch, j):
    calls = []

    def spy(l):
        calls.append(l)
        return real(l)

    real = presentations.stage_boundary_words
    monkeypatch.setattr(presentations, "stage_boundary_words", spy)
    kj_presentation(j)
    assert calls == list(range(1, j + 1))


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


def test_stage_counts_stop_at_the_stage_cap():
    # one rule for the presentations and the staged tables alike
    assert 24 < STAGE_CAP
    assert len(kj_presentation(STAGE_CAP).generators) == 9 * STAGE_CAP
    for build in (kj_presentation, kjss_presentation, phi_tables):
        with pytest.raises(CapacityError, match=(
                f"^stage count {STAGE_CAP + 1} exceeds the stage cap "
                f"{STAGE_CAP}$")):
            build(STAGE_CAP + 1)


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


# sha256 of the staged family, byte for byte: print_presentation plus the
# relator names for kj and kjss, and the cycle strings of phi_tables(j) in
# generator order
FAMILY_FINGERPRINTS = {
    ("kj", 1):
        "7f68f6d44124b3425070ee5a23c57b754716bc7c3b1fbe0cf9d314485d136cc3",
    ("kj", 2):
        "3a95d0c04074fa65bba42b73e23ec9fa24a7323a45f4d937cc34b7aabecc4776",
    ("kj", 5):
        "306b8dd1afb534031278883dd9c3045ed31481b030e9d72ff07fcdb69a402267",
    ("kj", 24):
        "9ae3f1b94a1ddf4e0853d5a70ebed9cc25e74ea44706017a67047aa2e733fec9",
    ("kjss", 1):
        "3e920c8ff36e0bc8b52d3c9a311ddecddf0db8b6a2a0fa1addd0e1bf92225cbb",
    ("kjss", 2):
        "1ee668587e065d56906c7b20401cdacc8c4672292f46b9b59845029b5e2a77ff",
    ("kjss", 5):
        "7db2e7deb7aabcd9027b2c658b08b4c165f90c32e42b971af652474aa3d467f3",
    ("kjss", 24):
        "a97867a530c438b2ce32f4ba159ec9f7a40f2099ea7d7c66819a8184f72fe318",
    ("phi", 1):
        "e7c4cc8ed68aa844510951bbbeb0c302940713ef4e518a3be3f88a9b20cb737f",
    ("phi", 2):
        "6642b9f12eefdda5f624cdf8f70bba2b0818f77119bb002fb3900fc5ce1cce2a",
    ("phi", 3):
        "59c48fda849a2a38e14439917694d0df46841ed56eb6665eee738fffc612c6b9",
    ("phi", 4):
        "4e9a3818778b49400e56cc6f6a3e2e34960bfa77d93f30f1b19c5564fc7d73ce",
    ("phi", 5):
        "6c6ad6f7d75bb9bb007d083862e9905537fc574e83b8dcec1325650725d357bf",
    ("phi", 6):
        "55bf698e20ae49eaa7d87fde2160d703521db1d8d803bbcf7187896472f5c3fb",
    ("phi", 7):
        "9f4af505486b3e232504066009157bc3a8cf18f9f1f869ce5a6facf0d785ae53",
    ("phi", 8):
        "9d933eb386414071e2c2061d978ad3f8f739939e8783d6152d3244816699372c",
    ("phi", 9):
        "407fc34bcab944f5660b125daeec92b9584f3cfdb5d13e096ae30665c5e59439",
}


def _family_text(kind, j):
    if kind == "phi":
        gens = kj_presentation(j).generators
        return "\n".join(
            cycle_string(v) for v in phi_tables(j).values_in_order(gens)
        )
    p = {"kj": kj_presentation, "kjss": kjss_presentation}[kind](j)
    return print_presentation(p) + "\n".join(p.relator_names)


def test_staged_family_is_pinned():
    digests = {
        key: hashlib.sha256(_family_text(*key).encode()).hexdigest()
        for key in FAMILY_FINGERPRINTS
    }
    assert digests == FAMILY_FINGERPRINTS

