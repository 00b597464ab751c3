"""Tests for homomorphism checking, staged tables, and the surjection search."""

from itertools import permutations

import pytest

from knotcover.errors import CapacityError, MissingAssignmentError
from knotcover.homcheck import (
    A5_ORDER,
    GenAssignment,
    check_relators,
    eval_word,
    phi_tables,
    search_surjections,
    stage_table,
    sternfeld_error_repro,
)
from knotcover.perm import Perm, parse_cycles
from knotcover.presentations import (
    kj_presentation,
    kjss_presentation,
    trefoil_presentation,
)
from knotcover.words import GenSym, Presentation, word


# -- independent oracle helpers (no package arithmetic) ----------------------

def apply_seq(maps, point):
    for m in maps:
        point = m[point]
    return point


def perm_map(images):
    """Tuple of images over 1..5 -> dict including fixed points."""
    return {i + 1: images[i] for i in range(5)}


def is_even_tuple(images):
    inversions = sum(
        1
        for i in range(5)
        for k in range(i + 1, 5)
        if images[i] > images[k]
    )
    return inversions % 2 == 0


def a5_elements():
    return [p for p in permutations(range(1, 6)) if is_even_tuple(p)]


def oracle_compose(p, q):
    return tuple(q[p[i] - 1] for i in range(5))


def oracle_closure_order(gens):
    seen = {tuple(range(1, 6))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = oracle_compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def as_tuple(perm: Perm):
    return tuple(perm(i) for i in range(1, 6))


# -- GenAssignment ------------------------------------------------------------

def test_from_names_parses_cycles_and_identity():
    a = GenAssignment.from_names({"a": "(1,2,3)", "b": ""})
    assert a.value(GenSym("a")) == parse_cycles("(1,2,3)")
    assert a.value(GenSym("b")) == Perm.identity()


def test_missing_assignment_is_a_named_error():
    a = GenAssignment.from_names({"a": "(1,2)(3,4)"})
    with pytest.raises(MissingAssignmentError, match="b1"):
        a.value(GenSym("b", 1))


def test_with_value_returns_new_assignment():
    a = GenAssignment.from_names({"a": "(1,2)(3,4)"})
    b = a.with_value(GenSym("a"), parse_cycles("(1,2,3)"))
    assert a.value(GenSym("a")) == parse_cycles("(1,2)(3,4)")
    assert b.value(GenSym("a")) == parse_cycles("(1,2,3)")


def test_label_is_metadata_only():
    a = GenAssignment.from_names({"a": "(1,2,3)"}, label="x")
    b = GenAssignment.from_names({"a": "(1,2,3)"}, label="y")
    assert a == b


def test_eval_word_composes_left_to_right():
    a = GenAssignment.from_names({"a": "(1,2,3)", "b": "(1,2)(4,5)"})
    got = eval_word(a, word("a b"))
    # apply a first, then b: 1->2->1, 2->3->3, 3->1->2, 4->5, 5->4
    assert str(got) == "(2,3)(4,5)"
    assert eval_word(a, word("a a^-1")) == Perm.identity()


# -- staged tables ------------------------------------------------------------

@pytest.mark.parametrize("j", range(1, 7))
def test_staged_tables_satisfy_all_relators(j):
    assignment = phi_tables(j)
    for p in (kjss_presentation(j), kj_presentation(j)):
        report = check_relators(p, assignment)
        assert report.ok, [v.name for v in report.violations]


def test_image_orders_by_stage_count():
    orders = [
        check_relators(kjss_presentation(j), phi_tables(j)).image_order
        for j in range(1, 7)
    ]
    assert orders == [2, 12, 60, 60, 60, 60]


def test_onto_a5_flag_tracks_image_order():
    assert not check_relators(kjss_presentation(1), phi_tables(1)).surjective_onto_a5
    assert not check_relators(kjss_presentation(2), phi_tables(2)).surjective_onto_a5
    assert check_relators(kjss_presentation(3), phi_tables(3)).surjective_onto_a5


def test_top_stage_table():
    table = stage_table(4, 4)
    for letter in "abcdefg":
        assert table[letter] == parse_cycles("(1,2)(3,4)")
    assert table["h"] == Perm.identity()
    assert table["i"] == Perm.identity()


def test_lower_stage_tables_cycle_with_distance():
    # distance from the top picks one of four tables, repeating every 4
    assert stage_table(5, 1)["h"] == parse_cycles("(3,4,5)")
    assert stage_table(3, 1)["e"] == parse_cycles("(1,2)(4,5)")
    assert stage_table(6, 2) == stage_table(10, 6)
    assert stage_table(2, 1)["a"] == parse_cycles("(1,2,3)")


def test_stage_table_rejects_out_of_range():
    with pytest.raises(ValueError):
        stage_table(3, 0)
    with pytest.raises(ValueError):
        stage_table(3, 4)


def test_corrupted_assignment_names_the_broken_relators():
    assignment = phi_tables(1).with_value(GenSym("a", 1), parse_cycles("(1,2,3)"))
    report = check_relators(kjss_presentation(1), assignment)
    assert not report.ok
    names = {v.name for v in report.violations}
    assert "R_{1,1}" in names
    for v in report.violations:
        assert v.value.degree != 0


# -- historical fragment ------------------------------------------------------

def test_fragment_evaluation_reproduces_the_mismatch():
    repro = sternfeld_error_repro()
    assert str(repro.got) == "(1,2)(3,5)"
    assert str(repro.expected) == "(1,2)(3,4)"
    assert repro.mismatch


def test_fragment_evaluation_against_hand_computation():
    # replay o^-1 h f^-1 q left to right with plain dict arithmetic
    o = perm_map((4, 5, 3, 1, 2))   # (1,4)(2,5)
    h = perm_map((4, 2, 5, 1, 3))   # (1,4)(3,5)
    f = perm_map((1, 3, 2, 5, 4))   # (2,3)(4,5)
    q = perm_map((2, 1, 3, 5, 4))   # (1,2)(4,5)
    images = tuple(
        apply_seq([o, h, f, q], point) for point in range(1, 6)
    )  # o is an involution so o^-1 = o; same for f
    assert images == (2, 1, 5, 4, 3)  # (1,2)(3,5)
    assert as_tuple(sternfeld_error_repro().got) == images


# -- surjection search --------------------------------------------------------

def test_pinned_trefoil_assignment_passes():
    p = trefoil_presentation()
    pinned = GenAssignment.from_names({"a": "(1,3,5,4,2)", "b": "(1,2,3,4,5)"})
    report = check_relators(p, pinned)
    assert report.ok
    assert report.image_order == A5_ORDER
    assert report.surjective_onto_a5


def test_search_count_matches_brute_force():
    p = trefoil_presentation()
    found = search_surjections(p, limit=1000)
    got = {
        (as_tuple(a.value(GenSym("a"))), as_tuple(a.value(GenSym("b"))))
        for a in found
    }

    want = set()
    for u in a5_elements():
        for v in a5_elements():
            um, vm = perm_map(u), perm_map(v)
            ui = {w: k for k, w in um.items()}
            vi = {w: k for k, w in vm.items()}
            # relator b^-1 a^-1 b^-1 a b a applied left to right
            maps = [vi, ui, vi, um, vm, um]
            if all(apply_seq(maps, x) == x for x in range(1, 6)):
                if oracle_closure_order([u, v]) == 60:
                    want.add((u, v))
    assert got == want
    assert len(found) == 120


def test_search_rediscovers_pinned_assignment():
    p = trefoil_presentation()
    found = search_surjections(p, limit=1000)
    pinned = (
        as_tuple(parse_cycles("(1,3,5,4,2)")),
        as_tuple(parse_cycles("(1,2,3,4,5)")),
    )
    listed = {
        (as_tuple(a.value(GenSym("a"))), as_tuple(a.value(GenSym("b"))))
        for a in found
    }
    assert pinned in listed


def test_search_respects_limit():
    p = trefoil_presentation()
    assert len(search_surjections(p, limit=7)) == 7


def test_search_refuses_wide_presentations():
    wide = Presentation(
        generators=tuple(GenSym(s) for s in "abcd"),
        relators=(),
    )
    with pytest.raises(CapacityError):
        search_surjections(wide)
