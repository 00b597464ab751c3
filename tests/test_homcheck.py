"""Tests for homomorphism checking, staged tables, and the surjection search."""

from itertools import permutations, product

import pytest

from knotcover import homcheck
from knotcover.cosets import kernel_coset_table
from knotcover.errors import (
    CapacityError,
    InvalidArgumentError,
    MissingAssignmentError,
    ParseError,
)
from knotcover.homcheck import (
    A5_ORDER,
    A5_STANDARD_GENERATORS,
    GenAssignment,
    check_relators,
    eval_word,
    phi_tables,
    search_surjections,
    sternfeld_error_repro,
)
from knotcover.perm import Perm, closure, parse_cycles
from knotcover.presentations import (
    kj_presentation,
    kjss_presentation,
    trefoil_presentation,
)
from knotcover.words import Presentation, parse_presentation, word


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
    a = GenAssignment.from_names({"a": "(1,2,3)", "b": "()"})
    assert a.value("a") == parse_cycles("(1,2,3)")
    assert a.value("b") == Perm.identity()


@pytest.mark.parametrize("text", ["", "   "])
def test_from_names_refuses_blank_text(text):
    # parse_cycles is the one reader of cycle text: "()" is the identity
    with pytest.raises(ParseError, match="^empty cycle expression$"):
        GenAssignment.from_names({"a": text})


def test_from_names_rejects_bad_generator_names():
    with pytest.raises(ParseError, match="bad generator name 'A'"):
        GenAssignment.from_names({"a": "(1,2,3)", "A": "(1,2)(3,4)"})


def test_missing_assignment_is_a_named_error():
    a = GenAssignment.from_names({"a": "(1,2)(3,4)"})
    with pytest.raises(MissingAssignmentError, match="b1"):
        a.value("b1")


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

def test_staged_tables_refuse_a_stage_count_below_one():
    with pytest.raises(InvalidArgumentError,
                       match="stage count must be positive, got 0"):
        phi_tables(0)


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
    table = phi_tables(4)
    for letter in "abcdefg":
        assert table.value(f"{letter}4") == parse_cycles("(1,2)(3,4)")
    assert table.value("h4") == Perm.identity()
    assert table.value("i4") == Perm.identity()


def test_lower_stage_tables_cycle_with_distance():
    # distance from the top picks one of four tables, repeating every 4
    assert phi_tables(5).value("h1") == parse_cycles("(3,4,5)")
    assert phi_tables(3).value("e1") == parse_cycles("(1,2)(4,5)")
    assert all(
        phi_tables(6).value(f"{letter}2") == phi_tables(10).value(f"{letter}6")
        for letter in "abcdefghi"
    )
    assert phi_tables(2).value("a1") == parse_cycles("(1,2,3)")


def test_corrupted_assignment_names_the_broken_relators():
    assignment = GenAssignment(
        {**phi_tables(1).mapping, "a1": parse_cycles("(1,2,3)")})
    report = check_relators(kjss_presentation(1), assignment)
    assert not report.ok
    names = {v.name for v in report.violations}
    assert "R_{1,1}" in names
    for v in report.violations:
        assert v.value.degree != 0


def assert_violations_match_eval_word(p, assignment):
    # second route: evaluate every relator by composing permutations
    report = check_relators(p, assignment)
    want = [(p.relator_names[i], eval_word(assignment, r))
            for i, r in enumerate(p.relators)
            if eval_word(assignment, r) != Perm.identity()]
    assert [(v.name, v.value) for v in report.violations] == want
    for v in report.violations:
        assert v.value == eval_word(assignment, v.relator)
    return report


@pytest.mark.parametrize("j", range(1, 7))
def test_corrupted_tables_violations_match_eval_word(j):
    table = phi_tables(j)
    corrupted = 0
    for name, value in (("a1", "(1,2,3)"), (f"h{j}", "(1,2)(3,5)"),
                        (f"e{j}", "(2,4,3)"), (f"i{j}", "(1,4,5)")):
        assignment = GenAssignment(
            {**table.mapping, name: parse_cycles(value)})
        for p in (kjss_presentation(j), kj_presentation(j)):
            corrupted += not assert_violations_match_eval_word(p, assignment).ok
    assert corrupted > 0


def test_s6_trefoil_violations_match_eval_word():
    p = trefoil_presentation()
    for a, b in (("(1,2,3,4,5,6)", "(1,2)"), ("(1,2)", "(2,3,4,5,6)")):
        assignment = GenAssignment.from_names({"a": a, "b": b})
        report = assert_violations_match_eval_word(p, assignment)
        assert report.image_order == 720
        assert not report.ok


def test_missing_image_names_the_first_generator_met_in_the_relators():
    # 'c' comes first when the relators are read, though 'a' comes first
    # among the generators
    p = parse_presentation("gens: a b c\nrel: c b a\n")
    assignment = GenAssignment.from_names({"b": "(1,2)"})
    with pytest.raises(MissingAssignmentError, match="'c'"):
        check_relators(p, assignment)
    with pytest.raises(MissingAssignmentError, match="'c'"):
        eval_word(assignment, p.relators[0])
    with pytest.raises(MissingAssignmentError, match="'c'"):
        kernel_coset_table(p, assignment)


# -- historical fragment ------------------------------------------------------

def test_historical_fragment_data():
    images, w = homcheck._FRAGMENT, homcheck._FRAGMENT_WORD
    assert str(w) == "o^-1 h f^-1 q"
    got = {g: str(v) for g, v in images.mapping.items()}
    assert got == {
        "o": "(1,4)(2,5)",
        "h": "(1,4)(3,5)",
        "f": "(2,3)(4,5)",
        "q": "(1,2)(4,5)",
        "a": "(1,2)(3,4)",
        "r": "(1,2)(3,5)",
    }
    # the sewing word evaluates to the quoted image of r, not that of a
    assert eval_word(images, w) == images.value("r")


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


def test_a_cyclic_image_of_order_sixty_is_not_onto_a5():
    # a = b of order lcm(3, 4, 5) = 60: the relator holds and the image has
    # A5's order, but it is cyclic, on 12 points
    g = "(1,2,3)(4,5,6,7)(8,9,10,11,12)"
    report = check_relators(trefoil_presentation(),
                            GenAssignment.from_names({"a": g, "b": g}))
    assert report.ok and report.image_order == A5_ORDER
    assert not report.surjective_onto_a5


def test_every_order_sixty_closure_on_five_points_is_even():
    # the premise of the onto-A5 rule, which reads no parity: (1,2,3,4,5)
    # with each element of S5 generates a group of order 5, 10, 20, 60 or
    # 120, and each of order 60 is A5
    five_cycle = parse_cycles("(1,2,3,4,5)")
    orders = set()
    for images in permutations(range(1, 6)):
        group = closure([five_cycle, Perm(images)])
        orders.add(group.order)
        if group.order == A5_ORDER:
            assert all(is_even_tuple(g.images + tuple(range(g.degree + 1, 6)))
                       for g in group.elements)
    assert orders == {5, 10, 20, A5_ORDER, 120}


def test_search_count_matches_brute_force():
    p = trefoil_presentation()
    found = search_surjections(p, limit=1000)
    got = {
        (as_tuple(a.value("a")), as_tuple(a.value("b")))
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
        (as_tuple(a.value("a")), as_tuple(a.value("b")))
        for a in found
    }
    assert pinned in listed


def test_search_respects_limit():
    p = trefoil_presentation()
    assert len(search_surjections(p, limit=7)) == 7


def test_search_refuses_wide_presentations():
    wide = Presentation(
        generators=tuple("abcd"),
        relators=(),
    )
    with pytest.raises(CapacityError):
        search_surjections(wide)


def reference_search(p, limit):
    # every tuple over the A5 pool in lexicographic order, checked by
    # composing permutations and closing the images, stopping at limit
    pool = closure(A5_STANDARD_GENERATORS).elements
    found = []
    for images in product(pool, repeat=len(p.generators)):
        assignment = GenAssignment(dict(zip(p.generators, images)))
        if any(eval_word(assignment, r) != Perm.identity() for r in p.relators):
            continue
        if closure(images).order != A5_ORDER:
            continue
        found.append((images, f"search-{len(found)}"))
        if len(found) >= limit:
            break
    return found


@pytest.mark.parametrize("text", [
    "gens: a b c\nrel: a a\nrel: b b b\nrel: c c c c c\nrel: a b c\n",
    "gens: a b c\nrel: b b b\nrel: a^-1 b a c^-1\n",
])
def test_three_generator_search_matches_reference_loop(text):
    p = parse_presentation(text)
    limit = 40
    got = [(tuple(a.value(g) for g in p.generators), a.label)
           for a in search_surjections(p, limit=limit)]
    assert got == reference_search(p, limit)
    assert len(got) == limit


def test_search_with_no_generators_finds_nothing():
    assert search_surjections(Presentation(generators=(), relators=())) == []
