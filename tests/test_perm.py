from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotcover import perm
from knotcover.errors import CapacityError, ParseError
from knotcover.perm import (
    Perm,
    closure,
    compose,
    cycle_string,
    is_even,
    parse_cycles,
)

# independent composition oracle: walk both tuples by hand, left to right
def slow_compose(p: Perm, q: Perm) -> Perm:
    n = max(p.degree, q.degree, 1)
    images = []
    for x in range(1, n + 1):
        y = p.images[x - 1] if x <= p.degree else x
        z = q.images[y - 1] if y <= q.degree else y
        images.append(z)
    return Perm(tuple(images))


perms = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(lambda t: Perm(tuple(t)))
)


def test_parse_and_print_round_trip():
    for text in ["()", "(1,2)", "(1,2)(3,4)", "(1,2,3,4,5)", "(2,4,3)", "(1,5)(3,4)"]:
        assert cycle_string(parse_cycles(text)) == text


def test_parse_normalizes_cycle_order():
    assert cycle_string(parse_cycles("(3,4)(1,2)")) == "(1,2)(3,4)"
    assert cycle_string(parse_cycles("(2,3,1)")) == "(1,2,3)"


def test_parse_whitespace_and_singletons():
    assert parse_cycles(" ( 1 , 2 ) ") == parse_cycles("(1,2)")
    assert parse_cycles("(3)") == Perm.identity()


def test_parse_errors_name_the_token():
    with pytest.raises(ParseError, match="repeated point 2"):
        parse_cycles("(1,2)(2,3)")
    with pytest.raises(ParseError, match="13"):
        parse_cycles("(1,13)")
    with pytest.raises(ParseError, match="expected"):
        parse_cycles("(1,2")
    with pytest.raises(ParseError, match="expected point"):
        parse_cycles("(1,,2)")
    # a comma must be followed by a point
    with pytest.raises(ParseError,
                       match=r"expected point at position 5, got '\)'"):
        parse_cycles("(1,2,)")
    with pytest.raises(ParseError,
                       match=r"expected point at position 3, got '\)'"):
        parse_cycles("(1,)")
    with pytest.raises(ParseError, match="empty"):
        parse_cycles("")
    with pytest.raises(ParseError, match="'x'"):
        parse_cycles("(x)")
    for text, tok in (("(²,1)", "'²'"), ("(١,2)", "'١'")):
        with pytest.raises(ParseError,
                           match=f"expected point at position 1, got {tok}"):
            parse_cycles(text)


def test_trailing_fixed_points_trimmed():
    assert Perm((2, 1, 3, 4)) == Perm((2, 1))
    assert Perm((2, 1, 3, 4)).degree == 2
    assert Perm((1, 2, 3)) == Perm.identity()


def test_degree_cap():
    with pytest.raises(ValueError, match="cap"):
        Perm(tuple(range(2, 14)) + (1,))


def test_compose_left_to_right_frozen_example():
    # apply (1,4,3) first, then (1,4,2)
    assert compose(parse_cycles("(1,4,3)"), parse_cycles("(1,4,2)")) == parse_cycles(
        "(1,2)(3,4)"
    )


def test_compose_chain_of_transposition_pairs():
    # the four-factor product used by the historical-table replay
    chain = ["(1,4)(2,5)", "(1,4)(3,5)", "(2,3)(4,5)", "(1,2)(4,5)"]
    out = Perm.identity()
    for text in chain:
        out = compose(out, parse_cycles(text))
    assert out == parse_cycles("(1,2)(3,5)")


@given(perms, perms)
def test_compose_matches_oracle(p, q):
    assert compose(p, q) == slow_compose(p, q)


@given(perms, perms, perms)
def test_compose_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perms)
def test_inverse_involution(p):
    assert p.inverse().inverse() == p
    assert compose(p, p.inverse()) == Perm.identity()
    assert compose(p.inverse(), p) == Perm.identity()


# Every permutation of degree <= 4, and pairs of mixed degree up to the cap.
ALL_UP_TO_4 = sorted(
    {Perm(t) for n in range(5) for t in permutations(range(1, n + 1))},
    key=lambda p: p.images,
)
MIXED_DEGREE_PAIRS = [
    (parse_cycles("(1,12)"), parse_cycles("(1,2,3)")),
    (parse_cycles("(1,2,3,4,5,6,7,8,9,10,11,12)"), parse_cycles("(2,5)")),
    (parse_cycles("(3,4,5)"), parse_cycles("(1,12,2,11)(6,7)")),
    (parse_cycles("(1,12)(2,11)"), parse_cycles("(1,12)(2,11)")),
    (parse_cycles("(7,8)"), parse_cycles("(1,2)")),
    (Perm.identity(), parse_cycles("(5,9,12)")),
]


def assert_same_as_validated(p: Perm, images):
    # a product built by the trusted path must be indistinguishable from the
    # same permutation built by the validating constructor
    validated = Perm(tuple(images))
    assert p.images == validated.images
    assert p == validated
    assert hash(p) == hash(validated)


def test_compose_matches_oracle_on_all_small_pairs():
    assert len(ALL_UP_TO_4) == 24
    pairs = [(p, q) for p in ALL_UP_TO_4 for q in ALL_UP_TO_4]
    for p, q in pairs + MIXED_DEGREE_PAIRS:
        assert_same_as_validated(compose(p, q), slow_compose(p, q).images)


def test_inverse_matches_oracle_on_small_and_mixed_perms():
    for p in ALL_UP_TO_4 + [p for pair in MIXED_DEGREE_PAIRS for p in pair]:
        n = p.degree
        # the inverse sends p(x) back to x
        images = [0] * n
        for x in range(1, n + 1):
            images[p(x) - 1] = x
        assert_same_as_validated(p.inverse(), images)
        assert compose(p, p.inverse()).images == ()


def test_products_trim_trailing_fixed_points():
    t = parse_cycles("(1,12)(2,11)")
    assert compose(t, t).images == ()
    assert compose(parse_cycles("(1,2)(5,9)"), parse_cycles("(5,9)")).images == (2, 1)
    assert parse_cycles("(1,12)").inverse().degree == 12


def test_public_constructor_rejects_non_permutations():
    with pytest.raises(ValueError, match="not a permutation"):
        Perm((1, 1, 3))
    with pytest.raises(ValueError, match="not a permutation"):
        Perm((0, 1))
    # the transposition (1,13): a permutation, but past DEGREE_CAP
    with pytest.raises(ValueError, match="exceeds cap"):
        Perm((13,) + tuple(range(2, 13)) + (1,))


@given(perms, perms)
def test_parity_multiplicative(p, q):
    assert is_even(compose(p, q)) == (is_even(p) == is_even(q))


def test_is_even_examples():
    assert is_even(parse_cycles("(1,2)(3,4)"))
    assert not is_even(parse_cycles("(1,2)"))
    assert is_even(parse_cycles("(1,2,3)"))
    assert is_even(Perm.identity())


# independent closure oracle: keep multiplying the whole set until stable
def slow_closure_order(gens) -> int:
    elements = {Perm.identity()}
    while True:
        new = {compose(a, g) for a in elements for g in gens} - elements
        if not new:
            return len(elements)
        elements |= new


def test_closure_a5():
    gens = [parse_cycles("(1,2,3,4,5)"), parse_cycles("(1,2,3)")]
    group = closure(gens)
    assert group.order == 60
    assert group.order == slow_closure_order(gens)
    assert group.elements[0] == Perm.identity()
    assert all(is_even(g) for g in group.elements)


def test_closure_a4_and_small():
    gens = [parse_cycles("(1,2,3)"), parse_cycles("(2,3,4)")]
    assert closure(gens).order == 12 == slow_closure_order(gens)
    c2 = closure([parse_cycles("(1,2)(3,4)")])
    assert c2.order == 2
    assert closure([]).order == 1


def test_closure_discovery_order_deterministic():
    gens = [parse_cycles("(1,2,3,4,5)"), parse_cycles("(1,2,3)")]
    assert closure(gens).elements == closure(gens).elements


# reference closure: multiply every element by every generator exactly as
# passed, repeats included
def closure_over_every_generator(gens) -> tuple[Perm, ...]:
    elements = [Perm.identity()]
    seen = set(elements)
    for current in elements:
        for g in gens:
            nxt = compose(current, g)
            if nxt not in seen:
                seen.add(nxt)
                elements.append(nxt)
    return tuple(elements)


def test_closure_with_repeated_generators():
    a, b, c = (parse_cycles(t) for t in ("(1,2,3)", "(3,4,5)", "(1,2)(3,4)"))
    for gens in ([a, a, b], [b, a, b, a, a], [c, Perm.identity(), a, c, b, a],
                 [a] * 20 + [c] * 5):
        group = closure(gens)
        assert group.elements == closure(dict.fromkeys(gens)).elements
        assert group.elements == closure_over_every_generator(gens)


@pytest.mark.parametrize("gens", [[], [Perm(())], [Perm((1,))]],
                         ids=["none", "identity", "degree-1"])
def test_closure_of_degree_below_two_is_trivial(gens):
    # products run through itemgetter on images padded to two points,
    # since itemgetter of one index gives a scalar; the padding is trimmed
    group = closure(gens)
    assert group.elements == (Perm.identity(),)
    assert group.elements[0].images == ()
    assert all(row == (1,) for row in group.action.values())
    assert list(group.action) == list(dict.fromkeys(gens))


def test_closure_cap(monkeypatch):
    a, b = parse_cycles("(1,2,3,4,5)"), parse_cycles("(1,2,3)")
    # the 60th element is found while expanding the first element whose
    # action row reaches position 60; every element before it is expanded
    expanded = min(row.index(60) for row in closure([a, b]).action.values())
    monkeypatch.setattr(perm, "CLOSURE_CAP", 59)
    with pytest.raises(CapacityError, match="cap of 59") as caught:
        closure([a, b, a])
    assert str(caught.value) == (
        "closure exceeded cap of 59 elements (2 distinct generators of "
        f"degree 5; 59 elements found, {expanded} expanded)")


small_perms = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(lambda t: Perm(tuple(t)))
)


@given(st.lists(small_perms, max_size=3))
@example([parse_cycles("(1,12)"), parse_cycles("(1,2,3)")])
@example([parse_cycles("(1,2)"), parse_cycles("(1,2,3,4,5)")])
@example([parse_cycles("(2,4,3)"), parse_cycles("(1,5)"), parse_cycles("(2,4,3)")])
@example([Perm.identity()])
@settings(deadline=None)
def test_closure_action_is_right_multiplication_on_positions(gens):
    group = closure(gens)
    assert group.elements[0] == Perm.identity()
    assert set(group.action) == set(gens)
    for g, row in group.action.items():
        assert sorted(row) == list(range(1, group.order + 1))
        for i, elem in enumerate(group.elements):
            assert group.elements[row[i] - 1] == slow_compose(elem, g)


@given(st.lists(small_perms, max_size=3))
@settings(deadline=None)
def test_closure_lagrange_on_symmetric_group(gens):
    import math

    degree = max([g.degree for g in gens], default=1)
    order = closure(gens).order
    assert math.factorial(max(degree, 1)) % order == 0


@given(perms)
def test_call_beyond_degree_is_fixed(p):
    assert p(p.degree + 1) == p.degree + 1
