import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotcover.errors import ParseError
from knotcover.presentations import kj_presentation, kjss_presentation
from knotcover.words import (
    Presentation,
    Word,
    parse_presentation,
    parse_word,
    print_presentation,
    reduce,
    word,
)

a, b, c = "a", "b", "c"

syllables = st.tuples(
    st.sampled_from([a, b, c]), st.sampled_from([1, -1])
)
raw_words = st.lists(syllables, max_size=12)


def test_word_has_no_instance_dict():
    # slotted: a rewritten presentation holds one word per relator and coset
    w = word("a")
    assert not hasattr(w, "__dict__")
    assert w.syllables == (("a", 1),)


@pytest.mark.parametrize("bad", ["A", "1a", "a_b", "ab-"])
def test_word_text_rejects_bad_generator_names(bad):
    with pytest.raises(ParseError, match=f"bad generator name '{bad}'"):
        word(f"a {bad}^-1")


def test_gens_line_rejects_bad_names_at_their_column():
    with pytest.raises(ParseError, match="bad generator name 'A'") as e:
        parse_presentation("gens: a A\n")
    assert (e.value.line, e.value.col) == (1, 9)
    with pytest.raises(ParseError, match="bad generator name '1a'"):
        parse_presentation("gens: 1a\n")


def test_digit_names_are_distinct_and_kept_as_written():
    w = word("a0 a01 a1")
    assert [sym for sym, _ in w] == ["a0", "a01", "a1"]
    assert str(w) == "a0 a01 a1"


def test_schreier_names_print_and_parse_back():
    p = Presentation(("ax12", "b3x7", "a1x17"), (word("ax12 b3x7^-1 a1x17"),))
    text = print_presentation(p)
    assert text == "gens: ax12 b3x7 a1x17\nrel: ax12 b3x7^-1 a1x17\n"
    assert parse_presentation(text) == p


def test_reduce_cancels():
    assert reduce([(a, 1), (a, -1)]) == Word()
    assert reduce([(a, 1), (b, 1), (b, -1), (a, -1)]) == Word()
    assert reduce([(a, 1), (b, 1), (b, -1), (a, 1)]) == reduce([(a, 1), (a, 1)])


def test_reduce_refuses_a_sign_other_than_one():
    with pytest.raises(ValueError, match=r"^syllable sign must be \+1 or -1, got 2$"):
        reduce([("a", 2)])


def test_reduce_keeps_the_tuple_syllables_it_is_given():
    raw = [(a, 1), (b, -1), (b, 1), (c, 1), (a, -1)]
    kept = reduce(raw).syllables
    assert kept == ((a, 1), (c, 1), (a, -1))
    assert all(x is y for x, y in zip(kept, (raw[0], raw[3], raw[4])))


def test_reduce_makes_tuples_of_other_pairs():
    w = reduce([["a", 1], ["b", -1]])
    assert w.syllables == (("a", 1), ("b", -1))
    assert w == word("a b^-1") and hash(w) == hash(word("a b^-1"))


def test_products_and_powers_share_their_factors_syllables():
    # u v cancels c against c^-1; every syllable left is u's or v's own
    u, v = word("a b c"), word("c^-1 a b")
    product = (u * v).syllables
    assert product == word("a b a b").syllables
    assert all(x is y for x, y in zip(product,
                                      u.syllables[:2] + v.syllables[1:]))
    cubed = (u ** 3).syllables
    assert cubed == (word("a b c") ** 3).syllables and len(cubed) == 9
    assert all(x is y for x, y in zip(cubed, u.syllables * 3))


def test_word_constructor_requires_reduced():
    with pytest.raises(ValueError, match="reduced"):
        Word(((a, 1), (a, -1)))


def test_word_parsing_and_printing():
    w = word("b^-1 a^-1 b^-1 a b a")
    assert str(w) == "b^-1 a^-1 b^-1 a b a"
    assert len(w) == 6
    assert word("") == Word()
    with pytest.raises(ParseError, match="\\^2"):
        word("c^2")


@given(raw_words)
def test_reduce_idempotent(raw):
    w = reduce(raw)
    assert reduce(w.syllables) == w


@given(raw_words)
def test_word_times_inverse_is_identity(raw):
    w = reduce(raw)
    assert w * w.inverse() == Word()
    assert w.inverse().inverse() == w


def raw_inverse(raw):
    return [(sym, -sign) for sym, sign in reversed(raw)]


@given(raw_words, raw_words, st.integers(-4, 4))
def test_derived_words_pass_the_public_check(raw1, raw2, k):
    # reduce, inverse, * and ** build their words through the trusted
    # path: each must be a word the public constructor accepts as it
    # stands, and the reduction of the raw syllables it stands for
    w1, w2 = reduce(raw1), reduce(raw2)
    power = raw1 * k if k >= 0 else raw_inverse(raw1) * -k
    for w, raw in [(w1, raw1), (w1.inverse(), raw_inverse(raw1)),
                   (w1 * w2, raw1 + raw2), (w1 ** k, power)]:
        assert Word(w.syllables) == w
        assert w == reduce(raw)


@pytest.mark.parametrize("j", range(1, 9))
def test_stage_relators_pass_the_public_check(j):
    # the stage renaming builds through the trusted path
    for p in (kj_presentation(j), kjss_presentation(j)):
        for r in p.relators:
            assert Word(r.syllables) == r


@pytest.mark.parametrize("syllables,message", [
    (((a, 1), (a, -1), (b, 2)), "not freely reduced at position 1"),
    (((a, 1), (b, 2), (b, -1)), r"sign must be \+1 or -1, got 2"),
    (((a, -1), (b, 1), (b, 1), (b, -1)), "not freely reduced at position 3"),
    (((a, True), (a, -1)), "not freely reduced at position 1"),
    (((a, 1), (a, 1.0), (b, 0)), r"sign must be \+1 or -1, got 0"),
])
def test_word_check_reports_the_first_fault(syllables, message):
    with pytest.raises(ValueError, match=message):
        Word(syllables)


def test_presentation_check_reports_the_first_fault():
    with pytest.raises(ValueError, match="bad generator name 'B'"):
        Presentation((a, "B", "C", a), (word("q"),))
    with pytest.raises(ValueError, match="duplicate"):
        Presentation((a, a), (word("b"),))
    with pytest.raises(ValueError,
                       match=r"relator 1 uses undeclared generators: \['b', 'c'\]"):
        Presentation((a,), (word("a"), word("c b"), word("d")))


@given(raw_words, raw_words)
def test_total_exponent_additive(raw1, raw2):
    w1, w2 = reduce(raw1), reduce(raw2)
    assert (w1 * w2).total_exponent() == w1.total_exponent() + w2.total_exponent()


def repeated_product(w, k):
    """Oracle: the definition, k successive products with w or its inverse."""
    base = w if k >= 0 else w.inverse()
    out = Word()
    for _ in range(abs(k)):
        out = out * base
    return out


def test_pow():
    assert word("a") ** 3 == word("a a a")
    assert word("a") ** -2 == word("a^-1 a^-1")
    assert word("a b") ** 0 == Word()
    # a conjugate: the a^-1 a pairs between copies cancel
    w = word("a b a^-1")
    assert w ** 3 == word("a b b b a^-1") == repeated_product(w, 3)
    assert w ** -2 == word("a b^-1 b^-1 a^-1") == repeated_product(w, -2)
    assert (w ** 5) * (w ** -5) == Word()


@given(raw_words, st.integers(-5, 5))
def test_pow_matches_repeated_products(raw, k):
    w = reduce(raw)
    assert w ** k == repeated_product(w, k)


def test_large_pow_is_one_reduction():
    # k successive products re-reduce the growing word every time: seconds
    # at k = 5000 and most of an hour at 10^5, so the smaller power is
    # timed first and a slow pow fails there
    for k in (5_000, 100_000):
        start = time.process_time()
        w = word("a b a^-1") ** k
        elapsed = time.process_time() - start
        assert elapsed < 0.5, f"a {k}-fold power took {elapsed:.1f} s of CPU"
        assert len(w) == k + 2
    assert len(word("a b") ** -100_000) == 200_000


def test_presentation_validation():
    with pytest.raises(ValueError, match="bad generator name 'A'"):
        Presentation((a, "A"), ())
    with pytest.raises(ValueError, match="bad generator name 'a b'"):
        Presentation(("a b",), ())
    with pytest.raises(ValueError, match="duplicate"):
        Presentation((a, a), ())
    with pytest.raises(ValueError, match="undeclared"):
        Presentation((a,), (word("b"),))
    with pytest.raises(ValueError, match="relator_names"):
        Presentation((a,), (word("a"),), relator_names=("one", "two"))


def test_parse_presentation_basic():
    p = parse_presentation("gens: a b\nrel: b^-1 a^-1 b^-1 a b a\n")
    assert p.generators == ("a", "b")
    assert p.relators == (word("b^-1 a^-1 b^-1 a b a"),)


def test_parse_presentation_equality_form():
    p = parse_presentation("gens: a b c\nrel: b = c^-1 a c\n")
    assert p.relators == (word("b c^-1 a^-1 c"),)


def test_parse_presentation_free_group():
    p = parse_presentation("gens: a\nrel: \n")
    assert p.generators == ("a",)
    assert p.relators == (Word(),)  # an empty relator imposes nothing


def test_parse_presentation_comments_and_blanks():
    p = parse_presentation("# header\ngens: a   # trailing\n\nrel: a a\n")
    assert p.relators == (word("a a"),)


def test_parse_presentation_errors_carry_line_and_col():
    with pytest.raises(ParseError) as e:
        parse_presentation("gens: a\nrel: a q\n")
    assert e.value.line == 2
    assert e.value.col == 8
    assert "q" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse_presentation("gens: a B\n")
    assert e.value.line == 1
    assert "B" in str(e.value)

    with pytest.raises(ParseError, match="expected 'gens:'"):
        parse_presentation("nonsense: a\n")

    with pytest.raises(ParseError, match="duplicate"):
        parse_presentation("gens: a a\n")

    with pytest.raises(ParseError, match="both sides"):
        parse_presentation("gens: a\nrel: a =\n")

    with pytest.raises(ParseError, match="more than one"):
        parse_presentation("gens: a\nrel: a = a = a\n")


def test_relator_syllable_errors_carry_their_position():
    # the syllable is parsed with its position, so both of its own errors
    # name the column where the token starts
    with pytest.raises(ParseError, match="bad syllable 'a\\^2'") as e:
        parse_presentation("gens: a\nrel: a a^2\n")
    assert (e.value.line, e.value.col) == (2, 8)

    with pytest.raises(ParseError, match="bad generator name 'B'") as e:
        parse_presentation("gens: a\nrel: a B\n")
    assert (e.value.line, e.value.col) == (2, 8)


def test_the_first_error_in_the_text_is_raised():
    # each line is parsed as it is read: the bad syllable on line 2 is met
    # before the bad name on line 3
    with pytest.raises(ParseError, match="bad generator name 'B'") as e:
        parse_presentation("gens: a\nrel: a B\ngens: 1x\n")
    assert (e.value.line, e.value.col) == (2, 8)


def test_a_relator_uses_only_generators_declared_above_it():
    with pytest.raises(ParseError, match="unknown generator 'a'") as e:
        parse_presentation("rel: a\ngens: a\n")
    assert (e.value.line, e.value.col) == (1, 6)

    p = parse_presentation("gens: a\nrel: a a\ngens: b\nrel: a b\n")
    assert p.generators == ("a", "b")
    assert p.relators == (word("a a"), word("a b"))


def test_a_word_over_generators_is_checked_before_reduction():
    # each token is checked as in a relator, so the cancelling pair c c^-1
    # does not hide c, and the first bad token is the one reported
    with pytest.raises(ParseError) as e:
        parse_word("a c c^-1", {"a"})
    assert str(e.value) == "unknown generator 'c'"
    assert (e.value.line, e.value.col) == (None, None)
    with pytest.raises(ParseError, match="unknown generator 'c'"):
        parse_word("c b^2", {"a", "b"})
    with pytest.raises(ParseError, match="bad syllable 'b\\^2'"):
        parse_word("a b^2 c", {"a", "b"})


@given(raw_words)
def test_parse_word_over_declared_generators_equals_word(raw):
    text = " ".join(sym if sign > 0 else f"{sym}^-1" for sym, sign in raw)
    assert parse_word(text, {a, b, c}) == word(text)


def test_print_parse_round_trip():
    p = Presentation(
        (a, b), (word("b^-1 a^-1 b^-1 a b a"), word("a a b")), label="x"
    )
    assert parse_presentation(print_presentation(p)) == p


@given(st.lists(raw_words, max_size=4))
def test_print_parse_round_trip_random(raws):
    p = Presentation((a, b, c), tuple(reduce(r) for r in raws))
    assert parse_presentation(print_presentation(p)) == p


def test_unnamed_relators_are_named_by_position():
    p = parse_presentation("gens: a\nrel: a a\n")
    assert p.relator_names == ("relator[0]",)
    assert p.relator_names[0] == "relator[0]"


def test_label_and_names_are_metadata():
    p1 = Presentation((a,), (word("a"),), label="x", relator_names=("first",))
    p2 = Presentation((a,), (word("a"),), label="y")
    assert p1 == p2
    assert p1.relator_names[0] == "first"
    assert p2.relator_names[0] == "relator[0]"
