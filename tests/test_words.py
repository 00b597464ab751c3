import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotcover.errors import ParseError
from knotcover.words import (
    GenSym,
    Presentation,
    Word,
    parse_presentation,
    print_presentation,
    reduce,
    word,
)

a, b, c = GenSym("a"), GenSym("b"), GenSym("c")

syllables = st.tuples(
    st.sampled_from([a, b, c]), st.sampled_from([1, -1])
)
raw_words = st.lists(syllables, max_size=12)


def test_gensym_names():
    assert GenSym("a").name == "a"
    assert GenSym("a", 3).name == "a3"
    assert GenSym("a1x", 17).name == "a1x17"
    assert GenSym.parse("a12") == GenSym("a", 12)
    assert GenSym.parse("ab") == GenSym("ab")
    assert GenSym.parse("a1x17") == GenSym("a1x", 17)


def test_gensym_rejects_bad_names():
    with pytest.raises(ValueError):
        GenSym("A")
    with pytest.raises(ValueError):
        GenSym("a1")  # stem may not end in a digit
    with pytest.raises(ValueError):
        GenSym("a", 0)
    with pytest.raises(ValueError):
        GenSym.parse("1a")


def test_reduce_cancels():
    assert reduce([(a, 1), (a, -1)]) == Word()
    assert reduce([(a, 1), (b, 1), (b, -1), (a, -1)]) == Word()
    assert reduce([(a, 1), (b, 1), (b, -1), (a, 1)]) == reduce([(a, 1), (a, 1)])


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


@given(raw_words, raw_words)
def test_total_exponent_additive(raw1, raw2):
    w1, w2 = reduce(raw1), reduce(raw2)
    assert (w1 * w2).total_exponent() == w1.total_exponent() + w2.total_exponent()


def test_exponent_sums():
    w = word("b^-1 a^-1 b^-1 a b a")
    assert w.exponent_sum(a) == 1
    assert w.exponent_sum(b) == -1
    assert w.total_exponent() == 0


def test_conjugate():
    w = word("a")
    by = word("b")
    assert w.conjugate(by) == word("b^-1 a b")


def test_pow():
    assert word("a") ** 3 == word("a a a")
    assert word("a") ** -2 == word("a^-1 a^-1")
    assert word("a b") ** 0 == Word()


def test_presentation_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Presentation((a, a), ())
    with pytest.raises(ValueError, match="undeclared"):
        Presentation((a,), (word("b"),))
    with pytest.raises(ValueError, match="relator_names"):
        Presentation((a,), (word("a"),), relator_names=("one", "two"))


def test_parse_presentation_basic():
    p = parse_presentation("gens: a b\nrel: b^-1 a^-1 b^-1 a b a\n")
    assert [g.name for g in p.generators] == ["a", "b"]
    assert p.relators == (word("b^-1 a^-1 b^-1 a b a"),)


def test_parse_presentation_equality_form():
    p = parse_presentation("gens: a b c\nrel: b = c^-1 a c\n")
    assert p.relators == (word("b c^-1 a^-1 c"),)


def test_parse_presentation_free_group():
    p = parse_presentation("gens: a\nrel: \n")
    assert [g.name for g in p.generators] == ["a"]
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


def test_print_parse_round_trip():
    p = Presentation(
        (a, b), (word("b^-1 a^-1 b^-1 a b a"), word("a a b")), label="x"
    )
    assert parse_presentation(print_presentation(p)) == p


@given(st.lists(raw_words, max_size=4))
def test_print_parse_round_trip_random(raws):
    p = Presentation((a, b, c), tuple(reduce(r) for r in raws))
    assert parse_presentation(print_presentation(p)) == p


def test_label_and_names_are_metadata():
    p1 = Presentation((a,), (word("a"),), label="x", relator_names=("first",))
    p2 = Presentation((a,), (word("a"),), label="y")
    assert p1 == p2
    assert p1.relator_name(0) == "first"
    assert p2.relator_name(0) == "relator[0]"
