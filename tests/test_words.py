import pytest

from braidkit.words import (
    BraidWord,
    WordError,
    compose,
    compose_all,
    conjugate,
    delta_word,
    exponent_sum,
    format_word,
    free_reduce,
    generator,
    inverse,
    parse_word,
    underlying_permutation,
)


def test_parse_and_format_round_trip():
    w = parse_word("1 2 -1", 3)
    assert w.letters == ((1, 1), (2, 1), (1, -1))
    assert format_word(w) == "1 2 -1"
    assert str(w) == "1 2 -1"


def test_parse_rejects_bad_tokens():
    with pytest.raises(WordError):
        parse_word("1 x", 3)
    with pytest.raises(WordError):
        parse_word("0", 3)
    with pytest.raises(WordError):
        parse_word("3", 3)
    with pytest.raises(WordError):
        parse_word("1", 1)


def test_constructor_validates_letters():
    with pytest.raises(WordError):
        BraidWord(3, ((3, 1),))
    with pytest.raises(WordError):
        BraidWord(3, ((1, 2),))


def test_parse_does_not_reduce():
    w = parse_word("1 -1", 3)
    assert len(w) == 2
    assert w.letters == ((1, 1), (1, -1))
    assert free_reduce(w).letters == ()


def test_free_reduce_cancels_through():
    w = parse_word("1 2 -2 -1 1", 3)
    assert format_word(free_reduce(w)) == "1"


def test_compose_reduces_at_the_seam():
    u = parse_word("1 2", 3)
    v = parse_word("-2 -1", 3)
    assert compose(u, v).letters == ()
    assert compose_all(3, [u, v, u]) == free_reduce(u)


def test_compose_rejects_mismatched_strands():
    with pytest.raises(WordError):
        compose(parse_word("1", 3), parse_word("1", 4))


def test_inverse():
    w = parse_word("1 2", 3)
    assert format_word(inverse(w)) == "-2 -1"
    assert inverse(BraidWord(3)).letters == ()
    assert format_word(inverse(parse_word("-1", 3))) == "1"


def test_conjugate_direction():
    # x conjugated by g is g^-1 x g.
    x = generator(3, 2)
    g = generator(3, 1)
    assert format_word(conjugate(x, g)) == "-1 2 1"
    assert conjugate(x, BraidWord(3)) == x


def test_exponent_sum():
    assert exponent_sum(parse_word("1 2 -1 -1", 3)) == 0
    assert exponent_sum(delta_word(4)) == 6


def test_underlying_permutation():
    assert underlying_permutation(parse_word("1", 3)) == (1, 0, 2)
    assert underlying_permutation(parse_word("1 -1", 3)) == (0, 1, 2)
    # The half twist reverses the strand order.
    assert underlying_permutation(delta_word(4)) == (3, 2, 1, 0)


def test_delta_word_letters():
    assert format_word(delta_word(3)) == "1 2 1"
    assert format_word(delta_word(2)) == "1"
