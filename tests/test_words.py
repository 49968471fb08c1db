import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkit.words import (
    MAX_STRANDS,
    BraidWord,
    InputError,
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
    with pytest.raises(InputError):
        parse_word("1 x", 3)
    with pytest.raises(InputError):
        parse_word("0", 3)
    with pytest.raises(InputError):
        parse_word("3", 3)
    with pytest.raises(InputError):
        parse_word("1", 1)


def test_strand_count_is_bounded():
    assert BraidWord(MAX_STRANDS).n == MAX_STRANDS
    for n in (MAX_STRANDS + 1, 10**21):
        with pytest.raises(InputError, match=f"at most {MAX_STRANDS}, got {n}"):
            BraidWord(n)
        with pytest.raises(InputError, match=f"at most {MAX_STRANDS}, got {n}"):
            parse_word("1", n)


def test_constructor_validates_letters():
    with pytest.raises(InputError):
        BraidWord(3, ((3, 1),))
    with pytest.raises(InputError):
        BraidWord(3, ((1, 2),))


def test_parse_does_not_reduce():
    w = parse_word("1 -1", 3)
    assert len(w) == 2
    assert w.letters == ((1, 1), (1, -1))
    assert free_reduce(w).letters == ()


def test_free_reduce_cancels_through():
    w = parse_word("1 2 -2 -1 1", 3)
    assert format_word(free_reduce(w)) == "1"
    reduced = parse_word("1 2 -1", 3)
    assert free_reduce(reduced) is reduced


def test_compose_reduces_at_the_seam():
    u = parse_word("1 2", 3)
    v = parse_word("-2 -1", 3)
    assert compose(u, v).letters == ()
    assert compose_all(3, [u, v, u]) == free_reduce(u)


def test_compose_rejects_mismatched_strands():
    with pytest.raises(InputError):
        compose(parse_word("1", 3), parse_word("1", 4))


def test_compose_all_matches_stepwise_compose():
    with pytest.raises(InputError):
        compose_all(3, [parse_word("1", 3), parse_word("1", 4)])
    rng = random.Random(2718)
    for _ in range(50):
        n = rng.randint(2, 5)
        factors = [
            BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1)))
                               for _ in range(rng.randint(0, 6))))
            for _ in range(rng.randint(0, 8))
        ]
        stepwise = BraidWord(n)
        for w in factors:
            stepwise = compose(stepwise, w)
        assert compose_all(n, factors) == stepwise


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


@st.composite
def unreduced_words(draw, n):
    """A word on n strands, often with a cancelling pair spliced in."""
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    letters = draw(st.lists(letter, max_size=12))
    if draw(st.booleans()):
        (k, s), i = draw(letter), draw(st.integers(0, len(letters)))
        letters[i:i] = [(k, s), (k, -s)]
    return BraidWord(n, tuple(letters))


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 6).flatmap(lambda n: st.tuples(unreduced_words(n), unreduced_words(n))))
def test_conjugate_is_the_reduced_product_g_inverse_x_g(pair):
    # Free reduction is confluent, so one reduction of the concatenation
    # equals reducing g^-1 first, letter for letter.
    x, g = pair
    assert conjugate(x, g) == compose_all(x.n, (inverse(g), x, g))
    with pytest.raises(InputError, match="strand counts differ"):
        conjugate(x, BraidWord(x.n + 1, g.letters))


def test_exponent_sum():
    assert exponent_sum(parse_word("1 2 -1 -1", 3)) == 0
    assert exponent_sum(delta_word(4)) == 6


def test_underlying_permutation():
    assert underlying_permutation(parse_word("1", 3)) == (1, 0, 2)
    assert underlying_permutation(parse_word("1 -1", 3)) == (0, 1, 2)
    # The half twist reverses the strand order.
    assert underlying_permutation(delta_word(4)) == (3, 2, 1, 0)
    # The left letter acts first: 0 -> 1 under sigma_1, then 1 -> 2 under sigma_2.
    assert underlying_permutation(parse_word("1 2", 3)) == (2, 0, 1)


def test_underlying_permutation_is_the_product_of_transpositions():
    rng = random.Random(23)
    for n in range(2, 10):
        for _ in range(40):
            w = BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1)))
                                   for _ in range(rng.randint(0, 30))))
            p = tuple(range(n))
            for index, _ in w.letters:
                t = list(range(n))
                t[index - 1], t[index] = index, index - 1
                p = tuple(t[v] for v in p)  # p first, then t
            assert underlying_permutation(w) == p


def test_delta_word_letters():
    assert format_word(delta_word(3)) == "1 2 1"
    assert format_word(delta_word(2)) == "1"
