"""Garside left-greedy normal form: the primary word-problem oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkit import perms
from braidkit.freegroup import words_act_equally
from braidkit.normalform import (
    NormalForm,
    _left_weighted,
    canonical_key,
    equal,
    normal_form,
    to_word,
)
from braidkit.words import (
    BraidWord,
    compose,
    conjugate,
    delta_word,
    generator,
    inverse,
    parse_word,
)


def test_identity_word():
    nf = normal_form(BraidWord(3))
    assert nf.delta_power == 0
    assert nf.factors == ()
    assert nf.canonical_length == 0


def test_half_twist_absorbs_into_delta_power():
    nf = normal_form(delta_word(4))
    assert nf.delta_power == 1
    assert nf.factors == ()
    for n in (3, 4, 5):
        assert normal_form(inverse(delta_word(n))) == NormalForm(n, -1, ())


def test_single_generator():
    nf = normal_form(parse_word("1", 3))
    assert nf.delta_power == 0
    assert nf.factors == (perms.transposition(3, 0),)
    assert nf.inf == 0 and nf.sup == 1


def test_cancelling_pair_normalizes_to_identity():
    nf = normal_form(parse_word("1 -1", 3))
    assert nf.delta_power == 0 and nf.factors == ()
    nf = normal_form(parse_word("-2 2", 3))
    assert nf.delta_power == 0 and nf.factors == ()


def test_negative_generator():
    nf = normal_form(parse_word("-1", 3))
    assert nf.delta_power == -1
    assert len(nf.factors) == 1
    assert equal(to_word(nf), parse_word("-1", 3))


def test_factors_are_left_weighted():
    # sigma1 sigma1 cannot merge into one permutation braid.
    nf = normal_form(parse_word("1 1", 3))
    assert nf.delta_power == 0
    assert nf.factors == (perms.transposition(3, 0), perms.transposition(3, 0))
    for a, b in zip(nf.factors, nf.factors[1:]):
        # Left-weighted: the finishing set of a contains the starting set of b.
        assert perms.left_descents(b) <= perms.right_descents(a)


def test_equal_on_relations():
    assert equal(parse_word("1 2 1", 3), parse_word("2 1 2", 3))
    assert equal(parse_word("1 3", 4), parse_word("3 1", 4))
    assert not equal(parse_word("1", 3), parse_word("2", 3))
    assert not equal(parse_word("1 2", 3), parse_word("2 1", 3))


def test_equal_distinguishes_strand_counts():
    # No inclusion map is applied: the same letters on different strand
    # counts are different braids and the keys embed n.
    assert not equal(parse_word("1", 3), parse_word("1", 4))


def test_canonical_key_format_and_stability():
    w = parse_word("1 -2 1", 3)
    key = canonical_key(w)
    n, power, body = key.split(":")
    assert n == "3"
    assert int(power) == normal_form(w).delta_power
    assert key == canonical_key(parse_word("1 -2 1", 3))


def test_to_word_round_trips():
    rng = random.Random(7)
    for _ in range(150):
        letters = tuple(
            (rng.randint(1, 3), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))
        )
        w = BraidWord(4, letters)
        assert equal(w, to_word(normal_form(w)))


def test_delta_conjugation_flips_generators():
    for n in (3, 4, 5):
        d = delta_word(n)
        for i in range(1, n):
            assert equal(conjugate(generator(n, i), d), generator(n, n - i))


def test_agrees_with_the_action_oracle_on_random_pairs():
    rng = random.Random(41)
    words = []
    for _ in range(60):
        letters = tuple(
            (rng.randint(1, 2), rng.choice((1, -1))) for _ in range(rng.randint(0, 7))
        )
        words.append(BraidWord(3, letters))
    for u in words[:30]:
        for v in words[30:]:
            assert equal(u, v) == words_act_equally(u, v)


def test_key_separates_known_distinct_braids():
    pairs = [
        ("1", "-1"),
        ("1 2", "2 1"),
        ("1 1 2", "1 2 2"),
    ]
    for a, b in pairs:
        assert canonical_key(parse_word(a, 3)) != canonical_key(parse_word(b, 3))


def test_inverse_word_has_opposite_key_behavior():
    w = parse_word("1 2 -1 2 2", 3)
    assert equal(compose(w, inverse(w)), BraidWord(3))


@st.composite
def braid_words(draw):
    n = draw(st.integers(2, 8))
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=150))))


def assert_normal(nf):
    identity, w0 = perms.identity(nf.n), perms.longest(nf.n)
    for f in nf.factors:
        assert f not in (identity, w0)
    for a, b in zip(nf.factors, nf.factors[1:]):
        assert perms.left_descents(b) <= perms.right_descents(a)


@settings(max_examples=300, deadline=None)
@given(braid_words())
def test_normal_form_is_left_weighted_and_spells_the_braid(w):
    nf = normal_form(w)
    assert_normal(nf)
    assert words_act_equally(to_word(nf), w)


def test_long_word_normal_form_completes():
    rng = random.Random(800)
    w = BraidWord(4, tuple((rng.randint(1, 3), rng.choice((1, -1))) for _ in range(800)))
    nf = normal_form(w)
    assert_normal(nf)
    assert normal_form(to_word(nf)) == nf


def one_factor_per_letter(w):
    """The earlier construction, kept as a reference for the chunked one.

    Every letter is its own simple factor.  sigma_i^-1 borrows its own
    Delta^-1, leaving w0 with values i-1, i exchanged, and a letter with
    an odd number of negative letters to its right is read at n - i.
    """
    n = w.n
    w0 = perms.longest(n)
    right = sum(sign < 0 for _, sign in w.letters)
    power = -right
    pairs = []
    for index, sign in w.letters:
        right -= sign < 0
        t = perms.transposition(n, n - index - 1 if right % 2 else index - 1)
        f = t if sign > 0 else perms.compose(w0, t)
        pairs.append((list(f), list(perms.inverse(f))))
    factors = _left_weighted(pairs, n)
    while factors and factors[0] == w0:
        factors.pop(0)
        power += 1
    return NormalForm(n, power, tuple(factors))


@st.composite
def biased_words(draw):
    # A sign bias drawn per word makes long runs of one sign, so chunks
    # grow long and their count to the right takes both parities.
    n = draw(st.integers(2, 10))
    bias = draw(st.floats(0, 1))
    drawn = draw(st.lists(st.tuples(st.integers(1, n - 1), st.floats(0, 1)), max_size=200))
    return BraidWord(n, tuple((i, 1 if f < bias else -1) for i, f in drawn))


@settings(max_examples=300, deadline=None)
@given(biased_words())
def test_chunked_normal_form_matches_one_factor_per_letter(w):
    assert normal_form(w) == one_factor_per_letter(w)


@pytest.mark.parametrize("n, text", [
    (4, "1 2 1 3 2 1"),  # Delta as one positive chunk
    (4, "-1 -2 -1 -3 -2 -1"),  # Delta^-1 as one negative chunk
    (3, "1 1"),  # the second sigma1 starts a new chunk
    (3, "-1 -2 -1"),
    (3, "-1 -1"),
    (4, "2 -1 -3 1"),  # sigma2 is mirrored: one negative chunk of two letters
    (4, "1 -2 -3 2 -1"),  # sigma1 is not: two negative chunks follow it
    (4, "2 -1 3 -2 -3 1"),
    (5, "1 2 -4 -3 -4 3 -1 -1 2 -2 -4"),
    (2, "1 -1 -1 1 1 -1"),
])
def test_chunked_normal_form_on_pinned_words(n, text):
    w = parse_word(text, n)
    assert normal_form(w) == one_factor_per_letter(w)
