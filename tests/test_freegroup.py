"""The second, independent equality route, and its free-group reference.

`braidkit.freegroup` decides equality by Dynnikov coordinates; the
free-group images in `freegroup_reference` are exponential in the word
length and serve as a check on short words.
"""

import random

import pytest
from freegroup_reference import free_word_inverse, generator_images
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkit.bands import delta_squared_word
from braidkit.freegroup import action_key, dynnikov_coordinates, words_act_equally
from braidkit.normalform import canonical_key, equal
from braidkit.words import BraidWord, InputError, inverse, parse_word


def test_free_word_inverse():
    assert free_word_inverse(((1, 1), (2, -1))) == ((2, 1), (1, -1))
    assert free_word_inverse(()) == ()


def test_generator_images_of_sigma1():
    x1, x2, x3 = generator_images(parse_word("1", 3))
    assert x1 == ((1, 1), (2, 1), (1, -1))
    assert x2 == ((1, 1),)
    assert x3 == ((3, 1),)


def test_generator_images_of_sigma1_inverse():
    x1, x2, x3 = generator_images(parse_word("-1", 3))
    assert x1 == ((2, 1),)
    assert x2 == ((2, -1), (1, 1), (2, 1))
    assert x3 == ((3, 1),)


def test_identity_word_acts_trivially():
    images = generator_images(BraidWord(4))
    assert images == (((1, 1),), ((2, 1),), ((3, 1),), ((4, 1),))
    assert dynnikov_coordinates(BraidWord(4)) == (0, 1, 0, 1, 0, 1, 0, 1)


def test_coordinates_of_single_letters():
    assert dynnikov_coordinates(parse_word("1", 3)) == (1, 0, 0, 2, 0, 1)
    assert dynnikov_coordinates(parse_word("-1", 3)) == (-1, 0, 0, 2, 0, 1)
    assert dynnikov_coordinates(parse_word("2", 3)) == (0, 1, 1, 0, 0, 2)


def test_full_twist_moves_the_trivial_lamination():
    for n in range(3, 9):
        assert dynnikov_coordinates(delta_squared_word(n)) != dynnikov_coordinates(BraidWord(n))


def test_inverse_word_undoes_the_action():
    w = parse_word("1 2 -1 2", 3)
    assert words_act_equally(parse_word("1 -1", 3), BraidWord(3))
    assert not words_act_equally(w, BraidWord(3))
    assert words_act_equally(BraidWord(3, w.letters + inverse(w).letters), BraidWord(3))


def test_action_respects_braid_relations():
    assert words_act_equally(parse_word("1 2 1", 3), parse_word("2 1 2", 3))
    assert words_act_equally(parse_word("1 3", 4), parse_word("3 1", 4))
    assert not words_act_equally(parse_word("1 2", 3), parse_word("2 1", 3))


def test_words_on_different_strands_are_not_compared():
    with pytest.raises(InputError, match="strand counts differ: 3 vs 4"):
        words_act_equally(parse_word("1", 3), parse_word("1", 4))


def test_action_key_is_canonical_text():
    k1 = action_key(parse_word("1 2 1", 3))
    k2 = action_key(parse_word("2 1 2", 3))
    assert k1 == k2
    assert action_key(parse_word("1", 3)) != action_key(parse_word("2", 3))
    assert isinstance(k1, str)


def test_action_distinguishes_powers():
    assert not words_act_equally(parse_word("1", 3), parse_word("1 1", 3))


def _disguise(rng, n: int, letters: list, edits: int) -> list:
    """Free insertions, inserted braid relators and far swaps: same braid."""
    w = list(letters)
    for _ in range(edits):
        at = rng.randint(0, len(w))
        i, e = rng.randint(1, n - 1), rng.choice((1, -1))
        kind = rng.randrange(3)
        if kind == 0:
            w[at:at] = [(i, e), (i, -e)]
        elif kind == 1 and i < n - 1:
            w[at:at] = [(i, e), (i + 1, e), (i, e), (i + 1, -e), (i, -e), (i + 1, -e)]
        else:
            spots = [k for k in range(len(w) - 1) if abs(w[k][0] - w[k + 1][0]) >= 2]
            if spots:
                k = rng.choice(spots)
                w[k], w[k + 1] = w[k + 1], w[k]
    return w


@st.composite
def word_pairs(draw):
    """Equal, pure-commutator and exponent-flipped pairs of known verdict."""
    n = draw(st.integers(3, 8))
    length = draw(st.one_of(st.integers(1, 10), st.integers(50, 500)))
    kind = draw(st.sampled_from(("equal", "pure", "exponent")))
    rng = draw(st.randoms(use_true_random=False))
    u = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)]
    base = list(u)
    if kind == "pure":
        i, at = rng.randint(1, n - 2), rng.randint(0, length)
        base[at:at] = [(i, 1), (i + 1, 1), (i + 1, 1), (i, -1), (i + 1, -1), (i + 1, -1)]
    elif kind == "exponent":
        k = rng.randrange(length)
        base[k] = (base[k][0], -base[k][1])
    v = _disguise(rng, n, base, max(2, length // 10))
    return BraidWord(n, tuple(u)), BraidWord(n, tuple(v)), kind


@settings(max_examples=150, deadline=None)
@given(word_pairs())
def test_coordinates_agree_with_the_normal_form(pair):
    u, v, kind = pair
    verdict = words_act_equally(u, v)
    same_key = canonical_key(u) == canonical_key(v)
    assert verdict == equal(u, v) == same_key == (kind == "equal")
    if len(u) <= 10:
        assert verdict == (generator_images(u) == generator_images(v))


def test_long_words_through_both_routes():
    # A route exponential in the word length could not finish these
    # 2,000-letter pairs.  `equal` decides the pure and the flipped pair
    # from strand-pair crossing counts alone, so the canonical keys are
    # compared too, keeping normal forms in the run.
    rng = random.Random(2002)
    n, length = 8, 2000
    u = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)]
    # Equal: braid relators s_i s_{i+1} s_i (s_{i+1} s_i s_{i+1})^-1 inserted.
    v = list(u)
    for _ in range(20):
        i, at = rng.randint(1, n - 2), rng.randint(0, len(v))
        v[at:at] = [(i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1)]
    # Unequal: the nontrivial pure braid s_3 s_4^2 s_3^-1 s_4^-2 inserted.
    w = list(u)
    at = rng.randint(0, length)
    w[at:at] = [(3, 1), (4, 1), (4, 1), (3, -1), (4, -1), (4, -1)]
    # Unequal: one letter flipped, so the exponent sums differ by 2.
    x = list(u)
    at = rng.randrange(length)
    x[at] = (x[at][0], -x[at][1])
    a = BraidWord(n, tuple(u))
    for other, expected in ((v, True), (w, False), (x, False)):
        b = BraidWord(n, tuple(other))
        verdicts = (words_act_equally(a, b), equal(a, b), canonical_key(a) == canonical_key(b))
        assert verdicts == (expected,) * 3, len(other)
