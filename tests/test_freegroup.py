"""The free-group action used as the second, independent equality route."""

from braidkit.freegroup import (
    action_key,
    free_word_inverse,
    generator_images,
    words_act_equally,
)
from braidkit.words import BraidWord, parse_word


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


def test_inverse_word_undoes_the_action():
    w = parse_word("1 2 -1 2", 3)
    assert words_act_equally(parse_word("1 -1", 3), BraidWord(3))
    images = generator_images(w)
    assert any(im != ((i + 1, 1),) for i, im in enumerate(images))


def test_action_respects_braid_relations():
    assert words_act_equally(parse_word("1 2 1", 3), parse_word("2 1 2", 3))
    assert words_act_equally(parse_word("1 3", 4), parse_word("3 1", 4))
    assert not words_act_equally(parse_word("1 2", 3), parse_word("2 1", 3))


def test_action_key_is_canonical_text():
    k1 = action_key(parse_word("1 2 1", 3))
    k2 = action_key(parse_word("2 1 2", 3))
    assert k1 == k2
    assert action_key(parse_word("1", 3)) != action_key(parse_word("2", 3))
    assert isinstance(k1, str)


def test_action_distinguishes_powers():
    assert not words_act_equally(parse_word("1", 3), parse_word("1 1", 3))
