import pytest

from braidkit import bands
from braidkit.bands import (
    BandGenerator,
    BandWord,
    Factorization,
    PairClass,
    all_generators,
    band_factorization,
    classify_pair,
    conjugated_factorization,
    delta_squared_word,
    expand,
    expand_word,
    is_central,
    parse_band_word,
    standard_band_word,
    standard_factorization,
)
from braidkit.normalform import canonical_key, equal
from braidkit.words import (
    MAX_STRANDS,
    BraidWord,
    InputError,
    exponent_sum,
    format_word,
    generator,
    parse_word,
    underlying_permutation,
)


def g(n, t, s):
    return BandGenerator(n, t, s)


def test_generator_validation():
    g(5, 4, 2)
    with pytest.raises(InputError):
        g(3, 2, 2)
    with pytest.raises(InputError):
        g(3, 1, 2)
    with pytest.raises(InputError):
        g(3, 4, 1)
    with pytest.raises(InputError):
        g(3, 2, 0)


def test_all_generators_count_and_order():
    gens = all_generators(4)
    assert len(gens) == 6
    assert [str(a) for a in gens] == ["2:1", "3:1", "3:2", "4:1", "4:2", "4:3"]


def test_parse_and_format():
    w = parse_band_word("3:1 2:1", 3)
    assert len(w) == 2
    assert str(w) == "3:1 2:1"
    with pytest.raises(InputError):
        parse_band_word("31", 3)
    with pytest.raises(InputError):
        parse_band_word("3:x", 3)
    with pytest.raises(InputError):
        parse_band_word("4:1", 3)


def test_band_word_rejects_foreign_letters():
    with pytest.raises(InputError):
        BandWord(4, (g(3, 2, 1),))


def test_expand_adjacent_band_is_a_single_artin_letter():
    assert format_word(expand(g(3, 2, 1))) == "1"
    assert format_word(expand(g(5, 4, 3))) == "3"


def test_expand_general_band():
    assert format_word(expand(g(3, 3, 1))) == "2 1 -2"
    assert format_word(expand(g(5, 5, 2))) == "4 3 2 -3 -4"


def test_expand_word_concatenates_and_reduces():
    w = parse_band_word("3:2 2:1", 3)
    assert format_word(expand_word(w)) == "2 1"
    assert expand_word(BandWord(3)).letters == ()


def test_expansion_exponent_sum_equals_length():
    for n in (3, 4, 5):
        for a in all_generators(n):
            assert exponent_sum(expand(a)) == 1


@pytest.mark.parametrize(
    "x, y, expected",
    [
        ((3, 2), (2, 1), PairClass.CHAIN_A),
        ((3, 1), (3, 2), PairClass.CHAIN_B),
        ((2, 1), (3, 1), PairClass.CHAIN_C),
        ((2, 1), (4, 3), PairClass.COMMUTING),
        ((4, 3), (2, 1), PairClass.COMMUTING),
        ((3, 1), (4, 2), PairClass.INTERLEAVED),
        ((4, 2), (3, 1), PairClass.INTERLEAVED),
        ((2, 1), (2, 1), PairClass.INTERLEAVED),
        ((2, 1), (3, 2), PairClass.INTERLEAVED),
        ((3, 2), (3, 1), PairClass.INTERLEAVED),
        ((3, 1), (2, 1), PairClass.INTERLEAVED),
    ],
)
def test_classify_pair(x, y, expected):
    assert classify_pair(g(4, *x), g(4, *y)) is expected


def test_classify_pair_rejects_a_strand_mismatch():
    with pytest.raises(InputError, match="strand counts differ: 4 vs 5"):
        classify_pair(g(4, 2, 1), g(5, 2, 1))


def test_nested_pairs_commute():
    # One band strictly inside the other.
    assert classify_pair(g(5, 5, 1), g(5, 3, 2)) is PairClass.COMMUTING
    assert classify_pair(g(5, 3, 2), g(5, 5, 1)) is PairClass.COMMUTING


def test_chain_relation_on_expansions_directly():
    # a_{3,2} a_{2,1} = a_{3,1} a_{3,2} = a_{2,1} a_{3,1} in B_3.
    a32, a21, a31 = expand(g(3, 3, 2)), expand(g(3, 2, 1)), expand(g(3, 3, 1))
    lhs = expand_word(parse_band_word("3:2 2:1", 3))
    assert equal(lhs, expand_word(parse_band_word("3:1 3:2", 3)))
    assert equal(lhs, expand_word(parse_band_word("2:1 3:1", 3)))
    assert equal(a32, a32) and equal(a21, a21) and equal(a31, a31)


def test_delta_squared_word():
    assert format_word(delta_squared_word(2)) == "1 1"
    assert format_word(delta_squared_word(3)) == "1 2 1 2 1 2"
    for n in range(2, 7):
        assert exponent_sum(delta_squared_word(n)) == n * (n - 1)


def test_is_central():
    for n in (2, 3, 4):
        assert is_central(delta_squared_word(n))
    assert is_central(BraidWord(3))
    assert not is_central(parse_word("1", 3))


def test_factorization_reduces_factors_and_keys():
    reduced = parse_word("1", 3)
    f = Factorization(3, (parse_word("1 -1 2", 3), reduced))
    assert format_word(f.factors[0]) == "2"
    assert f.factors[1] is reduced
    assert f.product_key == canonical_key(parse_word("2 1", 3))
    assert len(f.factor_keys) == 2


def test_band_factorization_validates_each_distinct_expansion_once(monkeypatch):
    # Factorization keeps the reduced expansions as they are: 7 distinct
    # letters at 8 strands, so 7 words checked, not one per factor.
    checked = []
    real = BraidWord.__post_init__

    def counted(self):
        checked.append(self)
        real(self)

    w = standard_band_word(8)
    monkeypatch.setattr(BraidWord, "__post_init__", counted)
    f = band_factorization(w)
    assert (len(f), len(checked)) == (56, 7)


def test_factorization_rejects_strand_mismatch():
    with pytest.raises(InputError):
        Factorization(3, (parse_word("1", 4),))


def test_factorization_needs_two_strands():
    for n in (0, 1):
        with pytest.raises(InputError):
            Factorization(n, ())


def test_band_word_needs_two_strands():
    for n in (0, 1):
        with pytest.raises(InputError):
            BandWord(n)
        with pytest.raises(InputError):
            parse_band_word("", n)


def test_standard_band_word_checks_strands_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(bands, "BandGenerator", lambda *args: built.append(args))
    with pytest.raises(InputError):
        standard_band_word(MAX_STRANDS + 1)
    assert built == []


def test_band_factorization():
    f = band_factorization(parse_band_word("3:1 2:1", 3))
    assert [format_word(w) for w in f.factors] == ["2 1 -2", "1"]


def test_standard_factorization():
    f = standard_factorization(3)
    assert len(f) == 6
    assert [format_word(w) for w in f.factors] == ["1", "2", "1", "2", "1", "2"]
    assert f.product_key == canonical_key(delta_squared_word(3))


def test_conjugated_factorization():
    f = conjugated_factorization(3, generator(3, 1))
    assert [format_word(w) for w in f.factors] == ["1", "-1 2 1"] * 3
    assert f.product_key == canonical_key(delta_squared_word(3))
    assert conjugated_factorization(3, BraidWord(3)) == standard_factorization(3)


def test_conjugated_factorization_rejects_a_conjugator_on_other_strands():
    with pytest.raises(InputError, match="conjugator strand count 4, expected 3"):
        conjugated_factorization(3, generator(4, 1))


def test_conjugated_product_is_central_for_longer_conjugators():
    b = parse_word("1 2", 3)
    f = conjugated_factorization(3, b)
    assert f.product_key == canonical_key(delta_squared_word(3))


def test_factorization_factors_are_half_twists():
    for f in (
        standard_factorization(4),
        conjugated_factorization(4, parse_word("2 -3", 4)),
    ):
        for w in f.factors:
            # Necessary, not sufficient: exponent sum 1, and a permutation
            # that moves exactly two points, so swaps them.
            assert exponent_sum(w) == 1
            assert sum(v != i for i, v in enumerate(underlying_permutation(w))) == 2
