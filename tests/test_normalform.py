"""Garside left-greedy normal form: the primary word-problem oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkit import normalform
from braidkit.freegroup import words_act_equally
from braidkit.normalform import (
    NormalForm,
    _crossings,
    _transfer,
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
    format_word,
    free_reduce,
    generator,
    inverse,
    parse_word,
    underlying_permutation,
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
    assert nf.factors == ((1, 0, 2),)
    assert nf.delta_power == 0 and len(nf.factors) == 1


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
    assert nf.factors == ((1, 0, 2), (1, 0, 2))
    assert_normal(nf)


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


def smallest_start_letters(p):
    """The reference spelling: strip the smallest start of p until none is left."""
    q, letters = list(p), []
    while starts(q):
        i = min(starts(q))
        q[i], q[i + 1] = q[i + 1], q[i]
        letters.append((i + 1, 1))
    return letters


@pytest.mark.parametrize("n", range(2, 7))
def test_to_word_spells_every_permutation_braid(n):
    for p in itertools.permutations(range(n)):
        w = to_word(NormalForm(n, 0, (p,)))
        assert list(w.letters) == smallest_start_letters(p)
        # A permutation braid crosses each inverted pair of strands once.
        assert underlying_permutation(w) == p
        assert len(w) == sum(a > b for a, b in itertools.combinations(p, 2))


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
    # Most of these pairs differ in permutation or strand-pair crossing
    # counts (the image in B_n/[P_n, P_n]), which decides `equal` before
    # any normal form; the keys keep the normal form under test.
    for u in words[:30]:
        for v in words[30:]:
            assert (canonical_key(u) == canonical_key(v)) == words_act_equally(u, v) == equal(u, v)


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


def letters_on(n):
    return st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=150)


@st.composite
def braid_words(draw, strands=(2, 8)):
    n = draw(st.integers(*strands))
    return BraidWord(n, tuple(draw(letters_on(n))))


def inverted(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return out


def starts(p):
    """The starting set of a permutation braid: the letters it can begin with."""
    return {i for i in range(len(p) - 1) if p[i] > p[i + 1]}


def assert_normal(nf):
    identity, w0 = tuple(range(nf.n)), tuple(range(nf.n - 1, -1, -1))
    for f in nf.factors:
        assert f not in (identity, w0)
    for a, b in zip(nf.factors, nf.factors[1:]):
        # Left weighted: the finishing set of a contains the starting set of b.
        assert starts(b) <= starts(inverted(a))


@settings(max_examples=300, deadline=None)
@given(braid_words())
def test_normal_form_is_left_weighted_and_spells_the_braid(w):
    nf = normal_form(w)
    assert_normal(nf)
    assert words_act_equally(to_word(nf), w)


@st.composite
def word_pairs(draw, strands=(2, 8)):
    """Equal, one-letter-flipped, reordered, unrelated and cross-strand pairs."""
    u = draw(braid_words(strands))
    n, letters = u.n, list(u.letters)
    kind = draw(st.sampled_from(("equal", "flipped", "swapped", "unrelated", "strands")))
    if kind == "strands":
        return u, BraidWord(n + 1, u.letters)
    if kind == "unrelated":
        return u, BraidWord(n, tuple(draw(letters_on(n))))
    if kind == "equal":
        # A free pair changes the length but neither the braid nor the sum.
        i, e = draw(st.integers(1, n - 1)), draw(st.sampled_from((1, -1)))
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = [(i, e), (i, -e)]
    elif len(letters) >= 2:
        k = draw(st.integers(0, len(letters) - 2))
        if kind == "flipped":
            letters[k] = (letters[k][0], -letters[k][1])
        else:
            letters[k], letters[k + 1] = letters[k + 1], letters[k]
    return u, BraidWord(n, tuple(letters))


@settings(max_examples=300, deadline=None)
@given(word_pairs())
def test_equal_decides_as_the_canonical_keys_do(pair):
    u, v = pair
    assert equal(u, v) == (canonical_key(u) == canonical_key(v))


@settings(max_examples=300, deadline=None)
@given(word_pairs(strands=(3, 6)), st.data())
def test_equal_cancels_common_ends_exactly(pair, data):
    # Free reduction can join p or s to a or b, so what `equal` strips
    # need not be p and s.
    a, b = pair
    p, s = (tuple(data.draw(letters_on(a.n))) for _ in range(2))
    u, v = BraidWord(a.n, p + a.letters + s), BraidWord(b.n, p + b.letters + s)
    assert equal(u, v) == (canonical_key(a) == canonical_key(b))


@pytest.mark.parametrize("u, v, expected", [
    # A suffix scan that ran into the prefix would take the one letter of
    # the short word twice: it would leave "1 1" and "1" nothing, and
    # leave s2 s1 s2^-1 s1^-1 s2^-1, which is s1^-1, against nothing.
    ("1 1", "1", False),
    ("1 2", "1 2 1 -1", True),
    ("1", "1 2 -2", True),
    ("1 2 1 -2 -1 -2 1", "1", True),
])
def test_equal_never_cancels_a_letter_twice(u, v, expected):
    assert equal(parse_word(u, 3), parse_word(v, 3)) is expected
    assert equal(parse_word(v, 3), parse_word(u, 3)) is expected


@pytest.fixture
def normal_forms(monkeypatch):
    """The words whose normal form is computed, with the key cache cleared.

    Every normal form starts by cutting the word into chunks, in
    `normal_form` and in `equal` alike.
    """
    calls = []
    real = normalform._chunks

    def counted(n, letters):
        calls.append(BraidWord(n, letters))
        return real(n, letters)

    normalform._cached_key.cache_clear()
    monkeypatch.setattr(normalform, "_chunks", counted)
    return calls


@pytest.mark.parametrize("u, v", [
    ("1 2", "1 -2"),
    # A pure commutator: exponent sum 0 and trivial permutation, but
    # strands 1, 3 cross twice more and strands 2, 3 twice less.
    ("1 2 2 -1 -2 -2", ""),
], ids=["exponent-sum", "pure-commutator"])
def test_equal_skips_the_normal_form_when_crossing_counts_differ(normal_forms, u, v):
    assert not equal(parse_word(u, 3), parse_word(v, 3))
    assert len(normal_forms) == 0
    assert equal(parse_word("1 2 1", 3), parse_word("2 1 2", 3))
    assert len(normal_forms) == 2


def test_equal_computes_no_normal_form_for_a_free_pair(normal_forms):
    u = parse_word("1 2 -3 2 1", 4)
    assert equal(u, parse_word("1 2 -3 3 -3 2 1", 4))
    assert equal(parse_word("-1 1 1 2 -3 2 1", 4), u)
    assert normal_forms == []


def test_equal_normalizes_only_where_the_words_differ(normal_forms):
    # Positive words: nothing cancels, so only the middles differ.
    p, s = "1 2 3 " * 10, " 3 2 1" * 10
    assert equal(parse_word(p + "1 2 1" + s, 4), parse_word(p + "2 1 2" + s, 4))
    assert [format_word(w) for w in normal_forms] == ["1 2 1", "2 1 2"]


def test_crossings_of_a_pure_commutator():
    labels, counts = _crossings(parse_word("1 2 2 -1 -2 -2", 3))
    assert labels == [0, 1, 2]
    assert {(a, b): counts[a * 3 + b] for a, b in itertools.combinations(range(3), 2)} == {
        (0, 1): 0, (0, 2): 2, (1, 2): -2,
    }


def by_position(w):
    """A wrong invariant kept to show the tests can fail: crossings by position."""
    counts = [0] * w.n
    for index, s in w.letters:
        counts[index - 1] += s
    return underlying_permutation(w), counts


def test_crossings_follow_strands_not_positions():
    # Each of the three strand pairs crosses once on either side of the
    # braid relation, but positions 1 and 2 see two and one crossings.
    u, v = parse_word("1 2 1", 3), parse_word("2 1 2", 3)
    assert _crossings(u) == _crossings(v)
    assert by_position(u) != by_position(v)


def relators(n):
    """Words equal to the identity: braid relations, far commutations, free pairs."""
    out = []
    for i in range(1, n):
        for e in (1, -1):
            out.append([(i, e), (i, -e)])
            if i + 1 < n:
                out.append([(i, e), (i + 1, e), (i, e), (i + 1, -e), (i, -e), (i + 1, -e)])
            for j in range(i + 2, n):
                out.append([(i, e), (j, 1), (i, -e), (j, -1)])
    return out


@st.composite
def disguised_pairs(draw):
    """A word and the same braid with relators inserted, maybe freely reduced."""
    n = draw(st.integers(2, 8))
    u = tuple(draw(letters_on(n)))
    letters = list(u)
    for _ in range(draw(st.integers(1, 6))):
        r = draw(st.sampled_from(relators(n)))
        # A cyclic rotation of a relator is a conjugate of it, also trivial.
        k = draw(st.integers(0, len(r) - 1))
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = r[k:] + r[:k]
    if draw(st.booleans()):
        letters = free_reduce(BraidWord(n, tuple(letters))).letters
    return BraidWord(n, u), BraidWord(n, tuple(letters))


@settings(max_examples=300, deadline=None)
@given(disguised_pairs())
def test_relations_and_free_cancellation_keep_the_crossings(pair):
    u, v = pair
    assert _crossings(u) == _crossings(v)


@settings(max_examples=300, deadline=None)
@given(st.one_of(word_pairs(), disguised_pairs()))
def test_equal_keys_have_equal_crossings(pair):
    u, v = pair
    if canonical_key(u) == canonical_key(v):
        assert _crossings(u) == _crossings(v)


def test_long_word_normal_form_completes():
    rng = random.Random(800)
    w = BraidWord(4, tuple((rng.randint(1, 3), rng.choice((1, -1))) for _ in range(800)))
    nf = normal_form(w)
    assert_normal(nf)
    assert normal_form(to_word(nf)) == nf


def walk_without_extraction(pairs, n):
    """Thurston's leftward walk with every factor kept, w0 ones too.

    A reference for `_left_weighted`, which takes each w0 out as it forms:
    here a Delta reaches the front one factor at a time.
    """
    identity = list(range(n))
    facs, invs = [], []
    for p, pi in pairs:
        facs.append(p)
        invs.append(pi)
        k = len(facs) - 1
        while k and _transfer(facs[k - 1], invs[k - 1], facs[k], invs[k]):
            k -= 1
        while facs and facs[-1] == identity:
            facs.pop()
            invs.pop()
    return [tuple(f) for f in facs]


def one_factor_per_letter(w):
    """A reference for the chunked construction with Delta extraction.

    Every letter is its own simple factor.  sigma_i^-1 borrows its own
    Delta^-1, leaving w0 with values i-1, i exchanged, and a letter with
    an odd number of negative letters to its right is read at n - i.
    The walk keeps every factor, and w0 factors are stripped from the
    front at the end.
    """
    n = w.n
    w0 = tuple(range(n - 1, -1, -1))
    right = sum(sign < 0 for _, sign in w.letters)
    power = -right
    pairs = []
    for index, sign in w.letters:
        right -= sign < 0
        i = n - index - 1 if right % 2 else index - 1
        # Both the identity and w0 are their own inverses; exchanging
        # values i, i+1 of a factor swaps positions i, i+1 of its inverse.
        fi = list(w0 if sign < 0 else range(n))
        fi[i], fi[i + 1] = fi[i + 1], fi[i]
        pairs.append((inverted(fi), fi))
    factors = walk_without_extraction(pairs, n)
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


@st.composite
def long_biased_words(draw):
    # Drawn lists stay far below a large max_size, so the length is
    # drawn outright and the letters come from a drawn seed.
    n = draw(st.integers(2, 8))
    length = draw(st.integers(0, 1000))
    bias = draw(st.floats(0, 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return BraidWord(n, tuple(
        (rng.randint(1, n - 1), 1 if rng.random() < bias else -1) for _ in range(length)
    ))


@settings(max_examples=300, deadline=None)
@given(biased_words())
def test_chunked_normal_form_matches_one_factor_per_letter(w):
    assert normal_form(w) == one_factor_per_letter(w)


@settings(max_examples=40, deadline=None)
@given(long_biased_words())
def test_long_normal_forms_match_one_factor_per_letter(w):
    # Long words take many Deltas out of the walk, at factors that a
    # later walk reaches again.
    assert normal_form(w) == one_factor_per_letter(w)


@pytest.mark.parametrize("n", [4, 8])
def test_left_weighting_is_linear_in_word_length(monkeypatch, n):
    # Without Delta extraction each Delta walks to the front through
    # every factor: about 90 pair steps per letter at n=4, L=3,200.
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    real = normalform._transfer
    monkeypatch.setattr(normalform, "_transfer", counted)
    for length in (400, 3200):
        rng = random.Random(n * length)
        w = BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)))
        calls = 0
        normal_form(w)
        assert calls <= 5 * length, (length, calls / length)


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
