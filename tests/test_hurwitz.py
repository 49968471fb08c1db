import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidkit.bands import (
    Factorization,
    band_factorization,
    conjugated_factorization,
    parse_band_word,
    standard_factorization,
)
from braidkit.hurwitz import (
    Move,
    _move_letters,
    apply_move,
    apply_sequence,
    find_path,
    move_from_int,
    move_to_int,
    orbit_explore,
    tuple_key,
)
from braidkit.words import (
    BraidWord,
    InputError,
    compose_all,
    conjugate,
    format_word,
    inverse,
    parse_word,
)


def fact(n, *words):
    return Factorization(n, tuple(parse_word(w, n) for w in words))


def test_move_validation_and_text():
    assert str(Move(2, 1)) == "R2"
    assert str(Move(1, -1)) == "R1^-1"
    with pytest.raises(InputError):
        Move(0, 1)
    with pytest.raises(InputError):
        Move(1, 2)


def test_move_int_encoding():
    assert move_to_int(Move(3, 1)) == 3
    assert move_to_int(Move(2, -1)) == -2
    assert move_from_int(-4) == Move(4, -1)
    assert move_from_int(1) == Move(1, 1)
    with pytest.raises(InputError):
        move_from_int(0)


def test_apply_move_forward():
    f = fact(3, "1", "2")
    out = apply_move(f, Move(1, 1))
    assert [format_word(w) for w in out.factors] == ["1 2 -1", "1"]


def test_apply_move_backward():
    f = fact(3, "1", "2")
    out = apply_move(f, Move(1, -1))
    assert [format_word(w) for w in out.factors] == ["2", "-2 1 2"]


def test_apply_move_passes_untouched_factors_through():
    f = fact(3, "1 2", "-2 -1", "-1", "1 1")
    for m in (Move(1, 1), Move(2, -1), Move(3, 1)):
        out = apply_move(f, m)
        assert out == Factorization(3, out.factors)
        i = m.k - 1
        kept = f.factors[:i] + f.factors[i + 2 :]
        assert all(a is b for a, b in zip(out.factors[:i] + out.factors[i + 2 :], kept))


@st.composite
def factorizations_and_positions(draw):
    """Two to four freely reduced factors on 3-6 strands, and a move position.

    Each factor is drawn around a shared word s or its inverse, so the
    junctions of x y x^-1 and y^-1 x y often cancel.
    """
    n = draw(st.integers(3, 6))
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    shared = BraidWord(n, tuple(draw(st.lists(letter, max_size=4))))
    ends = st.sampled_from((BraidWord(n), shared, inverse(shared)))
    factors = []
    for _ in range(draw(st.integers(2, 4))):
        own = BraidWord(n, tuple(draw(st.lists(letter, max_size=5))))
        factors.append(compose_all(n, (draw(ends), own, draw(ends))))
    f = Factorization(n, tuple(factors))
    return f, draw(st.integers(1, len(f) - 1))


def freely_reduced(w):
    return all(not (a == c and b == -d) for (a, b), (c, d) in zip(w.letters, w.letters[1:]))


@settings(max_examples=300, deadline=None)
@given(factorizations_and_positions())
@example((fact(3, "1 2", "-2 -1 2"), 1))
@example((fact(4, "2", "-3 1", "-1 3 2"), 2))
def test_apply_move_agrees_with_word_arithmetic(case):
    f, k = case
    x, y = f.factors[k - 1], f.factors[k]
    for direction, pair in ((1, (compose_all(f.n, (x, y, inverse(x))), x)),
                            (-1, (y, conjugate(x, y)))):
        out = apply_move(f, Move(k, direction))
        want = f.factors[: k - 1] + pair + f.factors[k + 1 :]
        assert [w.letters for w in out.factors] == [w.letters for w in want]
        assert out.n == f.n and all(w.n == f.n for w in out.factors)
        assert all(freely_reduced(w) for w in out.factors)


def test_move_then_inverse_is_identity():
    f = fact(3, "1 2", "2", "-1")
    for k in (1, 2):
        back = apply_move(apply_move(f, Move(k, 1)), Move(k, -1))
        assert tuple_key(back) == tuple_key(f)
        back = apply_move(apply_move(f, Move(k, -1)), Move(k, 1))
        assert tuple_key(back) == tuple_key(f)


def test_moves_preserve_the_product():
    rng = random.Random(11)
    f = fact(3, "1", "2", "1 1", "-2")
    key = f.product_key
    for _ in range(50):
        f = apply_move(f, Move(rng.randint(1, 3), rng.choice((1, -1))))
        assert f.product_key == key


def test_chain_relation_realized_by_one_move():
    # The pair (a_{3,2}, a_{2,1}) moves to (a_{3,1}, a_{3,2}).
    src = band_factorization(parse_band_word("3:2 2:1", 3))
    dst = band_factorization(parse_band_word("3:1 3:2", 3))
    assert tuple_key(apply_move(src, Move(1, 1))) == tuple_key(dst)


@st.composite
def factorizations(draw):
    """Two to six factors of up to six letters each, on 3-6 strands."""
    n = draw(st.integers(3, 6))
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    words = draw(st.lists(st.lists(letter, max_size=6), min_size=2, max_size=6))
    return Factorization(n, tuple(BraidWord(n, tuple(w)) for w in words))


def letters(f):
    return [w.letters for w in f.factors]


@settings(max_examples=300, deadline=None)
@given(factorizations(), st.data())
def test_moves_act_on_freely_reduced_words_exactly(f, data):
    # The Hurwitz action obeys the braid relations over the free group on
    # the letters, where each element has one freely reduced word, so the
    # move axioms hold letter for letter; verify's action-axioms suite
    # relies on this to skip normal forms.
    sign = st.sampled_from((1, -1))
    k, d = data.draw(st.integers(1, len(f) - 1)), data.draw(sign)
    assert letters(apply_sequence(f, [Move(k, d), Move(k, -d)])) == letters(f)
    if len(f) >= 3:
        k = data.draw(st.integers(1, len(f) - 2))
        lhs = apply_sequence(f, [Move(k, 1), Move(k + 1, 1), Move(k, 1)])
        rhs = apply_sequence(f, [Move(k + 1, 1), Move(k, 1), Move(k + 1, 1)])
        assert letters(lhs) == letters(rhs)
    if len(f) >= 4:
        i = data.draw(st.integers(1, len(f) - 3))
        j = data.draw(st.integers(i + 2, len(f) - 1))
        a, b = Move(i, data.draw(sign)), Move(j, data.draw(sign))
        assert letters(apply_sequence(f, [a, b])) == letters(apply_sequence(f, [b, a]))
    moves = data.draw(st.lists(st.builds(Move, st.integers(1, len(f) - 1), sign), max_size=10))
    moved = apply_sequence(f, moves)
    assert compose_all(f.n, moved.factors).letters == compose_all(f.n, f.factors).letters


def outcome(call):
    """What call returns, or the text of the InputError it raises."""
    try:
        return call()
    except InputError as exc:
        return f"InputError: {exc}"


@settings(max_examples=300, deadline=None)
@given(factorizations(), st.lists(st.builds(Move, st.integers(1, 6), st.sampled_from((1, -1))),
                                  max_size=10))
def test_move_letters_is_the_loop_apply_sequence_wraps(f, moves):
    # Positions up to 6 run past the last pair of most factorizations.
    want = outcome(lambda: letters(apply_sequence(f, moves)))
    assert outcome(lambda: _move_letters(letters(f), moves)) == want


def test_apply_move_position_out_of_range():
    f = fact(3, "1", "2")
    with pytest.raises(InputError, match="move 1 of the sequence: move R2 out of range"):
        apply_move(f, Move(2, 1))


def test_apply_sequence_reports_failing_index():
    f = fact(3, "1", "2")
    with pytest.raises(InputError, match="move 2 of the sequence"):
        apply_sequence(f, [Move(1, 1), Move(5, 1)])


def test_orbit_fixed_point_is_complete_under_any_cap():
    f = fact(2, "1", "1")
    rep = orbit_explore(f, depth_cap=1, size_cap=1)
    assert rep.visited == 1
    assert not rep.truncated
    assert rep.depth_counts == (1,)


def test_orbit_of_a_simple_pair():
    rep = orbit_explore(fact(3, "1", "2"))
    assert rep.visited == 3
    assert not rep.truncated
    assert len(rep.keys) == 3
    assert rep.keys == tuple(sorted(rep.keys))


def test_orbit_size_cap_truncates():
    rep = orbit_explore(standard_factorization(3), size_cap=50)
    assert rep.truncated
    assert rep.visited == 50


def test_orbit_depth_cap_truncates_only_when_blocking():
    rep = orbit_explore(fact(3, "1", "2"), depth_cap=0)
    assert rep.truncated
    assert rep.visited == 1
    # The orbit closes at depth 1, so the same cap one level later is
    # no truncation at all.
    full = orbit_explore(fact(3, "1", "2"), depth_cap=1)
    assert not full.truncated
    assert full.visited == 3


def test_find_path_trivial():
    f = fact(3, "1", "2")
    res = find_path(f, f)
    assert res.status == "found"
    assert res.moves == ()
    assert res.visited == 1


def test_find_path_single_move():
    src = band_factorization(parse_band_word("3:2 2:1", 3))
    dst = band_factorization(parse_band_word("3:1 3:2", 3))
    res = find_path(src, dst)
    assert res.status == "found"
    assert len(res.moves) == 1
    assert tuple_key(apply_sequence(src, res.moves)) == tuple_key(dst)


def test_find_path_not_comparable():
    res = find_path(fact(3, "1", "2"), fact(3, "2", "1"))
    assert res.status == "not_comparable"
    assert res.moves is None


def test_find_path_conclusive_not_found():
    # Same product, but one factorization carries an identity factor and
    # the other does not; conjugates of the identity stay the identity,
    # so the orbits are disjoint and exploration exhausts.
    res = find_path(fact(3, "1 2", ""), fact(3, "1", "2"))
    assert res.status == "not_found"
    assert not res.truncated


def test_find_path_truncated_not_found():
    src = standard_factorization(3)
    dst = conjugated_factorization(3, parse_word("1", 3))
    res = find_path(src, dst, depth_cap=1, size_cap=10)
    assert res.status == "not_found"
    assert res.truncated


def test_find_path_between_full_twist_factorizations():
    src = standard_factorization(3)
    for b in ("1", "2"):
        dst = conjugated_factorization(3, parse_word(b, 3))
        res = find_path(src, dst, depth_cap=8, size_cap=5000)
        assert res.status == "found"
        replay = apply_sequence(src, res.moves)
        assert replay.factor_keys == dst.factor_keys


def test_strand_and_length_mismatch_raise():
    with pytest.raises(InputError):
        find_path(fact(3, "1"), fact(4, "1"))
    with pytest.raises(InputError):
        find_path(fact(3, "1", "2"), fact(3, "1"))
