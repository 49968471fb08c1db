import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidkit import rewriting, verify
from braidkit.bands import BandWord, all_generators, band_factorization, expand_word, parse_band_word
from braidkit.hurwitz import Move, ReplayError, apply_move, apply_sequence
from braidkit.normalform import equal
from braidkit.rewriting import (
    apply_step,
    equivalence_class,
    hurwitz_path_positive,
    neighbors,
)
from braidkit.words import InputError


def bw(text, n=3):
    return parse_band_word(text, n)


def test_step_validation():
    w = bw("3:2 2:1")
    assert apply_step(w, (1, 1)) == bw("3:1 3:2")
    for step in [(0, 1), (len(w), 1), (1, 2)]:
        with pytest.raises(InputError):
            apply_step(w, step)
    with pytest.raises(InputError, match="move direction must be"):
        apply_step(w, (1, 0))


def test_apply_step_chain_forms():
    # One chain triple in B_3, cycled through all three forms.
    a = bw("3:2 2:1")
    b = bw("3:1 3:2")
    c = bw("2:1 3:1")
    # R_1 walks A -> B -> C -> A, R_1^-1 walks it back.
    assert apply_step(a, (1, 1)) == b
    assert apply_step(b, (1, 1)) == c
    assert apply_step(c, (1, 1)) == a
    assert apply_step(b, (1, -1)) == a
    assert apply_step(c, (1, -1)) == b
    assert apply_step(a, (1, -1)) == c


def test_apply_step_commuting():
    w = bw("2:1 4:3", 4)
    out = apply_step(w, (1, 1))
    assert out == bw("4:3 2:1", 4)


def test_apply_step_rejects_wrong_class():
    # A pair rejects a move it does not have, and a position past the end.
    with pytest.raises(InputError, match="R1\\^-1 does not rewrite the Commuting pair"):
        apply_step(bw("2:1 4:3", 4), (1, -1))
    for direction in (1, -1):
        with pytest.raises(InputError, match="does not rewrite the Interleaved pair"):
            apply_step(bw("2:1 3:2"), (1, direction))
    with pytest.raises(InputError, match="out of range"):
        apply_step(bw("3:2 2:1"), (2, 1))


def test_every_step_preserves_the_product():
    w = bw("3:2 2:1 3:1 2:1")
    for nb, step in neighbors(w):
        assert len(nb) == len(w)
        assert equal(expand_word(nb), expand_word(w)), step


def test_neighbors_positions_and_directions():
    w = bw("3:2 2:1")
    out = neighbors(w)
    # Forward first: A -> B by R_1, then A -> C by R_1^-1.
    assert out == ((bw("3:1 3:2"), (1, 1)), (bw("2:1 3:1"), (1, -1)))
    assert neighbors(bw("2:1 3:2")) == ()


def test_equivalence_class_of_a_chain_pair():
    closure = equivalence_class(bw("3:2 2:1"))
    assert len(closure.words) == 3
    assert not closure.truncated
    assert bw("3:1 3:2") in closure.words
    assert bw("2:1 3:1") in closure.words
    assert bw("2:1 3:2") not in closure.words


def test_equivalence_class_respects_size_cap():
    closure = equivalence_class(bw("3:2 2:1"), size_cap=2)
    assert closure.truncated
    assert len(closure.words) == 2


def test_relation_path_found_and_replayed():
    res = hurwitz_path_positive(bw("3:2 2:1"), bw("2:1 3:1"))
    assert res.status == "found"
    # One A->C step, which R_1^-1 realizes.
    assert res.moves == (Move(1, -1),)


def test_relation_path_conclusive_not_equal():
    res = hurwitz_path_positive(bw("2:1 3:2"), bw("3:2 2:1"))
    assert res.status == "not_equal"
    assert not res.truncated
    # Different lengths are settled without any search.
    res = hurwitz_path_positive(bw("2:1"), bw("2:1 2:1"))
    assert res.status == "not_equal"
    assert res.visited == 0


def test_relation_path_inconclusive_when_capped():
    w1 = bw("2:1 3:2 2:1 3:2 2:1 3:2")
    w2 = bw("3:2 2:1 3:2 2:1 3:2 2:1")
    res = hurwitz_path_positive(w1, w2, size_cap=3)
    assert res.status == "inconclusive"
    assert res.truncated


def test_relation_path_strand_mismatch():
    with pytest.raises(InputError):
        hurwitz_path_positive(bw("2:1"), bw("2:1", 4))


@st.composite
def positive_band_words(draw):
    n = draw(st.integers(3, 6))
    letters = draw(st.lists(st.sampled_from(all_generators(n)), min_size=2, max_size=6))
    return BandWord(n, tuple(letters))


@settings(max_examples=150, deadline=None)
@given(positive_band_words())
@example(bw("3:2 2:1"))
def test_every_rewrite_is_realized_by_its_own_label(w):
    # Commuting swaps and every chain form, at every position.
    f = band_factorization(w)
    for nb, step in neighbors(w):
        assert apply_move(f, Move(*step)).factor_keys == band_factorization(nb).factor_keys, step


@pytest.fixture
def flipped_chain_labels(monkeypatch):
    """`_rewrites` with its two chain labels swapped, on freshly built pair tables."""
    real = rewriting._rewrites

    def flipped(x, y):
        rewrites = real(x, y)
        return tuple((pair, -d) for pair, d in rewrites) if len(rewrites) == 2 else rewrites

    rewriting._letter_table.cache_clear()
    monkeypatch.setattr(rewriting, "_rewrites", flipped)
    yield
    monkeypatch.undo()
    rewriting._letter_table.cache_clear()


def test_a_mislabelled_pair_table_fails_every_chain_rule(flipped_chain_labels):
    rep = verify.suite_chain_rules(4)
    assert (rep["checks"], rep["ok"]) == (32, False)
    assert len(rep["failures"]) == 24
    assert all(msg.endswith("rewrites wrongly") for msg in rep["failures"])


def test_a_mislabelled_pair_table_fails_the_twist_closure_replay(flipped_chain_labels):
    with pytest.raises(ReplayError):
        verify.suite_twist_closure(3)


def test_a_mislabelled_pair_table_fails_the_path_replay(flipped_chain_labels):
    with pytest.raises(ReplayError):
        hurwitz_path_positive(bw("3:2 2:1"), bw("2:1 3:1"))


def test_hurwitz_path_positive_single_step():
    res = hurwitz_path_positive(bw("3:2 2:1"), bw("3:1 3:2"))
    assert res.status == "found"
    assert [m for m in res.moves] == [Move(1, 1)]


def test_hurwitz_path_positive_identity():
    res = hurwitz_path_positive(bw("3:2 2:1"), bw("3:2 2:1"))
    assert res.status == "found"
    assert res.moves == ()


def test_hurwitz_path_positive_not_equal():
    res = hurwitz_path_positive(bw("2:1 3:2"), bw("3:2 2:1"))
    assert res.status == "not_equal"
    assert res.moves is None


def test_hurwitz_path_positive_longer_instance():
    w1 = bw("2:1 3:2 2:1 3:2 2:1 3:2")
    closure = equivalence_class(w1)
    other = [w for w in closure.words if w != w1]
    for w2 in other[:5] + other[-5:]:
        res = hurwitz_path_positive(w1, w2)
        assert res.status == "found"
        replayed = apply_sequence(
            band_factorization(w1), res.moves
        )
        assert replayed.factor_keys == band_factorization(w2).factor_keys


def test_intermediate_words_stay_positive_band_expansions():
    # Replaying the compiled moves never leaves band-generator territory:
    # each intermediate factor is some band letter's expansion.
    from braidkit.bands import all_generators, expand
    from braidkit.normalform import canonical_key

    expansions = {canonical_key(expand(a)) for a in all_generators(3)}
    w1 = bw("2:1 3:2 2:1 3:2 2:1 3:2")
    w2 = apply_step(w1, (2, 1))
    w2 = apply_step(w2, (4, 1))
    res = hurwitz_path_positive(w1, w2)
    assert res.status == "found"
    f = band_factorization(w1)
    for m in res.moves:
        f = apply_sequence(f, [m])
        assert set(f.factor_keys) <= expansions
