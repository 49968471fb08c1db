import pytest

from braidkit.bands import band_factorization, parse_band_word
from braidkit.hurwitz import Move, apply_sequence
from braidkit.normalform import equal
from braidkit.bands import expand_word
from braidkit.rewriting import (
    RULES,
    apply_step,
    equivalence_class,
    hurwitz_path_positive,
    neighbors,
    step_to_move,
)
from braidkit.words import InputError


def bw(text, n=3):
    return parse_band_word(text, n)


def test_step_validation():
    w = bw("3:2 2:1")
    assert apply_step(w, (1, "A->B")) == bw("3:1 3:2")
    for step in [(0, "A->B"), (len(w), "A->B"), (1, "A->A")]:
        with pytest.raises(InputError):
            apply_step(w, step)
    with pytest.raises(InputError, match="unknown rule"):
        step_to_move((1, "A->A"))


def test_apply_step_chain_forms():
    # One chain triple in B_3, cycled through all three forms.
    a = bw("3:2 2:1")
    b = bw("3:1 3:2")
    c = bw("2:1 3:1")
    assert apply_step(a, (1, "A->B")) == b
    assert apply_step(b, (1, "B->C")) == c
    assert apply_step(c, (1, "C->A")) == a
    assert apply_step(b, (1, "B->A")) == a
    assert apply_step(c, (1, "C->B")) == b
    assert apply_step(a, (1, "A->C")) == c


def test_apply_step_commuting():
    w = bw("2:1 4:3", 4)
    out = apply_step(w, (1, "Comm"))
    assert out == bw("4:3 2:1", 4)


def test_apply_step_rejects_wrong_class():
    with pytest.raises(InputError):
        apply_step(bw("3:2 2:1"), (1, "B->C"))
    with pytest.raises(InputError):
        apply_step(bw("2:1 4:3", 4), (1, "A->B"))
    with pytest.raises(InputError):
        apply_step(bw("3:2 2:1"), (2, "A->B"))


def test_every_step_preserves_the_product():
    w = bw("3:2 2:1 3:1 2:1")
    for nb, step in neighbors(w):
        assert len(nb) == len(w)
        assert equal(expand_word(nb), expand_word(w)), step


def test_neighbors_positions_and_rules():
    w = bw("3:2 2:1")
    out = neighbors(w)
    assert [step for _nb, step in out] == [
        (1, "A->B"),
        (1, "A->C"),
    ]
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
    # One A->C step, which compiles to R_1^-1.
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


def test_step_to_move_table():
    assert step_to_move((2, "A->B")) == Move(2, 1)
    assert step_to_move((1, "B->C")) == Move(1, 1)
    assert step_to_move((3, "C->A")) == Move(3, 1)
    assert step_to_move((1, "Comm")) == Move(1, 1)
    assert step_to_move((1, "B->A")) == Move(1, -1)
    assert step_to_move((4, "C->B")) == Move(4, -1)
    assert step_to_move((2, "A->C")) == Move(2, -1)
    assert set(RULES) == {"A->B", "B->C", "C->A", "B->A", "C->B", "A->C", "Comm"}


def test_each_rule_compiles_to_a_move_that_replays():
    a = bw("3:2 2:1")
    for nb, step in neighbors(a):
        moved = apply_sequence(band_factorization(a), [step_to_move(step)])
        assert moved.factor_keys == band_factorization(nb).factor_keys


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
    w2 = apply_step(w1, (2, "A->B"))
    w2 = apply_step(w2, (4, "A->B"))
    res = hurwitz_path_positive(w1, w2)
    assert res.status == "found"
    f = band_factorization(w1)
    for m in res.moves:
        f = apply_sequence(f, [m])
        assert set(f.factor_keys) <= expansions
