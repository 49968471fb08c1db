"""Suite reports: the embedding components, check tallies and the inconclusive rule."""

import re

import pytest

from braidkit import bands, freegroup, hurwitz, normalform, verify
from braidkit.bands import BandWord, parse_band_word
from braidkit.hurwitz import Move, PathResult, ReplayError
from braidkit.verify import SUITE_NAMES, run_suite, suite_conjugated_split, suite_embedding


@pytest.mark.parametrize("n,max_len,checks,classes", [
    (3, 4, 121, 57),
    (4, 3, 259, 134),
    (5, 3, 1111, 516),
])
def test_embedding_components_are_the_product_classes(n, max_len, checks, classes):
    rep = suite_embedding(n)
    assert (rep["ok"], rep["inconclusive"], rep["failures"]) == (True, False, [])
    assert (rep["checks"], rep["classes"], rep["maxLen"]) == (checks, classes, max_len)


@pytest.mark.parametrize("key,failures,text", [
    # Every product equal: each word outside the empty word's component splits a class.
    (lambda w: "", 120, r"equal products split across components near '.+'"),
    # Products told apart by their literal letters: components holding two spellings mix.
    (lambda w: str(w.letters), 11, r"component of '.+' mixes distinct products"),
], ids=["one-key", "letter-keys"])
def test_embedding_failures_name_the_broken_direction(monkeypatch, key, failures, text):
    monkeypatch.setattr(verify, "canonical_key", key)
    rep = suite_embedding(3)
    assert (rep["ok"], rep["checks"], len(rep["failures"])) == (False, 121, failures)
    assert all(re.fullmatch(text, msg) for msg in rep["failures"])


def test_embedding_default_corpus_lengths():
    assert run_suite("embedding", 3)["maxLen"] == 4
    assert run_suite("embedding", 4)["maxLen"] == 3


def test_conjugated_split_passes_with_default_caps():
    rep = suite_conjugated_split(3)
    assert (rep["ok"], rep["inconclusive"]) == (True, False)
    assert (rep["depthCap"], rep["sizeCap"]) == (8, 5000)
    assert [i["pathLength"] for i in rep["instances"]] == [4, 4]


def test_a_capped_conjugated_split_is_inconclusive_not_ok():
    rep = suite_conjugated_split(3, depth_cap=1)
    assert (rep["ok"], rep["inconclusive"]) == (False, True)
    assert [i["status"] for i in rep["instances"]] == ["not_found", "not_found"]


def test_a_conclusive_miss_beside_a_capped_search_is_a_failure(monkeypatch):
    results = iter([PathResult("not_found", None, 10, True),
                    PathResult("not_found", None, 10, False)])
    monkeypatch.setattr(verify, "find_path", lambda *args: next(results))
    rep = suite_conjugated_split(3)
    assert (rep["ok"], rep["inconclusive"]) == (False, False)
    assert len(rep["failures"]) == 2


def test_failed_relations_are_named_chain_triples_first(monkeypatch):
    monkeypatch.setattr(verify, "equal", lambda u, v: False)
    rep = verify.suite_relations(4)
    assert (rep["ok"], rep["checks"]) == (False, 10)
    assert rep["failures"] == [
        f"chain {triple}: {pair}"
        for triple in ("3,2,1", "4,2,1", "4,3,1", "4,3,2")
        for pair in ("A != B", "B != C")
    ] + ["commuting 2:1 4:3: products differ", "commuting 3:2 4:1: products differ"]


def test_failed_chain_triples_come_in_ascending_order(monkeypatch):
    monkeypatch.setattr(verify, "equal", lambda u, v: False)
    failures = verify.suite_relations(5)["failures"]
    named = [msg.split()[1].rstrip(":") for msg in failures[:20:2]]
    assert named == [f"{t},{s},{r}" for t in range(3, 6) for s in range(2, t) for r in range(1, s)]


def test_a_wrong_rewrite_fails_its_rule_once_and_skips_the_move_check(monkeypatch):
    monkeypatch.setattr(verify, "apply_step", lambda w, step: BandWord(w.n, w.letters[::-1]))
    rep = verify.suite_chain_rules(4)
    assert (rep["checks"], rep["commutingPairs"], rep["ok"]) == (32, 4, False)
    assert len(rep["failures"]) == 24
    assert all(msg.endswith("rewrites wrongly") for msg in rep["failures"])


def test_a_wrong_compiled_move_fails_every_chain_rule(monkeypatch):
    monkeypatch.setattr(verify, "Move", lambda k, d: Move(k, -d))
    rep = verify.suite_chain_rules(4)
    assert rep["checks"] == 32
    assert len(rep["failures"]) == 24
    assert all(msg.endswith("does not realize the step") for msg in rep["failures"])


def test_a_capped_twist_closure_is_inconclusive():
    rep = run_suite("twist-closure", 3, size_cap=10)
    assert (rep["ok"], rep["inconclusive"]) == (False, True)
    assert (rep["size"], rep["truncated"], rep["checks"]) == (10, True, 0)


def test_a_wrong_compiled_move_fails_the_twist_closure_replay(monkeypatch):
    monkeypatch.setattr(verify, "Move", lambda k, d: Move(k, -d))
    with pytest.raises(ReplayError):
        verify.suite_twist_closure(3)


def test_the_twist_closure_replays_each_tree_edge_once(monkeypatch):
    moved = []

    def counted(factors, moves):
        moves = list(moves)
        moved.extend(moves)
        return real(factors, moves)

    real = hurwitz._move_letters
    monkeypatch.setattr(hurwitz, "_move_letters", counted)
    rep = verify.suite_twist_closure(3)
    # 87 members, the root included, joined by 86 tree edges.
    assert (rep["ok"], rep["checks"], len(moved)) == (True, 87, 86)


# δ = a_{6,5} a_{5,4} a_{4,3} a_{3,2} a_{2,1}: its closure has 1,296
# words, past the 500 above which the suite samples 100 members.
HALF_TWIST_6 = parse_band_word("6:5 5:4 4:3 3:2 2:1", 6)


def test_a_large_twist_closure_replays_a_sample(monkeypatch):
    monkeypatch.setattr(verify, "standard_band_word", lambda n: HALF_TWIST_6)
    rep = verify.suite_twist_closure(6)
    assert (rep["ok"], rep["sampled"], rep["checks"]) == (True, True, 100)
    assert (rep["size"], rep["truncated"], rep["failures"]) == (1296, False, [])


def test_a_wrong_compiled_move_fails_the_sampled_twist_closure_replay(monkeypatch):
    monkeypatch.setattr(verify, "standard_band_word", lambda n: HALF_TWIST_6)
    monkeypatch.setattr(verify, "Move", lambda k, d: Move(k, -d))
    with pytest.raises(ReplayError):
        verify.suite_twist_closure(6)


def test_run_suite_passes_only_the_caps_given():
    rep = run_suite("conjugated-split", 3, depth_cap=1)
    assert (rep["depthCap"], rep["sizeCap"]) == (1, 5000)
    rep = run_suite("conjugated-split", 3, size_cap=7)
    assert (rep["depthCap"], rep["sizeCap"]) == (8, 7)
    assert run_suite("twist-closure", 3, depth_cap=1)["size"] == 87


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_run_suite_calls_the_suite_bound_at_call_time(monkeypatch, name):
    # A wrapper set on the module later (the benchmark's tracer) must be the one that runs.
    calls = []
    monkeypatch.setattr(verify, "suite_" + name.replace("-", "_"),
                        lambda n, **options: calls.append((n, options)))
    run_suite(name, 4, seed=5, depth_cap=6, size_cap=7)
    options = {"twist-closure": {"seed": 5, "size_cap": 7},
               "conjugated-split": {"depth_cap": 6, "size_cap": 7},
               "action-axioms": {"seed": 5}}.get(name, {})
    assert calls == [(4, options)]


def test_run_suite_rejects_an_unknown_name():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_action_axioms_fail_when_an_inverse_letter_acts_like_its_generator(monkeypatch):
    monkeypatch.setattr(freegroup, "_sigma_inverse", freegroup._sigma)
    rep = run_suite("action-axioms", 3)
    assert (rep["ok"], rep["checks"]) == (False, 842)
    assert "action breaks cancellation at 1" in rep["failures"]
    assert any(text.endswith("does not invert") for text in rep["failures"])


@pytest.mark.parametrize("n,checks", [(4, 845), (5, 849)])
def test_action_axioms_pass_with_far_commutation_from_4_strands(n, checks):
    # 842 checks at 3 strands, where no pair of generators commutes;
    # one more per braid relation, far-commuting pair and cancellation.
    rep = run_suite("action-axioms", n)
    assert (rep["ok"], rep["inconclusive"], rep["checks"]) == (True, False, checks)


def test_action_axioms_fail_when_the_forward_move_conjugates_the_wrong_way(monkeypatch):
    # R_k leaves (x^-1 y x, x) in place of (x y x^-1, x); R_k^-1 is unchanged.
    real = hurwitz._conjugate_letters
    monkeypatch.setattr(hurwitz, "_conjugate_letters",
                        lambda h, m, sign: real(h, m, -1 if sign == 1 else sign))
    rep = run_suite("action-axioms", 3)
    assert (rep["ok"], rep["checks"]) == (False, 842)
    assert "a move composed with its inverse is not the identity" in rep["failures"]


def test_action_axioms_fall_back_to_keys_when_moved_words_differ_letter_by_letter(monkeypatch):
    # Each conjugated factor gains a freely reduced word that is trivial
    # as a braid, s1 s2 s1 s2^-1 s1^-1 s2^-1.  The moves stay correct as
    # braids, but their words differ letter by letter, and the keys must
    # decide.
    relator = ((1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (2, -1))
    keyed = []

    def counted(f):
        keyed.append(f)
        return real_key(f)

    real_key, real = verify.tuple_key, hurwitz._conjugate_letters
    monkeypatch.setattr(hurwitz, "_conjugate_letters",
                        lambda h, m, sign: real(h, m + relator, sign))
    monkeypatch.setattr(verify, "tuple_key", counted)
    rep = run_suite("action-axioms", 3)
    assert (rep["ok"], rep["checks"]) == (True, 842)
    assert keyed


@pytest.mark.parametrize("n", [3, 4, 5])
def test_passing_action_axioms_compute_no_normal_form(monkeypatch, n):
    # Correct moves give equal freely reduced words, so no key is needed.
    calls = []

    def counted(w):
        calls.append(w)
        return real(w)

    real = normalform.normal_form
    normalform._cached_key.cache_clear()
    monkeypatch.setattr(normalform, "normal_form", counted)
    rep = run_suite("action-axioms", n)
    assert rep["ok"] and calls == []


@pytest.mark.parametrize("n", [3, 4, 5])
def test_passing_action_axioms_build_no_factorization(monkeypatch, n):
    # The moves run on letter tuples; a Factorization is built only for keys.
    built = []

    def counted(f):
        built.append(f)
        real(f)

    real = bands.Factorization.__post_init__
    monkeypatch.setattr(bands.Factorization, "__post_init__", counted)
    rep = run_suite("action-axioms", n)
    assert rep["ok"] and built == []
