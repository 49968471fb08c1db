"""Suite reports: the embedding components, check tallies and the inconclusive rule."""

import pytest

from braidkit import freegroup, verify
from braidkit.bands import BandWord
from braidkit.hurwitz import PathResult, ReplayError
from braidkit.verify import run_suite, suite_conjugated_split, suite_embedding


@pytest.mark.parametrize("n,max_len,checks,classes", [
    (3, 4, 121, 57),
    (4, 3, 259, 134),
    (5, 3, 1111, 516),
])
def test_embedding_components_are_the_product_classes(n, max_len, checks, classes):
    rep = suite_embedding(n)
    assert (rep["ok"], rep["inconclusive"], rep["failures"]) == (True, False, [])
    assert (rep["checks"], rep["classes"], rep["maxLen"]) == (checks, classes, max_len)


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


def test_a_wrong_rewrite_fails_its_rule_once_and_skips_the_move_check(monkeypatch):
    monkeypatch.setattr(verify, "apply_step", lambda w, step: BandWord(w.n, w.letters[::-1]))
    rep = verify.suite_chain_rules(4)
    assert (rep["checks"], rep["commutingPairs"], rep["ok"]) == (32, 4, False)
    assert len(rep["failures"]) == 24
    assert all(msg.endswith("rewrites wrongly") for msg in rep["failures"])


def test_a_wrong_compiled_move_fails_every_chain_rule(monkeypatch):
    real = verify.step_to_move
    monkeypatch.setattr(verify, "step_to_move", lambda step: real(step).inverted())
    rep = verify.suite_chain_rules(4)
    assert rep["checks"] == 32
    assert len(rep["failures"]) == 24
    assert all(msg.endswith("does not realize the step") for msg in rep["failures"])


def test_a_capped_twist_closure_is_inconclusive():
    rep = run_suite("twist-closure", 3, size_cap=10)
    assert (rep["ok"], rep["inconclusive"]) == (False, True)
    assert (rep["size"], rep["truncated"], rep["checks"]) == (10, True, 0)


def test_a_wrong_compiled_move_fails_the_twist_closure_replay(monkeypatch):
    real = verify.step_to_move
    monkeypatch.setattr(verify, "step_to_move", lambda step: real(step).inverted())
    with pytest.raises(ReplayError):
        verify.suite_twist_closure(3)


def test_run_suite_passes_only_the_caps_given():
    rep = run_suite("conjugated-split", 3, depth_cap=1)
    assert (rep["depthCap"], rep["sizeCap"]) == (1, 5000)
    rep = run_suite("conjugated-split", 3, size_cap=7)
    assert (rep["depthCap"], rep["sizeCap"]) == (8, 7)
    assert run_suite("twist-closure", 3, depth_cap=1)["size"] == 87


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
