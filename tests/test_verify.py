"""Suite reports: the embedding components and the inconclusive rule."""

import pytest

from braidkit import verify
from braidkit.hurwitz import PathResult
from braidkit.verify import run_suite, suite_conjugated_split, suite_embedding


@pytest.mark.parametrize("n,max_len,checks,classes", [
    (3, 4, 121, 57),
    (4, 3, 259, 134),
    (5, 3, 1111, 516),
])
def test_embedding_components_are_the_product_classes(n, max_len, checks, classes):
    rep = suite_embedding(n, max_len)
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


def test_a_capped_twist_closure_is_inconclusive():
    rep = run_suite("twist-closure", 3, size_cap=10)
    assert (rep["ok"], rep["inconclusive"]) == (False, True)
    assert (rep["size"], rep["truncated"], rep["checks"]) == (10, True, 0)


def test_run_suite_passes_only_the_caps_given():
    rep = run_suite("conjugated-split", 3, depth_cap=1)
    assert (rep["depthCap"], rep["sizeCap"]) == (1, 5000)
    rep = run_suite("conjugated-split", 3, size_cap=7)
    assert (rep["depthCap"], rep["sizeCap"]) == (8, 7)
    assert run_suite("twist-closure", 3, depth_cap=1)["size"] == 87


def test_run_suite_rejects_an_unknown_name():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")
