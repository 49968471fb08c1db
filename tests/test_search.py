"""Contracts every breadth-first search shares: caps and replay checks."""

import os
import subprocess
import sys

import pytest

import braidkit
from braidkit.bands import Factorization, parse_band_word
from braidkit.hurwitz import find_path, orbit_explore
from braidkit.rewriting import equivalence_class, relation_path
from braidkit.words import parse_word


def fact(n, *words):
    return Factorization(n, tuple(parse_word(w, n) for w in words))


def closure_of_the_twist(cap):
    res = equivalence_class(parse_band_word("2:1 3:2 2:1 3:2 2:1 3:2", 3), cap)
    return len(res.words), res.truncated


def orbit_of_a_pair(cap):
    rep = orbit_explore(fact(3, "1", "2"), size_cap=cap)
    return rep.visited, rep.truncated


def exhaustive_relation_path(cap):
    res = relation_path(parse_band_word("3:2 2:1", 3), parse_band_word("2:1 2:1", 3), cap)
    return res.visited, res.truncated


def exhaustive_find_path(cap):
    # The identity factor stays the identity, so the orbits are disjoint.
    res = find_path(fact(3, "1 2", ""), fact(3, "1", "2"), size_cap=cap)
    return res.visited, res.truncated


@pytest.mark.parametrize(
    "search, size",
    [
        (closure_of_the_twist, 87),
        (orbit_of_a_pair, 3),
        (exhaustive_relation_path, 3),
        (exhaustive_find_path, 3),
    ],
)
def test_a_cap_truncates_only_below_the_full_size(search, size):
    assert search(size) == (size, False)
    assert search(size - 1)[1]


# Each search's replay is corrupted in turn; every one must raise
# ReplayError even though -O strips assert statements.
CORRUPTED_REPLAYS = """
import sys
from braidkit import hurwitz, rewriting
from braidkit.bands import band_factorization, parse_band_word

if __debug__:
    sys.exit("expected to run under python -O")
w1, w2 = parse_band_word("3:2 2:1", 3), parse_band_word("3:1 3:2", 3)
f1, f2 = band_factorization(w1), band_factorization(w2)


def expect_replay_error(name, call):
    try:
        call()
    except hurwitz.ReplayError:
        print(name)
    else:
        print(name, "returned")


hurwitz.apply_sequence = lambda f, moves: f
expect_replay_error("find_path", lambda: hurwitz.find_path(f1, f2))
rewriting.apply_sequence = lambda f, moves: f
expect_replay_error("hurwitz_path_positive", lambda: rewriting.hurwitz_path_positive(w1, w2))
rewriting.RewritePath.replay = lambda path: path.start
expect_replay_error("relation_path", lambda: rewriting.relation_path(w1, w2))
"""


def test_corrupted_replays_raise_under_python_O():
    src = os.path.dirname(os.path.dirname(braidkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_REPLAYS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["find_path", "hurwitz_path_positive", "relation_path"]
