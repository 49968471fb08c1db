"""Contracts every breadth-first search shares: caps and replay checks."""

import os
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

import braidkit
from braidkit.bands import (
    BandError,
    BandGenerator,
    BandWord,
    Factorization,
    PairClass,
    all_generators,
    classify_pair,
    parse_band_word,
    standard_factorization,
)
from braidkit.hurwitz import Move, apply_move, find_path, orbit_explore, tuple_key
from braidkit.rewriting import (
    RULES,
    RelationStep,
    _letter_table,
    apply_step,
    equivalence_class,
    relation_path,
)
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


# -- The interned searches against references over the public moves ----------
#
# The references below search the slow way: real Factorizations and
# BandWords, keyed by `tuple_key` and by letter sequence, expanded with
# `apply_move` and `apply_step`.  The searches must match them field by
# field, which pins down expansion order as well as the answers.


def walk(f, rng, steps):
    for _ in range(steps):
        f = apply_move(f, Move(rng.randint(1, len(f) - 1), rng.choice((1, -1))))
    return f


def reference_moves(f):
    for k in range(1, len(f)):
        for direction in (1, -1):
            m = Move(k, direction)
            yield apply_move(f, m), m


def reference_orbit(f, depth_cap=None, size_cap=None):
    if size_cap is not None and size_cap < 1:
        return 0, (), True, ()
    seen = {tuple_key(f)}
    frontier, counts, truncated, depth = [f], [1], False, 0
    while frontier:
        last = depth_cap is not None and depth >= depth_cap
        # Past the depth cap a layer only looks for an unvisited neighbor.
        limit = 0 if last else size_cap
        nxt = []
        for g in frontier:
            for h, _ in reference_moves(g):
                key = tuple_key(h)
                if key in seen:
                    continue
                if limit is not None and len(seen) >= limit:
                    truncated = True
                    continue
                seen.add(key)
                nxt.append(h)
        if last:
            break
        frontier, depth = nxt, depth + 1
        if frontier:
            counts.append(len(frontier))
    return len(seen), tuple(counts), truncated, tuple(sorted(seen))


def reference_path(f1, f2, depth_cap=None, size_cap=None):
    def tree(f):
        return SimpleNamespace(parents={tuple_key(f): (None, None)}, frontier=[f],
                               depth=0, capped=False)

    def path(t, key):
        steps = []
        while t.parents[key][0] is not None:
            key, step = t.parents[key]
            steps.append(step)
        return steps[::-1]

    fwd, bwd = tree(f1), tree(f2)
    if tuple_key(f1) == tuple_key(f2):
        return "found", (), 1, False
    if f1.product_key != f2.product_key:
        return "not_comparable", None, 0, False
    while fwd.frontier and bwd.frontier:
        visited = len(fwd.parents) + len(bwd.parents)
        if depth_cap is not None and fwd.depth + bwd.depth >= depth_cap:
            return "not_found", None, visited, True
        t, other = (fwd, bwd) if len(fwd.frontier) <= len(bwd.frontier) else (bwd, fwd)
        limit = None if size_cap is None else size_cap - len(other.parents)
        meet, nxt = None, []
        for g in t.frontier:
            for h, m in reference_moves(g):
                key = tuple_key(h)
                if key in t.parents:
                    continue
                if limit is not None and len(t.parents) >= limit:
                    t.capped = True
                    continue
                t.parents[key] = (tuple_key(g), m)
                nxt.append(h)
                if meet is None and key in other.parents:
                    meet = key
            if meet is not None:
                moves = path(fwd, meet) + [m.inverted() for m in reversed(path(bwd, meet))]
                return "found", tuple(moves), len(fwd.parents) + len(bwd.parents), False
        t.frontier, t.depth = nxt, t.depth + 1
    return "not_found", None, len(fwd.parents) + len(bwd.parents), fwd.capped or bwd.capped


def orbit_cases():
    rng = random.Random(2026)
    cases = [(fact(3, "1", "2"), 5, None), (fact(3, "1", "2"), 1, 3),
             (fact(4, "1", "3"), None, 10), (fact(3, "1", "2", "1"), None, 100)]
    for n, caps in ((3, [(None, 40), (2, None), (3, 25), (0, None), (None, 0)]),
                    (4, [(None, 30), (1, None), (2, 40)]),
                    (5, [(None, 20), (1, 60)])):
        for depth_cap, size_cap in caps:
            start = walk(standard_factorization(n), rng, rng.randint(0, 3))
            cases.append((start, depth_cap, size_cap))
    return cases


def test_orbit_matches_a_reference_search_over_apply_move():
    truncated = set()
    for f, depth_cap, size_cap in orbit_cases():
        rep = orbit_explore(f, depth_cap, size_cap)
        got = (rep.visited, rep.depth_counts, rep.truncated, rep.keys)
        assert got == reference_orbit(f, depth_cap, size_cap), (f, depth_cap, size_cap)
        truncated.add(rep.truncated)
    assert truncated == {True, False}


def path_cases():
    rng = random.Random(4052)
    cases = [(fact(3, "1 2", ""), fact(3, "1", "2"), None, None),
             (fact(3, "1", "2"), fact(3, "2", "1"), None, None)]
    for n, steps, caps in ((3, 1, [(None, None)]),
                           (3, 3, [(None, None), (2, None), (None, 30)]),
                           (3, 4, [(6, 400), (None, 12)]),
                           (4, 2, [(None, None), (1, None), (None, 25)]),
                           (5, 1, [(None, None)])):
        for depth_cap, size_cap in caps:
            source = walk(standard_factorization(n), rng, rng.randint(0, 2))
            cases.append((source, walk(source, rng, steps), depth_cap, size_cap))
    return cases


def test_find_path_matches_a_reference_search_over_apply_move():
    statuses = set()
    for f1, f2, depth_cap, size_cap in path_cases():
        res = find_path(f1, f2, depth_cap, size_cap)
        got = (res.status, res.moves, res.visited, res.truncated)
        assert got == reference_path(f1, f2, depth_cap, size_cap), (f1, f2, depth_cap, size_cap)
        statuses.add((res.status, res.truncated))
    assert statuses == {("found", False), ("not_found", True), ("not_found", False),
                        ("not_comparable", False)}


def reference_neighbors(w):
    """Every rewrite `apply_step` accepts, position by position, in RULES order."""
    out = []
    for i in range(len(w) - 1):
        for rule in RULES:
            step = RelationStep(i + 1, rule)
            try:
                out.append((apply_step(w, step), step))
            except BandError:
                pass
    return out


@pytest.mark.parametrize("n", range(3, 8))
def test_the_packed_pair_table_agrees_with_classify_pair_and_apply_step(n):
    gens, pairs = _letter_table(n)
    assert gens == all_generators(n)
    for x in gens:
        for y in gens:
            want = [((gens.index(nb.letters[0]), gens.index(nb.letters[1])), step.rule)
                    for nb, step in reference_neighbors(BandWord(n, (x, y)))]
            got = pairs[gens.index(x), gens.index(y)]
            assert list(got) == want, (x, y)
            assert (not got) == (classify_pair(x, y) is PairClass.INTERLEAVED)


def letters(w):
    return tuple((a.t, a.s) for a in w.letters)


def reference_closure(w, size_cap):
    seen = {letters(w): w}
    frontier, capped = [w], False
    while frontier:
        nxt = []
        for v in frontier:
            for nb, _ in reference_neighbors(v):
                if letters(nb) in seen:
                    continue
                if len(seen) >= size_cap:
                    capped = True
                    continue
                seen[letters(nb)] = nb
                nxt.append(nb)
        frontier = nxt
    return tuple(seen[k] for k in sorted(seen)), capped


def reference_relation_path(w1, w2, size_cap):
    target = letters(w2)
    parents = {letters(w1): (None, None)}
    if letters(w1) == target:
        return "found", (), 1, False
    frontier, capped = [w1], False
    while frontier:
        frontier.sort(key=letters)
        nxt = []
        for v in frontier:
            for nb, step in reference_neighbors(v):
                key = letters(nb)
                if key in parents:
                    continue
                if len(parents) >= size_cap:
                    capped = True
                    continue
                parents[key] = (letters(v), step)
                if key == target:
                    steps = []
                    while parents[key][0] is not None:
                        key, step = parents[key]
                        steps.append(step)
                    return "found", tuple(steps[::-1]), len(parents), capped
                nxt.append(nb)
        frontier = nxt
    return ("inconclusive" if capped else "not_equal"), None, len(parents), capped


def twist_word(n):
    return BandWord(n, tuple(BandGenerator(n, i + 1, i) for i in range(1, n)) * n)


def rewrite_walk(w, rng, steps):
    for _ in range(steps):
        w = rng.choice(reference_neighbors(w))[0]
    return w


def test_closures_and_relation_paths_match_references_over_band_words():
    rng = random.Random(77)
    closures, statuses = set(), set()
    for n, steps, cap in ((3, 2, 10**6), (3, 5, 40), (4, 1, 150), (4, 3, 400), (5, 2, 100)):
        start = rewrite_walk(twist_word(n), rng, steps)
        res = equivalence_class(start, cap)
        assert (res.words, res.truncated) == reference_closure(start, cap), (start, cap)
        closures.add(res.truncated)
        end = rewrite_walk(start, rng, steps)
        for size_cap in (cap, 3):
            res = relation_path(start, end, size_cap)
            steps_got = None if res.path is None else res.path.steps
            got = (res.status, steps_got, res.visited, res.truncated)
            assert got == reference_relation_path(start, end, size_cap), (start, end, size_cap)
            statuses.add(res.status)
    other = parse_band_word("2:1 3:2 2:1 3:2 2:1 3:1", 3)
    res = relation_path(twist_word(3), other, 10**6)
    assert (res.status, None, res.visited, res.truncated) == reference_relation_path(
        twist_word(3), other, 10**6)
    statuses.add(res.status)
    assert closures == {True, False}
    assert statuses == {"found", "inconclusive", "not_equal"}
