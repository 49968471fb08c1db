"""Contracts every breadth-first search shares: caps and replay checks."""

import contextlib
import functools
import itertools
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkit import cli, hurwitz, normalform, rewriting
from braidkit.bands import (
    BandGenerator,
    BandWord,
    Factorization,
    PairClass,
    all_generators,
    chain_forms,
    classify_pair,
    conjugated_factorization,
    parse_band_word,
    standard_factorization,
)
from braidkit.freegroup import dynnikov_coordinates
from braidkit.hurwitz import (
    Move,
    SearchTree,
    _decode,
    _encode,
    apply_move,
    find_path,
    orbit_explore,
    tuple_key,
)
from braidkit.rewriting import (
    _letter_table,
    apply_step,
    closure_tree,
    equivalence_class,
    hurwitz_path_positive,
    neighbors,
)
from braidkit.words import InputError, compose_all, conjugate, inverse, parse_word
from child_env import child_env


def fact(n, *words):
    return Factorization(n, tuple(parse_word(w, n) for w in words))


def closure_of_the_twist(cap):
    res = equivalence_class(parse_band_word("2:1 3:2 2:1 3:2 2:1 3:2", 3), cap)
    return len(res.words), res.truncated


def orbit_of_a_pair(cap):
    rep = orbit_explore(fact(3, "1", "2"), size_cap=cap)
    return rep.visited, rep.truncated


def exhaustive_relation_path(cap):
    res = hurwitz_path_positive(
        parse_band_word("3:2 2:1", 3), parse_band_word("2:1 2:1", 3), cap)
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


def orbit_held(f, cap):
    rep = orbit_explore(f, size_cap=cap)
    return rep.visited, rep.truncated


def closure_held(word, cap):
    res = equivalence_class(parse_band_word(word, 3), cap)
    return len(res.words), res.truncated


def relation_path_held(words, cap):
    res = hurwitz_path_positive(*(parse_band_word(w, 3) for w in words), cap)
    return res.visited, res.truncated


def find_path_held(pair, cap):
    res = find_path(*pair, size_cap=cap)
    return res.visited, res.truncated


# The cap rule: a search always holds its root(s), and a size cap turns
# every later state away once that many are held.  Each search starts
# once beside unvisited neighbors and once at a fixed point, which has
# none: the half twist and its conjugate by sigma_1 square to the same
# full twist, and a pair of equal factors is fixed by both moves.
@pytest.mark.parametrize("cap", [-1, 0, 1])
@pytest.mark.parametrize("search, moving, fixed, roots", [
    (orbit_held, fact(3, "1", "2"), fact(2, "1", "1"), 1),
    (closure_held, "3:2 2:1", "2:1 2:1", 1),
    (relation_path_held, ("3:2 2:1", "2:1 2:1"), ("2:1 2:1", "3:1 3:1"), 1),
    (find_path_held, (fact(3, "1 2", ""), fact(3, "1", "2")),
     (fact(3, "1 2 1", "1 2 1"), fact(3, "1 1 2 1 -1", "1 1 2 1 -1")), 2),
], ids=["orbit", "closure", "positive-path", "find-path"])
def test_a_search_holds_its_roots_under_any_cap(search, moving, fixed, roots, cap):
    assert search(moving, cap) == (roots, True)
    assert search(fixed, cap) == (roots, False)


def test_closure_layers_sum_to_the_closure_size():
    word = parse_band_word("2:1 3:2 2:1 3:2 2:1 3:2", 3)
    for cap, size in ((None, 87), (40, 40), (0, 1)):
        tree = closure_tree(word) if cap is None else closure_tree(word, cap)
        assert (sum(tree.layers), len(tree.parents), tree.layers[0]) == (size, size, 1)


# Each search's replay is corrupted in turn; every one must raise
# ReplayError even though -O strips assert statements.
CORRUPTED_REPLAYS = """
import sys
from braidkit import hurwitz, rewriting, verify
from braidkit.bands import band_factorization, parse_band_word, standard_factorization

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


# `apply_move` runs through `apply_sequence`, so the real one goes back
# before the suite below replays its steps.
real_apply_sequence = hurwitz.apply_sequence
hurwitz.apply_sequence = lambda f, moves: f
expect_replay_error("find_path", lambda: hurwitz.find_path(f1, f2))
hurwitz.apply_sequence = real_apply_sequence
real_apply_move = hurwitz.apply_move
hurwitz.apply_move = lambda f, m: f
expect_replay_error("orbit_explore",
                    lambda: hurwitz.orbit_explore(standard_factorization(3), size_cap=5))
hurwitz.apply_move = real_apply_move
rewriting.apply_sequence = lambda f, moves: f
expect_replay_error("hurwitz_path_positive", lambda: rewriting.hurwitz_path_positive(w1, w2))
verify.Move = lambda k, d: hurwitz.Move(k, -d)
expect_replay_error("suite_twist_closure", lambda: verify.suite_twist_closure(3))
"""


def test_corrupted_replays_raise_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_REPLAYS],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "find_path", "orbit_explore", "hurwitz_path_positive", "suite_twist_closure"]


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

    def open_ended(t):
        # Past the depth cap a tree only looks for an unvisited neighbor.
        return any(tuple_key(h) not in t.parents
                   for g in t.frontier for h, _ in reference_moves(g))

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
            return "not_found", None, visited, open_ended(fwd) and open_ended(bwd)
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
             (fact(4, "1", "3"), None, 10), (fact(3, "1", "2", "1"), None, 100),
             (standard_factorization(3), None, 1500)]
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
    # Finite orbits of 3 and 2 states that do not meet: under a depth cap
    # both trees may hold their whole orbits, a conclusive "not found".
    cases += [(fact(3, "1", "2"), fact(3, "1 2", ""), depth_cap, None)
              for depth_cap in range(4)]
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
    statuses, depth_capped = set(), set()
    for f1, f2, depth_cap, size_cap in path_cases():
        res = find_path(f1, f2, depth_cap, size_cap)
        got = (res.status, res.moves, res.visited, res.truncated)
        assert got == reference_path(f1, f2, depth_cap, size_cap), (f1, f2, depth_cap, size_cap)
        statuses.add((res.status, res.truncated))
        if depth_cap is not None:
            depth_capped.add((res.status, res.truncated))
    assert statuses == {("found", False), ("not_found", True), ("not_found", False),
                        ("not_comparable", False)}
    assert {("not_found", True), ("not_found", False)} <= depth_capped


@contextlib.contextmanager
def recorded_tables():
    """Every move table the searches build while the context is open, each
    recording its fills in order as (pair, canonical keys looked up during the fill).

    The searches start from no kept table, and the kept tables are restored
    when the context closes."""
    real, lookups, made = normalform.canonical_key, [0], []

    def counted(w):
        lookups[0] += 1
        return real(w)

    class Recorded(hurwitz._FactorTable):
        def __init__(self, n):
            super().__init__(n)
            self.fills = []
            made.append(self)

        def __missing__(self, pair):
            before = lookups[0]
            moved = super().__missing__(pair)
            self.fills.append((pair, lookups[0] - before))
            return moved

    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name.startswith("braidkit") and getattr(module, "canonical_key", None) is real:
                mp.setattr(module, "canonical_key", counted)
        mp.setattr(hurwitz, "_FactorTable", Recorded)
        mp.setattr(hurwitz, "_TABLES", {})
        yield made


def check_entries(table):
    """Each filled pair of ids moves to the ids whose kept words have the
    canonical keys of a b a^-1 and b^-1 a b, and no two ids share a key."""
    key = normalform.canonical_key
    keys = [key(w) for w in table.words]
    assert len(set(keys)) == len(keys)
    by_key = {k: fid for fid, k in enumerate(keys)}
    for pair, moved in table.items():
        a, b = _decode(pair)
        x, y = table.words[a], table.words[b]
        new_left = by_key[key(compose_all(x.n, (x, y, inverse(x))))]
        new_right = by_key[key(conjugate(x, y))]
        assert [(tuple(_decode(p)), d) for p, d in moved] == [
            ((new_left, a), 1), ((b, new_right), -1)]


@pytest.mark.parametrize("n, steps, size_cap", [(3, 3, 300), (4, 2, 300), (5, 1, 200)])
def test_a_table_fill_interns_only_the_new_factor(n, steps, size_cap):
    f = walk(standard_factorization(n), random.Random(n), steps)
    with recorded_tables() as tables:
        orbit_explore(f, size_cap=size_cap)
    (table,) = tables
    # Factors are told apart by their coordinates: no fill computes a key.
    assert table.fills and [looked for _, looked in table.fills] == [0] * len(table.fills)
    # Words in the order the search met them: the root's factors, then
    # each fill's a b a^-1 and b^-1 a b.  An id keeps the first one met.
    met = list(f.factors)
    for pair, _ in table.fills:
        x, y = map(table.words.__getitem__, _decode(pair))
        met += [compose_all(n, (x, y, inverse(x))), conjugate(x, y)]
    first = {}
    for w in met:
        first.setdefault(normalform.canonical_key(w), w)
    assert table.words == list(first.values())
    check_entries(table)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6), st.integers(0, 4), st.randoms(use_true_random=False))
def test_carried_vectors_are_the_coordinates_of_the_kept_words(n, steps, rng):
    f = walk(standard_factorization(n), rng, steps)
    with recorded_tables() as tables:
        orbit_explore(f, size_cap=60)
        find_path(f, walk(f, rng, 3), size_cap=60)
    (table,) = tables  # one table serves both searches
    assert list(table.ids.values()) == list(range(len(table.words)))
    for fid, w in enumerate(table.words):
        assert table.ids[table.vectors[fid]] == fid
        assert table.vectors[fid] == dynnikov_coordinates(w)
        assert table.inverse_vectors[fid] == dynnikov_coordinates(inverse(w))
        assert table.inverses[fid] == inverse(w).letters
    check_entries(table)


def answer(result):
    """Every field of a search's report that an id's value could sway."""
    if isinstance(result, hurwitz.OrbitReport):
        return result.visited, result.depth_counts, result.truncated, result.keys
    return result.status, result.moves, result.visited, result.truncated


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 5), st.randoms(use_true_random=False), st.data())
def test_sharing_a_table_never_changes_an_answer(n, rng, data):
    start = walk(standard_factorization(n), rng, 2)
    calls = []
    for _ in range(data.draw(st.integers(2, 4), label="searches")):
        f, cap = walk(start, rng, rng.randint(0, 3)), data.draw(st.integers(20, 120))
        if data.draw(st.booleans(), label="orbit"):
            calls.append(functools.partial(orbit_explore, f, size_cap=cap))
        else:
            calls.append(functools.partial(find_path, f, walk(f, rng, 3), size_cap=cap))
    with recorded_tables() as tables:
        shared = [answer(call()) for call in calls]
        (table,) = tables
        filled = len(table.fills)
        calls[0]()
    pairs = [pair for pair, _ in table.fills]
    # Later searches read the pairs earlier ones filled, and a rerun fills none.
    assert len(pairs) == len(set(pairs)) == filled
    for call, got in zip(calls, shared):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hurwitz, "_TABLES", {})
            assert answer(call()) == got


@pytest.mark.parametrize("n, size_cap", [
    (3, 200),  # more filled pairs than factors
    (5, 1),  # more factors than filled pairs
])
def test_a_search_starts_a_fresh_table_once_the_kept_one_is_past_the_bound(
        monkeypatch, n, size_cap):
    monkeypatch.setattr(hurwitz, "_TABLES", {})
    f = standard_factorization(n)
    first = answer(orbit_explore(f, size_cap=size_cap))
    table = hurwitz._TABLES[n]
    counts = len(table), len(table.words)
    assert counts[0] != counts[1] and max(counts) <= hurwitz._SHARED_LIMIT
    for limit, kept in ((max(counts), True), (max(counts) - 1, False)):
        monkeypatch.setattr(hurwitz, "_SHARED_LIMIT", limit)
        hurwitz._TABLES[n] = table
        assert answer(orbit_explore(f, size_cap=size_cap)) == first
        assert (hurwitz._TABLES[n] is table) == kept
        assert (len(table), len(table.words)) == counts  # the rerun filled nothing


def test_an_orbits_keys_normalize_each_id_its_states_use_once(monkeypatch):
    monkeypatch.setattr(hurwitz, "_TABLES", {})
    orbit_explore(standard_factorization(3), size_cap=2000)
    rep = orbit_explore(fact(3, "1", "2", "1 2 -1"), size_cap=5)
    used = set(_decode("".join(rep.states)))
    assert rep.visited == 5 and len(rep.words) > 10 * len(used)  # the wide search's words
    normalized = []
    monkeypatch.setattr(hurwitz, "canonical_key",
                        lambda w: normalized.append(w) or normalform.canonical_key(w))
    keys = rep.keys
    assert len(normalized) <= len(used)
    monkeypatch.setattr(hurwitz, "_TABLES", {})
    assert orbit_explore(fact(3, "1", "2", "1 2 -1"), size_cap=5).keys == keys


def reference_neighbors(w):
    """Every rewrite `apply_step` accepts, position by position, forward first."""
    out = []
    for i in range(len(w) - 1):
        for direction in (1, -1):
            step = (i + 1, direction)
            try:
                out.append((apply_step(w, step), step))
            except InputError:
                pass
    return out


def commute(x, y):
    """Four distinct ends, on disjoint or nested chords: the chords do not cross."""
    return len({x.t, x.s, y.t, y.s}) == 4 and (x.s > y.t or y.s > x.t
                                                or x.t > y.t > y.s > x.s
                                                or y.t > x.t > x.s > y.s)


@pytest.mark.parametrize("n", range(3, 8))
def test_the_packed_pair_table_agrees_with_classify_pair_and_apply_step(n):
    gens, pairs = all_generators(n), _letter_table(n)[1]
    index = {g: i for i, g in enumerate(gens)}
    want = {}
    for t, s, r in itertools.combinations(range(n, 0, -1), 3):
        forms = chain_forms(n, t, s, r)
        # R^1 walks the forms A -> B -> C -> A, R^-1 walks them back.
        for here, there, back in ("ABC", "BCA", "CAB"):
            want[index[forms[here][0]], index[forms[here][1]]] = [
                ((index[forms[to][0]], index[forms[to][1]]), direction)
                for to, direction in ((there, 1), (back, -1))]
    for x in gens:
        for y in gens:
            if commute(x, y):
                want[index[x], index[y]] = [((index[y], index[x]), 1)]
    for x in gens:
        for y in gens:
            got = [(tuple(_decode(p)), d) for p, d in pairs[_encode((index[x], index[y]))]]
            assert got == want.get((index[x], index[y]), []), (x, y)
            assert (not got) == (classify_pair(x, y) is PairClass.INTERLEAVED)
            assert got == [((index[nb.letters[0]], index[nb.letters[1]]), d)
                           for nb, (_, d) in reference_neighbors(BandWord(n, (x, y)))]


def test_neighbors_match_the_reference_on_whole_words():
    rng = random.Random(3000)
    rewritten = 0
    for n in range(3, 8):
        gens = all_generators(n)
        for length in range(10):
            for _ in range(20):
                w = BandWord(n, tuple(rng.choice(gens) for _ in range(length)))
                got = neighbors(w)
                assert list(got) == reference_neighbors(w), w
                rewritten += len({position for _, (position, _) in got}) > 1
    assert rewritten > 0


def test_packed_letters_unpack_to_all_generators_index_by_index():
    for n in range(2, 13):
        letters, gens = _letter_table.__wrapped__(n)[0], all_generators(n)
        assert [letters[k] for k in range(len(gens))] == list(gens)
        assert tuple(_decode(rewriting._pack(gens))) == tuple(range(len(gens)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_words_unpack_and_sort_as_their_letters_do(data):
    n = data.draw(st.integers(3, 8))
    letter = st.sampled_from(all_generators(n))
    words = data.draw(st.lists(st.lists(letter, max_size=8).map(tuple), min_size=1, max_size=12))
    packed = [rewriting._pack(w) for w in words]
    assert [rewriting.unpack(n, p) for p in packed] == [BandWord(n, w) for w in words]
    # Code-point order is (t, s) order, so sorted closures and frontiers keep their order.
    by_letters = sorted(words, key=lambda w: [(a.t, a.s) for a in w])
    assert sorted(packed) == [rewriting._pack(w) for w in by_letters]


def test_factor_table_states_decode_to_the_ids_of_the_kept_words(monkeypatch):
    monkeypatch.setattr(hurwitz, "_TABLES", {})  # each orbit starts a table as this one does
    key = normalform.canonical_key
    for n in (3, 4, 5):
        f = walk(standard_factorization(n), random.Random(n), 3)
        f = Factorization(n, f.factors + f.factors[::2])  # some factors twice
        table = hurwitz._FactorTable(n)
        state = table.state(f)
        ids = tuple(_decode(state))
        assert [key(table.words[i]) for i in ids] == list(f.factor_keys)
        assert set(ids) == set(range(len(table.words))) == set(range(len(set(f.factor_keys))))
        assert table.state(f) == state == _encode(ids)
        rep = orbit_explore(f, size_cap=200)
        assert rep.states[0] == state and len(set(rep.states)) == rep.visited == 200
        for s in rep.states:
            assert len(s) == len(f) and max(_decode(s)) < len(rep.words)


def test_the_pair_table_fills_only_the_pairs_a_search_looks_up(capsys):
    _letter_table.cache_clear()
    assert len(equivalence_class(parse_band_word("2:1", 40)).words) == 1
    assert len(_letter_table(40)[1]) == 0
    assert len(equivalence_class(parse_band_word("3:2 2:1", 40)).words) == 3
    assert len(_letter_table(40)[1]) == 3
    # On many strands the tables hold only what the search meets, not C(n,2) letters.
    assert cli.main(["rewrite-class", "--strands", "1500", "2:1"]) == 0
    assert capsys.readouterr().out == "size=1 truncated=False\n2:1\n"
    assert len(_letter_table(1500)[0]) == 1 and len(_letter_table(1500)[1]) == 0


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
    """The shortest relation path, its steps read as moves.

    Comparing moves compares steps: a step is the (position, direction)
    of its move, and at a given position of a given word the direction
    picks exactly one rewrite.
    """
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
                    return "found", tuple(Move(*step) for step in steps[::-1]), len(parents), capped
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
            res = hurwitz_path_positive(start, end, size_cap)
            got = (res.status, res.moves, res.visited, res.truncated)
            assert got == reference_relation_path(start, end, size_cap), (start, end, size_cap)
            statuses.add(res.status)
    other = parse_band_word("2:1 3:2 2:1 3:2 2:1 3:1", 3)
    res = hurwitz_path_positive(twist_word(3), other, 10**6)
    assert (res.status, res.moves, res.visited, res.truncated) == reference_relation_path(
        twist_word(3), other, 10**6)
    statuses.add(res.status)
    assert closures == {True, False}
    assert statuses == {"found", "inconclusive", "not_equal"}


# -- A full tree stops growing --------------------------------------------------


@pytest.fixture
def watched(monkeypatch):
    """Every SearchTree the searches build, counting its pair lookups made
    before ([0]) and after ([1]) any tree first turned a state away."""
    trees = []

    class Watched(SearchTree):
        def __init__(self, root, pairs):
            def counted(pair):
                self.lookups[any(t.capped for t in trees)] += 1
                return pairs(pair)

            super().__init__(root, counted)
            self.lookups = [0, 0]
            trees.append(self)

    monkeypatch.setattr(hurwitz, "SearchTree", Watched)
    monkeypatch.setattr(rewriting, "SearchTree", Watched)
    return trees


@pytest.mark.parametrize("search", [
    lambda: orbit_explore(standard_factorization(3), size_cap=30).truncated,
    lambda: orbit_explore(fact(4, "1", "3", "2"), depth_cap=3, size_cap=15).truncated,
    lambda: closure_tree(twist_word(3), 40).capped,
    lambda: find_path(standard_factorization(3),
                      conjugated_factorization(3, parse_word("1 1 2", 3)), size_cap=30).truncated,
    lambda: hurwitz_path_positive(
        twist_word(3), parse_band_word("2:1 3:2 2:1 3:2 2:1 3:1", 3), 20).truncated,
], ids=["orbit", "orbit-depth", "closure", "find-path", "positive-path"])
def test_no_pair_is_looked_up_once_a_cap_turns_a_state_away(watched, search):
    assert search()
    assert watched and sum(t.lookups[0] for t in watched) > 0
    assert [t.lookups[1] for t in watched] == [0] * len(watched)
