"""End-to-end acceptance checks, one test per numbered criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass or fail
line per criterion.  Pinned constants (class counts, orbit sizes, path
lengths, visit counts) were derived by two independent routes before
being frozen here; the helpers for criteria 3 through 6 return their
results as canonical JSON strings so criterion 10 can re-run them and
compare bytes.
"""

import itertools
import json
import random
import time

from braidkit.bands import (
    BandWord,
    Factorization,
    all_generators,
    band_factorization,
    conjugated_factorization,
    delta_squared_word,
    expand_word,
    parse_band_word,
    standard_factorization,
)
from braidkit.freegroup import action_key
from braidkit.hurwitz import Move, apply_move, apply_sequence, find_path, move_to_int
from braidkit.normalform import canonical_key
from braidkit.planar import (
    CombMap,
    Edge,
    Vertex,
    band_subgraph_map,
    check_semiframe,
    delete_edge,
    trace_faces,
)
from braidkit.rewriting import equivalence_class, hurwitz_path_positive, neighbors
from braidkit.verify import suite_centrality, suite_relations
from braidkit.words import BraidWord, exponent_sum, parse_word


def _random_word(rng, n, max_len):
    length = rng.randint(0, max_len)
    return BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice([-1, 1])) for _ in range(length)))


def _positive_partition_payload() -> str:
    """Positive band words on 3 strands up to length 4, partitioned twice.

    The rewrite rules preserve word length and the corpus is closed
    under them, so the reachability classes must coincide with the
    classes of the braid-equality partition.
    """
    gens = all_generators(3)
    words = [BandWord(3, combo) for length in range(5) for combo in itertools.product(gens, repeat=length)]
    index = {str(w): i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, w in enumerate(words):
        for nb, _step in neighbors(w):
            a, b = find(i), find(index[str(nb)])
            if a != b:
                parent[a] = b
    by_root = {}
    for i in range(len(words)):
        by_root.setdefault(find(i), set()).add(i)
    by_key = {}
    for i, w in enumerate(words):
        by_key.setdefault(canonical_key(expand_word(w)), set()).add(i)
    assert sorted(map(sorted, by_root.values())) == sorted(map(sorted, by_key.values()))

    chain_class = equivalence_class(parse_band_word("3:2 2:1", 3))
    assert not chain_class.truncated
    payload = {
        "corpus": len(words),
        "classes": len(by_root),
        "sizes": sorted(len(g) for g in by_root.values()),
        "chainPairClass": sorted(str(w) for w in chain_class.words),
    }
    return json.dumps(payload, sort_keys=True)


def _rewrite_walk_payload() -> str:
    """Seeded random rewrite walks on 4 strands, compiled back to moves.

    Each trial rewrites a length-6 positive word by ten random relation
    steps, asks the search for a move sequence between the endpoints,
    and replays it with the product key checked after every move.
    """
    rng = random.Random(1729)
    gens = all_generators(4)
    visited_total = 0
    max_moves = 0
    for _trial in range(100):
        start = BandWord(4, tuple(rng.choice(gens) for _ in range(6)))
        end = start
        for _step in range(10):
            options = neighbors(end)
            if options:
                end = rng.choice(options)[0]
        res = hurwitz_path_positive(start, end)
        assert res.status == "found"
        f = band_factorization(start)
        key = f.product_key
        for m in res.moves:
            f = apply_move(f, m)
            assert f.product_key == key
        assert f.factor_keys == band_factorization(end).factor_keys
        visited_total += res.visited
        max_moves = max(max_moves, len(res.moves))
    payload = {"trials": 100, "visitedTotal": visited_total, "maxMoves": max_moves}
    return json.dumps(payload, sort_keys=True)


def _full_twist_closure_payload() -> str:
    """The rewrite closure of the standard full-twist band word on 3 strands.

    Every member must still spell the full twist, and every member must
    be reachable by a compiled move sequence from the standard word.
    """
    std = parse_band_word("2:1 3:2 2:1 3:2 2:1 3:2", 3)
    closure = equivalence_class(std)
    twist_key = canonical_key(delta_squared_word(3))
    max_path = 0
    for member in closure.words:
        assert canonical_key(expand_word(member)) == twist_key
        res = hurwitz_path_positive(member, std)
        assert res.status == "found"
        replayed = apply_sequence(band_factorization(member), res.moves)
        assert replayed.factor_keys == band_factorization(std).factor_keys
        max_path = max(max_path, len(res.moves))
    payload = {
        "size": len(closure.words),
        "truncated": closure.truncated,
        "maxPath": max_path,
    }
    return json.dumps(payload, sort_keys=True)


def _conjugated_split_payload() -> str:
    """Move sequences from the standard full-twist split to conjugated ones."""
    source = standard_factorization(3)
    instances = []
    for name in ("1", "2"):
        target = conjugated_factorization(3, parse_word(name, 3))
        res = find_path(source, target, depth_cap=8, size_cap=5000)
        assert res.status == "found"
        assert not res.truncated
        replayed = apply_sequence(source, res.moves)
        assert replayed.factor_keys == target.factor_keys
        instances.append(
            {
                "conjugator": name,
                "moves": [move_to_int(m) for m in res.moves],
                "visited": res.visited,
            }
        )
    return json.dumps({"instances": instances}, sort_keys=True)


def test_criterion_01_relation_catalog():
    expected = {3: (1, 0), 4: (4, 2), 5: (10, 10), 6: (20, 30)}
    started = time.monotonic()
    for n, (triples, commuting) in expected.items():
        report = suite_relations(n)
        assert report["ok"], report["failures"]
        assert report["chainTriples"] == triples
        assert report["commutingPairs"] == commuting
        assert report["checks"] == 2 * triples + commuting
    assert time.monotonic() - started < 10.0


def test_criterion_02_equality_routes_agree():
    letters = ((1, 1), (1, -1), (2, 1), (2, -1))
    words = [
        BraidWord(3, combo)
        for length in range(7)
        for combo in itertools.product(letters, repeat=length)
    ]
    assert len(words) == 5461
    nf_keys = [canonical_key(w) for w in words]
    act_keys = [action_key(w) for w in words]
    assert len(set(nf_keys)) == 577
    assert len(set(act_keys)) == 577
    by_nf = {}
    by_act = {}
    for i, (a, b) in enumerate(zip(nf_keys, act_keys)):
        by_nf.setdefault(a, set()).add(i)
        by_act.setdefault(b, set()).add(i)
    assert sorted(map(sorted, by_nf.values())) == sorted(map(sorted, by_act.values()))
    rng = random.Random(1729)
    for _ in range(100000):
        i = rng.randrange(len(words))
        j = rng.randrange(len(words))
        assert (nf_keys[i] == nf_keys[j]) == (act_keys[i] == act_keys[j])


def test_criterion_03_positive_word_partition():
    payload = json.loads(_positive_partition_payload())
    assert payload["corpus"] == 121
    assert payload["classes"] == 57
    assert len(payload["chainPairClass"]) == 3
    assert "3:2 2:1" in payload["chainPairClass"]


def test_criterion_04_rewrite_walks_compile():
    payload = json.loads(_rewrite_walk_payload())
    assert payload["trials"] == 100
    assert payload["maxMoves"] <= 10


def test_criterion_05_full_twist_closure():
    payload = json.loads(_full_twist_closure_payload())
    assert payload["size"] == 87
    assert payload["truncated"] is False
    assert payload["maxPath"] == 8


def test_criterion_06_conjugated_split_paths():
    payload = json.loads(_conjugated_split_payload())
    by_name = {inst["conjugator"]: inst for inst in payload["instances"]}
    assert len(by_name["1"]["moves"]) == 4
    assert len(by_name["2"]["moves"]) == 4
    assert by_name["1"]["visited"] == 86
    assert by_name["2"]["visited"] == 77


def test_criterion_07_move_axioms():
    rng = random.Random(1729)
    for _trial in range(1000):
        n = rng.choice([2, 3, 4])
        size = rng.randint(4, 6)
        f = Factorization(n, tuple(_random_word(rng, n, 4) for _ in range(size)))
        k = rng.randint(1, size - 1)
        keys = f.factor_keys
        assert apply_move(apply_move(f, Move(k, 1)), Move(k, -1)).factor_keys == keys
        if k + 1 <= size - 1:
            a = apply_sequence(f, [Move(k, 1), Move(k + 1, 1), Move(k, 1)])
            b = apply_sequence(f, [Move(k + 1, 1), Move(k, 1), Move(k + 1, 1)])
            assert a.factor_keys == b.factor_keys
        if k + 2 <= size - 1:
            a = apply_sequence(f, [Move(k, 1), Move(k + 2, 1)])
            b = apply_sequence(f, [Move(k + 2, 1), Move(k, 1)])
            assert a.factor_keys == b.factor_keys
    for _trial in range(1000):
        n = rng.choice([2, 3, 4])
        size = rng.randint(3, 4)
        f = Factorization(n, tuple(_random_word(rng, n, 3) for _ in range(size)))
        key = f.product_key
        moves = [Move(rng.randint(1, size - 1), rng.choice([-1, 1])) for _ in range(10)]
        assert apply_sequence(f, moves).product_key == key


def test_criterion_08_full_twist_is_central():
    for n in range(2, 7):
        report = suite_centrality(n)
        assert report["ok"], report["failures"]
        assert exponent_sum(delta_squared_word(n)) == n * (n - 1)
    for n in range(3, 7):
        assert len(all_generators(n)) == n * (n - 1) // 2


def test_criterion_09_semiframe_maps():
    from braidkit.bands import BandGenerator

    for n in range(3, 9):
        frame = band_subgraph_map(n, [BandGenerator(n, i + 1, i) for i in range(1, n)])
        assert check_semiframe(frame).accepted

    full4 = band_subgraph_map(4, all_generators(4))
    assert sum(1 for v in full4.vertices if v.kind == "crossing") == 1
    assert len(trace_faces(full4)) == 5
    assert check_semiframe(full4).accepted

    full5 = band_subgraph_map(5, all_generators(5))
    assert sum(1 for v in full5.vertices if v.kind == "crossing") == 5
    assert len(trace_faces(full5)) == 12
    assert check_semiframe(full5).accepted

    wheel = CombMap(
        tuple(Vertex(f"p{i}", "puncture") for i in (1, 2, 3, 4)),
        (
            Edge("a", ("p1", "p2")),
            Edge("b", ("p2", "p3")),
            Edge("c", ("p3", "p1")),
            Edge("d", ("p4", "p1")),
            Edge("e", ("p4", "p2")),
            Edge("f", ("p4", "p3")),
        ),
        {
            "p1": ("a:0", "d:1", "c:1"),
            "p2": ("b:0", "e:1", "a:1"),
            "p3": ("c:0", "f:1", "b:1"),
            "p4": ("f:0", "d:0", "e:0"),
        },
    )
    assert not check_semiframe(wheel).accepted

    rng = random.Random(1729)
    for _trial in range(500):
        n = rng.randint(3, 6)
        gens = all_generators(n)
        m = band_subgraph_map(n, rng.sample(gens, rng.randint(1, len(gens))))
        faces = trace_faces(m)
        walked = sorted(d for f in faces for d in f.darts)
        assert walked == sorted(d for ring in m.rotations.values() for d in ring)
        assert check_semiframe(m).accepted

    rng = random.Random(271828)
    done = 0
    attempts = 0
    while done < 200 and attempts < 1000:
        attempts += 1
        n = rng.randint(3, 6)
        gens = all_generators(n)
        m = band_subgraph_map(n, rng.sample(gens, rng.randint(1, len(gens))))
        eligible = [
            e.id for e in m.edges
            if e.ends[0].startswith("p") and e.ends[1].startswith("p")
        ]
        if not eligible:
            continue
        out = delete_edge(m, rng.choice(eligible))
        assert out.mode == "free"
        assert check_semiframe(out).accepted
        done += 1
    assert done == 200


def test_criterion_10_deterministic_reruns():
    for helper in (
        _positive_partition_payload,
        _rewrite_walk_payload,
        _full_twist_closure_payload,
        _conjugated_split_payload,
    ):
        assert helper() == helper()
