"""Exact CLI output pinned against saved golden data.

Each case runs `braidkit.cli.main` in-process and compares stdout and
the exit code byte for byte with `golden_cli.json`.  The cases cover
every `verify` suite at 3 strands in both formats, the two 4-strand
suites that stop at a cap, every status of `hurwitz-path` and
`positive-path`, capped and uncapped `orbit --keys` and
`rewrite-class`, and `semiframe` on band maps at n = 4-8 and on a
rejected wheel map.  The argv of a `semiframe` case carries the map
JSON that `band_subgraph_map` drew, so a change to the drawn maps fails
here too.

Regenerate the data only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from braidkit.bands import BandGenerator, all_generators
from braidkit.cli import main
from braidkit.planar import band_subgraph_map, map_to_json

GOLDEN = Path(__file__).with_name("golden_cli.json")
FORMATS = ("text", "json")
SUITES = ("relations", "centrality", "chain-rules", "embedding",
          "twist-closure", "conjugated-split", "action-axioms")


def fact(n, *factors):
    return json.dumps({"strands": n, "factors": list(factors)})


STD3 = fact(3, "1", "2", "1", "2", "1", "2")
PAIR = fact(3, "1", "2")
WHEEL = json.dumps({
    "vertices": [{"id": f"p{i}", "kind": "puncture"} for i in (1, 2, 3, 4)],
    "edges": [{"id": e, "ends": ends} for e, ends in (
        ("a", ["p1", "p2"]), ("b", ["p2", "p3"]), ("c", ["p3", "p1"]),
        ("d", ["p4", "p1"]), ("e", ["p4", "p2"]), ("f", ["p4", "p3"]))],
    "rotations": {"p1": ["a:0", "d:1", "c:1"], "p2": ["b:0", "e:1", "a:1"],
                  "p3": ["c:0", "f:1", "b:1"], "p4": ["f:0", "d:0", "e:0"]},
    "mode": "free",
})


def band_map(n, gens):
    return json.dumps(map_to_json(band_subgraph_map(n, gens)), sort_keys=True)


def semiframe_maps():
    """(label, map JSON): all generators at n = 4-8, plus seeded subsets."""
    rng = random.Random(2024)
    out = []
    for n in range(4, 9):
        gens = all_generators(n)
        out.append((f"n{n}-all", band_map(n, gens)))
        for k in range(2):
            subset = [g for g in gens if rng.random() < 0.5]
            out.append((f"n{n}-subset{k}", band_map(n, subset)))
    frame = [BandGenerator(6, j + 1, j) for j in range(1, 6)]
    out.append(("n6-frame", band_map(6, frame)))
    out.append(("wheel", WHEEL))
    return out


def cases():
    """(name, argv) for every pinned invocation, in a fixed order."""
    out = []

    def both(name, argv):
        for f in FORMATS:
            out.append((f"{name}/{f}", argv[:1] + ["--format", f] + argv[1:]))

    for suite in SUITES:
        both(f"verify-{suite}-3", ["verify", suite, "--strands", "3"])
    both("verify-all-3", ["verify", "--strands", "3"])
    both("verify-conjugated-split-4", ["verify", "conjugated-split", "--strands", "4"])
    both("verify-twist-closure-4-capped",
         ["verify", "twist-closure", "--strands", "4", "--size-cap", "1000"])
    both("verify-conjugated-split-3-depth1",
         ["verify", "conjugated-split", "--strands", "3", "--depth-cap", "1"])

    both("hurwitz-path-found", ["hurwitz-path", PAIR, fact(3, "1 2 -1", "1")])
    both("hurwitz-path-found-std3",
         ["hurwitz-path", STD3, fact(3, "1", "-1 2 1", "1", "-1 2 1", "1", "-1 2 1")])
    both("hurwitz-path-not-comparable", ["hurwitz-path", PAIR, fact(3, "1", "1")])
    both("hurwitz-path-capped", ["hurwitz-path", "--depth-cap", "0", PAIR, fact(3, "1 2 -1", "1")])
    both("hurwitz-path-size-capped",
         ["hurwitz-path", "--size-cap", "30", STD3, fact(3, "2", "1", "2", "1", "2", "1")])
    both("hurwitz-path-exhausted", ["hurwitz-path", fact(3, "1 2", ""), PAIR])

    both("positive-path-found", ["positive-path", "--strands", "3", "3:2 2:1", "3:1 3:2"])
    both("positive-path-found-4",
         ["positive-path", "--strands", "4", "2:1 3:2 4:3 2:1 3:2 4:3", "2:1 2:1 2:1 2:1 3:1 4:2"])
    both("positive-path-not-equal", ["positive-path", "--strands", "3", "3:2 2:1", "2:1 3:2"])
    both("positive-path-inconclusive",
         ["positive-path", "--strands", "3", "--size-cap", "1", "3:2 2:1", "2:1 3:1"])

    both("orbit-keys", ["orbit", "--keys", PAIR])
    both("orbit-keys-std3-capped", ["orbit", "--keys", "--size-cap", "40", STD3])
    both("orbit-keys-std3-depth2", ["orbit", "--keys", "--depth-cap", "2", STD3])
    both("orbit-n4", ["orbit", "--size-cap", "300", fact(4, "1", "2", "3", "1", "2", "1")])

    both("rewrite-class", ["rewrite-class", "--strands", "3", "3:2 2:1"])
    both("rewrite-class-twist-3", ["rewrite-class", "--strands", "3", "2:1 3:2 2:1 3:2 2:1 3:2"])
    both("rewrite-class-capped", ["rewrite-class", "--strands", "3", "--size-cap", "2", "3:2 2:1"])
    both("rewrite-class-4", ["rewrite-class", "--strands", "4", "2:1 3:2 4:3 2:1 3:2 4:3"])
    both("rewrite-class-4-capped",
         ["rewrite-class", "--strands", "4", "--size-cap", "150", " ".join(["2:1 3:2 4:3"] * 4)])

    for label, m in semiframe_maps():
        both(f"semiframe-{label}", ["semiframe", m])
    return out


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": buf.getvalue()}


CASES = cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_golden_data_covers_every_case(golden):
    assert [name for name, _ in CASES] == list(golden)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(golden, name, argv):
    assert run(argv) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    data = {name: run(argv) for name, argv in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}")
