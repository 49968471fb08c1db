import inspect
import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from braidkit import bands, cli, hurwitz, verify
from braidkit.cli import main
from braidkit.planar import map_to_json
from braidkit.verify import SUITE_NAMES
from child_env import child_env

FACT = json.dumps({"strands": 3, "factors": ["1", "2"]})
FACT_MOVED = json.dumps({"strands": 3, "factors": ["1 2 -1", "1"]})
STD3 = json.dumps({"strands": 3, "factors": ["1", "2"] * 3})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def triangle_json():
    return json.dumps(
        {
            "vertices": [
                {"id": "p1", "kind": "puncture"},
                {"id": "p2", "kind": "puncture"},
                {"id": "p3", "kind": "puncture"},
            ],
            "edges": [
                {"id": "a", "ends": ["p1", "p2"]},
                {"id": "b", "ends": ["p2", "p3"]},
                {"id": "c", "ends": ["p3", "p1"]},
            ],
            "rotations": {
                "p1": ["a:0", "c:1"],
                "p2": ["b:0", "a:1"],
                "p3": ["c:0", "b:1"],
            },
            "mode": "free",
        }
    )


def test_nf_json_payload(capsys):
    code, out, _ = run(capsys, "nf", "--strands", "3", "--format", "json", "1")
    assert code == 0
    assert json.loads(out) == {
        "strands": 3,
        "deltaPower": 0,
        "factors": [[2, 1, 3]],
        "canonicalLength": 1,
        "key": "3:0:2,1,3",
    }


def test_nf_half_twist_absorbed(capsys):
    code, out, _ = run(capsys, "nf", "--strands", "3", "--format", "json", "1 2 1")
    assert code == 0
    payload = json.loads(out)
    assert payload["deltaPower"] == 1
    assert payload["factors"] == []
    assert payload["key"] == "3:1:"


def test_eq_exit_codes(capsys):
    code, out, _ = run(capsys, "eq", "--strands", "3", "1 2 1", "2 1 2")
    assert (code, out.strip()) == (0, "equal")
    code, out, _ = run(capsys, "eq", "--strands", "3", "1", "2")
    assert (code, out.strip()) == (1, "not equal")


def test_conj(capsys):
    code, out, _ = run(capsys, "conj", "--strands", "3", "1", "2")
    assert (code, out.strip()) == (0, "-2 1 2")


def test_band_expand(capsys):
    code, out, _ = run(capsys, "band-expand", "--strands", "3", "3:1")
    assert (code, out.strip()) == (0, "2 1 -2")


def test_delta2(capsys):
    code, out, _ = run(capsys, "delta2", "--strands", "3")
    assert (code, out.strip()) == (0, "1 2 1 2 1 2")


def test_hurwitz_apply_inline(capsys):
    code, out, _ = run(capsys, "hurwitz-apply", "--format", "json", FACT, "[1]")
    assert code == 0
    payload = json.loads(out)
    assert payload["strands"] == 3
    assert payload["factors"] == ["1 2 -1", "1"]
    assert payload["productKey"]
    code, out, _ = run(capsys, "hurwitz-apply", FACT, "[1]")
    assert (code, out.strip().splitlines()) == (0, ["1: 1 2 -1", "2: 1"])


def test_hurwitz_apply_file_and_stdin(capsys, tmp_path, monkeypatch):
    path = tmp_path / "fact.json"
    path.write_text(FACT, encoding="utf-8")
    code, out, _ = run(capsys, "hurwitz-apply", str(path), "[1]")
    assert code == 0
    assert out.splitlines()[0] == "1: 1 2 -1"
    monkeypatch.setattr("sys.stdin", io.StringIO(FACT))
    code, out, _ = run(capsys, "hurwitz-apply", "-", "[1]")
    assert code == 0
    assert out.splitlines()[0] == "1: 1 2 -1"


def test_hurwitz_path_found(capsys):
    code, out, _ = run(capsys, "hurwitz-path", FACT, FACT_MOVED)
    assert (code, out.strip()) == (0, "found: 1")


def test_hurwitz_path_not_comparable(capsys):
    other = json.dumps({"strands": 3, "factors": ["1", "1"]})
    code, out, _ = run(capsys, "hurwitz-path", FACT, other)
    assert code == 1
    assert "not comparable" in out


def test_hurwitz_path_capped(capsys):
    code, out, _ = run(capsys, "hurwitz-path", "--depth-cap", "0", FACT, FACT_MOVED)
    assert code == 2
    assert "caps exhausted" in out


def test_hurwitz_path_orbit_exhausted(capsys):
    # An identity factor never turns into a generator, and the search
    # proves it by closing both orbits.
    src = json.dumps({"strands": 3, "factors": ["1 2", ""]})
    code, out, _ = run(capsys, "hurwitz-path", src, FACT)
    assert code == 1
    assert "orbit exhausted" in out


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", FACT)
    assert (code, out.strip()) == (0, "visited=3 truncated=False depths=1,2")
    code, out, _ = run(capsys, "orbit", "--size-cap", "2", FACT)
    assert code == 2


def test_orbit_json_deterministic(capsys):
    first = run(capsys, "orbit", "--keys", "--format", "json", FACT)
    second = run(capsys, "orbit", "--keys", "--format", "json", FACT)
    assert first == second
    payload = json.loads(first[1])
    assert payload["visited"] == 3
    assert len(payload["keys"]) == 3
    assert payload["depthCap"] is None


def spawn(argv, env=None, **options):
    """`braidkit` run in a new interpreter, killed after 120 s."""
    return subprocess.run([sys.executable, "-m", "braidkit.cli", *argv], capture_output=True,
                          text=True, env=child_env(**(env or {})), timeout=120, **options)


def run_process(*argv, **env):
    """Exit code and stdout of `braidkit` in a new interpreter."""
    proc = spawn(argv, env)
    return proc.returncode, proc.stdout


def cap_memory():
    # 1 GB of address space: a strand check that came too late fails
    # with MemoryError rather than filling the machine.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    ("nf", "--strands", str(10**21), "1"),
    ("delta2", "--strands", str(10**8)),
    ("hurwitz-apply", json.dumps({"strands": 10**6, "factors": ["1", "2"]}), "[1]"),
], ids=["nf", "delta2", "hurwitz-apply"])
def test_oversized_strand_counts_exit_3_at_once(argv):
    start = time.perf_counter()
    proc = spawn(argv, preexec_fn=cap_memory)
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: strand count must be at most 2048, got ")


# The standard 3-strand factorization of the full twist has an infinite
# orbit, so with no cap flags the searches must stop at a default cap and
# exit 2 (inconclusive).  Each runs in its own process, so the exit code is
# the process's own and the timeout bounds a hang.
@pytest.mark.parametrize("argv, first_line", [
    # The text line holds only counts, which need no keys built.
    (("orbit", STD3), "visited=50000 truncated=True depths=1,"),
    (("hurwitz-path", STD3,
      json.dumps({"strands": 3, "factors": ["1 1 1", "-1 -1", "2", "1", "2", "1 2"]})),
     "not found (caps exhausted)"),
    (("verify", "twist-closure", "--strands", "4"), "INCONCLUSIVE twist-closure (strands=4,"),
], ids=["orbit", "hurwitz-path", "verify-twist-closure-4"])
def test_default_caps_stop_unbounded_searches(argv, first_line):
    code, out = run_process(*argv)
    assert code == 2
    assert out.startswith(first_line)


def test_default_capped_orbit_prints_one_key_per_state():
    # A coordinate key that split one braid into two ids would repeat a key.
    code, out = run_process("orbit", "--format", "json", "--keys", STD3)
    assert code == 2
    payload = json.loads(out)
    keys = payload["keys"]
    assert (payload["visited"], len(keys), len(set(keys))) == (50_000,) * 3
    assert all(k.count(";") == 5 for k in keys)


def test_rewrite_class(capsys):
    code, out, _ = run(capsys, "rewrite-class", "--strands", "3", "3:2 2:1")
    assert code == 0
    assert out.splitlines()[0] == "size=3 truncated=False"
    code, _, _ = run(capsys, "rewrite-class", "--strands", "3", "--size-cap", "2", "3:2 2:1")
    assert code == 2


def test_positive_path(capsys):
    code, out, _ = run(capsys, "positive-path", "--strands", "3", "3:2 2:1", "3:1 3:2")
    assert (code, out.strip()) == (0, "found: 1")
    code, out, _ = run(capsys, "positive-path", "--strands", "3", "3:2 2:1", "2:1 3:2")
    assert code == 1
    assert "not equal" in out
    code, out, _ = run(
        capsys, "positive-path", "--strands", "3", "--size-cap", "1", "3:2 2:1", "2:1 3:1"
    )
    assert code == 2
    assert "inconclusive" in out


# Search states are strs, one code point per cell, so a cell stops at
# sys.maxunicode: band letters at a_{1494,334}, factor ids at 1,114,111.
@pytest.mark.parametrize("word, past", [
    ("1494:334", None),
    ("1493:1492 2:1", None),
    ("1494:335", "1494:335"),
    ("2000:1999 2:1", "2000:1999"),
    ("335:1 1494:1", "1494:335"),  # both fit; their chain rewrites need a_{1494,335}
])
def test_band_letters_stop_at_the_last_code_point(capsys, word, past):
    code, out, err = run(capsys, "rewrite-class", "--strands", "2000", word)
    if past is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (3, "")
        assert err == (f"error: band letter {past} is past a_{{1494,334}}, "
                       "the last letter a search can hold (one code point each)\n")


@pytest.mark.parametrize("room, factors, code", [
    (1, ["1", "1"], 0),  # the one factor takes the last id, sys.maxunicode
    (0, ["1", "1"], 3),
    (2, ["1", "2"], 3),  # the root fits; the first move's new factor does not
])
def test_factor_ids_stop_at_the_last_code_point(capsys, monkeypatch, room, factors, code):
    class Crowded(hurwitz._FactorTable):
        """A table with every id but the last `room` already taken."""

        def __init__(self, n):
            super().__init__(n)
            taken = sys.maxunicode + 1 - room
            self.words, self.inverses, self.vectors, self.inverse_vectors = (
                [None] * taken for _ in range(4))

    monkeypatch.setattr(hurwitz, "_FactorTable", Crowded)
    got, out, err = run(capsys, "orbit", json.dumps({"strands": 3, "factors": factors}))
    if code == 0:
        assert (got, out, err) == (0, "visited=1 truncated=False depths=1\n", "")
    else:
        assert (got, out) == (3, "")
        assert err == ("error: a search holds at most 1,114,112 distinct factors "
                       "(one code point each)\n")


def test_output_does_not_depend_on_the_hash_seed():
    # A str's hash is seeded per process, so no output may follow a hash
    # order; the golden cases all run in one process, under one seed.
    for argv in [
        ("rewrite-class", "--strands", "4", "2:1 3:2 4:3 2:1 3:2"),
        ("positive-path", "--strands", "4", "2:1 3:2 4:3 2:1 3:2", "3:2 4:3 2:1 3:2 4:3"),
        ("orbit", "--keys", "--format", "json", "--size-cap", "300",
         json.dumps({"strands": 4, "factors": ["1", "2", "3"] * 2})),
        ("verify", "twist-closure", "--strands", "3"),
    ]:
        first, second = (run_process(*argv, PYTHONHASHSEED=seed) for seed in ("1", "2"))
        assert first == second and first[1], argv


def test_semiframe_accept(capsys):
    code, out, _ = run(capsys, "semiframe", triangle_json())
    assert (code, out.strip()) == (0, "accepted witnesses=p1:0")


def test_semiframe_reject(capsys):
    from braidkit.planar import CombMap, Edge, Vertex

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
    code, out, _ = run(capsys, "semiframe", json.dumps(map_to_json(wheel)))
    assert code == 1
    assert out.startswith("rejected:")


def test_semiframe_malformed(capsys):
    code, _, err = run(capsys, "semiframe", '{"vertices": []}')
    assert code == 3
    assert "error:" in err


def test_verify_relations(capsys):
    code, out, _ = run(capsys, "verify", "--strands", "3", "relations")
    assert code == 0
    assert out.strip() == "PASS relations (strands=3, checks=2)"


def test_verify_json_deterministic(capsys):
    argv = ("verify", "--strands", "3", "--format", "json", "relations", "chain-rules")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    payload = json.loads(first[1])
    assert payload["ok"] is True
    assert [s["suite"] for s in payload["suites"]] == ["relations", "chain-rules"]


def test_verify_inconclusive(capsys):
    code, out, _ = run(capsys, "verify", "--strands", "3", "--size-cap", "1", "twist-closure")
    assert code == 2
    assert out.startswith("INCONCLUSIVE twist-closure")


def test_a_conclusive_failure_prints_fail_and_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(verify, "suite_relations",
                        lambda n: verify._report("relations", n, 2, ["a relation fails"]))
    argv = ("verify", "--size-cap", "1", "relations", "twist-closure")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.splitlines() == [
        "FAIL relations (strands=3, checks=2)",
        "  - a relation fails",
        "INCONCLUSIVE twist-closure (strands=3, checks=0)",
        "  - closure truncated before completing",
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    assert [(s["ok"], s["inconclusive"]) for s in payload["suites"]] == [
        (False, False), (False, True)]


def test_verify_unknown_suite(capsys):
    for argv in (["nonsense"], ["relations", "nonsense"], ["nonsense", "--strands", "1"]):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (3, "")
        assert "unknown suite 'nonsense'" in err


def test_verify_checks_every_name_before_any_suite_runs(capsys, monkeypatch):
    ran = []
    for name in SUITE_NAMES:
        fn = "suite_" + name.replace("-", "_")
        monkeypatch.setattr(verify, fn, lambda *args, fn=fn, **kwargs: ran.append(fn))
    code, out, err = run(capsys, "verify", "twist-closure", "nonsense", "--strands", "4")
    assert (code, out, ran) == (3, "", [])
    assert "unknown suite 'nonsense'" in err


def test_usage_errors_are_malformed_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eq", "--threads", "2", "1", "1"])
    assert exc.value.code == 3
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["nf", "--strands", "three", "1"])
    assert exc.value.code == 3
    assert "invalid int value" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["nf", "--help"])
    assert exc.value.code == 0


def test_zero_caps_reach_the_search(capsys):
    code, out, _ = run(capsys, "rewrite-class", "3:2 2:1", "--size-cap", "0")
    assert code == 2
    assert out.splitlines() == ["size=1 truncated=True", "3:2 2:1"]
    code, out, _ = run(capsys, "verify", "conjugated-split", "--depth-cap", "0")
    assert code == 2
    assert out.startswith("INCONCLUSIVE conjugated-split")


def test_an_omitted_cap_takes_the_search_default(capsys, monkeypatch):
    for search in (hurwitz.orbit_explore, hurwitz.find_path):
        caps = inspect.signature(search).parameters
        assert caps["size_cap"].default == hurwitz.DEFAULT_SIZE_CAP == 50_000
        assert caps["depth_cap"].default is None
    seen = []

    def spy(search):
        def spied(*args, **caps):
            seen.append(caps)
            return search(*args, **caps)
        return spied

    monkeypatch.setattr(cli, "orbit_explore", spy(cli.orbit_explore))
    monkeypatch.setattr(cli, "find_path", spy(cli.find_path))
    assert run(capsys, "orbit", FACT)[0] == 0
    assert run(capsys, "hurwitz-path", FACT, FACT_MOVED)[0] == 0
    assert seen == [{}, {}]
    seen.clear()
    zero = ("--size-cap", "0", "--depth-cap", "0")
    assert run(capsys, "orbit", *zero, FACT)[0] == 2
    assert run(capsys, "hurwitz-path", *zero, FACT, FACT_MOVED)[0] == 2
    assert seen == [{"depth_cap": 0, "size_cap": 0}] * 2


def test_orbit_builds_keys_only_when_it_prints_them(capsys, monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return real(w)

    # Keys are built through both bindings: `OrbitReport.keys` calls
    # hurwitz's, and `Factorization.factor_keys` (the replay check) bands'.
    real = hurwitz.canonical_key
    monkeypatch.setattr(hurwitz, "canonical_key", counted)
    monkeypatch.setattr(bands, "canonical_key", counted)
    std = json.dumps({"strands": 3, "factors": ["1", "2"] * 3})
    code, out, _ = run(capsys, "orbit", "--size-cap", "500", std)
    assert (code, out.split()[:2]) == (2, ["visited=500", "truncated=True"])
    assert len(calls) <= 4
    # Text output prints no keys, so --keys alone builds none either.
    calls.clear()
    code, text, _ = run(capsys, "orbit", "--size-cap", "500", "--keys", std)
    assert (code, text) == (2, out)
    assert len(calls) <= 4
    calls.clear()
    code, out, _ = run(capsys, "orbit", "--size-cap", "500", "--keys", "--format", "json", std)
    assert code == 2 and len(json.loads(out)["keys"]) == 500
    assert len(calls) > 4


def test_bad_word_is_an_input_error(capsys):
    code, _, err = run(capsys, "nf", "--strands", "3", "1 x")
    assert code == 3
    assert err.startswith("error:")
    code, _, err = run(capsys, "nf", "--strands", "3", "3")
    assert code == 3


def test_bad_json_is_an_input_error(capsys):
    code, _, err = run(capsys, "orbit", "{not json")
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("source", ["inline", "file", "stdin"])
def test_json_nested_past_the_recursion_limit_is_an_input_error(
        capsys, monkeypatch, tmp_path, source):
    deep = "[" * 100_000
    arg = deep
    if source == "file":
        arg = str(tmp_path / "deep.json")
        (tmp_path / "deep.json").write_text(deep, encoding="utf-8")
    elif source == "stdin":
        arg = "-"
        monkeypatch.setattr("sys.stdin", io.StringIO(deep))
    code, out, err = run(capsys, "orbit", arg)
    assert code == 3 and out == ""
    assert err.startswith("error: JSON nested too deeply") and err.count("\n") == 1


def test_usage_error_raises_systemexit():
    with pytest.raises(SystemExit):
        main([])


ONE_PUNCTURE = {"vertices": [{"id": "p1", "kind": "puncture"}], "edges": [],
                "rotations": {}, "mode": "fixed"}
ONE_EDGE = {"vertices": [{"id": "a", "kind": "puncture"}, {"id": "b", "kind": "puncture"}],
            "edges": [{"id": "e", "ends": ["a", "b"]}],
            "rotations": {"a": ["e:0"], "b": ["e:1"]}}


@pytest.mark.parametrize("argv", [
    ("orbit", '{"strands": 3, "factors": [1]}'),
    ("orbit", '{"strands": 3, "factors": "12"}'),
    ("hurwitz-apply", FACT, "[true]"),
    ("hurwitz-apply", '{"strands": 3, "factors": ["1", "2", "1"]}', "[1.5]"),
    ("semiframe", json.dumps(dict(ONE_PUNCTURE, outer={"p1": "x"}))),
    ("semiframe", '{"vertices": [{"id": [1], "kind": "puncture"}], "edges": []}'),
    ("semiframe", json.dumps(dict(ONE_PUNCTURE, rotations={"p1": [["a", 0]]}))),
    ("semiframe", json.dumps(dict(ONE_EDGE, edges=[{"id": "e", "ends": "ab"}]))),
    ("semiframe", json.dumps(dict(ONE_EDGE, edges=[{"id": "e", "ends": ["a", "b", "zz"]}]))),
    ("semiframe", json.dumps(dict(ONE_EDGE, mode="fixed", outer={"a": 0, "ghost": 3}))),
    ("orbit", '{"strands": 0, "factors": []}'),
    ("hurwitz-path", '{"strands": 1, "factors": []}', '{"strands": 1, "factors": []}'),
    ("hurwitz-apply", '{"strands": 1, "factors": []}', "[]"),
    ("semiframe", '{"vertices": {}, "edges": {}}'),
    ("semiframe", '{"vertices": [], "edges": ""}'),
    ("semiframe", json.dumps(dict(ONE_PUNCTURE, rotations={"p1": ""}, mode="free"))),
    ("orbit", '{"strands": "3", "factors": []}'),
    ("orbit", '{"strands": true, "factors": []}'),
    ("orbit", '{"strands": 3.0, "factors": []}'),
])
def test_malformed_json_values_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("strands", ["0", "1"])
@pytest.mark.parametrize("argv", [
    ("rewrite-class", ""), ("positive-path", "", ""), ("band-expand", ""),
    ("nf", ""), ("eq", "", ""), ("conj", "", ""), ("delta2",),
    *(("verify", suite) for suite in SUITE_NAMES),
], ids=lambda argv: "-".join(filter(None, argv)))
def test_fewer_than_two_strands_is_malformed_input(capsys, argv, strands):
    code, out, err = run(capsys, *argv, "--strands", strands)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_a_semiframe_map_is_validated_once(capsys, monkeypatch):
    from braidkit import planar
    from braidkit.bands import all_generators

    data = json.dumps(map_to_json(planar.band_subgraph_map(6, all_generators(6))))
    calls = []

    def counted(m):
        calls.append(m)
        return real(m)

    real = planar.validate_map
    monkeypatch.setattr(planar, "validate_map", counted)
    code, out, _ = run(capsys, "semiframe", data)
    assert code == 0 and out.startswith("accepted")
    assert len(calls) == 1


def test_a_failed_replay_exits_inconclusive(capsys, monkeypatch):
    monkeypatch.setattr("braidkit.hurwitz.apply_sequence", lambda f, moves: f)
    code, out, err = run(capsys, "hurwitz-path", FACT, FACT_MOVED)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_a_crash_exits_inconclusive_not_negative(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("braidkit.cli.cmd_eq", crash)
    code, out, err = run(capsys, "eq", "1", "1")
    assert code == 2
    assert out == ""
    assert err == "error: internal error: RuntimeError('boom')\n"


def test_a_value_error_that_no_input_check_raised_is_a_fault(capsys, monkeypatch):
    # Only InputError means malformed input; a ValueError from inside, such as
    # chr() past sys.maxunicode, is a fault.
    def crash(args):
        raise ValueError("chr() arg not in range(0x110000)")

    monkeypatch.setattr("braidkit.cli.cmd_orbit", crash)
    code, out, err = run(capsys, "orbit", FACT)
    assert code == 2
    assert out == ""
    assert err == "error: internal error: ValueError('chr() arg not in range(0x110000)')\n"


def test_nf_computes_the_normal_form_once(capsys, monkeypatch):
    from braidkit import cli, normalform

    calls = []

    def counted(w):
        calls.append(w)
        return real(w)

    real = normalform.normal_form
    normalform._cached_key.cache_clear()
    monkeypatch.setattr(normalform, "normal_form", counted)
    monkeypatch.setattr(cli, "normal_form", counted)
    code, out, err = run(capsys, "nf", "--strands", "4", "1 2 -3 1 2 2 -1")
    assert code == 0 and err == ""
    assert out == "4:-1:1,4,3,2|2,4,1,3|2,1,3,4|3,1,2,4\n"
    assert len(calls) == 1


# -- One parser per process ----------------------------------------------------


def test_options_do_not_leak_into_later_calls(capsys):
    code, out, _ = run(capsys, "orbit", "--keys", "--format", "json", FACT)
    assert code == 0 and "keys" in json.loads(out)
    code, out, _ = run(capsys, "orbit", FACT)
    assert (code, out) == (0, "visited=3 truncated=False depths=1,2\n")
    code, out, _ = run(capsys, "orbit", "--size-cap", "1", FACT)
    assert (code, out) == (2, "visited=1 truncated=True depths=1\n")
    code, out, _ = run(capsys, "orbit", FACT)
    assert (code, out) == (0, "visited=3 truncated=False depths=1,2\n")
    with pytest.raises(SystemExit) as exc:
        main(["nf", "--strands", "three", "1"])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert [line.split()[0] for line in err.splitlines()] == ["usage:", "braidkit"]


def test_a_handler_patched_after_the_first_call_takes_effect(capsys, monkeypatch):
    from braidkit import cli

    assert run(capsys, "eq", "1", "1")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_eq", lambda args: seen.append(args.word1) or (7, {}, ""))
    assert run(capsys, "eq", "2", "1")[0] == 7
    assert seen == ["2"]


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    from braidkit import cli

    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli.build_parser.cache_clear()
    try:
        for i in range(20):
            assert run(capsys, "delta2", "--strands", str(3 + i % 4))[0] == 0
    finally:
        cli.build_parser.cache_clear()
    assert built.count("braidkit") == 1


def test_a_failed_write_still_exits_malformed(capsys, monkeypatch):
    import errno
    import os
    import sys

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["delta2"]) == 3
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
