"""The three workloads: seeded rounds of operations, each with its check.

A round is a list of `Op`s built from one random generator.  Every
round of a workload has the same make-up (the same operation kinds and
parameter ranges, in the same numbers), so a run of whole rounds always
attempts the same mix, whatever the seed.  `bk` is the freshly imported
package, with its modules as attributes; operations look functions up
on the modules when they run, so the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import reference as ref
from reference import Failed, Wrong, expect


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]


# -- word-problem -----------------------------------------------------------------

# Normal-form route: quadratic in L and steep in n; L grows by about
# sqrt(2) per step, so neighbouring cells differ by about 2x in cost and
# the median and 90th percentile fall inside runs of similar operations,
# not on a jump between two far-apart cells.  Free-group route:
# exponential in L with a heavy tail over random words; from L = 20 on,
# single words now and then take tens to hundreds of milliseconds and
# megabytes, which made the percentiles and peak RSS follow the seed.
NF_GRID = [(n, L) for n in (3, 4, 6, 8) for L in (10, 14, 20, 28, 40, 56, 80)]
FG_GRID = [(n, L) for n in (3, 4, 5) for L in (8, 12, 16)]
PAIR_KINDS = ("equal", "exponent", "pure")


def word_pair(rng, n: int, length: int, kind: str, edits: int, seen: set):
    """Two distinct words whose equality is known from the construction.

    "equal": the second word is the first after braid relations, far
    commutations and free insertions.  "exponent": one letter of the
    first word is inverted before disguising, so the exponent sums differ.
    "pure": the nontrivial pure braid s_i s_{i+1}^2 s_i^-1 s_{i+1}^-2 is
    inserted before disguising, so exponent sum and permutation agree but
    the braids differ.
    """
    while True:
        u = ref.random_reduced(rng, n, length)
        base = u
        if kind == "exponent":
            k = rng.randrange(length)
            base = u[:k] + ((u[k][0], -u[k][1]),) + u[k + 1:]
        elif kind == "pure":
            k = rng.randint(0, length)
            base = u[:k] + ref.pure_commutator(rng.randint(1, n - 2)) + u[k:]
        v = ref.disguise(rng, n, base, edits)
        if u not in seen and v not in seen and u != v:
            seen.update((u, v))
            return u, v, kind == "equal"


def word_problem_round(bk, rng) -> list:
    words, nf, fg = bk.words, bk.normalform, bk.freegroup
    seen: set = set()
    ops = []

    def verdict_check(expected, label):
        def check(result):
            expect(result is expected, f"{label}: got {result}, construction says {expected}")
        return check

    for route, grid in (("nf", NF_GRID), ("fg", FG_GRID)):
        for n, length in grid:
            for kind in PAIR_KINDS:
                edits = max(2, length // 10) if route == "nf" else 2
                u, v, expected = word_pair(rng, n, length, kind, edits, seen)
                uw, vw = words.BraidWord(n, u), words.BraidWord(n, v)
                if route == "nf":
                    call = (lambda a, b: lambda: nf.equal(a, b))(uw, vw)
                else:
                    call = (lambda a, b: lambda: fg.words_act_equally(a, b))(uw, vw)
                ops.append(Op(f"{route}-n{n}-L{length}", call,
                              verdict_check(expected, f"{route} {kind} n={n} L={length}")))
    rng.shuffle(ops)
    return ops


# -- hurwitz-search ---------------------------------------------------------------

FULL = 10**6


def factorization(bk, n: int, factors):
    return bk.bands.Factorization(n, tuple(bk.words.BraidWord(n, f) for f in factors))


def band_word(bk, n: int, letters):
    return bk.bands.BandWord(n, tuple(bk.bands.BandGenerator(n, t, s) for t, s in letters))


def move_ints(moves) -> list:
    return [m.k * m.direction for m in moves]


def random_walk_moves(rng, length: int, steps: int) -> list:
    return [rng.choice((1, -1)) * rng.randint(1, length - 1) for _ in range(steps)]


def random_band_word(rng, n: int, length: int) -> tuple:
    gens = [(t, s) for t in range(2, n + 1) for s in range(1, t)]
    return tuple(rng.choice(gens) for _ in range(length))


def conjugator(rng, length: int) -> tuple:
    return ref.random_reduced(rng, 3, length)


def orbit_op(bk, n: int, factors, cap, size=None) -> Op:
    f = factorization(bk, n, factors)

    def check(rep):
        ref.check_orbit(rep.visited, rep.depth_counts, rep.truncated, rep.keys, cap, size)
        expect(all(k.count(";") == len(factors) - 1 for k in rep.keys),
               "orbit key with the wrong number of factors")

    return Op(f"orbit-n{n}", lambda: bk.hurwitz.orbit_explore(f, size_cap=cap), check)


def path_op(bk, b) -> Op:
    source = ref.standard_factors(3)
    target = tuple(ref.conjugate(x, b) for x in source)
    f1, f2 = factorization(bk, 3, source), factorization(bk, 3, target)

    def check(res):
        expect(res.status == "found", f"conjugate by {ref.fmt(b)}: status {res.status}")
        ref.check_replay(3, source, move_ints(res.moves), target)

    return Op("find-path-n3", lambda: bk.hurwitz.find_path(f1, f2), check)


def positive_path_op(bk, n: int, w1, w2) -> Op:
    b1, b2 = band_word(bk, n, w1), band_word(bk, n, w2)
    source = [ref.band_expand(t, s) for t, s in w1]
    target = [ref.band_expand(t, s) for t, s in w2]

    def check(res):
        expect(res.status == "found", f"positive path: status {res.status}")
        ref.check_replay(n, source, move_ints(res.moves), target)

    return Op(f"positive-path-n{n}", lambda: bk.rewriting.hurwitz_path_positive(b1, b2), check)


def closure_op(bk, n: int, start, cap: int) -> Op:
    w = band_word(bk, n, start)

    def check(res):
        words = [tuple((a.t, a.s) for a in x.letters) for x in res.words]
        ref.check_closure(start, words, res.truncated, cap)

    return Op(f"closure-n{n}", lambda: bk.rewriting.equivalence_class(w, size_cap=cap), check)


# Per-round schedules.  Only the inputs (walks, words, conjugators) are
# drawn from the seed; caps and lengths are fixed, so the cost of a
# round depends little on the seed.  Caps grow by about sqrt(2) per
# step, so orbit costs form a continuum without large jumps.
# Orbits: (strands, cap, walk steps).
ORBITS = ([(3, cap, k % 2) for k, cap in enumerate((30, 42, 60, 85, 120, 170, 240))]
          + [(4, cap, k % 3) for k, cap in enumerate((8, 11, 16, 23, 32, 45, 64))]
          + [(5, cap, k % 3) for k, cap in enumerate((5, 7, 10, 14, 20, 28))])
CONJUGATOR_LENGTHS = (1, 1, 2, 2, 2, 2)
REWRITE_WALKS = [(3, 4), (3, 8), (3, 12), (4, 2), (4, 3), (4, 4)]
CLOSURES = [(3, FULL), (4, 100), (4, 300), (5, 150)]


def hurwitz_round(bk, rng) -> list:
    ops = [
        orbit_op(bk, 3, (((1, 1),), ((2, 1),)), 100, size=3),
        orbit_op(bk, 4, (((1, 1),), ((3, 1),)), 100, size=2),
    ]
    # Deep orbits at 3 strands, wide ones at 4 and 5; each starts from the
    # standard factorization of the full twist moved by a short walk.
    for n, cap, steps in ORBITS:
        std = ref.standard_factors(n)
        start = ref.replay(std, random_walk_moves(rng, len(std), steps))
        ops.append(orbit_op(bk, n, start, cap))
    for length in CONJUGATOR_LENGTHS:
        ops.append(path_op(bk, conjugator(rng, length)))
    for n, steps in REWRITE_WALKS:
        twist = ref.twist_band_word(n)
        ops.append(positive_path_op(bk, n, twist, ref.rewrite_walk(rng, twist, steps)))
    for n, cap in CLOSURES:
        ops.append(closure_op(bk, n, ref.rewrite_walk(rng, ref.twist_band_word(n), 3), cap))
    rng.shuffle(ops)
    return ops


# -- cli --------------------------------------------------------------------------


@dataclass
class CliResult:
    code: object
    out: str
    err: str
    escaped: str | None


def run_cli(cli, argv) -> CliResult:
    """Call `cli.main(argv)` in process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # a real process would print a traceback and exit 1
            return CliResult(1, out.getvalue(), err.getvalue(), type(exc).__name__)
    return CliResult(code, out.getvalue(), err.getvalue(), None)


def cli_check(code: int, inspect=None, malformed: bool = False):
    """Exit code first, then the output.  A malformed input must exit 3."""
    def check(res: CliResult):
        if res.escaped:
            raise Failed(f"{res.escaped} escaped main")
        if "Traceback" in res.err:
            raise Failed("traceback printed")
        if res.code != code:
            raise (Failed if malformed else Wrong)(f"exit {res.code}, expected {code}")
        if inspect is not None:
            inspect(res.out)
    return check


def cli_op(bk, kind: str, argv, check, build=None) -> Op:
    if build is None:
        return Op(kind, lambda: run_cli(bk.cli, argv), check)
    return Op(kind, lambda: run_cli(bk.cli, argv + [build()]), check)


def text_or_json(fmt: str, text_check, json_check):
    def inspect(out):
        if fmt == "json":
            json_check(json.loads(out))
        else:
            text_check(out)
    return inspect


def _moves_from(out: str, fmt: str) -> list:
    if fmt == "json":
        return json.loads(out)["moves"]
    head, _, rest = out.strip().partition(":")
    expect(head == "found", f"unexpected output {out[:40]!r}")
    return [int(v) for v in rest.split()]


def _orbit_fields(out: str, fmt: str):
    if fmt == "json":
        p = json.loads(out)
        return p["visited"], p["depthCounts"], p["truncated"], p.get("keys")
    fields = dict(part.split("=") for part in out.split())
    depths = [int(v) for v in fields["depths"].split(",")]
    return int(fields["visited"]), depths, fields["truncated"] == "True", None


def _class_words(out: str, fmt: str):
    if fmt == "json":
        p = json.loads(out)
        return [ref.parse_band(w) for w in p["words"]], p["truncated"]
    lines = out.strip("\n").split("\n")
    head = dict(part.split("=") for part in lines[0].split())
    return [ref.parse_band(w) for w in lines[1:]], head["truncated"] == "True"


# Malformed inputs that braidkit already rejects with exit 3.
MALFORMED = (
    ["eq", "--strands", "3", "1 x", "1"],
    ["nf", "--strands", "3", "5"],
    ["orbit", '{"strands": 3, "factors": ['],
    ["verify", "nosuchsuite"],
)

# Malformed inputs on which braidkit breaks its exit contract today.  Each
# should exit 3 without a traceback; each fails on every run.
KNOWN_FAULTS = (
    ("usage-error", ["nf", "--strands", "three", "1"]),
    ("factor-not-string", ["orbit", '{"strands": 3, "factors": [1]}']),
    ("outer-not-int", ["semiframe", json.dumps({
        "vertices": [{"id": "p1", "kind": "puncture"}], "edges": [],
        "rotations": {}, "mode": "fixed", "outer": {"p1": "x"}})]),
    ("factors-string", ["orbit", '{"strands": 3, "factors": "12"}']),
    ("move-bool", ["hurwitz-apply", '{"strands": 3, "factors": ["1", "2"]}', "[true]"]),
)

CLI_EQ = [(3, 8), (4, 12), (5, 16), (6, 20), (3, 24), (4, 6), (6, 40), (8, 50)]
CLI_NF = [(3, 6), (4, 12), (5, 18), (6, 24), (3, 30)]
CLI_ORBITS = [(3, 25), (3, 40), (3, 60), (3, 90), (4, 10), (4, 16), (4, 24), (4, 36)]


def _eq_op(bk, rng, n, length, fmt):
    u, v, same = word_pair(rng, n, length, rng.choice(PAIR_KINDS), max(2, length // 10), set())
    inspect = text_or_json(
        fmt,
        lambda out: expect(out == ("equal\n" if same else "not equal\n"), f"eq said {out!r}"),
        lambda p: expect(p == {"equal": same}, f"eq said {p}"))
    argv = ["eq", "--strands", str(n), "--format", fmt, ref.fmt(u), ref.fmt(v)]
    return cli_op(bk, "eq", argv, cli_check(0 if same else 1, inspect))


def _nf_op(bk, rng, n, length, fmt):
    w = ref.random_reduced(rng, n, length)

    def from_key(key):
        strands, power, body = key.split(":")
        expect(int(strands) == n, "key names the wrong strand count")
        factors = [[int(v) for v in f.split(",")] for f in body.split("|")] if body else []
        return int(power), factors

    def text_check(out):
        ref.check_normal_form(n, w, *from_key(out.strip()))

    def json_check(p):
        expect(p["canonicalLength"] == len(p["factors"]), "canonicalLength != factor count")
        expect(from_key(p["key"]) == (p["deltaPower"], p["factors"]), "key disagrees with factors")
        ref.check_normal_form(n, w, p["deltaPower"], p["factors"])

    argv = ["nf", "--strands", str(n), "--format", fmt, ref.fmt(w)]
    return cli_op(bk, "nf", argv, cli_check(0, text_or_json(fmt, text_check, json_check)))


def _word_output(fmt, want: str):
    return text_or_json(
        fmt,
        lambda out: expect(out == want + "\n", f"got {out!r}, want {want!r}"),
        lambda p: expect(p["word"] == want, f"got {p['word']!r}, want {want!r}"))


def _verify_op(bk, rng, suite, fmt):
    n, seed = 3, rng.randint(1, 10**6)
    want = ref.suite_counts(suite, n)

    def json_check(p):
        (rep,) = p["suites"]
        expect(p["ok"] and rep["ok"] and rep["suite"] == suite, f"{suite} did not pass")
        for key, value in want.items():
            expect(rep[key] == value, f"{suite} {key}={rep[key]}, closed form {value}")
        if suite == "twist-closure":
            expect(rep["checks"] == rep["size"] and not rep["sampled"], "closure not fully compiled")
        if suite == "conjugated-split":
            expect(all(i["status"] == "found" for i in rep["instances"]), "a split was not found")

    def text_check(out):
        expect(out.startswith(f"PASS {suite} (strands={n}, checks="), f"{suite}: {out[:60]!r}")
        if "checks" in want:
            expect(out.strip().endswith(f"checks={want['checks']})"), f"{suite} check count")

    argv = ["verify", suite, "--strands", str(n), "--seed", str(seed), "--format", fmt]
    return cli_op(bk, f"verify-{suite}", argv, cli_check(0, text_or_json(fmt, text_check, json_check)))


def cli_round(bk, rng) -> list:
    ops = []

    def fmt():
        return rng.choice(("text", "json"))

    for n, length in CLI_EQ:
        ops.append(_eq_op(bk, rng, n, length, fmt()))
    for n, length in CLI_NF:
        ops.append(_nf_op(bk, rng, n, length, fmt()))
    for _ in range(3):
        n = rng.randint(3, 5)
        x, g = ref.random_reduced(rng, n, rng.randint(1, 6)), ref.random_reduced(rng, n, rng.randint(1, 6))
        f = fmt()
        argv = ["conj", "--strands", str(n), "--format", f, ref.fmt(x), ref.fmt(g)]
        ops.append(cli_op(bk, "conj", argv, cli_check(0, _word_output(f, ref.fmt(ref.conjugate(x, g))))))
    for _ in range(3):
        n = rng.randint(3, 6)
        w = random_band_word(rng, n, rng.randint(1, 6))
        f = fmt()
        argv = ["band-expand", "--strands", str(n), "--format", f, ref.fmt_band(w)]
        want = ref.fmt(ref.band_word_expand(w))
        ops.append(cli_op(bk, "band-expand", argv, cli_check(0, _word_output(f, want))))
    for _ in range(2):
        n, f = rng.randint(3, 8), fmt()
        want = " ".join(" ".join(str(i) for i in range(1, n)) for _ in range(n))
        argv = ["delta2", "--strands", str(n), "--format", f]
        ops.append(cli_op(bk, "delta2", argv, cli_check(0, _word_output(f, want))))
    for _ in range(3):
        n, f = rng.randint(3, 4), fmt()
        std = ref.standard_factors(n)
        moves = random_walk_moves(rng, len(std), rng.randint(1, 8))
        want = [ref.fmt(x) for x in ref.replay(std, moves)]
        inspect = text_or_json(
            f,
            lambda out, want=want: expect(
                out == "".join(f"{i + 1}: {w}\n" for i, w in enumerate(want)), "hurwitz-apply output"),
            lambda p, want=want: expect(p["factors"] == want, "hurwitz-apply factors"))
        fact = json.dumps({"strands": n, "factors": [ref.fmt(x) for x in std]})
        argv = ["hurwitz-apply", "--format", f, fact, json.dumps(moves)]
        ops.append(cli_op(bk, "hurwitz-apply", argv, cli_check(0, inspect)))
    for _ in range(2):
        b, f = conjugator(rng, 1), fmt()
        source = ref.standard_factors(3)
        target = tuple(ref.conjugate(x, b) for x in source)

        def inspect(out, f=f, source=source, target=target):
            ref.check_replay(3, source, _moves_from(out, f), target)

        argv = ["hurwitz-path", "--format", f,
                json.dumps({"strands": 3, "factors": [ref.fmt(x) for x in source]}),
                json.dumps({"strands": 3, "factors": [ref.fmt(x) for x in target]})]
        ops.append(cli_op(bk, "hurwitz-path", argv, cli_check(0, inspect)))
    orbits = [(3, (((1, 1),), ((2, 1),)), None, 3), (4, (((1, 1),), ((3, 1),)), None, 2)]
    orbits += [(n, ref.standard_factors(n), cap, None) for n, cap in CLI_ORBITS]
    for n, factors, cap, size in orbits:
        f = fmt()

        def inspect(out, f=f, cap=cap, size=size):
            ref.check_orbit(*_orbit_fields(out, f), cap, size)

        argv = ["orbit", "--format", f] + (["--keys"] if f == "json" else [])
        argv += [] if cap is None else ["--size-cap", str(cap)]
        argv.append(json.dumps({"strands": n, "factors": [ref.fmt(x) for x in factors]}))
        ops.append(cli_op(bk, "orbit", argv, cli_check(0 if size else 2, inspect)))
    for n, cap in ((3, FULL), (4, 50), (4, 150)):
        start, f = ref.rewrite_walk(rng, ref.twist_band_word(n), 2), fmt()

        def check(res, f=f, start=start, cap=cap):
            if res.escaped:
                raise Failed(f"{res.escaped} escaped main")
            words, truncated = _class_words(res.out, f)
            # Exit 2 says a cap fired before the closure completed.
            expect(res.code == (2 if truncated else 0), f"rewrite-class exit {res.code}")
            ref.check_closure(start, words, truncated, cap)

        argv = ["rewrite-class", "--strands", str(n), "--format", f, "--size-cap", str(cap),
                ref.fmt_band(start)]
        ops.append(cli_op(bk, "rewrite-class", argv, check))
    for n, steps in ((3, 4), (3, 10), (4, 5)):
        twist = ref.twist_band_word(n)
        end = ref.rewrite_walk(rng, twist, steps)
        f = fmt()
        source = [ref.band_expand(t, s) for t, s in twist]
        target = [ref.band_expand(t, s) for t, s in end]

        def inspect(out, f=f, n=n, source=source, target=target):
            ref.check_replay(n, source, _moves_from(out, f), target)

        argv = ["positive-path", "--strands", str(n), "--format", f,
                ref.fmt_band(twist), ref.fmt_band(end)]
        ops.append(cli_op(bk, "positive-path", argv, cli_check(0, inspect)))
    for n in range(3, 9):
        gens = [(t, s) for t in range(2, n + 1) for s in range(1, t) if rng.random() < 0.6]
        f = fmt()
        # Punctures in convex position all lie on the unbounded face.
        inspect = text_or_json(
            f,
            lambda out: expect(out.startswith("accepted witnesses="), f"semiframe: {out[:60]!r}"),
            lambda p: expect(p["accepted"] and p["reason"] is None, f"semiframe: {p}"))

        def build(n=n, gens=gens):
            planar = bk.planar
            gen_objs = [bk.bands.BandGenerator(n, t, s) for t, s in gens]
            return json.dumps(planar.map_to_json(planar.band_subgraph_map(n, gen_objs)))

        ops.append(cli_op(bk, f"semiframe-n{n}", ["semiframe", "--format", f], cli_check(0, inspect), build))
    f = fmt()
    inspect = text_or_json(
        f,
        lambda out: expect(out.startswith("rejected:"), f"wheel map: {out[:60]!r}"),
        lambda p: expect(not p["accepted"], "wheel map accepted"))
    ops.append(cli_op(bk, "semiframe-wheel", ["semiframe", "--format", f, ref.wheel_map_json()],
                      cli_check(1, inspect)))
    for suite in ref.SUITES:
        ops.append(_verify_op(bk, rng, suite, fmt()))

    def error_only(out):
        expect(out == "", "malformed input produced output")

    for argv in MALFORMED:
        ops.append(cli_op(bk, "malformed", list(argv), cli_check(3, error_only, malformed=True)))
    for name, argv in KNOWN_FAULTS:
        ops.append(cli_op(bk, f"fault-{name}", list(argv), cli_check(3, error_only, malformed=True)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "word-problem": word_problem_round,
    "hurwitz-search": hurwitz_round,
    "cli": cli_round,
}
