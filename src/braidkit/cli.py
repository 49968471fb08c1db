"""Command-line interface.

Exit codes follow one contract across subcommands:

* 0: success, or a positive verdict (Equal / Found / Accept / all suites pass)
* 1: a conclusive negative verdict (NotEqual / Reject / search space
     exhausted without a hit)
* 2: inconclusive, a depth or size cap fired before the question settled,
     or a fault stopped it: a found path that fails its replay, or any
     other internal error
* 3: malformed input, argparse usage errors included

File arguments also accept ``-`` for standard input, or an inline JSON
literal.  With ``--format json`` the payload is serialized with sorted
keys, so identical invocations produce byte-identical output.

The parser is built once per process, on the first `main` call.  Each
call picks its handler by command name at call time (`cmd_` plus the
name with ``-`` as ``_``), so a handler replaced later still runs.
A handler returns (exit code, payload, text) and prints nothing; `main`
prints the result once, as JSON or as the text.  The handlers build
every JSON payload from the fields of the results they get (key names,
nulls, moves as signed integers), except `verify`: it passes on the
suite reports `run_suite` returns, whose keys (`chainTriples`,
`depthCap`, `pathLength`, ...) `verify._report` and the suites write.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bands import (
    Factorization,
    delta_squared_word,
    expand_word,
    parse_band_word,
)
from .hurwitz import (
    ReplayError,
    apply_sequence,
    find_path,
    move_from_int,
    move_to_int,
    orbit_explore,
)
from .normalform import canonical_key, normal_form, normal_form_key
from .planar import check_semiframe, map_from_json
from .rewriting import equivalence_class, hurwitz_path_positive
from .verify import DEFAULT_SEED, SUITE_NAMES, check_suite_names, run_suite
from .words import InputError, conjugate, format_word, parse_word

# What a handler returns: (exit code, JSON payload, text output).
Outcome = tuple[int, dict, str]


def _load_json_arg(arg: str):
    """A file path, ``-`` for stdin, or an inline JSON literal."""
    text = arg
    if arg == "-":
        text = sys.stdin.read()
    elif os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:  # nested past the decoder's recursion limit
        raise json.JSONDecodeError("JSON nested too deeply", text, 0) from None


def _given(**caps) -> dict:
    """The caps a caller set; one left as None keeps the callee's default."""
    return {k: v for k, v in caps.items() if v is not None}


def _is_int(v) -> bool:
    """A JSON integer: an int that is not a bool (JSON true is not 1)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _factorization_from_json(data) -> Factorization:
    if not isinstance(data, dict) or "strands" not in data or "factors" not in data:
        raise InputError("factorization JSON needs 'strands' and 'factors'")
    n = data["strands"]
    if not _is_int(n):
        raise InputError("'strands' must be an integer")
    factors = data["factors"]
    if not isinstance(factors, list) or not all(isinstance(s, str) for s in factors):
        raise InputError("'factors' must be an array of word strings")
    return Factorization(n, tuple(parse_word(s, n) for s in factors))


def _moves_from_json(data):
    if not isinstance(data, list) or not all(_is_int(v) for v in data):
        raise InputError("move sequence JSON must be an array of signed integers")
    return [move_from_int(v) for v in data]


_MISSED = {
    ("not_comparable", False): "not comparable: products differ",
    ("not_found", True): "not found (caps exhausted)",
    ("not_found", False): "not found (orbit exhausted)",
    ("not_equal", False): "not equal (conclusive)",
    ("inconclusive", True): "inconclusive (size cap exhausted)",
}


def _search_exit(res) -> Outcome:
    """A path search's outcome: exit 0 if found, 2 if a cap fired, else 1."""
    moves = None if res.moves is None else [move_to_int(m) for m in res.moves]
    payload = {"status": res.status, "moves": moves, "visited": res.visited,
               "truncated": res.truncated}
    if res.status == "found":
        return 0, payload, "found: " + " ".join(map(str, moves))
    return 2 if res.truncated else 1, payload, _MISSED[res.status, res.truncated]


def cmd_nf(args) -> Outcome:
    w = parse_word(args.word, args.strands)
    nf = normal_form(w)
    payload = {
        "strands": nf.n,
        "deltaPower": nf.delta_power,
        "factors": [[v + 1 for v in p] for p in nf.factors],
        "canonicalLength": nf.canonical_length,
        "key": normal_form_key(nf),
    }
    return 0, payload, payload["key"]


def cmd_eq(args) -> Outcome:
    k1 = canonical_key(parse_word(args.word1, args.strands))
    k2 = canonical_key(parse_word(args.word2, args.strands))
    same = k1 == k2
    return 0 if same else 1, {"equal": same}, "equal" if same else "not equal"


def cmd_conj(args) -> Outcome:
    x = parse_word(args.word, args.strands)
    g = parse_word(args.conjugator, args.strands)
    out = conjugate(x, g)
    return 0, {"strands": out.n, "word": format_word(out)}, format_word(out)


def cmd_band_expand(args) -> Outcome:
    w = parse_band_word(args.word, args.strands)
    out = expand_word(w)
    return 0, {"strands": out.n, "band": str(w), "word": format_word(out)}, format_word(out)


def cmd_delta2(args) -> Outcome:
    out = delta_squared_word(args.strands)
    return 0, {"strands": out.n, "word": format_word(out)}, format_word(out)


def cmd_hurwitz_apply(args) -> Outcome:
    f = _factorization_from_json(_load_json_arg(args.factorization))
    moves = _moves_from_json(_load_json_arg(args.moves))
    out = apply_sequence(f, moves)
    factors = [str(w) for w in out.factors]
    payload = {"strands": out.n, "factors": factors, "productKey": out.product_key}
    return 0, payload, "\n".join(f"{i + 1}: {w}" for i, w in enumerate(factors))


def cmd_hurwitz_path(args) -> Outcome:
    f1 = _factorization_from_json(_load_json_arg(args.source))
    f2 = _factorization_from_json(_load_json_arg(args.target))
    caps = _given(depth_cap=args.depth_cap, size_cap=args.size_cap)
    return _search_exit(find_path(f1, f2, **caps))


def cmd_orbit(args) -> Outcome:
    f = _factorization_from_json(_load_json_arg(args.factorization))
    rep = orbit_explore(f, **_given(depth_cap=args.depth_cap, size_cap=args.size_cap))
    payload = {"visited": rep.visited, "depthCounts": list(rep.depth_counts),
               "truncated": rep.truncated, "depthCap": args.depth_cap,
               "sizeCap": args.size_cap}
    if args.keys and args.format == "json":
        payload["keys"] = list(rep.keys)
    depths = ",".join(str(c) for c in rep.depth_counts)
    text = f"visited={rep.visited} truncated={rep.truncated} depths={depths}"
    return 2 if rep.truncated else 0, payload, text


def cmd_rewrite_class(args) -> Outcome:
    w = parse_band_word(args.word, args.strands)
    res = equivalence_class(w, **_given(size_cap=args.size_cap))
    words = [str(v) for v in res.words]
    payload = {"size": len(words), "truncated": res.truncated, "words": words}
    text = "\n".join([f"size={len(words)} truncated={res.truncated}"] + words)
    return 2 if res.truncated else 0, payload, text


def cmd_positive_path(args) -> Outcome:
    w1 = parse_band_word(args.word1, args.strands)
    w2 = parse_band_word(args.word2, args.strands)
    return _search_exit(hurwitz_path_positive(w1, w2, **_given(size_cap=args.size_cap)))


def cmd_semiframe(args) -> Outcome:
    m = map_from_json(_load_json_arg(args.map))
    verdict = check_semiframe(m)
    if verdict.accepted:
        pairs = " ".join(f"{c}:{i}" for c, i in sorted(verdict.witnesses.items()))
        text = f"accepted witnesses={pairs}"
    else:
        text = f"rejected: {verdict.reason}"
    payload = {"accepted": verdict.accepted, "witnesses": verdict.witnesses,
               "reason": verdict.reason}
    return 0 if verdict.accepted else 1, payload, text


def cmd_verify(args) -> Outcome:
    names = args.suites or SUITE_NAMES
    check_suite_names(names)  # before any suite runs
    reports = [run_suite(name, args.strands, args.seed, args.depth_cap, args.size_cap)
               for name in names]
    hard_fail = any(not r["ok"] and not r["inconclusive"] for r in reports)
    inconclusive = any(r["inconclusive"] for r in reports)
    lines = []
    for r in reports:
        if r["ok"]:
            status = "PASS"
        elif r["inconclusive"]:
            status = "INCONCLUSIVE"
        else:
            status = "FAIL"
        line = f"{status} {r['suite']} (strands={r['strands']}, checks={r['checks']})"
        for msg in r["failures"]:
            line += f"\n  - {msg}"
        lines.append(line)
    payload = {"suites": reports, "ok": not hard_fail and not inconclusive}
    return 1 if hard_fail else 2 if inconclusive else 0, payload, "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as malformed input (exit 3), not exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    parser = _Parser(
        prog="braidkit",
        description="Band-generator braid computations, Hurwitz moves, and semi-frame checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, strands=True, caps=()):
        if strands:
            p.add_argument("--strands", type=int, default=3, help="strand count (default 3)")
        for cap in caps:
            p.add_argument(f"--{cap}-cap", type=int, default=None)
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("nf", help="Garside normal form of an Artin word")
    p.add_argument("word", help="signed generator indices, e.g. '1 2 -1'")
    common(p)

    p = sub.add_parser("eq", help="decide equality of two Artin words")
    p.add_argument("word1")
    p.add_argument("word2")
    common(p)

    p = sub.add_parser("conj", help="conjugate x by g (computes g^-1 x g)")
    p.add_argument("word")
    p.add_argument("conjugator")
    common(p)

    p = sub.add_parser("band-expand", help="expand a band word into Artin letters")
    p.add_argument("word", help="band letters 't:s', e.g. '3:1 2:1'")
    common(p)

    p = sub.add_parser("delta2", help="the full-twist word on n strands")
    common(p)

    p = sub.add_parser("hurwitz-apply", help="apply a move sequence to a factorization")
    p.add_argument("factorization", help="JSON {strands, factors}; file, '-', or literal")
    p.add_argument("moves", help="JSON array of signed integers; file, '-', or literal")
    common(p, strands=False)

    p = sub.add_parser("hurwitz-path", help="search for a move sequence between factorizations")
    p.add_argument("source", help="JSON {strands, factors}; file, '-', or literal")
    p.add_argument("target", help="JSON {strands, factors}; file, '-', or literal")
    common(p, strands=False, caps=("depth", "size"))

    p = sub.add_parser("orbit", help="breadth-first Hurwitz orbit of a factorization")
    p.add_argument("factorization", help="JSON {strands, factors}; file, '-', or literal")
    p.add_argument("--keys", action="store_true", help="include visited keys in the payload")
    common(p, strands=False, caps=("depth", "size"))

    p = sub.add_parser("rewrite-class", help="relation-rewrite closure of a positive band word")
    p.add_argument("word")
    common(p, caps=("size",))

    p = sub.add_parser("positive-path", help="compile a relation path into Hurwitz moves")
    p.add_argument("word1")
    p.add_argument("word2")
    common(p, caps=("size",))

    p = sub.add_parser("semiframe", help="check the semi-frame face condition of a map")
    p.add_argument("map", help="map JSON; file, '-', or literal")
    common(p, strands=False)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument("suites", nargs="*", metavar="suite",
                   help=f"any of: {', '.join(SUITE_NAMES)} (default: all)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p, caps=("depth", "size"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, text = globals()["cmd_" + args.command.replace("-", "_")](args)
        print(json.dumps(payload, indent=2, sort_keys=True) if args.format == "json" else text)
        return code
    except (InputError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ReplayError as exc:
        # A search fault, not a verdict: no answer was reached.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Any other crash is a fault too; exit 1 would read as a verdict.
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
