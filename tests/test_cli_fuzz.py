"""The CLI exit contract under generated input.

Whatever its arguments, `braidkit.cli.main` ends with an exit code in
{0, 1, 2, 3}, lets no exception escape (argparse's `SystemExit` carries
the exit code, as for ``-h``) and prints no traceback and no internal
error, since malformed input must exit 3, not 2.  Arguments are
drawn per subcommand: Artin words, "t:s" band tokens, well-formed and
broken JSON, suite names, strand counts in [-1, 4] and caps in [-2, 50].
Searches that could run long always get a size cap, and `verify` runs
at 4 strands only under one.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from braidkit.cli import main
from braidkit.verify import SUITE_NAMES
from child_env import child_env

JUNK = st.sampled_from(["", "x", "1.5", "0", "3:", ":2", "a:b", "2:1:1", "{", "[]", "-1"])

ARTIN = (
    st.lists(st.sampled_from(["1", "2", "3", "-1", "-2", "-3"]), max_size=6)
    | st.lists(st.integers(-5, 5).map(str) | JUNK, max_size=4)
).map(" ".join)
BAND = (
    st.lists(st.sampled_from(["2:1", "3:1", "3:2", "4:1", "4:2", "4:3"]), max_size=5)
    | st.lists(st.builds("{}:{}".format, st.integers(-1, 5), st.integers(-1, 5)) | JUNK,
               max_size=4)
).map(" ".join)

JSON_SCALARS = st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 5) | ARTIN
JSON_KEYS = st.sampled_from([
    "strands", "factors", "vertices", "edges", "rotations", "mode", "outer",
    "id", "kind", "ends",
])
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=12,
)
FACTORIZATION = st.builds(
    lambda n, factors: {"strands": n, "factors": factors},
    st.just(3) | st.integers(-1, 4) | st.sampled_from([True, "3", 2.0]),
    st.lists(st.sampled_from(["1", "2", "1 2 -1", "-1 2 1", "2 1 -2"]) | ARTIN, max_size=4),
)
MOVES = st.lists(st.integers(-6, 6), max_size=6)
BROKEN = st.sampled_from(['{"strands": 3', "{not json", "[1,", '{"factors": [}', "nul", ""])
JSON_ARG = (FACTORIZATION | MOVES | JSON_VALUES).map(json.dumps) | BROKEN

RARELY = st.sampled_from([False] * 9 + [True])
SUITE = st.sampled_from(SUITE_NAMES + ("no-such-suite",))
CAP = st.integers(-2, 50)

# Each subcommand: the strategies of its positionals, whether it takes
# --strands, its optional caps, and whether --size-cap is always set.
SUBCOMMANDS = {
    "nf": ((ARTIN,), True, (), False),
    "eq": ((ARTIN, ARTIN), True, (), False),
    "conj": ((ARTIN, ARTIN), True, (), False),
    "band-expand": ((BAND,), True, (), False),
    "delta2": ((), True, (), False),
    "hurwitz-apply": ((JSON_ARG, JSON_ARG), False, (), False),
    "hurwitz-path": ((JSON_ARG, JSON_ARG), False, ("--depth-cap",), True),
    "orbit": ((JSON_ARG,), False, ("--depth-cap", "--keys"), True),
    "rewrite-class": ((BAND,), True, ("--size-cap",), False),
    "positive-path": ((BAND, BAND), True, ("--size-cap",), False),
    "semiframe": ((JSON_ARG,), False, (), False),
    "verify": ((), True, ("--depth-cap", "--size-cap", "--seed"), False),
}


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    positionals, strands, options, size_capped = SUBCOMMANDS[name]
    argv = [name, "--format", draw(st.sampled_from(["text", "json"]))]
    args = [draw(ARTIN | BAND if draw(RARELY) else p) for p in positionals]
    if name == "verify":
        args = draw(st.lists(SUITE, max_size=2))
    n = draw(st.none() | st.integers(-1, 4)) if strands else None
    if n is not None:
        argv += ["--strands", str(n)]
    for option in options:
        if option == "--keys":
            argv += draw(st.sampled_from([[], ["--keys"]]))
        elif draw(st.booleans()):
            argv += [option, str(draw(CAP))]
    if size_capped or (name == "verify" and n == 4 and "--size-cap" not in argv):
        argv += ["--size-cap", str(draw(CAP))]
    if draw(RARELY) and draw(RARELY):
        argv.append("-h")
    if args and draw(RARELY):
        args.pop()  # a usage error
    return argv + draw(st.sampled_from([["--"], []])) + args


def breach(argv):
    """How main(argv) breaks the exit contract, or None if it keeps it."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code not in (0, 1, 2, 3):
        return f"exit code {code!r}"
    if "Traceback" in err.getvalue() or "internal error" in err.getvalue():
        return err.getvalue()
    return None


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_every_input_keeps_the_exit_contract(argv):
    assert breach(argv) is None, argv


# Under -O asserts are stripped, so the replay raises on a breach itself.
REPLAY = """
import sys
sys.path.insert(0, sys.argv[1])
from hypothesis import given, settings
import test_cli_fuzz as t

def check(argv):
    if t.breach(argv) is not None:
        raise RuntimeError(f"{argv}: {t.breach(argv)}")

settings(max_examples=40, derandomize=True, database=None)(given(t.argvs())(check))()
print("ok")
"""


def test_a_fixed_sample_keeps_the_exit_contract_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", REPLAY, os.path.dirname(__file__)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
