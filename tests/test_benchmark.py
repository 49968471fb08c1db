"""One round of each benchmark workload runs, and every output it checks is right.

`benchmarks/run.py --seconds 0` still runs a whole round, so this is the
benchmark at its smallest: it fails when a change breaks what a workload
calls or makes one of its checked answers wrong.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_of_each_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), result
    assert result["attempted"] > 0
