"""Benchmark for braidkit: one workload, one process, one thread.

    python3 benchmarks/run.py --workload word-problem --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's operations until `--seconds` have
passed.  Each round imports braidkit afresh from `src/` and generates
its inputs from the seed and the round number, so every round starts
with empty caches and all rounds have the same make-up.  Every output is
checked.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
of BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("words", "normalform", "freegroup", "bands", "hurwitz",
           "rewriting", "planar", "verify", "cli")

sys.path.insert(0, str(HERE))

from reference import Failed, Wrong  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def braidkit_modules():
    """braidkit's modules as attributes of one namespace, imported if need be."""
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"braidkit.{name}") for name in MODULES})


def fresh_import():
    """Import braidkit from this checkout's `src/`, dropping any earlier copy."""
    for key in [k for k in sys.modules if k == "braidkit" or k.startswith("braidkit.")]:
        del sys.modules[key]
    package = importlib.import_module("braidkit")
    if Path(package.__file__).resolve().parent != (SRC / "braidkit").resolve():
        raise SystemExit(f"braidkit imported from {package.__file__}, not from {SRC}")
    return braidkit_modules()


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: Counter[str] = Counter()

    def execute(self, ops, tracer=None) -> float:
        """Run and check one round; returns the time spent in operations."""
        spent = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op = self.attempted
            start = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # counted as a failed operation
                elapsed = perf_counter() - start
                problem = Failed(f"{type(exc).__name__}: {exc}")
            else:
                elapsed = perf_counter() - start
                problem = None
                try:
                    op.check(result)
                except (Failed, Wrong) as exc:
                    problem = exc
                except Exception as exc:  # output the check could not read
                    problem = Wrong(f"unreadable result: {type(exc).__name__}: {exc}")
            if tracer is not None:
                tracer.op = -1
            spent += elapsed
            self.latencies.append(elapsed)
            self.attempted += 1
            if isinstance(problem, Failed):
                self.failed += 1
                self.failures[f"{op.kind}: {problem}"] += 1
            elif problem is not None and len(self.wrong) < 20:
                self.wrong.append(f"{op.kind}: {problem}")
        return spent

    def report(self) -> None:
        for message, count in sorted(self.failures.items()):
            print(f"failed x{count}: {message}", file=sys.stderr)
        for message in self.wrong:
            print(f"WRONG: {message}", file=sys.stderr)


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def timed_run(workload: str, seed: int, seconds: float):
    make_round = WORKLOADS[workload]
    tally = Tally()
    setups: list[float] = []
    spent = 0.0
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() - start < seconds:
        t0 = perf_counter()
        bk = fresh_import()
        ops = make_round(bk, round_rng(workload, seed, index))
        setups.append(perf_counter() - t0)
        spent += tally.execute(ops)
        del bk, ops
        gc.collect()
        index += 1
    lat = tally.latencies
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / spent,
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{workload}: {index} rounds, {len(lat)} operations", file=sys.stderr)
    return tally, metrics


def traced_run(workload: str, seed: int, seconds: float, spans_path: Path):
    """Each round runs twice on the same inputs, once untraced and once traced."""
    make_round = WORKLOADS[workload]
    tally = Tally()
    tracer = Tracer()
    plain = traced = 0.0
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() - start < seconds:
        # Alternate which pass goes first, so drift in machine speed
        # does not bias the overhead ratio.
        for traced_pass in ((False, True) if index % 2 == 0 else (True, False)):
            bk = fresh_import()
            if traced_pass:
                tracer.install()
            spent = tally.execute(make_round(bk, round_rng(workload, seed, index)),
                                  tracer if traced_pass else None)
            if traced_pass:
                traced += spent
            else:
                plain += spent
            del bk
            gc.collect()
        index += 1
    metrics = tracer.layer_metrics(index)
    metrics["trace.overhead_ratio"] = traced / plain
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    kept = tracer.write_spans(spans_path)
    print(f"{workload}: {index} traced rounds, {kept} spans written to {spans_path}",
          file=sys.stderr)
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braidkit" / "__init__.py").is_file():
        print(f"error: no braidkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.trace:
        spans = ROOT / "benchmarks" / "out" / f"spans-{args.workload}-{args.seed}.tsv"
        tally, values = traced_run(args.workload, args.seed, args.seconds, spans)
    else:
        tally, values = timed_run(args.workload, args.seed, args.seconds)
    tally.report()
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
