"""The benchmark's checks must catch wrong answers.

Each test feeds a check a deliberately wrong answer (a flipped verdict,
a corrupted move sequence, a wrong exit code) and expects a report.
Run with `python3 benchmarks/test_checks.py` or through pytest.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from reference import Failed, Wrong  # noqa: E402
from run import braidkit_modules as package  # noqa: E402
from tracing import Tracer  # noqa: E402


def moves(*values):
    return tuple(types.SimpleNamespace(k=abs(v), direction=1 if v > 0 else -1) for v in values)


class ConstructionTest(unittest.TestCase):
    def test_pairs_have_the_verdicts_they_claim(self):
        rng = random.Random(3)
        for kind in wl.PAIR_KINDS:
            for _ in range(5):
                u, v, same = wl.word_pair(rng, 3, 8, kind, 2, set())
                self.assertEqual(ref.same_braid(3, u, v), same, kind)
                if kind == "exponent":
                    self.assertNotEqual(ref.exponent_sum(u), ref.exponent_sum(v))
                if kind == "pure":
                    self.assertEqual(ref.exponent_sum(u), ref.exponent_sum(v))
                    self.assertEqual(ref.perm_of(3, u), ref.perm_of(3, v))

    def test_rewrite_walk_stays_in_the_braid(self):
        rng = random.Random(4)
        twist = ref.twist_band_word(4)
        end = ref.rewrite_walk(rng, twist, 6)
        self.assertTrue(ref.same_braid(4, ref.band_word_expand(twist), ref.band_word_expand(end)))


class WordProblemChecks(unittest.TestCase):
    def test_flipped_verdict_is_reported(self):
        ops = wl.word_problem_round(package(), random.Random(1))
        for op in ops[:6]:
            outcomes = []
            for verdict in (True, False):
                try:
                    op.check(verdict)
                    outcomes.append("ok")
                except Wrong:
                    outcomes.append("wrong")
            self.assertEqual(sorted(outcomes), ["ok", "wrong"], op.kind)


class HurwitzChecks(unittest.TestCase):
    def setUp(self):
        self.bk = package()

    def test_corrupted_move_sequence_is_reported(self):
        op = wl.path_op(self.bk, ((1, 1),))
        res = op.call()
        op.check(res)
        good = wl.move_ints(res.moves)
        for bad in (good[:-1], [-good[0]] + good[1:], good + [1]):
            with self.assertRaises(Wrong):
                op.check(types.SimpleNamespace(status="found", moves=moves(*bad)))
        with self.assertRaises(Wrong):
            op.check(types.SimpleNamespace(status="not_found", moves=None))

    def test_compiled_path_corruption_is_reported(self):
        twist = ref.twist_band_word(3)
        end = ref.rewrite_walk(random.Random(2), twist, 6)
        op = wl.positive_path_op(self.bk, 3, twist, end)
        res = op.call()
        op.check(res)
        bad = [-v for v in wl.move_ints(res.moves)]
        with self.assertRaises(Wrong):
            op.check(types.SimpleNamespace(status="found", moves=moves(*bad)))

    def test_wrong_orbit_counts_are_reported(self):
        op = wl.orbit_op(self.bk, 3, (((1, 1),), ((2, 1),)), 100, size=3)
        rep = op.call()
        op.check(rep)
        for changes in ({"visited": 4}, {"depth_counts": (1, 3)}, {"truncated": True},
                        {"keys": rep.keys[:2]}):
            with self.assertRaises(Wrong):
                op.check(dataclasses.replace(rep, **changes))
        capped = wl.orbit_op(self.bk, 3, ref.standard_factors(3), 20)
        rep = capped.call()
        capped.check(rep)
        with self.assertRaises(Wrong):
            capped.check(dataclasses.replace(rep, visited=21, depth_counts=(1, 10, 10),
                                             keys=rep.keys + ("x",)))

    def test_broken_closure_is_reported(self):
        start = ref.twist_band_word(3)
        op = wl.closure_op(self.bk, 3, start, wl.FULL)
        res = op.call()
        op.check(res)
        words = list(res.words)
        dropped = next(w for w in words if tuple((a.t, a.s) for a in w.letters) != start)
        for fake in (types.SimpleNamespace(words=[w for w in words if w is not dropped], truncated=False),
                     types.SimpleNamespace(words=words, truncated=True),
                     types.SimpleNamespace(words=words + words[:1], truncated=False)):
            with self.assertRaises(Wrong):
                op.check(fake)


class CliChecks(unittest.TestCase):
    def test_exit_codes_and_escapes(self):
        ok = wl.CliResult(0, "equal\n", "", None)
        wl.cli_check(0, lambda out: ref.expect(out == "equal\n", "eq"))(ok)
        with self.assertRaises(Wrong):
            wl.cli_check(1)(ok)
        with self.assertRaises(Wrong):
            wl.cli_check(0, lambda out: ref.expect(out == "not equal\n", "eq"))(ok)
        with self.assertRaises(Failed):
            wl.cli_check(3, malformed=True)(wl.CliResult(0, "", "", None))
        with self.assertRaises(Failed):
            wl.cli_check(3, malformed=True)(wl.CliResult(1, "", "", "AttributeError"))
        with self.assertRaises(Failed):
            wl.cli_check(3, malformed=True)(wl.CliResult(3, "", "Traceback (most recent", None))

    def test_only_known_faults_fail(self):
        bk = package()
        failed, wrong = [], []
        for op in wl.cli_round(bk, random.Random(5)):
            if op.kind.startswith(("verify-twist", "verify-action", "orbit", "hurwitz-path",
                                   "rewrite-class", "positive-path")):
                continue  # the slow ones are covered by the benchmark runs
            try:
                op.check(op.call())
            except Failed:
                failed.append(op.kind)
            except Wrong as exc:
                wrong.append(f"{op.kind}: {exc}")
        self.assertEqual(wrong, [])
        self.assertLessEqual(set(failed), {f"fault-{name}" for name, _ in wl.KNOWN_FAULTS})

    def test_wrong_normal_form_is_reported(self):
        w = ref.parse("1 2 -1 2 2")
        bk = package()
        form = bk.normalform.normal_form(bk.words.BraidWord(3, w))
        factors = [[v + 1 for v in f] for f in form.factors]
        ref.check_normal_form(3, w, form.delta_power, factors)
        for power, fs in ((form.delta_power + 1, factors), (form.delta_power, factors[::-1] + [[2, 1, 3]]),
                          (form.delta_power, factors[:-1])):
            with self.assertRaises(Wrong):
                ref.check_normal_form(3, w, power, fs)

    def test_wrong_suite_count_is_reported(self):
        op = wl._verify_op(package(), random.Random(1), "relations", "json")
        res = op.call()
        op.check(res)
        with self.assertRaises(Wrong):
            op.check(wl.CliResult(0, res.out.replace('"chainTriples": 1', '"chainTriples": 2'), "", None))


class TracerTest(unittest.TestCase):
    def test_wrappers_replace_every_imported_name(self):
        saved = {k: m for k, m in sys.modules.items() if k == "braidkit" or k.startswith("braidkit.")}
        try:
            for key in saved:
                del sys.modules[key]
            bk = package()
            tracer = Tracer()
            tracer.install()
            for module in (bk.normalform, bk.bands, bk.verify, bk.cli):
                self.assertTrue(hasattr(module.canonical_key, "__wrapped__"), module.__name__)
            f = bk.bands.standard_factorization(3)
            bk.hurwitz.orbit_explore(f, size_cap=5)
            metrics = tracer.layer_metrics(1)
            self.assertEqual(metrics["hurwitz.states_visited"], 5)
            self.assertGreater(metrics["hurwitz.apply_move.calls"], 0)
            self.assertGreater(metrics["normalform.lookups"], metrics["normalform.calls"])
            for name, total, own in zip(tracer.names, tracer.total, tracer.self_time):
                self.assertLessEqual(own, total + 1e-9, name)
        finally:
            for key in [k for k in sys.modules if k == "braidkit" or k.startswith("braidkit.")]:
                del sys.modules[key]
            sys.modules.update(saved)


if __name__ == "__main__":
    unittest.main()
