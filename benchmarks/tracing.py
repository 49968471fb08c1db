"""Per-layer tracing of braidkit from outside, without editing it.

`Tracer.install` wraps every public function of the traced modules and
puts the wrapper in place of the original under every name that any
braidkit module bound it to.  `bands` and `verify`, for example, import
`canonical_key` by name, so replacing it in `normalform` alone would
miss their calls.  `perms` and `freegroup.free_word_inverse` are left
bare: they run per letter inside `normal_form` and `generator_images`,
so a wrapper there would mostly time itself.

Each call is a span.  Aggregates (calls, inclusive time and self time,
which is the span's time minus the time its child spans cover) are kept
for every function; raw spans are kept in memory up to `SPAN_LIMIT` and
written out by `write_spans` when the run ends.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

from reference import SUITES

TRACED = ("words", "normalform", "freegroup", "bands", "hurwitz",
          "rewriting", "planar", "verify", "cli")
UNTRACED = {"freegroup.free_word_inverse"}
SPAN_LIMIT = 200_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counters = {"normalform.lookups": 0, "normalform.letters": 0,
                         "freegroup.image_letters": 0, "hurwitz.states_visited": 0,
                         "rewriting.words_visited": 0, "planar.faces": 0}
        self.op = -1
        # Child time accumulators; the bottom entry belongs to the caller.
        self._stack = [0.0]
        self._span_name = array("i")
        self._span_depth = array("i")
        self._span_op = array("i")
        self._span_start = array("d")
        self._span_end = array("d")

    def _observer(self, name: str):
        """Counters read from a call's arguments or its result."""
        c = self.counters
        if name == "normalform.equal":
            def observe(args, result):
                if args[0].n == args[1].n:
                    c["normalform.lookups"] += 2
        elif name == "normalform.canonical_key":
            def observe(args, result):
                c["normalform.lookups"] += 1
        elif name == "normalform.normal_form":
            def observe(args, result):
                c["normalform.letters"] += len(args[0].letters)
        elif name == "freegroup.generator_images":
            def observe(args, result):
                c["freegroup.image_letters"] += sum(len(img) for img in result)
        elif name in ("hurwitz.orbit_explore", "hurwitz.find_path"):
            def observe(args, result):
                c["hurwitz.states_visited"] += result.visited
        elif name == "rewriting.relation_path":
            def observe(args, result):
                c["rewriting.words_visited"] += result.visited
        elif name == "rewriting.equivalence_class":
            def observe(args, result):
                c["rewriting.words_visited"] += len(result.words)
        elif name == "planar.trace_faces":
            def observe(args, result):
                c["planar.faces"] += len(result)
        else:
            observe = None
        return observe

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        observe = self._observer(name)
        stack, calls, total, self_time = self._stack, self.calls, self.total, self.self_time
        spans = (self._span_name, self._span_depth, self._span_op,
                 self._span_start, self._span_end)
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                end = perf_counter()
                span = end - start
                child = stack.pop()
                stack[-1] += span
                calls[idx] += 1
                total[idx] += span
                self_time[idx] += span - child
                if len(spans[0]) < SPAN_LIMIT:
                    spans[0].append(idx)
                    spans[1].append(len(stack) - 1)
                    spans[2].append(tracer.op)
                    spans[3].append(start)
                    spans[4].append(end)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of the traced braidkit modules."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "braidkit" or key.startswith("braidkit."))]
        replace: dict[int, object] = {}
        for short in TRACED:
            module = sys.modules[f"braidkit.{short}"]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or f"{short}.{attr}" in UNTRACED):
                    continue
                replace[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def write_spans(self, path) -> int:
        """Write the kept spans as tab-separated lines; returns how many."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tdepth\top\tstart_s\tend_s\n")
            for k in range(len(self._span_name)):
                fh.write(f"{names[self._span_name[k]]}\t{self._span_depth[k]}\t"
                         f"{self._span_op[k]}\t{self._span_start[k]:.9f}\t"
                         f"{self._span_end[k]:.9f}\n")
        return len(self._span_name)

    def _sum(self, field: list, pred) -> float:
        return sum(v for name, v in zip(self.names, field) if pred(name))

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics over everything traced so far, per round.

        Counts and times are divided by `rounds`; ratios and rates are not.
        """
        def module(prefix):
            return lambda name: name.startswith(prefix + ".")

        def only(*names):
            return lambda name: name in names

        calls, self_time, total = self.calls, self.self_time, self.total
        c = self.counters
        nf_calls = self._sum(calls, only("normalform.normal_form"))
        nf_time = self._sum(total, only("normalform.normal_form"))
        lookups = c["normalform.lookups"]
        apply_calls = self._sum(calls, only("hurwitz.apply_move"))
        out = {
            "normalform.calls": nf_calls,
            "normalform.lookups": lookups,
            "normalform.self_s": self._sum(self_time, module("normalform")),
            "freegroup.calls": self._sum(calls, only("freegroup.generator_images")),
            "freegroup.image_letters": c["freegroup.image_letters"],
            "freegroup.self_s": self._sum(self_time, module("freegroup")),
            "words.calls": self._sum(calls, module("words")),
            "words.self_s": self._sum(self_time, module("words")),
            "bands.calls": self._sum(calls, module("bands")),
            "bands.self_s": self._sum(self_time, module("bands")),
            "hurwitz.apply_move.calls": apply_calls,
            "hurwitz.apply_move.self_s": self._sum(self_time, only("hurwitz.apply_move")),
            "hurwitz.tuple_key.calls": self._sum(calls, only("hurwitz.tuple_key")),
            "hurwitz.tuple_key.self_s": self._sum(self_time, only("hurwitz.tuple_key")),
            "hurwitz.states_visited": c["hurwitz.states_visited"],
            "hurwitz.search.self_s":
                self._sum(self_time, only("hurwitz.orbit_explore", "hurwitz.find_path")),
            "rewriting.neighbors.calls": self._sum(calls, only("rewriting.neighbors")),
            "rewriting.neighbors.self_s": self._sum(self_time, only("rewriting.neighbors")),
            "rewriting.words_visited": c["rewriting.words_visited"],
            "rewriting.self_s": self._sum(self_time, module("rewriting")),
            "planar.build.self_s": self._sum(self_time, only("planar.band_subgraph_map")),
            "planar.check.self_s": self._sum(self_time, only("planar.check_semiframe")),
            "planar.faces": c["planar.faces"],
        }
        for suite in SUITES:
            fn = "verify.suite_" + suite.replace("-", "_")
            out[f"verify.{suite}_s"] = self._sum(total, only(fn))
        out["cli.calls"] = self._sum(calls, only("cli.main"))
        out["cli.self_s"] = self._sum(self_time, module("cli"))
        out = {name: value / rounds for name, value in out.items()}
        out["normalform.cache_hit_ratio"] = 1 - nf_calls / lookups if lookups else 0.0
        out["normalform.letters_per_s"] = c["normalform.letters"] / nf_time if nf_time else 0.0
        out["hurwitz.new_state_ratio"] = (c["hurwitz.states_visited"] / apply_calls
                                          if apply_calls else 0.0)
        return out

