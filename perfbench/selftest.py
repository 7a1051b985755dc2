"""Fast checks of the benchmark's own code; no training runs.

    python3 perfbench/selftest.py

Covers self-time arithmetic on a synthetic nested call, restoration of
wrapped functions, failure counting in the measuring loop, and agreement of
BENCHMARK.json with the metrics the code reports.
"""

from __future__ import annotations

import json
import types
import unittest
from pathlib import Path

import layers
import run
import spans


class ScriptedClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_calls(self):
        # outer [0, 10] holds inner [1, 3] and inner [4, 8]; a top-level
        # inner [20, 21] starts a new operation
        rec = spans.Recorder(clock=ScriptedClock(0, 1, 3, 4, 8, 10, 20, 21))
        inner = rec.wrap("inner", lambda: None)

        def body():
            inner()
            inner()
        outer = rec.wrap("outer", body)
        outer()
        inner()

        names = [s.name for s in rec.spans]
        self.assertEqual(names, ["outer", "inner", "inner", "inner"])
        self.assertEqual([s.parent for s in rec.spans], [None, 0, 0, None])
        self.assertEqual([s.op for s in rec.spans], [1, 1, 1, 2])
        self.assertEqual(spans.self_times(rec.spans), [4.0, 2.0, 4.0, 1.0])
        totals = spans.totals_by_name(rec.spans)
        self.assertEqual((totals["outer"].calls, totals["outer"].s,
                          totals["outer"].self_s), (1, 10.0, 4.0))
        self.assertEqual((totals["inner"].calls, totals["inner"].s,
                          totals["inner"].self_s), (3, 7.0, 7.0))

    def test_span_ends_when_call_raises(self):
        rec = spans.Recorder(clock=ScriptedClock(0, 2))

        def fails():
            raise KeyError("x")
        with self.assertRaises(KeyError):
            rec.wrap("fails", fails)()
        self.assertEqual(rec.spans[0].duration, 2)
        self.assertEqual(rec._open, [])

    def test_note_reads_arguments_and_result(self):
        rec = spans.Recorder()
        double = rec.wrap("double", lambda x: 2 * x,
                          note=lambda args, kwargs, result: {"in": args[0],
                                                             "out": result})
        self.assertEqual(double(3), 6)
        self.assertEqual(rec.spans[0].info, {"in": 3, "out": 6})


def _fake_program():
    lib = types.ModuleType("lib")

    def helper(x):
        return x + 1
    lib.helper = helper

    class Thing:
        def step(self):
            return "stepped"
    lib.Thing = Thing
    user = types.ModuleType("user")
    user.helper = helper            # bound by "from lib import helper"
    user.renamed = helper           # ... or under another name
    return lib, user, helper, Thing.step


class RestoreTest(unittest.TestCase):
    def test_every_alias_wrapped_then_restored(self):
        lib, user, helper, step = _fake_program()
        rec = spans.Recorder()
        targets = [(lib, "helper", "lib.helper", None),
                   (lib.Thing, "step", "lib.Thing.step", None)]
        with rec.tracing(targets, aliases=[lib, user]):
            for fn in (lib.helper, user.helper, user.renamed):
                self.assertIsNot(fn, helper)
            self.assertIsNot(lib.Thing.step, step)
            self.assertEqual(user.renamed(1), 2)
            self.assertEqual(lib.Thing().step(), "stepped")
        self.assertEqual([s.name for s in rec.spans],
                         ["lib.helper", "lib.Thing.step"])
        for fn in (lib.helper, user.helper, user.renamed):
            self.assertIs(fn, helper)
        self.assertIs(lib.Thing.step, step)

    def test_restored_after_exception(self):
        lib, user, helper, _ = _fake_program()
        rec = spans.Recorder()
        with self.assertRaises(RuntimeError):
            with rec.tracing([(lib, "helper", "lib.helper", None)], [user]):
                raise RuntimeError("boom")
        self.assertIs(lib.helper, helper)
        self.assertIs(user.helper, helper)


class FakeWorkload:
    """Body 1 raises; body 2 returns, and its check fails one of two ops."""

    ops_per_body = 2
    work = 10

    def __init__(self):
        self.bodies = 0

    def setup(self):
        return [[]]

    def prepare(self):
        pass

    def body(self):
        self.bodies += 1
        if self.bodies == 1:
            raise ValueError("first body fails")
        return "output"

    def check(self, out):
        return [["wrong output"], []] if out == "output" else [[], []]


class FailureCountingTest(unittest.TestCase):
    def test_failures_are_counted_not_raised(self):
        ledger = run.Ledger()
        workload = FakeWorkload()
        values, samples = run.measure(workload, 0.0, ledger)
        self.assertEqual(workload.bodies, run.MIN_BODIES)
        # set-ups: one op each; body 1: both ops fail; body 2: one fails
        self.assertEqual(ledger.attempted, run.SETUP_REPEATS + 4)
        self.assertEqual(ledger.failed, 3)
        self.assertEqual(len(samples["wall_s"]), 1)
        self.assertEqual(set(values), set(run.END_TO_END))

    def test_no_successful_body_gives_no_metrics(self):
        class AlwaysFails(FakeWorkload):
            def body(self):
                raise ValueError("never works")
        ledger = run.Ledger()
        values, _ = run.measure(AlwaysFails(), 0.0, ledger)
        self.assertEqual(values, {})
        self.assertEqual(ledger.failed, 2 * run.MIN_BODIES)


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_code(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, unit, better) for name, unit, better, _ in layers.METRICS])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual(spec["command"][1], "perfbench/run.py")
        run._import_program()
        from workloads import WORKLOADS
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        self.assertTrue(Path(run.__file__).resolve().is_relative_to(
            run.ROOT / spec["paths"][0]))


if __name__ == "__main__":
    unittest.main()
