"""Self-test of the benchmark's tracing code.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic span tree, that a traced call
records the expected spans and counters, that every wrapper is removed after
the traced block, and that BENCHMARK.json lists exactly the per-layer
metrics the tracer reports.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

import bootstrap
import tracing
from tracing import Span


def setUpModule():
    bootstrap.prepare()


def _originals() -> dict:
    found = {}
    for name in tracing.MODULES:
        module = importlib.import_module(name)
        for target in tracing.SPANNED + tracing.COUNTED:
            attr = target.split(".")[1]
            if attr in module.__dict__:
                found[(name, attr)] = module.__dict__[attr]
    return found


class SelfTimeArithmetic(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            Span(0, None, 0, "root", 0.0, 10.0),
            Span(1, 0, 0, "a", 1.0, 4.0),
            Span(2, 0, 0, "b", 3.0, 6.0),   # overlaps a: together they cover 1..6
            Span(3, 1, 0, "leaf", 2.0, 3.0),
            Span(4, 0, 0, "c", 8.0, 9.0),
        ]
        selves = tracing.self_times(spans)
        self.assertAlmostEqual(selves[0], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(selves[1], 3.0 - 1.0)
        self.assertAlmostEqual(selves[2], 3.0)
        self.assertAlmostEqual(selves[3], 1.0)
        self.assertAlmostEqual(selves[4], 1.0)

    def test_generator_child_covers_only_busy_time(self):
        spans = [
            Span(0, None, 0, "consumer", 0.0, 10.0),
            Span(1, 0, 0, "gen", 1.0, 9.0, busy=3.0),
            Span(2, 1, 0, "inner", 2.0, 2.5),
            Span(3, 0, 0, "sibling", 5.0, 6.0),   # runs between two next() calls
        ]
        selves = tracing.self_times(spans)
        self.assertAlmostEqual(selves[0], 10.0 - 3.0 - 1.0)
        self.assertAlmostEqual(selves[1], 3.0 - 0.5)
        self.assertAlmostEqual(selves[2], 0.5)

    def test_layer_totals_split_by_operation(self):
        tracer = tracing.Tracer()
        tracer.spans = [Span(0, None, "x", "f", 0.0, 2.0), Span(1, 0, "x", "g", 0.5, 1.0),
                        Span(2, None, "y", "f", 0.0, 7.0)]
        tracer.counts[("x", "f.items")] = 3
        tracer.peaks[("y", "f.peak")] = 4.0
        totals = tracing.layer_totals(tracer, {"x"})
        self.assertEqual(totals["f.self_s"], 1.5)
        self.assertEqual(totals["f.calls"], 1)
        self.assertEqual(totals["g.self_s"], 0.5)
        self.assertEqual(totals["f.items"], 3)
        self.assertNotIn("f.peak", totals)


class TracedRun(unittest.TestCase):
    def test_wrappers_record_and_are_removed(self):
        from qchangepoint import cli, online

        before = _originals()
        tracer = tracing.Tracer()
        with tempfile.TemporaryDirectory(dir=bootstrap.BENCH_DIR) as tmp:
            out = Path(tmp) / "sweep.csv"
            records = Path(tmp) / "records.jsonl"
            with tracing.installed(tracer):
                self.assertIsNot(cli.collective_summary, before[("qchangepoint.cli", "collective_summary")])
                self.assertIsNot(online.uniform_array, before[("qchangepoint.online", "uniform_array")])
                tracer.op = "sweep"
                self.assertEqual(cli.main(["sweep", "--n", "6", "--c2", "0.3,0.6", "--trials", "100",
                                           "--out", str(out)]), 0)
                tracer.op = "records"
                self.assertEqual(cli.main(["montecarlo", "--strategy", "greedy", "--n", "5",
                                           "--c2", "0.5", "--trials", "70", "--out", str(out),
                                           "--records", str(records)]), 0)
        self.assertEqual(_originals(), before)

        sweep = tracing.layer_totals(tracer, {"sweep"})
        self.assertEqual(sweep["cli.main.calls"], 1)
        self.assertEqual(sweep["collective.collective_summary.calls"], 2)
        self.assertEqual(sweep["collective.optimal_povm_fixed_point.calls"], 2)
        self.assertEqual(sweep["online.monte_carlo.trials"], 200)
        # per point: true-k draw plus one variate per step, each for 100 trials
        self.assertEqual(sweep["rng.uniform_array.variates"], 2 * 100 * (1 + 6))
        self.assertGreater(sweep["special.elliptic_k.calls"], 0)
        self.assertGreater(sweep["collective.optimal_povm_fixed_point.peak_alloc_mb"], 0.0)
        root = [s for s in tracer.spans if s.op == "sweep" and s.parent is None]
        self.assertEqual([s.name for s in root], ["cli.main"])
        selves = tracing.self_times([s for s in tracer.spans if s.op == "sweep"])
        self.assertTrue(math.isclose(sum(selves.values()), root[0].duration, rel_tol=1e-9))

        audit = tracing.layer_totals(tracer, {"records"})
        self.assertEqual(audit["online.iter_trial_records.records"], 70)
        gen = [s for s in tracer.spans if s.name == "online.iter_trial_records"]
        self.assertEqual(len(gen), 1)
        self.assertLessEqual(gen[0].busy, gen[0].end - gen[0].start)
        self.assertGreaterEqual(tracing.self_times(tracer.spans)[gen[0].span_id], 0.0)


class BenchmarkSpec(unittest.TestCase):
    def test_per_layer_metrics_match(self):
        spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(listed, list(tracing.LAYER_METRICS))


if __name__ == "__main__":
    sys.exit(unittest.main())
