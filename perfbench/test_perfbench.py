#!/usr/bin/env python3
"""Tests for the benchmark's own arithmetic, plus a tiny end-to-end pass.

    python3 perfbench/test_perfbench.py

The tiny pass builds bench_e2e and hdiff (like run.py) and runs every
workload once, test-sized, with tracing off and on.
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_hundred_samples_give_p90(self):
        # 91..100 are the ten samples beyond 90.
        self.assertEqual(run.tail(range(1, 101)), (90.0, 90.0, 100))

    def test_order_does_not_matter(self):
        self.assertEqual(run.tail(reversed(range(1, 101))),
                         run.tail(range(1, 101)))

    def test_twenty_one_samples_reach_the_median(self):
        value, percentile, count = run.tail(range(21))
        self.assertEqual(value, 10.0)
        self.assertEqual(count, 21)
        self.assertAlmostEqual(percentile, 100 * 11 / 21)

    def test_fewer_samples_fall_back_to_the_maximum(self):
        self.assertEqual(run.tail([3, 1, 2]), (3.0, 100.0, 3))
        self.assertEqual(run.tail(range(20)), (19.0, 100.0, 20))
        self.assertEqual(run.tail([7]), (7.0, 100.0, 1))

    def test_no_samples(self):
        self.assertEqual(run.tail([]), (0.0, 0.0, 0))


def bench_names():
    metrics = run.BENCH["end_to_end"] + run.BENCH["per_layer"]
    return ([m["name"] for m in metrics] +
            [w["name"] for w in run.BENCH["workloads"]])


class MetricNames(unittest.TestCase):
    def test_every_name_matches_the_grammar(self):
        for name in bench_names():
            self.assertRegex(name, run.NAME_RE)

    def test_grammar_rejects_bad_names(self):
        for bad in ("", "_lead", ".lead", "a b", "x" * 65, "a/b", "\u00e9"):
            self.assertIsNone(run.NAME_RE.match(bad), bad)
        self.assertIsNotNone(run.NAME_RE.match("x" * 64))

    def test_names_are_unique(self):
        names = bench_names()
        self.assertEqual(len(names), len(set(names)))

    def test_units(self):
        for unit in run.UNITS.values():
            self.assertRegex(unit, run.UNIT_RE)


class BenchmarkJson(unittest.TestCase):
    def test_contract_shape(self):
        doc = run.BENCH
        self.assertEqual(set(doc), {"command", "paths", "run_seconds",
                                    "workloads", "end_to_end", "per_layer"})
        self.assertEqual(doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(doc["paths"], ["perfbench"])
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        for w in doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
        for m in doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(m["better"] in ("lower", "higher")
                            for m in doc["end_to_end"] + doc["per_layer"]))


class Reconciliation(unittest.TestCase):
    def test_gap(self):
        self.assertEqual(run.reconcile_gap([1, 2, 3], 6), 0.0)
        self.assertAlmostEqual(run.reconcile_gap([45, 45], 100), 0.1)
        self.assertAlmostEqual(run.reconcile_gap([55, 55], 100), 0.1)
        self.assertEqual(run.reconcile_gap([5], 0), 0.0)

    def test_self_times_subtract_direct_children(self):
        ev = [
            {"ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 100, "name": "run"},
            {"ph": "X", "pid": 1, "tid": 0, "ts": 10, "dur": 20, "name": "a"},
            {"ph": "X", "pid": 1, "tid": 0, "ts": 15, "dur": 5, "name": "a.1"},
            {"ph": "X", "pid": 1, "tid": 0, "ts": 40, "dur": 20, "name": "b"},
            # another lane: never a child of "run"
            {"ph": "X", "pid": 2, "tid": 0, "ts": 20, "dur": 10, "name": "w"},
            {"ph": "i", "pid": 1, "tid": 0, "ts": 50, "name": "instant"},
        ]
        self.assertEqual(run.self_times(ev),
                         {"run": 60, "a": 15, "a.1": 5, "b": 20, "w": 10})

    def test_self_times_clip_a_child_at_its_parent_end(self):
        ev = [
            {"ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 100, "name": "p"},
            {"ph": "X", "pid": 1, "tid": 0, "ts": 90, "dur": 20, "name": "c"},
        ]
        self.assertEqual(run.self_times(ev), {"p": 90, "c": 20})

    def raw(self, traced):
        return {"check_failures": [], "quarantined": 0, "findings": [1],
                "cases": 10, "traced": traced}

    def test_campaign_phases_must_cover_the_run_wall(self):
        rounds = [{"unit": 0, "open_us": 10 if p == 10 else 0,
                   "close_us": 5 if p == 20 else 0, "plan_us": p,
                   "execute_us": 40, "integrate_us": 20, "commit_us": 5,
                   "round_us": p + 65, "corpus_entries": 1,
                   "minimize_steps": 0, "state_bytes": 1, "novel": 1,
                   "duplicate": 1, "stream_cases": 0} for p in (10, 20)]
        # Open, the round phases and close: 10 + 75 + 85 + 5 = 175 us.
        for wall, ok in ((175, True), (180, True), (165, False), (200, False)):
            traced = {"pairs": [{"untraced_us": wall, "traced_us": wall}],
                      "rounds": rounds}
            metrics, layers = run.per_layer(self.raw(traced), "campaign")
            self.assertAlmostEqual(metrics["bench.reconcile_gap"],
                                   abs(wall - 175) / wall)
            self.assertEqual(layers["reconcile_ok"], ok, wall)

    def test_serve_rounds_must_cover_the_supervisor_wall(self):
        rounds = [{"unit": u, "round": r, "gap_us": 10, "shard_us": 90,
                   "round_us": 100, "cases": 5} for u in (0, 1) for r in (0, 1)]
        pairs = [{"untraced_us": 200, "traced_us": 200},
                 {"untraced_us": 200, "traced_us": 250}]
        metrics, layers = run.per_layer(
            self.raw({"pairs": pairs, "serve_rounds": rounds}), "serve")
        self.assertAlmostEqual(metrics["bench.reconcile_gap"], 0.2)
        self.assertFalse(layers["reconcile_ok"])


class TinyWorkloads(unittest.TestCase):
    """run.py end to end on test-sized workloads: the result line names
    exactly BENCHMARK.json's metrics, with its units."""

    def result(self, workload, trace):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "7",
                             "--seconds", "0", "--trace", str(trace), "--tiny"])
        self.assertEqual(code, 0, out.getvalue())
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_every_workload_reports_every_metric(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in run.BENCH[group]}
            for workload in [w["name"] for w in run.BENCH["workloads"]]:
                with self.subTest(workload=workload, trace=trace):
                    result = self.result(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in
                                      result["metrics"].items()}, declared)
                    if trace == 0:
                        self.assertTrue(all(v["value"] > 0 for v in
                                            result["metrics"].values()), result)
                    else:
                        layers = json.loads(
                            (run.OUT / f"layers_{workload}.json").read_text())
                        self.assertTrue(layers["reconcile_ok"], layers)
                        self.assertTrue(Path(layers["trace_file"]).is_file())


if __name__ == "__main__":
    unittest.main()
