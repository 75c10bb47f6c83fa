"""Tests of the benchmark's pure helpers.

    python3 -m pytest bench/test_metrics.py
"""

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p90_reported_with_ten_samples_beyond(self):
        p50, p90 = metrics.percentiles([float(x) for x in range(1, 101)])
        self.assertEqual(p50, 50.5)
        self.assertEqual(sum(1 for x in range(1, 101) if x > p90), 10)

    def test_p90_withheld_with_nine_samples_beyond(self):
        samples = [float(x) for x in range(1, 91)]
        _, p90 = metrics.percentiles(samples)
        self.assertIsNone(p90)

    def test_single_sample_has_only_a_median(self):
        self.assertEqual(metrics.percentiles([3.0]), (3.0, None))


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        # a (0..10) calls b (1..5), which calls c (2..3); a also drives the
        # generator d, busy 2 s in total although it spans 5..9.
        names = ["a", "b", "c", "d"]
        parents = [-1, 0, 1, 0]
        busy = [10.0, 4.0, 1.0, 2.0]
        self.assertEqual(metrics.self_times(names, parents, busy), {"a": 4.0, "b": 3.0, "c": 1.0, "d": 2.0})

    def test_spans_of_one_name_add_up(self):
        names = ["a", "x", "x", "a"]
        parents = [-1, 0, 0, -1]
        busy = [5.0, 1.0, 1.5, 2.0]
        self.assertEqual(metrics.self_times(names, parents, busy), {"a": 4.5, "x": 2.5})


class EnumerationArithmetic(unittest.TestCase):
    def test_box_points(self):
        self.assertEqual(metrics.box_points((2, 3)), 12)
        self.assertEqual(metrics.box_points((0, 0, 0)), 1)
        self.assertEqual(metrics.box_points((-1, 5)), 0)

    def test_yield_ratio(self):
        self.assertEqual(metrics.yield_ratio(3, 12), 0.25)
        self.assertEqual(metrics.yield_ratio(0, 0), 0.0)

    def test_box_rounds_counts_direct_walks_per_caller(self):
        names = ["rmg", "walk", "walk", "rmg", "walk", "walk", "other", "walk"]
        parents = [-1, 0, 0, -1, 3, -1, -1, 6]
        self.assertEqual(metrics.box_rounds(names, parents, "rmg", "walk"), 1.5)
        self.assertEqual(metrics.box_rounds(["walk"], [-1], "rmg", "walk"), 0.0)


class Digest(unittest.TestCase):
    def test_stable_under_key_order(self):
        one = [{"holds": True, "gens": [[1, 2]]}, {"a": 1, "b": "2/3"}]
        two = [{"gens": [[1, 2]], "holds": True}, {"b": "2/3", "a": 1}]
        self.assertEqual(metrics.digest(one), metrics.digest(two))

    def test_sensitive_to_values_and_order(self):
        self.assertNotEqual(metrics.digest([[1, 2]]), metrics.digest([[2, 1]]))
        self.assertNotEqual(metrics.digest({"a": 1}), metrics.digest({"a": 2}))


class TrimmedMean(unittest.TestCase):
    def test_drops_both_tails(self):
        self.assertEqual(metrics.trimmed_mean([1.0, 2.0, 3.0, 4.0, 100.0], cut=0.2), 3.0)

    def test_short_samples_keep_everything(self):
        self.assertEqual(metrics.trimmed_mean([1.0, 2.0, 6.0]), 3.0)


class MetricList(unittest.TestCase):
    def test_runs_report_exactly_the_declared_metrics_and_units(self):
        sys.path.insert(0, str(BENCH.parent / "src"))
        import run
        import tracer

        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        layers = list(tracer.Tracer().layer_metrics()) + ["trace.overhead_ratio"]
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]), sorted(layers))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertEqual(m["unit"], run.unit(m["name"]), m["name"])


if __name__ == "__main__":
    unittest.main()
