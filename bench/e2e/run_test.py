#!/usr/bin/env python3
"""Tests of run.py's result checks and two-commit comparison."""

import importlib.util
import json
import tempfile
import unittest
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "run", Path(__file__).resolve().parent / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

TXN = {"name": "txn_per_s", "unit": "txn/s", "better": "higher", "bound": 0.1}
SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}


class VerdictTest(unittest.TestCase):
    def test_regression_beyond_the_bound(self):
        parent = [100, 101, 99, 100, 100]
        self.assertEqual(run.verdict(TXN, parent, [85] * 5)[0], "REGRESSED")
        self.assertEqual(run.verdict(TXN, parent, [95] * 5)[0], "same")

    def test_gain_needs_nine_tenths_of_pairs_and_the_spread(self):
        parent = [100, 102, 98, 100, 101, 99, 100, 100, 100, 100]
        label, wins, n = run.verdict(TXN, parent, [110] * 10)
        self.assertEqual((label, wins, n), ("better", 10, 10))
        mixed = [110] * 8 + [90] * 2
        self.assertEqual(run.verdict(TXN, parent, mixed)[0], "same")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [70, 130, 80, 120, 100]
        self.assertEqual(run.verdict(TXN, parent, [95] * 5)[0], "unresolved")
        # ...unless every change run beats every parent run.
        self.assertNotEqual(run.verdict(TXN, parent, [140] * 5)[0],
                            "unresolved")

    def test_setup_has_an_absolute_floor(self):
        # 5 ms -> 15 ms is +200%, but within the 0.02 s floor.
        self.assertEqual(run.verdict(SETUP, [0.005] * 5, [0.015] * 5)[0],
                         "same")
        self.assertEqual(run.verdict(SETUP, [0.005] * 5, [0.030] * 5)[0],
                         "REGRESSED")
        # Above the floor the relative bound applies.
        self.assertEqual(run.verdict(SETUP, [1.0] * 5, [1.15] * 5)[0],
                         "REGRESSED")

    def test_different_machines_are_advisory(self):
        label = run.verdict(TXN, [100] * 5, [80] * 5, comparable=False)[0]
        self.assertTrue(label.startswith("REGRESSED (advisory"))

    def test_quartiles_match_statistics(self):
        self.assertEqual(run.quartiles([5]), (5, 5, 5))
        self.assertEqual(run.quartiles([1, 2, 3, 4, 5]), (1.5, 3, 4.5))


class ResultTest(unittest.TestCase):
    def line(self, metrics):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {n: {"value": 1.0, "unit": "s"} for n in metrics}}

    def test_missing_metric_is_reported(self):
        units = {"a": "s", "b": "s"}
        problems = run.check_result(self.line(["a"]), units)
        self.assertEqual(problems, ["missing metrics: b"])
        self.assertEqual(run.check_result(self.line(["a", "b"]), units), [])

    def test_wrong_unit_is_reported(self):
        problems = run.check_result(self.line(["a"]), {"a": "ms"})
        self.assertEqual(problems, ["a has unit s, not ms"])

    def test_extra_keys_are_reported(self):
        result = self.line(["a"])
        result["fingerprint"] = {}
        self.assertTrue(run.check_result(result, {"a": "s"}))

    def test_read_runs_parses_saved_output(self):
        with tempfile.NamedTemporaryFile("w", suffix=".log") as f:
            f.write("rainbow_bench: workload x\n")
            f.write('fingerprint {"hardware_threads": 4}\n')
            f.write(json.dumps(self.line(["a"])) + "\n")
            f.write(json.dumps(self.line(["a"])) + "\n")
            f.flush()
            results, fingerprints = run.read_runs(f.name)
        self.assertEqual(len(results), 2)
        self.assertEqual(fingerprints, {'{"hardware_threads": 4}'})


if __name__ == "__main__":
    unittest.main()
