#!/usr/bin/env python3
"""The bench-gate verdict rule on synthetic series; builds and runs nothing.

    python3 tests/scripts/bench_gate_test.py
"""

import contextlib
import io
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
import bench_gate as bg  # noqa: E402

SCALE = bg.GATES["scale"]
OVERHEAD = bg.GATES["overhead"]


def one_tree(*records):
    """One single-tree run holding `records` ({"bench": name, ...})."""
    return {"build": {r["bench"]: r for r in records}}


class Judge(unittest.TestCase):
    def test_resolved_series_on_the_good_side_is_ok(self):
        self.assertEqual(bg.judge([5.0, 5.1, 4.9, 5.05, 4.95], ">=", 4.6, 0.2),
                         "ok")

    def test_resolved_series_past_the_limit_fails(self):
        self.assertEqual(bg.judge([4.0, 4.1, 3.9, 4.05, 3.95], ">=", 4.6, 0.2),
                         "FAIL")

    def test_resolved_median_decides_even_if_one_run_is_past_the_limit(self):
        # The fifth run of a healthy tree below the floor fails no gate.
        self.assertEqual(bg.judge([5.87, 5.67, 5.10, 5.33, 4.59], ">=", 4.603,
                                  0.2), "ok")

    def test_wide_series_all_on_the_good_side_is_ok(self):
        values = [5.0, 9.0, 6.0, 12.0, 7.0]
        self.assertGreater(bg.spread(values)[3], 0.2)
        self.assertEqual(bg.judge(values, ">=", 4.6, 0.2), "ok")

    def test_wide_series_straddling_the_limit_is_unresolved(self):
        values = [0.6, 1.4, 0.9, 2.0, 1.0]
        self.assertGreater(bg.spread(values)[3], 0.05)
        self.assertEqual(bg.judge(values, "<=", 1.05, 0.05), "UNRESOLVED")

    def test_one_run_series_has_no_spread(self):
        self.assertEqual(bg.spread([3.0]), (3.0, 3.0, 3.0, 0.0))
        self.assertEqual(bg.judge([3.0], ">", 0, 0.0), "ok")
        self.assertEqual(bg.judge([-0.01], ">", 0, 0.0), "FAIL")
        self.assertEqual(bg.judge([10000.0], "<", 10000, 0.0), "FAIL")

    def test_missing_series_fails(self):
        self.assertEqual(bg.judge(None, ">=", 1.0, 0.2), "FAIL")


class Records(unittest.TestCase):
    def test_record_missing_from_a_run_fails(self):
        runs = [one_tree({"bench": "a", "speedup": 5.0}),
                one_tree({"bench": "a", "speedup": 5.0},
                         {"bench": "b", "speedup": 5.0})]
        baseline = {"a": {"speedup": 5.0}, "b": {"speedup": 5.0}}
        rows = {r.label: r.verdict
                for r in bg.evaluate(SCALE, runs, baseline)}
        self.assertEqual(rows, {"a speedup": "ok", "b speedup": "FAIL"})

    def test_record_missing_from_the_baseline_fails(self):
        runs = [one_tree({"bench": "a", "speedup": 5.0},
                         {"bench": "new", "speedup": 5.0})]
        rows = {r.label: r.verdict
                for r in bg.evaluate(SCALE, runs, {"a": {"speedup": 5.0}})}
        self.assertEqual(rows, {"a speedup": "ok", "new speedup": "FAIL"})

    def test_field_missing_from_a_run_fails(self):
        runs = [one_tree({"bench": "a", "speedup": 5.0}),
                one_tree({"bench": "a", "wall_ms": 1.0})]
        [row] = bg.evaluate(SCALE, runs, {"a": {"speedup": 5.0}})
        self.assertIsNone(row.values)
        self.assertEqual(row.verdict, "FAIL")

    def test_baseline_share_sets_the_limit(self):
        runs = [one_tree({"bench": "a", "speedup": 4.1})] * 5
        [row] = bg.evaluate(SCALE, runs, {"a": {"speedup": 5.0}})
        self.assertEqual(row.verdict, "ok")  # 4.1 >= 0.8 x 5.0
        runs = [one_tree({"bench": "a", "speedup": 3.9})] * 5
        [row] = bg.evaluate(SCALE, runs, {"a": {"speedup": 5.0}})
        self.assertEqual(row.verdict, "FAIL")

    def test_minus_judges_the_difference_of_two_fields(self):
        plan = bg.GATES["plan"]
        check = plan.checks[0]
        self.assertEqual((check.field, check.limit.other),
                         ("planned_sens", "random_sens"))
        runs = [one_tree({"bench": check.record, "planned_sens": 0.94,
                          "random_sens": 0.93})]
        self.assertAlmostEqual(
            bg.series(plan, check, check.record, runs)[0], 0.01)


class Pairs(unittest.TestCase):
    def test_a_pair_yields_the_on_over_off_ratio_per_record(self):
        runs = [{"on": {"r": {"wall_ms": 105.0}},
                 "off": {"r": {"wall_ms": 100.0}}},
                {"off": {"r": {"wall_ms": 200.0}},
                 "on": {"r": {"wall_ms": 190.0}}}]
        check = OVERHEAD.checks[0]
        self.assertEqual(bg.series(OVERHEAD, check, "r", runs), [1.05, 0.95])
        [row] = bg.evaluate(OVERHEAD, runs, {})
        self.assertEqual(row.label, "r wall_ms on/off")

    def test_host_drift_between_pairs_cancels_inside_each_pair(self):
        # The host slows 3x over the run; every pair still reads 1.02.
        runs = [{"on": {"r": {"wall_ms": 102.0 * k}},
                 "off": {"r": {"wall_ms": 100.0 * k}}}
                for k in (1, 2, 3, 2, 1)]
        [row] = bg.evaluate(OVERHEAD, runs, {})
        self.assertEqual(row.verdict, "ok")

    def test_record_missing_from_one_tree_fails(self):
        runs = [{"on": {"r": {"wall_ms": 1.0}}, "off": {}}]
        [row] = bg.evaluate(OVERHEAD, runs, {})
        self.assertEqual(row.verdict, "FAIL")


class Verdict(unittest.TestCase):
    def test_gate_verdict_and_exit_status(self):
        cases = [(["ok", "ok"], "PASS", 0),
                 (["ok", "UNRESOLVED"], "UNRESOLVED", 3),
                 (["UNRESOLVED", "FAIL", "ok"], "FAIL", 1),
                 ([], "FAIL", 1)]
        for verdicts, gate_verdict, status in cases:
            self.assertEqual(bg.verdict(verdicts), gate_verdict)
            self.assertEqual(bg.EXIT[gate_verdict], status)

    def test_report_prints_the_verdict_last(self):
        out = io.StringIO()
        rows = [bg.Row("r wall_ms on/off", "<= 1.05", [0.6, 1.4, 0.9], 0.05,
                       "UNRESOLVED")]
        with contextlib.redirect_stdout(out):
            self.assertEqual(bg.report(rows), "UNRESOLVED")
        lines = out.getvalue().splitlines()
        self.assertEqual(lines[-1], "UNRESOLVED")
        self.assertIn("series: 0.6 1.4 0.9", lines[1])


if __name__ == "__main__":
    unittest.main(verbosity=2)
