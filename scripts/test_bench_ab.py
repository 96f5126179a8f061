#!/usr/bin/env python3
"""Unit tests for bench_ab.py's pairing and statistics (stdlib unittest only).

Run directly (``python3 scripts/test_bench_ab.py``) or via ctest (registered
as bench_ab_unit). A fake runner stands in for perfbench/run.py.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_ab as ab  # noqa: E402


def result(correct=True, failed=0, **values):
    return {"correct": correct, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


class FakeRunner:
    """Hands out queued results per side and records the call order."""

    def __init__(self, base, head):
        self.queues = {"base": list(base), "head": list(head)}
        self.calls = []

    def __call__(self, side):
        self.calls.append(side)
        return self.queues[side].pop(0)


class TestRunPairs(unittest.TestCase):
    def test_order_flips_every_pair(self):
        fake = FakeRunner([result(t=1.0)] * 3, [result(t=1.0)] * 3)
        pairs = ab.run_pairs(3, fake)
        self.assertEqual(fake.calls,
                         ["base", "head", "head", "base", "base", "head"])
        self.assertEqual([p["order"] for p in pairs],
                         [["base", "head"], ["head", "base"],
                          ["base", "head"]])

    def test_pairs_with_a_bad_side_are_left_out_with_the_reason(self):
        fake = FakeRunner(
            [result(t=1.0), result(correct=False, t=1.0), result(t=1.0)],
            [result(failed=3, t=1.0), result(t=1.0), "exit 1: boom"])
        pairs = ab.run_pairs(3, fake)
        self.assertEqual(pairs[0]["why"], "head: correct=True failed=3")
        self.assertEqual(pairs[1]["why"], "base: correct=False failed=0")
        self.assertEqual(pairs[2]["why"], "head: exit 1: boom")
        self.assertEqual(ab.summarize(pairs, {"t": "lower"}), {})
        self.assertIn("pair 2 (base then head) left out: head: exit 1: boom",
                      ab.report(pairs, {}))


class TestSummarize(unittest.TestCase):
    def pairs(self, base, head, name="t"):
        fake = FakeRunner([result(**{name: v}) for v in base],
                          [result(**{name: v}) for v in head])
        return ab.run_pairs(len(base), fake)

    def test_quartiles_ratio_and_iqr(self):
        s = ab.summarize(self.pairs([1.0, 2.0, 3.0, 4.0, 5.0],
                                    [0.5, 1.0, 1.5, 2.0, 2.5]),
                         {"t": "lower"})["t"]
        self.assertEqual(s["base"], (2.0, 3.0, 4.0))
        self.assertEqual(s["head"], (1.0, 1.5, 2.0))
        self.assertAlmostEqual(s["ratio"], 0.5)
        self.assertEqual((s["wins"], s["pairs"]), (5, 5))
        self.assertFalse(s["beyond_iqr"])  # gap 1.5 < base IQR 2.0

    def test_gap_beyond_the_base_iqr(self):
        s = ab.summarize(self.pairs([10.0, 10.2, 10.4, 10.1], [8.0] * 4),
                         {"t": "lower"})["t"]
        self.assertTrue(s["beyond_iqr"])

    def test_ties_count_for_neither_side(self):
        s = ab.summarize(self.pairs([1.0, 1.0, 2.0, 1.0], [1.0, 0.5, 3.0, 1.0]),
                         {"t": "lower"})["t"]
        self.assertEqual((s["wins"], s["pairs"]), (1, 4))

    def test_higher_is_better(self):
        s = ab.summarize(self.pairs([1.0, 1.0, 1.0], [2.0, 0.5, 2.0]),
                         {"t": "higher"})["t"]
        self.assertEqual(s["wins"], 2)

    def test_one_pair(self):
        s = ab.summarize(self.pairs([2.0], [1.0]), {"t": "lower"})["t"]
        self.assertEqual(s["base"], (2.0, 2.0, 2.0))
        self.assertTrue(s["beyond_iqr"])

    def test_report_prints_a_row_per_metric(self):
        pairs = self.pairs([2.0, 2.0], [1.0, 1.0], name="setup_s")
        text = ab.report(pairs, ab.summarize(pairs, {"setup_s": "lower"}))
        row = text.splitlines()[-1]
        self.assertTrue(row.startswith("setup_s"))
        self.assertIn("0.500", row)
        self.assertIn("2/2", row)
        self.assertTrue(row.endswith("yes"))


if __name__ == "__main__":
    unittest.main()
