#!/usr/bin/env python3
"""Unit tests for bench_check.py's rule dispatch (stdlib unittest only).

Run directly (``python3 scripts/test_bench_check.py``) or via ctest
(registered as bench_check_unit). These pin the family each metric name
lands in and the pass/fail arithmetic of every rule — in particular that no
name ever falls through silently (the historical bug: an unknown suffix was
skipped without a trace, so a renamed metric lost enforcement invisibly).
"""

import contextlib
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_check as bc  # noqa: E402


class TestFamilyPredicates(unittest.TestCase):
    def test_alloc(self):
        self.assertTrue(bc.is_alloc("fat_tree_ecmp.allocs_per_pkt"))
        self.assertTrue(bc.is_alloc("BM_EventQueue.allocs_per_event"))
        self.assertTrue(bc.is_alloc("BM_TcpSender_SackRecovery.allocs_per_ack"))
        self.assertTrue(bc.is_alloc("BM_FatTreeBuild/8.allocs_per_build"))
        self.assertFalse(bc.is_alloc("fat_tree_ecmp.pkts_per_sec"))

    def test_size(self):
        self.assertTrue(bc.is_size("BM_FatTreeBuild/16.route_bytes"))
        self.assertFalse(bc.is_size("BM_FatTreeBuild/16.route_bytes_per_sec"))
        self.assertFalse(bc.is_size("BM_FatTreeBuild/16.faults_per_build"))

    def test_throughput(self):
        self.assertTrue(bc.is_throughput("fat_tree_ecmp.pkts_per_sec"))
        self.assertTrue(bc.is_throughput("scale_k8.events_per_sec"))
        self.assertTrue(bc.is_throughput("engine.events_per_sec"))
        self.assertFalse(bc.is_throughput("scale_k8.rss_mb"))

    def test_ratio(self):
        self.assertTrue(bc.is_ratio("prof_guard.prof_off_ratio"))
        self.assertTrue(bc.is_ratio("scale.k8_vs_k4_events_ratio"))
        self.assertFalse(bc.is_ratio("scale.k8_vs_k4_events"))

    def test_latency(self):
        self.assertTrue(bc.is_latency("fat_tree_ecmp.ns_per_hop"))
        self.assertFalse(bc.is_latency("x.recovery_ms"))

    def test_rss(self):
        self.assertTrue(bc.is_rss("scale_k4.rss_mb"))
        self.assertTrue(bc.is_rss("engine.rss_mb"))
        self.assertFalse(bc.is_rss("engine.rss"))

    def test_recovery(self):
        self.assertTrue(bc.is_recovery("CloveECN.recovery_ms"))
        self.assertFalse(bc.is_recovery("CloveECN.recovery"))


class TestCheckOne(unittest.TestCase):
    TOL = 0.25

    def status(self, name, b, c, **kw):
        return bc.check_one(name, b, c, self.TOL, **kw)[0]

    def test_alloc_limit(self):
        n = "x.allocs_per_pkt"
        self.assertEqual(self.status(n, 0.0, 0.0), "ok")
        self.assertEqual(self.status(n, 0.0, bc.ALLOC_SLACK), "ok")
        self.assertEqual(self.status(n, 0.0, bc.ALLOC_SLACK + 1e-6), "FAIL")

    def test_ratio_floor(self):
        n = "x.prof_off_ratio"
        self.assertEqual(self.status(n, 1.0, 1.0), "ok")
        self.assertEqual(self.status(n, 1.0, 1.0 - bc.RATIO_SLACK), "ok")
        self.assertEqual(self.status(n, 1.0, 0.97), "FAIL")

    def test_magnitude_ratio_uses_relative_floor(self):
        # Far from parity (baseline > 2) the absolute band is meaningless:
        # the hybrid ~50x speedup must get the relative floor instead.
        n = "hybrid.k8_speedup_ratio"
        self.assertEqual(self.status(n, 50.0, 49.0), "ok")   # -2% jitter
        self.assertEqual(self.status(n, 50.0, 40.0), "ok")   # within tol
        self.assertEqual(self.status(n, 50.0, 37.0), "FAIL")  # below floor
        # ...while near-parity ratios keep the tight absolute band.
        self.assertEqual(self.status(n, 1.0, 0.97), "FAIL")

    def test_ratio_slack_override(self):
        n = "scale.k8_vs_k4_events_ratio"
        self.assertEqual(self.status(n, 1.0, 0.9), "FAIL")
        self.assertEqual(self.status(n, 1.0, 0.9, ratio_slack=0.15), "ok")

    def test_throughput_floor(self):
        n = "x.events_per_sec"
        self.assertEqual(self.status(n, 100.0, 80.0), "ok")   # -20% < tol
        self.assertEqual(self.status(n, 100.0, 74.0), "FAIL")  # -26% > tol

    def test_latency_ceiling(self):
        n = "x.ns_per_hop"
        self.assertEqual(self.status(n, 100.0, 130.0), "ok")
        self.assertEqual(self.status(n, 100.0, 140.0), "FAIL")

    def test_rss_ceiling(self):
        n = "scale_k8.rss_mb"
        # ceiling = b * 1.25 + RSS_SLACK_MB
        self.assertEqual(self.status(n, 100.0, 125.0 + bc.RSS_SLACK_MB), "ok")
        self.assertEqual(
            self.status(n, 100.0, 125.0 + bc.RSS_SLACK_MB + 0.5), "FAIL")

    def test_recovery(self):
        n = "x.recovery_ms"
        self.assertEqual(self.status(n, -1.0, 500.0), "info")  # never-recover baseline
        self.assertEqual(self.status(n, 100.0, 150.0), "ok")   # under 125 + 50 slack
        self.assertEqual(self.status(n, 100.0, 180.0), "FAIL")
        self.assertEqual(self.status(n, 100.0, -1.0), "FAIL")  # lost recovery

    def test_missing_recovery_row_fails(self):
        base = {"clove_ecn.recovery_ms": 350.0, "hybrid.k8_speedup_ratio": 50.0}
        self.assertEqual(
            bc.missing_row("clove_ecn.recovery_ms", base, {})[0], "FAIL")
        # Hybrid rows legitimately exist only on the CLOVE_HYBRID=on leg.
        self.assertEqual(
            bc.missing_row("hybrid.k8_speedup_ratio", base, {})[0], "skip")
        # A recovery row new in the current run has nothing to compare to.
        self.assertEqual(
            bc.missing_row("clove_int.recovery_ms", {}, {"x": 1.0})[0], "skip")

    def test_missing_recovery_row_fails_the_run(self):
        def artifact(values):
            f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
            json.dump({"values": [{"name": k, "value": v}
                                  for k, v in values.items()]}, f)
            f.close()
            self.addCleanup(os.unlink, f.name)
            return f.name
        base = artifact({"ecmp.recovery_ms": -1.0,
                         "clove_ecn.recovery_ms": 350.0,
                         "engine.rss_mb": 50.0})
        whole = artifact({"ecmp.recovery_ms": -1.0,
                          "clove_ecn.recovery_ms": 350.0,
                          "engine.rss_mb": 50.0})
        short = artifact({"ecmp.recovery_ms": -1.0, "engine.rss_mb": 50.0})
        with open(os.devnull, "w") as null, \
                contextlib.redirect_stdout(null), \
                contextlib.redirect_stderr(null):
            self.assertEqual(bc.main(["bench_check.py", base, whole]), 0)
            self.assertEqual(bc.main(["bench_check.py", base, short]), 1)

    def test_allocs_per_build_limit(self):
        n = "BM_FatTreeBuild/8.allocs_per_build"
        self.assertEqual(self.status(n, 7333.0, 7333.0), "ok")
        self.assertEqual(self.status(n, 7333.0, 7334.0), "FAIL")

    def test_route_bytes_ceiling(self):
        n = "BM_FatTreeBuild/16.route_bytes"
        self.assertEqual(self.status(n, 3788800.0, 3788800.0), "ok")
        self.assertEqual(self.status(n, 3788800.0, 1000000.0), "ok")
        # An exact size gets no tolerance: one byte over fails.
        self.assertEqual(self.status(n, 3788800.0, 3788801.0), "FAIL")

    def test_rss_row_fails_when_run_modes_differ(self):
        ci = {"threads": 4, "flight_recorder": "sampled"}
        serial = {"threads": 1, "flight_recorder": "sampled"}
        recorder_off = {"threads": 4, "flight_recorder": "off"}
        self.assertIsNone(bc.mode_mismatch("engine.rss_mb", ci, dict(ci)))
        self.assertIn("threads=1",
                      bc.mode_mismatch("engine.rss_mb", ci, serial))
        self.assertIsNotNone(
            bc.mode_mismatch("engine.rss_mb", ci, recorder_off))
        # Only rss rows depend on the run modes.
        self.assertIsNone(bc.mode_mismatch("x.recovery_ms", ci, serial))
        # Artifacts that record no modes (the micro and scale benches) agree.
        none = bc.run_modes({"scale": {"seeds": 1}})
        self.assertIsNone(bc.mode_mismatch("scale_k8.rss_mb", none, dict(none)))
        self.assertIsNotNone(bc.mode_mismatch("engine.rss_mb", none, ci))

    def test_rss_mode_mismatch_fails_the_run(self):
        def artifact(threads, recorder, rss):
            f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
            json.dump({"scale": {"threads": threads,
                                 "flight_recorder": recorder},
                       "values": [{"name": "engine.rss_mb", "value": rss}]},
                      f)
            f.close()
            self.addCleanup(os.unlink, f.name)
            return f.name
        base = artifact(4, "sampled", 105.0)
        same = artifact(4, "sampled", 104.0)
        serial = artifact(1, "sampled", 28.0)  # under the ceiling, wrong mode
        with open(os.devnull, "w") as null, \
                contextlib.redirect_stdout(null), \
                contextlib.redirect_stderr(null):
            self.assertEqual(bc.main(["bench_check.py", base, same]), 0)
            self.assertEqual(bc.main(["bench_check.py", base, serial]), 1)

    def test_unknown_name_is_info_not_silent(self):
        status, detail = bc.check_one("x.pool_allocated", 5.0, 9.0, self.TOL)
        self.assertEqual(status, "info")
        self.assertIn("no rule", detail)

    def test_every_scale_bench_value_has_a_rule(self):
        # The names BENCH_scale commits must all be enforced (not info rows).
        for name in ("scale_k4.events_per_sec", "scale_k8.events_per_sec",
                     "scale_k4.rss_mb", "scale_k8.rss_mb",
                     "scale.k8_vs_k4_events_ratio",
                     "prof_guard.prof_off_ratio",
                     "prof_guard.prof_off.allocs_per_pkt"):
            status, _ = bc.check_one(name, 1.0, 1.0, self.TOL)
            self.assertEqual(status, "ok", name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
