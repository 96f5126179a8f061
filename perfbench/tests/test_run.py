"""Tests of the benchmark's own code (perfbench/run.py). They need no engine
build: simulations are replaced by synthetic results.

    python3 -m unittest discover -s perfbench/tests
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402

COUNTERS = [
    "sim.events", "sim.queue_hwm", "net.switch_forwarded", "net.link_tx_packets",
    "net.drops", "net.ecn_marks", "net.pool_reuse_ratio", "overlay.encapped",
    "overlay.feedback_received", "overlay.ce_intercepted",
    "overlay.discovery_probes", "lb.flowlets_started", "transport.packets_sent",
    "transport.bytes_sent", "transport.bytes_acked",
    "transport.fast_retransmits", "transport.timeouts",
    "transport.reorder_events", "hybrid.promotions", "hybrid.demotions",
    "hybrid.solves", "hybrid.fluid_bytes", "workload.bytes_offered",
    "workload.avg_fct_ms", "workload.mice_p99_fct_ms",
]


def fake_result(digest="00c0ffee", jobs_done=10, jobs_total=10, traced=False):
    counters = {name: 7.0 for name in COUNTERS}
    counters["workload.jobs_done"] = jobs_done
    counters["workload.jobs_total"] = jobs_total
    scopes = {name: {"count": 3, "self_ns": 1000 * (i + 1), "total_ns": 2000}
              for i, name in enumerate(run.SCOPE_LAYERS)}
    return {
        "digest": digest,
        "build_type": "Release",
        "engine": {"hybrid": False},
        "times": {"wall_s": 2.0 if traced else 1.0, "build_s": 0.1,
                  "discovery_s": 0.2, "traffic_s": 0.5, "peak_rss_mb": 10.0},
        "counters": counters,
        "spans": [],
        "scopes": scopes if traced else {},
    }


def runner_from(results):
    """A stand-in for run.run_sim that returns `results(seed, trace)`."""
    return lambda workload, seed, trace: results(seed, trace)


def setUpModule():
    # run.log() reports every rejected result on stderr; keep test output clean.
    quiet = contextlib.redirect_stderr(io.StringIO())
    quiet.__enter__()
    unittest.addModuleCleanup(quiet.__exit__, None, None, None)


class DigestTest(unittest.TestCase):
    def test_digest_mismatch_in_one_run_fails_every_job_of_that_seed(self):
        def results(seed, trace):
            return fake_result(digest="bad" if trace else "good", traced=trace)

        runs = run.measure("testbed_asym_clove_ecn", 1, 0, trace=True,
                           runner=runner_from(results))
        self.assertTrue(all(not e["ok"] for e in runs.values()))
        attempted, failed = run.tally(runs)
        self.assertEqual(attempted, 10 * len(runs))
        self.assertEqual(failed, attempted)

    def test_digest_mismatch_against_an_earlier_run_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "digests.json"
            book = run.DigestBook(path, "src")
            run.measure("fattree_k8_hybrid", 3, 0, trace=False, book=book,
                        runner=runner_from(lambda s, t: fake_result("one")))
            book.save()

            later = run.DigestBook(path, "src")
            runs = run.measure("fattree_k8_hybrid", 3, 0, trace=False,
                               book=later,
                               runner=runner_from(lambda s, t: fake_result("two")))
            attempted, failed = run.tally(runs)
            self.assertEqual(failed, attempted)

            other_source = run.DigestBook(path, "changed-src")
            runs = run.measure("fattree_k8_hybrid", 3, 0, trace=False,
                               book=other_source,
                               runner=runner_from(lambda s, t: fake_result("two")))
            self.assertEqual(run.tally(runs)[1], 0)

    def test_incomplete_jobs_fail_the_run(self):
        runs = run.measure("fattree_k8_hybrid", 1, 0, trace=False,
                           runner=runner_from(lambda s, t: fake_result(jobs_done=9)))
        attempted, failed = run.tally(runs)
        self.assertEqual(failed, attempted)

    def test_consistent_digests_pass(self):
        runs = run.measure("testbed_asym_clove_ecn", 1, 0, trace=True,
                           runner=runner_from(lambda s, t: fake_result(traced=t)))
        self.assertEqual(run.tally(runs)[1], 0)


class EnvironmentTest(unittest.TestCase):
    def test_stray_clove_variable_is_refused(self):
        out = io.StringIO()
        with mock.patch.dict(os.environ, {"CLOVE_HYBRID": "on"}), \
                mock.patch.object(run, "ensure_built") as build, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = run.main(["--workload", "testbed_asym_clove_ecn", "--seed", "1",
                           "--seconds", "1", "--trace", "0"])
        self.assertNotEqual(rc, 0)
        self.assertEqual(out.getvalue(), "")
        build.assert_not_called()

    def test_only_clove_variables_are_stray(self):
        env = {"CLOVE_THREADS": "4", "PATH": "/bin", "XCLOVE_X": "1"}
        self.assertEqual(run.stray_env(env), ["CLOVE_THREADS"])


class MetricNamesTest(unittest.TestCase):
    def declared(self, key):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        return {m["name"] for m in spec[key]}

    def test_end_to_end_names_match_benchmark_json(self):
        runs = run.measure("testbed_asym_clove_ecn", 1, 0, trace=False,
                           runner=runner_from(lambda s, t: fake_result()))
        self.assertEqual(set(run.end_to_end(runs)), self.declared("end_to_end"))

    def test_per_layer_names_match_benchmark_json(self):
        runs = run.measure("fattree_k8_hybrid", 1, 0, trace=True,
                           runner=runner_from(lambda s, t: fake_result(traced=t)))
        metrics, _ = run.per_layer(runs)
        self.assertEqual(set(metrics), self.declared("per_layer"))

    def test_result_line_prints_declared_names_with_units(self):
        units = run.declared_metrics(trace=0)
        line = json.loads(run.result_line(True, 1, 0, {n: 1.0 for n in units},
                                          units))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), self.declared("end_to_end"))

    def test_workloads_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))


class EstimatorTest(unittest.TestCase):
    def test_median_over_subseeds_of_each_best_repeat(self):
        def entry(*walls):
            return {"plain": [{"wall_s": w} for w in walls]}

        runs = {1: entry(3.0, 1.0), 2: entry(2.0), 3: entry(9.0, 50.0), 4: {"plain": []}}
        self.assertEqual(run.median_of_best(runs, lambda r: r["wall_s"]), 2.0)

    def test_slow_subseed_is_not_repeated(self):
        slow = run.subseeds("fattree_k8_hybrid", 1, 1)[0]

        def results(seed, trace):
            r = fake_result()
            r["times"]["wall_s"] = 10.0 if seed == slow else 1.0
            return r

        runs = run.measure("fattree_k8_hybrid", 1, 0.05, trace=False,
                           runner=runner_from(results))
        self.assertEqual(len(runs[slow]["plain"]), 1)
        self.assertTrue(all(len(e["plain"]) > 1
                            for s, e in runs.items() if s != slow))


class SeedTest(unittest.TestCase):
    def test_subseeds_follow_the_seed(self):
        a = run.subseeds("testbed_asym_clove_ecn", 1, 4)
        self.assertEqual(a, run.subseeds("testbed_asym_clove_ecn", 1, 4))
        self.assertNotEqual(a, run.subseeds("testbed_asym_clove_ecn", 2, 4))
        self.assertEqual(len(set(a)), 4)


if __name__ == "__main__":
    unittest.main()
