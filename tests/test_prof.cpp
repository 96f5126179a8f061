// Tests for clove::prof, the engine self-profiler (DESIGN.md §10).
//
// The hot-path accounting (on_enter/on_exit) is tested with injected elapsed
// times — on_exit takes the duration as a parameter, so nesting, recursion,
// and merge arithmetic are exact, not timing-dependent. The determinism
// claims (profiling never perturbs simulation results; parallel merge is
// order-independent) are pinned against real experiments via the same
// hex-float digest idiom as test_parallel_runner.cpp.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/run_env.hpp"
#include "prof/prof.hpp"
#include "workload/client_server.hpp"

namespace clove::prof {
namespace {

// --- scope accounting ------------------------------------------------------

TEST(ProfProfiler, SelfTimeExcludesChildren) {
  Profiler p(Mode::kSummary);
  ASSERT_TRUE(p.on_enter(kDispatch));
  ASSERT_TRUE(p.on_enter(kSwitchForward));
  p.on_exit(300);                       // child: 300 ns
  p.on_exit(1000);                      // parent: 1000 ns inclusive

  EXPECT_EQ(p.stat(kSwitchForward).count, 1u);
  EXPECT_EQ(p.stat(kSwitchForward).self_ns, 300u);
  EXPECT_EQ(p.stat(kSwitchForward).total_ns, 300u);
  EXPECT_EQ(p.stat(kDispatch).count, 1u);
  EXPECT_EQ(p.stat(kDispatch).self_ns, 700u);   // 1000 - 300
  EXPECT_EQ(p.stat(kDispatch).total_ns, 1000u);
  EXPECT_EQ(p.depth(), 0);
}

TEST(ProfProfiler, RecursionCountsTotalOnlyAtOutermostFrame) {
  // Switch::send_probe_reply re-enters forward(): kSwitchForward nests in
  // itself. Inclusive time must count the outer frame only, or fractions
  // would exceed the wall clock.
  Profiler p(Mode::kSummary);
  ASSERT_TRUE(p.on_enter(kSwitchForward));
  ASSERT_TRUE(p.on_enter(kSwitchForward));
  p.on_exit(400);
  p.on_exit(1000);

  EXPECT_EQ(p.stat(kSwitchForward).count, 2u);
  EXPECT_EQ(p.stat(kSwitchForward).self_ns, 400u + 600u);
  EXPECT_EQ(p.stat(kSwitchForward).total_ns, 1000u);  // outer frame only
}

TEST(ProfProfiler, ClockSkewNeverUnderflowsSelfTime) {
  // A parent whose measured elapsed is smaller than the children's sum
  // (coarse clock) must clamp self to zero, not wrap.
  Profiler p(Mode::kSummary);
  ASSERT_TRUE(p.on_enter(kDispatch));
  ASSERT_TRUE(p.on_enter(kLinkTx));
  p.on_exit(500);
  p.on_exit(400);  // less than the child's 500
  EXPECT_EQ(p.stat(kDispatch).self_ns, 0u);
}

TEST(ProfProfiler, StackOverflowIsCountedAndScopeBecomesNoop) {
  Profiler p(Mode::kSummary);
  for (int i = 0; i < Profiler::kMaxDepth; ++i) {
    ASSERT_TRUE(p.on_enter(kOther));
  }
  EXPECT_FALSE(p.on_enter(kOther));  // 65th frame rejected
  EXPECT_EQ(p.overflow(), 1u);
  for (int i = 0; i < Profiler::kMaxDepth; ++i) p.on_exit(1);
  EXPECT_EQ(p.depth(), 0);
  EXPECT_EQ(p.stat(kOther).count, static_cast<std::uint64_t>(Profiler::kMaxDepth));
}

TEST(ProfProfiler, MergeIsCommutativeAndExact) {
  auto fill_a = [](Profiler& p) {
    p.on_enter(kDispatch);
    p.on_enter(kTransport);
    p.on_exit(100);
    p.on_exit(250);
    p.note_simulator(1000, 32, 48);
    p.note_pool(5, 95);
    p.note_table("t", TableStats{10, 64, 1, 7, 3});
  };
  auto fill_b = [](Profiler& p) {
    p.on_enter(kDispatch);
    p.on_exit(50);
    p.note_simulator(2000, 64, 40);
    p.note_pool(1, 9);
    p.note_table("t", TableStats{6, 64, 0, 2, 5});
  };

  Profiler ab(Mode::kFull), ba(Mode::kFull), a(Mode::kFull), b(Mode::kFull);
  fill_a(a);
  fill_b(b);
  fill_a(ab);
  ab.merge_from(b);
  fill_b(ba);
  ba.merge_from(a);

  EXPECT_EQ(ab.to_json(), ba.to_json());
  EXPECT_EQ(ab.folded(), ba.folded());
  EXPECT_EQ(ab.stat(kDispatch).count, 2u);
  EXPECT_EQ(ab.stat(kDispatch).self_ns, (250u - 100u) + 50u);
  EXPECT_EQ(ab.events(), 3000u);
  EXPECT_EQ(ab.queue_hwm(), 64u);        // max-merged
  EXPECT_EQ(ab.slab_capacity(), 48u);    // max-merged
}

TEST(ProfProfiler, TopSinksOrderedByDescendingSelfTime) {
  Profiler p(Mode::kSummary);
  auto one = [&p](ScopeId id, std::uint64_t ns) {
    p.on_enter(id);
    p.on_exit(ns);
  };
  one(kLinkTx, 50);
  one(kTransport, 500);
  one(kPolicy, 200);
  const auto sinks = p.top_sinks();
  ASSERT_EQ(sinks.size(), 3u);
  EXPECT_EQ(sinks[0], kTransport);
  EXPECT_EQ(sinks[1], kPolicy);
  EXPECT_EQ(sinks[2], kLinkTx);
}

TEST(ProfProfiler, FoldedPathsNestAndSort) {
  Profiler p(Mode::kFull);
  p.on_enter(kDispatch);
  p.on_enter(kLinkDeliver);
  p.on_enter(kSwitchForward);
  p.on_exit(10);
  p.on_exit(30);
  p.on_exit(100);
  const std::string f = p.folded();
  EXPECT_NE(f.find("clove;dispatch 70\n"), std::string::npos);
  EXPECT_NE(f.find("clove;dispatch;link_deliver 20\n"), std::string::npos);
  EXPECT_NE(f.find("clove;dispatch;link_deliver;switch_forward 10\n"),
            std::string::npos);
  // Summary mode records no paths.
  Profiler s(Mode::kSummary);
  s.on_enter(kDispatch);
  s.on_exit(5);
  EXPECT_TRUE(s.folded().empty());
}

// --- histogram -------------------------------------------------------------

TEST(ProfHistogram, BucketEdges) {
  // bucket 0: ns == 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(1), 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(2), 2);
  EXPECT_EQ(LatencyHistogram::bucket_index(3), 2);
  EXPECT_EQ(LatencyHistogram::bucket_index(4), 3);
  EXPECT_EQ(LatencyHistogram::bucket_index((1ull << 20)), 21);
  EXPECT_EQ(LatencyHistogram::bucket_index((1ull << 20) - 1), 20);
  EXPECT_EQ(LatencyHistogram::bucket_index(~0ull),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_lower(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_lower(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_lower(10), 512u);
}

TEST(ProfHistogram, PercentilesAndMerge) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(50.0), 0.0);  // empty
  for (int i = 0; i < 100; ++i) h.observe(100);  // all in bucket [64,128)
  const double p50 = h.percentile(50.0);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 128.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 10000u);

  LatencyHistogram g;
  for (int i = 0; i < 100; ++i) g.observe(100000);
  g.merge_from(h);
  EXPECT_EQ(g.count(), 200u);
  // With half the mass at ~100 and half at ~100k, p25 lands in the low
  // bucket and p75 in the high one.
  EXPECT_LE(g.percentile(25.0), 128.0);
  EXPECT_GE(g.percentile(75.0), 65536.0);
}

// --- installation / env ----------------------------------------------------

TEST(ProfScope, NoProfilerMeansNoop) {
  ASSERT_EQ(active(), nullptr);
  {
    CLOVE_PROF_SCOPE(kDispatch);  // must not crash or record anywhere
  }
  Profiler p(Mode::kSummary);
  {
    InstallGuard g(&p);
    CLOVE_PROF_SCOPE(kDispatch);
  }
  EXPECT_EQ(active(), nullptr);  // uninstalled on guard exit
  EXPECT_EQ(p.stat(kDispatch).count, 1u);
}

TEST(ProfEnv, ModeParsing) {
  auto mode = [] { return harness::RunEnv::from_env().prof; };
  ASSERT_EQ(setenv("CLOVE_PROF", "summary", 1), 0);
  EXPECT_EQ(mode(), Mode::kSummary);
  ASSERT_EQ(setenv("CLOVE_PROF", "full", 1), 0);
  EXPECT_EQ(mode(), Mode::kFull);
  ASSERT_EQ(setenv("CLOVE_PROF", "off", 1), 0);
  EXPECT_EQ(mode(), Mode::kOff);
  ASSERT_EQ(setenv("CLOVE_PROF", "bogus", 1), 0);
  EXPECT_EQ(mode(), Mode::kOff);  // unknown reads as off
  unsetenv("CLOVE_PROF");
  EXPECT_FALSE(mode().has_value());  // unset: the binary's default
}

TEST(ProfSession, GuardInstallsAndExportsRss) {
  {
    SessionGuard s(Mode::kSummary);
    ASSERT_NE(s.profiler(), nullptr);
    EXPECT_EQ(active(), s.profiler());
  }
  EXPECT_EQ(active(), nullptr);
  {
    SessionGuard off(Mode::kOff);
    EXPECT_EQ(off.profiler(), nullptr);
    EXPECT_EQ(active(), nullptr);
  }
  EXPECT_GT(peak_rss_mb(), 0.0);
}

// --- determinism against real experiments ----------------------------------

std::string result_digest(const harness::ExperimentResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%a|%a|%a|%a|%llu|%llu|%llu|%llu|%llu|%llu|",
                r.avg_fct_s, r.mice_avg_fct_s, r.elephant_avg_fct_s,
                r.p99_fct_s, static_cast<unsigned long long>(r.jobs),
                static_cast<unsigned long long>(r.timeouts),
                static_cast<unsigned long long>(r.fast_retransmits),
                static_cast<unsigned long long>(r.drops),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.queue_hwm));
  return buf;
}

harness::ExperimentConfig tiny_config() {
  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.scheme = harness::Scheme::kCloveEcn;
  cfg.seed = 7;
  return cfg;
}

workload::ClientServerConfig tiny_workload() {
  workload::ClientServerConfig wl;
  wl.load = 0.4;
  wl.jobs_per_conn = 3;
  wl.conns_per_client = 1;
  return wl;
}

TEST(ProfDeterminism, ResultsBitIdenticalWithProfilerOnOffAndFull) {
  const auto cfg = tiny_config();
  const auto wl = tiny_workload();

  const std::string off = result_digest(harness::run_fct_experiment(cfg, wl));
  std::string summary, full;
  {
    SessionGuard s(Mode::kSummary);
    summary = result_digest(harness::run_fct_experiment(cfg, wl));
    EXPECT_GT(s.profiler()->stat(kDispatch).count, 0u);
    EXPECT_GT(s.profiler()->events(), 0u);  // experiment fed the gauges
  }
  {
    SessionGuard f(Mode::kFull);
    full = result_digest(harness::run_fct_experiment(cfg, wl));
    EXPECT_FALSE(f.profiler()->folded().empty());
  }
  EXPECT_EQ(off, summary);
  EXPECT_EQ(off, full);
  EXPECT_FALSE(off.empty());
}

TEST(ProfDeterminism, ParallelMergeIsThreadCountInvariant) {
  // Four profiled experiments fanned out over 1 vs 4 workers: simulation
  // digests stay bit-identical AND the merged profiler aggregates (counts,
  // gauges — everything except wall-clock ns) match exactly, because each
  // task profiles into its own Profiler merged in task-index order.
  const auto cfg = tiny_config();
  const auto wl = tiny_workload();

  auto sweep = [&](unsigned threads, std::string* digests,
                   std::uint64_t* dispatch_count, std::uint64_t* events) {
    SessionGuard session(Mode::kSummary);
    harness::ParallelRunner runner(threads);
    std::vector<std::function<std::string()>> fns;
    for (int i = 0; i < 4; ++i) {
      fns.push_back([&cfg, &wl] {
        return result_digest(harness::run_fct_experiment(cfg, wl));
      });
    }
    auto out = runner.map<std::string>(std::move(fns));
    std::string joined;
    for (const auto& d : out) joined += d + "\n";
    *digests = joined;
    *dispatch_count = session.profiler()->stat(kDispatch).count;
    *events = session.profiler()->events();
  };

  std::string d1, d4;
  std::uint64_t c1 = 0, c4 = 0, e1 = 0, e4 = 0;
  sweep(1, &d1, &c1, &e1);
  sweep(4, &d4, &c4, &e4);
  EXPECT_EQ(d1, d4);
  EXPECT_EQ(c1, c4);
  EXPECT_EQ(e1, e4);
  EXPECT_GT(c1, 0u);
  EXPECT_GT(e1, 0u);
}

}  // namespace
}  // namespace clove::prof
