// Tests for the congestion-aware Clove policies: Clove-ECN's weight
// adaptation loop, Clove-INT's least-utilized routing, Clove-Latency.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "lb/clove_ecn.hpp"
#include "lb/clove_int.hpp"
#include "lb/clove_latency.hpp"
#include "test_util.hpp"

namespace clove::lb {
namespace {

using clove::testutil::make_data;
using clove::testutil::tuple;
using sim::kMicrosecond;

overlay::PathSet four_paths(std::uint16_t base_port = 50000) {
  overlay::PathSet ps;
  for (std::uint16_t i = 0; i < 4; ++i) {
    overlay::PathInfo p;
    p.port = static_cast<std::uint16_t>(base_port + i);
    p.hops = {{10, 0},
              {static_cast<net::IpAddr>(20 + i / 2), static_cast<int>(i % 2)},
              {11, static_cast<int>(i % 2)},
              {2, 0}};
    ps.paths.push_back(p);
  }
  ps.discovered_at = 0;
  return ps;
}

net::CloveFeedback ecn_fb(std::uint16_t port) {
  net::CloveFeedback fb;
  fb.present = true;
  fb.port = port;
  fb.ecn_set = true;
  return fb;
}

net::CloveFeedback util_fb(std::uint16_t port, double util) {
  net::CloveFeedback fb;
  fb.present = true;
  fb.port = port;
  fb.has_util = true;
  fb.util = util;
  return fb;
}

/// four_paths() after a rediscovery: every path behind a new port, the
/// first two swapped, and the last replaced by a path over a new spine.
overlay::PathSet remapped_paths() {
  overlay::PathSet ps = four_paths(60000);
  std::swap(ps.paths[0].hops, ps.paths[1].hops);
  ps.paths[3].hops[1] = {99, 0};
  return ps;
}

CloveEcnConfig slow_recovery() {
  CloveEcnConfig c;
  c.recovery_interval = sim::seconds(100.0);  // effectively off for the test
  return c;
}

// ---------------------------------------------------------------------------
// Clove-ECN
// ---------------------------------------------------------------------------

TEST(CloveEcn, StartsUniform) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  auto w = p.weights(2);
  ASSERT_EQ(w.size(), 4u);
  for (double x : w) EXPECT_NEAR(x, 0.25, 1e-9);
}

TEST(CloveEcn, WantsSignals) {
  CloveEcnPolicy p;
  EXPECT_TRUE(p.wants_ect());
  EXPECT_FALSE(p.wants_int());
  EXPECT_TRUE(p.needs_discovery());
  EXPECT_EQ(p.name(), "clove-ecn");
}

TEST(CloveEcn, FeedbackReducesWeightByThird) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  p.on_feedback(2, ecn_fb(50000), 0);
  auto w = p.weights(2);
  // 0.25 - 0.25/3 on the congested path; the removed mass spread over the
  // other three uncongested paths.
  EXPECT_NEAR(w[0], 0.25 * 2 / 3, 1e-9);
  for (int i = 1; i < 4; ++i) EXPECT_NEAR(w[i], 0.25 + 0.25 / 9, 1e-9);
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-9);
}

TEST(CloveEcn, RepeatedFeedbackKeepsWeightAboveFloor) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  for (int i = 0; i < 100; ++i) {
    p.on_feedback(2, ecn_fb(50000), i * 300 * kMicrosecond);
  }
  auto w = p.weights(2);
  EXPECT_GE(w[0], p.config().min_weight - 1e-12);
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-9);
}

TEST(CloveEcn, WeightMassGoesOnlyToUncongestedPaths) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  // Paths 0 and 1 congested back to back (within the expiry window).
  p.on_feedback(2, ecn_fb(50000), 0);
  p.on_feedback(2, ecn_fb(50001), 10 * kMicrosecond);
  auto w = p.weights(2);
  // Path 0's reduction spread over {1,2,3}; path 1's over {2,3} only.
  EXPECT_LT(w[0], 0.25);
  EXPECT_LT(w[1], 0.25 + 0.25 / 9);
  EXPECT_GT(w[2], 0.25 + 0.25 / 9);
  EXPECT_NEAR(w[2], w[3], 1e-9);
}

TEST(CloveEcn, AllPathsCongestedDetection) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  EXPECT_FALSE(p.all_paths_congested(2, 0));
  sim::Time t = 0;
  for (std::uint16_t i = 0; i < 4; ++i) {
    p.on_feedback(2, ecn_fb(static_cast<std::uint16_t>(50000 + i)), t);
  }
  EXPECT_TRUE(p.all_paths_congested(2, t));
  // Congestion state expires.
  EXPECT_FALSE(p.all_paths_congested(2, t + p.config().congestion_expiry +
                                            kMicrosecond));
}

TEST(CloveEcn, WrrFollowsWeights) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  // Congest path 0 heavily.
  for (int i = 0; i < 10; ++i) {
    p.on_feedback(2, ecn_fb(50000), i * 300 * kMicrosecond);
  }
  auto w = p.weights(2);
  // Route many flowlets (distinct flows => each pick is a new flowlet).
  std::map<std::uint16_t, int> counts;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    auto pkt =
        make_data(tuple(1, 2, static_cast<std::uint16_t>(1000 + i)), 0, 100);
    ++counts[p.pick_port(*pkt, 2, sim::seconds(0.01))];
  }
  // Note: picking happens after recovery-less weights settle; the share of
  // path 0 must be close to its (tiny) weight.
  const double share0 = static_cast<double>(counts[50000]) / n;
  EXPECT_LT(share0, w[0] + 0.05);
  EXPECT_GT(counts[50001], n / 5);
}

TEST(CloveEcn, FlowletStickiness) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  auto pkt = make_data(tuple(1, 2), 0, 100);
  const auto port = p.pick_port(*pkt, 2, 0);
  // Packets within the gap stay put even as weights change.
  p.on_feedback(2, ecn_fb(port), 10 * kMicrosecond);
  EXPECT_EQ(p.pick_port(*pkt, 2, 50 * kMicrosecond), port);
  // After a gap the flowlet may move (WRR decides; just must be valid).
  const auto port2 = p.pick_port(*pkt, 2, sim::seconds(1.0));
  EXPECT_GE(port2, 50000);
  EXPECT_LE(port2, 50003);
}

TEST(CloveEcn, FallbackBeforeDiscovery) {
  CloveEcnPolicy p;
  auto pkt = make_data(tuple(1, 2), 0, 100);
  const auto port = p.pick_port(*pkt, 2, 0);
  EXPECT_EQ(p.pick_port(*pkt, 2, 1), port);  // stable within flowlet
}

TEST(CloveEcn, RecoveryDriftsTowardUniform) {
  CloveEcnConfig cfg;
  cfg.recovery_interval = 1 * sim::kMillisecond;
  cfg.recovery_rate = 0.2;
  CloveEcnPolicy p(cfg);
  p.on_paths_updated(2, four_paths());
  for (int i = 0; i < 6; ++i) {
    p.on_feedback(2, ecn_fb(50000), i * 300 * kMicrosecond);
  }
  const double w_before = p.weights(2)[0];
  ASSERT_LT(w_before, 0.1);
  // Long quiet period, then touch the policy so lazy recovery applies.
  auto pkt = make_data(tuple(9, 2), 0, 100);
  p.pick_port(*pkt, 2, sim::seconds(0.5));
  const double w_after = p.weights(2)[0];
  EXPECT_GT(w_after, 0.2);  // drifted most of the way back to 0.25
}

TEST(CloveEcn, StateCarriesAcrossRemapBySignature) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths(50000));
  for (int i = 0; i < 6; ++i) {
    p.on_feedback(2, ecn_fb(50000), i * 300 * kMicrosecond);
  }
  const double depressed = p.weights(2)[0];
  ASSERT_LT(depressed, 0.1);
  // Rediscovery maps the same physical paths to brand-new ports.
  p.on_paths_updated(2, four_paths(60000));
  auto w = p.weights(2);
  EXPECT_NEAR(w[0], depressed, 0.02);  // learned weight survived the remap
}

TEST(CloveEcn, RemapKeepsEachPathsWeightAndStartsNewPathsUniform) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  for (int i = 0; i < 3; ++i) {
    p.on_feedback(2, ecn_fb(50000), i * 300 * kMicrosecond);
  }
  p.on_feedback(2, ecn_fb(50002), 700 * kMicrosecond);
  const std::vector<double> w0 = p.weights(2);
  p.on_paths_updated(2, remapped_paths());
  // Kept weights, and the uniform share for the new path, renormalized.
  const double total = w0[1] + w0[0] + w0[2] + 0.25;
  const std::vector<double> w = p.weights(2);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_NEAR(w[0], w0[1] / total, 1e-12);
  EXPECT_NEAR(w[1], w0[0] / total, 1e-12);
  EXPECT_NEAR(w[2], w0[2] / total, 1e-12);
  EXPECT_NEAR(w[3], 0.25 / total, 1e-12);
}

TEST(CloveEcn, FeedbackForUnknownPortIgnored) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  p.on_feedback(2, ecn_fb(12345), 0);
  auto w = p.weights(2);
  for (double x : w) EXPECT_NEAR(x, 0.25, 1e-9);
}

// ---------------------------------------------------------------------------
// Clove-INT
// ---------------------------------------------------------------------------

TEST(CloveInt, WantsIntTelemetry) {
  CloveIntPolicy p;
  EXPECT_TRUE(p.wants_int());
  EXPECT_TRUE(p.wants_ect());
  EXPECT_TRUE(p.needs_discovery());
}

TEST(CloveInt, RoutesToLeastUtilizedPath) {
  CloveIntPolicy p;
  p.on_paths_updated(2, four_paths());
  const sim::Time t = 100 * kMicrosecond;
  p.on_feedback(2, util_fb(50000, 0.9), t);
  p.on_feedback(2, util_fb(50001, 0.7), t);
  p.on_feedback(2, util_fb(50002, 0.1), t);
  p.on_feedback(2, util_fb(50003, 0.5), t);
  // Every new flowlet goes to the 0.1-utilization path.
  for (int i = 0; i < 10; ++i) {
    auto pkt =
        make_data(tuple(1, 2, static_cast<std::uint16_t>(3000 + i)), 0, 100);
    EXPECT_EQ(p.pick_port(*pkt, 2, t + 1), 50002);
  }
}

TEST(CloveInt, StaleUtilizationExpires) {
  CloveIntConfig cfg;
  cfg.util_expiry = 1 * sim::kMillisecond;
  CloveIntPolicy p(cfg);
  p.on_paths_updated(2, four_paths());
  p.on_feedback(2, util_fb(50000, 0.9), 0);
  auto utils = p.utilizations(2, 2 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(utils[0], 0.0);  // expired, treated as unknown/idle
}

TEST(CloveInt, EwmaSmoothsSamples) {
  CloveIntConfig cfg;
  cfg.util_ewma = 0.5;
  CloveIntPolicy p(cfg);
  p.on_paths_updated(2, four_paths());
  p.on_feedback(2, util_fb(50000, 1.0), 0);
  p.on_feedback(2, util_fb(50000, 0.0), 1);
  auto utils = p.utilizations(2, 2);
  EXPECT_NEAR(utils[0], 0.5, 1e-9);
}

TEST(CloveInt, RemapKeepsEachPathsUtilAndStartsNewPathsFresh) {
  CloveIntPolicy p;
  p.on_paths_updated(2, four_paths());
  const double util[4] = {0.9, 0.7, 0.5, 0.3};
  for (std::uint16_t i = 0; i < 4; ++i) {
    p.on_feedback(2, util_fb(static_cast<std::uint16_t>(50000 + i), util[i]),
                  10);
  }
  p.on_paths_updated(2, remapped_paths());
  EXPECT_EQ(p.utilizations(2, 20), (std::vector<double>{0.7, 0.9, 0.5, 0.0}));
}

TEST(CloveInt, TieBreaksSpreadAcrossIdlePaths) {
  CloveIntPolicy p;
  p.on_paths_updated(2, four_paths());
  std::set<std::uint16_t> picked;
  for (int i = 0; i < 64; ++i) {
    auto pkt =
        make_data(tuple(1, 2, static_cast<std::uint16_t>(4000 + i)), 0, 100);
    picked.insert(p.pick_port(*pkt, 2, 0));
  }
  EXPECT_EQ(picked.size(), 4u);  // all-idle => random ties cover all paths
}

TEST(CloveInt, FlowletStickiness) {
  CloveIntPolicy p;
  p.on_paths_updated(2, four_paths());
  auto pkt = make_data(tuple(1, 2), 0, 100);
  const auto port = p.pick_port(*pkt, 2, 0);
  p.on_feedback(2, util_fb(port, 1.0), 1);
  EXPECT_EQ(p.pick_port(*pkt, 2, 10 * kMicrosecond), port);
}

// ---------------------------------------------------------------------------
// Clove-Latency (§7 extension)
// ---------------------------------------------------------------------------

TEST(CloveLatency, RoutesToLowestLatencyPath) {
  CloveLatencyPolicy p;
  p.on_paths_updated(2, four_paths());
  net::CloveFeedback fb;
  fb.present = true;
  fb.has_latency = true;
  const sim::Time t = 10 * kMicrosecond;
  fb.port = 50000;
  fb.latency = 900 * kMicrosecond;
  p.on_feedback(2, fb, t);
  fb.port = 50001;
  fb.latency = 50 * kMicrosecond;
  p.on_feedback(2, fb, t);
  fb.port = 50002;
  fb.latency = 500 * kMicrosecond;
  p.on_feedback(2, fb, t);
  fb.port = 50003;
  fb.latency = 700 * kMicrosecond;
  p.on_feedback(2, fb, t);
  for (int i = 0; i < 5; ++i) {
    auto pkt =
        make_data(tuple(1, 2, static_cast<std::uint16_t>(5000 + i)), 0, 100);
    EXPECT_EQ(p.pick_port(*pkt, 2, t + 1), 50001);
  }
}

TEST(CloveLatency, RemapKeepsEachPathsLatencyAndStartsNewPathsFresh) {
  CloveLatencyPolicy p;
  p.on_paths_updated(2, four_paths());
  net::CloveFeedback fb;
  fb.present = true;
  fb.has_latency = true;
  auto report = [&](std::uint16_t port, sim::Time delay) {
    fb.port = port;
    fb.latency = delay;
    p.on_feedback(2, fb, 10);
  };
  report(50000, 900 * kMicrosecond);
  report(50001, 50 * kMicrosecond);
  report(50002, 300 * kMicrosecond);
  report(50003, 200 * kMicrosecond);
  p.on_paths_updated(2, remapped_paths());
  // The new path has no delay sample yet, so it reads as the fastest.
  PickInfo info;
  auto pkt = make_data(tuple(1, 2, 6000), 0, 100);
  EXPECT_EQ(p.pick_port(*pkt, 2, 20, &info), 60003);
  EXPECT_EQ(info.metric, 0.0);
  // Once it is slow, 50001's path, now behind 60000, is the fastest.
  report(60003, 1000 * kMicrosecond);
  pkt = make_data(tuple(1, 2, 6001), 0, 100);
  EXPECT_EQ(p.pick_port(*pkt, 2, 30, &info), 60000);
  EXPECT_EQ(info.metric, 50.0);
}

TEST(CloveLatency, NeedsDiscoveryOnly) {
  CloveLatencyPolicy p;
  EXPECT_TRUE(p.needs_discovery());
  EXPECT_FALSE(p.wants_int());
  EXPECT_EQ(p.name(), "clove-latency");
}

}  // namespace
}  // namespace clove::lb
