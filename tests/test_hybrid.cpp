// Tests for the hybrid flow/packet engine (DESIGN.md §12): promotion of
// elephant middles to the fluid flow-level model, exact packet-level
// demotion at flowlet-relevant events, fair-share rate solving, slab
// stability across promote/demote churn, determinism, and the A/B contract
// against the packet-exact simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "hybrid/hybrid.hpp"
#include "lb/ecmp.hpp"
#include "net/packet_pool.hpp"
#include "net/topology.hpp"
#include "overlay/hypervisor.hpp"
#include "overlay/paths.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp.hpp"
#include "workload/client_server.hpp"

namespace clove::hybrid {
namespace {

/// Two hypervisors behind one switch: both directions share the a<->sw and
/// sw<->b links, so concurrent a->b elephants compete for one bottleneck.
/// A plain struct (not the gtest fixture) so the determinism test can build
/// two independent instances.
struct PairRig {
  static HybridConfig fast_cfg() {
    HybridConfig hc;
    hc.enabled = true;
    hc.ramp_bytes = 20'000;      // promote quickly: tests use ~MB flows
    hc.min_remaining = 30'000;
    hc.tail_bytes = 10'000;
    return hc;
  }

  void build(const HybridConfig& hc) {
    topo = std::make_unique<net::Topology>(sim);
    sw = topo->add_switch("sw");
    a = topo->add_host<overlay::Hypervisor>("a", sim,
                                            overlay::HypervisorConfig{},
                                            std::make_unique<lb::EcmpPolicy>());
    b = topo->add_host<overlay::Hypervisor>("b", sim,
                                            overlay::HypervisorConfig{},
                                            std::make_unique<lb::EcmpPolicy>());
    net::LinkConfig lc;
    lc.rate_bytes_per_sec = sim::gbps_to_bytes_per_sec(10);
    lc.propagation = 1 * sim::kMicrosecond;
    topo->connect(a, sw, lc);
    topo->connect(b, sw, lc);
    topo->compute_routes();
    engine = std::make_unique<Engine>(sim, hc);
    for (const auto& l : topo->links()) engine->add_link(l.get());
    a->set_hybrid(engine.get());
    b->set_hybrid(engine.get());
  }

  transport::TcpSender* make_sender(std::uint16_t src_port) {
    transport::TcpConfig tcfg;
    tcfg.min_rto = 10 * sim::kMillisecond;
    tcfg.ecn = true;
    auto tx = std::make_unique<transport::TcpSender>(
        *a, net::FiveTuple{a->ip(), b->ip(), src_port, 80, net::Proto::kTcp},
        tcfg);
    a->register_endpoint(tx->tuple(), tx.get());
    senders.push_back(std::move(tx));
    return senders.back().get();
  }

  sim::Simulator sim;
  std::unique_ptr<net::Topology> topo;
  net::Switch* sw{nullptr};
  overlay::Hypervisor* a{nullptr};
  overlay::Hypervisor* b{nullptr};
  std::unique_ptr<Engine> engine;
  std::vector<std::unique_ptr<transport::TcpSender>> senders;
};

/// gtest fixture over the rig; members aliased so test bodies read plainly.
class HybridPair : public ::testing::Test, protected PairRig {
 protected:
  static HybridConfig fast_cfg() { return PairRig::fast_cfg(); }
};

TEST_F(HybridPair, PromotesElephantThenDemotesAtTail) {
  build(fast_cfg());
  auto* tx = make_sender(9000);
  bool done = false;
  tx->write(2'000'000, [&](sim::Time) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_GE(engine->stats().promotions, 1u);
  EXPECT_GE(engine->stats().demotions_tail, 1u);
  EXPECT_GT(engine->stats().fluid_bytes, 1'000'000u);
  EXPECT_EQ(engine->promoted_count(), 0u);  // tail ran packet-exact
}

TEST_F(HybridPair, TwoElephantsGetFairShares) {
  build(fast_cfg());
  auto* tx1 = make_sender(9000);
  auto* tx2 = make_sender(9001);
  int done = 0;
  tx1->write(20'000'000, [&](sim::Time) { ++done; });
  tx2->write(20'000'000, [&](sim::Time) { ++done; });
  // Long before either 20MB stream finishes at ~5Gb/s apiece, both must be
  // riding the fluid model.
  sim.run(5 * sim::kMillisecond);
  ASSERT_EQ(engine->promoted_count(), 2u);
  engine->solve_now();
  const double r1 = engine->flow_rate(tx1);
  const double r2 = engine->flow_rate(tx2);
  ASSERT_GT(r1, 0.0);
  ASSERT_GT(r2, 0.0);
  // Max-min on one shared bottleneck: equal shares summing to at most the
  // fluid budget (max_share of 10G) and at least half the line rate.
  const double line = sim::gbps_to_bytes_per_sec(10);
  EXPECT_NEAR(r1, r2, 0.02 * std::max(r1, r2));
  EXPECT_LE(r1 + r2, fast_cfg().max_share * line * 1.01);
  EXPECT_GE(r1 + r2, 0.5 * line);
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(engine->promoted_count(), 0u);
}

TEST_F(HybridPair, LossEventDemotesAndFlowStillCompletes) {
  build(fast_cfg());
  auto* tx = make_sender(9000);
  bool done = false;
  tx->write(20'000'000, [&](sim::Time) { done = true; });
  sim.run(5 * sim::kMillisecond);
  ASSERT_EQ(engine->promoted_count(), 1u);
  engine->on_loss_event(*tx);  // what any recovery/RTO/ECN-cut site fires
  EXPECT_EQ(engine->promoted_count(), 0u);
  EXPECT_EQ(engine->stats().demotions_loss, 1u);
  sim.run();
  EXPECT_TRUE(done);
}

TEST_F(HybridPair, LinkEventDemotesRiders) {
  build(fast_cfg());
  auto* tx = make_sender(9000);
  bool done = false;
  tx->write(20'000'000, [&](sim::Time) { done = true; });
  sim.run(5 * sim::kMillisecond);
  ASSERT_EQ(engine->promoted_count(), 1u);
  // Degrade a link on the traced path; the capacity change must push the
  // flow back to packet level so the real path decision re-runs.
  net::Link* on_path = nullptr;
  for (const auto& l : topo->links()) {
    if (l->dst() == b) on_path = l.get();
  }
  ASSERT_NE(on_path, nullptr);
  on_path->set_capacity_factor(0.5);
  EXPECT_EQ(engine->promoted_count(), 0u);
  EXPECT_GE(engine->stats().demotions_link, 1u);
  sim.run();
  EXPECT_TRUE(done);
}

TEST_F(HybridPair, PortDegradeFeedbackDemotesMatchingFlowOnly) {
  build(fast_cfg());
  auto* tx = make_sender(9000);
  bool done = false;
  tx->write(20'000'000, [&](sim::Time) { done = true; });
  sim.run(5 * sim::kMillisecond);
  ASSERT_EQ(engine->promoted_count(), 1u);
  // Wrong destination: no flow matches, nothing demotes.
  for (std::uint32_t p = 0; p < overlay::kEphemeralCount; ++p) {
    engine->on_port_degraded(a->ip(), a->ip(),
                             static_cast<std::uint16_t>(overlay::kEphemeralBase + p));
  }
  EXPECT_EQ(engine->promoted_count(), 1u);
  // Right (src, dst): some ephemeral port carries the flow.
  for (std::uint32_t p = 0; p < overlay::kEphemeralCount; ++p) {
    engine->on_port_degraded(a->ip(), b->ip(),
                             static_cast<std::uint16_t>(overlay::kEphemeralBase + p));
  }
  EXPECT_EQ(engine->promoted_count(), 0u);
  EXPECT_EQ(engine->stats().demotions_degrade, 1u);
  sim.run();
  EXPECT_TRUE(done);
}

// Satellite: repeated promote/demote cycles must not grow the packet pool
// slab or the event-queue slab — the engine's suspend/resume path has to
// recycle exactly like steady packet-level operation does.
TEST_F(HybridPair, ChurnKeepsPacketPoolAndEventQueueSlabsFlat) {
  build(fast_cfg());
  auto* tx = make_sender(9000);
  constexpr int kJobs = 60;
  int done = 0;
  std::function<void()> next = [&] {
    tx->write(300'000, [&](sim::Time) {
      ++done;
      if (done < kJobs) next();
    });
  };
  next();
  // Warm half the cycles: the first ~two dozen resume bursts size the slabs
  // to their steady state (cwnd ramps until ECN pins it). After that, the
  // remaining cycles must not grow either slab — growth here would mean the
  // suspend/resume path leaks pool or queue capacity per promotion.
  while (done < kJobs / 2) sim.run(sim.now() + sim::kMillisecond);
  const std::uint64_t pool_after_warm = net::PacketPool::of(sim).allocated();
  const std::size_t queue_slab_after_warm = sim.queue_slab_capacity();
  sim.run();
  EXPECT_EQ(done, kJobs);
  EXPECT_GE(engine->stats().promotions, 20u);  // nearly every job cycled
  EXPECT_GE(engine->stats().demotions_tail, 20u);
  EXPECT_EQ(net::PacketPool::of(sim).allocated(), pool_after_warm);
  EXPECT_EQ(sim.queue_slab_capacity(), queue_slab_after_warm);
}

TEST_F(HybridPair, SameSeedRunsAreIdentical) {
  struct Outcome {
    sim::Time done_at;
    std::uint64_t events;
    std::uint64_t promotions;
    std::uint64_t fluid_bytes;
  };
  auto run_once = [] {
    PairRig h;
    h.build(PairRig::fast_cfg());
    auto* t1 = h.make_sender(9000);
    auto* t2 = h.make_sender(9001);
    Outcome o{};
    t2->write(5'000'000, [](sim::Time) {});
    t1->write(15'000'000, [&o](sim::Time t) { o.done_at = t; });
    h.sim.run();
    o.events = h.sim.events_processed();
    o.promotions = h.engine->stats().promotions;
    o.fluid_bytes = h.engine->stats().fluid_bytes;
    return o;
  };
  const Outcome x = run_once();
  const Outcome y = run_once();
  EXPECT_EQ(x.done_at, y.done_at);
  EXPECT_EQ(x.events, y.events);
  EXPECT_EQ(x.promotions, y.promotions);
  EXPECT_EQ(x.fluid_bytes, y.fluid_bytes);
}

/// One 400 KB a->b flow over a chain of `n_links` forward links (a, then
/// n_links - 1 switches, then b). The ramp and remainder thresholds allow
/// exactly one trace request: after a rejected trace the flow has too
/// little left to ramp again.
HybridStats run_chain(int n_links) {
  sim::Simulator sim;
  net::Topology topo(sim);
  auto* a = topo.add_host<overlay::Hypervisor>(
      "a", sim, overlay::HypervisorConfig{},
      std::make_unique<lb::EcmpPolicy>());
  auto* b = topo.add_host<overlay::Hypervisor>(
      "b", sim, overlay::HypervisorConfig{},
      std::make_unique<lb::EcmpPolicy>());
  net::LinkConfig lc;
  lc.rate_bytes_per_sec = sim::gbps_to_bytes_per_sec(10);
  lc.propagation = 1 * sim::kMicrosecond;
  net::Node* prev = a;
  for (int i = 1; i < n_links; ++i) {
    net::Node* sw = topo.add_switch("sw" + std::to_string(i));
    topo.connect(prev, sw, lc);
    prev = sw;
  }
  topo.connect(prev, b, lc);
  topo.compute_routes();
  HybridConfig hc;
  hc.enabled = true;
  hc.ramp_bytes = 100'000;
  hc.min_remaining = 200'000;
  hc.tail_bytes = 10'000;
  Engine engine(sim, hc);
  for (const auto& l : topo.links()) engine.add_link(l.get());
  a->set_hybrid(&engine);
  b->set_hybrid(&engine);
  transport::TcpConfig tcfg;
  tcfg.min_rto = 10 * sim::kMillisecond;
  tcfg.ecn = true;
  transport::TcpSender tx(
      *a, net::FiveTuple{a->ip(), b->ip(), 9000, 80, net::Proto::kTcp}, tcfg);
  a->register_endpoint(tx.tuple(), &tx);
  bool done = false;
  tx.write(400'000, [&](sim::Time) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  return engine.stats();
}

TEST(HybridTrace, PathOfMaxLinksIsPromoted) {
  const HybridStats st = run_chain(net::Packet::HybridTrace::kMaxLinks);
  EXPECT_EQ(st.trace_requests, 1u);
  EXPECT_EQ(st.trace_rejects, 0u);
  EXPECT_EQ(st.promotions, 1u);
}

TEST(HybridTrace, PathLongerThanMaxLinksIsRejected) {
  // One link more than the trace holds: the captured path overflows, so the
  // engine must refuse it rather than charge a truncated path.
  const HybridStats st = run_chain(net::Packet::HybridTrace::kMaxLinks + 1);
  EXPECT_EQ(st.trace_requests, 1u);
  EXPECT_EQ(st.trace_rejects, 1u);
  EXPECT_EQ(st.promotions, 0u);
}

// --- A/B contract against the packet-exact simulator --------------------

/// min(a/b, b/a); 1.0 = identical.
double match_ratio(double a, double b) {
  if (a <= 0.0 || b <= 0.0) return a == b ? 1.0 : 0.0;
  return std::min(a / b, b / a);
}

class HybridAB : public ::testing::TestWithParam<harness::Scheme> {};

// The tentpole's fidelity bar: with the engine on, every job still
// completes, the event count drops (elephants ride the fluid model), and
// the mice FCT distribution tracks the packet-exact run within the pinned
// tolerance — mice always run packet-exact, so what this bounds is the
// fidelity of the *virtual congestion* the fluid elephants project into
// the links they share with the mice.
TEST_P(HybridAB, MiceFctTracksPacketExactAndJobsMatch) {
  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.scheme = GetParam();
  cfg.seed = 3;
  workload::ClientServerConfig wl;
  wl.conns_per_client = 1;
  wl.jobs_per_conn = 16;
  wl.load = 0.5;

  cfg.hybrid.enabled = false;
  const harness::ExperimentResult off = harness::run_fct_experiment(cfg, wl);
  cfg.hybrid = hybrid::HybridConfig{};
  cfg.hybrid.enabled = true;
  const harness::ExperimentResult on = harness::run_fct_experiment(cfg, wl);

  EXPECT_EQ(off.jobs, on.jobs);
  EXPECT_LT(on.events, off.events);
  ASSERT_GT(off.mice_avg_fct_s, 0.0);
  ASSERT_GT(on.mice_avg_fct_s, 0.0);
  EXPECT_GE(match_ratio(off.mice_avg_fct_s, on.mice_avg_fct_s), 0.65)
      << "mice avg FCT off=" << off.mice_avg_fct_s
      << " on=" << on.mice_avg_fct_s;
}

// CLOVE_HYBRID=off (the default) must leave the packet-exact simulation
// bit-identical: an engine is never constructed, and a run with the knob
// explicitly defaulted reproduces the exact event count and FCTs of the
// seed behavior the rest of the suite pins.
TEST(HybridOff, DisabledConfigMatchesDefaultRunExactly) {
  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.scheme = harness::Scheme::kCloveEcn;
  cfg.seed = 5;
  workload::ClientServerConfig wl;
  wl.conns_per_client = 1;
  wl.jobs_per_conn = 8;
  wl.load = 0.4;
  const harness::ExperimentResult base = harness::run_fct_experiment(cfg, wl);
  cfg.hybrid = hybrid::HybridConfig{};  // enabled=false, fresh knobs
  const harness::ExperimentResult off = harness::run_fct_experiment(cfg, wl);
  EXPECT_EQ(base.events, off.events);
  EXPECT_EQ(base.jobs, off.jobs);
  EXPECT_DOUBLE_EQ(base.avg_fct_s, off.avg_fct_s);
  EXPECT_DOUBLE_EQ(base.p99_fct_s, off.p99_fct_s);
}

INSTANTIATE_TEST_SUITE_P(Schemes, HybridAB,
                         ::testing::Values(harness::Scheme::kEcmp,
                                           harness::Scheme::kCloveEcn),
                         [](const auto& info) {
                           return info.param == harness::Scheme::kCloveEcn
                                      ? std::string("CloveEcn")
                                      : std::string("Ecmp");
                         });

}  // namespace
}  // namespace clove::hybrid
