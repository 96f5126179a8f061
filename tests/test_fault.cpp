// clove::fault — plan parsing, injector semantics (blackhole window,
// degrade, deterministic silent drops, switch blackout), and end-to-end
// reproducibility of a faulted run through the harness.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "fault/fault.hpp"
#include "harness/experiment.hpp"
#include "lb/ecmp.hpp"
#include "net/fat_tree.hpp"
#include "net/topology.hpp"
#include "overlay/hypervisor.hpp"
#include "overlay/paths.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/scope.hpp"

namespace clove::fault {
namespace {

TEST(FaultKind, NamesRoundTrip) {
  for (FaultKind k : {FaultKind::kLinkDown, FaultKind::kLinkUp,
                      FaultKind::kLinkDegrade, FaultKind::kLinkDrop,
                      FaultKind::kSwitchDown, FaultKind::kSwitchUp,
                      FaultKind::kFeedbackLoss, FaultKind::kFeedbackDelay}) {
    FaultKind out;
    ASSERT_TRUE(parse_fault_kind(fault_kind_name(k), &out));
    EXPECT_EQ(out, k);
  }
  EXPECT_FALSE(parse_fault_kind("meteor_strike", nullptr));
}

TEST(FaultPlan, JsonRoundTrip) {
  FaultPlan plan;
  plan.seed = 99;
  plan.route_convergence = 12 * sim::kMillisecond;
  plan.add(400 * sim::kMillisecond, FaultKind::kLinkDown, "L2->S2#0");
  plan.add(500 * sim::kMillisecond, FaultKind::kLinkDegrade, "L1->S1#1", 0.5);
  plan.add(1200 * sim::kMillisecond, FaultKind::kLinkUp, "L2->S2#0");

  std::string err;
  const FaultPlan back = FaultPlan::parse(plan.to_json(), &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_EQ(back.route_convergence, plan.route_convergence);
  ASSERT_EQ(back.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(back.events[i].at, plan.events[i].at);
    EXPECT_EQ(back.events[i].kind, plan.events[i].kind);
    EXPECT_EQ(back.events[i].target, plan.events[i].target);
    EXPECT_DOUBLE_EQ(back.events[i].value, plan.events[i].value);
  }
}

TEST(FaultPlan, BareArrayIsEventsList) {
  std::string err;
  const FaultPlan plan = FaultPlan::parse_text(
      R"([{"at_ms": 10, "kind": "drop", "target": "L1->S1#0", "value": 0.25}])",
      &err);
  EXPECT_TRUE(err.empty()) << err;
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kLinkDrop);
  EXPECT_DOUBLE_EQ(plan.events[0].value, 0.25);
  EXPECT_EQ(plan.route_convergence, 30 * sim::kMillisecond);  // default kept
}

TEST(FaultPlan, ParseRejectsBadInput) {
  std::string err;
  EXPECT_TRUE(FaultPlan::parse_text("42", &err).empty());
  EXPECT_FALSE(err.empty());

  err.clear();
  EXPECT_TRUE(FaultPlan::parse_text(
                  R"({"events":[{"at_ms":1,"kind":"nope","target":"x"}]})",
                  &err)
                  .empty());
  EXPECT_NE(err.find("nope"), std::string::npos);

  err.clear();
  EXPECT_TRUE(FaultPlan::parse_text(
                  R"({"events":[{"at_ms":1,"kind":"link_down"}]})", &err)
                  .empty());
  EXPECT_NE(err.find("target"), std::string::npos);

  err.clear();
  EXPECT_TRUE(FaultPlan::parse_text(
                  R"({"events":[{"kind":"link_down","target":"x"}]})", &err)
                  .empty());
  EXPECT_NE(err.find("at_ms"), std::string::npos);
}

TEST(FaultPlan, FromEnvInlineAndFile) {
  const char* spec =
      R"({"seed": 3, "events": [{"at_ms": 5, "kind": "link_down", "target": "L1->S1#0"}]})";
  ::setenv("CLOVE_FAULT_PLAN", spec, 1);
  std::string err;
  FaultPlan plan = FaultPlan::from_env(&err);
  EXPECT_TRUE(err.empty()) << err;
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.seed, 3u);

  // A path to a spec file works too (written into the test's cwd).
  const char* fname = "test_fault_plan_tmp.json";
  {
    std::ofstream out(fname);
    out << spec;
  }
  ::setenv("CLOVE_FAULT_PLAN", fname, 1);
  plan = FaultPlan::from_env(&err);
  EXPECT_TRUE(err.empty()) << err;
  ASSERT_EQ(plan.events.size(), 1u);

  // The conventional '@file' spelling resolves to the same path.
  ::setenv("CLOVE_FAULT_PLAN", (std::string("@") + fname).c_str(), 1);
  plan = FaultPlan::from_env(&err);
  std::remove(fname);
  EXPECT_TRUE(err.empty()) << err;
  ASSERT_EQ(plan.events.size(), 1u);

  ::setenv("CLOVE_FAULT_PLAN", "no_such_file.json", 1);
  plan = FaultPlan::from_env(&err);
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(err.empty());

  ::unsetenv("CLOVE_FAULT_PLAN");
  EXPECT_TRUE(FaultPlan::from_env().empty());
}

// ---------------------------------------------------------------------------
// Injector semantics on a real fabric
// ---------------------------------------------------------------------------

class InjectorFixture : public ::testing::Test {
 protected:
  void build() {
    topo = std::make_unique<net::Topology>(sim);
    net::LeafSpineConfig cfg;
    cfg.hosts_per_leaf = 2;
    fabric = net::build_leaf_spine(
        *topo, cfg,
        [this](net::Topology& t, const std::string& name, int) -> net::Node* {
          return t.add_host<overlay::Hypervisor>(
              name, sim, overlay::HypervisorConfig{},
              std::make_unique<lb::EcmpPolicy>());
        });
  }

  sim::Simulator sim;
  std::unique_ptr<net::Topology> topo;
  net::LeafSpine fabric;
};

TEST_F(InjectorFixture, LinkDownDefersRouteConvergence) {
  build();
  const int epoch0 = topo->route_epoch();
  net::Link* l = fabric.fabric_links[1][1][0];  // L2->S2, first parallel

  FaultPlan plan;
  plan.route_convergence = 5 * sim::kMillisecond;
  plan.add(10 * sim::kMillisecond, FaultKind::kLinkDown, "L2->S2#0");
  FaultInjector inj(*topo, plan);
  inj.arm();

  sim.run(12 * sim::kMillisecond);
  // Blackhole window: the link is dead but routing still points at it.
  EXPECT_TRUE(l->is_down());
  EXPECT_TRUE(topo->reverse_of(l)->is_down());
  EXPECT_EQ(topo->route_epoch(), epoch0);

  sim.run(16 * sim::kMillisecond);
  EXPECT_EQ(topo->route_epoch(), epoch0 + 1);
  EXPECT_EQ(inj.stats().events_applied, 1);
  EXPECT_EQ(inj.stats().route_recomputes, 1);
}

TEST_F(InjectorFixture, LinkUpRestoresBothDirections) {
  build();
  net::Link* l = fabric.fabric_links[1][1][0];

  FaultPlan plan;
  plan.route_convergence = 0;  // recompute immediately
  plan.add(1 * sim::kMillisecond, FaultKind::kLinkDown, "L2->S2#0");
  plan.add(5 * sim::kMillisecond, FaultKind::kLinkUp, "L2->S2#0");
  FaultInjector inj(*topo, plan);
  inj.arm();
  sim.run(10 * sim::kMillisecond);

  EXPECT_FALSE(l->is_down());
  EXPECT_FALSE(topo->reverse_of(l)->is_down());
  EXPECT_EQ(inj.stats().events_applied, 2);
  EXPECT_EQ(inj.stats().route_recomputes, 2);
}

TEST_F(InjectorFixture, ParallelIndexSelectsDistinctLink) {
  build();
  FaultPlan plan;
  plan.add(1 * sim::kMillisecond, FaultKind::kLinkDown, "L2->S2#1");
  FaultInjector inj(*topo, plan);
  inj.arm();
  sim.run(2 * sim::kMillisecond);
  EXPECT_FALSE(fabric.fabric_links[1][1][0]->is_down());
  EXPECT_TRUE(fabric.fabric_links[1][1][1]->is_down());
}

TEST_F(InjectorFixture, DegradeScalesCapacityAndValueZeroRestores) {
  build();
  net::Link* l = fabric.fabric_links[0][0][0];  // L1->S1

  FaultPlan plan;
  plan.add(1 * sim::kMillisecond, FaultKind::kLinkDegrade, "L1->S1#0", 0.25);
  plan.add(3 * sim::kMillisecond, FaultKind::kLinkDegrade, "L1->S1#0", 0.0);
  FaultInjector inj(*topo, plan);
  inj.arm();

  sim.run(2 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(l->capacity_factor(), 0.25);
  sim.run(4 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(l->capacity_factor(), 1.0);
}

TEST_F(InjectorFixture, SwitchBlackoutTogglesEveryAdjacentConnection) {
  build();
  FaultPlan plan;
  plan.route_convergence = 0;
  plan.add(1 * sim::kMillisecond, FaultKind::kSwitchDown, "S2");
  plan.add(5 * sim::kMillisecond, FaultKind::kSwitchUp, "S2");
  FaultInjector inj(*topo, plan);
  inj.arm();

  sim.run(2 * sim::kMillisecond);
  for (std::size_t leaf = 0; leaf < fabric.fabric_links.size(); ++leaf) {
    for (net::Link* l : fabric.fabric_links[leaf][1]) {  // spine S2 = idx 1
      EXPECT_TRUE(l->is_down());
      EXPECT_TRUE(topo->reverse_of(l)->is_down());
    }
    for (net::Link* l : fabric.fabric_links[leaf][0]) {  // S1 untouched
      EXPECT_FALSE(l->is_down());
    }
  }

  sim.run(6 * sim::kMillisecond);
  for (std::size_t leaf = 0; leaf < fabric.fabric_links.size(); ++leaf) {
    for (net::Link* l : fabric.fabric_links[leaf][1]) {
      EXPECT_FALSE(l->is_down());
      EXPECT_FALSE(topo->reverse_of(l)->is_down());
    }
  }
}

TEST_F(InjectorFixture, UnresolvedTargetsCountAsFailed) {
  build();
  FaultPlan plan;
  plan.add(1 * sim::kMillisecond, FaultKind::kLinkDown, "L9->S9#0");
  plan.add(2 * sim::kMillisecond, FaultKind::kSwitchDown, "S9");
  plan.add(3 * sim::kMillisecond, FaultKind::kFeedbackLoss, "no-such-host",
           1.0);
  FaultInjector inj(*topo, plan);
  inj.arm();
  sim.run(5 * sim::kMillisecond);
  EXPECT_EQ(inj.stats().events_applied, 0);
  EXPECT_EQ(inj.stats().events_failed, 3);
}

TEST_F(InjectorFixture, FeedbackFaultMatchesWildcardAndName) {
  build();
  FaultPlan plan;
  plan.add(1 * sim::kMillisecond, FaultKind::kFeedbackLoss, "*", 1.0);
  plan.add(2 * sim::kMillisecond, FaultKind::kFeedbackDelay,
           topo->hosts()[0]->name(), 2.0);
  FaultInjector inj(*topo, plan);
  inj.arm();
  sim.run(3 * sim::kMillisecond);
  EXPECT_EQ(inj.stats().events_applied, 2);
  EXPECT_EQ(inj.stats().events_failed, 0);
}

// ---------------------------------------------------------------------------
// Determinism end to end
// ---------------------------------------------------------------------------

TEST(FaultDeterminism, SilentDropSequenceIsSeedReproducible) {
  // Two identical topologies, same plan/seed: the fault-drop pattern (and so
  // every downstream stat) must match bit for bit.
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator sim(1);
    net::Topology topo(sim);
    auto* a = topo.add_host<overlay::Hypervisor>(
        "a", sim, overlay::HypervisorConfig{},
        std::make_unique<lb::EcmpPolicy>());
    auto* b = topo.add_host<overlay::Hypervisor>(
        "b", sim, overlay::HypervisorConfig{},
        std::make_unique<lb::EcmpPolicy>());
    net::LinkConfig lc;
    auto [fwd, rev] = topo.connect(a, b, lc);
    (void)rev;
    fwd->set_fault_drop(0.5, seed);
    for (int i = 0; i < 200; ++i) {
      auto p = net::make_packet();
      p->inner = net::FiveTuple{a->ip(), b->ip(), 1000, 80, net::Proto::kTcp};
      p->payload = 1000;
      fwd->enqueue(std::move(p));
    }
    sim.run(1 * sim::kSecond);
    return fwd->stats().drops_fault;
  };

  const std::uint64_t d1 = run_once(7);
  const std::uint64_t d2 = run_once(7);
  EXPECT_EQ(d1, d2);
  EXPECT_GT(d1, 0u);
  EXPECT_LT(d1, 200u);
  EXPECT_NE(run_once(8), 0u);  // another seed still drops, plan stays active
}

TEST(FaultDeterminism, FaultedHarnessRunIsBitIdentical) {
  auto run_once = [] {
    harness::ExperimentConfig cfg = harness::make_testbed_profile();
    cfg.scheme = harness::Scheme::kCloveEcn;
    cfg.topo.hosts_per_leaf = 2;
    cfg.discovery.probe_interval = 50 * sim::kMillisecond;
    cfg.path_health.enabled = true;
    cfg.fault_plan.route_convergence = 20 * sim::kMillisecond;
    cfg.fault_plan.add(60 * sim::kMillisecond, FaultKind::kLinkDown,
                       "L2->S2#0");
    cfg.fault_plan.add(200 * sim::kMillisecond, FaultKind::kLinkUp,
                       "L2->S2#0");
    cfg.max_sim_time = 1 * sim::kSecond;

    workload::ClientServerConfig wl;
    wl.load = 0.4;
    wl.jobs_per_conn = 10;
    wl.conns_per_client = 1;
    return harness::run_fct_experiment(cfg, wl);
  };

  const harness::ExperimentResult r1 = run_once();
  const harness::ExperimentResult r2 = run_once();
  EXPECT_GT(r1.jobs, 0u);
  EXPECT_EQ(r1.jobs, r2.jobs);
  EXPECT_EQ(r1.events, r2.events);
  EXPECT_EQ(r1.drops, r2.drops);
  EXPECT_EQ(r1.timeouts, r2.timeouts);
  // Exact FP equality on purpose: same seeds, same event order.
  EXPECT_EQ(r1.avg_fct_s, r2.avg_fct_s);
  EXPECT_EQ(r1.p99_fct_s, r2.p99_fct_s);
}

/// A host that counts and frees every packet it receives.
class SinkHost : public net::Node {
 public:
  SinkHost(net::NodeId id, std::string name) : Node(id, std::move(name)) {}
  void receive(net::PacketPtr pkt, int /*in_port*/) override {
    ++received;
    pkt.reset();
  }
  std::uint64_t received{0};
};

TEST(FaultDeterminism, FatTreeFlapAndSilentDropArePinned) {
  // A k=8 fat-tree under staggered cross-pod traffic while one core uplink
  // flaps (with deferred route convergence) and another silently eats half
  // its packets, all under the full flight recorder. The delivered count
  // and the conservation audit are pinned: any change in packet fates,
  // drop accounting or journey bookkeeping moves them.
  telemetry::ScopeSettings settings;
  settings.enabled = true;
  settings.flight.mode = telemetry::FlightMode::kFull;
  telemetry::Scope scope(settings);
  telemetry::ScopeGuard guard(scope);

  sim::Simulator sim(/*seed=*/7);
  net::Topology topo(sim);
  net::FatTreeConfig cfg;
  cfg.k = 8;
  net::FatTree ft = net::build_fat_tree(
      topo, cfg, [](net::Topology& t, const std::string& name, int /*pod*/) {
        return t.add_host<SinkHost>(name);
      });
  FaultPlan plan;
  plan.route_convergence = 2 * sim::kMillisecond;
  plan.add(3 * sim::kMillisecond, FaultKind::kLinkDown, "A0.0->C0.0#0");
  plan.add(4 * sim::kMillisecond, FaultKind::kLinkDrop, "A1.1->C1.1#0", 0.5);
  plan.add(9 * sim::kMillisecond, FaultKind::kLinkUp, "A0.0->C0.0#0");
  FaultInjector inj(topo, plan);
  inj.arm();

  // 48 packets per host towards its peer in the opposite pod, one every
  // 250 us, so the traffic spans the whole fault window (3..11 ms).
  const int pods = ft.n_pods();
  for (int pod = 0; pod < pods; ++pod) {
    const auto& hs = ft.hosts_by_pod[static_cast<std::size_t>(pod)];
    const auto& peers =
        ft.hosts_by_pod[static_cast<std::size_t>((pod + pods / 2) % pods)];
    for (std::size_t i = 0; i < hs.size(); ++i) {
      net::Node* src = hs[i];
      net::Node* dst = peers[i % peers.size()];
      for (int b = 0; b < 48; ++b) {
        const sim::Time at = static_cast<sim::Time>(b) * 250 * sim::kMicrosecond +
                             static_cast<sim::Time>(pod + 1) * sim::kMicrosecond;
        sim.schedule_at(at, [src, dst, b, &sim] {
          auto pkt = net::make_packet(sim);
          pkt->inner = net::FiveTuple{
              src->ip(), dst->ip(),
              static_cast<std::uint16_t>(overlay::kEphemeralBase +
                                         ((static_cast<unsigned>(b) * 37u) &
                                          1023u)),
              7471, net::Proto::kStt};
          pkt->payload = 1460;
          pkt->ttl = 64;
          src->port(0)->enqueue(std::move(pkt));
        });
      }
    }
  }
  sim.run(20 * sim::kMillisecond);

  std::uint64_t received = 0;
  for (const auto& hs : ft.hosts_by_pod) {
    for (net::Node* h : hs) received += static_cast<SinkHost*>(h)->received;
  }
  EXPECT_EQ(inj.stats().events_applied, 3);
  EXPECT_EQ(received, 6113u);
  telemetry::FlightRecorder* fr = scope.flight_recorder();
  ASSERT_NE(fr, nullptr);
  fr->audit_conservation(sim.now());
  EXPECT_EQ(fr->audit().total(), 0u);
}

}  // namespace
}  // namespace clove::fault
