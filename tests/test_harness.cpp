// Tests for the experiment harness: scheme wiring, testbed construction,
// profiles, the environment knobs (RunEnv), and end-to-end behaviour of the
// composed schemes (Presto reassembly, DCTCP option, CONGA fabric wiring).

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/experiment.hpp"
#include "harness/run_env.hpp"
#include "lb/presto.hpp"
#include "net/conga_switch.hpp"
#include "workload/client_server.hpp"

namespace clove::harness {
namespace {

ExperimentConfig small(Scheme s) {
  ExperimentConfig cfg = make_ns2_profile();
  cfg.scheme = s;
  cfg.topo.hosts_per_leaf = 4;
  cfg.discovery.probe_timeout = 5 * sim::kMillisecond;
  cfg.traffic_start = 15 * sim::kMillisecond;
  return cfg;
}

TEST(Harness, TestbedBuildsPaperTopology) {
  Testbed tb(small(Scheme::kCloveEcn));
  EXPECT_EQ(tb.clients().size(), 4u);
  EXPECT_EQ(tb.servers().size(), 4u);
  EXPECT_EQ(tb.fabric().leaves.size(), 2u);
  EXPECT_EQ(tb.fabric().spines.size(), 2u);
}

TEST(Harness, SchemePoliciesWiredCorrectly) {
  struct Case {
    Scheme s;
    std::string policy_name;
  };
  for (const Case& c : std::initializer_list<Case>{
           {Scheme::kEcmp, "ecmp"},
           {Scheme::kEdgeFlowlet, "edge-flowlet"},
           {Scheme::kCloveEcn, "clove-ecn"},
           {Scheme::kCloveInt, "clove-int"},
           {Scheme::kCloveLatency, "clove-latency"},
           {Scheme::kPresto, "presto"},
           // MPTCP pairs with the migrate-on-evict ECMP edge so subflows
           // re-pin away from paths the health monitor declares dead.
           {Scheme::kMptcp, "ecmp-migrate"},
           {Scheme::kConga, "ecmp"},   // CONGA re-routes inside the fabric
           {Scheme::kLetFlow, "ecmp"}}) {
    Testbed tb(small(c.s));
    EXPECT_EQ(tb.clients()[0]->policy().name(), c.policy_name)
        << scheme_name(c.s);
  }
}

TEST(Harness, CongaLeavesConfigured) {
  Testbed tb(small(Scheme::kConga));
  auto* leaf = dynamic_cast<net::CongaLeafSwitch*>(tb.fabric().leaves[0]);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->leaf_index(), 0);
}

TEST(Harness, PrestoGetsReorderBufferAndIdealWeights) {
  auto cfg = small(Scheme::kPresto);
  cfg.asymmetric = true;
  Testbed tb(cfg);
  EXPECT_TRUE(tb.clients()[0]->config().reorder_buffer);
  // Ideal static weights were installed: after discovery, S1 paths carry
  // twice the flowcells of S2 paths (verified indirectly via the policy's
  // pick distribution in test_policies.cpp; here we just ensure wiring).
  auto* presto = dynamic_cast<lb::PrestoPolicy*>(&tb.clients()[0]->policy());
  ASSERT_NE(presto, nullptr);
}

TEST(Harness, AsymmetricFailsExactlyOneLink) {
  auto cfg = small(Scheme::kEcmp);
  cfg.asymmetric = true;
  Testbed tb(cfg);
  int down = 0;
  for (const auto& l : tb.topology().links()) {
    if (l->is_down()) ++down;
  }
  EXPECT_EQ(down, 2);  // both directions of the S2-L2 connection
  tb.restore_s2_l2_link();
  down = 0;
  for (const auto& l : tb.topology().links()) {
    if (l->is_down()) ++down;
  }
  EXPECT_EQ(down, 0);
}

TEST(Harness, ProfilesDiffer) {
  const auto testbed = make_testbed_profile();
  const auto ns2 = make_ns2_profile();
  EXPECT_GT(testbed.tcp.min_rto, ns2.tcp.min_rto);
  EXPECT_TRUE(testbed.tcp.ecn);
}

TEST(Harness, BenchScaleReadsEnv) {
  setenv("CLOVE_JOBS", "7", 1);
  setenv("CLOVE_SEEDS", "3", 1);
  setenv("CLOVE_CONNS", "5", 1);
  auto s = RunEnv::from_env().scale;
  EXPECT_EQ(s.jobs_per_conn, 7);
  EXPECT_EQ(s.seeds, 3);
  EXPECT_EQ(s.conns_per_client, 5);
  unsetenv("CLOVE_JOBS");
  unsetenv("CLOVE_SEEDS");
  unsetenv("CLOVE_CONNS");
  auto d = RunEnv::from_env().scale;
  EXPECT_EQ(d.jobs_per_conn, 40);
  EXPECT_EQ(d.seeds, 1);
  EXPECT_EQ(d.conns_per_client, 2);
}

TEST(Harness, BenchScaleRejectsGarbage) {
  setenv("CLOVE_JOBS", "-3", 1);
  EXPECT_EQ(RunEnv::from_env().scale.jobs_per_conn, 40);
  unsetenv("CLOVE_JOBS");
}

TEST(RunEnv, ParsesTheKnobsAndAppliesThemOnlyWhenAsked) {
  const char* const vars[][2] = {
      {"CLOVE_JSON_OUT", "some/dir"}, {"CLOVE_HYBRID", "on"},
      {"CLOVE_FLIGHT_RECORDER", "sampled"}, {"CLOVE_FABRIC_ROUNDS", "12"},
      {"CLOVE_LOG_LEVEL", "none"},
      {"CLOVE_FAULT_PLAN", R"([{"at_ms": 40, "kind": "link_down",
                                "target": "x"}])"}};
  for (const auto& [name, value] : vars) setenv(name, value, 1);
  const RunEnv env = RunEnv::from_env();
  for (const auto& [name, value] : vars) unsetenv(name);
  EXPECT_EQ(env.json_out, "some/dir");
  EXPECT_TRUE(env.hybrid);
  EXPECT_EQ(env.flight, telemetry::FlightMode::kSampled);
  EXPECT_EQ(env.fabric_rounds, 12);
  EXPECT_EQ(env.log_level, sim::LogLevel::kNone);
  EXPECT_EQ(env.fault_plan.events.size(), 1u);

  // A config gets the knobs only from apply(), and keeps its own fault plan.
  ExperimentConfig cfg = make_testbed_profile();
  EXPECT_FALSE(cfg.hybrid.enabled);
  env.apply(cfg);
  EXPECT_TRUE(cfg.hybrid.enabled);
  EXPECT_EQ(cfg.fault_plan.events.size(), 1u);
  EXPECT_EQ(cfg.artifact_dir, "some/dir");
  cfg.fault_plan.add(0, fault::FaultKind::kLinkUp, "x");
  env.apply(cfg);
  EXPECT_EQ(cfg.fault_plan.events.size(), 2u);
}

TEST(Harness, PrestoReassemblyPreventsSpuriousRetransmits) {
  // Presto sprays 64KB flowcells round-robin over 4 paths, which reorders
  // packets heavily; the receiving vswitch's reassembly must hide that from
  // the VM so fast retransmits stay rare. Compare against the same spraying
  // without the reorder buffer.
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 3;
  wl.conns_per_client = 1;
  wl.load = 0.3;
  wl.sizes = workload::FlowSizeDistribution::fixed(2'000'000);

  auto cfg = small(Scheme::kPresto);
  auto r = run_fct_experiment(cfg, wl);
  EXPECT_EQ(r.jobs, 4u * 3u);
  // Each 2MB job is ~1370 packets sprayed across 4 paths (~85 reordered
  // flowcell boundaries). With reassembly, fast retransmits stay rare —
  // a couple per job at most, instead of one per boundary.
  EXPECT_LE(r.fast_retransmits, 2u * r.jobs);
}

TEST(Harness, DctcpGuestOptionRuns) {
  // §7 "DCTCP": with a DCTCP guest stack the same harness still completes
  // (non-overlay mode so switch marks hit the inner header directly).
  auto cfg = small(Scheme::kCloveEcn);
  cfg.non_overlay = true;
  cfg.tcp.dctcp = true;
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 4;
  wl.conns_per_client = 1;
  wl.load = 0.5;
  wl.sizes = workload::FlowSizeDistribution::fixed(400'000);
  auto r = run_fct_experiment(cfg, wl);
  EXPECT_EQ(r.jobs, 4u * 4u);
}

TEST(Harness, NonOverlayCloveEcnCompletes) {
  auto cfg = small(Scheme::kCloveEcn);
  cfg.non_overlay = true;
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 4;
  wl.conns_per_client = 1;
  wl.load = 0.5;
  wl.sizes = workload::FlowSizeDistribution::fixed(400'000);
  auto r = run_fct_experiment(cfg, wl);
  EXPECT_EQ(r.jobs, 4u * 4u);
}

TEST(Harness, ResultCountersPopulated) {
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 20;
  wl.conns_per_client = 2;
  wl.load = 1.1;  // overdriven so queues must mark
  auto cfg = small(Scheme::kCloveEcn);
  cfg.topo.fabric_gbps = 10.0;  // scale fabric to the 4-host mini-testbed
  auto r = run_fct_experiment(cfg, wl);
  EXPECT_GT(r.events, 1000u);
  EXPECT_GT(r.ecn_marks, 0u);
  ASSERT_NE(r.fct, nullptr);
  EXPECT_EQ(r.fct->all().count(), r.jobs);
}

}  // namespace
}  // namespace clove::harness
