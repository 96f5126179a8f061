// Per-scheme datapath pins: one short client-server run per load-balancing
// scheme, each exercising a different set of packet header fields (outer
// ECN, INT samples, NIC timestamps and latency feedback, Presto flowcells,
// CONGA tags, MPTCP subflows, the non-overlay port rewrite, the hybrid path
// trace, and SACK on every lossy run). Each run is pinned to its exact event
// count, link drops, ECN marks, FCT sum and the bit patterns of its average
// and p99 FCT, so any change to how a packet carries or loses one of those
// fields moves at least one pin. Every case runs twice, with telemetry off and
// then inside an enabled telemetry scope, and both runs must hit the same pin:
// recording metrics never feeds back into the simulation. Nor does the
// environment: with every run-moving CLOVE_* knob set, a config built in
// code still hits its pin.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "harness/experiment.hpp"
#include "telemetry/scope.hpp"
#include "workload/client_server.hpp"

namespace clove::harness {
namespace {

struct Pin {
  std::uint64_t events;
  std::uint64_t drops;
  std::uint64_t ecn_marks;
  double fct_sum_s;
  double avg_fct_s;
  double p99_fct_s;
};

/// The asymmetric testbed (S2-L2 failed) at 70 % load: enough queueing for
/// drops, marks and SACK recovery, small enough to run in about a second.
ExperimentConfig base_config(Scheme scheme) {
  ExperimentConfig cfg = make_testbed_profile();
  cfg.scheme = scheme;
  cfg.asymmetric = true;
  cfg.seed = 2;
  return cfg;
}

workload::ClientServerConfig base_workload() {
  workload::ClientServerConfig wl;
  wl.conns_per_client = 1;
  wl.jobs_per_conn = 4;
  wl.load = 0.7;
  return wl;
}

void expect_run_pinned(const ExperimentConfig& cfg,
                       const workload::ClientServerConfig& wl,
                       const Pin& pin) {
  const ExperimentResult r = run_fct_experiment(cfg, wl);
  double sum = 0.0;
  for (double v : r.fct->all().raw()) sum += v;
  char got[256];
  std::snprintf(got, sizeof(got), "{%llu, %llu, %llu, %a, %a, %a}",
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.drops),
                static_cast<unsigned long long>(r.ecn_marks), sum,
                r.avg_fct_s, r.p99_fct_s);
  SCOPED_TRACE(got);
  EXPECT_EQ(r.jobs, static_cast<std::uint64_t>(wl.jobs_per_conn *
                                               wl.conns_per_client *
                                               cfg.topo.hosts_per_leaf));
  EXPECT_EQ(r.events, pin.events);
  EXPECT_EQ(r.drops, pin.drops);
  EXPECT_EQ(r.ecn_marks, pin.ecn_marks);
  EXPECT_EQ(sum, pin.fct_sum_s);
  EXPECT_EQ(r.avg_fct_s, pin.avg_fct_s);
  EXPECT_EQ(r.p99_fct_s, pin.p99_fct_s);
}

void expect_pinned(const ExperimentConfig& cfg,
                   const workload::ClientServerConfig& wl, const Pin& pin) {
  {
    SCOPED_TRACE("telemetry off");
    expect_run_pinned(cfg, wl, pin);
  }
  SCOPED_TRACE("telemetry on");
  telemetry::ScopeSettings on;
  on.enabled = true;
  telemetry::Scope scope{on};
  telemetry::ScopeGuard guard(scope);
  expect_run_pinned(cfg, wl, pin);
}

constexpr Pin kEcmpPin{787633, 3606, 0, 0x1.3a5a8279e4bfep-3,
                       0x1.3a5a8279e4bfdp-9, 0x1.53ea1d906ab8ep-6};

TEST(DatapathPins, Ecmp) {
  expect_pinned(base_config(Scheme::kEcmp), base_workload(), kEcmpPin);
}

TEST(DatapathPins, EnvironmentCannotMoveAResult) {
  const char* const vars[][2] = {
      {"CLOVE_HYBRID", "on"},
      {"CLOVE_FAULT_PLAN",
       R"([{"at_ms": 31, "kind": "link_down", "target": "L1->S1#0"}])"},
      {"CLOVE_FLIGHT_RECORDER", "full"},
      {"CLOVE_TELEMETRY", "1"},
  };
  for (const auto& [name, value] : vars) ::setenv(name, value, 1);
  expect_pinned(base_config(Scheme::kEcmp), base_workload(), kEcmpPin);
  for (const auto& [name, value] : vars) ::unsetenv(name);
}

TEST(DatapathPins, CloveEcn) {
  expect_pinned(base_config(Scheme::kCloveEcn), base_workload(),
                {1856544, 21919, 12755, 0x1.1ef0a351e5613p-3,
                 0x1.1ef0a351e5613p-9, 0x1.5e479bbd38c4ap-6});
}

TEST(DatapathPins, CloveIntCarriesIntSamples) {
  expect_pinned(base_config(Scheme::kCloveInt), base_workload(),
                {1867942, 21870, 22943, 0x1.10f8a1ce01bc6p-3,
                 0x1.10f8a1ce01bc5p-9, 0x1.51a238e41d016p-6});
}

TEST(DatapathPins, CloveLatencyCarriesTimestamps) {
  expect_pinned(base_config(Scheme::kCloveLatency), base_workload(),
                {1867942, 21870, 0, 0x1.10f8a3af0b09cp-3, 0x1.10f8a3af0b09bp-9,
                 0x1.51a238e41d016p-6});
}

TEST(DatapathPins, PrestoCarriesFlowcells) {
  expect_pinned(base_config(Scheme::kPresto), base_workload(),
                {1833037, 21736, 0, 0x1.1ff049c35c4f8p-3, 0x1.1ff049c35c4f7p-9,
                 0x1.565f7d08d74e6p-6});
}

TEST(DatapathPins, CongaCarriesCongaFields) {
  expect_pinned(base_config(Scheme::kConga), base_workload(),
                {795952, 3719, 0, 0x1.0ee3c401997f9p-3, 0x1.0ee3c401997f9p-9,
                 0x1.5054459129947p-6});
}

TEST(DatapathPins, LetFlow) {
  expect_pinned(base_config(Scheme::kLetFlow), base_workload(),
                {790280, 3711, 0, 0x1.0f080f3a7cf5fp-3, 0x1.0f080f3a7cf5ep-9,
                 0x1.50549a64845ebp-6});
}

TEST(DatapathPins, Mptcp) {
  expect_pinned(base_config(Scheme::kMptcp), base_workload(),
                {1830848, 21847, 0, 0x1.17ad5a51ec421p-3, 0x1.17ad5a51ec422p-9,
                 0x1.5160915d0394cp-6});
}

TEST(DatapathPins, NonOverlayCloveEcnRewritesPorts) {
  ExperimentConfig cfg = base_config(Scheme::kCloveEcn);
  cfg.non_overlay = true;
  expect_pinned(cfg, base_workload(),
                {1857881, 22011, 29937, 0x1.306772c4b265dp-3,
                 0x1.306772c4b265fp-9, 0x1.78d386d71d7e2p-6});
}

TEST(DatapathPins, HybridEcmpCarriesPathTraces) {
  // Built as HybridAB builds its ECMP arm (tests/test_hybrid.cpp): elephants
  // are promoted through traced segments, so the trace record is exercised.
  ExperimentConfig cfg = make_testbed_profile();
  cfg.scheme = Scheme::kEcmp;
  cfg.seed = 3;
  cfg.hybrid.enabled = true;
  workload::ClientServerConfig wl;
  wl.conns_per_client = 1;
  wl.jobs_per_conn = 16;
  wl.load = 0.5;
  expect_pinned(cfg, wl,
                {178635, 224, 0, 0x1.4fb0e8a6d92e6p+0, 0x1.4fb0e8a6d92e5p-8,
                 0x1.9acde3051a068p-6});
}

}  // namespace
}  // namespace clove::harness
