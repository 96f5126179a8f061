// Tests for binding metric cells at construction: a component counts only if
// its telemetry scope was enabled when it was built. Built with telemetry
// off, it registers nothing and writes only its scope's null cells.

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/parallel_runner.hpp"
#include "lb/ecmp.hpp"
#include "net/fat_tree.hpp"
#include "overlay/hypervisor.hpp"
#include "telemetry/scope.hpp"

namespace clove::telemetry {
namespace {

/// A small asymmetric testbed that builds every registering component: links,
/// switches, hypervisors, path-health monitors, a fault injector and (once
/// traffic runs) TCP senders.
harness::ExperimentConfig small_testbed() {
  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.scheme = harness::Scheme::kCloveEcn;
  cfg.asymmetric = true;
  cfg.topo.hosts_per_leaf = 2;
  cfg.path_health.enabled = true;
  cfg.fault_plan.add(10 * sim::kMillisecond, fault::FaultKind::kLinkDown,
                     "L2->S2#0");
  cfg.max_sim_time = 1 * sim::kSecond;
  return cfg;
}

workload::ClientServerConfig few_jobs() {
  workload::ClientServerConfig wl;
  wl.load = 0.4;
  wl.jobs_per_conn = 2;
  wl.conns_per_client = 1;
  return wl;
}

/// Build the testbed with telemetry off, then enable the current scope and
/// run discovery and the fault plan: every component built off keeps writing
/// its null cells, now with the hot-path guard open.
std::size_t late_enable_after_off_build() {
  Scope& scope = current_scope();
  harness::Testbed tb(small_testbed());
  scope.set_enabled(true);
  tb.start_discovery();
  tb.simulator().run(50 * sim::kMillisecond);
  return scope.metrics().size();
}

TEST(ScopeBinding, DisabledScopeBindsItsOwnNullCells) {
  Scope a;
  Scope b;
  Counter* ca = a.binder().counter("x");
  EXPECT_EQ(a.binder([] { return Labels{{"k", "v"}}; }).counter("y"), ca);
  EXPECT_NE(b.binder().counter("x"), ca);
  EXPECT_NE(a.binder().gauge("x"), nullptr);
  EXPECT_NE(a.binder().histogram("x"), nullptr);
  EXPECT_EQ(a.metrics().size(), 0u);
  // The registry itself still registers whatever the scope's state.
  EXPECT_NE(a.metrics().counter("x"), ca);
  EXPECT_EQ(a.metrics().size(), 1u);
}

TEST(ScopeBinding, EnabledScopeBindsRegistryCells) {
  Scope s{ScopeSettings{true}};
  bool made = false;
  auto bind = s.binder([&] {
    made = true;
    return Labels{{"link", "L1->S1#0"}};
  });
  EXPECT_TRUE(made);
  EXPECT_EQ(bind.counter("link.tx_packets"),
            s.metrics().counter("link.tx_packets", {{"link", "L1->S1#0"}}));
  EXPECT_EQ(s.metrics().size(), 1u);
}

TEST(ScopeBinding, DisabledScopeNeverMakesLabels) {
  Scope s;
  bool made = false;
  s.binder([&] {
    made = true;
    return Labels{};
  }).counter("x");
  EXPECT_FALSE(made);
}

TEST(ScopeBinding, TelemetryOffTestbedRunRegistersNothing) {
  Scope scope;
  ScopeGuard guard(scope);
  const harness::ExperimentResult r =
      harness::run_fct_experiment(small_testbed(), few_jobs());
  EXPECT_GT(r.jobs, 0u);
  EXPECT_EQ(scope.metrics().size(), 0u);
  EXPECT_EQ(scope.metrics().label_set_count(), 0u);
}

TEST(ScopeBinding, TelemetryOffFatTreeK8RegistersNothing) {
  Scope scope;
  ScopeGuard guard(scope);
  sim::Simulator sim(1);
  net::Topology topo(sim);
  net::FatTreeConfig cfg;
  cfg.k = 8;
  net::build_fat_tree(topo, cfg,
                      [&sim](net::Topology& t, const std::string& name, int) {
                        return static_cast<net::Node*>(
                            t.add_host<overlay::Hypervisor>(
                                name, sim, overlay::HypervisorConfig{},
                                std::make_unique<lb::EcmpPolicy>()));
                      });
  EXPECT_FALSE(topo.links().empty());
  EXPECT_EQ(scope.metrics().size(), 0u);
}

/// "kind name{k=v,...}" for every sample, in snapshot order.
std::vector<std::string> cell_list(const MetricsSnapshot& snap) {
  static const char* const kKind[] = {"counter", "gauge", "histogram"};
  std::vector<std::string> out;
  for (const MetricSample& s : snap.samples) {
    std::string line = kKind[static_cast<int>(s.kind)];
    line += ' ';
    line += s.name;
    line += '{';
    for (const auto& [k, v] : s.labels) {
      if (line.back() != '{') line += ',';
      line += k;
      line += '=';
      line += v;
    }
    line += '}';
    out.push_back(std::move(line));
  }
  return out;
}

TEST(ScopeBinding, TelemetryOnTestbedRegistersThePinnedCells) {
  // data/testbed_cells.txt was taken from the registry before cells were
  // bound through Scope::binder: telemetry-on runs register the same cells.
  std::ifstream in(std::string(CLOVE_TEST_DATA_DIR) + "/testbed_cells.txt");
  ASSERT_TRUE(in) << "missing tests/data/testbed_cells.txt";
  std::vector<std::string> pinned;
  for (std::string line; std::getline(in, line);) pinned.push_back(line);
  Scope scope{ScopeSettings{true}};
  ScopeGuard guard(scope);
  const harness::ExperimentResult r =
      harness::run_fct_experiment(small_testbed(), few_jobs());
  EXPECT_EQ(cell_list(r.metrics), pinned);
}

TEST(ScopeBinding, LateEnableLeavesOffBuiltComponentsOut) {
  Scope scope;
  ScopeGuard guard(scope);
  EXPECT_EQ(late_enable_after_off_build(), 0u);
  EXPECT_TRUE(scope.metrics().snapshot().samples.empty());
}

TEST(ScopeBinding, LateEnableInParallelTasksDoesNotRace) {
  // Four tasks, each in its own telemetry-off scope, flip it on after the
  // build and run concurrently: each writes only its own scope's null cells.
  Scope outer;
  ScopeGuard guard(outer);
  harness::ParallelRunner runner(4);
  std::vector<std::function<std::size_t()>> tasks(4,
                                                  late_enable_after_off_build);
  for (std::size_t registered : runner.map<std::size_t>(std::move(tasks))) {
    EXPECT_EQ(registered, 0u);
  }
  EXPECT_FALSE(outer.is_enabled());
}

}  // namespace
}  // namespace clove::telemetry
