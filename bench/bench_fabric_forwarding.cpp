// Macro-benchmark for the per-hop forwarding datapath: drives packets
// end-to-end across multi-switch fabrics (3-tier fat-tree under ECMP,
// leaf-spine under LetFlow and CONGA) and reports packets/s, ns per switch
// hop, simulator events/s and exact heap allocations per packet in steady
// state — a full forwarded packet, where bench_micro_datapath isolates
// single operations.
//
// Two guards then price instrumentation as three arms interleaved on the
// fat-tree (bench_check.py holds their ratios to a 2-point band and the
// instrumented arms to zero allocations per packet):
//   flight_guard  no scope; a scope whose flight recorder is off (one
//                 thread-local load per hook); a sampled recorder that never
//                 samples within the run (plus a uid modulo per hop).
//   prof_guard    no profiler; CLOVE_PROF=off, which is also no profiler (so
//                 "off costs zero" and the noise floor); a kSummary profiler
//                 (two clock reads per scope). prof_guard.scope_overhead_ns
//                 reports what those two clock reads cost where the bench
//                 runs, which is what prof_summary_ratio moves with.
//
// With CLOVE_JSON_OUT=<dir> set, results land in <dir>/BENCH_fabric.json,
// the baseline the bench-smoke CI job diffs against. CLOVE_FABRIC_ROUNDS
// (default 256) sets the rounds per scenario and per guard.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fabric_driver.hpp"

namespace {

using namespace clove;
using bench::FabricSpec;

/// Packets injected per source host per round. 8 keeps the in-flight
/// population (batch x hosts x Packet size) inside the L2 working set, so
/// the bench prices the forwarding datapath rather than DRAM: at large
/// batches every hop misses on its packet line and all datapaths converge
/// to memory latency.
constexpr int kBatch = 8;

struct Scenario {
  const char* name;
  FabricSpec spec;
};

const Scenario kScenarios[] = {
    {"fat_tree_ecmp", {FabricSpec::Kind::kFatTree, 4}},
    {"leaf_spine_letflow", {FabricSpec::Kind::kLetFlowLeafSpine}},
    {"leaf_spine_conga", {FabricSpec::Kind::kCongaLeafSpine}},
};

void report(const std::string& name, const bench::Measured& m) {
  std::printf(
      "%-22s %10.3f Mpkts/s   %7.1f ns/hop   %8.2f Mevents/s   "
      "%.4f allocs/pkt   (%llu pkts, %llu hops)\n",
      name.c_str(), m.pkts_per_sec() / 1e6, m.ns_per_hop(),
      m.events_per_sec() / 1e6, m.allocs_per_pkt(),
      static_cast<unsigned long long>(m.packets),
      static_cast<unsigned long long>(m.hops));
  if (bench::Artifact* a = bench::Artifact::current()) {
    a->add_value(name + ".pkts_per_sec", m.pkts_per_sec());
    a->add_value(name + ".ns_per_hop", m.ns_per_hop());
    a->add_value(name + ".events_per_sec", m.events_per_sec());
    a->add_value(name + ".allocs_per_pkt", m.allocs_per_pkt());
  }
}

void report_guard(const std::string& guard,
                  const std::vector<bench::ArmResult>& arms) {
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const bench::ArmResult& arm = arms[i];
    const std::string prefix = guard + "." + arm.name;
    std::printf("%-27s %10.3f Mpkts/s   ratio %.4f   %.4f allocs/pkt\n",
                prefix.c_str(), arm.total.pkts_per_sec() / 1e6, arm.ratio,
                arm.total.allocs_per_pkt());
    bench::Artifact* a = bench::Artifact::current();
    if (a != nullptr && i > 0) {
      a->add_value(prefix + "_ratio", arm.ratio);
      a->add_value(prefix + ".allocs_per_pkt", arm.total.allocs_per_pkt());
    }
  }
}

}  // namespace

int main() {
  const harness::RunEnv env = harness::RunEnv::from_env();
  env.apply_process();
  bench::Artifact artifact("BENCH_fabric",
                           "fabric forwarding perf baseline (macro)",
                           env.scale, env.json_out,
                           env.prof.value_or(prof::Mode::kOff));
  // Telemetry counters would price the instrumentation, not the datapath;
  // the figure benches measure that separately.
  telemetry::current_scope().set_enabled(false);

  const int rounds = env.fabric_rounds > 0 ? env.fabric_rounds : 256;
  std::printf("== fabric forwarding macro-bench ==\n");
  std::printf("rounds: %d per scenario (CLOVE_FABRIC_ROUNDS to change)\n\n",
              rounds);
  std::vector<std::unique_ptr<bench::Fabric>> fabrics;
  for (const Scenario& s : kScenarios) {
    fabrics.push_back(std::make_unique<bench::Fabric>(s.spec, kBatch));
    report(s.name, bench::measure(*fabrics.back(), rounds));
  }

  bench::Fabric& ft = *fabrics.front();
  telemetry::ScopeSettings off_st;
  off_st.flight.mode = telemetry::FlightMode::kOff;
  telemetry::Scope off_scope(off_st);
  telemetry::ScopeSettings idle_st;
  idle_st.flight.mode = telemetry::FlightMode::kSampled;
  idle_st.flight.sample_every = 1ull << 40;  // never samples within the run
  telemetry::Scope idle_scope(idle_st);
  prof::Profiler summary_prof(prof::Mode::kSummary);

  report_guard("flight_guard",
               bench::interleave({{"baseline", &ft},
                                  {"recorder_off", &ft, &off_scope},
                                  {"recorder_idle", &ft, &idle_scope}},
                                 rounds, &bench::Measured::pkts_per_sec));
  report_guard("prof_guard",
               bench::interleave({{"baseline", &ft},
                                  {"prof_off", &ft},
                                  {"prof_summary", &ft, nullptr, &summary_prof}},
                                 rounds, &bench::Measured::pkts_per_sec));
  const std::uint64_t scope_ns = prof::scope_overhead_ns_estimate();
  std::printf("%-27s %10llu ns per scope\n", "prof_guard.scope_overhead_ns",
              static_cast<unsigned long long>(scope_ns));
  if (bench::Artifact* a = bench::Artifact::current()) {
    a->add_value("prof_guard.scope_overhead_ns",
                 static_cast<double>(scope_ns));
  }
  return 0;
}
