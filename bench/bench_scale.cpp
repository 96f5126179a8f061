// Scale observatory: how does the engine hold up as the fabric grows?
//
// Drives the same cross-pod traffic over k=4 (16 hosts), k=8 (128) and k=16
// (1024) fat-trees and reports per topology: hosts, wall-clock, events/s,
// event-queue high-water mark and process peak RSS. Interleaved k=4/k=8
// rounds give scale.k8_vs_k4_events_ratio, a same-run A/B that cancels
// machine drift; under CLOVE_HYBRID=on the hybrid flow/packet A/B follows.
// Profiled k=4/k=8 attribution rounds then print the top-5 time sinks; the
// full self-profile lands in BENCH_scale.json, which CI's scale-smoke job
// diffs against the committed baseline with scripts/bench_check.py.
//
// CLOVE_FABRIC_ROUNDS (default 64) sets the rounds per topology. Profiling
// defaults to CLOVE_PROF=summary here (CLOVE_PROF=off/full overrides it).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fabric_driver.hpp"
#include "hybrid/hybrid.hpp"
#include "lb/ecmp.hpp"
#include "net/fat_tree.hpp"
#include "net/packet_pool.hpp"
#include "overlay/hypervisor.hpp"
#include "workload/client_server.hpp"
#include "workload/flow_size.hpp"

namespace {

using namespace clove;

/// Packets injected per source host per round.
constexpr int kBatch = 4;

/// The topologies, measured in this order and each built after the
/// previous one was measured: peak RSS is monotonic over the process, so
/// scale_k4.rss_mb bounds the 16-host engine alone and each later row the
/// whole process up to it. k4 and k8 are built and warmed under the session
/// profiler and kept for the interleaved ratio and the attribution rounds;
/// k16 runs unprofiled after the ratio phase and is freed once measured.
const bench::FabricSpec kK4{bench::FabricSpec::Kind::kFatTree, 4};
const bench::FabricSpec kK8{bench::FabricSpec::Kind::kFatTree, 8};
const bench::FabricSpec kK16{bench::FabricSpec::Kind::kFatTree, 16};

/// Builds `spec` with `profiler` installed, measures it unprofiled and
/// reports its scale_k* rows.
std::unique_ptr<bench::Fabric> run_topo(const std::string& tag,
                                        const bench::FabricSpec& spec,
                                        int rounds, prof::Profiler* profiler) {
  std::unique_ptr<bench::Fabric> f;
  {
    prof::InstallGuard installed(profiler);
    f = std::make_unique<bench::Fabric>(spec, kBatch);
  }
  const bench::Measured m = bench::measure(*f, rounds);
  const double rss_mb = prof::peak_rss_mb();
  const std::size_t hwm = f->sim.queue_high_water();
  std::printf(
      "%-9s %4d hosts   %7.3f s wall   %8.2f Mevents/s   "
      "queue hwm %6zu   peak rss %7.1f MB\n",
      tag.c_str(), f->hosts(), m.wall_s, m.events_per_sec() / 1e6, hwm,
      rss_mb);
  if (bench::Artifact* a = bench::Artifact::current()) {
    a->add_value(tag + ".hosts", static_cast<double>(f->hosts()));
    a->add_value(tag + ".events_per_sec", m.events_per_sec());
    a->add_value(tag + ".rss_mb", rss_mb);
    a->add_value(tag + ".queue_hwm", static_cast<double>(hwm));
    a->note_engine(m.events, hwm);
  }
  return f;
}

struct HybridRun {
  double wall_s{0.0};
  std::uint64_t events{0};
  std::uint64_t queue_hwm{0};
  std::uint64_t jobs{0};
  double mice_avg_s{0.0};
  double mice_p99_s{0.0};
  hybrid::HybridStats stats{};
};

/// Runs the §5 web-search RPC workload over TCP/ECMP on a k=8 fat-tree of
/// Clove hypervisors — the elephant-heavy TCP arm the hybrid flow/packet
/// engine (DESIGN.md §12) exists for — packet-exact or with the engine on.
/// Each run builds its own fabric, so off and on are a same-process A/B
/// with identical seeds and workloads.
HybridRun run_hybrid_arm(bool hybrid_on, const harness::BenchScale& scale) {
  sim::Simulator sim;
  net::Topology topo(sim);
  net::FatTreeConfig cfg;
  cfg.k = 8;
  const net::FatTree ft = net::build_fat_tree(
      topo, cfg, [&sim](net::Topology& t, const std::string& name, int) {
        overlay::HypervisorConfig h;
        h.tcp.ecn = true;
        return static_cast<net::Node*>(t.add_host<overlay::Hypervisor>(
            name, sim, h, std::make_unique<lb::EcmpPolicy>()));
      });
  std::vector<overlay::Hypervisor*> clients, servers;
  const int pods = ft.n_pods();
  for (int pod = 0; pod < pods; ++pod) {
    auto& side = pod < pods / 2 ? clients : servers;
    for (net::Node* h : ft.hosts_by_pod[static_cast<std::size_t>(pod)]) {
      side.push_back(static_cast<overlay::Hypervisor*>(h));
    }
  }
  std::unique_ptr<hybrid::Engine> engine;
  if (hybrid_on) {
    hybrid::HybridConfig hc;
    hc.enabled = true;
    engine = std::make_unique<hybrid::Engine>(sim, hc);
    for (const auto& l : topo.links()) engine->add_link(l.get());
    for (net::Node* h : topo.hosts()) {
      static_cast<overlay::Hypervisor*>(h)->set_hybrid(engine.get());
    }
  }
  workload::ClientServerConfig w;
  w.conns_per_client = scale.conns_per_client;
  w.jobs_per_conn = scale.jobs_per_conn;
  w.load = 0.6;
  // The fat tree is full-bisection, so the clients' access links are the
  // deliverable cut the workload's offered load is priced against.
  w.bisection_bytes_per_sec = sim::gbps_to_bytes_per_sec(cfg.host_gbps) *
                              static_cast<double>(clients.size());
  w.tcp.ecn = true;
  workload::ClientServerWorkload wl(sim, w, clients, servers);
  const auto t0 = std::chrono::steady_clock::now();
  wl.start([&sim] { sim.stop(); });
  sim.run(sim::seconds(600.0));
  HybridRun r;
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  r.events = sim.events_processed();
  r.queue_hwm = sim.queue_high_water();
  r.jobs = wl.jobs_done();
  r.mice_avg_s = wl.fct().mice().mean();
  r.mice_p99_s = wl.fct().mice().percentile(99);
  if (engine) r.stats = engine->stats();
  return r;
}

/// min(a/b, b/a): 1.0 = identical, smaller = farther apart. The committed
/// floor pins how closely the hybrid run must track the packet-exact one.
double match_ratio(double a, double b) {
  if (a <= 0.0 || b <= 0.0) return a == b ? 1.0 : 0.0;
  return std::min(a / b, b / a);
}

}  // namespace

int main() {
  const harness::RunEnv env = harness::RunEnv::from_env();
  env.apply_process();
  // Profilable by default: the artifact's self-profile section and the
  // top-sink table are this bench's point. An explicit CLOVE_PROF (even
  // "off") still wins.
  bench::Artifact artifact("BENCH_scale",
                           "engine scaling ceiling (k=4 vs k=8 fat-tree)",
                           env.scale, env.json_out,
                           env.prof.value_or(prof::Mode::kSummary));
  // The CLOVE_HYBRID gated phase makes the blended process rate
  // leg-dependent in CI's matrix; the per-topology scale_k*.events_per_sec
  // rows are the throughput guard for this bench.
  artifact.set_mirror_engine_rate(false);
  telemetry::current_scope().set_enabled(false);

  const int rounds = env.fabric_rounds > 0 ? env.fabric_rounds : 64;
  std::printf("== engine scale observatory ==\n");
  std::printf(
      "rounds: %d per topology, batch %d pkts/host "
      "(CLOVE_FABRIC_ROUNDS to change)\n\n",
      rounds, kBatch);

  const auto k4 = run_topo("scale_k4", kK4, rounds, artifact.profiler());
  const auto k8 = run_topo("scale_k8", kK8, rounds, artifact.profiler());

  // Interleaved per-event slowdown: alternate k4/k8 rounds against the same
  // machine state so the ratio isolates the topology-scaling cost.
  const double ratio =
      bench::interleave({{"scale_k4", k4.get()}, {"scale_k8", k8.get()}},
                        std::max(rounds / 2, 1),
                        &bench::Measured::events_per_sec)[1]
          .ratio;
  std::printf("scale.k8_vs_k4_events_ratio %.4f  "
              "(interleaved; 1.0 = no per-event slowdown at 8x hosts)\n",
              ratio);
  artifact.add_value("scale.k8_vs_k4_events_ratio", ratio);
  run_topo("scale_k16", kK16, rounds, nullptr);

  // Hybrid flow/packet A/B (DESIGN.md §12), gated on CLOVE_HYBRID=on: the
  // same k=8 web-search/ECMP TCP workload runs packet-exact and then with
  // elephant middles promoted to the fluid engine. Same process, same seed;
  // jobs must match exactly, and the speedup and mice-FCT-fidelity rows
  // carry the engine's contract.
  if (env.hybrid) {
    prof::InstallGuard unprofiled(nullptr);
    const hybrid::HybridConfig hc;
    const std::uint64_t min_bytes = hc.ramp_bytes + hc.min_remaining;
    std::printf(
        "\n== hybrid flow/packet A/B (k=8 fat-tree, web-search, ECMP) ==\n"
        "promotable byte share (flows >= %llu B): %.1f%%\n",
        static_cast<unsigned long long>(min_bytes),
        100.0 * workload::FlowSizeDistribution::web_search()
                    .bytes_fraction_at_least(min_bytes));
    const HybridRun off = run_hybrid_arm(false, env.scale);
    const HybridRun on = run_hybrid_arm(true, env.scale);
    for (const HybridRun* r : {&off, &on}) {
      // Both arms count toward the artifact's engine gauges: the
      // packet-exact arm dominates process wall-clock by design.
      artifact.note_engine(r->events, r->queue_hwm);
      std::printf("  %-4s %7.3f s wall  %10llu events  %llu jobs  "
                  "mice avg %.4fs p99 %.4fs\n",
                  r == &off ? "off:" : "on:", r->wall_s,
                  static_cast<unsigned long long>(r->events),
                  static_cast<unsigned long long>(r->jobs), r->mice_avg_s,
                  r->mice_p99_s);
    }
    std::printf("  %.1f MB advanced fluidly\n",
                static_cast<double>(on.stats.fluid_bytes) / 1e6);
    const std::pair<const char*, double> rows[] = {
        // wall-clock, same workload
        {"hybrid.k8_speedup_ratio", off.wall_s / on.wall_s},
        // events the fluid model skipped
        {"hybrid.k8_event_reduction_ratio",
         static_cast<double>(off.events) /
             static_cast<double>(std::max<std::uint64_t>(1, on.events))},
        // 1.0 = identical mice avg FCT
        {"hybrid.mice_fct_match_ratio",
         match_ratio(off.mice_avg_s, on.mice_avg_s)},
        // must be 1.0
        {"hybrid.jobs_match_ratio", match_ratio(static_cast<double>(off.jobs),
                                                static_cast<double>(on.jobs))},
        {"hybrid.promotions", static_cast<double>(on.stats.promotions)},
    };
    for (const auto& [name, value] : rows) {
      std::printf("%-31s %.4f\n", name, value);
      artifact.add_value(name, value);
    }
  }

  // Attribution rounds: profiled (the Artifact's session profiler is
  // installed on this thread), then the top time sinks — excluded from the
  // measured floors above by construction.
  if (prof::Profiler* p = artifact.profiler()) {
    const int attrib_rounds = std::max(rounds / 4, 1);
    for (int r = 0; r < attrib_rounds; ++r) {
      for (bench::Fabric* f : {k4.get(), k8.get()}) f->driver.run_round(f->sim);
    }
    for (bench::Fabric* f : {k4.get(), k8.get()}) {
      p->note_simulator(f->sim.events_processed(), f->sim.queue_high_water(),
                        f->sim.queue_slab_capacity());
      const auto& pool = net::PacketPool::of(f->sim);
      p->note_pool(pool.allocated(), pool.reused());
    }

    std::printf("\ntop time sinks (profiled attribution rounds):\n");
    const auto sinks = p->top_sinks();
    std::uint64_t total_self = 0;
    for (prof::ScopeId id : sinks) total_self += p->stat(id).self_ns;
    int shown = 0;
    for (prof::ScopeId id : sinks) {
      if (shown++ == 5) break;
      const prof::ScopeStat& s = p->stat(id);
      std::printf("  %-16s %10.3f ms self   %8llu calls   %5.1f%%\n",
                  prof::scope_name(id), static_cast<double>(s.self_ns) / 1e6,
                  static_cast<unsigned long long>(s.count),
                  total_self > 0
                      ? 100.0 * static_cast<double>(s.self_ns) /
                            static_cast<double>(total_self)
                      : 0.0);
    }
  }
  return 0;
}
