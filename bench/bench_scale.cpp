// Scale observatory: how does the engine hold up as the fabric grows?
//
// Runs the same cross-pod ECMP traffic over a k=4 fat-tree (16 hosts, 20
// switches) and a k=8 fat-tree (128 hosts, 80 switches) and reports, per
// topology: hosts, wall-clock, simulator events/s, event-queue high-water
// mark, and process peak RSS. A final interleaved phase alternates k=4 and
// k=8 rounds so the exported per-event slowdown ratio
// (scale.k8_vs_k4_events_ratio) is a same-run A/B comparison that cancels
// machine drift. Attribution rounds then run under the engine profiler
// (clove::prof) and print the top-5 time sinks; the full self-profile lands
// in the BENCH_scale.json artifact.
//
// CI (the scale-smoke job) diffs the artifact against the committed
// BENCH_scale.json with scripts/bench_check.py: events/s floors, RSS
// ceilings, and the interleaved ratio band guard the engine's scaling
// ceiling.
//
// Scale knobs: CLOVE_SCALE_ROUNDS (default 64) measurement rounds per
// topology; CLOVE_SCALE_BATCH (default 4) packets per host per round.
// Profiling defaults to CLOVE_PROF=summary here (set CLOVE_PROF=off/full to
// override) so the artifact always carries a self-profile section.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "hybrid/hybrid.hpp"
#include "lb/ecmp.hpp"
#include "net/fat_tree.hpp"
#include "net/packet_pool.hpp"
#include "net/topology.hpp"
#include "overlay/hypervisor.hpp"
#include "overlay/paths.hpp"
#include "prof/prof.hpp"
#include "sim/simulator.hpp"
#include "telemetry/scope.hpp"
#include "workload/client_server.hpp"
#include "workload/flow_size.hpp"

namespace {

using namespace clove;

/// A host that terminates packets (returning them to the simulator's pool).
class SinkHost : public net::Node {
 public:
  SinkHost(net::NodeId id, std::string name) : Node(id, std::move(name)) {}
  void receive(net::PacketPtr pkt, int /*in_port*/) override {
    ++received;
    pkt.reset();
  }
  std::uint64_t received{0};
};

int rounds_from_env() {
  if (const char* s = std::getenv("CLOVE_SCALE_ROUNDS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return 64;
}

int batch_from_env() {
  if (const char* s = std::getenv("CLOVE_SCALE_BATCH")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return 4;
}

/// Inject `batch` packets from every host towards its cross-pod peer, then
/// drain the simulator (same driver as bench_fabric_forwarding).
struct TrafficDriver {
  std::vector<net::Node*> sources;
  std::vector<net::Node*> dests;
  int batch{4};
  std::uint32_t port_cycle{0};

  std::uint64_t run_round(sim::Simulator& sim) {
    std::uint64_t injected = 0;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      net::Node* src = sources[i];
      net::Node* dst = dests[i];
      for (int b = 0; b < batch; ++b) {
        auto pkt = net::make_packet(sim);
        pkt->inner =
            net::FiveTuple{src->ip(), dst->ip(),
                           static_cast<std::uint16_t>(
                               overlay::kEphemeralBase +
                               ((port_cycle + static_cast<std::uint32_t>(b)) &
                                1023u)),
                           7471, net::Proto::kStt};
        pkt->payload = 1460;
        pkt->ttl = 64;
        src->port(0)->enqueue(std::move(pkt));
        ++injected;
      }
    }
    port_cycle += 7;
    sim.run();
    return injected;
  }
};

/// One k-ary fat-tree with cross-pod all-hosts traffic, self-contained so
/// two scales can coexist for the interleaved ratio phase.
struct Fabric {
  sim::Simulator sim;
  net::Topology topo{sim};
  TrafficDriver driver;
  int hosts{0};

  explicit Fabric(int k) {
    net::FatTreeConfig cfg;
    cfg.k = k;
    net::FatTree ft = net::build_fat_tree(
        topo, cfg, [](net::Topology& t, const std::string& name, int /*pod*/) {
          return t.add_host<SinkHost>(name);
        });
    const int pods = ft.n_pods();
    for (int pod = 0; pod < pods; ++pod) {
      const auto& hs = ft.hosts_by_pod[static_cast<std::size_t>(pod)];
      const auto& peers =
          ft.hosts_by_pod[static_cast<std::size_t>((pod + pods / 2) % pods)];
      for (std::size_t i = 0; i < hs.size(); ++i) {
        driver.sources.push_back(hs[i]);
        driver.dests.push_back(peers[i % peers.size()]);
      }
    }
    hosts = static_cast<int>(driver.sources.size());
    driver.batch = batch_from_env();
    for (int r = 0; r < 8; ++r) driver.run_round(sim);  // warm pools/tables
  }
};

/// A k-ary fat-tree of Clove hypervisors running the §5 web-search RPC
/// workload over TCP/ECMP — the elephant-heavy TCP arm the hybrid
/// flow/packet engine (DESIGN.md §12) exists for. Self-contained so the
/// off/on runs are a same-process A/B with identical seeds and workloads.
struct HybridArm {
  sim::Simulator sim;
  net::Topology topo{sim};
  std::vector<overlay::Hypervisor*> clients, servers;
  std::unique_ptr<hybrid::Engine> engine;
  std::unique_ptr<workload::ClientServerWorkload> wl;
  double access_bytes_per_sec{0.0};

  HybridArm(int k, bool hybrid_on) {
    net::FatTreeConfig cfg;
    cfg.k = k;
    net::FatTree ft = net::build_fat_tree(
        topo, cfg, [this](net::Topology& t, const std::string& name, int) {
          overlay::HypervisorConfig h;
          h.tcp.ecn = true;
          return static_cast<net::Node*>(t.add_host<overlay::Hypervisor>(
              name, sim, h, std::make_unique<lb::EcmpPolicy>()));
        });
    const int pods = ft.n_pods();
    for (int pod = 0; pod < pods; ++pod) {
      auto& side = pod < pods / 2 ? clients : servers;
      for (net::Node* h : ft.hosts_by_pod[static_cast<std::size_t>(pod)]) {
        side.push_back(static_cast<overlay::Hypervisor*>(h));
      }
    }
    // The fat tree is full-bisection, so the clients' access links are the
    // deliverable cut the workload's offered load is priced against.
    access_bytes_per_sec = sim::gbps_to_bytes_per_sec(cfg.host_gbps) *
                           static_cast<double>(clients.size());
    if (hybrid_on) {
      hybrid::HybridConfig hc = hybrid::HybridConfig::from_env();
      hc.enabled = true;
      engine = std::make_unique<hybrid::Engine>(sim, hc);
      for (const auto& l : topo.links()) engine->add_link(l.get());
      for (net::Node* h : topo.hosts()) {
        static_cast<overlay::Hypervisor*>(h)->set_hybrid(engine.get());
      }
    }
  }

  struct RunResult {
    double wall_s{0.0};
    std::uint64_t events{0};
    std::uint64_t jobs{0};
    double mice_avg_s{0.0};
    double mice_p99_s{0.0};
  };

  RunResult run(const harness::BenchScale& scale) {
    workload::ClientServerConfig w;
    w.conns_per_client = scale.conns_per_client;
    w.jobs_per_conn = scale.jobs_per_conn;
    w.load = 0.6;
    w.bisection_bytes_per_sec = access_bytes_per_sec;
    w.tcp.ecn = true;
    wl = std::make_unique<workload::ClientServerWorkload>(sim, w, clients,
                                                          servers);
    const auto t0 = std::chrono::steady_clock::now();
    wl->start([this] { sim.stop(); });
    sim.run(sim::seconds(600.0));
    const auto t1 = std::chrono::steady_clock::now();
    RunResult r;
    r.wall_s = std::chrono::duration<double>(t1 - t0).count();
    r.events = sim.events_processed();
    r.jobs = wl->jobs_done();
    r.mice_avg_s = wl->fct().mice().mean();
    r.mice_p99_s = wl->fct().mice().percentile(99);
    return r;
  }
};

/// min(a/b, b/a): 1.0 = identical, smaller = farther apart. The committed
/// floor pins how closely the hybrid run must track the packet-exact one.
double match_ratio(double a, double b) {
  if (a <= 0.0 || b <= 0.0) return a == b ? 1.0 : 0.0;
  return std::min(a / b, b / a);
}

struct PhaseResult {
  double wall_s{0.0};
  double events_per_sec{0.0};
  std::uint64_t events{0};
  std::uint64_t packets{0};
};

/// Measured rounds run UNPROFILED (InstallGuard below) so the committed
/// events/s floors price the engine, not the instrumentation.
PhaseResult measure(Fabric& f, int rounds) {
  prof::InstallGuard unprofiled(nullptr);
  const std::uint64_t events0 = f.sim.events_processed();
  const auto t0 = std::chrono::steady_clock::now();
  PhaseResult out;
  for (int r = 0; r < rounds; ++r) out.packets += f.driver.run_round(f.sim);
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.events = f.sim.events_processed() - events0;
  out.events_per_sec = static_cast<double>(out.events) / out.wall_s;
  return out;
}

void report_topo(const std::string& tag, const Fabric& f, const PhaseResult& r,
                 double rss_mb) {
  std::printf(
      "%-9s %4d hosts   %7.3f s wall   %8.2f Mevents/s   "
      "queue hwm %6zu   peak rss %7.1f MB\n",
      tag.c_str(), f.hosts, r.wall_s, r.events_per_sec / 1e6,
      f.sim.queue_high_water(), rss_mb);
  if (bench::Artifact* a = bench::Artifact::current()) {
    a->add_value(tag + ".hosts", static_cast<double>(f.hosts));
    a->add_value(tag + ".events_per_sec", r.events_per_sec);
    a->add_value(tag + ".rss_mb", rss_mb);
    a->add_value(tag + ".queue_hwm",
                 static_cast<double>(f.sim.queue_high_water()));
    a->note_engine(r.events, f.sim.queue_high_water());
  }
}

}  // namespace

int main() {
  // Profilable by default: the artifact's self-profile section and the
  // top-sink table are this bench's point. An explicit CLOVE_PROF (even
  // "off") still wins.
  setenv("CLOVE_PROF", "summary", /*overwrite=*/0);

  const auto scale = harness::BenchScale::from_env();
  bench::Artifact artifact("BENCH_scale",
                           "engine scaling ceiling (k=4 vs k=8 fat-tree)",
                           scale);
  // The CLOVE_HYBRID gated phase makes the blended process rate
  // leg-dependent in CI's matrix; the per-topology scale_k*.events_per_sec
  // rows are the throughput guard for this bench.
  artifact.set_mirror_engine_rate(false);
  telemetry::current_scope().set_enabled(false);

  const int rounds = rounds_from_env();
  std::printf("== engine scale observatory ==\n");
  std::printf(
      "rounds: %d per topology, batch %d pkts/host "
      "(CLOVE_SCALE_ROUNDS / CLOVE_SCALE_BATCH to change)\n\n",
      rounds, batch_from_env());

  // Peak RSS is monotonic over the process, so each scale is built and
  // measured before the next is constructed: scale_k4.rss_mb bounds the
  // 16-host engine alone, scale_k8.rss_mb the whole process at 128 hosts.
  auto k4 = std::make_unique<Fabric>(4);
  const PhaseResult r4 = measure(*k4, rounds);
  const double rss4 = prof::peak_rss_mb();
  report_topo("scale_k4", *k4, r4, rss4);

  auto k8 = std::make_unique<Fabric>(8);
  const PhaseResult r8 = measure(*k8, rounds);
  const double rss8 = prof::peak_rss_mb();
  report_topo("scale_k8", *k8, r8, rss8);

  // Interleaved per-event slowdown: alternate k4/k8 rounds against the same
  // machine state so the ratio isolates the topology-scaling cost.
  {
    prof::InstallGuard unprofiled(nullptr);
    double wall[2] = {};
    std::uint64_t events[2] = {};
    const int ratio_rounds = rounds / 2 > 0 ? rounds / 2 : 1;
    Fabric* fabs[2] = {k4.get(), k8.get()};
    for (int r = 0; r < ratio_rounds; ++r) {
      for (int arm = 0; arm < 2; ++arm) {
        Fabric& f = *fabs[arm];
        const std::uint64_t e0 = f.sim.events_processed();
        const auto t0 = std::chrono::steady_clock::now();
        f.driver.run_round(f.sim);
        const auto t1 = std::chrono::steady_clock::now();
        wall[arm] += std::chrono::duration<double>(t1 - t0).count();
        events[arm] += f.sim.events_processed() - e0;
      }
    }
    const double eps4 = static_cast<double>(events[0]) / wall[0];
    const double eps8 = static_cast<double>(events[1]) / wall[1];
    const double ratio = eps8 / eps4;
    std::printf("\nscale.k8_vs_k4_events_ratio %.4f  "
                "(interleaved; 1.0 = no per-event slowdown at 8x hosts)\n",
                ratio);
    if (bench::Artifact* a = bench::Artifact::current()) {
      a->add_value("scale.k8_vs_k4_events_ratio", ratio);
    }
  }

  // Hybrid flow/packet A/B (DESIGN.md §12), gated on CLOVE_HYBRID=on: the
  // same k=8 web-search/ECMP TCP workload runs packet-exact and then with elephant middles promoted to
  // the fluid engine. Same process, same seed, jobs must match exactly;
  // the speedup and mice-FCT-fidelity rows are the tentpole's contract.
  if (hybrid::HybridConfig::from_env().enabled) {
    prof::InstallGuard unprofiled(nullptr);
    const hybrid::HybridConfig hc = hybrid::HybridConfig::from_env();
    const auto ws = workload::FlowSizeDistribution::web_search();
    const double promotable =
        ws.bytes_fraction_at_least(hc.ramp_bytes + hc.min_remaining);
    std::printf(
        "\n== hybrid flow/packet A/B (k=8 fat-tree, web-search, ECMP) ==\n"
        "promotable byte share (flows >= %llu B): %.1f%%\n",
        static_cast<unsigned long long>(hc.ramp_bytes + hc.min_remaining),
        100.0 * promotable);

    HybridArm::RunResult off, on;
    std::uint64_t promotions = 0, fluid_bytes = 0;
    // Fold both arms into the artifact's engine gauges: the packet-exact
    // arm dominates process wall-clock by design, so leaving its events out
    // would crater the whole-artifact engine.events_per_sec composite that
    // bench_check floors.
    {
      HybridArm arm(8, /*hybrid_on=*/false);
      off = arm.run(scale);
      artifact.note_engine(off.events, arm.sim.queue_high_water());
    }
    {
      HybridArm arm(8, /*hybrid_on=*/true);
      on = arm.run(scale);
      artifact.note_engine(on.events, arm.sim.queue_high_water());
      promotions = arm.engine->stats().promotions;
      fluid_bytes = arm.engine->stats().fluid_bytes;
    }

    const double speedup = off.wall_s / on.wall_s;
    const double ev_reduction = static_cast<double>(off.events) /
                                static_cast<double>(std::max<std::uint64_t>(
                                    1, on.events));
    const double mice_match = match_ratio(off.mice_avg_s, on.mice_avg_s);
    const double jobs_match =
        match_ratio(static_cast<double>(off.jobs), static_cast<double>(on.jobs));
    std::printf(
        "  off: %7.3f s wall  %10llu events  %llu jobs  mice avg %.4fs p99 "
        "%.4fs\n"
        "  on:  %7.3f s wall  %10llu events  %llu jobs  mice avg %.4fs p99 "
        "%.4fs\n"
        "  %llu promotions, %.1f MB advanced fluidly\n"
        "hybrid.k8_speedup_ratio         %.3f  (wall-clock, same workload)\n"
        "hybrid.k8_event_reduction_ratio %.3f  (events skipped by the fluid "
        "model)\n"
        "hybrid.mice_fct_match_ratio     %.4f  (1.0 = identical mice avg "
        "FCT)\n"
        "hybrid.jobs_match_ratio         %.4f  (must be 1.0)\n",
        off.wall_s, static_cast<unsigned long long>(off.events),
        static_cast<unsigned long long>(off.jobs), off.mice_avg_s,
        off.mice_p99_s, on.wall_s, static_cast<unsigned long long>(on.events),
        static_cast<unsigned long long>(on.jobs), on.mice_avg_s, on.mice_p99_s,
        static_cast<unsigned long long>(promotions),
        static_cast<double>(fluid_bytes) / 1e6, speedup, ev_reduction,
        mice_match, jobs_match);
    if (bench::Artifact* a = bench::Artifact::current()) {
      a->add_value("hybrid.k8_speedup_ratio", speedup);
      a->add_value("hybrid.k8_event_reduction_ratio", ev_reduction);
      a->add_value("hybrid.mice_fct_match_ratio", mice_match);
      a->add_value("hybrid.jobs_match_ratio", jobs_match);
      a->add_value("hybrid.promotions", static_cast<double>(promotions));
    }
  }

  // Attribution rounds: profiled (the Artifact's session profiler is
  // installed on this thread), then the top time sinks — excluded from the
  // measured floors above by construction.
  if (prof::Profiler* p = artifact.profiler()) {
    const int attrib_rounds = rounds / 4 > 0 ? rounds / 4 : 1;
    for (int r = 0; r < attrib_rounds; ++r) {
      k4->driver.run_round(k4->sim);
      k8->driver.run_round(k8->sim);
    }
    p->note_simulator(k4->sim.events_processed(), k4->sim.queue_high_water(),
                      k4->sim.queue_slab_capacity());
    p->note_simulator(k8->sim.events_processed(), k8->sim.queue_high_water(),
                      k8->sim.queue_slab_capacity());
    auto& pool4 = net::PacketPool::of(k4->sim);
    auto& pool8 = net::PacketPool::of(k8->sim);
    p->note_pool(pool4.allocated(), pool4.reused());
    p->note_pool(pool8.allocated(), pool8.reused());

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
