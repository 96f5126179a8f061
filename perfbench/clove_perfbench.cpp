// One simulation of one named benchmark workload, driven end to end through
// the engine's public entry points (harness::Testbed, Testbed::start_discovery,
// workload::ClientServerWorkload, sim::Simulator::run) and printed as one JSON
// object on stdout. perfbench/run.py repeats it, checks it and aggregates the
// results; see perfbench/README.md for the workloads and metrics.
//
//   clove_perfbench --workload <name> --seed <n> [--trace]
//
// Every engine mode is pinned here: telemetry and the flight recorder are off
// (an explicitly installed telemetry scope), the profiler is off or summary
// (an explicitly installed prof::Profiler), the hybrid engine is set per
// workload, and no fault plan is armed. The one mode the engine still reads
// from the environment behind a config's back is CLOVE_FAULT_PLAN, so the
// binary refuses to run while any CLOVE_* variable is set.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "hybrid/hybrid.hpp"
#include "lb/ecmp.hpp"
#include "net/fat_tree.hpp"
#include "net/packet_pool.hpp"
#include "overlay/hypervisor.hpp"
#include "prof/prof.hpp"
#include "telemetry/scope.hpp"
#include "workload/client_server.hpp"

extern char** environ;

namespace {

using namespace clove;
using Clock = std::chrono::steady_clock;

/// A named workload: which fabric, which scheme, how much traffic.
struct WorkloadSpec {
  const char* name;
  bool fat_tree;  ///< k=8 fat-tree; otherwise the paper's §5.2 testbed
  harness::Scheme scheme;
  bool hybrid;
  double load;
  int conns_per_client;
  int jobs_per_conn;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"testbed_asym_clove_ecn", false, harness::Scheme::kCloveEcn, false, 0.7, 2,
     2},
    {"fattree_k8_hybrid", true, harness::Scheme::kEcmp, true, 0.6, 2, 3},
};

/// A span recorded around one public call, in ns since the run started.
struct Span {
  const char* name;
  const char* parent;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  template <typename F>
  void record(const char* name, const char* parent, F&& body) {
    const std::uint64_t start = since_origin();
    body();
    spans_.push_back(Span{name, parent, start, since_origin()});
  }

  [[nodiscard]] std::uint64_t since_origin() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count());
  }
  [[nodiscard]] double seconds(const char* name) const {
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
      }
    }
    return 0.0;
  }
  [[nodiscard]] const std::vector<Span>& all() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The simulated network a workload runs on. Leaf-spine workloads go through
/// harness::Testbed; the fat-tree (which Testbed does not build) is wired the
/// way bench_scale's hybrid arm wires it.
struct Rig {
  std::unique_ptr<harness::Testbed> testbed;
  std::unique_ptr<sim::Simulator> own_sim;
  std::unique_ptr<net::Topology> own_topo;
  std::unique_ptr<hybrid::Engine> own_hybrid;

  sim::Simulator* sim{nullptr};
  net::Topology* topo{nullptr};
  hybrid::Engine* hybrid{nullptr};
  std::vector<overlay::Hypervisor*> clients, servers;
  double bisection_bytes_per_sec{0.0};
  sim::Time traffic_start{0};
  transport::TcpConfig tcp{};
};

void build_leaf_spine(const WorkloadSpec& w, std::uint64_t seed, Rig& rig) {
  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.scheme = w.scheme;
  cfg.asymmetric = true;
  cfg.seed = seed;
  cfg.hybrid = hybrid::HybridConfig{};
  cfg.hybrid.enabled = w.hybrid;
  cfg.fault_plan = fault::FaultPlan{};
  rig.testbed = std::make_unique<harness::Testbed>(cfg);
  harness::Testbed& tb = *rig.testbed;
  rig.sim = &tb.simulator();
  rig.topo = &tb.topology();
  rig.hybrid = tb.hybrid();
  rig.clients = tb.clients();
  rig.servers = tb.servers();
  // Offered load is priced against the smaller of the fabric cut and the
  // clients' access links, as harness::run_fct_experiment does.
  const double fabric = sim::gbps_to_bytes_per_sec(cfg.topo.fabric_gbps) *
                        cfg.topo.n_spines * cfg.topo.links_per_pair;
  const double access = sim::gbps_to_bytes_per_sec(cfg.topo.host_gbps) *
                        cfg.topo.hosts_per_leaf;
  rig.bisection_bytes_per_sec = std::min(fabric, access);
  rig.traffic_start = cfg.traffic_start;
  rig.tcp = cfg.tcp;
}

void build_fat_tree(const WorkloadSpec& w, std::uint64_t seed, Rig& rig) {
  rig.own_sim = std::make_unique<sim::Simulator>(seed);
  rig.own_topo = std::make_unique<net::Topology>(*rig.own_sim);
  rig.sim = rig.own_sim.get();
  rig.topo = rig.own_topo.get();
  rig.tcp.ecn = true;
  net::FatTreeConfig ft_cfg;
  ft_cfg.k = 8;
  sim::Simulator& sim = *rig.sim;
  const transport::TcpConfig tcp = rig.tcp;
  net::FatTree ft = net::build_fat_tree(
      *rig.topo, ft_cfg,
      [&sim, tcp](net::Topology& t, const std::string& name, int) {
        overlay::HypervisorConfig h;
        h.tcp = tcp;
        return static_cast<net::Node*>(t.add_host<overlay::Hypervisor>(
            name, sim, h, std::make_unique<lb::EcmpPolicy>()));
      });
  const int pods = ft.n_pods();
  for (int pod = 0; pod < pods; ++pod) {
    auto& side = pod < pods / 2 ? rig.clients : rig.servers;
    for (net::Node* h : ft.hosts_by_pod[static_cast<std::size_t>(pod)]) {
      side.push_back(static_cast<overlay::Hypervisor*>(h));
    }
  }
  // Full bisection: the clients' access links are the deliverable cut.
  rig.bisection_bytes_per_sec = sim::gbps_to_bytes_per_sec(ft_cfg.host_gbps) *
                                static_cast<double>(rig.clients.size());
  rig.traffic_start = 50 * sim::kMillisecond;
  if (w.hybrid) {
    hybrid::HybridConfig hc;
    hc.enabled = true;
    rig.own_hybrid = std::make_unique<hybrid::Engine>(sim, hc);
    rig.hybrid = rig.own_hybrid.get();
    for (const auto& l : rig.topo->links()) rig.hybrid->add_link(l.get());
    for (net::Node* h : rig.topo->hosts()) {
      static_cast<overlay::Hypervisor*>(h)->set_hybrid(rig.hybrid);
    }
  }
}

/// FNV-1a over the result fields that must repeat exactly for one seed.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ull};
};

struct Counter {
  const char* name;
  double value;
};

int usage() {
  std::fprintf(stderr,
               "usage: clove_perfbench --workload <name> --seed <n> "
               "[--trace]\nworkloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace") {
      trace = true;
    } else if (a == "--workload" && i + 1 < argc) {
      const std::string name = argv[++i];
      for (const WorkloadSpec& w : kWorkloads) {
        if (name == w.name) spec = &w;
      }
      if (spec == nullptr) return usage();
    } else if (a == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else {
      return usage();
    }
  }
  if (spec == nullptr || !have_seed) return usage();
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CLOVE_", 6) == 0) {
      std::fprintf(stderr,
                   "refusing to run: %s is set; the benchmark pins every "
                   "engine mode itself\n",
                   *e);
      return 2;
    }
  }

  // Pinned engine modes: telemetry and flight recorder off, profiler as asked.
  telemetry::Scope telemetry_scope{telemetry::ScopeSettings{}};
  telemetry::ScopeGuard telemetry_guard(telemetry_scope);
  prof::Profiler profiler(prof::Mode::kSummary);
  prof::InstallGuard prof_guard(trace ? &profiler : nullptr);

  const Clock::time_point origin = Clock::now();
  Spans spans(origin);
  // Declared before the rig and workload, whose stored callbacks refer to
  // them, so they outlive those callbacks.
  std::vector<transport::TcpReceiver*> receivers;
  std::uint64_t fct_sum_ns = 0;
  Rig rig;
  std::unique_ptr<workload::ClientServerWorkload> ws;

  spans.record("harness.build", "setup", [&] {
    if (spec->fat_tree) {
      build_fat_tree(*spec, seed, rig);
    } else {
      build_leaf_spine(*spec, seed, rig);
    }
  });
  spans.record("harness.discovery", "setup", [&] {
    if (rig.testbed) rig.testbed->start_discovery();
    rig.sim->run(rig.traffic_start);
  });
  spans.record("workload.start", "traffic", [&] {
    for (net::Node* n : rig.topo->hosts()) {
      static_cast<overlay::Hypervisor*>(n)->on_new_receiver =
          [&receivers](transport::TcpReceiver& r, const net::FiveTuple&) {
            receivers.push_back(&r);
          };
    }
    workload::ClientServerConfig wl;
    wl.conns_per_client = spec->conns_per_client;
    wl.jobs_per_conn = spec->jobs_per_conn;
    wl.load = spec->load;
    wl.bisection_bytes_per_sec = rig.bisection_bytes_per_sec;
    wl.start_time = rig.traffic_start;
    wl.seed = seed * 977 + 3;
    wl.tcp = rig.tcp;
    ws = std::make_unique<workload::ClientServerWorkload>(*rig.sim, wl,
                                                          rig.clients,
                                                          rig.servers);
    ws->on_job = [&fct_sum_ns](std::uint64_t, sim::Time arrival,
                               sim::Time finished) {
      fct_sum_ns += static_cast<std::uint64_t>(finished - arrival);
    };
    sim::Simulator* sim = rig.sim;
    ws->start([sim] { sim->stop(); });
  });
  spans.record("sim.run", "traffic", [&] {
    rig.sim->run(harness::ExperimentConfig{}.max_sim_time);
  });

  std::vector<Counter> counters;
  std::uint64_t digest = 0;
  double fct_p50 = 0.0, fct_p99 = 0.0, mice_p99 = 0.0;
  spans.record("collect", "traffic", [&] {
    auto add = [&counters](const char* name, double v) {
      counters.push_back(Counter{name, v});
    };
    const sim::Simulator& sim = *rig.sim;
    add("sim.events", static_cast<double>(sim.events_processed()));
    add("sim.queue_hwm", static_cast<double>(sim.queue_high_water()));

    std::uint64_t forwarded = 0, tx = 0, drops = 0, marks = 0;
    for (const net::Switch* s : rig.topo->switches()) {
      forwarded += s->stats().forwarded;
    }
    for (const auto& l : rig.topo->links()) {
      const net::LinkStats& st = l->stats();
      tx += st.tx_packets;
      drops += st.drops_overflow + st.drops_down + st.drops_fault;
      marks += st.ecn_marks;
    }
    const auto& pool = net::PacketPool::of(*rig.sim);
    add("net.switch_forwarded", static_cast<double>(forwarded));
    add("net.link_tx_packets", static_cast<double>(tx));
    add("net.drops", static_cast<double>(drops));
    add("net.ecn_marks", static_cast<double>(marks));
    add("net.pool_reuse_ratio",
        static_cast<double>(pool.reused()) /
            static_cast<double>(pool.reused() + pool.allocated()));

    std::uint64_t encapped = 0, fb = 0, ce = 0, probes = 0, flowlets = 0;
    for (net::Node* n : rig.topo->hosts()) {
      auto* h = static_cast<overlay::Hypervisor*>(n);
      encapped += h->stats().encapped;
      fb += h->stats().feedback_received;
      ce += h->stats().ce_intercepted;
      probes += h->discovery().probes_sent();
      if (auto* ft = h->policy().flowlet_tracker()) {
        flowlets += ft->flowlets_started();
      }
    }
    add("overlay.encapped", static_cast<double>(encapped));
    add("overlay.feedback_received", static_cast<double>(fb));
    add("overlay.ce_intercepted", static_cast<double>(ce));
    add("overlay.discovery_probes", static_cast<double>(probes));
    add("lb.flowlets_started", static_cast<double>(flowlets));

    const transport::TcpSenderStats t = ws->transport_totals();
    std::uint64_t reorders = 0;
    for (const transport::TcpReceiver* r : receivers) {
      reorders += r->reorder_events();
    }
    add("transport.packets_sent", static_cast<double>(t.packets_sent));
    add("transport.bytes_sent", static_cast<double>(t.bytes_sent));
    add("transport.bytes_acked", static_cast<double>(t.bytes_acked));
    add("transport.fast_retransmits", static_cast<double>(t.fast_retransmits));
    add("transport.timeouts", static_cast<double>(t.timeouts));
    add("transport.reorder_events", static_cast<double>(reorders));

    hybrid::HybridStats hs{};
    if (rig.hybrid != nullptr) hs = rig.hybrid->stats();
    add("hybrid.promotions", static_cast<double>(hs.promotions));
    add("hybrid.demotions",
        static_cast<double>(hs.demotions_tail + hs.demotions_loss +
                            hs.demotions_link + hs.demotions_degrade));
    add("hybrid.solves", static_cast<double>(hs.solves));
    add("hybrid.fluid_bytes", static_cast<double>(hs.fluid_bytes));

    add("workload.jobs_total", static_cast<double>(ws->jobs_total()));
    add("workload.jobs_done", static_cast<double>(ws->jobs_done()));
    add("workload.bytes_offered", static_cast<double>(ws->bytes_offered()));
    fct_p50 = ws->fct().all().percentile(50);
    fct_p99 = ws->fct().all().percentile(99);
    mice_p99 = ws->fct().mice().percentile(99);
    add("workload.avg_fct_ms", ws->fct().all().mean() * 1e3);
    add("workload.mice_p99_fct_ms", mice_p99 * 1e3);

    Digest d;
    d.add(sim.events_processed());
    d.add(ws->jobs_total());
    d.add(ws->jobs_done());
    d.add(fct_sum_ns);
    d.add(fct_p50);
    d.add(fct_p99);
    d.add(mice_p99);
    digest = d.value();
  });
  const double wall_s = static_cast<double>(spans.since_origin()) / 1e9;
  const double peak_rss = prof::peak_rss_mb();

  // One JSON object; run.py reads it. Floats that must repeat exactly are
  // also printed as C99 hex floats.
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %s, \"build_type\": \"%s\",\n",
              spec->name, seed, trace ? "true" : "false",
              PERFBENCH_BUILD_TYPE);
  std::printf(
      " \"engine\": {\"scheme\": \"%s\", \"profile\": \"%s\", \"topology\": "
      "\"%s\", \"hybrid\": %s, \"prof\": \"%s\", \"telemetry\": false, "
      "\"flight_recorder\": \"off\", \"fault_plan\": \"none\"},\n",
      harness::scheme_name(spec->scheme).c_str(),
      spec->fat_tree ? "fat_tree" : "testbed",
      spec->fat_tree ? "fat_tree_k8" : "leaf_spine_2x2_s2l2_failed",
      spec->hybrid ? "true" : "false", trace ? "summary" : "off");
  std::printf(" \"digest\": \"%016" PRIx64 "\", \"fct_sum_ns\": %" PRIu64
              ", \"fct_p50_hex\": \"%a\", \"fct_p99_hex\": \"%a\", "
              "\"mice_p99_hex\": \"%a\",\n",
              digest, fct_sum_ns, fct_p50, fct_p99, mice_p99);
  std::printf(" \"times\": {\"wall_s\": %.9f, \"build_s\": %.9f, "
              "\"discovery_s\": %.9f, \"traffic_s\": %.9f, "
              "\"peak_rss_mb\": %.3f},\n",
              wall_s, spans.seconds("harness.build"),
              spans.seconds("harness.discovery"),
              spans.seconds("workload.start") + spans.seconds("sim.run"),
              peak_rss);
  std::printf(" \"counters\": {");
  for (std::size_t i = 0; i < counters.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", counters[i].name,
                counters[i].value);
  }
  std::printf("},\n \"spans\": [");
  for (std::size_t i = 0; i < spans.all().size(); ++i) {
    const Span& s = spans.all()[i];
    std::printf("%s{\"name\": \"%s\", \"parent\": \"%s\", \"start_ns\": %" PRIu64
                ", \"end_ns\": %" PRIu64 "}",
                i == 0 ? "" : ", ", s.name, s.parent, s.start_ns, s.end_ns);
  }
  std::printf("],\n \"scopes\": {");
  if (trace) {
    for (int id = 0; id < prof::kScopeCount; ++id) {
      const prof::ScopeStat& st = profiler.stat(static_cast<prof::ScopeId>(id));
      std::printf("%s\"%s\": {\"count\": %" PRIu64 ", \"self_ns\": %" PRIu64
                  ", \"total_ns\": %" PRIu64 "}",
                  id == 0 ? "" : ", ",
                  prof::scope_name(static_cast<prof::ScopeId>(id)), st.count,
                  st.self_ns, st.total_ns);
    }
  }
  std::printf("}}\n");
  return 0;
}
