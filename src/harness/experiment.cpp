#include "harness/experiment.hpp"

#include "lb/clove_ecn.hpp"
#include "lb/clove_int.hpp"
#include "lb/clove_latency.hpp"
#include "lb/ecmp.hpp"
#include "lb/edge_flowlet.hpp"
#include "lb/presto.hpp"
#include "net/conga_switch.hpp"
#include "net/letflow_switch.hpp"
#include "net/packet_pool.hpp"
#include "prof/prof.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/scope.hpp"

namespace clove::harness {

std::string scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kEcmp: return "ECMP";
    case Scheme::kEdgeFlowlet: return "Edge-Flowlet";
    case Scheme::kCloveEcn: return "Clove-ECN";
    case Scheme::kCloveInt: return "Clove-INT";
    case Scheme::kCloveLatency: return "Clove-Latency";
    case Scheme::kPresto: return "Presto";
    case Scheme::kMptcp: return "MPTCP";
    case Scheme::kConga: return "CONGA";
    case Scheme::kLetFlow: return "LetFlow";
  }
  return "?";
}

bool scheme_is_edge_based(Scheme s) {
  return s != Scheme::kConga && s != Scheme::kLetFlow;
}

// ---------------------------------------------------------------------------
// Testbed
// ---------------------------------------------------------------------------

std::unique_ptr<lb::Policy> Testbed::make_policy() {
  switch (cfg_.scheme) {
    case Scheme::kEdgeFlowlet:
      return std::make_unique<lb::EdgeFlowletPolicy>(cfg_.flowlet_gap);
    case Scheme::kCloveEcn: {
      lb::CloveEcnConfig c;
      c.flowlet_gap = cfg_.flowlet_gap;
      c.reduce_factor = cfg_.clove_reduce_factor;
      c.congestion_expiry = cfg_.clove_congestion_expiry;
      c.recovery_interval = cfg_.clove_recovery_interval;
      c.recovery_rate = cfg_.clove_recovery_rate;
      c.adaptive_gap = cfg_.adaptive_flowlet_gap;
      return std::make_unique<lb::CloveEcnPolicy>(c, cfg_.seed * 131 + 7);
    }
    case Scheme::kCloveInt: {
      lb::CloveIntConfig c;
      c.flowlet_gap = cfg_.flowlet_gap;
      return std::make_unique<lb::CloveIntPolicy>(c, cfg_.seed * 131 + 7);
    }
    case Scheme::kCloveLatency: {
      lb::CloveLatencyConfig c;
      c.flowlet_gap = cfg_.flowlet_gap;
      return std::make_unique<lb::CloveLatencyPolicy>(c, cfg_.seed * 131 + 7);
    }
    case Scheme::kPresto:
      // Ideal static weights for asymmetry are installed after the fabric
      // is built (the spine IPs are unknown at host-creation time).
      return std::make_unique<lb::PrestoPolicy>();
    case Scheme::kMptcp:
      // MPTCP diversifies via inner tuples over an ECMP edge, but its
      // subflows pin hard to their hash — so the edge honors path-health
      // evictions (migrate mode) and re-pins subflows off dead paths.
      return std::make_unique<lb::EcmpPolicy>(/*migrate_on_evict=*/true);
    case Scheme::kEcmp:
    case Scheme::kConga:
    case Scheme::kLetFlow:
      // CONGA/LetFlow re-route inside the fabric; plain ECMP is the
      // never-recovering baseline. All pair with a plain ECMP edge.
      return std::make_unique<lb::EcmpPolicy>();
  }
  return std::make_unique<lb::EcmpPolicy>();
}

overlay::HypervisorConfig Testbed::make_hyp_config() {
  overlay::HypervisorConfig h;
  h.overlay = !cfg_.non_overlay;
  h.feedback_relay_interval = cfg_.feedback_relay_interval;
  h.reorder_buffer =
      (cfg_.scheme == Scheme::kPresto) && !cfg_.presto_no_reorder;
  h.discovery = cfg_.discovery;
  h.measure_latency =
      (cfg_.scheme == Scheme::kCloveLatency) || cfg_.adaptive_flowlet_gap;
  h.tcp = cfg_.tcp;
  h.path_health = cfg_.path_health;
  return h;
}

Testbed::Testbed(const ExperimentConfig& cfg) : cfg_(cfg), sim_(cfg.seed) {
  topo_ = std::make_unique<net::Topology>(sim_);

  net::LeafSpineConfig topo_cfg = cfg_.topo;
  topo_cfg.ecn_threshold_pkts = cfg_.ecn_threshold_pkts;
  topo_cfg.int_telemetry = (cfg_.scheme == Scheme::kCloveInt);
  topo_cfg.conga_metric = (cfg_.scheme == Scheme::kConga);

  // Switch factory: CONGA / LetFlow replace the leaves; spines stay ECMP.
  std::function<std::unique_ptr<net::Switch>(net::NodeId, std::string, int)>
      make_switch;
  if (cfg_.scheme == Scheme::kConga) {
    make_switch = [this](net::NodeId id, std::string name, int leaf_idx)
        -> std::unique_ptr<net::Switch> {
      if (leaf_idx >= 0) {
        net::CongaConfig cc;
        cc.flowlet_gap = cfg_.flowlet_gap;
        return std::make_unique<net::CongaLeafSwitch>(sim_, id, std::move(name),
                                                      cc);
      }
      return std::make_unique<net::Switch>(sim_, id, std::move(name));
    };
  } else if (cfg_.scheme == Scheme::kLetFlow) {
    make_switch = [this](net::NodeId id, std::string name, int leaf_idx)
        -> std::unique_ptr<net::Switch> {
      if (leaf_idx >= 0) {
        return std::make_unique<net::LetFlowSwitch>(sim_, id, std::move(name),
                                                    cfg_.flowlet_gap);
      }
      return std::make_unique<net::Switch>(sim_, id, std::move(name));
    };
  }

  auto make_host = [this](net::Topology& topo, const std::string& name,
                          int /*leaf*/) -> net::Node* {
    return topo.add_host<overlay::Hypervisor>(name, sim_, make_hyp_config(),
                                              make_policy());
  };

  fabric_ = net::build_leaf_spine(*topo_, topo_cfg, make_host, make_switch);

  for (net::Node* h : fabric_.hosts_by_leaf[0]) {
    clients_.push_back(static_cast<overlay::Hypervisor*>(h));
  }
  for (net::Node* h : fabric_.hosts_by_leaf[1]) {
    servers_.push_back(static_cast<overlay::Hypervisor*>(h));
  }

  // CONGA leaves need the fabric map: uplink ports and host->leaf index.
  if (cfg_.scheme == Scheme::kConga) {
    std::unordered_map<net::IpAddr, int> host_leaf;
    for (std::size_t l = 0; l < fabric_.hosts_by_leaf.size(); ++l) {
      for (net::Node* h : fabric_.hosts_by_leaf[l]) {
        host_leaf[h->ip()] = static_cast<int>(l);
      }
    }
    for (std::size_t l = 0; l < fabric_.leaves.size(); ++l) {
      auto* leaf = dynamic_cast<net::CongaLeafSwitch*>(fabric_.leaves[l]);
      if (leaf == nullptr) continue;
      std::vector<int> uplinks;
      for (int p = 0; p < leaf->port_count(); ++p) {
        const net::Node* peer = leaf->port(p)->dst();
        for (const net::Switch* spine : fabric_.spines) {
          if (peer == spine) {
            uplinks.push_back(p);
            break;
          }
        }
      }
      leaf->configure_fabric(static_cast<int>(l), std::move(uplinks),
                             host_leaf);
    }
  }

  if (cfg_.scheme == Scheme::kPresto && cfg_.asymmetric) {
    // §5.2: Presto gets "the benefit of doubt" — ideal static weights
    // reflecting the failed S2-L2 link (S2 paths carry half of S1 paths,
    // i.e. 1/3,1/3,1/6,1/6 over the four paths).
    const net::IpAddr s2 =
        fabric_.spines.size() > 1 ? fabric_.spines[1]->ip() : net::kIpNone;
    auto weight_fn = [s2](const overlay::PathInfo& path) {
      for (const overlay::PathHop& hop : path.hops) {
        if (hop.node == s2) return 1.0;
      }
      return 2.0;
    };
    for (net::Node* h : topo_->hosts()) {
      auto* hyp = static_cast<overlay::Hypervisor*>(h);
      if (auto* presto = dynamic_cast<lb::PrestoPolicy*>(&hyp->policy())) {
        presto->set_weight_fn(weight_fn);
      }
    }
  }

  // While the flight recorder is on, watch every fabric link's utilization
  // and queue depth so runs can be explained after the fact (the recorder's
  // journeys say *where* packets went; these series say *why* — which egress
  // queues were hot when the policy moved flowlets).
  if (telemetry::flight_active()) {
    flight_watch_ = std::make_unique<stats::TimeSeriesSet>(sim_);
    const sim::Time interval = 1 * sim::kMillisecond;
    // Parallel links between the same pair share a display name, so suffix
    // the parallel index to keep CSV columns distinct.
    auto watch = [&](net::Link* l, std::size_t k) {
      if (l == nullptr) return;
      std::string tag = l->name();
      if (cfg_.topo.links_per_pair > 1) {
        tag += '#';
        tag += std::to_string(k);
      }
      flight_watch_->add("util:" + tag, [l] { return l->utilization(); },
                         interval);
      flight_watch_->add(
          "queue:" + tag,
          [l] { return static_cast<double>(l->queue_bytes()); }, interval);
    };
    for (auto& leaf_links : fabric_.fabric_links) {
      for (auto& spine_links : leaf_links) {
        for (std::size_t k = 0; k < spine_links.size(); ++k) {
          watch(spine_links[k], k);                    // leaf -> spine
          watch(topo_->reverse_of(spine_links[k]), k); // spine -> leaf
        }
      }
    }
    flight_watch_->start_all();
  }

  if (cfg_.asymmetric) fail_s2_l2_link();

  // Arm the fault plan now that every link and host exists. Events in the
  // past fire immediately.
  if (!cfg_.fault_plan.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(*topo_, cfg_.fault_plan);
    injector_->arm();
  }

  // Hybrid flow/packet engine (DESIGN.md §12): register every link so traced
  // elephant paths resolve, and attach every hypervisor so its senders become
  // promotion candidates and Clove degrade feedback demotes riders. When the
  // knob is off (the default) nothing is constructed and the simulation is
  // bit-identical to the packet-exact datapath.
  if (cfg_.hybrid.enabled) {
    hybrid_ = std::make_unique<hybrid::Engine>(sim_, cfg_.hybrid);
    for (const auto& l : topo_->links()) hybrid_->add_link(l.get());
    for (net::Node* h : topo_->hosts()) {
      static_cast<overlay::Hypervisor*>(h)->set_hybrid(hybrid_.get());
    }
  }
}

void Testbed::start_discovery() {
  std::vector<net::IpAddr> server_ips;
  std::vector<net::IpAddr> client_ips;
  for (auto* s : servers_) server_ips.push_back(s->ip());
  for (auto* c : clients_) client_ips.push_back(c->ip());
  for (auto* c : clients_) {
    if (c->policy().needs_discovery()) c->start_discovery(server_ips);
  }
  for (auto* s : servers_) {
    if (s->policy().needs_discovery()) s->start_discovery(client_ips);
  }
}

void Testbed::fail_s2_l2_link() {
  // Spine S2 (index 1) to leaf L2 (index 1), first parallel link — the
  // failure the paper injects for every asymmetric experiment.
  net::Link* l = fabric_.fabric_links[1][1][0];
  if (!l->is_down()) topo_->fail_connection(l);
}

void Testbed::restore_s2_l2_link() {
  net::Link* l = fabric_.fabric_links[1][1][0];
  if (l->is_down()) topo_->restore_connection(l);
}

std::uint64_t Testbed::total_drops() const {
  std::uint64_t n = 0;
  for (const auto& l : topo_->links()) n += l->stats().drops_overflow;
  return n;
}

std::uint64_t Testbed::total_ecn_marks() const {
  std::uint64_t n = 0;
  for (const auto& l : topo_->links()) n += l->stats().ecn_marks;
  return n;
}

// ---------------------------------------------------------------------------
// One-call experiment runners
// ---------------------------------------------------------------------------

ExperimentResult run_fct_experiment(const ExperimentConfig& cfg,
                                    const workload::ClientServerConfig& wl_in) {
  // Scope the metrics and flight recorder to this run so snapshots are per-run
  // counters, not process-lifetime accumulations.
  telemetry::current_scope().begin_run();
  Testbed tb(cfg);
  tb.start_discovery();

  workload::ClientServerConfig wl = wl_in;
  wl.tcp = cfg.tcp;
  wl.mptcp = cfg.mptcp;
  wl.use_mptcp = (cfg.scheme == Scheme::kMptcp);
  wl.start_time = cfg.traffic_start;
  wl.seed = wl_in.seed == 42 ? cfg.seed * 977 + 3 : wl_in.seed;
  // Offered load is relative to the deliverable bisection: the fabric cut or
  // the clients' aggregate access bandwidth, whichever is smaller (equal, at
  // 160G, in the paper's topology).
  const double fabric_bisection =
      sim::gbps_to_bytes_per_sec(cfg.topo.fabric_gbps) * cfg.topo.n_spines *
      cfg.topo.links_per_pair;
  const double access_total =
      sim::gbps_to_bytes_per_sec(cfg.topo.host_gbps) * cfg.topo.hosts_per_leaf;
  wl.bisection_bytes_per_sec = std::min(fabric_bisection, access_total);

  workload::ClientServerWorkload ws(tb.simulator(), wl, tb.clients(),
                                    tb.servers());
  ExperimentResult r;
  ws.on_job = [&r](std::uint64_t size, sim::Time arrival, sim::Time finished) {
    if (size < stats::FctRecorder::kMiceMaxBytes) {
      r.mice.push_back({arrival, finished - arrival});
    }
  };
  bool done = false;
  ws.start([&] {
    done = true;
    tb.simulator().stop();
  });
  tb.simulator().run(cfg.max_sim_time);
  (void)done;

  r.jobs = ws.jobs_done();
  r.avg_fct_s = ws.fct().all().mean();
  r.mice_avg_fct_s = ws.fct().mice().mean();
  r.elephant_avg_fct_s = ws.fct().elephants().mean();
  r.p99_fct_s = ws.fct().all().percentile(99);
  r.mice_p99_fct_s = ws.fct().mice().percentile(99);
  const auto t = ws.transport_totals();
  r.timeouts = t.timeouts;
  r.fast_retransmits = t.fast_retransmits;
  r.ecn_marks = tb.total_ecn_marks();
  r.drops = tb.total_drops();
  r.events = tb.simulator().events_processed();
  r.queue_hwm = tb.simulator().queue_high_water();
  r.fct = std::make_shared<stats::FctRecorder>(std::move(ws.fct()));
  for (overlay::Hypervisor* c : tb.clients()) {
    if (const auto* ph = c->path_health()) {
      r.path_evictions += ph->stats().evictions;
      r.path_readmissions += ph->stats().readmissions;
    }
  }

  // Fold this run's engine gauges into the installed profiler (one cold pass
  // per experiment; the parallel runner later merges per-task profilers).
  if (auto* p = prof::active()) {
    p->note_simulator(tb.simulator().events_processed(),
                      tb.simulator().queue_high_water(),
                      tb.simulator().queue_slab_capacity());
    auto& pool = net::PacketPool::of(tb.simulator());
    p->note_pool(pool.allocated(), pool.reused());
    for (auto* h : tb.clients()) h->prof_note_tables(*p);
    for (auto* h : tb.servers()) h->prof_note_tables(*p);
  }

  if (telemetry::enabled()) {
    // The snapshot walks every registered metric cell: attribute it to the
    // telemetry scope so observability overhead shows up in the profile.
    CLOVE_PROF_SCOPE(prof::kTelemetry);
    r.metrics = telemetry::current_scope().metrics().snapshot();
  }
  if (auto* fr = telemetry::flight()) {
    // Summarize (this runs the conservation audit) and, when the artifact
    // sink is on, dump the raw provenance next to the bench JSON so
    // scripts/trace_summarize.py can explain the run.
    CLOVE_PROF_SCOPE(prof::kFlight);
    r.flight = fr->summary(tb.simulator().now());
    const std::string& dir = cfg.artifact_dir;
    if (!dir.empty()) {
      const std::string tag = scheme_name(cfg.scheme);
      telemetry::Json doc = r.flight.to_json();
      doc.set("scheme", telemetry::Json(tag));
      telemetry::Json path_names = telemetry::Json::object();
      for (const telemetry::PathUsage& pu : r.flight.paths) {
        path_names.set(std::to_string(pu.via),
                       telemetry::Json(fr->node_name(pu.via)));
      }
      doc.set("node_names", std::move(path_names));
      telemetry::write_json_artifact(dir, "FLIGHT_" + tag, doc);
      telemetry::write_text_artifact(dir, "flight_" + tag + "_journeys.jsonl",
                                     fr->journeys_jsonl());
      telemetry::write_text_artifact(dir, "flight_" + tag + "_flows.jsonl",
                                     fr->flows_jsonl());
      if (tb.flight_watch() != nullptr) {
        telemetry::write_text_artifact(dir, "flight_" + tag + "_timeseries.csv",
                                       tb.flight_watch()->to_csv());
      }
    }
  }
  return r;
}

ExperimentResult run_incast_experiment(const ExperimentConfig& cfg,
                                       const workload::IncastConfig& wl_in) {
  telemetry::current_scope().begin_run();
  Testbed tb(cfg);
  tb.start_discovery();

  workload::IncastConfig wl = wl_in;
  wl.tcp = cfg.tcp;
  wl.mptcp = cfg.mptcp;
  wl.use_mptcp = (cfg.scheme == Scheme::kMptcp);
  wl.start_time = cfg.traffic_start;

  // One client on leaf 1; responders are the leaf-2 servers.
  workload::IncastWorkload incast(tb.simulator(), wl, tb.clients()[0],
                                  tb.servers());
  incast.start([&] { tb.simulator().stop(); });
  tb.simulator().run(cfg.max_sim_time);
  ExperimentResult r;
  r.goodput_gbps = incast.goodput_gbps();
  r.events = tb.simulator().events_processed();
  r.queue_hwm = tb.simulator().queue_high_water();
  return r;
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

ExperimentConfig make_testbed_profile() {
  ExperimentConfig cfg;
  cfg.tcp.min_rto = 200 * sim::kMillisecond;  // stock Linux
  cfg.tcp.ecn = true;  // standard-but-unmodified stack; see DESIGN.md
  return cfg;
}

ExperimentConfig make_ns2_profile() {
  ExperimentConfig cfg;
  cfg.tcp.min_rto = 5 * sim::kMillisecond;  // simulation profile (§6)
  cfg.tcp.ecn = true;
  return cfg;
}

}  // namespace clove::harness
