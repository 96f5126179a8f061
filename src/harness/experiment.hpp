#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "hybrid/hybrid.hpp"
#include "net/topology.hpp"
#include "overlay/hypervisor.hpp"
#include "stats/stats.hpp"
#include "stats/timeseries.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "transport/tcp.hpp"
#include "workload/client_server.hpp"

namespace clove::harness {

/// Every load-balancing scheme the paper evaluates, plus the extensions.
enum class Scheme {
  kEcmp,
  kEdgeFlowlet,
  kCloveEcn,
  kCloveInt,
  kCloveLatency,  ///< §7 extension
  kPresto,
  kMptcp,
  kConga,    ///< in-switch comparator (simulation, §6)
  kLetFlow,  ///< in-switch flowlet ablation (§8)
};

[[nodiscard]] std::string scheme_name(Scheme s);
[[nodiscard]] bool scheme_is_edge_based(Scheme s);

/// One experiment = one topology + one scheme + one workload + one seed.
struct ExperimentConfig {
  Scheme scheme{Scheme::kCloveEcn};
  bool asymmetric{false};  ///< fail one S2-L2 link (§5.2/§6.2)
  std::uint64_t seed{1};

  net::LeafSpineConfig topo{};

  // Clove parameters (§3.2/§4; swept by Fig. 6 and the A2 ablation).
  sim::Time flowlet_gap{100 * sim::kMicrosecond};
  std::int64_t ecn_threshold_pkts{20};
  sim::Time feedback_relay_interval{50 * sim::kMicrosecond};
  double clove_reduce_factor{1.0 / 3.0};
  sim::Time clove_congestion_expiry{1500 * sim::kMicrosecond};
  sim::Time clove_recovery_interval{10 * sim::kMillisecond};
  double clove_recovery_rate{0.005};
  /// §7 "Flowlet optimization": adapt Clove-ECN's flowlet gap to the
  /// observed per-path delay spread (enables latency measurement/relay).
  bool adaptive_flowlet_gap{false};
  /// Run Clove in the §7 non-overlay (five-tuple rewriting) mode.
  bool non_overlay{false};
  /// Disable Presto's receiver-side flowcell reassembly buffer. Presto is
  /// broken without it (the VM sees raw flowcell interleaving); the knob
  /// exists so the flight recorder's no-reorder auditor can demonstrate
  /// exactly that (the negative test in test_flight_recorder.cpp).
  bool presto_no_reorder{false};

  // Guest transport. min RTO defaults to the "testbed" profile; the Fig. 8
  // NS2-style benches lower it (see make_ns2_profile()).
  transport::TcpConfig tcp{};
  transport::MptcpConfig mptcp{};

  // Discovery runs before traffic starts.
  overlay::TracerouteConfig discovery{};
  sim::Time traffic_start{30 * sim::kMillisecond};
  sim::Time max_sim_time{600 * sim::kSecond};

  /// Scheduled fault events (DESIGN.md §8). When empty, the Testbed falls
  /// back to CLOVE_FAULT_PLAN from the environment; when that is unset too,
  /// no injector is armed.
  fault::FaultPlan fault_plan{};
  /// Source-side path-health monitoring (keepalives, eviction, re-probe).
  /// Off by default: the symmetric experiments don't need it and it adds
  /// timer events to every run.
  overlay::PathHealthConfig path_health{};

  /// Hybrid flow/packet engine (DESIGN.md §12). Defaults to the CLOVE_HYBRID
  /// environment (off unless CLOVE_HYBRID=on), so existing entry points are
  /// bit-identical to the packet-exact simulator.
  hybrid::HybridConfig hybrid{hybrid::HybridConfig::from_env()};
};

/// One mouse (flow < 100 KB) of an FCT run: when it arrived and how long it
/// took to complete.
struct MouseFct {
  sim::Time arrival{0};
  sim::Time fct{0};
};

/// Shared result shape for the FCT and incast experiments.
struct ExperimentResult {
  double avg_fct_s{0.0};
  double mice_avg_fct_s{0.0};
  double elephant_avg_fct_s{0.0};
  double p99_fct_s{0.0};
  double mice_p99_fct_s{0.0};
  std::uint64_t jobs{0};
  std::uint64_t timeouts{0};
  std::uint64_t fast_retransmits{0};
  std::uint64_t ecn_marks{0};
  std::uint64_t drops{0};
  std::uint64_t events{0};
  /// Most events simultaneously pending in the simulator's queue — the
  /// engine's memory-pressure gauge, fed to clove::prof and bench artifacts.
  std::uint64_t queue_hwm{0};
  /// Incast client goodput in Gb/s (run_incast_experiment only).
  double goodput_gbps{0.0};
  /// This run's per-flow FCT samples, for percentiles and CDFs (Fig. 9).
  std::shared_ptr<stats::FctRecorder> fct;
  /// Every mouse in completion order (run_fct_experiment only), so fault
  /// runs can bucket FCTs by arrival time.
  std::vector<MouseFct> mice;
  /// Path-health evictions and readmissions summed over the clients (0
  /// unless cfg.path_health is on).
  std::uint64_t path_evictions{0};
  std::uint64_t path_readmissions{0};
  /// Telemetry registry snapshot taken at run end (empty values when
  /// telemetry is disabled; see CLOVE_TELEMETRY).
  telemetry::MetricsSnapshot metrics;
  /// Flight-recorder digest (mode kOff when CLOVE_FLIGHT_RECORDER is unset):
  /// journey/provenance counts, per-path usage, audit verdicts.
  telemetry::FlightSummary flight;
};

/// A fully-built testbed ready to run: topology, hosts, workload hooks.
/// Exposed so examples/tests can compose custom scenarios; the one-call
/// entry points below cover the paper's experiments.
class Testbed {
 public:
  Testbed(const ExperimentConfig& cfg);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Topology& topology() { return *topo_; }
  [[nodiscard]] net::LeafSpine& fabric() { return fabric_; }
  [[nodiscard]] std::vector<overlay::Hypervisor*>& clients() { return clients_; }
  [[nodiscard]] std::vector<overlay::Hypervisor*>& servers() { return servers_; }
  [[nodiscard]] const ExperimentConfig& config() const { return cfg_; }

  /// Kick off path discovery between all client/server pairs (no-op for
  /// schemes that do not need it).
  void start_discovery();

  /// Fail the S2-L2 link the paper disables (idempotent).
  void fail_s2_l2_link();
  void restore_s2_l2_link();

  /// Sum of drops / ECN marks over all links.
  [[nodiscard]] std::uint64_t total_drops() const;
  [[nodiscard]] std::uint64_t total_ecn_marks() const;

  /// Per-fabric-link utilization and queue-depth time series, sampled while
  /// the flight recorder is active (null otherwise). Series are named
  /// "util:<link>" and "queue:<link>"; exported as flight_*_timeseries.csv.
  [[nodiscard]] stats::TimeSeriesSet* flight_watch() {
    return flight_watch_.get();
  }

  /// The armed fault injector, or null when the effective plan was empty.
  [[nodiscard]] fault::FaultInjector* fault_injector() {
    return injector_.get();
  }

  /// The hybrid flow/packet engine, or null when cfg.hybrid.enabled is off.
  [[nodiscard]] hybrid::Engine* hybrid() { return hybrid_.get(); }

 private:
  std::unique_ptr<lb::Policy> make_policy();
  overlay::HypervisorConfig make_hyp_config();

  ExperimentConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topo_;
  net::LeafSpine fabric_;
  std::vector<overlay::Hypervisor*> clients_;
  std::vector<overlay::Hypervisor*> servers_;
  std::unique_ptr<stats::TimeSeriesSet> flight_watch_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<hybrid::Engine> hybrid_;
};

/// Run the §5/§6 client-server FCT workload for one (scheme, load) point.
ExperimentResult run_fct_experiment(const ExperimentConfig& cfg,
                                    const workload::ClientServerConfig& wl);

/// Run the §5.3 incast workload. Fills goodput_gbps and the engine gauges
/// (events, queue_hwm); the FCT fields stay empty.
ExperimentResult run_incast_experiment(const ExperimentConfig& cfg,
                                       const workload::IncastConfig& wl);

/// Environment-based scale controls for the bench harness:
/// CLOVE_JOBS (jobs per connection), CLOVE_SEEDS (averaging runs),
/// CLOVE_CONNS (connections per client). Defaults keep the full bench suite
/// in the minutes range; paper-scale values reproduce §5 magnitudes.
struct BenchScale {
  int jobs_per_conn;
  int seeds;
  int conns_per_client;
  static BenchScale from_env();
};

/// The paper's two evaluation profiles.
ExperimentConfig make_testbed_profile();  ///< §5: Linux stacks, 200ms min RTO
ExperimentConfig make_ns2_profile();      ///< §6: simulation profile

}  // namespace clove::harness
