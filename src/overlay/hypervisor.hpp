#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "hybrid/hybrid.hpp"
#include "lb/policy.hpp"
#include "net/node.hpp"
#include "overlay/path_health.hpp"
#include "overlay/reorder_buffer.hpp"
#include "overlay/traceroute.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "transport/tcp.hpp"
#include "util/flat_map.hpp"

namespace clove::overlay {

/// Knobs of the hypervisor vswitch datapath.
struct HypervisorConfig {
  /// Overlay (STT encapsulation) vs non-overlay (§7 five-tuple rewriting).
  bool overlay{true};
  /// Receiver-side feedback relay cadence per path ("half the RTT" in §3.2).
  sim::Time feedback_relay_interval{50 * sim::kMicrosecond};
  /// Enable receiver-side reassembly (Presto; §7 flowlet optimization).
  bool reorder_buffer{false};
  ReorderConfig reorder{};
  /// Path discovery settings (used when the policy needs_discovery()).
  TracerouteConfig discovery{};
  /// Source-side path-health monitoring (keepalives, staleness eviction).
  PathHealthConfig path_health{};
  /// Measure one-way delay and relay it (Clove-Latency extension, §7).
  bool measure_latency{false};
  /// TCP config used for auto-created receivers.
  transport::TcpConfig tcp{};
};

/// Datapath counters of one hypervisor vswitch.
struct HypervisorStats {
  std::uint64_t encapped{0};
  std::uint64_t decapped{0};
  std::uint64_t feedback_attached{0};
  std::uint64_t feedback_received{0};
  std::uint64_t ce_intercepted{0};   ///< outer CE marks masked from the VM
  std::uint64_t forged_ece{0};       ///< ECN relayed into the VM (§3.2)
  std::uint64_t dest_probe_replies{0};
  std::uint64_t local_deliveries{0};
  std::uint64_t no_endpoint_drops{0};
  std::uint64_t feedback_lost_fault{0};     ///< injected feedback losses
  std::uint64_t feedback_delayed_fault{0};  ///< injected feedback delays
};

/// A hypervisor host: the tenant-VM TCP endpoints above, the physical NIC
/// below, and in between the Clove virtual switch — encapsulation with
/// policy-chosen source ports, flowlet routing (inside the policy), ECN/INT
/// feedback interception and relay via STT-context bits, ECN masking, path
/// discovery probes, and (optionally) Presto flowcell reassembly.
class Hypervisor : public net::Node,
                   public transport::VmPort,
                   public hybrid::HostAdapter {
 public:
  Hypervisor(net::NodeId id, std::string name, sim::Simulator& sim,
             HypervisorConfig cfg, std::unique_ptr<lb::Policy> policy);

  // --- transport::VmPort (VM-facing side) ------------------------------
  void vm_send(net::PacketPtr pkt) override;
  sim::Simulator& simulator() override { return sim_; }

  // --- net::Node (NIC-facing side) --------------------------------------
  void receive(net::PacketPtr pkt, int in_port) override;

  // --- endpoint registry -------------------------------------------------
  /// Register a locally-owned endpoint (a sender created by a workload app).
  /// Keyed by the endpoint's own outbound tuple.
  void register_endpoint(const net::FiveTuple& tuple,
                         transport::TcpEndpoint* ep);
  /// Fired when an inbound flow auto-creates a receiver (so apps can attach
  /// delivery callbacks, e.g. incast servers).
  std::function<void(transport::TcpReceiver&, const net::FiveTuple& from)>
      on_new_receiver;

  // --- path discovery ----------------------------------------------------
  /// Start (periodic) path discovery towards the given peer hypervisors.
  void start_discovery(const std::vector<net::IpAddr>& peers);
  [[nodiscard]] TracerouteDaemon& discovery() { return *traceroute_; }

  [[nodiscard]] lb::Policy& policy() { return *policy_; }
  [[nodiscard]] const HypervisorStats& stats() const { return stats_; }
  [[nodiscard]] const HypervisorConfig& config() const { return cfg_; }
  /// Path-health monitor; null unless config().path_health.enabled.
  [[nodiscard]] PathHealthMonitor* path_health() { return path_health_.get(); }

  // --- engine profiler (clove::prof) -------------------------------------
  /// Fold this vswitch's open-addressing tables — endpoint demux, pending
  /// feedback, and the policy's flowlet table — into `p` (occupancy and
  /// probe-length digests). Cold path: called once at end of run.
  void prof_note_tables(prof::Profiler& p) const;

  // --- hybrid flow/packet engine (clove::hybrid) --------------------------
  /// Attach the hybrid engine: locally-registered plain senders become
  /// promotion candidates (reassembly schemes excluded — the reorder buffer
  /// needs the real segment sequence), and Clove weight-degrade feedback is
  /// relayed into the engine as a demotion trigger.
  void set_hybrid(hybrid::Engine* engine);
  [[nodiscard]] hybrid::Engine* hybrid_engine() const { return hybrid_; }

  // hybrid::HostAdapter (destination-side promotion support)
  [[nodiscard]] transport::TcpEndpoint* hybrid_find_endpoint(
      const net::FiveTuple& key) override {
    auto* ep = endpoints_.find(key);
    return ep != nullptr ? *ep : nullptr;
  }
  [[nodiscard]] bool hybrid_requires_reassembly() const override {
    return reorder_ != nullptr || policy_->requires_reassembly();
  }
  [[nodiscard]] net::IpAddr hybrid_ip() const override { return id(); }

  // --- fault-injection hooks (clove::fault) ------------------------------
  /// Drop each arriving feedback relay with probability `p` before the
  /// policy sees it (models a lossy/filtered reverse channel).
  void set_feedback_loss(double p, std::uint64_t seed);
  /// Defer arriving feedback by `delay` before the policy sees it.
  void set_feedback_delay(sim::Time delay) { fb_delay_ = delay; }

 private:
  /// Pending feedback accumulated for one (peer, forward source port).
  struct PendingFeedback {
    bool ecn_pending{false};
    bool has_util{false};
    double util{0.0};
    bool has_latency{false};
    sim::Time latency{0};
    sim::Time last_relayed{-1};
  };
  struct PeerFeedback {
    util::FlatMap<std::uint16_t, PendingFeedback> ports;
    std::vector<std::uint16_t> rr_order;  ///< round-robin relay order
    std::size_t rr_next{0};
  };

  void nic_send(net::PacketPtr pkt);
  void nic_send(std::shared_ptr<const net::PacketRecipe> run);
  void nic_send(const net::ProbeReply& reply);
  void handle_probe(const net::Packet& probe);
  void handle_probe_reply(const net::Packet& pkt);
  void handle_data(net::PacketPtr pkt);
  void deliver_to_vm(net::PacketPtr pkt);
  void attach_feedback(net::IpAddr peer, net::Packet& pkt);
  void note_feedback(net::IpAddr peer, std::uint16_t port,
                     const std::function<void(PendingFeedback&)>& update);
  /// Route an arriving feedback relay through the (possibly faulted)
  /// delivery path to the policy + path-health monitor.
  void deliver_feedback(net::IpAddr peer, const net::CloveFeedback& fb);
  void apply_feedback(net::IpAddr peer, const net::CloveFeedback& fb);

  sim::Simulator& sim_;
  HypervisorConfig cfg_;
  std::unique_ptr<lb::Policy> policy_;
  std::unique_ptr<TracerouteDaemon> traceroute_;
  std::unique_ptr<ReorderBuffer> reorder_;
  std::unique_ptr<PathHealthMonitor> path_health_;
  hybrid::Engine* hybrid_{nullptr};
  double fb_loss_{0.0};       ///< injected feedback-loss probability
  sim::Time fb_delay_{0};     ///< injected feedback delivery delay
  sim::Rng fb_rng_{0};        ///< reseeded by set_feedback_loss

  // Per-delivered-packet endpoint demux and per-ingress-packet feedback
  // state live on open-addressing maps: one probe, no node allocations.
  struct TupleHasher {
    std::uint64_t operator()(const net::FiveTuple& t) const noexcept {
      return net::tuple_prehash(t);
    }
  };
  util::FlatMap<net::FiveTuple, transport::TcpEndpoint*, TupleHasher>
      endpoints_;
  std::vector<std::unique_ptr<transport::TcpReceiver>> owned_receivers_;
  util::FlatMap<net::IpAddr, PeerFeedback> pending_fb_;

  HypervisorStats stats_;

  struct Cells {
    telemetry::Counter* encapped;
    telemetry::Counter* decapped;
    telemetry::Counter* ce_intercepted;
    telemetry::Counter* feedback_attached;
    telemetry::Counter* feedback_received;
    telemetry::Counter* forged_ece;
  };
  Cells cells_;
};

}  // namespace clove::overlay
