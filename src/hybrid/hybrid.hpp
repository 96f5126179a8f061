#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp.hpp"

namespace clove::hybrid {

/// Tuning knobs for the hybrid flow/packet engine. Defaults promote flows
/// that have ramped past slow start with a substantial remainder ahead of
/// them, and demote with enough tail left that the final RTTs — where loss
/// recovery and FCT tails live — run packet-exact.
struct HybridConfig {
  bool enabled{false};
  /// Bytes a flow must move under a clean ack clock (no SACK holes, no
  /// dupacks, no recovery) before it is a promotion candidate.
  std::uint64_t ramp_bytes{64 * 1024};
  /// Minimum unsent remainder for promotion to be worth a trace round-trip.
  std::uint64_t min_remaining{128 * 1024};
  /// Demote when this much of the stream is left, so the tail — and the
  /// completion dynamics that depend on it — is packet-exact.
  std::uint64_t tail_bytes{64 * 1024};
  /// Fluid rate re-solve cadence (packet background load drifts between
  /// exact boundary events).
  sim::Time solve_interval{500 * sim::kMicrosecond};
  /// Fraction of a link's effective rate fluid flows may claim; the rest is
  /// headroom for the packet-level traffic sharing the link.
  double max_share{0.95};
};

struct HybridStats {
  std::uint64_t promotions{0};
  std::uint64_t demotions_tail{0};      ///< stream remainder hit tail_bytes
  std::uint64_t demotions_loss{0};      ///< loss/ECN/eviction on the sender
  std::uint64_t demotions_link{0};      ///< link down/up/capacity change
  std::uint64_t demotions_degrade{0};   ///< Clove weight-degrade on the path
  std::uint64_t trace_requests{0};
  std::uint64_t trace_retries{0};       ///< trace packet lost; re-requested
  std::uint64_t trace_rejects{0};       ///< trace arrived but was unusable
  std::uint64_t solves{0};
  std::uint64_t fluid_bytes{0};         ///< bytes advanced fluidly
};

/// What the engine needs from a hypervisor without depending on
/// clove::overlay: endpoint lookup for receiver fast-forwarding, and the
/// reassembly property that disqualifies a host's flows from promotion
/// (Presto's reorder buffer needs the real segment sequence).
class HostAdapter {
 public:
  virtual ~HostAdapter() = default;
  [[nodiscard]] virtual transport::TcpEndpoint* hybrid_find_endpoint(
      const net::FiveTuple& key) = 0;
  [[nodiscard]] virtual bool hybrid_requires_reassembly() const = 0;
  [[nodiscard]] virtual net::IpAddr hybrid_ip() const = 0;
};

/// The hybrid flow/packet engine: promotes elephant middles from the
/// packet-level simulation to a fluid flow-level model and demotes them back
/// at every flowlet-relevant event, so path decisions, ECN marks, and
/// reorder costs stay packet-exact while steady-state elephants advance in
/// O(rate-change events).
///
/// Lifecycle of one elephant:
///  1. adopt() — its sender gets this engine as a SenderHook.
///  2. on_clean_ack ramps a byte counter; when the promotion predicate
///     holds, the sender flags its next data segment to capture the exact
///     links of the current flowlet (Packet::traced).
///  3. The destination hypervisor reports the trace at delivery
///     (on_trace); the engine suspends the sender, fast-forwards the
///     receiver, and registers a fluid flow on the traced links.
///  4. A max-min waterfill splits each link's residual capacity (line rate
///     minus measured packet load) among the fluid flows crossing it; the
///     totals are pushed back into the links as virtual load so
///     utilization/ECN/INT/CONGA signals — and the mice reacting to them —
///     keep seeing the elephants.
///  5. One timer advances all flows at exact completion-boundary crossings
///     and a periodic re-solve cadence. When a flow's remainder reaches
///     tail_bytes — or any loss, eviction, link, or Clove weight-degrade
///     event touches it — it demotes: the receiver syncs, the sender
///     resumes packet-level sending at cwnd = fluid_rate x srtt, and the
///     next real packets re-run the flowlet path decision.
///
/// Determinism: no RNG, no wall clock; flows advance in promotion order and
/// the solver's fixpoint is iteration-order independent, so runs with the
/// same seed reproduce bit-identically.
class Engine : public net::FluidObserver, public transport::SenderHook {
 public:
  Engine(sim::Simulator& sim, HybridConfig cfg);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a fabric link the fluid model may carry load on. Flows whose
  /// trace crosses an unregistered link are not promoted.
  void add_link(net::Link* link);

  /// Offer a sender for promotion tracking (called by the hypervisor when a
  /// plain TcpSender registers on a non-reassembly host).
  void adopt(transport::TcpSender* sender);

  /// A traced data segment reached `dst_host`: `inner` is its inner tuple,
  /// `trace` the links it serialized on, `encap_src_port` the overlay path
  /// port it rode (0 when not encapsulated).
  void on_trace(HostAdapter& dst_host, const net::FiveTuple& inner,
                const net::Packet::HybridTrace& trace,
                std::uint16_t encap_src_port);

  /// Clove's congestion feedback reduced the weight of `port` toward
  /// `dst_ip` at the hypervisor owning `src_ip`: the path under a promoted
  /// flow degraded, so the flow must come back to packet level and let the
  /// policy re-steer it.
  void on_port_degraded(net::IpAddr src_ip, net::IpAddr dst_ip,
                        std::uint16_t port);

  // net::FluidObserver — link down/up/capacity events demote riders.
  void on_link_changed(net::Link& link) override;

  // transport::SenderHook — the sender-side ack clock.
  void on_clean_ack(transport::TcpSender& s, std::uint64_t acked) override;
  void on_loss_event(transport::TcpSender& s) override;
  void on_sender_gone(transport::TcpSender& s) override;

  [[nodiscard]] const HybridStats& stats() const { return stats_; }
  [[nodiscard]] const HybridConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t promoted_count() const { return flows_.size(); }

  /// Test hooks: force a re-solve now / read a promoted sender's current
  /// fluid rate (0 when not promoted).
  void solve_now();
  [[nodiscard]] double flow_rate(const transport::TcpSender* s) const;

 private:
  struct Adopted {
    std::uint64_t clean_bytes{0};
    bool trace_pending{false};
    sim::Time trace_requested_at{0};
  };

  struct Flow {
    transport::TcpSender* sender;
    transport::TcpEndpoint* receiver;
    net::FiveTuple tuple;
    std::uint16_t encap_port;
    std::vector<net::Link*> links;
    double pos;        ///< fluid stream position (bytes)
    double rate{0.0};  ///< current solved fair-share rate (bytes/sec)
  };

  enum class DemoteReason { kTail, kLoss, kLink, kDegrade };

  void promote(transport::TcpSender& s, HostAdapter& dst_host,
               std::vector<net::Link*> links, std::uint16_t encap_port);
  /// Demote flows_[i]; assumes advance_all() already ran to `now`.
  void demote_at(std::size_t i, DemoteReason reason);
  void advance_all(sim::Time now);
  void solve();
  void reschedule();
  void on_tick();

  sim::Simulator& sim_;
  HybridConfig cfg_;
  sim::Timer timer_;
  /// Per-link solver state; accumulated in flow order, like the rates.
  struct LinkState {
    double capacity{0.0};
    double residual{0.0};
    int active{0};
    double alloc{0.0};
    bool used{false};  ///< some flow crosses the link in the current solve
  };

  std::vector<net::Link*> links_;        ///< by Link::id(); null if unknown
  std::vector<LinkState> link_state_;    ///< by Link::id()
  std::vector<net::Link*> solve_links_;  ///< scratch: links some flow crosses
  std::unordered_map<transport::TcpSender*, Adopted> adopted_;
  std::unordered_map<net::FiveTuple, transport::TcpSender*,
                     net::FiveTupleHash>
      pending_trace_;
  std::vector<std::unique_ptr<Flow>> flows_;  ///< promotion order
  std::vector<net::Link*> fluid_links_;  ///< links with nonzero fluid load
  sim::Time last_advance_{0};
  HybridStats stats_;
};

}  // namespace clove::hybrid
