#pragma once

#include <unordered_map>
#include <vector>

#include "lb/policy.hpp"
#include "overlay/flowlet.hpp"
#include "sim/random.hpp"

namespace clove::lb {

/// Tuning knobs of the Clove weight-adaptation loop (§3.2, §4, Fig. 6).
struct CloveEcnConfig {
  sim::Time flowlet_gap{100 * sim::kMicrosecond};  ///< ~1-2x RTT recommended
  /// Fraction of a congested path's weight removed per ECN feedback
  /// ("e.g., by a third").
  double reduce_factor{1.0 / 3.0};
  /// Paths never drop below this weight, so they keep being probed lightly.
  double min_weight{0.01};
  /// How long a path is considered "congested" after ECN feedback (used for
  /// spreading weight to *uncongested* paths and for the all-congested test).
  sim::Time congestion_expiry{1500 * sim::kMicrosecond};
  /// Unspecified in the paper: weights drift slowly back toward uniform so a
  /// path that stopped being congested can regain share even without traffic.
  sim::Time recovery_interval{10 * sim::kMillisecond};
  double recovery_rate{0.005};
  /// §7 "Flowlet optimization": adapt the flowlet gap per destination to the
  /// observed one-way-delay spread between its paths, reducing the chance of
  /// out-of-order flowlet arrival. Requires the hypervisor to measure and
  /// relay per-path latency (HypervisorConfig::measure_latency).
  bool adaptive_gap{false};
  double adaptive_gap_factor{2.0};  ///< gap = base + factor * delay spread
};

/// Clove-ECN (§3.2): weighted-round-robin flowlet routing over the
/// discovered path set, with path weights continuously adapted from ECN
/// feedback relayed by the destination hypervisor. On feedback for path p:
/// w_p shrinks by reduce_factor and the removed mass is spread equally over
/// the currently-uncongested paths. While at least one path is uncongested,
/// ECN is masked from the VM (the vswitch consults all_paths_congested()).
class CloveEcnPolicy : public Policy {
 public:
  explicit CloveEcnPolicy(const CloveEcnConfig& cfg = {},
                          std::uint64_t seed = 0xC10Fe)
      : cfg_(cfg), flowlets_(cfg.flowlet_gap), rng_(seed) {}

  using Policy::pick_port;

  std::uint16_t pick_port(const net::Packet& inner, net::IpAddr dst,
                          sim::Time now, PickInfo* info) override;
  void on_paths_updated(net::IpAddr dst, const overlay::PathSet& paths) override;
  void on_feedback(net::IpAddr dst, const net::CloveFeedback& fb,
                   sim::Time now) override;
  void on_path_evicted(net::IpAddr dst, std::uint16_t port,
                       sim::Time now) override;

  [[nodiscard]] bool wants_ect() const override { return true; }
  [[nodiscard]] bool needs_discovery() const override { return true; }
  [[nodiscard]] bool all_paths_congested(net::IpAddr dst,
                                         sim::Time now) const override;
  [[nodiscard]] std::string name() const override { return "clove-ecn"; }
  [[nodiscard]] overlay::FlowletTracker* flowlet_tracker() override {
    return &flowlets_;
  }

  /// Current weight vector for a destination (tests / telemetry).
  [[nodiscard]] std::vector<double> weights(net::IpAddr dst) const;
  [[nodiscard]] const CloveEcnConfig& config() const { return cfg_; }

 private:
  struct PathState {
    overlay::PathInfo info;
    double weight{0.0};
    double wrr_credit{0.0};
    sim::Time congested_at{-1};
    sim::Time latency{-1};  ///< EWMA one-way delay (adaptive gap only)
  };
  struct DstState {
    std::vector<PathState> paths;
    sim::Time last_recovery{0};
  };

  [[nodiscard]] sim::Time gap_for(const DstState* st) const;
  void apply_recovery(DstState& st, sim::Time now);
  std::size_t wrr_pick(DstState& st);
  [[nodiscard]] bool is_congested(const PathState& p, sim::Time now) const {
    return p.congested_at >= 0 && now - p.congested_at <= cfg_.congestion_expiry;
  }
  /// Fallback port when no discovery results exist yet: flow hash.
  static std::uint16_t hash_port(const net::FiveTuple& t, std::uint32_t salt) {
    return static_cast<std::uint16_t>(
        overlay::kEphemeralBase +
        net::hash_tuple(t, 0xC10Eu ^ salt) % overlay::kEphemeralCount);
  }

  CloveEcnConfig cfg_;
  overlay::FlowletTracker flowlets_;
  sim::Rng rng_;
  std::unordered_map<net::IpAddr, DstState> dsts_;
};

}  // namespace clove::lb
