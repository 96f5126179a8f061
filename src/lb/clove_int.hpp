#pragma once

#include <unordered_map>
#include <vector>

#include "lb/policy.hpp"
#include "overlay/flowlet.hpp"
#include "sim/random.hpp"

namespace clove::lb {

struct CloveIntConfig {
  sim::Time flowlet_gap{100 * sim::kMicrosecond};
  /// EWMA factor for smoothing the relayed max-path-utilization samples.
  double util_ewma{0.5};
  /// Samples older than this are treated as "unknown" (utilization 0), so a
  /// path that stopped carrying traffic becomes attractive again.
  sim::Time util_expiry{1 * sim::kMillisecond};
};

/// Clove-INT (§3.2): the fabric inserts per-hop egress utilization via INT;
/// the destination hypervisor relays max-path utilization back, and the
/// source proactively routes each new flowlet on the least-utilized path —
/// utilization-aware rather than merely congestion-aware, closing most of
/// the remaining gap to CONGA (§6.2).
class CloveIntPolicy : public Policy {
 public:
  explicit CloveIntPolicy(const CloveIntConfig& cfg = {},
                          std::uint64_t seed = 0x117e)
      : cfg_(cfg), flowlets_(cfg.flowlet_gap), rng_(seed) {}

  using Policy::pick_port;

  std::uint16_t pick_port(const net::Packet& inner, net::IpAddr dst,
                          sim::Time now, PickInfo* info) override {
    auto t = flowlets_.touch(inner.inner, now);
    if (info != nullptr) {
      info->new_flowlet = t.new_flowlet;
      info->flowlet_id = t.flowlet_id;
    }
    auto it = dsts_.find(dst);
    if (it == dsts_.end() || it->second.paths.empty()) {
      if (info != nullptr) info->reason = "flowlet-hash";
      if (!t.new_flowlet) return t.port;
      const std::uint16_t port = static_cast<std::uint16_t>(
          overlay::kEphemeralBase +
          net::hash_tuple(inner.inner, 0x117u ^ t.flowlet_id) %
              overlay::kEphemeralCount);
      t.set_port(port);
      return port;
    }
    DstState& st = it->second;
    if (info != nullptr) {
      info->reason = "least-util";
      info->n_paths = static_cast<std::uint16_t>(st.paths.size());
    }
    if (!t.new_flowlet) {
      for (const auto& p : st.paths) {
        if (p.info.port == t.port) {
          if (info != nullptr) info->metric = effective_util(p, now);
          return t.port;
        }
      }
    }
    // Least utilized path; ties broken uniformly at random.
    double best = 1e300;
    std::size_t chosen = 0;
    int n_best = 0;
    for (std::size_t i = 0; i < st.paths.size(); ++i) {
      const double u = effective_util(st.paths[i], now);
      if (u < best - 1e-9) {
        best = u;
        chosen = i;
        n_best = 1;
      } else if (u <= best + 1e-9) {
        ++n_best;
        if (rng_.uniform_int(static_cast<std::uint64_t>(n_best)) == 0) chosen = i;
      }
    }
    const std::uint16_t port = st.paths[chosen].info.port;
    t.set_port(port);
    if (info != nullptr) info->metric = effective_util(st.paths[chosen], now);
    return port;
  }

  void on_paths_updated(net::IpAddr dst, const overlay::PathSet& paths) override {
    remap_paths(dsts_[dst].paths, paths);
  }

  void on_feedback(net::IpAddr dst, const net::CloveFeedback& fb,
                   sim::Time now) override {
    if (!fb.present || !fb.has_util) return;
    auto it = dsts_.find(dst);
    if (it == dsts_.end()) return;
    for (auto& p : it->second.paths) {
      if (p.info.port == fb.port) {
        p.util = p.util_updated < 0
                     ? fb.util
                     : cfg_.util_ewma * fb.util + (1.0 - cfg_.util_ewma) * p.util;
        p.util_updated = now;
        return;
      }
    }
  }

  [[nodiscard]] bool wants_ect() const override { return true; }
  [[nodiscard]] bool wants_int() const override { return true; }
  [[nodiscard]] bool needs_discovery() const override { return true; }
  [[nodiscard]] std::string name() const override { return "clove-int"; }
  [[nodiscard]] overlay::FlowletTracker* flowlet_tracker() override {
    return &flowlets_;
  }

  [[nodiscard]] std::vector<double> utilizations(net::IpAddr dst,
                                                 sim::Time now) const {
    std::vector<double> out;
    auto it = dsts_.find(dst);
    if (it == dsts_.end()) return out;
    for (const auto& p : it->second.paths) out.push_back(effective_util(p, now));
    return out;
  }

 private:
  struct PathState {
    overlay::PathInfo info;
    double util{0.0};
    sim::Time util_updated{-1};
  };
  struct DstState {
    std::vector<PathState> paths;
  };

  [[nodiscard]] double effective_util(const PathState& p, sim::Time now) const {
    if (p.util_updated < 0 || now - p.util_updated > cfg_.util_expiry) return 0.0;
    return p.util;
  }

  CloveIntConfig cfg_;
  overlay::FlowletTracker flowlets_;
  sim::Rng rng_;
  std::unordered_map<net::IpAddr, DstState> dsts_;
};

}  // namespace clove::lb
