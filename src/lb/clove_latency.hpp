#pragma once

#include <unordered_map>
#include <vector>

#include "lb/policy.hpp"
#include "overlay/flowlet.hpp"
#include "sim/random.hpp"

namespace clove::lb {

struct CloveLatencyConfig {
  sim::Time flowlet_gap{100 * sim::kMicrosecond};
  double latency_ewma{0.5};
  sim::Time latency_expiry{1 * sim::kMillisecond};
};

/// Clove-Latency (§7 "Use of path latency"): an extension the paper sketches
/// for fabrics without INT and with erratic ECN. NIC-level timestamping plus
/// synchronized clocks let the destination hypervisor measure each packet's
/// one-way delay; it relays the per-path latency back and the source routes
/// new flowlets on the lowest-latency path. In this simulator the clocks are
/// perfectly synchronized by construction (sent_at is stamped at encap).
class CloveLatencyPolicy : public Policy {
 public:
  explicit CloveLatencyPolicy(const CloveLatencyConfig& cfg = {},
                              std::uint64_t seed = 0x1a7e)
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
          net::hash_tuple(inner.inner, 0x1a7u ^ t.flowlet_id) %
              overlay::kEphemeralCount);
      t.set_port(port);
      return port;
    }
    DstState& st = it->second;
    if (info != nullptr) {
      info->reason = "least-latency";
      info->n_paths = static_cast<std::uint16_t>(st.paths.size());
    }
    if (!t.new_flowlet) {
      for (const auto& p : st.paths) {
        if (p.info.port == t.port) {
          if (info != nullptr) info->metric = effective_latency(p, now);
          return t.port;
        }
      }
    }
    double best = 1e300;
    std::size_t chosen = 0;
    int n_best = 0;
    for (std::size_t i = 0; i < st.paths.size(); ++i) {
      const double l = effective_latency(st.paths[i], now);
      if (l < best - 1e-9) {
        best = l;
        chosen = i;
        n_best = 1;
      } else if (l <= best + 1e-9) {
        ++n_best;
        if (rng_.uniform_int(static_cast<std::uint64_t>(n_best)) == 0) chosen = i;
      }
    }
    const std::uint16_t port = st.paths[chosen].info.port;
    t.set_port(port);
    if (info != nullptr) info->metric = effective_latency(st.paths[chosen], now);
    return port;
  }

  void on_paths_updated(net::IpAddr dst, const overlay::PathSet& paths) override {
    remap_paths(dsts_[dst].paths, paths);
  }

  void on_feedback(net::IpAddr dst, const net::CloveFeedback& fb,
                   sim::Time now) override {
    if (!fb.present || !fb.has_latency) return;
    auto it = dsts_.find(dst);
    if (it == dsts_.end()) return;
    for (auto& p : it->second.paths) {
      if (p.info.port == fb.port) {
        const double sample = sim::to_microseconds(fb.latency);
        p.latency_us = p.updated < 0 ? sample
                                     : cfg_.latency_ewma * sample +
                                           (1.0 - cfg_.latency_ewma) * p.latency_us;
        p.updated = now;
        return;
      }
    }
  }

  [[nodiscard]] bool needs_discovery() const override { return true; }
  [[nodiscard]] std::string name() const override { return "clove-latency"; }
  [[nodiscard]] overlay::FlowletTracker* flowlet_tracker() override {
    return &flowlets_;
  }

 private:
  struct PathState {
    overlay::PathInfo info;
    double latency_us{0.0};
    sim::Time updated{-1};
  };
  struct DstState {
    std::vector<PathState> paths;
  };

  [[nodiscard]] double effective_latency(const PathState& p, sim::Time now) const {
    if (p.updated < 0 || now - p.updated > cfg_.latency_expiry) return 0.0;
    return p.latency_us;
  }

  CloveLatencyConfig cfg_;
  overlay::FlowletTracker flowlets_;
  sim::Rng rng_;
  std::unordered_map<net::IpAddr, DstState> dsts_;
};

}  // namespace clove::lb
