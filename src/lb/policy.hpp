#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "overlay/flowlet.hpp"
#include "overlay/paths.hpp"
#include "sim/time.hpp"

namespace clove::lb {

/// Why pick_port() returned the port it did — the flight recorder's
/// decision annotation. Policies fill it only when the caller passes a
/// non-null pointer, so the hot path without a recorder is unchanged.
struct PickInfo {
  bool new_flowlet{false};
  std::uint32_t flowlet_id{0};   ///< flowlet / Presto flowcell id (0 = per-flow)
  const char* reason{"flow-hash"};  ///< decision rule that fired
  double metric{0.0};   ///< the rule's operand: WRR weight, path util, delay us
  std::uint16_t n_paths{0};  ///< discovered candidate paths at decision time
};

/// The decision interface of an edge load balancer living inside a source
/// hypervisor's virtual switch. One Policy instance per hypervisor; all
/// per-destination state is keyed internally by destination hypervisor IP.
///
/// The vswitch calls pick_port() for every outgoing tenant data packet;
/// policies implement their own granularity internally (per-flow hash,
/// flowlets, Presto flowcells, ...).
///
/// Contract, in the order the hypervisor drives it:
///  1. on_paths_updated() whenever discovery completes a round for a dst —
///     including with a SMALLER or EMPTY set after a path-health eviction.
///     Policies must carry what per-path state they can across refreshes
///     (keyed by hop list; see remap_paths) and must tolerate an empty set:
///     pick_port() is still called and must return a usable port (flow-hash
///     fallback), never crash or stall.
///  2. pick_port() per data packet; on_feedback() per arriving feedback
///     packet. Both may run millions of times — no allocation on the steady
///     path.
///  3. on_path_evicted() when path-health declares a port dead, immediately
///     before discovery publishes the shrunken set. Policies should drop the
///     port's state and renormalize weights; flowlets pinned to the port
///     will be re-picked on their next packet. The default no-op is correct
///     for policies whose on_paths_updated() rebuilds from scratch.
/// The capability queries (wants_ect / wants_int / needs_discovery /
/// requires_reassembly) are called once at attach time and must be
/// constant for the policy's lifetime.
class Policy {
 public:
  virtual ~Policy() = default;

  /// Choose the overlay encapsulation source port for `inner` headed to the
  /// hypervisor at `dst`. Called per data packet. When `info` is non-null
  /// the policy explains its decision through it (flight recorder).
  virtual std::uint16_t pick_port(const net::Packet& inner, net::IpAddr dst,
                                  sim::Time now, PickInfo* info) = 0;

  /// Convenience overload for callers that do not need the annotation.
  /// Derived classes re-expose it with `using Policy::pick_port;`.
  std::uint16_t pick_port(const net::Packet& inner, net::IpAddr dst,
                          sim::Time now) {
    return pick_port(inner, dst, now, nullptr);
  }

  /// Path discovery produced (or refreshed) the port->path mapping for dst.
  virtual void on_paths_updated(net::IpAddr dst, const overlay::PathSet& paths) {
    (void)dst;
    (void)paths;
  }

  /// Path-health monitoring evicted `port` for dst (keepalives unanswered /
  /// no feedback within the staleness window). Called before the shrunken
  /// path set is re-published via on_paths_updated(); policies that keep
  /// per-port state (weights, congestion marks) should drop the entry and
  /// renormalize so traffic re-spreads instantly instead of waiting for the
  /// next discovery round.
  virtual void on_path_evicted(net::IpAddr dst, std::uint16_t port,
                               sim::Time now) {
    (void)dst;
    (void)port;
    (void)now;
  }

  /// Feedback bits arrived from the destination hypervisor (ECN/INT/latency).
  virtual void on_feedback(net::IpAddr dst, const net::CloveFeedback& fb,
                           sim::Time now) {
    (void)dst;
    (void)fb;
    (void)now;
  }

  /// Whether outgoing packets should carry ECT on the outer header.
  [[nodiscard]] virtual bool wants_ect() const { return false; }
  /// Whether outgoing packets should request INT telemetry.
  [[nodiscard]] virtual bool wants_int() const { return false; }
  /// Whether this policy needs traceroute path discovery to function.
  [[nodiscard]] virtual bool needs_discovery() const { return false; }
  /// Whether the scheme's correctness depends on receiver-side reassembly
  /// restoring send order before the VM (Presto's flowcell spraying). The
  /// flight recorder audits VM-boundary ordering only where order is
  /// actually promised: when this is true, or when a reorder buffer is
  /// installed — flowlet schemes merely make reordering unlikely, so an
  /// occasional cross-flowlet overtake is legal there, not a violation.
  [[nodiscard]] virtual bool requires_reassembly() const { return false; }

  /// §3.2 "Reacting to congestion": when every known path to dst is
  /// congested, the vswitch stops masking and relays ECN into the VM.
  [[nodiscard]] virtual bool all_paths_congested(net::IpAddr dst,
                                                 sim::Time now) const {
    (void)dst;
    (void)now;
    return false;
  }

  [[nodiscard]] virtual std::string name() const = 0;

  /// The policy's flowlet table, or null for policies that keep none
  /// (ECMP, Presto flowcells). The engine profiler folds its occupancy and
  /// probe-length digest into the run's self-profile; never called on the
  /// datapath.
  [[nodiscard]] virtual overlay::FlowletTracker* flowlet_tracker() {
    return nullptr;
  }

  /// Fires when congestion feedback makes the policy reduce the weight of
  /// `port` toward `dst` — the signal the hybrid flow/packet engine uses to
  /// demote fluid elephants riding a path the policy is steering away from.
  /// Set by the owning hypervisor; policies that re-weight on feedback
  /// (Clove-ECN/INT/latency) invoke it after applying the reduction.
  std::function<void(net::IpAddr dst, std::uint16_t port)> on_port_degraded;
};

/// Rebuilds one destination's per-path state for a new path set, carrying
/// what was learned across the refresh (§3.1 optimization). A physical path
/// is its hop list, which names every directed link it takes, so it keeps
/// its state when only the source port that reaches it changed; a path not
/// seen before starts from a default PathState. When the old set repeats a
/// hop list, its first entry wins.
template <typename PathState>
void remap_paths(std::vector<PathState>& states,
                 const overlay::PathSet& paths) {
  const std::vector<PathState> old = std::move(states);
  states.clear();
  for (const overlay::PathInfo& info : paths.paths) {
    const auto it =
        std::find_if(old.begin(), old.end(), [&](const PathState& p) {
          return p.info.hops == info.hops;
        });
    states.push_back(it != old.end() ? *it : PathState{});
    states.back().info = info;
  }
}

}  // namespace clove::lb
