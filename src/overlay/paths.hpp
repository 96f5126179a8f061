#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace clove::overlay {

/// Well-known destination port of the modeled STT-like tunnel protocol.
inline constexpr std::uint16_t kSttPort = 7471;
/// Outer source ports are drawn from the ephemeral range.
inline constexpr std::uint16_t kEphemeralBase = 49152;
inline constexpr std::uint16_t kEphemeralCount = 16384;

/// One traceroute hop: the answering node plus the ingress interface the
/// probe arrived on. The (node, ingress) pair uniquely identifies the
/// directed physical link the probe traversed to reach that node — which is
/// exactly what per-interface IP addresses give real traceroute, and what
/// lets Clove tell parallel leaf-spine links apart.
struct PathHop {
  net::IpAddr node{net::kIpNone};
  std::int32_t ingress{-1};
  auto operator<=>(const PathHop&) const = default;
};

/// One discovered network path to a destination hypervisor: the overlay
/// source port that ECMP maps onto it, and the interface-level hop list the
/// traceroute saw (ending with the destination hypervisor itself). The hop
/// list is the physical path's identity whichever port maps to it.
struct PathInfo {
  std::uint16_t port{0};
  std::vector<PathHop> hops;

  /// Count of directed links shared with `other`: each hop's (node, ingress)
  /// pair names the link the path entered that node on.
  [[nodiscard]] int shared_links(const PathInfo& other) const {
    int shared = 0;
    for (const PathHop& a : hops) {
      for (const PathHop& b : other.hops) {
        if (a == b) ++shared;
      }
    }
    return shared;
  }
};

/// The set of disjoint-ish paths currently mapped for one destination.
struct PathSet {
  std::vector<PathInfo> paths;
  sim::Time discovered_at{-1};
  [[nodiscard]] bool empty() const { return paths.empty(); }
  [[nodiscard]] std::size_t size() const { return paths.size(); }
};

}  // namespace clove::overlay
