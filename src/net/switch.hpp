#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace clove::net {

/// Per-switch forwarding counters.
struct SwitchStats {
  std::uint64_t forwarded{0};
  std::uint64_t no_route_drops{0};
  std::uint64_t ttl_drops{0};
  std::uint64_t probe_replies{0};
};

/// One ECMP next-hop port set in a switch's route pool. Ports are stored
/// inline (a switch radix in the simulated fat-trees is small) with a heap
/// spill only for port sets wider than kInline, so reading a route touches
/// one 64-byte pool slot and no further pointer.
class PortSet {
 public:
  static constexpr std::size_t kInline = 8;

  explicit PortSet(const std::vector<int>& ports) : size_(ports.size()) {
    if (size_ > kInline) {
      spill_ = ports;
    } else {
      std::copy(ports.begin(), ports.end(), inline_.begin());
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const int* data() const {
    return spill_.empty() ? inline_.data() : spill_.data();
  }
  [[nodiscard]] int operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] const int* begin() const { return data(); }
  [[nodiscard]] const int* end() const { return data() + size_; }
  [[nodiscard]] bool equals(const std::vector<int>& ports) const {
    return ports.size() == size_ && std::equal(begin(), end(), ports.begin());
  }

  [[nodiscard]] std::size_t spill_bytes() const {
    return spill_.capacity() * sizeof(int);
  }

 private:
  std::size_t size_;
  std::array<int, kInline> inline_{};
  std::vector<int> spill_;
};

/// A standard off-the-shelf L3 switch: shortest-path routes with ECMP
/// hashing over the wire 5-tuple, TTL handling, and TTL-expiry replies to
/// traceroute probes (the only switch feature Clove's path discovery needs).
///
/// The ECMP hash is salted with the switch id so different switches make
/// independent decisions, exactly like per-device hash seeds in real gear.
/// The next-hop is `hash % n_nexthops` — so any change in the size of the
/// next-hop set (e.g. a link failure) remaps all flows, the property that
/// forces Clove to re-run path discovery after topology changes (§3.1).
class Switch : public Node {
 public:
  Switch(sim::Simulator& sim, NodeId id, std::string name);

  void receive(PacketPtr pkt, int in_port) override;

  /// Drop every route and size the table for destinations [0, n_dst).
  /// IP addresses are node ids (small and dense), so the table is a flat
  /// vector indexed by destination: one pointer per destination into a
  /// pool of this switch's distinct port sets. A fat-tree switch holds at
  /// most k + 1 distinct sets, so the pool stays in L1 and the per-packet
  /// lookup is one indexed load plus the port-set read.
  void reset_routes(std::size_t n_dst);

  /// Install the ECMP port set for a destination IP; an empty set removes
  /// the route. Equal port sequences share one pool entry.
  void set_route(IpAddr dst, const std::vector<int>& ports) {
    if (dst >= routes_.size()) routes_.resize(dst + 1, nullptr);
    // Runs of destinations share a set (a stub group's hosts do), so the
    // set interned last is tried before the pool is scanned.
    if (last_interned_ == nullptr || !last_interned_->equals(ports)) {
      last_interned_ = ports.empty() ? nullptr : intern(ports);
    }
    routes_[dst] = last_interned_;
  }

  [[nodiscard]] const PortSet* route(IpAddr dst) const {
    return dst < routes_.size() ? routes_[dst] : nullptr;
  }

  /// The distinct port sets routes point into, in first-use order.
  [[nodiscard]] const std::vector<PortSet>& route_pool() const {
    return pool_;
  }
  /// Heap bytes held by the route table and its pool.
  [[nodiscard]] std::size_t route_table_bytes() const;

  [[nodiscard]] const SwitchStats& stats() const { return stats_; }

  /// The ECMP port choice this switch would make for a tuple (exposed so
  /// tests can verify discovery finds the true mapping).
  [[nodiscard]] int ecmp_port(const FiveTuple& t, std::size_t n) const {
    return static_cast<int>(hash_tuple(t, id()) % n);
  }

 protected:
  /// Hook for subclasses (CONGA / LetFlow leaves) to override the egress
  /// port choice for routable packets. Default: the packet's cached wire
  /// prehash finalized with the switch-id salt (== hash_tuple(wire_tuple,
  /// id()) without re-mixing the tuple at every hop).
  virtual int select_port(const Packet& pkt, const PortSet& ports,
                          int in_port);

  /// Hook invoked before forwarding, after TTL handling (for feedback
  /// piggybacking etc.). Default: no-op.
  virtual void on_forward(Packet& pkt, int egress_port, int in_port);

  void forward(PacketPtr pkt, int in_port);
  /// Route `pkt` as forward() does, up to its enqueue: the egress link, or
  /// null when there is no route (the drop is counted here).
  Link* egress_for(Packet& pkt, int in_port);
  /// Answer a probe whose TTL expired here; the reply is queued unbuilt
  /// (Link::enqueue_reply).
  void send_probe_reply(const Packet& probe, int in_port);

  sim::Simulator& sim_;
  SwitchStats stats_;

  struct Cells {
    telemetry::Counter* forwarded;
    telemetry::Counter* no_route_drops;
    telemetry::Counter* ttl_drops;
  };
  Cells cells_;

 private:
  /// The pool entry equal to the non-empty `ports`, added if there is none.
  const PortSet* intern(const std::vector<int>& ports);

  std::vector<const PortSet*> routes_;  // indexed by destination IpAddr
  std::vector<PortSet> pool_;           // routes_ point into it
  const PortSet* last_interned_{nullptr};
};

}  // namespace clove::net
