#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "overlay/paths.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace clove::net {
class PacketRecipe;
}  // namespace clove::net

namespace clove::overlay {

struct TracerouteConfig {
  int sample_ports{32};   ///< random encap source ports probed per round
  int k_paths{4};         ///< disjoint paths to keep (§3.1: "k source ports")
  int max_ttl{6};         ///< TTL ladder length per probed port
  sim::Time probe_interval{500 * sim::kMillisecond};  ///< re-probe cadence
  sim::Time probe_timeout{20 * sim::kMillisecond};    ///< round collection time
  double interval_jitter{0.1};  ///< de-synchronizes rounds across hypervisors
};

/// The user-space traceroute daemon of §3.1/§4: per destination hypervisor,
/// periodically sends TTL-laddered probes over randomized encapsulation
/// source ports. Switches answer TTL expiry with their identity; the
/// destination hypervisor answers probes that reach it. From the replies the
/// daemon reconstructs the port->path mapping, then greedily keeps k ports
/// whose paths share the fewest links ("add the path that shares the least
/// number of links with paths already picked").
class TracerouteDaemon {
 public:
  /// Transmits a run of already-encapsulated probes out the host NIC (see
  /// net::Link::enqueue_run): a whole round's TTL ladders, or one keepalive.
  using SendFn =
      std::function<void(std::shared_ptr<const net::PacketRecipe>)>;
  /// Fired when a round completes with a fresh path set for `dst`.
  using PathsCallback = std::function<void(net::IpAddr dst, const PathSet&)>;
  /// Result of a single-port keepalive: alive iff the destination answered
  /// within probe_timeout.
  using KeepaliveFn =
      std::function<void(net::IpAddr dst, std::uint16_t port, bool alive)>;

  TracerouteDaemon(sim::Simulator& sim, net::IpAddr self,
                   const TracerouteConfig& cfg, SendFn send,
                   PathsCallback on_paths, std::uint64_t seed = 0x7ace);

  /// Begin (and keep) probing paths to `dst`. Idempotent.
  void add_destination(net::IpAddr dst);
  /// Launch a probe round immediately (also used after topology events).
  void probe_now(net::IpAddr dst);

  /// Feed a probe reply received by the hypervisor (switch TTL-expiry reply
  /// or destination reply).
  void on_reply(const net::Packet& pkt);

  /// Send one max-TTL probe over `port` (no TTL ladder — a liveness check,
  /// not a trace) and report whether the destination answered within
  /// probe_timeout. Used by path-health monitoring to confirm a suspect
  /// path end-to-end without waiting for the next full round.
  void keepalive(net::IpAddr dst, std::uint16_t port, KeepaliveFn done);

  /// Remove `port` from dst's current path set (path-health eviction) and
  /// fire the paths callback — even when the set becomes empty, so policies
  /// can drain their per-path state. Returns true when the port was present.
  bool evict_port(net::IpAddr dst, std::uint16_t port);

  [[nodiscard]] const PathSet* paths(net::IpAddr dst) const;
  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_; }
  [[nodiscard]] std::uint64_t keepalives_sent() const {
    return keepalives_sent_;
  }
  [[nodiscard]] int rounds_completed() const { return rounds_completed_; }

  /// Exposed for tests: the greedy disjoint-path selection.
  static std::vector<PathInfo> select_disjoint(std::vector<PathInfo> candidates,
                                               int k);

 private:
  /// One probe round's replies, in flat arrays that keep their capacity
  /// from round to round. Slot i is the i-th probed port in send order; the
  /// hop table is slots x (max_ttl + 1), indexed by hop_index.
  struct Round {
    std::uint32_t id{0};
    bool open{false};
    std::vector<std::uint16_t> ports;    ///< probed ports, in send order
    std::vector<std::uint8_t> dest_hop;  ///< min destination hop, 0 = none
    std::vector<std::int32_t> dest_ingress;  ///< NIC port at the destination
    std::vector<PathHop> hops;  ///< switch replies; node kIpNone = none yet
  };
  struct DstState {
    net::IpAddr dst{net::kIpNone};
    PathSet current;
    Round round;
    bool scheduled{false};
  };
  struct Keepalive {
    net::IpAddr dst{0};
    std::uint16_t port{0};
    KeepaliveFn done;
  };

  /// Index of dst's state in dsts_, created on first use.
  std::uint32_t slot_of(net::IpAddr dst);
  void start_round(std::uint32_t slot);
  /// Send probe `probe_id` to `dst` as one run: every port in `ports`, in
  /// order, at each TTL of first_ttl .. first_ttl + rungs - 1.
  void send_probes(net::IpAddr dst, std::uint32_t probe_id,
                   const std::vector<std::uint16_t>& ports, int first_ttl,
                   int rungs);
  void finish_round(std::uint32_t slot);
  void schedule_next(std::uint32_t slot);

  sim::Simulator& sim_;
  net::IpAddr self_;
  TracerouteConfig cfg_;
  SendFn send_;
  PathsCallback on_paths_;
  sim::Rng rng_;
  std::size_t hop_stride_;  ///< Round::hops row length: max_ttl + 1

  std::vector<DstState> dsts_;
  std::unordered_map<net::IpAddr, std::uint32_t> slot_of_;
  /// Probe id -> index into dsts_ of the round that sent it (kNoOwner for
  /// keepalive ids). Ids are handed out in order, so this is a dense array.
  static constexpr std::uint32_t kNoOwner = 0xffffffffu;
  std::vector<std::uint32_t> id_owner_{kNoOwner};
  /// Outstanding keepalives keyed by probe id (shares the round id space so
  /// replies demultiplex unambiguously).
  std::unordered_map<std::uint32_t, Keepalive> keepalives_;
  std::uint32_t next_round_id_{1};
  std::uint64_t probes_sent_{0};
  std::uint64_t keepalives_sent_{0};
  int rounds_completed_{0};
};

}  // namespace clove::overlay
