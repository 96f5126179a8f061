#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>

#include "sim/time.hpp"

namespace clove::sim {
class Simulator;
}  // namespace clove::sim

namespace clove::net {

/// Node / endpoint address. In this simulator an IP address is simply the
/// node id of the host or switch interface that owns it.
using IpAddr = std::uint32_t;
inline constexpr IpAddr kIpNone = 0xffffffffu;

/// Transport protocol numbers (only the ones the simulator distinguishes).
enum class Proto : std::uint8_t {
  kTcp = 6,
  kStt = 97,        ///< overlay encapsulation carrier (modeled on STT/TCP)
  kProbe = 253,     ///< traceroute path-discovery probe (its inner proto)
  kProbeReply = 254 ///< TTL-expiry or destination reply to a probe
};

/// The classic 5-tuple ECMP hashes on.
struct FiveTuple {
  IpAddr src_ip{kIpNone};
  IpAddr dst_ip{kIpNone};
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
  Proto proto{Proto::kTcp};

  bool operator==(const FiveTuple&) const = default;

  [[nodiscard]] FiveTuple reversed() const {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, proto};
  }
};

/// Salt-free mix of the tuple fields (SplitMix64 chain). This is the
/// expensive half of ECMP hashing and depends only on the tuple, so the
/// datapath computes it once per packet (Packet::wire_hash) and every
/// switch on the path derives its decision from it with salted_hash().
[[nodiscard]] inline std::uint64_t tuple_prehash(const FiveTuple& t) {
  auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  h = mix(h ^ (static_cast<std::uint64_t>(t.src_ip) << 32 | t.dst_ip));
  h = mix(h ^ (static_cast<std::uint64_t>(t.src_port) << 16 | t.dst_port));
  h = mix(h ^ static_cast<std::uint64_t>(t.proto));
  return h;
}

/// One SplitMix64 finalizer round over (prehash ^ salt): cheap per-switch
/// salting of a cached prehash. hash_tuple(t, s) == salted_hash(
/// tuple_prehash(t), s) by construction — switches may use either form and
/// reach the same ECMP decision.
[[nodiscard]] inline std::uint64_t salted_hash(std::uint64_t prehash,
                                               std::uint64_t salt) {
  std::uint64_t z = prehash ^ (salt * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic 64-bit mix used for ECMP hashing (salted per switch) and
/// Presto flow ids. Splittable and platform-stable.
[[nodiscard]] inline std::uint64_t hash_tuple(const FiveTuple& t,
                                              std::uint64_t salt) {
  return salted_hash(tuple_prehash(t), salt);
}

struct FiveTupleHash {
  std::size_t operator()(const FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(tuple_prehash(t));
  }
};

/// TCP flag bits (only the subset the simulator models).
struct TcpFlags {
  bool syn{false};
  bool fin{false};
  bool ack{false};
  bool ece{false};  ///< ECN-Echo (receiver -> sender)
  bool cwr{false};  ///< Congestion Window Reduced (sender -> receiver)
};

/// A SACK block: received bytes in [start, end).
struct SackBlock {
  std::uint64_t start{0};
  std::uint64_t end{0};
};

/// Inner (tenant VM) TCP header. Sequence numbers are 64-bit byte offsets —
/// a simulation convenience that removes wrap-around handling without
/// changing any of the dynamics the paper depends on. The SACK option
/// blocks ride in the packet's cold record (Packet::Cold).
struct TcpHeader {
  TcpFlags flags{};
  std::uint64_t seq{0};       ///< first payload byte carried
  std::uint64_t ack{0};       ///< cumulative ack (next expected byte)
};

/// ECN codepoint state carried in an IP header: the inner one (Packet::ecn)
/// or the outer one (EncapHeader::ecn). Both bits share one byte.
struct EcnBits {
  bool ect : 1 {false};  ///< ECN-capable transport
  bool ce : 1 {false};   ///< congestion experienced
};

/// Clove metadata carried in reserved STT-context bits of reverse traffic
/// (paper §3.2/§4): which forward-path source port the feedback refers to,
/// plus either a congestion bit (Clove-ECN) or a utilization value
/// (Clove-INT) or a one-way delay (Clove-Latency extension).
struct CloveFeedback {
  double util{0.0};            ///< Clove-INT: max link utilization on path
  sim::Time latency{0};        ///< Clove-Latency: one-way delay measured
  std::uint16_t port{0};       ///< encapsulation source port being reported
  bool present{false};
  bool ecn_set{false};         ///< Clove-ECN: forward path saw CE
  bool has_util{false};
  bool has_latency{false};
};

/// CONGA VXLAN-style fields (simulation of the custom ASIC header):
/// forward direction carries (src_leaf, lb_tag, ce); feedback direction
/// carries (fb_tag, fb_ce) piggybacked on reverse traffic.
struct CongaFields {
  std::uint32_t src_leaf{0};
  bool present{false};
  std::uint8_t lb_tag{0};   ///< uplink chosen at the source leaf
  std::uint8_t ce{0};       ///< max quantized congestion along path so far
  bool fb_present{false};
  std::uint8_t fb_tag{0};
  std::uint8_t fb_ce{0};

  bool operator==(const CongaFields&) const = default;
};

/// In-band Network Telemetry: per-hop egress utilization samples. Its one
/// reader (Clove-INT's relay) wants the path maximum, so the stack keeps a
/// running maximum of the first kMaxHops samples — what a kMaxHops-entry
/// stack would report — instead of the samples themselves.
struct IntStack {
  static constexpr int kMaxHops = 8;
  bool enabled{false};
  std::uint8_t count{0};
  float max{0.f};

  void push(float u) {
    if (count < kMaxHops) {
      max = std::max(max, u);
      ++count;
    }
  }
  [[nodiscard]] float max_util() const { return max; }
};

/// Outer (overlay encapsulation) header: an STT-like tunnel header whose
/// source port is the knob Clove turns, plus context bits for feedback.
struct EncapHeader {
  // tuple / present / ecn lead: they are what a forwarding hop reads, and
  // they must fall inside Packet's first cache line.
  FiveTuple tuple{};           ///< outer 5-tuple (hypervisor to hypervisor)
  bool present{false};
  EcnBits ecn{};               ///< outer IP ECN bits
  std::uint32_t flowcell_id{0};   ///< Presto: monotonically increasing per flow
  CloveFeedback feedback{};    ///< STT-context feedback bits
  std::uint64_t flow_hash{0};     ///< Presto: id of the inner flow
};

/// Presto / traceroute / host-level auxiliary metadata.
struct ProbeInfo {
  std::uint32_t probe_id{0};   ///< groups the TTL-laddered packets of a probe
  IpAddr hop_ip{kIpNone};      ///< node that answered (switch node id)
  std::int32_t hop_ingress{-1};///< ingress port the probe arrived on — the
                               ///< per-interface address real traceroute
                               ///< sees, distinguishing parallel links
  std::uint16_t probed_port{0};///< the encap source port under test
  std::uint8_t hop_index{0};   ///< set by the replying switch
  bool from_destination{false};///< reply came from the final hypervisor

  bool operator==(const ProbeInfo&) const = default;
};

/// Non-overlay deployments (§7): the source vswitch replaces the tenant
/// five-tuple's source port in place and hides the original value in TCP
/// options; the destination vswitch restores it before delivery.
struct RewriteInfo {
  bool rewritten{false};
  std::uint16_t orig_src_port{0};
};

/// A simulated packet. One header-union-of-structs instead of real byte
/// serialization: the simulator dispatches on these fields exactly where a
/// real datapath would parse them.
struct Packet {
  // Field order is a performance contract, not taxonomy. Everything a
  // forwarding hop reads packs into the first cache line: the inner
  // 5-tuple (whose proto also tells a traceroute probe, Proto::kProbe,
  // from data), payload size, the INT stack, TTL, the inner ECN bits, the
  // hybrid trace flag, the cached wire hash, and the leading fields of
  // EncapHeader (tuple / present / ecn). The testbed's discovery burst
  // keeps ~3.7 x 10^4 packets live at once, mostly probes in switch
  // queues (probes still queued at their own NIC, and every queued probe
  // reply, stay unbuilt: see Link::enqueue_run and Link::enqueue_reply),
  // so the struct's size sets much of the simulator's memory footprint;
  // the cold tail is ordered by alignment to leave no holes, and state
  // only a few packets need lives out of line (Cold, below).
  // PacketLayout.HopFieldsInFirstLine and the static_assert after the
  // struct hold both properties.

  // --- forwarding-hot line ----------------------------------------------
  FiveTuple inner{};           ///< VM-to-VM 5-tuple
  std::uint32_t payload{0};    ///< tenant payload bytes
  IntStack int_stack{};
  std::uint8_t ttl{64};
  EcnBits ecn{};               ///< inner IP ECN bits (marked when unencapped)
  /// Hybrid path capture (clove::hybrid): set on a promotion candidate's
  /// flagged data segment; every Link it serializes on appends its id to
  /// the packet's Cold::trace, and the destination hypervisor reports the
  /// captured path so the fluid model charges the exact links the flowlet
  /// traversed.
  bool traced{false};

 private:
  // --- forwarding fast-path cache (see wire_hash() below) ----------------
  mutable bool wire_hash_valid_{false};
  mutable std::uint64_t wire_hash_{0};

 public:
  EncapHeader encap{};         ///< outer (physical network) header

  // --- endpoint / scheme-specific headers -------------------------------
  TcpHeader tcp{};

 private:
  std::uint32_t cold_{0};      ///< PacketPool handle of a Cold record; 0: none

 public:
  ProbeInfo probe{};
  CongaFields conga{};
  RewriteInfo rewrite{};

  // --- bookkeeping ------------------------------------------------------
  sim::Time sent_at{0};        ///< timestamp at first NIC transmission
  std::uint64_t uid{0};        ///< unique id for tracing

  Packet() = default;
  // A copy would share the cold record's handle, and both copies would
  // return it to the pool.
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  /// The links a traced segment serialized on (see `traced`).
  struct HybridTrace {
    static constexpr int kMaxLinks = 12;
    std::uint8_t count{0};
    std::array<std::uint32_t, kMaxLinks> links{};

    void push(std::uint32_t link_id) {
      if (count < kMaxLinks) {
        links[count] = link_id;
      }
      ++count;  // counts past kMaxLinks signal overflow (promotion aborted)
    }
    [[nodiscard]] bool overflowed() const { return count > kMaxLinks; }
  };

  /// Per-packet state only a few packets carry: the SACK option of an ACK
  /// that reports out-of-order data, and the path of a traced segment. It
  /// lives out of line, in a record the packet's PacketPool owns and
  /// recycles (PacketPool::cold / find_cold), so every other packet pays
  /// only the 4-byte handle.
  struct Cold {
    std::array<SackBlock, 3> sacks{};  ///< SACK option blocks
    std::uint8_t sack_count{0};
    HybridTrace trace{};
  };

  /// The 5-tuple physical switches hash for ECMP: the outer one when the
  /// packet is encapsulated, else the inner one.
  [[nodiscard]] const FiveTuple& wire_tuple() const {
    return encap.present ? encap.tuple : inner;
  }

  [[nodiscard]] IpAddr wire_src() const { return wire_tuple().src_ip; }
  [[nodiscard]] IpAddr wire_dst() const { return wire_tuple().dst_ip; }

  /// Cached tuple_prehash(wire_tuple()), computed lazily on first use (the
  /// first switch the packet traverses) and reused by every later hop; each
  /// switch finalizes it with its own salt via salted_hash(). Any code that
  /// mutates the wire tuple after the packet entered the datapath (encap,
  /// decap, the non-overlay source-port rewrite) must call
  /// invalidate_wire_hash() or downstream switches would hash a stale tuple.
  [[nodiscard]] std::uint64_t wire_hash() const {
    if (!wire_hash_valid_) {
      wire_hash_ = tuple_prehash(wire_tuple());
      wire_hash_valid_ = true;
    }
    return wire_hash_;
  }
  void invalidate_wire_hash() { wire_hash_valid_ = false; }
  /// Whether the cache currently holds a value (test/diagnostic hook).
  [[nodiscard]] bool wire_hash_cached() const { return wire_hash_valid_; }

  /// Bytes on the wire: payload plus a fixed modeled header overhead.
  static constexpr std::uint32_t kHeaderBytes = 78;  // Eth+IP+TCP+STT approx
  [[nodiscard]] std::uint32_t wire_size() const { return payload + kHeaderBytes; }

 private:
  friend class PacketPool;         // owns cold_
  friend struct PacketLayoutPeer;  // the layout test reads the cache's place
};

// Three cache lines: each pooled packet takes one 192-byte, line-aligned
// slot of its PacketPool's slabs.
static_assert(sizeof(Packet) <= 192, "net::Packet must fit three cache lines");

/// A probe reply described instead of built: a switch's TTL-expiry reply or
/// a destination hypervisor's reply, as its creator queues it with
/// Link::enqueue_reply. The link builds the Packet only when its
/// transmitter reaches the reply, so a reply waiting in a queue holds these
/// 48 bytes instead of a 192-byte packet.
struct ProbeReply {
  static constexpr std::uint32_t kPayload = 64;
  static constexpr std::uint32_t kWireSize = kPayload + Packet::kHeaderBytes;

  std::uint64_t uid{0};  ///< reserved with PacketPool::reserve_uids
  IpAddr src{kIpNone};   ///< the answering switch or hypervisor
  IpAddr dst{kIpNone};   ///< the prober
  ProbeInfo probe{};
  CongaFields conga{};   ///< a CONGA leaf's stamp, if one routed the reply

  /// Node `at`'s answer to `probe`, which reached it on interface
  /// `ingress`, carrying `uid`.
  static ProbeReply answer(const Packet& probe, IpAddr at,
                           std::int32_t ingress, bool from_destination,
                           std::uint64_t uid) {
    ProbeReply r;
    r.uid = uid;
    r.src = at;
    r.dst = probe.wire_src();
    r.probe = probe.probe;
    r.probe.hop_ip = at;
    r.probe.hop_ingress = ingress;
    r.probe.from_destination = from_destination;
    return r;
  }

  /// Fill in the reply on a freshly reset packet.
  void build(Packet& p) const {
    p.uid = uid;
    p.inner.src_ip = src;
    p.inner.dst_ip = dst;
    p.inner.proto = Proto::kProbeReply;
    p.payload = kPayload;
    p.ttl = 64;
    p.probe = probe;
    p.conga = conga;
  }
};

class PacketPool;

/// Deleter behind PacketPtr: returns the packet to its owning pool, or plain
/// `delete`s it when there is none (default-constructed, as for the heap
/// make_packet() below). A pool packet lives in a slot of the pool's slabs,
/// so this deleter is its only way back: never rewrap a pool packet's raw
/// pointer with a default deleter; move the PacketPtr instead.
struct PacketDeleter {
  PacketPool* pool{nullptr};
  void operator()(Packet* p) const noexcept;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/// Heap factory stamping process-unique ids; exists so tests can build
/// packets tersely without a Simulator. Datapath code uses the pooled
/// overload below instead.
[[nodiscard]] PacketPtr make_packet();

/// Pooled factory: recycles packets through the per-Simulator PacketPool
/// (zero heap allocations in steady state) and stamps per-simulation uids,
/// which keeps id sequences deterministic under parallel sweeps.
[[nodiscard]] PacketPtr make_packet(sim::Simulator& sim);

}  // namespace clove::net
