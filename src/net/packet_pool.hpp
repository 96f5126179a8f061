#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <new>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace clove::net {

/// Per-Simulator packet freelist. The datapath allocates (and frees) one
/// Packet per simulated transmission; at steady state the flight-size worth
/// of packets cycles through this pool with zero heap traffic — acquire()
/// pops the freelist and the PacketPtr deleter pushes it back.
///
/// Packets are individually `new`ed (never subdivided from slabs), so a
/// packet that leaves the pool economy — released raw and rewrapped with a
/// default-constructed deleter, as some tests do — is still safely
/// `delete`able; it simply stops being recycled.
///
/// The pool also owns every packet's cold record (Packet::Cold): cold()
/// hands one out on demand and release() takes it back with the packet, so
/// records recycle through their own freelist with no steady-state heap
/// traffic either. A packet that leaves the pool economy keeps its record
/// reserved until the pool itself is destroyed, which frees it.
///
/// Like the Simulator that owns it, a pool is single-threaded; parallel
/// sweeps give every Simulator its own pool (see Simulator::extension()).
class PacketPool {
 public:
  PacketPool() = default;
  ~PacketPool() {
    for (Packet* p : free_) delete p;
  }
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// A reset packet with a fresh per-pool uid. Reuses a freed packet when
  /// one is available; allocates otherwise.
  [[nodiscard]] PacketPtr acquire() { return acquire(++next_uid_); }

  /// A reset packet carrying `uid`, which reserve_uids() handed out.
  [[nodiscard]] PacketPtr acquire(std::uint64_t uid) {
    Packet* p;
    if (free_.empty()) {
      p = new Packet;
      ++allocated_;
    } else {
      p = free_.back();
      free_.pop_back();
      p->~Packet();
      ::new (static_cast<void*>(p)) Packet;  // one in-place write, no temporary
      ++reused_;
    }
    p->uid = uid;
    return PacketPtr(p, PacketDeleter{this});
  }

  /// Reserve `n` consecutive uids for packets built later (a PacketRecipe's
  /// run) and return the first. Packets acquired meanwhile get the uids
  /// after them, exactly as if all `n` had been acquired now.
  [[nodiscard]] std::uint64_t reserve_uids(std::uint64_t n) {
    const std::uint64_t first = next_uid_ + 1;
    next_uid_ += n;
    return first;
  }

  void release(Packet* p) noexcept {
    if (p->cold_ != 0) {
      free_cold_.push_back(p->cold_);  // cold() reserved room: no throw
    }
    try {
      free_.push_back(p);
    } catch (...) {
      delete p;  // freelist growth failed; fall back to the heap path
    }
  }

  /// `p`'s cold record, taking a reset one from the pool if it has none.
  /// References stay valid while later records are handed out.
  Packet::Cold& cold(Packet& p) {
    if (p.cold_ == 0) {
      if (free_cold_.empty()) {
        // Room for every handle up front, so release() never allocates.
        if (free_cold_.capacity() <= cold_.size()) {
          free_cold_.reserve(2 * cold_.size() + 8);
        }
        cold_.emplace_back();
        p.cold_ = static_cast<std::uint32_t>(cold_.size());
      } else {
        p.cold_ = free_cold_.back();
        free_cold_.pop_back();
        cold_[p.cold_ - 1] = Packet::Cold{};
      }
    }
    return cold_[p.cold_ - 1];
  }

  /// `p`'s cold record, or null when it carries none.
  [[nodiscard]] const Packet::Cold* find_cold(const Packet& p) const {
    return p.cold_ == 0 ? nullptr : &cold_[p.cold_ - 1];
  }

  /// Packets created with `new` over the pool's lifetime (the concurrency
  /// high-watermark, in steady state).
  [[nodiscard]] std::uint64_t allocated() const { return allocated_; }
  /// Acquisitions served from the freelist instead of the heap.
  [[nodiscard]] std::uint64_t reused() const { return reused_; }
  [[nodiscard]] std::size_t free_count() const { return free_.size(); }

  /// The pool attached to `sim` (created on first use). Rides the
  /// Simulator's extension slot so the sim layer stays net-agnostic while
  /// pool lifetime still tracks the simulation exactly.
  static PacketPool& of(sim::Simulator& sim) {
    if (sim.extension() == nullptr) {
      sim.set_extension(new PacketPool,
                        [](void* p) { delete static_cast<PacketPool*>(p); });
    }
    return *static_cast<PacketPool*>(sim.extension());
  }

 private:
  std::vector<Packet*> free_;
  std::deque<Packet::Cold> cold_;           ///< handle h names cold_[h - 1]
  std::vector<std::uint32_t> free_cold_;
  std::uint64_t next_uid_{0};
  std::uint64_t allocated_{0};
  std::uint64_t reused_{0};
};

/// Packets described instead of built: packet i gets uid uid(i) (reserved
/// with PacketPool::reserve_uids) and is filled in by build(). A run of
/// `count` probes numbers its uids from `first_uid`, the default uid(i); a
/// link's queued probe replies (Link::enqueue_reply) carry their own uids,
/// which need not be contiguous. Link::enqueue_run() queues a run as one
/// entry and builds each packet only when its transmitter reaches it, so a
/// burst of thousands of probes does not hold thousands of packets while
/// it waits.
///
/// The link admits these packets without building them, so it cannot
/// ECN-mark them: every packet of a recipe has wire size `wire_size` and is
/// not ECN-capable. make() asserts both.
class PacketRecipe {
 public:
  PacketRecipe() = default;
  PacketRecipe(const PacketRecipe&) = delete;
  PacketRecipe& operator=(const PacketRecipe&) = delete;
  virtual ~PacketRecipe() = default;

  /// Fill in packet `i` of the run on a freshly reset packet.
  virtual void build(Packet& p, std::uint32_t i) const = 0;

  /// The uid of packet `i`.
  [[nodiscard]] virtual std::uint64_t uid(std::uint32_t i) const {
    return first_uid + i;
  }

  /// Packet `i` of the run, acquired from `pool` and built.
  [[nodiscard]] PacketPtr make(PacketPool& pool, std::uint32_t i) const {
    PacketPtr p = pool.acquire(uid(i));
    build(*p, i);
    assert(p->wire_size() == wire_size);
    assert(!(p->encap.present ? p->encap.ecn.ect : p->ecn.ect));
    return p;
  }

  std::uint64_t first_uid{0};
  std::uint32_t count{0};
  std::uint32_t wire_size{Packet::kHeaderBytes};
};

}  // namespace clove::net
