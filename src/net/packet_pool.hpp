#pragma once

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
  [[nodiscard]] PacketPtr acquire() {
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
    p->uid = ++next_uid_;
    return PacketPtr(p, PacketDeleter{this});
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

}  // namespace clove::net
