#pragma once

#include <cstdint>
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
    try {
      free_.push_back(p);
    } catch (...) {
      delete p;  // freelist growth failed; fall back to the heap path
    }
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
  std::uint64_t next_uid_{0};
  std::uint64_t allocated_{0};
  std::uint64_t reused_{0};
};

}  // namespace clove::net
