#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define CLOVE_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CLOVE_POOL_ASAN 1
#endif
#endif
#ifdef CLOVE_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace clove::net {

/// Per-Simulator packet freelist. The datapath allocates (and frees) one
/// Packet per simulated transmission; at steady state the flight-size worth
/// of packets cycles through this pool with zero heap traffic — acquire()
/// pops the freelist and the PacketPtr deleter pushes it back.
///
/// Packets live in the pool's own slabs: kSlabPackets slots of kSlotBytes
/// each, aligned to a cache line, so every packet starts on a line and the
/// fields a forwarding hop reads (Packet's first 64 bytes) never straddle
/// two. A slab is carved one slot per new packet and freed only with the
/// pool. Pool packets therefore cannot be plain-`delete`d: the PacketPtr
/// deleter is the only way back. Under AddressSanitizer a released or
/// not-yet-carved slot is poisoned, so a read of a released packet is
/// reported.
///
/// The pool also owns every packet's cold record (Packet::Cold): cold()
/// hands one out on demand and release() takes it back with the packet, so
/// records recycle through their own freelist with no steady-state heap
/// traffic either.
///
/// Like the Simulator that owns it, a pool is single-threaded; parallel
/// sweeps give every Simulator its own pool (see Simulator::extension()).
class PacketPool {
 public:
  static constexpr std::size_t kLineBytes = 64;
  /// A packet's slot: sizeof(Packet) rounded up to whole cache lines.
  static constexpr std::size_t kSlotBytes =
      (sizeof(Packet) + kLineBytes - 1) / kLineBytes * kLineBytes;
  static constexpr std::size_t kSlabPackets = 256;
  static constexpr std::size_t kSlabBytes = kSlabPackets * kSlotBytes;

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// A reset packet with a fresh per-pool uid. Reuses a freed packet when
  /// one is available; carves a new one otherwise.
  [[nodiscard]] PacketPtr acquire() { return acquire(++next_uid_); }

  /// A reset packet carrying `uid`, which reserve_uids() handed out.
  [[nodiscard]] PacketPtr acquire(std::uint64_t uid) {
    Packet* p;
    if (free_.empty()) {
      p = carve();
      ++allocated_;
    } else {
      p = free_.back();
      free_.pop_back();
      ++reused_;
    }
    unpoison(p, sizeof(Packet));
    ::new (static_cast<void*>(p)) Packet;  // one in-place write, no temporary
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
    p->~Packet();
    poison(p, kSlotBytes);
    free_.push_back(p);  // carve() reserved room for every slot: no throw
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

  /// Packets carved from the slabs over the pool's lifetime (the
  /// concurrency high-watermark, in steady state).
  [[nodiscard]] std::uint64_t allocated() const { return allocated_; }
  /// Acquisitions served from the freelist instead of a new slot.
  [[nodiscard]] std::uint64_t reused() const { return reused_; }
  [[nodiscard]] std::size_t free_count() const { return free_.size(); }
  /// Packet slots in the slabs held, carved or not.
  [[nodiscard]] std::size_t capacity() const {
    return slabs_.size() * kSlabPackets;
  }

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
  static void poison([[maybe_unused]] void* at,
                     [[maybe_unused]] std::size_t bytes) {
#ifdef CLOVE_POOL_ASAN
    ASAN_POISON_MEMORY_REGION(at, bytes);
#endif
  }
  static void unpoison([[maybe_unused]] void* at,
                       [[maybe_unused]] std::size_t bytes) {
#ifdef CLOVE_POOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(at, bytes);
#endif
  }

  struct SlabFree {
    void operator()(std::byte* slab) const noexcept {
      unpoison(slab, kSlabBytes);
      ::operator delete(slab, std::align_val_t{kLineBytes});
    }
  };
  using Slab = std::unique_ptr<std::byte, SlabFree>;

  /// The next uncarved slot, opening a slab when the last one is full.
  Packet* carve() {
    if (next_slot_ == kSlabPackets) {
      Slab slab(static_cast<std::byte*>(
          ::operator new(kSlabBytes, std::align_val_t{kLineBytes})));
      // Room to free every slot, so release() never allocates; grown
      // geometrically, so the copies stay linear in the pool's size.
      const std::size_t slots = capacity() + kSlabPackets;
      if (free_.capacity() < slots) {
        free_.reserve(std::max(slots, 2 * free_.capacity()));
      }
      poison(slab.get(), kSlabBytes);
      slabs_.push_back(std::move(slab));
      next_slot_ = 0;
    }
    return reinterpret_cast<Packet*>(slabs_.back().get() +
                                     kSlotBytes * next_slot_++);
  }

  std::vector<Slab> slabs_;
  std::size_t next_slot_{kSlabPackets};  ///< in slabs_.back()
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
