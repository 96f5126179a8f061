#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace clove::sim {

/// Opaque handle to a scheduled event, usable for cancellation. Carries the
/// slab slot plus a generation (seq), so stale handles — fired events, or a
/// slot since reused — cancel as a no-op instead of killing a newer event.
struct EventId {
  std::uint64_t seq{0};
  std::uint32_t slot{0};
  [[nodiscard]] bool valid() const { return seq != 0; }
  bool operator==(const EventId&) const = default;
};

/// A time-ordered queue of callbacks. Ties are broken by insertion order so
/// that runs are fully deterministic.
///
/// Ordering: a monotone radix heap keyed on event time. Events may never be
/// scheduled before the last one run (the Simulator clamps to now), so every
/// key is >= the base — the time of the last event run — and an entry lives
/// in bucket bit_width(at ^ base): bucket 0 holds the events due exactly at
/// the base, bucket b > 0 those whose highest bit differing from the base is
/// bit b-1, so every key in bucket b is below every key in bucket b+1. Popping
/// takes bucket 0 front to back; when it runs dry, the lowest occupied bucket
/// is redistributed against its smallest live key, the new base, into the
/// buckets below it — all empty at that moment. Each entry moves at most 63
/// times over its life and no comparison ever orders two entries.
///
/// Why this is the (time, insertion) order: equal keys always share a bucket;
/// schedule() appends in insertion order; and a redistribution moves one
/// bucket's entries, in their order, into empty buckets. So every bucket
/// stays in insertion order, and events due at the same time run FIFO.
///
/// Callbacks live in an address-stable slab (chunks that never move) and are
/// built there by schedule() and invoked there by run_next_until(), so an
/// event costs no SmallFn move: a running callback may schedule more events,
/// growing the slab, without moving itself. Its slot is marked not-live
/// before the call (a self-cancel is a no-op) and freed after it returns.
/// Steady state performs zero heap allocations (SmallFn keeps
/// capture-light callbacks inline, freed slots are recycled, and an emptied
/// bucket keeps up to kKeptEntries of capacity; only a larger one frees
/// its array, so memory tracks the entries held rather than every bucket's
/// own high-water mark).
///
/// Cancellation destroys the callback immediately — releasing captured
/// resources such as packets — and leaves a dead {time, slot} entry that is
/// dropped when it surfaces or its bucket is scanned. Once the buckets hold
/// more than 2 * live + 64 entries, cancel() drops every dead entry in place
/// (amortized O(1) per cancel, order unchanged), so the slab stays within
/// 2 * max_live() + 65 slots even under TCP's cancel-and-re-arm timer churn.
class EventQueue {
 public:
  /// Schedule `f` (any `void()` callable) at absolute time `at`, which must
  /// not precede the last event run. The callable is constructed directly in
  /// its slab slot. Returns a handle for cancellation.
  template <typename F>
  EventId schedule(Time at, F&& f) {
    assert(at >= base_ && "event scheduled before the last event run");
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(seqs_.size());
      if ((slot & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<SmallFn[]>(kChunkSize));
      }
      seqs_.push_back(0);
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    callback(slot).emplace(std::forward<F>(f));
    const std::uint64_t seq = ++next_seq_;
    seqs_[slot] = seq;
    file(Entry{at, slot});
    ++entries_;
    ++live_;
    if (live_ > max_live_) max_live_ = live_;
    return EventId{seq, slot};
  }

  /// Cancel a previously scheduled event. Cancelling an already-fired or
  /// running event (or a handle whose slot was since reused) is a no-op. The
  /// callback is destroyed immediately; the entry lingers until it surfaces,
  /// its bucket is scanned, or the next compaction drops it.
  void cancel(EventId id) {
    if (!id.valid() || id.slot >= seqs_.size() || seqs_[id.slot] != id.seq) {
      return;
    }
    seqs_[id.slot] = 0;
    callback(id.slot).reset();
    --live_;
    if (entries_ > 2 * live_ + 64) compact();
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Number of live (not cancelled, not yet fired) events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the next live event, or kTimeNever if none. Finds it without
  /// moving the base, so scheduling at the current time stays legal.
  [[nodiscard]] Time next_time() {
    if (skim_due()) return base_;
    unsigned bucket;
    Time at;
    return lowest_live(&bucket, &at) ? at : kTimeNever;
  }

  /// Pop and run the next live event; returns its time, or kTimeNever when
  /// the queue is empty.
  Time run_next() {
    Time at = kTimeNever;
    run_next_until(kTimeNever, &at);
    return at;
  }

  /// Fused peek-and-run for the simulator's hot loop. When the next event's
  /// time is <= `until`, stores that time into `*now` (the simulation clock
  /// must already read the event's time when the callback runs) and runs it
  /// in place. Returns false — without touching `*now` or the base — when
  /// the queue is empty or the next event lies beyond `until`.
  bool run_next_until(Time until, Time* now) {
    std::vector<Entry>& due = buckets_[0];
    if (head_ < due.size() && !dead(due[head_])) {
      if (base_ > until) return false;
    } else if (!settle(until)) {
      return false;
    }
    const std::uint32_t slot = due[head_].slot;
    if (++head_ == due.size()) {
      due.clear();
      head_ = 0;
      occupied_ &= ~std::uint64_t{1};
    }
    --entries_;
    --live_;
    seqs_[slot] = 0;
    *now = base_;
    SmallFn& cb = callback(slot);
    cb();
    cb.reset();
    free_slots_.push_back(slot);
    return true;
  }

  /// Slab slots ever allocated — a high-watermark of concurrently held slots
  /// (live events, cancelled ones not yet dropped, and the running one), at
  /// most 2 * max_live() + 65; exposed so tests can pin slot recycling.
  [[nodiscard]] std::size_t slab_capacity() const { return seqs_.size(); }

  /// Most live events ever pending at once (counts cancelled entries out,
  /// like size()). The engine profiler's queue-pressure gauge: slab_capacity
  /// tells how much memory the queue ever claimed, this tells how much of it
  /// was simultaneously meaningful.
  [[nodiscard]] std::size_t max_live() const { return max_live_; }

 private:
  struct Entry {
    Time at;
    std::uint32_t slot;
  };

  // Keys are non-negative int64, so at ^ base < 2^63 and bit_width <= 63.
  static constexpr unsigned kBuckets = 64;
  static constexpr std::size_t kKeptEntries = 1024;  // 16 KB per bucket
  static constexpr unsigned kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  SmallFn& callback(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & kChunkMask];
  }

  [[nodiscard]] bool dead(const Entry& e) const { return seqs_[e.slot] == 0; }

  /// Append `e` to the bucket its time falls in relative to the base.
  void file(Entry e) {
    const unsigned b = static_cast<unsigned>(
        std::bit_width(static_cast<std::uint64_t>(e.at ^ base_)));
    buckets_[b].push_back(e);
    occupied_ |= std::uint64_t{1} << b;
  }

  /// Mark bucket `b` empty. A bucket that grew past kKeptEntries gives its
  /// array back: far-future timers pass through a dozen high buckets, and
  /// each keeping its own peak would cost a multiple of the live events.
  void empty_bucket(unsigned b) {
    std::vector<Entry>& v = buckets_[b];
    if (v.capacity() > kKeptEntries) {
      std::vector<Entry>().swap(v);
    } else {
      v.clear();
    }
    occupied_ &= ~(std::uint64_t{1} << b);
  }

  /// Drop dead entries from the front of bucket 0; true when a live one
  /// (due at base_) remains.
  bool skim_due() {
    std::vector<Entry>& due = buckets_[0];
    for (; head_ < due.size(); ++head_) {
      if (!dead(due[head_])) return true;
      free_slots_.push_back(due[head_].slot);
      --entries_;
    }
    if (head_ != 0) {
      due.clear();
      head_ = 0;
      occupied_ &= ~std::uint64_t{1};
    }
    return false;
  }

  /// Find the lowest bucket above 0 holding a live entry and that bucket's
  /// smallest live time — the earliest pending event when bucket 0 is dry.
  /// Dead entries met in the scanned buckets are dropped (their slots
  /// freed); the base is left alone.
  bool lowest_live(unsigned* bucket, Time* at) {
    for (std::uint64_t occ = occupied_ & ~std::uint64_t{1}; occ != 0;
         occ &= occ - 1) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(occ));
      std::vector<Entry>& v = buckets_[b];
      Time min = kTimeNever;
      // Read-only up to the first dead entry; only the rest shift down.
      std::size_t i = 0;
      for (; i < v.size() && !dead(v[i]); ++i) {
        if (v[i].at < min) min = v[i].at;
      }
      std::size_t kept = i;
      for (; i < v.size(); ++i) {
        const Entry e = v[i];
        if (dead(e)) {
          free_slots_.push_back(e.slot);
          continue;
        }
        if (e.at < min) min = e.at;
        v[kept++] = e;
      }
      if (kept != v.size()) {
        entries_ -= v.size() - kept;
        v.resize(kept);
      }
      if (kept != 0) {
        *bucket = b;
        *at = min;
        return true;
      }
      empty_bucket(b);
    }
    return false;
  }

  /// Ensure bucket 0's front is the next live event and that it is due by
  /// `until`. Only an event that will run right away moves the base. A lone
  /// entry trades vectors with the empty bucket 0 instead of being copied.
  bool settle(Time until) {
    if (skim_due()) return base_ <= until;
    unsigned b;
    Time min;
    if (!lowest_live(&b, &min) || min > until) return false;
    base_ = min;
    std::vector<Entry>& src = buckets_[b];
    if (src.size() == 1) {
      buckets_[0].swap(src);
      occupied_ = (occupied_ & ~(std::uint64_t{1} << b)) | 1;
      return true;
    }
    for (const Entry& e : src) file(e);
    empty_bucket(b);
    return true;
  }

  /// Drop every dead entry, returning its slot to the freelist. Buckets keep
  /// their members and their order, so the run order is unchanged.
  void compact() {
    for (std::uint64_t occ = occupied_; occ != 0; occ &= occ - 1) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(occ));
      std::vector<Entry>& v = buckets_[b];
      std::size_t kept = 0;
      for (std::size_t i = b == 0 ? head_ : 0; i < v.size(); ++i) {
        if (dead(v[i])) {
          free_slots_.push_back(v[i].slot);
        } else {
          v[kept++] = v[i];
        }
      }
      v.resize(kept);
      if (kept == 0) empty_bucket(b);
    }
    head_ = 0;
    entries_ = live_;
  }

  std::array<std::vector<Entry>, kBuckets> buckets_;
  std::uint64_t occupied_{0};  // bit b set <=> buckets_[b] may be non-empty
  std::size_t head_{0};        // next unpopped entry of buckets_[0]
  Time base_{0};               // time of the last event run
  std::size_t entries_{0};     // entries in the buckets, dead ones included
  std::vector<std::unique_ptr<SmallFn[]>> chunks_;
  std::vector<std::uint64_t> seqs_;  // slot -> generation, 0 when not live
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
  std::size_t max_live_{0};
};

}  // namespace clove::sim
