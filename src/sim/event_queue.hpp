#pragma once

#include <algorithm>
#include <cstdint>
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
/// Hot-loop layout: a 4-ary heap orders small POD entries {time, seq,
/// slot}; callbacks live in a slab of reusable nodes addressed by slot, so
/// heap sifts move 24-byte PODs and the steady state performs zero heap
/// allocations (SmallFn keeps capture-light callbacks inline, and drained
/// slots are recycled through a freelist). Cancellation destroys the
/// callback immediately — releasing captured resources such as packets —
/// and leaves a dead POD entry that is skipped when it surfaces. Once dead
/// entries outnumber live ones by more than a constant, cancel() rebuilds
/// the heap from the live entries alone (amortized O(1) per cancel), so the
/// heap and slab stay within 2 * max_live() + 64 entries even under TCP's
/// cancel-and-re-arm timer churn. Keys (time, seq) are unique, so any valid
/// heap pops the same sequence: compaction never changes the run order.
class EventQueue {
 public:
  using Callback = SmallFn;

  /// Schedule `cb` at absolute time `at`. Returns a handle for cancellation.
  /// Takes the callback by rvalue reference so it is moved exactly once, into
  /// its slab node.
  EventId schedule(Time at, Callback&& cb) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    Node& n = nodes_[slot];
    n.cb = std::move(cb);
    n.seq = ++next_seq_;
    n.cancelled = false;
    heap_push(Entry{at, n.seq, slot});
    ++live_;
    if (live_ > max_live_) max_live_ = live_;
    return EventId{n.seq, slot};
  }

  /// Cancel a previously scheduled event. Cancelling an already-fired event
  /// (or a handle whose slot was since reused) is a no-op. The callback is
  /// destroyed immediately; the POD heap entry lingers until it surfaces or
  /// the next compaction drops it.
  void cancel(EventId id) {
    if (!id.valid() || id.slot >= nodes_.size()) return;
    Node& n = nodes_[id.slot];
    if (n.seq != id.seq || n.cancelled) return;
    n.cancelled = true;
    n.cb = Callback{};
    --live_;
    if (heap_.size() > 2 * live_ + 64) compact();
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Number of live (not cancelled, not yet fired) events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the next live event, or kTimeNever if none.
  [[nodiscard]] Time next_time() {
    skim();
    return heap_.empty() ? kTimeNever : heap_.front().at;
  }

  /// Pop and run the next live event; returns its time, or kTimeNever when
  /// the queue is empty.
  Time run_next() {
    Time at = kTimeNever;
    run_next_until(kTimeNever, &at);
    return at;
  }

  /// Fused peek-and-run for the simulator's hot loop: one skim and one heap
  /// top read decide both "is there an event" and "is it due". When the next
  /// event's time is <= `until`, stores that time into `*now` (the simulation
  /// clock must already read the event's time when the callback runs) and
  /// runs it. Returns false — without touching `*now` — when the queue is
  /// empty or the next event lies beyond `until`.
  bool run_next_until(Time until, Time* now) {
    skim();
    if (heap_.empty() || heap_.front().at > until) return false;
    const Entry e = heap_.front();
    heap_pop();
    // Move the callback out and recycle the slot BEFORE invoking: the
    // callback may schedule new events (possibly growing the slab), and the
    // freed slot is immediately reusable.
    Callback cb = std::move(nodes_[e.slot].cb);
    release(e.slot);
    --live_;
    *now = e.at;
    cb();
    return true;
  }

  /// Nodes ever allocated in the slab — a high-watermark of concurrently
  /// held slots (live events plus cancelled ones not yet dropped), at most
  /// 2 * max_live() + 64; exposed so tests can pin slot recycling.
  [[nodiscard]] std::size_t slab_capacity() const { return nodes_.size(); }

  /// Most live events ever pending at once (counts cancelled entries out,
  /// like size()). The engine profiler's queue-pressure gauge: slab_capacity
  /// tells how much memory the queue ever claimed, this tells how much of it
  /// was simultaneously meaningful.
  [[nodiscard]] std::size_t max_live() const { return max_live_; }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Strict ordering: earlier time first, then insertion order. Identical to
  /// the comparator the old std::priority_queue used, so run order — and
  /// every figure produced by the simulator — is unchanged.
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  struct Node {
    Callback cb;
    std::uint64_t seq{0};
    bool cancelled{false};
  };

  void release(std::uint32_t slot) {
    Node& n = nodes_[slot];
    n.cb = Callback{};
    n.seq = 0;
    n.cancelled = false;
    free_slots_.push_back(slot);
  }

  /// Drop cancelled entries from the top of the heap. Invariant: a heap
  /// entry's slot is recycled only here, in compact() or in run_next(), so
  /// entry.seq == node.seq until the entry leaves the heap.
  void skim() {
    while (!heap_.empty() && nodes_[heap_.front().slot].cancelled) {
      release(heap_.front().slot);
      heap_pop();
    }
  }

  /// Keep only the live entries, returning every cancelled slot to the
  /// freelist, then restore the heap order bottom-up in O(n).
  void compact() {
    std::size_t kept = 0;
    for (const Entry& e : heap_) {
      if (nodes_[e.slot].cancelled) {
        release(e.slot);
      } else {
        heap_[kept++] = e;
      }
    }
    heap_.resize(kept);
    if (kept < 2) return;
    for (std::size_t i = ((kept - 2) >> 2) + 1; i-- > 0;) {
      sift_down(i, heap_[i]);
    }
  }

  // The heap is 4-ary rather than binary: half the sift depth per push/pop,
  // and the four 24-byte children of a node span at most two cache lines,
  // so the min-of-children scan in sift_down costs one or two line fetches
  // per level.
  void heap_push(Entry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void heap_pop() {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  /// Move `e` down from the hole at `i` until no child is earlier.
  void sift_down(std::size_t i, const Entry e) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first_child = (i << 2) + 1;
      if (first_child >= n) break;
      const std::size_t end = std::min(first_child + 4, n);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  std::vector<Entry> heap_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
  std::size_t max_live_{0};
};

}  // namespace clove::sim
