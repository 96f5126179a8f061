#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "prof/prof.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace clove::sim {

/// The discrete-event simulation engine: a clock plus an event queue plus the
/// root RNG. Every simulated entity holds a reference to one Simulator; there
/// are no global singletons, so independent experiments can run side by side
/// — including concurrently on different threads (see harness::ParallelRunner).
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Schedule `cb` (any `void()` callable) to run `delay` from now (delay may
  /// be zero; a negative one is clamped to zero). The callable is forwarded
  /// to the event queue, which builds it in place.
  template <typename F>
  EventId schedule_in(Time delay, F&& cb) {
    return queue_.schedule(now_ + (delay < 0 ? 0 : delay),
                           std::forward<F>(cb));
  }

  /// Schedule `cb` at absolute time `at` (clamped to now).
  template <typename F>
  EventId schedule_at(Time at, F&& cb) {
    return queue_.schedule(at < now_ ? now_ : at, std::forward<F>(cb));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Run until the queue drains or `until` is reached (events at exactly
  /// `until` still run). Returns the number of events processed.
  ///
  /// When an engine profiler is installed (CLOVE_PROF, see prof/prof.hpp)
  /// every event dispatch is timed under prof::kDispatch; component hooks
  /// nested in the callbacks attribute the time further. The check is one
  /// thread-local load per run() call — not per event — so the profiled-off
  /// loop is byte-for-byte the old one.
  std::uint64_t run(Time until = kTimeNever) {
    if (prof::active() != nullptr) return run_profiled(until);
    std::uint64_t n = 0;
    while (!stopped_ && queue_.run_next_until(until, &now_)) ++n;
    events_processed_ += n;
    return n;
  }

  /// Request that run() return after the current event finishes.
  void stop() { stopped_ = true; }
  void clear_stop() { stopped_ = false; }

  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }
  /// Live (scheduled, not cancelled, not yet fired) events.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Most events simultaneously pending over the simulation so far.
  [[nodiscard]] std::size_t queue_high_water() const { return queue_.max_live(); }
  /// Event-slab nodes ever allocated (the queue's memory high-water mark).
  [[nodiscard]] std::size_t queue_slab_capacity() const {
    return queue_.slab_capacity();
  }

  /// Opaque per-simulation extension slot with an owner-supplied deleter.
  /// Higher layers attach per-simulation state the sim layer cannot name —
  /// today the net::PacketPool (see net::PacketPool::of) — keeping each
  /// simulation self-contained so parallel runs share nothing. One slot;
  /// the first claimant wins. Declared before the event queue so pending
  /// callbacks holding pooled resources are destroyed before the pool.
  [[nodiscard]] void* extension() const { return extension_.get(); }
  void set_extension(void* p, void (*deleter)(void*)) {
    extension_ = ExtensionPtr(p, deleter);
  }

 private:
  std::uint64_t run_profiled(Time until) {
    std::uint64_t n = 0;
    for (;;) {
      if (stopped_) break;
      CLOVE_PROF_SCOPE(prof::kDispatch);
      if (!queue_.run_next_until(until, &now_)) break;
      ++n;
    }
    events_processed_ += n;
    return n;
  }

  using ExtensionPtr = std::unique_ptr<void, void (*)(void*)>;
  ExtensionPtr extension_{nullptr, [](void*) {}};
  Time now_{0};
  EventQueue queue_;
  Rng rng_;
  bool stopped_{false};
  std::uint64_t events_processed_{0};
};

/// A restartable one-shot timer bound to a Simulator. Guarantees that a fired
/// or cancelled timer never double-fires, and clears its handle on fire so
/// that rescheduling is always safe.
class Timer {
 public:
  Timer(Simulator& sim, std::function<void()> on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {}

  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arm the timer to fire `delay` from now (a negative delay fires now,
  /// as Simulator::schedule_in clamps it). Cancels any pending firing.
  void schedule_in(Time delay) { schedule_at(sim_.now() + delay); }

  /// (Re)arm the timer to fire at absolute time `at` (clamped to now).
  /// Cancels any pending firing.
  void schedule_at(Time at) {
    cancel();
    if (at < sim_.now()) at = sim_.now();
    deadline_ = at;
    id_ = sim_.schedule_at(at, [this] {
      id_ = EventId{};
      on_fire_();
    });
  }

  void cancel() {
    if (id_.valid()) {
      sim_.cancel(id_);
      id_ = EventId{};
    }
  }

  [[nodiscard]] bool pending() const { return id_.valid(); }
  /// Absolute time of the pending firing, or 0 when nothing is pending — a
  /// cancelled or fired timer no longer reports its stale deadline.
  [[nodiscard]] Time deadline() const { return pending() ? deadline_ : 0; }

 private:
  Simulator& sim_;
  std::function<void()> on_fire_;
  EventId id_{};
  Time deadline_{0};
};

}  // namespace clove::sim
