// Tests for the simulator core: time helpers, RNG, event queue, simulator
// clock and timers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace clove::sim {
namespace {

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

TEST(Time, UnitConversions) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_microseconds(kMicrosecond), 1.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(2 * kMillisecond), 2.0);
}

TEST(Time, TransmissionDelay) {
  // 1500 bytes at 10 Gb/s = 1.2 us.
  const double rate = gbps_to_bytes_per_sec(10.0);
  EXPECT_EQ(transmission_delay(1500, rate), 1200);
  // 1 byte at 1 GB/s = 1 ns.
  EXPECT_EQ(transmission_delay(1, 1e9), 1);
}

TEST(Time, GbpsConversion) {
  EXPECT_DOUBLE_EQ(gbps_to_bytes_per_sec(8.0), 1e9);
  EXPECT_DOUBLE_EQ(gbps_to_bytes_per_sec(40.0), 5e9);
}

TEST(Time, Format) {
  EXPECT_EQ(format_time(5), "5ns");
  EXPECT_EQ(format_time(kTimeNever), "never");
  EXPECT_NE(format_time(3 * kMicrosecond).find("us"), std::string::npos);
  EXPECT_NE(format_time(3 * kMillisecond).find("ms"), std::string::npos);
  EXPECT_NE(format_time(3 * kSecond).find("s"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBounds) {
  Rng r(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(std::uint64_t{10});
    ASSERT_LT(v, 10u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(static_cast<std::int64_t>(5),
                                 static_cast<std::int64_t>(9));
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, WeightedPickProportions) {
  Rng r(23);
  std::vector<double> w{1.0, 3.0};
  int ones = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    if (r.weighted_pick(w) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(Rng, WeightedPickAllZeroFallsBackUniform) {
  Rng r(29);
  std::vector<double> w{0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) ++counts[r.weighted_pick(w)];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == child.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (q.run_next() != kTimeNever) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (q.run_next() != kTimeNever) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventId id = q.schedule(10, [&] { fired = true; });
  q.cancel(id);
  while (q.run_next() != kTimeNever) {
  }
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelOneOfMany) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&] { order.push_back(1); });
  EventId id = q.schedule(20, [&] { order.push_back(2); });
  q.schedule(30, [&] { order.push_back(3); });
  q.cancel(id);
  while (q.run_next() != kTimeNever) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId id = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, EmptyAfterDraining) {
  EventQueue q;
  q.schedule(1, [] {});
  EXPECT_FALSE(q.empty());
  q.run_next();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.run_next(), kTimeNever);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&] {
    order.push_back(1);
    q.schedule(15, [&] { order.push_back(2); });
  });
  while (q.run_next() != kTimeNever) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_in(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  std::vector<Time> order;
  sim.schedule_in(10, [&] { ++fired; });
  sim.schedule_in(20, [&] { ++fired; });
  sim.schedule_in(30, [&] {
    ++fired;
    order.push_back(sim.now());
  });
  sim.run(20);
  EXPECT_EQ(fired, 2);  // events at exactly the deadline run
  // A run that stops short — here without running anything — leaves the
  // clock at 20: an event scheduled at now still runs before the one at 30.
  EXPECT_EQ(sim.run(25), 0u);
  EXPECT_EQ(sim.now(), 20);
  sim.schedule_in(0, [&] { order.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(order, (std::vector<Time>{20, 30}));
}

TEST(Simulator, StopEndsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(10, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_in(20, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.clear_stop();
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_in(50, [&] {
    sim.schedule_in(-10, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 50);
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_in(50, [&] {
    sim.schedule_at(10, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 50);
}

TEST(Simulator, EventsProcessedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_in(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Timer, FiresOnce) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule_in(10);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RescheduleReplacesPending) {
  Simulator sim;
  std::vector<Time> fires;
  Timer t(sim, [&] { fires.push_back(sim.now()); });
  t.schedule_in(10);
  t.schedule_in(50);  // replaces the 10ns firing
  sim.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], 50);
}

TEST(Timer, CancelPreventsFiring) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule_in(10);
  t.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CanRearmFromCallback) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] {
    if (++fired < 3) t.schedule_in(10);
  });
  t.schedule_in(10);
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 30);
}

TEST(Timer, DeadlineReflectsPendingFiring) {
  Simulator sim;
  Timer t(sim, [] {});
  EXPECT_EQ(t.deadline(), 0);
  t.schedule_in(25);
  EXPECT_EQ(t.deadline(), 25);
}

// Pins the fix for a stale-deadline bug: cancel() (and firing) used to leave
// deadline() reporting the old absolute time.
// Pins the fix for a negative delay: the event fires now (the simulator
// clamps the delay), so deadline() must say now, not a time in the past.
TEST(Timer, NegativeDelayDeadlineIsFireTime) {
  Simulator sim;
  Time fired_at = -1;
  Timer t(sim, [&] { fired_at = sim.now(); });
  Time deadline = -1;
  sim.schedule_in(50, [&] {
    t.schedule_in(-10);
    deadline = t.deadline();
  });
  sim.run();
  EXPECT_EQ(deadline, 50);
  EXPECT_EQ(fired_at, 50);
}

TEST(Timer, DeadlineClearsOnCancelAndFire) {
  Simulator sim;
  Timer t(sim, [] {});
  t.schedule_in(25);
  t.cancel();
  EXPECT_FALSE(t.pending());
  EXPECT_EQ(t.deadline(), 0);

  t.schedule_in(40);
  EXPECT_EQ(t.deadline(), 40);
  sim.run();
  EXPECT_FALSE(t.pending());
  EXPECT_EQ(t.deadline(), 0);
}

// --- live-count and slab behavior of the EventQueue ------------------------

// Pins the fix for size() counting lazily-cancelled events: the heap entry
// lingers until it surfaces, but size()/empty() must reflect live events.
TEST(EventQueue, SizeExcludesCancelled) {
  EventQueue q;
  auto a = q.schedule(10, [] {});
  auto b = q.schedule(20, [] {});
  q.schedule(30, [] {});
  EXPECT_EQ(q.size(), 3u);
  q.cancel(b);
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  q.run_next();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, PendingEventsExcludesCancelled) {
  Simulator sim;
  sim.schedule_in(10, [] {});
  auto id = sim.schedule_in(20, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(EventQueue, CancelledCallbackDestroyedEagerly) {
  // Cancelling must release captured resources immediately, not when the
  // heap entry eventually surfaces.
  EventQueue q;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  auto id = q.schedule(10, [token = std::move(token)] { (void)*token; });
  EXPECT_FALSE(watch.expired());
  q.cancel(id);
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, SlabSlotsAreRecycled) {
  // Draining and refilling must reuse slots, not grow the slab: the high
  // watermark tracks peak concurrency only.
  EventQueue q;
  for (int round = 0; round < 100; ++round) {
    q.schedule(round * 10 + 1, [] {});
    q.schedule(round * 10 + 2, [] {});
    q.run_next();
    q.run_next();
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_LE(q.slab_capacity(), 2u);
}

TEST(EventQueue, StaleCancelAfterSlotReuseIsNoop) {
  EventQueue q;
  int fired = 0;
  auto old_id = q.schedule(10, [] {});
  q.run_next();  // slot now free
  auto new_id = q.schedule(20, [&] { ++fired; });
  ASSERT_EQ(new_id.slot, old_id.slot);  // slot was recycled
  q.cancel(old_id);                     // stale handle: must not kill new event
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_EQ(fired, 1);

  // A slot freed by compaction — its cancelled entry never surfaced — is
  // just as stale once a new event takes it.
  q.schedule(1000, [&] { ++fired; });
  std::vector<EventId> dead;
  for (int i = 0; i < 100; ++i) dead.push_back(q.schedule(500 + i, [] {}));
  for (const EventId id : dead) q.cancel(id);
  const EventId reused = q.schedule(30, [&] { ++fired; });
  const auto prev = std::find_if(dead.begin(), dead.end(), [&](EventId id) {
    return id.slot == reused.slot;
  });
  ASSERT_NE(prev, dead.end());  // the slot came back from a dead entry
  q.cancel(*prev);
  EXPECT_EQ(q.size(), 2u);
  while (q.run_next() != kTimeNever) {
  }
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, CancelChurnKeepsSlabBounded) {
  // TCP's RTO pattern: every ACK cancels the pending timer and re-arms it.
  // Cancelled entries are compacted away, so the slab tracks live events,
  // not cancels (without compaction it would reach 10,001 nodes here).
  EventQueue q;
  int fired = 0;
  q.schedule(kSecond, [&] { ++fired; });
  for (int i = 0; i < 10'000; ++i) {
    q.cancel(q.schedule(200 * kMillisecond + i, [&] { ++fired; }));
  }
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.max_live(), 2u);
  EXPECT_LE(q.slab_capacity(), 2 * q.max_live() + 65);
  while (q.run_next() != kTimeNever) {
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, MatchesOrderedSetUnderRandomChurn) {
  // Differential check against a std::set of (time, schedule index) keys.
  // Callbacks schedule short events with many same-time ties, events 1 ns
  // to 2^28 ns ahead (so entries cross many radix buckets), re-arm
  // far-future timers (cancel + schedule, the churn that triggers
  // compaction), peek at next_time(), and cancel random handles: live ones,
  // fired ones, their own, and stale ones whose slot was freed early and
  // handed to a newer event. The driver loop mixes in runs that stop short
  // of the next event, each followed by an event scheduled at now.
  struct Harness {
    EventQueue q;
    std::set<std::pair<Time, std::size_t>> ref;
    std::vector<EventId> ids;
    std::vector<Time> at;
    std::vector<bool> cancelled;
    std::vector<std::size_t> slot_owner;  // slot -> latest schedule index
    std::array<std::size_t, 16> timers{};
    std::mt19937_64 rng{17};
    Time now = 0;
    std::size_t fired = 0;
    std::size_t out_of_order = 0;
    std::size_t size_mismatches = 0;
    std::size_t peek_mismatches = 0;
    std::size_t recycled_by_compaction = 0;
    bool churn = true;

    std::size_t schedule(Time t) {
      const std::size_t k = ids.size();
      ids.push_back(q.schedule(t, [this, k] { fire(k); }));
      at.push_back(t);
      cancelled.push_back(false);
      ref.emplace(t, k);
      const std::uint32_t slot = ids[k].slot;
      if (slot == slot_owner.size()) {
        slot_owner.push_back(k);
      } else {
        // Skimming frees only entries due by now; a later one was dropped
        // early, by compaction or by a bucket scan.
        const std::size_t prev = slot_owner[slot];
        if (cancelled[prev] && at[prev] > now) ++recycled_by_compaction;
        slot_owner[slot] = k;
      }
      return k;
    }

    void cancel(std::size_t k) {
      if (ref.erase({at[k], k}) == 1) cancelled[k] = true;
      q.cancel(ids[k]);
    }

    void fire(std::size_t k) {
      if (ref.empty() || *ref.begin() != std::make_pair(now, k)) {
        ++out_of_order;
      } else {
        ref.erase(ref.begin());
      }
      ++fired;
      if (churn) {
        schedule(now + static_cast<Time>(rng() % 4) * 10);
        if (rng() % 4 == 0) schedule(now + static_cast<Time>(rng() % 4) * 10);
        if (rng() % 2 == 0) {
          const Time span = Time{1} << (rng() % 28);
          schedule(now + span + static_cast<Time>(rng() % span));
        }
        std::size_t& timer = timers[rng() % timers.size()];
        cancel(timer);
        timer = schedule(now + 1000 + static_cast<Time>(rng() % 8) * 10);
        cancel(rng() % ids.size());
        if (rng() % 8 == 0) cancel(k);
      }
      if (q.size() != ref.size()) ++size_mismatches;
      if (rng() % 4 == 0 && q.next_time() != next_ref()) ++peek_mismatches;
    }

    Time next_ref() const {
      return ref.empty() ? kTimeNever : ref.begin()->first;
    }
  };

  Harness h;
  for (std::size_t& timer : h.timers) timer = h.schedule(1000);
  for (int i = 0; i < 300; ++i) h.schedule(static_cast<Time>(i % 7) * 10);
  std::size_t stopped_short = 0;
  for (;;) {
    const Time until = h.rng() % 4 == 0
                           ? h.now + static_cast<Time>(h.rng() % 32)
                           : kTimeNever;
    if (h.q.run_next_until(until, &h.now)) {
      if (h.fired >= 20'000) h.churn = false;
      continue;
    }
    if (until == kTimeNever) break;
    ++stopped_short;
    if (h.next_ref() <= until) ++h.out_of_order;
    if (h.q.next_time() != h.next_ref()) ++h.peek_mismatches;
    if (h.churn) h.schedule(h.now);  // must still run before everything else
  }
  EXPECT_GT(stopped_short, 0u);
  EXPECT_EQ(h.out_of_order, 0u);
  EXPECT_EQ(h.size_mismatches, 0u);
  EXPECT_EQ(h.peek_mismatches, 0u);
  EXPECT_TRUE(h.ref.empty());
  EXPECT_TRUE(h.q.empty());
  EXPECT_GT(h.recycled_by_compaction, 0u);
  EXPECT_LE(h.q.slab_capacity(), 2 * h.q.max_live() + 64);
}

TEST(EventQueue, RunningCallbackSelfCancelIsNoop) {
  // Callbacks run in place in their slab slot. Cancelling the running event
  // must neither destroy it mid-call nor touch other events; scheduling at
  // now from inside it runs next, before later events; and growing the slab
  // by several chunks from inside it must not move it.
  EventQueue q;
  Time now = 0;
  std::vector<int> order;
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  EventId self;
  self = q.schedule(10, [&, token = std::move(token)] {
    order.push_back(1);
    q.cancel(self);
    EXPECT_FALSE(watch.expired());
    EXPECT_EQ(q.size(), 1u);  // the event at 20 is untouched
    q.schedule(now, [&] { order.push_back(2); });
    for (int i = 0; i < 1000; ++i) q.schedule(now + 30, [] {});
    EXPECT_EQ(*token, 5);
  });
  q.schedule(20, [&] { order.push_back(3); });
  EXPECT_TRUE(q.run_next_until(kTimeNever, &now));
  EXPECT_TRUE(watch.expired());  // destroyed once it returned
  while (q.run_next_until(kTimeNever, &now)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(now, 40);
}

TEST(EventQueue, CancelledEntriesDoNotBlockSkim) {
  // A cancelled event in front of live ones must not affect next_time().
  EventQueue q;
  auto a = q.schedule(5, [] {});
  int fired = 0;
  q.schedule(10, [&] { ++fired; });
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 10);
  EXPECT_EQ(q.run_next(), 10);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, MaxLiveTracksHighWaterNotCurrentSize) {
  // max_live() is the engine's memory-pressure gauge (fed to clove::prof and
  // bench artifacts as queue_hwm): it must remember the peak even after the
  // queue drains.
  EventQueue q;
  for (int i = 0; i < 8; ++i) q.schedule(i + 1, [] {});
  EXPECT_EQ(q.max_live(), 8u);
  while (q.size() > 0) q.run_next();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.max_live(), 8u);
  // Refilling below the old peak doesn't move it; exceeding it does.
  for (int i = 0; i < 3; ++i) q.schedule(100 + i, [] {});
  EXPECT_EQ(q.max_live(), 8u);
  for (int i = 0; i < 6; ++i) q.schedule(200 + i, [] {});
  EXPECT_EQ(q.max_live(), 9u);
}

TEST(EventQueue, MoveOnlyCaptures) {
  // SmallFn accepts move-only captures directly (std::function required a
  // copyable shared_ptr holder).
  EventQueue q;
  auto owned = std::make_unique<int>(11);
  int seen = 0;
  q.schedule(1, [&seen, owned = std::move(owned)] { seen = *owned; });
  q.run_next();
  EXPECT_EQ(seen, 11);
}

// --- SmallFn ---------------------------------------------------------------

TEST(SmallFn, SmallCapturesStayInline) {
  int x = 0;
  SmallFn f([&x] { ++x; });
  EXPECT_TRUE(f.is_inline());
  f();
  EXPECT_EQ(x, 1);
}

TEST(SmallFn, OversizedCapturesFallBackToHeap) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes > kInlineSize
  big[3] = 9;
  std::uint64_t seen = 0;
  SmallFn f([&seen, big] { seen = big[3]; });
  EXPECT_FALSE(f.is_inline());
  f();
  EXPECT_EQ(seen, 9u);
}

TEST(SmallFn, MoveTransfersTargetAndOwnership) {
  auto token = std::make_shared<int>(3);
  std::weak_ptr<int> watch = token;
  int calls = 0;
  SmallFn a([&calls, token = std::move(token)] { ++calls; });
  SmallFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(calls, 1);
  b = SmallFn{};
  EXPECT_TRUE(watch.expired());  // destroying the fn released the capture
}

TEST(SmallFn, PacketSizedCaptureStaysInline) {
  // The datapath's common event shape — a `this` pointer plus a PacketPtr —
  // must fit the inline buffer or the zero-allocation claim breaks.
  struct Capture {
    void* self;
    std::unique_ptr<int, void (*)(int*)> ptr;
    std::uint64_t extra;
    void operator()() const {}
  };
  static_assert(sizeof(Capture) <= SmallFn::kInlineSize);
  SmallFn f(Capture{nullptr, {nullptr, [](int*) {}}, 0});
  EXPECT_TRUE(f.is_inline());
}

// --- Simulator extension slot ----------------------------------------------

TEST(Simulator, ExtensionSlotOwnsAttachedState) {
  static int deletions = 0;
  deletions = 0;
  {
    Simulator sim;
    EXPECT_EQ(sim.extension(), nullptr);
    sim.set_extension(new int(5), [](void* p) {
      ++deletions;
      delete static_cast<int*>(p);
    });
    EXPECT_EQ(*static_cast<int*>(sim.extension()), 5);
  }
  EXPECT_EQ(deletions, 1);
}

}  // namespace
}  // namespace clove::sim
