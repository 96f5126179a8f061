#include "util/flat_map.hpp"
#include "util/ring_deque.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace clove::util {
namespace {

TEST(FlatMap, InsertFindAndSize) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7u), nullptr);

  auto [v, inserted] = m.try_emplace(7);
  ASSERT_TRUE(inserted);
  *v = 42;
  EXPECT_EQ(m.size(), 1u);

  auto [v2, inserted2] = m.try_emplace(7);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(v2, v);
  EXPECT_EQ(*v2, 42);

  int* f = m.find(7);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(*f, 42);
  EXPECT_FALSE(m.contains(8));
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  FlatMap<std::uint64_t, std::string> m;
  EXPECT_EQ(m[3], "");
  m[3] = "three";
  EXPECT_EQ(m[3], "three");
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EraseRemovesOnlyThatKey) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 10; ++k) m[k] = static_cast<int>(k * 10);
  EXPECT_TRUE(m.erase(4));
  EXPECT_FALSE(m.erase(4));  // already gone
  EXPECT_EQ(m.size(), 9u);
  EXPECT_EQ(m.find(4u), nullptr);
  for (std::uint64_t k = 0; k < 10; ++k) {
    if (k == 4) continue;
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), static_cast<int>(k * 10));
  }
}

/// A hash that sends every key to the same bucket, forcing one long probe
/// chain — erase/insert in a chain exercises tombstone traversal and reuse.
struct CollidingHash {
  std::uint64_t operator()(std::uint64_t) const noexcept { return 0; }
};

TEST(FlatMap, FindProbesPastTombstones) {
  FlatMap<std::uint64_t, int, CollidingHash> m;
  m[1] = 10;
  m[2] = 20;
  m[3] = 30;
  // Key 3 sits behind keys 1 and 2 in the probe chain; erasing them leaves
  // tombstones that lookups must walk through, not stop at.
  EXPECT_TRUE(m.erase(1));
  EXPECT_TRUE(m.erase(2));
  ASSERT_NE(m.find(3u), nullptr);
  EXPECT_EQ(*m.find(3u), 30);
}

TEST(FlatMap, InsertReusesFirstTombstoneOnProbePath) {
  FlatMap<std::uint64_t, int, CollidingHash> m;
  m[1] = 10;
  m[2] = 20;
  m[3] = 30;
  int* three = m.find(3);
  ASSERT_NE(three, nullptr);

  EXPECT_TRUE(m.erase(1));
  // Re-inserting lands in key 1's tombstone (first on the probe path), not in
  // a fresh empty slot — verified indirectly: no rehash occurs (capacity
  // stable) and the handle to key 3 stays valid.
  const std::size_t cap = m.capacity();
  m[4] = 40;
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(*three, 30);  // handle survived erase + tombstone reuse
  EXPECT_EQ(*m.find(4u), 40);
  EXPECT_EQ(m.size(), 3u);
}

TEST(FlatMap, HandlesSurviveErasesButNotRehash) {
  FlatMap<std::uint64_t, int> m;
  m[100] = 1;
  int* h = m.find(100);
  ASSERT_NE(h, nullptr);
  // Erasing other keys never relocates the handle's slot.
  m[200] = 2;
  m[300] = 3;
  m.erase(200);
  m.erase(300);
  EXPECT_EQ(*h, 1);
  EXPECT_EQ(m.find(100u), h);
}

TEST(FlatMap, GrowthPreservesEntries) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  constexpr std::uint64_t kN = 10'000;
  for (std::uint64_t k = 0; k < kN; ++k) m[k * 7919] = k;
  EXPECT_EQ(m.size(), kN);
  // Power-of-two capacity with load factor <= 0.75.
  EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u);
  EXPECT_LE(m.size() * 4, m.capacity() * 3);
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_NE(m.find(k * 7919), nullptr) << k;
    EXPECT_EQ(*m.find(k * 7919), k);
  }
}

TEST(FlatMap, ReservePreventsRehash) {
  FlatMap<std::uint64_t, int> m;
  m.reserve(1000);
  const std::size_t cap = m.capacity();
  EXPECT_GE(cap * 3, 1000u * 4 / 1u - cap);  // sanity: big enough
  for (std::uint64_t k = 0; k < 1000; ++k) m[k] = 1;
  EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, TombstoneRebuildKeepsCapacityBounded) {
  FlatMap<std::uint64_t, int> m;
  // Insert/erase churn with a bounded live set: capacity must not grow
  // without bound — tombstone-triggered rebuilds recycle dead slots.
  for (std::uint64_t round = 0; round < 10'000; ++round) {
    m[round] = 1;
    if (round >= 8) m.erase(round - 8);
  }
  EXPECT_EQ(m.size(), 8u);
  EXPECT_LE(m.capacity(), 64u);
}

TEST(FlatMap, IterationVisitsEveryLiveEntryOnce) {
  FlatMap<std::uint64_t, int> m;
  std::set<std::uint64_t> expect;
  for (std::uint64_t k = 1; k <= 50; ++k) {
    m[k] = static_cast<int>(k);
    expect.insert(k);
  }
  m.erase(10);
  m.erase(20);
  expect.erase(10);
  expect.erase(20);

  std::set<std::uint64_t> seen;
  for (auto it = m.begin(); it != m.end(); ++it) {
    EXPECT_TRUE(seen.insert(it.key()).second) << "duplicate " << it.key();
    EXPECT_EQ(it.value(), static_cast<int>(it.key()));
  }
  EXPECT_EQ(seen, expect);
}

TEST(FlatMap, EraseDuringIteration) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m[k] = static_cast<int>(k % 2);
  // Erase all odd-valued entries in one pass.
  for (auto it = m.begin(); it != m.end();) {
    it = (it.value() == 1) ? m.erase(it) : ++it;
  }
  EXPECT_EQ(m.size(), 50u);
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(m.contains(k), k % 2 == 0) << k;
  }
}

TEST(FlatMap, SweepErasesOnlyMatchingAndIsIncremental) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 64; ++k) m[k] = (k < 32) ? 0 : 1;
  const std::size_t cap = m.capacity();

  // One full lap of the table in max_slots-sized steps erases exactly the
  // predicate matches; each call does O(max_slots) work.
  std::size_t erased = 0;
  for (std::size_t i = 0; i < cap / 8; ++i) {
    erased += m.sweep(8, [](std::uint64_t, int v) { return v == 1; });
  }
  EXPECT_EQ(erased, 32u);
  EXPECT_EQ(m.size(), 32u);
  for (std::uint64_t k = 0; k < 64; ++k) EXPECT_EQ(m.contains(k), k < 32);
}

TEST(FlatMap, SweepOnEmptyMapIsNoop) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_EQ(m.sweep(8, [](std::uint64_t, int) { return true; }), 0u);
}

TEST(FlatMap, ClearResets) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 20; ++k) m[k] = 1;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(3u), nullptr);
  m[5] = 9;
  EXPECT_EQ(*m.find(5u), 9);
}

TEST(FlatMap, ProbeStatsTrackOccupancyAndDisplacement) {
  FlatMap<std::uint64_t, int> m;
  auto st = m.probe_stats();
  EXPECT_EQ(st.size, 0u);
  EXPECT_EQ(st.probe_sum, 0u);

  for (std::uint64_t k = 0; k < 100; ++k) m[k] = 1;
  st = m.probe_stats();
  EXPECT_EQ(st.size, 100u);
  EXPECT_GE(st.capacity, 100u);
  // Displacement of every live entry from its home slot is bounded by the
  // worst probe, and the mean can't exceed the max.
  EXPECT_GE(st.max_probe * st.size, st.probe_sum);
  EXPECT_LT(st.max_probe, st.capacity);

  for (std::uint64_t k = 0; k < 50; ++k) m.erase(k);
  st = m.probe_stats();
  EXPECT_EQ(st.size, 50u);
  EXPECT_EQ(st.tombstones, 50u);
}

struct TrackedValue {
  static int live;
  std::vector<int> payload;
  TrackedValue() { ++live; }
  TrackedValue(const TrackedValue& o) : payload(o.payload) { ++live; }
  TrackedValue(TrackedValue&& o) noexcept : payload(std::move(o.payload)) {
    ++live;
  }
  TrackedValue& operator=(const TrackedValue&) = default;
  TrackedValue& operator=(TrackedValue&&) = default;
  ~TrackedValue() { --live; }
};
int TrackedValue::live = 0;

TEST(FlatMap, EraseReleasesValueResourcesEagerly) {
  FlatMap<std::uint64_t, TrackedValue> m;
  m[1].payload.assign(100, 7);
  TrackedValue* v = m.find(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->payload.size(), 100u);
  m.erase(1);
  // The slot object itself persists (tombstone), but the value was reset to
  // a default-constructed state, dropping its heap payload.
  EXPECT_TRUE(v->payload.empty());
}

TEST(RingDeque, IndexedPeekFollowsFifoOrderAcrossWraparound) {
  RingDeque<int> q;
  for (int i = 0; i < 6; ++i) q.push_back(i);
  for (int i = 0; i < 5; ++i) q.pop_front();  // head near the buffer's end
  for (int i = 6; i < 12; ++i) q.push_back(i);  // wraps past the end
  ASSERT_EQ(q.capacity(), RingDeque<int>::kMinCapacity);
  ASSERT_EQ(q.size(), 7u);
  const RingDeque<int>& cq = q;
  for (std::size_t i = 0; i < cq.size(); ++i) {
    EXPECT_EQ(cq[i], static_cast<int>(5 + i));
  }
  q.push_back(12);
  q.push_back(13);  // full: grows and re-bases the ring
  ASSERT_EQ(q.capacity(), 2 * RingDeque<int>::kMinCapacity);
  EXPECT_EQ(cq[0], 5);
  EXPECT_EQ(cq[8], 13);
}

}  // namespace
}  // namespace clove::util
