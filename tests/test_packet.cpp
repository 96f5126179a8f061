// Tests for packet structures and hashing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace clove::net {

/// Reads where the private wire-hash cache sits, for the layout test.
struct PacketLayoutPeer {
  static const void* hash(const Packet& p) { return &p.wire_hash_; }
  static const void* hash_valid(const Packet& p) {
    return &p.wire_hash_valid_;
  }
};

namespace {

TEST(FiveTuple, Equality) {
  FiveTuple a{1, 2, 10, 20, Proto::kTcp};
  FiveTuple b{1, 2, 10, 20, Proto::kTcp};
  EXPECT_EQ(a, b);
  b.src_port = 11;
  EXPECT_NE(a, b);
}

TEST(FiveTuple, Reversed) {
  FiveTuple a{1, 2, 10, 20, Proto::kTcp};
  FiveTuple r = a.reversed();
  EXPECT_EQ(r.src_ip, 2u);
  EXPECT_EQ(r.dst_ip, 1u);
  EXPECT_EQ(r.src_port, 20);
  EXPECT_EQ(r.dst_port, 10);
  EXPECT_EQ(r.reversed(), a);
}

TEST(FiveTuple, HashDistinguishesFields) {
  FiveTupleHash h;
  FiveTuple base{1, 2, 10, 20, Proto::kTcp};
  FiveTuple by_src = base;
  by_src.src_ip = 9;
  FiveTuple by_port = base;
  by_port.src_port = 9;
  FiveTuple by_proto = base;
  by_proto.proto = Proto::kStt;
  EXPECT_NE(h(base), h(by_src));
  EXPECT_NE(h(base), h(by_port));
  EXPECT_NE(h(base), h(by_proto));
}

TEST(Packet, WireTupleUsesOuterWhenEncapped) {
  auto p = make_packet();
  p->inner = FiveTuple{1, 2, 10, 20, Proto::kTcp};
  EXPECT_EQ(p->wire_tuple(), p->inner);
  p->encap.present = true;
  p->encap.tuple = FiveTuple{100, 200, 3000, 7471, Proto::kStt};
  EXPECT_EQ(p->wire_tuple(), p->encap.tuple);
  EXPECT_EQ(p->wire_src(), 100u);
  EXPECT_EQ(p->wire_dst(), 200u);
}

TEST(Packet, WireSizeIncludesHeaders) {
  auto p = make_packet();
  p->payload = 1460;
  EXPECT_EQ(p->wire_size(), 1460 + Packet::kHeaderBytes);
}

TEST(Packet, UniqueIds) {
  std::unordered_set<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) ids.insert(make_packet()->uid);
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(HashTuple, DeterministicAndSaltSensitive) {
  FiveTuple t{1, 2, 10, 20, Proto::kTcp};
  EXPECT_EQ(hash_tuple(t, 7), hash_tuple(t, 7));
  EXPECT_NE(hash_tuple(t, 7), hash_tuple(t, 8));
}

TEST(HashTuple, UniformAcrossPorts) {
  // ECMP quality check: hashing many source ports into 4 buckets should
  // spread roughly evenly — this is what path discovery relies on.
  int buckets[4] = {0, 0, 0, 0};
  for (int sp = 0; sp < 16384; ++sp) {
    FiveTuple t{1, 2, static_cast<std::uint16_t>(sp), 7471, Proto::kStt};
    ++buckets[hash_tuple(t, 42) % 4];
  }
  for (int b : buckets) {
    EXPECT_GT(b, 3600);
    EXPECT_LT(b, 4600);
  }
}

TEST(HashTuple, IndependentAcrossSalts) {
  // Two switches (salts) should make nearly independent decisions: the joint
  // distribution over (choice1, choice2) covers all combinations.
  std::set<std::pair<int, int>> combos;
  for (int sp = 0; sp < 1000; ++sp) {
    FiveTuple t{1, 2, static_cast<std::uint16_t>(sp), 7471, Proto::kStt};
    combos.emplace(hash_tuple(t, 1) % 4, hash_tuple(t, 2) % 2);
  }
  EXPECT_EQ(combos.size(), 8u);
}

TEST(IntStack, PushAndMax) {
  IntStack s;
  s.enabled = true;
  s.push(0.3f);
  s.push(0.7f);
  s.push(0.5f);
  EXPECT_EQ(s.count, 3);
  EXPECT_FLOAT_EQ(s.max_util(), 0.7f);
}

TEST(IntStack, CapsAtMaxHops) {
  IntStack s;
  for (int i = 0; i < 20; ++i) s.push(0.1f);
  EXPECT_EQ(s.count, IntStack::kMaxHops);
}

TEST(IntStack, IgnoresPushesPastMaxHops) {
  // Only the first kMaxHops samples count: a larger sample from a hop past
  // the cap must not raise the reported maximum.
  IntStack s;
  s.enabled = true;
  for (int i = 0; i < IntStack::kMaxHops; ++i) s.push(0.25f);
  s.push(0.9f);
  EXPECT_EQ(s.count, IntStack::kMaxHops);
  EXPECT_FLOAT_EQ(s.max_util(), 0.25f);
}

TEST(IntStack, EmptyMaxIsZero) {
  IntStack s;
  EXPECT_FLOAT_EQ(s.max_util(), 0.0f);
}

// ---------------------------------------------------------------------------
// PacketLayout
// ---------------------------------------------------------------------------

TEST(PacketLayout, HopFieldsInFirstLine) {
  // Every field a forwarding hop reads — Switch::receive/forward,
  // Link::enqueue/start_tx/on_tx_done/deliver_front, Hypervisor::receive's
  // dispatch — must end within the packet's first 64 bytes. Offsets come
  // from address differences on a live pooled packet (Packet is not
  // standard-layout, so offsetof is off the table). On a pooled packet
  // they must also share one hardware line by address: the pool's slots
  // start on a line.
  sim::Simulator sim;
  PacketPtr p = make_packet(sim);
  const char* base = reinterpret_cast<const char*>(p.get());
  struct Field {
    const char* name;
    const void* at;
    std::size_t size;
  };
  const Field hot[] = {
      {"inner (5-tuple, proto: the probe check)", &p->inner, sizeof(p->inner)},
      {"payload", &p->payload, sizeof(p->payload)},
      {"ttl", &p->ttl, sizeof(p->ttl)},
      {"wire hash", PacketLayoutPeer::hash(*p), sizeof(std::uint64_t)},
      {"wire hash valid", PacketLayoutPeer::hash_valid(*p), sizeof(bool)},
      {"encap.tuple", &p->encap.tuple, sizeof(p->encap.tuple)},
      {"encap.present", &p->encap.present, sizeof(p->encap.present)},
      {"encap.ecn", &p->encap.ecn, sizeof(p->encap.ecn)},
      {"ecn (inner ECT/CE)", &p->ecn, sizeof(p->ecn)},
      {"traced", &p->traced, sizeof(p->traced)},
      {"int_stack (enabled flag and running max)", &p->int_stack,
       sizeof(p->int_stack)},
  };
  auto first = reinterpret_cast<std::uintptr_t>(base);
  auto last = first;
  for (const Field& f : hot) {
    const auto offset =
        static_cast<std::size_t>(static_cast<const char*>(f.at) - base);
    EXPECT_LE(offset + f.size, 64u) << f.name << " at byte " << offset;
    const auto at = reinterpret_cast<std::uintptr_t>(f.at);
    first = std::min(first, at);
    last = std::max(last, at + f.size - 1);
  }
  EXPECT_EQ(first / 64, last / 64) << "the hot bytes straddle two lines";
}

// ---------------------------------------------------------------------------
// PacketPool
// ---------------------------------------------------------------------------

TEST(PacketPool, ReusesReleasedPackets) {
  sim::Simulator sim;
  auto& pool = PacketPool::of(sim);
  Packet* first;
  {
    auto p = make_packet(sim);
    first = p.get();
  }  // released to the pool
  EXPECT_EQ(pool.free_count(), 1u);
  auto q = make_packet(sim);
  EXPECT_EQ(q.get(), first);  // same storage, recycled
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_EQ(pool.reused(), 1u);
}

TEST(PacketPool, RecycledPacketsAreFullyReset) {
  sim::Simulator sim;
  const Packet::Cold* first_record = nullptr;
  {
    auto p = make_packet(sim);
    p->payload = 1460;
    p->ttl = 3;
    p->encap.present = true;
    p->tcp.seq = 999;
    p->int_stack.push(0.7f);
    p->traced = true;
    p->sent_at = 42;
    Packet::Cold& c = PacketPool::of(sim).cold(*p);
    c.sacks[0] = SackBlock{1000, 2000};
    c.sack_count = 1;
    c.trace.push(7);
    first_record = &c;
  }
  auto q = make_packet(sim);
  EXPECT_EQ(q->payload, 0u);
  EXPECT_EQ(q->ttl, 64);
  EXPECT_FALSE(q->encap.present);
  EXPECT_EQ(q->tcp.seq, 0u);
  EXPECT_EQ(q->int_stack.count, 0);
  EXPECT_FLOAT_EQ(q->int_stack.max_util(), 0.0f);
  EXPECT_FALSE(q->traced);
  EXPECT_EQ(q->sent_at, 0);
  // No SACK or trace record survives the recycle, and the record handed
  // out next (the same one, recycled) is reset too.
  EXPECT_EQ(PacketPool::of(sim).find_cold(*q), nullptr);
  const Packet::Cold& c = PacketPool::of(sim).cold(*q);
  EXPECT_EQ(&c, first_record);
  EXPECT_EQ(c.sack_count, 0);
  EXPECT_EQ(c.sacks[0].end, 0u);
  EXPECT_EQ(c.trace.count, 0);
}

TEST(PacketPool, ColdRecordsRecycleWithoutGrowth) {
  // Steady state: a stream of record-carrying packets, two alive at a time,
  // keeps reusing the same two records instead of allocating new ones.
  sim::Simulator sim;
  auto& pool = PacketPool::of(sim);
  std::set<const Packet::Cold*> records;
  for (int round = 0; round < 100; ++round) {
    auto a = make_packet(sim);
    auto b = make_packet(sim);
    Packet::Cold& ca = pool.cold(*a);
    Packet::Cold& cb = pool.cold(*b);
    ca.sack_count = 1;
    cb.trace.push(3);
    EXPECT_NE(&ca, &cb);
    EXPECT_EQ(&pool.cold(*a), &ca);  // a packet keeps the record it has
    records.insert(&ca);
    records.insert(&cb);
  }
  EXPECT_EQ(records.size(), 2u);
}

TEST(PacketPool, UidsAreFreshAcrossReuse) {
  sim::Simulator sim;
  std::unordered_set<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) ids.insert(make_packet(sim)->uid);
  EXPECT_EQ(ids.size(), 100u);
}

TEST(PacketPool, UidSequenceIsPerSimulator) {
  // Per-pool counters make uid sequences independent of what other
  // simulations ran before or concurrently — the property that keeps results
  // bit-identical between serial and parallel sweeps.
  sim::Simulator a;
  sim::Simulator b;
  std::vector<std::uint64_t> ua;
  std::vector<std::uint64_t> ub;
  for (int i = 0; i < 5; ++i) {
    ua.push_back(make_packet(a)->uid);
    (void)make_packet(b);  // interleave extra traffic on b
    ub.push_back(make_packet(b)->uid);
  }
  EXPECT_EQ(ua, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(ub, (std::vector<std::uint64_t>{2, 4, 6, 8, 10}));
}

TEST(PacketPool, SlabPacketsAreLineAligned) {
  // The pool carves packets from line-aligned slabs: every packet starts on
  // a 64-byte line, and uids, the creation count and LIFO reuse are what
  // they were when each packet was a heap chunk of its own.
  sim::Simulator sim;
  auto& pool = PacketPool::of(sim);
  constexpr std::size_t kCount = 3 * PacketPool::kSlabPackets + 1;
  std::vector<PacketPtr> live;
  for (std::size_t i = 0; i < kCount; ++i) {
    live.push_back(pool.acquire());
    const auto at = reinterpret_cast<std::uintptr_t>(live.back().get());
    EXPECT_EQ(at % 64, 0u) << "packet " << i;
    EXPECT_EQ(live.back()->uid, i + 1);
  }
  EXPECT_EQ(pool.allocated(), kCount);
  EXPECT_EQ(pool.reused(), 0u);
  EXPECT_EQ(pool.capacity(), 4 * PacketPool::kSlabPackets);
  std::set<const Packet*> distinct;
  for (const PacketPtr& p : live) distinct.insert(p.get());
  EXPECT_EQ(distinct.size(), kCount);

  // Release three packets from different slabs, then acquire three: the
  // last released comes back first.
  const Packet* a = live[5].get();
  const Packet* b = live[300].get();
  const Packet* c = live[600].get();
  live[5].reset();
  live[300].reset();
  live[600].reset();
  EXPECT_EQ(pool.free_count(), 3u);
  live[5] = pool.acquire();
  live[300] = pool.acquire();
  live[600] = pool.acquire();
  EXPECT_EQ(live[5].get(), c);
  EXPECT_EQ(live[300].get(), b);
  EXPECT_EQ(live[600].get(), a);
  EXPECT_EQ(live[600]->uid, kCount + 3);
  EXPECT_EQ(pool.allocated(), kCount);
  EXPECT_EQ(pool.reused(), 3u);
  EXPECT_EQ(pool.capacity(), 4 * PacketPool::kSlabPackets);
}

TEST(PacketPool, HeapPacketsArePlainDeletable) {
  // make_packet() without a Simulator builds a heap packet whose deleter
  // names no pool, so a raw pointer released from it may be rewrapped with
  // a default deleter and plainly deleted. (A pool packet may not: it lives
  // in a slab slot, and its deleter is its only way back.)
  PacketPtr p = make_packet();
  EXPECT_EQ(p.get_deleter().pool, nullptr);
  PacketPtr rewrapped(p.release());
  rewrapped.reset();
  EXPECT_EQ(rewrapped, nullptr);
}

TEST(PacketPool, DestructionFreesSlabsAndColdRecords) {
  // Packets in several slabs, some carrying SACK and trace records, some
  // released and some still queued in an event when the Simulator goes:
  // its pool frees every slab and record. Run under ASan this shows neither
  // a leak nor a use after free.
  auto simulator = std::make_unique<sim::Simulator>();
  auto& pool = PacketPool::of(*simulator);
  std::vector<PacketPtr> live;
  for (std::size_t i = 0; i < 2 * PacketPool::kSlabPackets + 1; ++i) {
    live.push_back(pool.acquire());
    if (i % 7 == 0) pool.cold(*live.back()).trace.push(5);
  }
  EXPECT_EQ(pool.capacity(), 3 * PacketPool::kSlabPackets);
  for (std::size_t i = 0; i < live.size(); i += 2) live[i].reset();
  simulator->schedule_in(1, [p = std::move(live[1])] { (void)p; });
  live.clear();
  EXPECT_EQ(pool.free_count(), 2 * PacketPool::kSlabPackets);
  simulator.reset();  // the pending event releases into the live pool first
}

#ifdef CLOVE_POOL_ASAN
TEST(PacketPoolDeathTest, ReadOfReleasedPacketIsReported) {
  // Under AddressSanitizer a released slot stays poisoned until acquire()
  // builds a packet in it again, so a read through a stale pointer fails.
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        PacketPtr p = make_packet(sim);
        const Packet* stale = p.get();
        p.reset();
        volatile std::uint8_t ttl = stale->ttl;
        (void)ttl;
      },
      "use-after-poison");
}
#endif

TEST(PacketPool, AttachesToSimulatorExtensionSlot) {
  sim::Simulator sim;
  EXPECT_EQ(sim.extension(), nullptr);
  auto& pool = PacketPool::of(sim);
  EXPECT_EQ(sim.extension(), &pool);
  EXPECT_EQ(&PacketPool::of(sim), &pool);  // idempotent
}

TEST(WireHash, SaltedHashComposesToHashTuple) {
  // The fast path splits ECMP hashing into a per-packet prehash plus a
  // per-switch salted finalize; the split must agree with the one-shot form
  // for every salt or switches would disagree about path choices.
  const FiveTuple t{3, 9, 4242, 80, Proto::kStt};
  for (std::uint64_t salt : {0ull, 1ull, 7ull, 0xC09Aull, ~0ull}) {
    EXPECT_EQ(hash_tuple(t, salt), salted_hash(tuple_prehash(t), salt));
  }
}

TEST(WireHash, LazilyCachedAndInvalidated) {
  Packet p;
  p.inner = FiveTuple{1, 2, 1000, 80, Proto::kTcp};
  EXPECT_FALSE(p.wire_hash_cached());
  const std::uint64_t h = p.wire_hash();
  EXPECT_TRUE(p.wire_hash_cached());
  EXPECT_EQ(h, tuple_prehash(p.inner));
  EXPECT_EQ(p.wire_hash(), h);  // stable while cached

  // A wire-tuple mutation without invalidation would serve the stale value —
  // this is exactly the bug invalidate_wire_hash() exists to prevent.
  p.inner.src_port = 1001;
  EXPECT_EQ(p.wire_hash(), h);  // stale: cache not yet invalidated
  p.invalidate_wire_hash();
  EXPECT_FALSE(p.wire_hash_cached());
  EXPECT_EQ(p.wire_hash(), tuple_prehash(p.inner));
  EXPECT_NE(p.wire_hash(), h);
}

TEST(WireHash, FollowsWireTupleAcrossEncapAndDecap) {
  Packet p;
  p.inner = FiveTuple{1, 2, 1000, 80, Proto::kTcp};
  const std::uint64_t inner_hash = p.wire_hash();

  // Encapsulation changes the wire tuple to the outer header (the
  // hypervisor's vm_send invalidates right after building it).
  p.encap.present = true;
  p.encap.tuple = FiveTuple{100, 200, 55555, 7471, Proto::kStt};
  p.invalidate_wire_hash();
  EXPECT_EQ(p.wire_hash(), tuple_prehash(p.encap.tuple));
  EXPECT_NE(p.wire_hash(), inner_hash);

  // Decap restores the inner tuple as the wire tuple (handle_data's site).
  p.encap = EncapHeader{};
  p.invalidate_wire_hash();
  EXPECT_EQ(p.wire_hash(), inner_hash);
}

TEST(WireHash, PoolRecycleClearsCache) {
  // A recycled packet is reconstructed in place; a surviving stale cache
  // would hash the previous flow's tuple for the new packet.
  sim::Simulator sim;
  auto p = make_packet(sim);
  p->inner = FiveTuple{1, 2, 3, 4, Proto::kTcp};
  (void)p->wire_hash();
  EXPECT_TRUE(p->wire_hash_cached());
  Packet* raw = p.get();
  p.reset();  // back to the pool
  auto q = make_packet(sim);
  ASSERT_EQ(q.get(), raw);  // LIFO reuse of the same storage
  EXPECT_FALSE(q->wire_hash_cached());
}

}  // namespace
}  // namespace clove::net
