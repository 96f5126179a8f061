// Tests for the link model: serialization, queuing, drops, ECN marking,
// telemetry hooks and failure semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/packet_pool.hpp"
#include "sim/simulator.hpp"
#include "telemetry/scope.hpp"
#include "test_util.hpp"

namespace clove::net {
namespace {

using clove::testutil::SinkNode;
using clove::testutil::make_data;
using clove::testutil::tuple;

/// A terminal node that records every packet delivered to it and when.
class TimedSink : public Node {
 public:
  explicit TimedSink(sim::Simulator& sim) : Node(2, "timed"), sim_(sim) {}

  void receive(PacketPtr pkt, int /*in_port*/) override {
    at.push_back(sim_.now());
    received.push_back(std::move(pkt));
  }

  std::vector<sim::Time> at;
  std::vector<PacketPtr> received;

 private:
  sim::Simulator& sim_;
};

class LinkTest : public ::testing::Test {
 protected:
  LinkConfig cfg() {
    LinkConfig c;
    c.rate_bytes_per_sec = 1e9;  // 1 GB/s: 1 byte == 1 ns
    c.propagation = 1000;
    c.queue_capacity_bytes = 10'000;
    c.ecn_threshold_bytes = 4'000;
    return c;
  }

  sim::Simulator sim;
  SinkNode sink{1, "sink"};
};

TEST_F(LinkTest, DeliversAfterSerializationPlusPropagation) {
  Link link(sim, 0, "l", &sink, 3, cfg());
  auto p = make_data(tuple(10, 1), 0, 1000);
  const sim::Time expect =
      link.serialization_delay(p->wire_size()) + cfg().propagation;
  link.enqueue(std::move(p));
  sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sim.now(), expect);
  EXPECT_EQ(sink.in_ports[0], 3);
}

TEST_F(LinkTest, SerializesBackToBack) {
  Link link(sim, 0, "l", &sink, 0, cfg());
  for (int i = 0; i < 3; ++i) link.enqueue(make_data(tuple(10, 1), 0, 1000));
  sim.run();
  ASSERT_EQ(sink.received.size(), 3u);
  const sim::Time per_pkt = link.serialization_delay(1000 + Packet::kHeaderBytes);
  EXPECT_EQ(sim.now(), 3 * per_pkt + cfg().propagation);
}

TEST_F(LinkTest, DropsWhenQueueFull) {
  Link link(sim, 0, "l", &sink, 0, cfg());
  // Capacity 10k bytes; each packet ~1078 wire bytes. One packet goes into
  // service immediately; ~9 fit in the queue; the rest drop.
  for (int i = 0; i < 20; ++i) link.enqueue(make_data(tuple(10, 1), 0, 1000));
  sim.run();
  EXPECT_GT(link.stats().drops_overflow, 0u);
  EXPECT_EQ(sink.received.size() + link.stats().drops_overflow, 20u);
}

TEST_F(LinkTest, EcnMarksOuterEctPacketsAboveThreshold) {
  Link link(sim, 0, "l", &sink, 0, cfg());
  for (int i = 0; i < 9; ++i) {
    auto p = make_data(tuple(10, 1), 0, 1000);
    p->encap.present = true;
    p->encap.tuple = tuple(10, 1, 5000, 7471);
    p->encap.ecn.ect = true;
    link.enqueue(std::move(p));
  }
  sim.run();
  EXPECT_GT(link.stats().ecn_marks, 0u);
  // Early packets saw an empty queue: unmarked. Later ones saw > threshold.
  EXPECT_FALSE(sink.received.front()->encap.ecn.ce);
  EXPECT_TRUE(sink.received.back()->encap.ecn.ce);
}

TEST_F(LinkTest, NoEcnMarkWithoutEct) {
  Link link(sim, 0, "l", &sink, 0, cfg());
  for (int i = 0; i < 9; ++i) {
    auto p = make_data(tuple(10, 1), 0, 1000);
    p->encap.present = true;
    p->encap.ecn.ect = false;
    link.enqueue(std::move(p));
  }
  sim.run();
  EXPECT_EQ(link.stats().ecn_marks, 0u);
}

TEST_F(LinkTest, MarksInnerHeaderWhenNotEncapped) {
  Link link(sim, 0, "l", &sink, 0, cfg());
  for (int i = 0; i < 9; ++i) {
    auto p = make_data(tuple(10, 1), 0, 1000);
    p->ecn.ect = true;
    link.enqueue(std::move(p));
  }
  sim.run();
  EXPECT_GT(link.stats().ecn_marks, 0u);
  EXPECT_TRUE(sink.received.back()->ecn.ce);
}

TEST_F(LinkTest, EcnMarkingDisableable) {
  LinkConfig c = cfg();
  c.ecn_marking = false;
  Link link(sim, 0, "l", &sink, 0, c);
  for (int i = 0; i < 9; ++i) {
    auto p = make_data(tuple(10, 1), 0, 1000);
    p->encap.present = true;
    p->encap.ecn.ect = true;
    link.enqueue(std::move(p));
  }
  sim.run();
  EXPECT_EQ(link.stats().ecn_marks, 0u);
}

TEST_F(LinkTest, DownDropsTraffic) {
  Link link(sim, 0, "l", &sink, 0, cfg());
  link.down();
  link.enqueue(make_data(tuple(10, 1), 0, 1000));
  sim.run();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_GT(link.stats().drops_down, 0u);
}

TEST_F(LinkTest, DownFlushesQueuedPackets) {
  Link link(sim, 0, "l", &sink, 0, cfg());
  for (int i = 0; i < 5; ++i) link.enqueue(make_data(tuple(10, 1), 0, 1000));
  link.down();
  sim.run();
  EXPECT_TRUE(sink.received.empty());
}

TEST_F(LinkTest, UpRestoresService) {
  Link link(sim, 0, "l", &sink, 0, cfg());
  link.down();
  link.up();
  link.enqueue(make_data(tuple(10, 1), 0, 1000));
  sim.run();
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST_F(LinkTest, DownUpNoEarlyDeliveryFromStaleEvents) {
  Link link(sim, 0, "l", &sink, 0, cfg());
  link.enqueue(make_data(tuple(10, 1), 0, 1000));
  // Let serialization finish so the packet sits in the propagation pipe,
  // then fail + restore the link and send a new packet.
  sim.run(link.serialization_delay(1078) + 1);
  link.down();
  link.up();
  link.enqueue(make_data(tuple(10, 1), 0, 500));
  sim.run();
  // Only the second packet arrives, and not before its full delay.
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0]->payload, 500u);
}

TEST_F(LinkTest, FlapDuringSerializationKeepsLineRate) {
  TimedSink timed(sim);
  Link link(sim, 0, "l", &timed, 0, cfg());
  link.enqueue(make_data(tuple(10, 1), 0, 1000));  // in service until 1078
  // Flap mid-serialization and send two more: the first packet's completion
  // event must not complete the new one early, which would put two
  // transmissions on the wire at once.
  sim.schedule_at(900, [&link] {
    link.down();
    link.up();
    link.enqueue(make_data(tuple(10, 1), 1, 1000));
    link.enqueue(make_data(tuple(10, 1), 2, 1000));
  });
  sim.run();
  const sim::Time ser = link.serialization_delay(1000 + Packet::kHeaderBytes);
  const sim::Time prop = cfg().propagation;
  EXPECT_EQ(timed.at, (std::vector<sim::Time>{900 + ser + prop,
                                              900 + 2 * ser + prop}));
  EXPECT_EQ(link.stats().tx_packets, 2u);
  EXPECT_EQ(link.stats().drops_down, 1u);
}

TEST_F(LinkTest, IntTelemetryAppendsUtilization) {
  LinkConfig c = cfg();
  c.int_telemetry = true;
  Link link(sim, 0, "l", &sink, 0, c);
  auto p = make_data(tuple(10, 1), 0, 1000);
  p->int_stack.enabled = true;
  link.enqueue(std::move(p));
  sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0]->int_stack.count, 1);
}

TEST_F(LinkTest, IntTelemetryRequiresEnabledStack) {
  LinkConfig c = cfg();
  c.int_telemetry = true;
  Link link(sim, 0, "l", &sink, 0, c);
  link.enqueue(make_data(tuple(10, 1), 0, 1000));  // stack not enabled
  sim.run();
  EXPECT_EQ(sink.received[0]->int_stack.count, 0);
}

TEST_F(LinkTest, CongaMetricFoldsUtilization) {
  LinkConfig c = cfg();
  c.conga_metric = true;
  Link link(sim, 0, "l", &sink, 0, c);
  // Drive utilization up first.
  for (int i = 0; i < 50; ++i) link.enqueue(make_data(tuple(10, 1), 0, 100));
  sim.run();
  auto p = make_data(tuple(10, 1), 0, 100);
  p->conga.present = true;
  p->conga.ce = 0;
  link.enqueue(std::move(p));
  sim.run();
  EXPECT_GE(sink.received.back()->conga.ce, 0);  // folded (may be 0 if idle)
}

TEST_F(LinkTest, StatsCountTx) {
  Link link(sim, 0, "l", &sink, 0, cfg());
  link.enqueue(make_data(tuple(10, 1), 0, 1000));
  link.enqueue(make_data(tuple(10, 1), 0, 1000));
  sim.run();
  EXPECT_EQ(link.stats().tx_packets, 2u);
  EXPECT_EQ(link.stats().tx_bytes, 2u * (1000 + Packet::kHeaderBytes));
  EXPECT_GT(link.stats().max_queue_bytes, 0);
}

TEST_F(LinkTest, UtilizationRisesUnderLoad) {
  Link link(sim, 0, "l", &sink, 0, cfg());
  // Feed the link at close to line rate for several DRE intervals without
  // overflowing the queue: one ~1078B packet every 1.1us on a 1GB/s link.
  for (int i = 0; i < 500; ++i) {
    sim.schedule_at(i * 1100, [&link] {
      link.enqueue(make_data(tuple(10, 1), 0, 1000));
    });
  }
  sim.run();
  EXPECT_GT(link.utilization(), 0.5);
}

// ---------------------------------------------------------------------------
// Unbuilt packets: a PacketRecipe enqueued as one entry, or a probe reply
// queued as a descriptor, must be indistinguishable from the same packets
// enqueued built
// ---------------------------------------------------------------------------

/// Packet i of the run carries seq i from source port 2000 + i.
class SeqRecipe final : public PacketRecipe {
 public:
  explicit SeqRecipe(std::uint32_t payload) : payload_(payload) {
    wire_size = payload + Packet::kHeaderBytes;
  }
  void build(Packet& p, std::uint32_t i) const override {
    p.inner = tuple(10, 1, static_cast<std::uint16_t>(2000 + i));
    p.payload = payload_;
    p.tcp.seq = i;
  }

 private:
  std::uint32_t payload_;
};

struct UnbuiltScenario {
  std::uint32_t prefill{0};   ///< 1078-byte packets queued before the rest
  std::uint32_t count{0};     ///< unbuilt packets offered
  std::uint32_t payload{100}; ///< of each run packet
  double fault_drop{0.0};
  sim::Time down_at{-1};      ///< take the link down then; -1: never
  bool conga{false};          ///< replies carry a CONGA stamp the link raises
};

struct Delivery {
  sim::Time at{0};
  std::uint64_t uid{0};
  FiveTuple inner{};
  FiveTuple wire{};
  std::uint8_t ttl{0};
  std::uint64_t seq{0};
  std::uint32_t payload{0};
  ProbeInfo probe{};
  CongaFields conga{};
  std::uint64_t wire_hash{0};
  bool operator==(const Delivery&) const = default;
};

struct Loss {
  std::uint64_t uid{0};
  telemetry::JourneyOutcome outcome{};
  sim::Time at{0};
  bool operator==(const Loss&) const = default;
};

struct UnbuiltOutcome {
  std::vector<Delivery> delivered;
  std::vector<Loss> lost;  ///< the flight recorder's on_drop record
  LinkStats stats;
};

/// A link into a TimedSink, built under a telemetry scope whose flight
/// recorder records every journey, so every on_drop the link reports is
/// kept.
struct LinkRig {
  explicit LinkRig(const UnbuiltScenario& sc)
      : scope(settings()), guard(scope), sink(sim),
        link(sim, 0, "l", &sink, 0, config(sc)) {
    if (sc.fault_drop > 0.0) link.set_fault_drop(sc.fault_drop, 42);
  }

  static telemetry::ScopeSettings settings() {
    telemetry::ScopeSettings st;
    st.enabled = true;
    st.flight.mode = telemetry::FlightMode::kFull;
    return st;
  }
  static LinkConfig config(const UnbuiltScenario& sc) {
    LinkConfig c;
    c.rate_bytes_per_sec = 1e9;
    c.propagation = 1000;
    c.queue_capacity_bytes = 10'000;
    c.ecn_threshold_bytes = 4'000;
    c.conga_metric = sc.conga;
    c.dre_interval = 2 * sim::kMicrosecond;  // so ce rises within the test
    return c;
  }

  void track(std::uint64_t uid) {
    scope.flight_recorder()->on_pick(uid, 10, "h", {10, 1, 0, 0}, 1, 0, 0,
                                     "test", 0.0, 0, 0, sim.now());
  }
  void send_one(std::uint32_t payload) {
    PacketPtr p = make_packet(sim);
    p->inner = tuple(10, 1);
    p->payload = payload;
    track(p->uid);
    link.enqueue(std::move(p));
  }

  /// Take the link down at `sc.down_at`, run to the end and collect.
  UnbuiltOutcome finish(const UnbuiltScenario& sc) {
    if (sc.down_at >= 0) sim.schedule_at(sc.down_at, [this] { link.down(); });
    sim.run();
    UnbuiltOutcome out;
    for (std::size_t i = 0; i < sink.received.size(); ++i) {
      const Packet& p = *sink.received[i];
      out.delivered.push_back({sink.at[i], p.uid, p.inner, p.wire_tuple(),
                               p.ttl, p.tcp.seq, p.payload, p.probe, p.conga,
                               p.wire_hash()});
    }
    const std::uint64_t last_uid = make_packet(sim)->uid;
    for (std::uint64_t uid = 1; uid < last_uid; ++uid) {
      if (const telemetry::Journey* j =
              scope.flight_recorder()->find_journey(uid)) {
        out.lost.push_back({uid, j->outcome, j->t_end});
      }
    }
    out.stats = link.stats();
    return out;
  }

  telemetry::Scope scope;
  telemetry::ScopeGuard guard;
  sim::Simulator sim;
  TimedSink sink;
  Link link;
};

/// Expects identical outcomes from `built` and `unbuilt`; returns one.
UnbuiltOutcome expect_same(const UnbuiltOutcome& built,
                           const UnbuiltOutcome& unbuilt) {
  EXPECT_EQ(unbuilt.delivered, built.delivered);
  EXPECT_EQ(unbuilt.lost, built.lost);
  EXPECT_EQ(unbuilt.stats, built.stats);
  EXPECT_FALSE(built.delivered.empty());
  return built;
}

/// Drive `sc` through a fresh link, the run either enqueued as one entry or
/// materialized and enqueued packet by packet. One more packet follows it.
UnbuiltOutcome drive_run(const UnbuiltScenario& sc, bool as_run) {
  LinkRig rig(sc);
  for (std::uint32_t i = 0; i < sc.prefill; ++i) rig.send_one(1000);
  auto run = std::make_shared<SeqRecipe>(sc.payload);
  run->count = sc.count;
  run->first_uid = PacketPool::of(rig.sim).reserve_uids(sc.count);
  for (std::uint32_t i = 0; i < sc.count; ++i) rig.track(run->first_uid + i);
  if (as_run) {
    rig.link.enqueue_run(run);
  } else {
    for (PacketPtr& p : testutil::materialize(rig.sim, *run)) {
      rig.link.enqueue(std::move(p));
    }
  }
  rig.send_one(50);
  return rig.finish(sc);
}

UnbuiltOutcome expect_run_matches(const UnbuiltScenario& sc) {
  return expect_same(drive_run(sc, /*as_run=*/false),
                     drive_run(sc, /*as_run=*/true));
}

TEST(Link, RunMatchesPerPacketEnqueue) {
  {
    SCOPED_TRACE("idle queue");
    const UnbuiltOutcome o = expect_run_matches({.count = 8});
    EXPECT_EQ(o.delivered.size(), 9u);
  }
  {
    SCOPED_TRACE("nearly full queue: overflow truncates the run");
    const UnbuiltOutcome o =
        expect_run_matches({.prefill = 9, .count = 12, .payload = 200});
    EXPECT_GT(o.stats.drops_overflow, 0u);
    EXPECT_LT(o.stats.drops_overflow, 12u);
  }
  {
    SCOPED_TRACE("fault drops leave holes in the run");
    const UnbuiltOutcome o =
        expect_run_matches({.count = 40, .fault_drop = 0.3});
    EXPECT_GT(o.stats.drops_fault, 5u);
    EXPECT_LT(o.stats.drops_fault, 35u);
  }
  {
    SCOPED_TRACE("down() flushes unbuilt packets");
    const UnbuiltOutcome o =
        expect_run_matches({.count = 20, .payload = 500, .down_at = 2000});
    EXPECT_GT(o.stats.drops_down, 10u);
    const auto down =
        std::count_if(o.lost.begin(), o.lost.end(), [](const Loss& l) {
          return l.outcome == telemetry::JourneyOutcome::kDropLinkDown;
        });
    EXPECT_EQ(static_cast<std::uint64_t>(down), o.stats.drops_down);
  }
  {
    SCOPED_TRACE("down() with holes and a packet behind the run");
    const UnbuiltOutcome o = expect_run_matches(
        {.prefill = 2, .count = 30, .fault_drop = 0.3, .down_at = 2500});
    EXPECT_GT(o.stats.drops_fault, 0u);
    EXPECT_GT(o.stats.drops_down, 10u);
  }
}

/// Drive `sc` through a fresh link with `sc.count` probe replies, each
/// either queued as a descriptor or built and enqueued. Every fifth reply
/// is followed by a data packet, which splits the queued replies into
/// several entries; one more packet follows them all.
UnbuiltOutcome drive_replies(const UnbuiltScenario& sc, bool as_descriptor) {
  LinkRig rig(sc);
  for (std::uint32_t i = 0; i < sc.prefill; ++i) rig.send_one(1000);
  PacketPool& pool = PacketPool::of(rig.sim);
  for (std::uint32_t i = 0; i < sc.count; ++i) {
    ProbeReply r;
    r.uid = pool.reserve_uids(1);
    r.src = 5;
    r.dst = 10;
    r.probe.probe_id = 100 + i;
    r.probe.hop_ip = 5;
    r.probe.hop_ingress = static_cast<std::int32_t>(i % 3);
    r.probe.probed_port = static_cast<std::uint16_t>(3000 + i);
    r.probe.hop_index = static_cast<std::uint8_t>(1 + i % 6);
    r.probe.from_destination = i % 2 == 0;
    if (sc.conga) {
      // What a CONGA leaf stamps on a reply entering the fabric.
      r.conga = CongaFields{.src_leaf = 1, .present = true,
                            .lb_tag = static_cast<std::uint8_t>(i % 2),
                            .fb_present = true, .fb_tag = 1, .fb_ce = 3};
    }
    rig.track(r.uid);
    if (as_descriptor) {
      rig.link.enqueue_reply(r);
    } else {
      PacketPtr p = pool.acquire(r.uid);
      r.build(*p);
      rig.link.enqueue(std::move(p));
    }
    if (i % 5 == 4) rig.send_one(200);
  }
  rig.send_one(50);
  return rig.finish(sc);
}

UnbuiltOutcome expect_reply_matches(const UnbuiltScenario& sc) {
  return expect_same(drive_replies(sc, /*as_descriptor=*/false),
                     drive_replies(sc, /*as_descriptor=*/true));
}

TEST(Link, DeferredReplyMatchesBuiltReply) {
  const auto replies = [](const UnbuiltOutcome& o) {
    return std::count_if(
        o.delivered.begin(), o.delivered.end(),
        [](const Delivery& d) { return d.inner.proto == Proto::kProbeReply; });
  };
  {
    SCOPED_TRACE("idle link");
    const UnbuiltOutcome o = expect_reply_matches({.count = 12});
    EXPECT_EQ(replies(o), 12);
    EXPECT_EQ(o.delivered.size(), 15u);
  }
  {
    SCOPED_TRACE("nearly full queue overflows");
    const UnbuiltOutcome o = expect_reply_matches({.prefill = 8, .count = 20});
    EXPECT_GT(o.stats.drops_overflow, 0u);
    EXPECT_GT(replies(o), 0);
  }
  {
    SCOPED_TRACE("fault drops");
    const UnbuiltOutcome o =
        expect_reply_matches({.count = 40, .fault_drop = 0.3});
    EXPECT_GT(o.stats.drops_fault, 5u);
    EXPECT_LT(o.stats.drops_fault, 40u);
  }
  {
    SCOPED_TRACE("down() with deferred replies queued");
    const UnbuiltOutcome o = expect_reply_matches(
        {.prefill = 2, .count = 30, .fault_drop = 0.2, .down_at = 3000});
    EXPECT_GT(o.stats.drops_down, 10u);
    const auto down =
        std::count_if(o.lost.begin(), o.lost.end(), [](const Loss& l) {
          return l.outcome == telemetry::JourneyOutcome::kDropLinkDown;
        });
    EXPECT_EQ(static_cast<std::uint64_t>(down), o.stats.drops_down);
  }
  {
    SCOPED_TRACE("a CONGA leaf's reply: the stamp survives and ce rises");
    const UnbuiltOutcome o =
        expect_reply_matches({.prefill = 6, .count = 12, .conga = true});
    ASSERT_GT(replies(o), 0);
    for (const Delivery& d : o.delivered) {
      if (d.inner.proto != Proto::kProbeReply) continue;
      EXPECT_TRUE(d.conga.present);
      EXPECT_EQ(d.conga.src_leaf, 1u);
      EXPECT_EQ(d.conga.fb_ce, 3);
    }
    EXPECT_TRUE(std::any_of(o.delivered.begin(), o.delivered.end(),
                            [](const Delivery& d) { return d.conga.ce > 0; }));
  }
}

}  // namespace
}  // namespace clove::net
