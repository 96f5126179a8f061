// Tests for the link model: serialization, queuing, drops, ECN marking,
// telemetry hooks and failure semantics.

#include <gtest/gtest.h>

#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace clove::net {
namespace {

using clove::testutil::SinkNode;
using clove::testutil::make_data;
using clove::testutil::tuple;

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

}  // namespace
}  // namespace clove::net
