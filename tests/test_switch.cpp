// Tests for the ECMP switch: routing, hashing, TTL handling and traceroute
// replies.

#include <gtest/gtest.h>

#include <set>

#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace clove::net {
namespace {

using clove::testutil::SinkNode;
using clove::testutil::make_data;
using clove::testutil::tuple;

/// A switch wired to several sinks: sink[i] behind port i.
class SwitchFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    topo = std::make_unique<Topology>(sim);
    sw = topo->add_switch("sw");
    for (int i = 0; i < 4; ++i) {
      auto* sink = topo->add_host<SinkNode>("sink" + std::to_string(i));
      sinks.push_back(sink);
      LinkConfig cfg;
      cfg.rate_bytes_per_sec = 1e9;
      cfg.propagation = 100;
      topo->connect(sw, sink, cfg);
    }
    topo->compute_routes();
  }

  std::size_t total_received() const {
    std::size_t n = 0;
    for (auto* s : sinks) n += s->received.size();
    return n;
  }

  sim::Simulator sim;
  std::unique_ptr<Topology> topo;
  Switch* sw{nullptr};
  std::vector<SinkNode*> sinks;
};

TEST_F(SwitchFixture, RoutesToCorrectHost) {
  auto p = make_data(tuple(99, sinks[2]->ip()), 0, 100);
  sw->receive(std::move(p), -1);
  sim.run();
  EXPECT_EQ(sinks[2]->received.size(), 1u);
  EXPECT_EQ(total_received(), 1u);
}

TEST_F(SwitchFixture, DropsWithoutRoute) {
  auto p = make_data(tuple(99, 12345), 0, 100);
  sw->receive(std::move(p), -1);
  sim.run();
  EXPECT_EQ(total_received(), 0u);
  EXPECT_EQ(sw->stats().no_route_drops, 1u);
}

TEST_F(SwitchFixture, DecrementsTtlAndDropsAtZero) {
  auto p = make_data(tuple(99, sinks[0]->ip()), 0, 100);
  p->ttl = 1;  // expires at this switch
  sw->receive(std::move(p), -1);
  sim.run();
  EXPECT_EQ(total_received(), 0u);
  EXPECT_EQ(sw->stats().ttl_drops, 1u);
}

TEST_F(SwitchFixture, TtlSurvivesWhenAboveOne) {
  auto p = make_data(tuple(99, sinks[0]->ip()), 0, 100);
  p->ttl = 2;
  sw->receive(std::move(p), -1);
  sim.run();
  ASSERT_EQ(sinks[0]->received.size(), 1u);
  EXPECT_EQ(sinks[0]->received[0]->ttl, 1);
}

TEST_F(SwitchFixture, ProbeTtlExpiryGeneratesReply) {
  auto p = make_data(tuple(sinks[3]->ip(), sinks[0]->ip()), 0, 0);
  p->ttl = 1;
  p->inner.proto = Proto::kProbe;
  p->probe.probe_id = 77;
  p->probe.probed_port = 5555;
  p->probe.hop_index = 1;
  sw->receive(std::move(p), -1);
  sim.run();
  // The reply is routed to the probe's source (sink3).
  ASSERT_EQ(sinks[3]->received.size(), 1u);
  const Packet& reply = *sinks[3]->received[0];
  EXPECT_EQ(reply.inner.proto, Proto::kProbeReply);
  EXPECT_EQ(reply.probe.probe_id, 77u);
  EXPECT_EQ(reply.probe.probed_port, 5555);
  EXPECT_EQ(reply.probe.hop_index, 1);
  EXPECT_EQ(reply.probe.hop_ip, sw->ip());
  EXPECT_FALSE(reply.probe.from_destination);
  EXPECT_EQ(sw->stats().probe_replies, 1u);
}

TEST_F(SwitchFixture, NonProbeTtlExpiryIsSilent) {
  auto p = make_data(tuple(sinks[3]->ip(), sinks[0]->ip()), 0, 100);
  p->ttl = 1;
  sw->receive(std::move(p), -1);
  sim.run();
  EXPECT_EQ(total_received(), 0u);
  EXPECT_EQ(sw->stats().probe_replies, 0u);
}

TEST(SwitchEcmp, HashSpreadsOverEqualPaths) {
  // A switch with a 4-way ECMP route: distinct outer source ports should
  // spread across all four ports, roughly evenly.
  sim::Simulator sim;
  Topology topo(sim);
  Switch* sw = topo.add_switch("sw");
  auto* dst = topo.add_host<SinkNode>("dst");
  // Four parallel connections to the same destination.
  LinkConfig cfg;
  for (int i = 0; i < 4; ++i) topo.connect(sw, dst, cfg);
  topo.compute_routes();
  const auto* route = sw->route(dst->ip());
  ASSERT_NE(route, nullptr);
  ASSERT_EQ(route->size(), 4u);

  std::vector<int> counts(4, 0);
  for (int sp = 0; sp < 4000; ++sp) {
    FiveTuple t{1, dst->ip(), static_cast<std::uint16_t>(sp), 7471,
                Proto::kStt};
    ++counts[static_cast<std::size_t>(sw->ecmp_port(t, 4))];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(SwitchEcmp, SameTupleAlwaysSamePort) {
  sim::Simulator sim;
  Topology topo(sim);
  Switch* sw = topo.add_switch("sw");
  FiveTuple t{1, 2, 1000, 7471, Proto::kStt};
  const int first = sw->ecmp_port(t, 4);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sw->ecmp_port(t, 4), first);
}

TEST(SwitchEcmp, NexthopCountChangeRemapsFlows) {
  // The property that forces Clove to re-probe after failures: changing the
  // modulus remaps (most) port->path assignments.
  sim::Simulator sim;
  Topology topo(sim);
  Switch* sw = topo.add_switch("sw");
  int remapped = 0;
  for (int sp = 0; sp < 1000; ++sp) {
    FiveTuple t{1, 2, static_cast<std::uint16_t>(sp), 7471, Proto::kStt};
    if (sw->ecmp_port(t, 4) != sw->ecmp_port(t, 3)) ++remapped;
  }
  EXPECT_GT(remapped, 400);
}

TEST(SwitchEcmp, DifferentSwitchesHashDifferently) {
  sim::Simulator sim;
  Topology topo(sim);
  Switch* a = topo.add_switch("a");
  Switch* b = topo.add_switch("b");
  int differ = 0;
  for (int sp = 0; sp < 1000; ++sp) {
    FiveTuple t{1, 2, static_cast<std::uint16_t>(sp), 7471, Proto::kStt};
    if (a->ecmp_port(t, 4) != b->ecmp_port(t, 4)) ++differ;
  }
  EXPECT_GT(differ, 500);
}

}  // namespace
}  // namespace clove::net
