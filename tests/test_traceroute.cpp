// Tests for path discovery: greedy disjoint selection (unit) and the full
// traceroute exchange over a real leaf-spine fabric (integration).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "harness/experiment.hpp"
#include "lb/clove_ecn.hpp"
#include "lb/policy.hpp"
#include "net/packet_pool.hpp"
#include "net/topology.hpp"
#include "overlay/hypervisor.hpp"
#include "overlay/traceroute.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace clove::overlay {
namespace {

PathInfo make_path(std::uint16_t port,
                   std::vector<std::pair<net::IpAddr, int>> hops) {
  PathInfo p;
  p.port = port;
  for (auto [node, ingress] : hops) p.hops.push_back(PathHop{node, ingress});
  return p;
}

/// Per-path state as a policy keeps it, for lb::remap_paths.
struct Learned {
  PathInfo info;
  int state{0};
};

/// The state each path of `next` gets when it replaces `old`.
std::vector<int> remapped(std::vector<Learned> old,
                          std::vector<PathInfo> next) {
  lb::remap_paths(old, PathSet{std::move(next), 0});
  std::vector<int> out;
  for (const Learned& l : old) out.push_back(l.state);
  return out;
}

TEST(PathInfo, SignatureStable) {
  // A path's identity is its hop list, whichever port maps to it.
  auto a = make_path(1, {{10, 0}, {20, 1}, {30, 0}});
  auto b = make_path(2, {{10, 0}, {20, 1}, {30, 0}});
  auto c = make_path(3, {{10, 0}, {21, 1}, {30, 0}});
  EXPECT_EQ(remapped({{a, 7}}, {c, b}), (std::vector<int>{0, 7}));
}

TEST(PathInfo, SignatureDistinguishesParallelLinks) {
  // Same node sequence, different ingress interfaces => different links.
  auto a = make_path(1, {{10, 0}, {20, 0}, {30, 0}});
  auto b = make_path(2, {{10, 0}, {20, 1}, {30, 0}});
  EXPECT_EQ(remapped({{a, 7}}, {b}), (std::vector<int>{0}));
}

TEST(PathInfo, RemapKeepsTheFirstOfRepeatedPaths) {
  auto a = make_path(1, {{10, 0}, {20, 1}, {30, 0}});
  auto b = make_path(2, {{10, 0}, {20, 1}, {30, 0}});
  EXPECT_EQ(remapped({{a, 7}, {b, 9}}, {b, a}), (std::vector<int>{7, 7}));
}

TEST(PathInfo, SharedLinksCountsInterfaceHops) {
  auto a = make_path(1, {{10, 0}, {20, 1}, {30, 0}});
  auto b = make_path(2, {{10, 0}, {20, 1}, {31, 0}});  // shares 2 links
  auto c = make_path(3, {{11, 0}, {21, 1}, {30, 1}});  // disjoint
  EXPECT_EQ(a.shared_links(b), 2);
  EXPECT_EQ(a.shared_links(c), 0);
  EXPECT_EQ(a.shared_links(a), 3);
}

TEST(SelectDisjoint, DeduplicatesSamePath) {
  std::vector<PathInfo> cands;
  for (std::uint16_t p = 0; p < 8; ++p) {
    cands.push_back(make_path(p, {{1, 0}, {2, 0}, {9, 0}}));
  }
  auto sel = TracerouteDaemon::select_disjoint(cands, 4);
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0].port, 0);  // lowest port kept
}

TEST(SelectDisjoint, PrefersDisjointPaths) {
  // 2 spines x 2 spine-ingresses (parallel uplinks): 4 link-distinct paths
  // plus duplicates; greedy should end up with 4 distinct hop lists.
  std::vector<PathInfo> cands;
  std::uint16_t port = 100;
  for (int spine : {20, 21}) {
    for (int ingress : {0, 1}) {
      for (int dup = 0; dup < 2; ++dup) {
        cands.push_back(make_path(
            port++, {{10, 0},
                     {static_cast<net::IpAddr>(spine), ingress},
                     {200, ingress},
                     {9, 0}}));
      }
    }
  }
  auto sel = TracerouteDaemon::select_disjoint(cands, 4);
  ASSERT_EQ(sel.size(), 4u);
  std::set<std::vector<PathHop>> sigs;
  for (const auto& p : sel) sigs.insert(p.hops);
  EXPECT_EQ(sigs.size(), 4u);
}

TEST(SelectDisjoint, RespectsK) {
  std::vector<PathInfo> cands;
  for (std::uint16_t p = 0; p < 10; ++p) {
    cands.push_back(
        make_path(p, {{static_cast<net::IpAddr>(100 + p), 0}, {9, 0}}));
  }
  EXPECT_EQ(TracerouteDaemon::select_disjoint(cands, 3).size(), 3u);
  EXPECT_EQ(TracerouteDaemon::select_disjoint(cands, 100).size(), 10u);
}

TEST(SelectDisjoint, EmptyInput) {
  EXPECT_TRUE(TracerouteDaemon::select_disjoint({}, 4).empty());
}

// ---------------------------------------------------------------------------
// One daemon driven by hand: probes are captured, replies fed to on_reply
// ---------------------------------------------------------------------------

using RunPtr = std::shared_ptr<const net::PacketRecipe>;

/// A send function that builds every probe of each run and hands it to
/// `sink`, in the order the NIC would transmit them.
TracerouteDaemon::SendFn each_probe(sim::Simulator& sim,
                                    std::function<void(net::PacketPtr)> sink) {
  return [&sim, sink = std::move(sink)](const RunPtr& run) {
    for (net::PacketPtr& p : testutil::materialize(sim, *run)) {
      sink(std::move(p));
    }
  };
}

TEST(TracerouteDaemon, SampleCountIsClampedToEphemeralRange) {
  sim::Simulator sim;
  TracerouteConfig cfg;
  cfg.sample_ports = kEphemeralCount + 1000;  // more than there are ports
  cfg.max_ttl = 1;
  std::set<std::uint16_t> ports;
  TracerouteDaemon d(sim, /*self=*/1, cfg,
                     each_probe(sim,
                                [&ports](net::PacketPtr p) {
                                  ports.insert(p->probe.probed_port);
                                }),
                     nullptr);
  d.probe_now(2);  // must return: every ephemeral port, each probed once
  EXPECT_EQ(d.probes_sent(), kEphemeralCount);
  EXPECT_EQ(ports.size(), kEphemeralCount);
}

TEST(TracerouteDaemon, RoundIsOneRunOfPortsTimesTtlLadder) {
  sim::Simulator sim;
  const TracerouteConfig cfg;  // 32 ports x 6 TTLs
  std::vector<RunPtr> runs;
  TracerouteDaemon d(sim, /*self=*/1, cfg,
                     [&runs](RunPtr run) { runs.push_back(std::move(run)); },
                     nullptr);
  (void)net::make_packet(sim);  // uid 1; the round reserves the ones after it
  sim.schedule_at(7, [&d] { d.probe_now(2); });
  sim.run(8);

  ASSERT_EQ(runs.size(), 1u);
  const net::PacketRecipe& run = *runs[0];
  EXPECT_EQ(run.count, 192u);
  EXPECT_EQ(run.first_uid, 2u);
  EXPECT_EQ(d.probes_sent(), 192u);
  // Packets acquired after the round get the uids after its reserved block.
  EXPECT_EQ(net::make_packet(sim)->uid, 2u + 192u);

  // The send order is the daemon's port sample in unordered_set order, each
  // port's whole TTL ladder in turn.
  sim::Rng rng(0x7ace ^ (std::uint64_t{1} << 20));
  std::unordered_set<std::uint16_t> sample;
  while (sample.size() < 32) {
    sample.insert(static_cast<std::uint16_t>(
        kEphemeralBase + rng.uniform_int(kEphemeralCount)));
  }
  const std::vector<std::uint16_t> ports(sample.begin(), sample.end());
  const auto check = [&](const std::vector<net::PacketPtr>& probes) {
    ASSERT_EQ(probes.size(), 192u);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const net::Packet& p = *probes[i];
      const std::uint16_t port = ports[i / 6];
      const auto ttl = static_cast<std::uint8_t>(1 + i % 6);
      EXPECT_EQ(p.uid, 2u + i);
      EXPECT_EQ(p.encap.tuple,
                (net::FiveTuple{1, 2, port, kSttPort, net::Proto::kStt}));
      EXPECT_EQ(p.inner.proto, net::Proto::kProbe);
      EXPECT_EQ(p.ttl, ttl);
      EXPECT_EQ(p.probe.hop_index, ttl);
      EXPECT_EQ(p.probe.probed_port, port);
      EXPECT_EQ(p.probe.probe_id, 1u);
      EXPECT_EQ(p.sent_at, 7);
      EXPECT_EQ(p.wire_size(), run.wire_size);
    }
  };
  check(testutil::materialize(sim, run));

  // A later round leaves the probes of this one, possibly still queued at
  // a slow NIC, as they were.
  sim.run(cfg.probe_timeout + 10);
  d.probe_now(2);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1]->first_uid, 2u + 192u + 1u);
  check(testutil::materialize(sim, run));
}

class HandDrivenDaemon : public ::testing::Test {
 protected:
  static constexpr net::IpAddr kDst = 9;

  HandDrivenDaemon()
      : daemon(sim, /*self=*/1, config(),
               each_probe(sim,
                          [this](net::PacketPtr p) {
                            sent.push_back(p->probe);
                          }),
               nullptr) {}

  static TracerouteConfig config() {
    TracerouteConfig cfg;
    cfg.sample_ports = 1;
    cfg.max_ttl = 3;
    return cfg;
  }

  void reply(int hop, net::IpAddr node, bool from_destination) {
    net::Packet pkt;
    pkt.probe = sent.at(0);
    pkt.probe.hop_index = static_cast<std::uint8_t>(hop);
    pkt.probe.hop_ip = node;
    pkt.probe.hop_ingress = 0;
    pkt.probe.from_destination = from_destination;
    daemon.on_reply(pkt);
  }

  sim::Simulator sim;
  std::vector<net::ProbeInfo> sent;
  TracerouteDaemon daemon;
};

TEST_F(HandDrivenDaemon, StraySwitchRepliesOutsideTheLadderAreIgnored) {
  daemon.probe_now(kDst);
  ASSERT_EQ(sent.size(), 3u);
  reply(1, 100, false);
  reply(2, 200, false);
  reply(0, 666, false);    // below the ladder
  reply(4, 777, false);    // past max_ttl
  reply(255, 888, false);  // far past it
  reply(3, kDst, true);
  sim.run(sim::milliseconds(30));
  const PathSet* ps = daemon.paths(kDst);
  ASSERT_NE(ps, nullptr);
  ASSERT_EQ(ps->size(), 1u);
  const std::vector<PathHop> want{{100, 0}, {200, 0}, {kDst, 0}};
  EXPECT_EQ(ps->paths[0].hops, want);
}

TEST_F(HandDrivenDaemon, DestinationReplyPastMaxTtlIsIgnored) {
  daemon.probe_now(kDst);
  reply(1, 100, false);
  reply(2, 200, false);
  reply(3, 300, false);
  reply(4, kDst, true);  // no probe of this round carried hop_index 4
  sim.run(sim::milliseconds(30));
  EXPECT_EQ(daemon.paths(kDst), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end discovery on the fabric
// ---------------------------------------------------------------------------

class DiscoveryFixture : public ::testing::Test {
 protected:
  void build(bool fail_link = false) {
    topo = std::make_unique<net::Topology>(sim);
    net::LeafSpineConfig cfg;
    cfg.hosts_per_leaf = 2;
    fabric = net::build_leaf_spine(
        *topo, cfg,
        [this](net::Topology& t, const std::string& name, int) -> net::Node* {
          HypervisorConfig h;
          h.discovery.probe_interval = 100 * sim::kMillisecond;
          h.discovery.probe_timeout = 5 * sim::kMillisecond;
          return t.add_host<Hypervisor>(name, sim, h,
                                        std::make_unique<lb::CloveEcnPolicy>());
        });
    if (fail_link) topo->fail_connection(fabric.fabric_links[1][1][0]);
    src = static_cast<Hypervisor*>(fabric.hosts_by_leaf[0][0]);
    dst = static_cast<Hypervisor*>(fabric.hosts_by_leaf[1][0]);
  }

  sim::Simulator sim;
  std::unique_ptr<net::Topology> topo;
  net::LeafSpine fabric;
  Hypervisor* src{nullptr};
  Hypervisor* dst{nullptr};
};

TEST_F(DiscoveryFixture, FindsFourDisjointPaths) {
  build();
  src->start_discovery({dst->ip()});
  sim.run(sim::milliseconds(10));
  const PathSet* ps = src->discovery().paths(dst->ip());
  ASSERT_NE(ps, nullptr);
  EXPECT_EQ(ps->size(), 4u);
  // All four paths: leaf -> spine -> leaf -> dst (3 switch hops + dst).
  std::set<std::vector<PathHop>> sigs;
  for (const auto& p : ps->paths) {
    EXPECT_EQ(p.hops.size(), 4u);
    EXPECT_EQ(p.hops.back().node, dst->ip());
    sigs.insert(p.hops);
  }
  EXPECT_EQ(sigs.size(), 4u);
}

TEST_F(DiscoveryFixture, DiscoveredPortsMatchActualEcmpPaths) {
  build();
  src->start_discovery({dst->ip()});
  sim.run(sim::milliseconds(10));
  const PathSet* ps = src->discovery().paths(dst->ip());
  ASSERT_NE(ps, nullptr);
  // Verify against ground truth: replay each discovered port through the
  // switches' actual hash functions.
  for (const auto& path : ps->paths) {
    net::FiveTuple t{src->ip(), dst->ip(), path.port, kSttPort,
                     net::Proto::kStt};
    net::Switch* leaf = fabric.leaves[0];
    const auto* r1 = leaf->route(dst->ip());
    ASSERT_NE(r1, nullptr);
    net::Link* up = leaf->port(
        (*r1)[static_cast<std::size_t>(leaf->ecmp_port(t, r1->size()))]);
    EXPECT_EQ(up->dst()->ip(), path.hops[1].node) << "spine hop mismatch";
  }
}

TEST_F(DiscoveryFixture, AsymmetricTopologyStillFindsFourPortsThreeDisjoint) {
  build(/*fail_link=*/true);
  src->start_discovery({dst->ip()});
  sim.run(sim::milliseconds(10));
  const PathSet* ps = src->discovery().paths(dst->ip());
  ASSERT_NE(ps, nullptr);
  // The fabric still has distinct paths; S2's surviving downlink is shared
  // by its two uplinks from L1. Expect at least 3 distinct hop lists.
  std::set<std::vector<PathHop>> sigs;
  for (const auto& p : ps->paths) sigs.insert(p.hops);
  EXPECT_GE(sigs.size(), 3u);
}

TEST_F(DiscoveryFixture, PeriodicReprobeAdaptsToFailure) {
  build();
  src->start_discovery({dst->ip()});
  sim.run(sim::milliseconds(10));
  ASSERT_NE(src->discovery().paths(dst->ip()), nullptr);
  const int rounds_before = src->discovery().rounds_completed();

  // Fail a link mid-run; the next periodic round must produce paths that
  // avoid the dead link.
  topo->fail_connection(fabric.fabric_links[1][1][0]);
  sim.run(sim::milliseconds(400));
  EXPECT_GT(src->discovery().rounds_completed(), rounds_before);
  const PathSet* ps = src->discovery().paths(dst->ip());
  ASSERT_NE(ps, nullptr);
  // No discovered path may claim a hop sequence using the failed link
  // (S2 -> L2 dead direction would strand the probe, so such ports cannot
  // complete a trace).
  for (const auto& p : ps->paths) {
    EXPECT_EQ(p.hops.back().node, dst->ip());
  }
}

TEST_F(DiscoveryFixture, ProbeOverheadIsBounded) {
  build();
  src->start_discovery({dst->ip()});
  sim.run(sim::milliseconds(10));
  // One round: sample_ports * max_ttl probes.
  const auto& cfg = src->config().discovery;
  EXPECT_LE(src->discovery().probes_sent(),
            static_cast<std::uint64_t>(cfg.sample_ports) *
                static_cast<std::uint64_t>(cfg.max_ttl));
}

TEST_F(DiscoveryFixture, NoDiscoveryWithoutStart) {
  build();
  sim.run(sim::milliseconds(10));
  EXPECT_EQ(src->discovery().paths(dst->ip()), nullptr);
  EXPECT_EQ(src->discovery().probes_sent(), 0u);
}

// ---------------------------------------------------------------------------
// The testbed's first discovery round, pinned
// ---------------------------------------------------------------------------

// The asymmetric Clove-ECN testbed run to traffic_start is one discovery
// round: 32 hypervisors x 16 peers x 32 ports x 6 TTLs sent at t=0. The
// values below pin every event, every overflow drop and every discovered
// path, so any change to how discovery is simulated that alters one bit of
// the outcome fails here.
TEST(DiscoveryRound, TestbedFirstRoundIsPinned) {
  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.scheme = harness::Scheme::kCloveEcn;
  cfg.asymmetric = true;
  cfg.seed = 1;
  harness::Testbed tb(cfg);
  tb.start_discovery();
  tb.simulator().run(cfg.traffic_start);

  std::uint64_t overflow = 0;
  for (const auto& l : tb.topology().links()) {
    overflow += l->stats().drops_overflow;
  }
  std::uint64_t probes = 0;
  int pairs = 0;
  std::size_t paths = 0;
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  auto visit = [&](const std::vector<Hypervisor*>& side,
                   const std::vector<Hypervisor*>& peers) {
    for (Hypervisor* hv : side) {
      probes += hv->discovery().probes_sent();
      for (Hypervisor* peer : peers) {
        const PathSet* ps = hv->discovery().paths(peer->ip());
        if (ps == nullptr) continue;
        ++pairs;
        paths += ps->size();
        mix(hv->ip());
        mix(peer->ip());
        for (const PathInfo& p : ps->paths) {
          mix(p.port);
          for (const PathHop& hop : p.hops) {
            mix(hop.node);
            mix(static_cast<std::uint64_t>(hop.ingress));
          }
        }
      }
    }
  };
  visit(tb.clients(), tb.servers());
  visit(tb.servers(), tb.clients());

  EXPECT_EQ(tb.simulator().events_processed(), 1072988u);
  EXPECT_EQ(overflow, 18092u);
  EXPECT_EQ(probes, 98304u);
  // Probes queued at a NIC, and every queued reply, stay unbuilt until a
  // transmitter reaches them (net::Link::enqueue_run and enqueue_reply), so
  // the burst never holds all 98,304 probes, or their replies, at once.
  EXPECT_EQ(net::PacketPool::of(tb.simulator()).allocated(), 37187u);
  EXPECT_EQ(pairs, 491);
  EXPECT_EQ(paths, 1777u);
  EXPECT_EQ(h, 0xfd3b028f9dee1494ull);
}

// A queued reply is a descriptor in its link's FIFO, trimmed as the
// transmitter builds it, so neither the packet pool nor a link's reply
// storage grows with the number of rounds. Later rounds are jittered over
// the probe interval, so none needs more packets than the first. A link's
// FIFO keeps the capacity of its largest backlog, which a later round can
// set (L2->h2-16 goes from 8 to 32 descriptors in round 2), so each link is
// held to its size after round 2: a never-trimmed FIFO would grow by a
// round's replies in round 3.
TEST(DiscoveryRound, ReplyStorageDoesNotGrowWithRounds) {
  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.scheme = harness::Scheme::kCloveEcn;
  cfg.asymmetric = true;
  cfg.seed = 1;
  cfg.discovery.probe_interval = 50 * sim::kMillisecond;
  harness::Testbed tb(cfg);
  tb.start_discovery();
  const net::PacketPool& pool = net::PacketPool::of(tb.simulator());

  const auto probes = [&tb] {
    std::uint64_t n = 0;
    for (Hypervisor* hv : tb.clients()) n += hv->discovery().probes_sent();
    for (Hypervisor* hv : tb.servers()) n += hv->discovery().probes_sent();
    return n;
  };
  const auto reply_storage = [&tb] {
    std::vector<std::size_t> bytes;
    for (const auto& l : tb.topology().links()) {
      bytes.push_back(l->reply_storage_bytes());
    }
    return bytes;
  };

  // Round k collects over 20 ms and the next starts 45-55 ms later: round 2
  // starts at 65 ms or after, round 3 ends by 170 ms, round 4 starts at
  // 195 ms or after.
  tb.simulator().run(40 * sim::kMillisecond);
  const std::uint64_t round = probes();
  ASSERT_EQ(round, 98304u);
  const std::uint64_t allocated = pool.allocated();
  const std::vector<std::size_t> first = reply_storage();
  EXPECT_GT(*std::max_element(first.begin(), first.end()), 0u);

  tb.simulator().run(120 * sim::kMillisecond);
  ASSERT_EQ(probes(), 2 * round);
  const std::vector<std::size_t> second = reply_storage();

  tb.simulator().run(185 * sim::kMillisecond);
  ASSERT_EQ(probes(), 3 * round);
  EXPECT_LE(pool.allocated(), allocated);
  const std::vector<std::size_t> third = reply_storage();
  ASSERT_EQ(third.size(), second.size());
  for (std::size_t i = 0; i < third.size(); ++i) {
    EXPECT_LE(third[i], second[i]) << tb.topology().links()[i]->name();
  }
}

}  // namespace
}  // namespace clove::overlay
