// Tests for the k-ary fat-tree builder and Clove's topology-agnosticism
// claim (§3.1: "works with any topologies with ECMP-based layer-3 routing").

#include <gtest/gtest.h>

#include <set>

#include "lb/clove_ecn.hpp"
#include "net/fat_tree.hpp"
#include "overlay/hypervisor.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace clove::net {
namespace {

using clove::testutil::SinkNode;
using clove::testutil::make_data;
using clove::testutil::tuple;

FatTree build_sinks(Topology& topo, int k = 4) {
  FatTreeConfig cfg;
  cfg.k = k;
  return build_fat_tree(topo, cfg,
                        [](Topology& t, const std::string& name, int) -> Node* {
                          return t.add_host<SinkNode>(name);
                        });
}

TEST(FatTree, K4Shape) {
  sim::Simulator sim;
  Topology topo(sim);
  FatTree ft = build_sinks(topo);
  EXPECT_EQ(ft.n_pods(), 4);
  EXPECT_EQ(ft.core.size(), 4u);
  EXPECT_EQ(ft.edge_by_pod[0].size(), 2u);
  EXPECT_EQ(ft.agg_by_pod[0].size(), 2u);
  EXPECT_EQ(ft.host_count(), 16u);
  EXPECT_EQ(ft.cross_pod_paths(), 4);
  // Each edge switch: 2 agg uplinks + 2 host ports.
  EXPECT_EQ(ft.edge_by_pod[0][0]->port_count(), 4);
  // Each agg: 2 edge downlinks + 2 core uplinks.
  EXPECT_EQ(ft.agg_by_pod[0][0]->port_count(), 4);
  // Each core: one link per pod.
  EXPECT_EQ(ft.core[0]->port_count(), 4);
}

TEST(FatTree, K6Shape) {
  sim::Simulator sim;
  Topology topo(sim);
  FatTree ft = build_sinks(topo, 6);
  EXPECT_EQ(ft.core.size(), 9u);
  EXPECT_EQ(ft.host_count(), 54u);
  EXPECT_EQ(ft.cross_pod_paths(), 9);
}

TEST(FatTree, CrossPodDelivery) {
  sim::Simulator sim;
  Topology topo(sim);
  FatTree ft = build_sinks(topo);
  auto* src = static_cast<SinkNode*>(ft.hosts_by_pod[0][0]);
  auto* dst = static_cast<SinkNode*>(ft.hosts_by_pod[3][3]);
  src->port(0)->enqueue(make_data(tuple(src->ip(), dst->ip()), 0, 100));
  sim.run();
  EXPECT_EQ(dst->received.size(), 1u);
}

TEST(FatTree, IntraPodStaysLocal) {
  sim::Simulator sim;
  Topology topo(sim);
  FatTree ft = build_sinks(topo);
  // Hosts under the same edge switch: route must be 2 hops (host-edge-host);
  // core switches must forward nothing.
  auto* src = static_cast<SinkNode*>(ft.hosts_by_pod[1][0]);
  auto* dst = static_cast<SinkNode*>(ft.hosts_by_pod[1][1]);  // same edge
  src->port(0)->enqueue(make_data(tuple(src->ip(), dst->ip()), 0, 100));
  sim.run();
  ASSERT_EQ(dst->received.size(), 1u);
  EXPECT_EQ(dst->received[0]->ttl, 63);  // decremented exactly once
  for (Switch* c : ft.core) EXPECT_EQ(c->stats().forwarded, 0u);
}

TEST(FatTree, EcmpRouteWidths) {
  sim::Simulator sim;
  Topology topo(sim);
  FatTree ft = build_sinks(topo);
  const IpAddr remote = ft.hosts_by_pod[2][0]->ip();
  // Edge switch in another pod: k/2 agg uplinks toward a remote pod.
  const auto* edge_route = ft.edge_by_pod[0][0]->route(remote);
  ASSERT_NE(edge_route, nullptr);
  EXPECT_EQ(edge_route->size(), 2u);
  // Agg switch: k/2 core uplinks.
  const auto* agg_route = ft.agg_by_pod[0][0]->route(remote);
  ASSERT_NE(agg_route, nullptr);
  EXPECT_EQ(agg_route->size(), 2u);
  // Core switch: exactly one downlink (the destination pod's agg).
  const auto* core_route = ft.core[0]->route(remote);
  ASSERT_NE(core_route, nullptr);
  EXPECT_EQ(core_route->size(), 1u);
}

TEST(FatTree, ManyFlowsUseAllCorePaths) {
  sim::Simulator sim;
  Topology topo(sim);
  FatTree ft = build_sinks(topo);
  auto* src = static_cast<SinkNode*>(ft.hosts_by_pod[0][0]);
  auto* dst = static_cast<SinkNode*>(ft.hosts_by_pod[2][0]);
  for (int sp = 0; sp < 128; ++sp) {
    src->port(0)->enqueue(make_data(
        tuple(src->ip(), dst->ip(), static_cast<std::uint16_t>(1000 + sp)), 0,
        100));
  }
  sim.run();
  EXPECT_EQ(dst->received.size(), 128u);
  int cores_used = 0;
  for (Switch* c : ft.core) {
    if (c->stats().forwarded > 0) ++cores_used;
  }
  EXPECT_EQ(cores_used, 4);  // ECMP hashing spreads over all core switches
}

TEST(FatTree, LinkFailureReroutes) {
  sim::Simulator sim;
  Topology topo(sim);
  FatTree ft = build_sinks(topo);
  // Fail agg A0.0's first core uplink; cross-pod traffic still delivers and
  // the agg's ECMP set toward remote pods shrinks.
  const IpAddr remote = ft.hosts_by_pod[1][0]->ip();
  const auto* before = ft.agg_by_pod[0][0]->route(remote);
  ASSERT_EQ(before->size(), 2u);
  // Find the agg->core link.
  Link* agg_core = nullptr;
  for (int p = 0; p < ft.agg_by_pod[0][0]->port_count(); ++p) {
    Link* l = ft.agg_by_pod[0][0]->port(p);
    for (Switch* c : ft.core) {
      if (l->dst() == c) {
        agg_core = l;
        break;
      }
    }
    if (agg_core) break;
  }
  ASSERT_NE(agg_core, nullptr);
  topo.fail_connection(agg_core);
  const auto* after = ft.agg_by_pod[0][0]->route(remote);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->size(), 1u);

  auto* src = static_cast<SinkNode*>(ft.hosts_by_pod[0][0]);
  auto* dst = static_cast<SinkNode*>(ft.hosts_by_pod[1][0]);
  for (int sp = 0; sp < 16; ++sp) {
    src->port(0)->enqueue(make_data(
        tuple(src->ip(), dst->ip(), static_cast<std::uint16_t>(2000 + sp)), 0,
        100));
  }
  sim.run();
  EXPECT_EQ(dst->received.size(), 16u);
}

// ---------------------------------------------------------------------------
// Clove on the fat-tree: the topology-agnosticism claim
// ---------------------------------------------------------------------------

TEST(FatTreeClove, DiscoveryFindsAllCrossPodPaths) {
  sim::Simulator sim;
  Topology topo(sim);
  FatTreeConfig cfg;
  cfg.k = 4;
  FatTree ft = build_fat_tree(
      topo, cfg, [&sim](Topology& t, const std::string& name, int) -> Node* {
        overlay::HypervisorConfig h;
        h.discovery.probe_timeout = 5 * sim::kMillisecond;
        h.discovery.k_paths = 8;       // ask for more than exist
        h.discovery.sample_ports = 64; // cover all 4 paths w.h.p.
        h.discovery.max_ttl = 8;
        return t.add_host<overlay::Hypervisor>(
            name, sim, h, std::make_unique<lb::CloveEcnPolicy>());
      });
  auto* src = static_cast<overlay::Hypervisor*>(ft.hosts_by_pod[0][0]);
  auto* dst = static_cast<overlay::Hypervisor*>(ft.hosts_by_pod[2][1]);
  src->start_discovery({dst->ip()});
  sim.run(sim::milliseconds(10));
  const overlay::PathSet* ps = src->discovery().paths(dst->ip());
  ASSERT_NE(ps, nullptr);
  // 4 distinct cross-pod paths (one per core switch), each 6 hops:
  // edge-agg-core-agg-edge + destination.
  EXPECT_EQ(ps->size(), 4u);
  std::set<std::vector<overlay::PathHop>> sigs;
  std::set<net::IpAddr> cores_seen;
  for (const auto& p : ps->paths) {
    EXPECT_EQ(p.hops.size(), 6u);
    sigs.insert(p.hops);
    cores_seen.insert(p.hops[2].node);  // the core hop
  }
  EXPECT_EQ(sigs.size(), 4u);
  EXPECT_EQ(cores_seen.size(), 4u);
}

TEST(FatTreeClove, TcpTransferAcrossPods) {
  sim::Simulator sim;
  Topology topo(sim);
  FatTreeConfig cfg;
  cfg.k = 4;
  FatTree ft = build_fat_tree(
      topo, cfg, [&sim](Topology& t, const std::string& name, int) -> Node* {
        overlay::HypervisorConfig h;
        h.discovery.probe_timeout = 5 * sim::kMillisecond;
        h.discovery.max_ttl = 8;
        return t.add_host<overlay::Hypervisor>(
            name, sim, h, std::make_unique<lb::CloveEcnPolicy>());
      });
  auto* src = static_cast<overlay::Hypervisor*>(ft.hosts_by_pod[0][0]);
  auto* dst = static_cast<overlay::Hypervisor*>(ft.hosts_by_pod[3][0]);
  src->start_discovery({dst->ip()});
  dst->start_discovery({src->ip()});

  transport::TcpConfig tcfg;
  tcfg.min_rto = 10 * sim::kMillisecond;
  tcfg.ecn = true;
  transport::TcpSender tx(
      *src, net::FiveTuple{src->ip(), dst->ip(), 9000, 80, net::Proto::kTcp},
      tcfg);
  src->register_endpoint(tx.tuple(), &tx);
  bool done = false;
  sim.schedule_at(sim::milliseconds(8),
                  [&] { tx.write(5'000'000, [&](sim::Time) { done = true; }); });
  sim.run(sim::seconds(30));
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace clove::net
