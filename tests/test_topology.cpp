// Tests for topology construction, shortest-path ECMP routing and failure
// handling on the paper's leaf-spine fabric, and a per-host BFS oracle for
// the routes compute_routes() installs on fat-trees and leaf-spines under
// random link faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "net/fat_tree.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace clove::net {
namespace {

using clove::testutil::SinkNode;
using clove::testutil::make_data;
using clove::testutil::tuple;

LeafSpine build_test_fabric(Topology& topo, int hosts_per_leaf = 2) {
  LeafSpineConfig cfg;
  cfg.hosts_per_leaf = hosts_per_leaf;
  return build_leaf_spine(
      topo, cfg,
      [](Topology& t, const std::string& name, int) -> Node* {
        return t.add_host<SinkNode>(name);
      });
}

TEST(Topology, ConnectCreatesBothDirections) {
  sim::Simulator sim;
  Topology topo(sim);
  auto* a = topo.add_host<SinkNode>("a");
  auto* b = topo.add_host<SinkNode>("b");
  auto [ab, ba] = topo.connect(a, b, LinkConfig{});
  EXPECT_EQ(ab->dst(), b);
  EXPECT_EQ(ba->dst(), a);
  EXPECT_EQ(topo.reverse_of(ab), ba);
  EXPECT_EQ(topo.reverse_of(ba), ab);
  EXPECT_EQ(a->port_count(), 1);
  EXPECT_EQ(b->port_count(), 1);
}

TEST(Topology, NodeByIpResolves) {
  sim::Simulator sim;
  Topology topo(sim);
  auto* a = topo.add_host<SinkNode>("a");
  EXPECT_EQ(topo.node_by_ip(a->ip()), a);
  EXPECT_EQ(topo.node_by_ip(9999), nullptr);
}

TEST(LeafSpineBuild, PaperShape) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo, 16);
  EXPECT_EQ(net.leaves.size(), 2u);
  EXPECT_EQ(net.spines.size(), 2u);
  EXPECT_EQ(net.hosts_by_leaf[0].size(), 16u);
  EXPECT_EQ(net.hosts_by_leaf[1].size(), 16u);
  // Each leaf: 4 fabric ports + 16 host ports.
  EXPECT_EQ(net.leaves[0]->port_count(), 20);
  // Each spine: 2 leaves x 2 parallel links.
  EXPECT_EQ(net.spines[0]->port_count(), 4);
  // 2 links/pair in each direction + host links: (2*2*2 + 32) * 2 dirs.
  EXPECT_EQ(topo.links().size(), (8u + 32u) * 2u);
}

TEST(LeafSpineBuild, LeafOfHost) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo);
  EXPECT_EQ(net.leaf_of_host(net.hosts_by_leaf[0][0]), 0);
  EXPECT_EQ(net.leaf_of_host(net.hosts_by_leaf[1][1]), 1);
}

TEST(LeafSpineRouting, LeafHasFourUplinksForRemoteHost) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo);
  const auto* route =
      net.leaves[0]->route(net.hosts_by_leaf[1][0]->ip());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->size(), 4u);  // 2 spines x 2 parallel links
}

TEST(LeafSpineRouting, LocalHostSinglePort) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo);
  const auto* route =
      net.leaves[0]->route(net.hosts_by_leaf[0][1]->ip());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->size(), 1u);
}

TEST(LeafSpineRouting, SpineHasTwoDownlinksPerLeaf) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo);
  const auto* route =
      net.spines[0]->route(net.hosts_by_leaf[1][0]->ip());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->size(), 2u);
}

TEST(LeafSpineRouting, EndToEndDelivery) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo);
  auto* src = static_cast<SinkNode*>(net.hosts_by_leaf[0][0]);
  auto* dst = static_cast<SinkNode*>(net.hosts_by_leaf[1][1]);
  // Inject at the source's NIC link (as the host would).
  src->port(0)->enqueue(make_data(tuple(src->ip(), dst->ip()), 0, 100));
  sim.run();
  EXPECT_EQ(dst->received.size(), 1u);
}

TEST(LeafSpineRouting, ManyPortsUseAllFourPaths) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo);
  auto* src = net.hosts_by_leaf[0][0];
  auto* dst = net.hosts_by_leaf[1][0];
  // Count distinct (leaf uplink, spine downlink) decisions over many ports.
  std::set<std::pair<int, int>> paths;
  const auto* leaf_route = net.leaves[0]->route(dst->ip());
  ASSERT_NE(leaf_route, nullptr);
  for (int sp = 0; sp < 200; ++sp) {
    FiveTuple t{src->ip(), dst->ip(), static_cast<std::uint16_t>(40000 + sp),
                7471, Proto::kStt};
    const int up = net.leaves[0]->ecmp_port(t, leaf_route->size());
    // Which spine this uplink reaches, and that spine's downlink choice:
    Link* l = net.leaves[0]->port((*leaf_route)[static_cast<std::size_t>(up)]);
    auto* spine = static_cast<Switch*>(l->dst());
    const auto* spine_route = spine->route(dst->ip());
    const int down = spine->ecmp_port(t, spine_route->size());
    paths.emplace(up, down);
  }
  EXPECT_GE(paths.size(), 7u);  // nearly all 4x2 combinations appear
}

TEST(Failure, FailConnectionRemovesFromRoutes) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo);
  const int epoch_before = topo.route_epoch();
  topo.fail_connection(net.fabric_links[1][1][0]);
  EXPECT_EQ(topo.route_epoch(), epoch_before + 1);
  // Spine 1 now has one downlink to leaf 1.
  const auto* route = net.spines[1]->route(net.hosts_by_leaf[1][0]->ip());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->size(), 1u);
  // Leaf 1's uplink set toward leaf-0 hosts shrinks to 3.
  const auto* up = net.leaves[1]->route(net.hosts_by_leaf[0][0]->ip());
  ASSERT_NE(up, nullptr);
  EXPECT_EQ(up->size(), 3u);
}

TEST(Failure, TrafficStillDeliveredAfterFailure) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo);
  topo.fail_connection(net.fabric_links[1][1][0]);
  auto* src = static_cast<SinkNode*>(net.hosts_by_leaf[0][0]);
  auto* dst = static_cast<SinkNode*>(net.hosts_by_leaf[1][0]);
  for (int sp = 0; sp < 32; ++sp) {
    auto p = make_data(tuple(src->ip(), dst->ip(),
                             static_cast<std::uint16_t>(1000 + sp)),
                       0, 100);
    src->port(0)->enqueue(std::move(p));
  }
  sim.run();
  EXPECT_EQ(dst->received.size(), 32u);
}

TEST(Failure, RestoreBringsPathsBack) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo);
  topo.fail_connection(net.fabric_links[1][1][0]);
  topo.restore_connection(net.fabric_links[1][1][0]);
  const auto* route = net.leaves[0]->route(net.hosts_by_leaf[1][0]->ip());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->size(), 4u);
}

TEST(Failure, WholeSpineDisconnection) {
  // Fail both S2 links to L2: S2 must drop out of L1's route to leaf-1
  // hosts entirely (no path through it), leaving the 2 S1 links.
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo);
  topo.fail_connection(net.fabric_links[1][1][0]);
  topo.fail_connection(net.fabric_links[1][1][1]);
  const auto* route = net.leaves[0]->route(net.hosts_by_leaf[1][0]->ip());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->size(), 2u);
  for (int p : *route) {
    EXPECT_EQ(net.leaves[0]->port(p)->dst(), net.spines[0]);
  }
}

// --- route oracle ----------------------------------------------------------

/// The reference routing: one BFS per destination host along live links,
/// and at each switch every live port leading one hop closer to that host.
/// Returns the first switch/host pair whose installed route (size and port
/// order) differs from it, or "" when every route matches.
std::string route_mismatch(const Topology& topo) {
  const std::size_t n = topo.hosts().size() + topo.switches().size();
  constexpr int kInf = std::numeric_limits<int>::max();
  for (const Node* dst : topo.hosts()) {
    std::vector<int> dist(n, kInf);
    dist[dst->id()] = 0;
    std::deque<NodeId> q{dst->id()};
    while (!q.empty()) {
      const Node* v = topo.node_by_ip(q.front());
      q.pop_front();
      for (int p = 0; p < v->port_count(); ++p) {
        const Link* l = v->port(p);
        if (l->is_down() || dist[l->dst()->id()] != kInf) continue;
        dist[l->dst()->id()] = dist[v->id()] + 1;
        q.push_back(l->dst()->id());
      }
    }
    for (const Switch* sw : topo.switches()) {
      std::vector<int> want;
      const int d = dist[sw->id()];
      for (int p = 0; d != kInf && d != 0 && p < sw->port_count(); ++p) {
        const Link* l = sw->port(p);
        if (!l->is_down() && dist[l->dst()->id()] == d - 1) want.push_back(p);
      }
      const PortSet* route = sw->route(dst->ip());
      std::vector<int> got;
      if (route != nullptr) got.assign(route->begin(), route->end());
      if (got != want) {
        std::string msg = sw->name();
        msg += " -> ";
        msg += dst->name();
        msg += ": got";
        for (int p : got) (msg += ' ') += std::to_string(p);
        msg += ", want";
        for (int p : want) (msg += ' ') += std::to_string(p);
        return msg;
      }
    }
  }
  return "";
}

/// Checks each switch's route pool: its port sets are pairwise distinct,
/// so equal routes share one entry, and every route points at a live pool
/// entry, never at a set freed by an earlier recompute. Returns the first
/// violation, or "".
std::string pool_problem(const Topology& topo) {
  for (const Switch* sw : topo.switches()) {
    const std::vector<PortSet>& pool = sw->route_pool();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const std::vector<int> ports(pool[i].begin(), pool[i].end());
      for (std::size_t j = i + 1; j < pool.size(); ++j) {
        if (pool[j].equals(ports)) {
          return sw->name() + ": pool holds one port set twice";
        }
      }
    }
    for (const Node* dst : topo.hosts()) {
      const PortSet* route = sw->route(dst->ip());
      if (route != nullptr &&
          std::none_of(pool.begin(), pool.end(),
                       [route](const PortSet& set) { return &set == route; })) {
        std::string msg = sw->name();
        msg += " -> ";
        msg += dst->name();
        return msg + ": route is not in the pool";
      }
    }
  }
  return "";
}

/// Random link events over every connection, checking the routes against
/// the oracle after each: whole connections failing and returning, and
/// single directions going down and up.
void fuzz_against_oracle(Topology& topo, std::uint32_t seed, int steps) {
  ASSERT_EQ(route_mismatch(topo), "") << "after build";
  ASSERT_EQ(pool_problem(topo), "") << "after build";
  std::mt19937 rng(seed);
  const auto n_links = static_cast<std::uint32_t>(topo.links().size());
  for (int step = 0; step < steps; ++step) {
    Link* l = topo.links()[rng() % n_links].get();
    switch (rng() % 4) {
      case 0: topo.fail_connection(l); break;
      case 1: topo.restore_connection(l); break;
      case 2:
        l->down();
        topo.compute_routes();
        break;
      default:
        l->up();
        topo.compute_routes();
        break;
    }
    ASSERT_EQ(route_mismatch(topo), "")
        << "seed " << seed << ", step " << step << ", link " << l->name();
    ASSERT_EQ(pool_problem(topo), "")
        << "seed " << seed << ", step " << step << ", link " << l->name();
  }
}

FatTree build_fat_tree_sinks(Topology& topo, int k) {
  FatTreeConfig cfg;
  cfg.k = k;
  return build_fat_tree(topo, cfg,
                        [](Topology& t, const std::string& name, int) -> Node* {
                          return t.add_host<SinkNode>(name);
                        });
}

TEST(RouteOracle, FatTreeK4UnderRandomFaults) {
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    sim::Simulator sim;
    Topology topo(sim);
    build_fat_tree_sinks(topo, 4);
    fuzz_against_oracle(topo, seed, 60);
  }
}

TEST(RouteOracle, FatTreeK8UnderRandomFaults) {
  sim::Simulator sim;
  Topology topo(sim);
  build_fat_tree_sinks(topo, 8);
  fuzz_against_oracle(topo, 7, 40);
}

TEST(RouteOracle, FatTreePoolsHoldAtMostKPlusOneSets) {
  // An edge or agg switch routes through one of its k/2 downlinks or its
  // uplink set; a core switch through one of its k pod ports.
  for (int k : {4, 8}) {
    sim::Simulator sim;
    Topology topo(sim);
    build_fat_tree_sinks(topo, k);
    for (const Switch* sw : topo.switches()) {
      EXPECT_LE(sw->route_pool().size(), static_cast<std::size_t>(k + 1))
          << "k=" << k << ", " << sw->name();
    }
    EXPECT_EQ(pool_problem(topo), "") << "k=" << k;
  }
}

TEST(RouteOracle, PoolGrowthKeepsRoutes) {
  // A switch without ports starts with a one-set pool; every new distinct
  // set past that regrows it and moves the routes already installed.
  sim::Simulator sim;
  Topology topo(sim);
  Switch* sw = topo.add_switch("sw");
  const std::vector<std::vector<int>> sets = {{0}, {1}, {0, 1}, {1}, {2},
                                              {0}, {1, 0}, {3}, {0, 1}};
  for (std::size_t d = 0; d < sets.size(); ++d) {
    sw->set_route(static_cast<IpAddr>(d), sets[d]);
  }
  EXPECT_EQ(sw->route_pool().size(), 6u);
  for (std::size_t d = 0; d < sets.size(); ++d) {
    const PortSet* route = sw->route(static_cast<IpAddr>(d));
    ASSERT_NE(route, nullptr);
    EXPECT_TRUE(route->equals(sets[d])) << "destination " << d;
    EXPECT_GE(route, sw->route_pool().data());
    EXPECT_LT(route, sw->route_pool().data() + sw->route_pool().size());
  }
  EXPECT_EQ(sw->route(1), sw->route(3));
  EXPECT_NE(sw->route(2), sw->route(6));  // same ports, other order
  sw->set_route(0, {});
  EXPECT_EQ(sw->route(0), nullptr);
  EXPECT_EQ(sw->route(static_cast<IpAddr>(sets.size())), nullptr);
}

TEST(RouteOracle, FatTreeK16RouteTablesFitInFourMegabytes) {
  // One pointer per (switch, node id) over a pool of at most 17 sets per
  // switch; a dense 64-byte port set per entry took 27.5 MB.
  sim::Simulator sim;
  Topology topo(sim);
  build_fat_tree_sinks(topo, 16);
  std::size_t bytes = 0;
  for (const Switch* sw : topo.switches()) bytes += sw->route_table_bytes();
  EXPECT_LE(bytes, std::size_t{4} << 20);
}

TEST(RouteOracle, SymmetricTestbedUnderRandomFaults) {
  sim::Simulator sim;
  Topology topo(sim);
  build_test_fabric(topo, 16);
  fuzz_against_oracle(topo, 11, 60);
}

TEST(RouteOracle, AsymmetricTestbedUnderRandomFaults) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo, 16);
  topo.fail_connection(net.fabric_links[1][1][0]);  // the paper's S2-L2
  fuzz_against_oracle(topo, 13, 60);
}

TEST(RouteOracle, HostsOnlyLinkDownAndBack) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo);
  Node* h = net.hosts_by_leaf[1][0];
  topo.fail_connection(h->port(0));
  EXPECT_EQ(route_mismatch(topo), "");
  EXPECT_EQ(net.leaves[0]->route(h->ip()), nullptr);  // unreachable
  topo.restore_connection(h->port(0));
  EXPECT_EQ(route_mismatch(topo), "");
  EXPECT_NE(net.leaves[0]->route(h->ip()), nullptr);
}

TEST(RouteOracle, OneDirectionOfALinkDown) {
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo);
  // A host's uplink only, then its downlink only, then one fabric direction.
  Link* up = net.hosts_by_leaf[0][1]->port(0);
  up->down();
  topo.compute_routes();
  EXPECT_EQ(route_mismatch(topo), "");
  up->up();
  topo.reverse_of(up)->down();
  topo.compute_routes();
  EXPECT_EQ(route_mismatch(topo), "");
  topo.reverse_of(up)->up();
  topo.reverse_of(net.fabric_links[0][1][1])->down();
  topo.compute_routes();
  EXPECT_EQ(route_mismatch(topo), "");
}

TEST(RouteOracle, DualHomedHost) {
  // A host wired to both leaves is not one hop past a single leaf: its
  // routes need their own BFS, also once one of its links loses a
  // direction and only the other direction still carries traffic to it.
  sim::Simulator sim;
  Topology topo(sim);
  LeafSpine net = build_test_fabric(topo);
  auto* dual = topo.add_host<SinkNode>("dual");
  LinkConfig access;
  auto [to_l1, from_l1] = topo.connect(dual, net.leaves[0], access);
  auto [to_l2, from_l2] = topo.connect(dual, net.leaves[1], access);
  (void)from_l1;
  topo.compute_routes();
  EXPECT_EQ(route_mismatch(topo), "");
  ASSERT_NE(net.leaves[1]->route(dual->ip()), nullptr);
  EXPECT_EQ(net.leaves[1]->route(dual->ip())->size(), 1u);
  to_l2->down();  // dual -> L2 only; L2 -> dual still live
  topo.compute_routes();
  EXPECT_EQ(route_mismatch(topo), "");
  to_l2->up();
  from_l2->down();  // L2 -> dual only
  topo.compute_routes();
  EXPECT_EQ(route_mismatch(topo), "");
  from_l2->up();
  topo.fail_connection(to_l1);  // now single-homed on L2
  EXPECT_EQ(route_mismatch(topo), "");
  // Two parallel links to one leaf: two live egress links.
  topo.connect(dual, net.leaves[1], access);
  topo.compute_routes();
  EXPECT_EQ(route_mismatch(topo), "");
  EXPECT_EQ(net.leaves[1]->route(dual->ip())->size(), 2u);
}

}  // namespace
}  // namespace clove::net
