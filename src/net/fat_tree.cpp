#include "net/fat_tree.hpp"

#include <cassert>

namespace clove::net {

FatTree build_fat_tree(
    Topology& topo, const FatTreeConfig& cfg,
    const std::function<Node*(Topology&, const std::string&, int)>& make_host) {
  assert(cfg.k >= 2 && cfg.k % 2 == 0);
  FatTree net;
  net.cfg = cfg;
  const int k = cfg.k;
  const int half = k / 2;

  LinkConfig fabric;
  fabric.rate_bytes_per_sec = sim::gbps_to_bytes_per_sec(cfg.fabric_gbps);
  fabric.propagation = cfg.link_propagation;
  fabric.queue_capacity_bytes = cfg.queue_pkts * cfg.mtu_bytes;
  fabric.ecn_threshold_bytes = cfg.ecn_threshold_pkts * cfg.mtu_bytes;
  fabric.int_telemetry = cfg.int_telemetry;

  LinkConfig access = fabric;
  access.rate_bytes_per_sec = sim::gbps_to_bytes_per_sec(cfg.host_gbps);

  // Builds names like "C0.1" / "h2.0.3". Appending piecewise (instead of an
  // operator+ chain) sidesteps a GCC 12 -O3 -Wrestrict false positive
  // (GCC PR105651) that -Werror builds would otherwise trip over.
  auto label = [](const char* prefix, int a, int b, int c = -1) {
    std::string s(prefix);
    s += std::to_string(a);
    s += '.';
    s += std::to_string(b);
    if (c >= 0) {
      s += '.';
      s += std::to_string(c);
    }
    return s;
  };

  // Core switches: (k/2)^2 of them, indexed (i, j) with i, j in [0, k/2).
  for (int i = 0; i < half; ++i) {
    for (int j = 0; j < half; ++j) {
      net.core.push_back(topo.add_switch(label("C", i, j)));
    }
  }

  net.edge_by_pod.resize(static_cast<std::size_t>(k));
  net.agg_by_pod.resize(static_cast<std::size_t>(k));
  net.hosts_by_pod.resize(static_cast<std::size_t>(k));

  for (int pod = 0; pod < k; ++pod) {
    auto& edges = net.edge_by_pod[static_cast<std::size_t>(pod)];
    auto& aggs = net.agg_by_pod[static_cast<std::size_t>(pod)];
    for (int i = 0; i < half; ++i) {
      edges.push_back(topo.add_switch(label("E", pod, i)));
      aggs.push_back(topo.add_switch(label("A", pod, i)));
    }
    // Full bipartite edge <-> agg inside the pod.
    for (Switch* e : edges) {
      for (Switch* a : aggs) topo.connect(e, a, fabric);
    }
    // Aggregation switch i connects to core row i (core (i, j) for all j).
    for (int i = 0; i < half; ++i) {
      for (int j = 0; j < half; ++j) {
        topo.connect(aggs[static_cast<std::size_t>(i)],
                     net.core[static_cast<std::size_t>(i * half + j)], fabric);
      }
    }
    // Hosts under each edge switch.
    for (int i = 0; i < half; ++i) {
      for (int h = 0; h < half; ++h) {
        Node* host = make_host(topo, label("h", pod, i, h), pod);
        auto [host_up, edge_down] =
            topo.connect(host, edges[static_cast<std::size_t>(i)], access);
        (void)edge_down;
        host_up->set_ecn_marking(false);  // hypervisor TX queue, not a switch
        net.hosts_by_pod[static_cast<std::size_t>(pod)].push_back(host);
      }
    }
  }

  topo.compute_routes();
  return net;
}

}  // namespace clove::net
