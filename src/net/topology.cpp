#include "net/topology.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "telemetry/scope.hpp"

namespace clove::net {

Switch* Topology::add_switch(const std::string& name) {
  auto sw = std::make_unique<Switch>(sim_, next_id(), name);
  Switch* raw = sw.get();
  switches_.push_back(raw);
  nodes_.push_back(std::move(sw));
  return raw;
}

Switch* Topology::add_custom_switch(
    const std::string& name,
    const std::function<std::unique_ptr<Switch>(NodeId, std::string)>& make) {
  auto sw = make(next_id(), name);
  Switch* raw = sw.get();
  switches_.push_back(raw);
  nodes_.push_back(std::move(sw));
  return raw;
}

std::pair<Link*, Link*> Topology::connect(Node* a, Node* b,
                                          const LinkConfig& cfg) {
  const LinkId id_ab = static_cast<LinkId>(links_.size());
  const LinkId id_ba = id_ab + 1;
  // The destination in-port indices must be reserved before constructing the
  // links, since each link needs the peer's ingress port number.
  auto ab = std::make_unique<Link>(sim_, id_ab, a->name() + "->" + b->name(),
                                   b, /*dst_in_port=*/b->port_count(), cfg);
  auto ba = std::make_unique<Link>(sim_, id_ba, b->name() + "->" + a->name(),
                                   a, /*dst_in_port=*/a->port_count(), cfg);
  a->attach_port(ab.get());  // a's egress; also reserves a's ingress index
  b->attach_port(ba.get());
  Link* pab = ab.get();
  Link* pba = ba.get();
  links_.push_back(std::move(ab));
  links_.push_back(std::move(ba));
  return {pab, pba};
}

Link* Topology::reverse_of(Link* l) const {
  return links_[l->id() ^ 1u].get();
}

void Topology::fail_connection(Link* a_to_b) {
  a_to_b->down();
  reverse_of(a_to_b)->down();
  compute_routes();
}

void Topology::restore_connection(Link* a_to_b) {
  a_to_b->up();
  reverse_of(a_to_b)->up();
  compute_routes();
}

void Topology::compute_routes() {
  ++route_epoch_;
  if (auto* fr = telemetry::flight()) {
    fr->on_route_change();
  }
  // Adjacency: for each node, its live egress links.
  const std::size_t n = nodes_.size();
  std::vector<std::vector<Link*>> egress(n);
  for (const auto& l : links_) {
    if (l->is_down()) continue;
    // Find the owner: the node that has this link as a port.
    // connect() attaches links_[2i] to `a` and links_[2i+1] to `b`; the
    // owner of link L is dst(reverse_of(L)).
    Node* owner = links_[l->id() ^ 1u]->dst();
    egress[owner->id()].push_back(l.get());
  }

  for (Switch* sw : switches_) sw->clear_routes();

  // One reverse BFS per destination host: dist[v] = hops from v to dst.
  constexpr int kInf = std::numeric_limits<int>::max();
  std::vector<int> dist(n);
  for (Node* dst : hosts_) {
    std::fill(dist.begin(), dist.end(), kInf);
    dist[dst->id()] = 0;
    std::deque<NodeId> q{dst->id()};
    // Reverse adjacency == forward adjacency here because all connections
    // are bidirectional pairs with both directions live or both down.
    while (!q.empty()) {
      NodeId v = q.front();
      q.pop_front();
      for (Link* l : egress[v]) {
        NodeId u = l->dst()->id();
        if (dist[u] == kInf) {
          dist[u] = dist[v] + 1;
          q.push_back(u);
        }
      }
    }
    for (Switch* sw : switches_) {
      if (dist[sw->id()] == kInf || dist[sw->id()] == 0) continue;
      std::vector<int> ports;
      for (int p = 0; p < sw->port_count(); ++p) {
        Link* l = sw->port(p);
        if (l->is_down()) continue;
        if (dist[l->dst()->id()] == dist[sw->id()] - 1) ports.push_back(p);
      }
      if (!ports.empty()) sw->set_route(dst->ip(), std::move(ports));
    }
  }
}

int LeafSpine::leaf_of_host(const Node* h) const {
  for (std::size_t i = 0; i < hosts_by_leaf.size(); ++i) {
    for (const Node* x : hosts_by_leaf[i]) {
      if (x == h) return static_cast<int>(i);
    }
  }
  return -1;
}

LeafSpine build_leaf_spine(
    Topology& topo, const LeafSpineConfig& cfg,
    const std::function<Node*(Topology&, const std::string&, int)>& make_host,
    const std::function<std::unique_ptr<Switch>(NodeId, std::string, int)>&
        make_switch) {
  LeafSpine net;
  net.cfg = cfg;

  auto new_switch = [&](const std::string& name, int leaf_idx) -> Switch* {
    if (make_switch) {
      return topo.add_custom_switch(name, [&](NodeId id, std::string n) {
        return make_switch(id, std::move(n), leaf_idx);
      });
    }
    return topo.add_switch(name);
  };

  // Appending piecewise (instead of operator+ chains) sidesteps a GCC 12
  // -O3 -Wrestrict false positive (GCC PR105651) under -Werror.
  auto label = [](const char* prefix, int a, int b = -1) {
    std::string s(prefix);
    s += std::to_string(a);
    if (b >= 0) {
      s += '-';
      s += std::to_string(b);
    }
    return s;
  };

  for (int i = 0; i < cfg.n_leaves; ++i) {
    net.leaves.push_back(new_switch(label("L", i + 1), i));
  }
  for (int j = 0; j < cfg.n_spines; ++j) {
    net.spines.push_back(new_switch(label("S", j + 1), -1));
  }

  LinkConfig fabric;
  fabric.rate_bytes_per_sec = sim::gbps_to_bytes_per_sec(cfg.fabric_gbps);
  fabric.propagation = cfg.link_propagation;
  fabric.queue_capacity_bytes = cfg.fabric_queue_pkts * cfg.mtu_bytes;
  fabric.ecn_threshold_bytes = cfg.ecn_threshold_pkts * cfg.mtu_bytes;
  fabric.int_telemetry = cfg.int_telemetry;
  fabric.conga_metric = cfg.conga_metric;

  net.fabric_links.assign(
      static_cast<std::size_t>(cfg.n_leaves),
      std::vector<std::vector<Link*>>(static_cast<std::size_t>(cfg.n_spines)));
  for (int i = 0; i < cfg.n_leaves; ++i) {
    for (int j = 0; j < cfg.n_spines; ++j) {
      for (int k = 0; k < cfg.links_per_pair; ++k) {
        auto [up, down] = topo.connect(net.leaves[static_cast<std::size_t>(i)],
                                       net.spines[static_cast<std::size_t>(j)],
                                       fabric);
        (void)down;
        net.fabric_links[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(j)]
                            .push_back(up);
      }
    }
  }

  LinkConfig access;
  access.rate_bytes_per_sec = sim::gbps_to_bytes_per_sec(cfg.host_gbps);
  access.propagation = cfg.link_propagation;
  access.queue_capacity_bytes = cfg.host_queue_pkts * cfg.mtu_bytes;
  access.ecn_threshold_bytes = cfg.ecn_threshold_pkts * cfg.mtu_bytes;
  access.int_telemetry = cfg.int_telemetry;
  // Host-facing links never contribute to CONGA's fabric metric.
  access.conga_metric = false;

  net.hosts_by_leaf.resize(static_cast<std::size_t>(cfg.n_leaves));
  for (int i = 0; i < cfg.n_leaves; ++i) {
    for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
      Node* host = make_host(topo, label("h", i + 1, h + 1), i);
      auto [host_up, leaf_down] =
          topo.connect(host, net.leaves[static_cast<std::size_t>(i)], access);
      (void)leaf_down;
      // The host->leaf direction is the hypervisor's own TX queue, not a
      // switch egress: it does not ECN-mark (marking there would attribute
      // local NIC queueing to whichever fabric path the packet will take).
      host_up->set_ecn_marking(false);
      net.hosts_by_leaf[static_cast<std::size_t>(i)].push_back(host);
    }
  }

  topo.compute_routes();
  return net;
}

}  // namespace clove::net
