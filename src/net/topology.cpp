#include "net/topology.hpp"

#include <algorithm>
#include <cstdint>
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

NodeId Topology::stub_attachment(const Node* h) const {
  NodeId at = kNoNode;
  for (int p = 0; p < h->port_count(); ++p) {
    const Link* out = h->port(p);
    if (out->is_down()) continue;
    if (at != kNoNode) return kNoNode;
    at = out->dst()->id();
  }
  if (at == kNoNode) return kNoNode;
  for (int p = 0; p < h->port_count(); ++p) {
    const Link* out = h->port(p);
    const Link* in = links_[out->id() ^ 1u].get();
    if (!in->is_down() && out->dst()->id() != at) return kNoNode;
  }
  return at;
}

void Topology::compute_routes() {
  ++route_epoch_;
  if (auto* fr = telemetry::flight()) {
    fr->on_route_change();
  }
  // Flat live adjacency: node v's port p leads to peer[first[v] + p], or to
  // kNoNode while that link is down.
  const std::size_t n = nodes_.size();
  std::vector<std::uint32_t> first(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    first[v + 1] = first[v] + static_cast<std::uint32_t>(nodes_[v]->port_count());
  }
  std::vector<NodeId> peer(first[n]);
  for (std::size_t v = 0; v < n; ++v) {
    const Node& node = *nodes_[v];
    for (int p = 0; p < node.port_count(); ++p) {
      const Link* l = node.port(p);
      peer[first[v] + static_cast<std::uint32_t>(p)] =
          l->is_down() ? kNoNode : l->dst()->id();
    }
  }

  for (Switch* sw : switches_) sw->reset_routes(n);

  // dist[v] = hops from the BFS source to v over live links. Routes follow
  // a link to a node one hop closer to the source: the shortest path towards
  // it while both directions of each connection are up or down together.
  constexpr int kInf = std::numeric_limits<int>::max();
  std::vector<int> dist(n);
  std::vector<NodeId> queue(n);
  const auto bfs = [&](NodeId src) {
    std::fill(dist.begin(), dist.end(), kInf);
    dist[src] = 0;
    std::size_t head = 0;
    std::size_t tail = 0;
    queue[tail++] = src;
    while (head < tail) {
      const NodeId v = queue[head++];
      for (std::uint32_t i = first[v]; i < first[v + 1]; ++i) {
        const NodeId u = peer[i];
        if (u != kNoNode && dist[u] == kInf) {
          dist[u] = dist[v] + 1;
          queue[tail++] = u;
        }
      }
    }
  };
  std::vector<int> ports;  // one buffer for every route installed
  // Fill `ports` with the live ports of switch `s` one hop closer to the
  // last BFS source; false when `s` is unreachable or is the source.
  const auto next_hops = [&](NodeId s) {
    ports.clear();
    if (dist[s] == kInf || dist[s] == 0) return false;
    for (std::uint32_t i = first[s]; i < first[s + 1]; ++i) {
      if (peer[i] != kNoNode && dist[peer[i]] == dist[s] - 1) {
        ports.push_back(static_cast<int>(i - first[s]));
      }
    }
    return !ports.empty();
  };

  // A stub host (stub_attachment) is one hop past its attachment node on
  // every path, so one BFS from that node routes all of its stubs. Only at
  // the attachment node itself does a stub's route differ: the ports
  // leading straight to it.
  std::vector<std::pair<NodeId, NodeId>> stubs;  // (attachment, host)
  for (const Node* h : hosts_) {
    const NodeId at = stub_attachment(h);
    if (at != kNoNode) {
      stubs.emplace_back(at, h->id());
      continue;
    }
    bfs(h->id());
    for (Switch* sw : switches_) {
      if (next_hops(sw->id())) sw->set_route(h->ip(), ports);
    }
  }
  std::sort(stubs.begin(), stubs.end());
  for (std::size_t g = 0; g < stubs.size();) {
    const NodeId at = stubs[g].first;
    std::size_t end = g;
    while (end < stubs.size() && stubs[end].first == at) ++end;
    bfs(at);
    for (Switch* sw : switches_) {
      const NodeId s = sw->id();
      if (s == at) {
        for (std::size_t i = g; i < end; ++i) {
          const NodeId h = stubs[i].second;
          ports.clear();
          for (std::uint32_t j = first[s]; j < first[s + 1]; ++j) {
            if (peer[j] == h) ports.push_back(static_cast<int>(j - first[s]));
          }
          if (!ports.empty()) sw->set_route(h, ports);
        }
      } else if (next_hops(s)) {
        for (std::size_t i = g; i < end; ++i) {
          sw->set_route(stubs[i].second, ports);
        }
      }
    }
    g = end;
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
