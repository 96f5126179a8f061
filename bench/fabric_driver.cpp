#include "fabric_driver.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "alloc_count.hpp"
#include "net/conga_switch.hpp"
#include "net/fat_tree.hpp"
#include "net/letflow_switch.hpp"
#include "net/packet_pool.hpp"
#include "overlay/paths.hpp"

namespace clove::bench {

namespace {

/// A host that terminates packets (returning them to the simulator's pool).
class SinkHost : public net::Node {
 public:
  SinkHost(net::NodeId id, std::string name) : Node(id, std::move(name)) {}
  void receive(net::PacketPtr pkt, int /*in_port*/) override { pkt.reset(); }
};

net::Node* add_sink(net::Topology& t, const std::string& name, int) {
  return t.add_host<SinkHost>(name);
}

/// Hands CONGA leaves their leaf index, fabric uplinks and host-to-leaf map.
void configure_conga(const net::LeafSpine& ls) {
  std::unordered_map<net::IpAddr, int> host_leaf;
  for (std::size_t l = 0; l < ls.hosts_by_leaf.size(); ++l) {
    for (net::Node* h : ls.hosts_by_leaf[l]) {
      host_leaf[h->ip()] = static_cast<int>(l);
    }
  }
  for (std::size_t l = 0; l < ls.leaves.size(); ++l) {
    auto* leaf = dynamic_cast<net::CongaLeafSwitch*>(ls.leaves[l]);
    if (leaf == nullptr) continue;
    std::vector<int> uplinks;
    for (int p = 0; p < leaf->port_count(); ++p) {
      const net::Node* peer = leaf->port(p)->dst();
      if (std::find(ls.spines.begin(), ls.spines.end(), peer) !=
          ls.spines.end()) {
        uplinks.push_back(p);
      }
    }
    leaf->configure_fabric(static_cast<int>(l), std::move(uplinks), host_leaf);
  }
}

/// Packets forwarded by all of `f`'s switches so far.
std::uint64_t switch_hops(const Fabric& f) {
  std::uint64_t h = 0;
  for (const net::Switch* sw : f.topo.switches()) h += sw->stats().forwarded;
  return h;
}

/// Times `rounds` rounds of `f` under whatever is installed now.
Measured run_rounds(Fabric& f, int rounds) {
  const std::uint64_t hops0 = switch_hops(f);
  const std::uint64_t events0 = f.sim.events_processed();
  const std::uint64_t allocs0 = alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  Measured m;
  for (int r = 0; r < rounds; ++r) m.packets += f.driver.run_round(f.sim);
  const auto t1 = std::chrono::steady_clock::now();
  m.allocs = alloc_count() - allocs0;
  m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  m.events = f.sim.events_processed() - events0;
  m.hops = switch_hops(f) - hops0;
  return m;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace

std::uint64_t TrafficDriver::run_round(sim::Simulator& sim) {
  std::uint64_t injected = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    net::Node* src = sources[i];
    net::Node* dst = dests[i];
    for (int b = 0; b < batch; ++b) {
      auto pkt = net::make_packet(sim);
      pkt->inner = net::FiveTuple{
          src->ip(), dst->ip(),
          static_cast<std::uint16_t>(
              overlay::kEphemeralBase +
              ((port_cycle + static_cast<std::uint32_t>(b)) & 1023u)),
          7471, net::Proto::kStt};
      pkt->payload = 1460;
      pkt->ttl = 64;
      src->port(0)->enqueue(std::move(pkt));
      ++injected;
    }
  }
  port_cycle += 7;  // shift the tuple window between rounds
  sim.run();
  return injected;
}

Fabric::Fabric(const FabricSpec& spec, int batch) {
  driver.batch = batch;
  if (spec.kind == FabricSpec::Kind::kFatTree) {
    net::FatTreeConfig cfg;
    cfg.k = spec.k;
    const net::FatTree ft = net::build_fat_tree(topo, cfg, add_sink);
    const std::size_t pods = ft.hosts_by_pod.size();
    for (std::size_t pod = 0; pod < pods; ++pod) {
      const auto& hs = ft.hosts_by_pod[pod];
      const auto& peers = ft.hosts_by_pod[(pod + pods / 2) % pods];
      for (std::size_t i = 0; i < hs.size(); ++i) {
        driver.sources.push_back(hs[i]);
        driver.dests.push_back(peers[i % peers.size()]);
      }
    }
  } else {
    const bool conga = spec.kind == FabricSpec::Kind::kCongaLeafSpine;
    net::LeafSpineConfig cfg;
    cfg.hosts_per_leaf = 8;
    cfg.conga_metric = conga;
    const net::LeafSpine ls = net::build_leaf_spine(
        topo, cfg, add_sink,
        [this, conga](net::NodeId id, std::string name,
                      int leaf_idx) -> std::unique_ptr<net::Switch> {
          if (leaf_idx < 0) {
            return std::make_unique<net::Switch>(sim, id, std::move(name));
          }
          if (conga) {
            return std::make_unique<net::CongaLeafSwitch>(sim, id,
                                                          std::move(name));
          }
          return std::make_unique<net::LetFlowSwitch>(sim, id, std::move(name));
        });
    if (conga) configure_conga(ls);
    for (std::size_t i = 0; i < ls.hosts_by_leaf[0].size(); ++i) {
      driver.sources.push_back(ls.hosts_by_leaf[0][i]);
      driver.dests.push_back(ls.hosts_by_leaf[1][i]);
      driver.sources.push_back(ls.hosts_by_leaf[1][i]);
      driver.dests.push_back(ls.hosts_by_leaf[0][i]);
    }
  }
  for (int r = 0; r < 8; ++r) driver.run_round(sim);
}

Measured& Measured::operator+=(const Measured& o) {
  wall_s += o.wall_s;
  events += o.events;
  packets += o.packets;
  hops += o.hops;
  allocs += o.allocs;
  return *this;
}

Measured measure(Fabric& f, int rounds) {
  prof::InstallGuard unprofiled(nullptr);
  return run_rounds(f, rounds);
}

std::vector<ArmResult> interleave(const std::vector<Arm>& arms, int rounds,
                                  double (Measured::*rate)() const) {
  std::vector<ArmResult> out;
  for (const Arm& arm : arms) out.push_back({arm.name, {}, 1.0});
  std::vector<std::vector<double>> ratios(arms.size());
  for (int r = -1; r < rounds; ++r) {  // round -1 warms up
    double base = 0.0;
    for (std::size_t i = 0; i < arms.size(); ++i) {
      prof::InstallGuard installed(arms[i].profiler);
      std::optional<telemetry::ScopeGuard> scoped;
      if (arms[i].scope != nullptr) scoped.emplace(*arms[i].scope);
      const Measured m = run_rounds(*arms[i].fabric, 1);
      if (r < 0) continue;
      out[i].total += m;
      const double v = (m.*rate)();
      if (i == 0) base = v;
      ratios[i].push_back(v / base);
    }
  }
  for (std::size_t i = 1; i < arms.size(); ++i) {
    out[i].ratio = median(std::move(ratios[i]));
  }
  return out;
}

int rounds_from_env(int fallback) {
  if (const char* s = std::getenv("CLOVE_FABRIC_ROUNDS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return fallback;
}

}  // namespace clove::bench
