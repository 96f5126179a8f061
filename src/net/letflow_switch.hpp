#pragma once

#include "net/switch.hpp"
#include "net/switch_flowlet.hpp"
#include "sim/random.hpp"

namespace clove::net {

/// A LetFlow-style switch (Vanini et al., NSDI 2017; paper §8): plain
/// flowlet switching in hardware with a uniformly random next-hop per new
/// flowlet. Congestion-unaware, but flowlet sizes adapt implicitly. Used by
/// the A1 ablation to contrast in-switch flowlets with Clove's edge flowlets.
class LetFlowSwitch : public Switch {
 public:
  LetFlowSwitch(sim::Simulator& sim, NodeId id, std::string name,
                sim::Time flowlet_gap = 200 * sim::kMicrosecond)
      : Switch(sim, id, std::move(name)),
        flowlets_(flowlet_gap),
        rng_(id * 6151u + 3u) {}

  void set_flowlet_gap(sim::Time gap) { flowlets_.set_gap(gap); }

 protected:
  int select_port(const Packet& pkt, const PortSet& ports,
                  int in_port) override {
    if (ports.size() == 1) return ports[0];
    (void)in_port;
    const std::uint64_t key = salted_hash(pkt.wire_hash(), 0x1e7f);
    auto dec = flowlets_.touch(key, sim_.now());
    if (!dec.new_flowlet) {
      const int p = static_cast<int>(dec.value);
      for (int q : ports) {
        if (q == p) return p;
      }
    }
    const int chosen = ports[rng_.uniform_int(ports.size())];
    dec.set_value(static_cast<std::uint32_t>(chosen));
    return chosen;
  }

 private:
  SwitchFlowletTable flowlets_;
  sim::Rng rng_;
};

}  // namespace clove::net
