#pragma once

// Shared helpers for the Clove test suite.

#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/simulator.hpp"

namespace clove::testutil {

/// A terminal node that records every packet delivered to it.
class SinkNode : public net::Node {
 public:
  SinkNode(net::NodeId id, std::string name) : net::Node(id, std::move(name)) {}

  void receive(net::PacketPtr pkt, int in_port) override {
    in_ports.push_back(in_port);
    received.push_back(std::move(pkt));
  }

  std::vector<net::PacketPtr> received;
  std::vector<int> in_ports;
};

/// Build a TCP data packet with the given tuple/seq/len.
inline net::PacketPtr make_data(const net::FiveTuple& t, std::uint64_t seq,
                                std::uint32_t len) {
  auto p = net::make_packet();
  p->inner = t;
  p->tcp.seq = seq;
  p->payload = len;
  return p;
}

/// Every packet of `run`, built in order from `sim`'s pool exactly as a link
/// builds each one when its transmitter reaches it.
inline std::vector<net::PacketPtr> materialize(sim::Simulator& sim,
                                               const net::PacketRecipe& run) {
  std::vector<net::PacketPtr> pkts;
  for (std::uint32_t i = 0; i < run.count; ++i) {
    pkts.push_back(run.make(net::PacketPool::of(sim), i));
  }
  return pkts;
}

inline net::FiveTuple tuple(net::IpAddr src, net::IpAddr dst,
                            std::uint16_t sport = 1000,
                            std::uint16_t dport = 80) {
  return net::FiveTuple{src, dst, sport, dport, net::Proto::kTcp};
}

}  // namespace clove::testutil
