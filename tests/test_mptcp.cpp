// Tests for the MPTCP model: striping, completion accounting, subflow
// diversity and coupled congestion control.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "transport/mptcp.hpp"

namespace clove::transport {
namespace {

using clove::testutil::tuple;

/// Loopback harness with per-subflow receivers auto-created on demand.
class MptcpPipe : public ::testing::Test {
 protected:
  class Port : public VmPort {
   public:
    Port(MptcpPipe& owner, bool sender_side)
        : owner_(owner), sender_side_(sender_side) {}
    void vm_send(net::PacketPtr pkt) override {
      owner_.transmit(sender_side_, std::move(pkt));
    }
    sim::Simulator& simulator() override { return owner_.sim; }

   private:
    MptcpPipe& owner_;
    bool sender_side_;
  };

  void SetUp() override {
    tx_port = std::make_unique<Port>(*this, true);
    rx_port = std::make_unique<Port>(*this, false);
  }

  void transmit(bool from_sender, net::PacketPtr pkt) {
    if (from_sender) {
      ports_used.insert(pkt->inner.src_port);
      if (pkt->payload > 0) ++data_pkts;
      // Receiver side: find or create the subflow receiver.
      const net::FiveTuple key = pkt->inner.reversed();
      auto it = receivers.find(key);
      if (it == receivers.end()) {
        it = receivers
                 .emplace(key, std::make_unique<TcpReceiver>(*rx_port, key,
                                                             TcpConfig{}))
                 .first;
      }
      TcpReceiver* rx = it->second.get();
      sim.schedule_in(delay, [rx, p = std::move(pkt)]() mutable {
        rx->on_packet(std::move(p));
      });
    } else {
      // ACK back to the matching subflow sender.
      const net::FiveTuple key = pkt->inner.reversed();
      auto it = senders.find(key);
      if (it == senders.end()) return;
      TcpSender* tx = it->second;
      sim.schedule_in(delay, [tx, p = std::move(pkt)]() mutable {
        tx->on_packet(std::move(p));
      });
    }
  }

  void wire(MptcpSender& m) {
    for (TcpSender* sf : m.endpoints()) senders[sf->tuple()] = sf;
  }

  sim::Simulator sim;
  std::unique_ptr<Port> tx_port, rx_port;
  std::unordered_map<net::FiveTuple, TcpSender*, net::FiveTupleHash> senders;
  std::unordered_map<net::FiveTuple, std::unique_ptr<TcpReceiver>,
                     net::FiveTupleHash>
      receivers;
  std::set<std::uint16_t> ports_used;
  int data_pkts{0};
  sim::Time delay{50 * sim::kMicrosecond};
};

TEST_F(MptcpPipe, CreatesConfiguredSubflows) {
  MptcpConfig cfg;
  cfg.subflows = 4;
  MptcpSender m(*tx_port, tuple(1, 2, 9000), cfg);
  EXPECT_EQ(m.subflow_count(), 4);
  // Distinct source ports 9000..9003.
  std::set<std::uint16_t> ports;
  for (TcpSender* sf : m.endpoints()) ports.insert(sf->tuple().src_port);
  EXPECT_EQ(ports.size(), 4u);
}

TEST_F(MptcpPipe, DeliversJobAcrossSubflows) {
  MptcpConfig cfg;
  cfg.subflows = 4;
  MptcpSender m(*tx_port, tuple(1, 2, 9000), cfg);
  wire(m);
  bool done = false;
  m.write(2'000'000, [&](sim::Time) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  std::uint64_t total = 0;
  for (auto& [k, rx] : receivers) total += rx->bytes_delivered();
  EXPECT_EQ(total, 2'000'000u);
  EXPECT_GE(ports_used.size(), 2u);  // actually striped
}

TEST_F(MptcpPipe, SmallJobCompletes) {
  MptcpSender m(*tx_port, tuple(1, 2, 9000), MptcpConfig{});
  wire(m);
  bool done = false;
  m.write(1'000, [&](sim::Time) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST_F(MptcpPipe, ZeroByteJobCompletesImmediately) {
  MptcpSender m(*tx_port, tuple(1, 2, 9000), MptcpConfig{});
  wire(m);
  bool done = false;
  m.write(0, [&](sim::Time) { done = true; });
  EXPECT_TRUE(done);
}

TEST_F(MptcpPipe, SequentialJobsAllComplete) {
  MptcpSender m(*tx_port, tuple(1, 2, 9000), MptcpConfig{});
  wire(m);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    m.write(100'000, [&](sim::Time) { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 5);
}

TEST_F(MptcpPipe, CoupledIncreaseIsGentlerThanUncoupled) {
  // Run the same transfer with coupled vs uncoupled control; LIA's total
  // window growth must not exceed independent Reno subflows'.
  std::uint64_t coupled_cwnd = 0, uncoupled_cwnd = 0;
  for (bool coupled : {true, false}) {
    SetUp();
    senders.clear();
    receivers.clear();
    MptcpConfig cfg;
    cfg.coupled = coupled;
    // Force congestion-avoidance quickly.
    cfg.tcp.initial_cwnd_pkts = 2;
    auto m = std::make_unique<MptcpSender>(*tx_port, tuple(1, 2, 9000), cfg);
    wire(*m);
    m->write(5'000'000, nullptr);
    sim.run(sim::milliseconds(5));
    (coupled ? coupled_cwnd : uncoupled_cwnd) = m->total_cwnd();
  }
  EXPECT_LE(coupled_cwnd, uncoupled_cwnd);
}

TEST_F(MptcpPipe, SubflowPortsAreConsecutive) {
  MptcpConfig cfg;
  cfg.subflows = 3;
  MptcpSender m(*tx_port, tuple(1, 2, 9000), cfg);
  std::set<std::uint16_t> expect{9000, 9001, 9002};
  std::set<std::uint16_t> got;
  for (TcpSender* sf : m.endpoints()) got.insert(sf->tuple().src_port);
  EXPECT_EQ(got, expect);
}

}  // namespace
}  // namespace clove::transport
