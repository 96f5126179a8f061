// Tests for the TCP model: reliable delivery, congestion control dynamics,
// loss recovery, ECN and DCTCP reactions, and job framing.

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "transport/tcp.hpp"

namespace clove::transport {
namespace {

using clove::testutil::tuple;

/// A loopback harness: two VmPorts joined by a configurable pipe with fixed
/// delay, optional deterministic drop pattern and optional CE marking.
class TcpPipe : public ::testing::Test {
 protected:
  class Port : public VmPort {
   public:
    Port(TcpPipe& owner, int side) : owner_(owner), side_(side) {}
    void vm_send(net::PacketPtr pkt) override { owner_.transmit(side_, std::move(pkt)); }
    sim::Simulator& simulator() override { return owner_.sim; }

   private:
    TcpPipe& owner_;
    int side_;
  };

  void SetUp() override {
    a = std::make_unique<Port>(*this, 0);
    b = std::make_unique<Port>(*this, 1);
  }

  void transmit(int from_side, net::PacketPtr pkt) {
    ++packets_seen;
    if (from_side == 0 && pkt->payload > 0) {
      ++data_seen;
      if (drop_next > 0 && data_seen == drop_next) {
        drop_next = 0;
        return;  // lost
      }
      if (drop_every > 0 && data_seen % drop_every == 0) return;
      if (mark_all_data && pkt->ecn.ect) pkt->ecn.ce = true;
    }
    // Deliver to the opposite endpoint after the one-way delay. The shared_ptr
    // holder keeps the callable copyable for std::function while still freeing
    // the packet if a test stops the simulator before the event fires.
    TcpEndpoint* target = (from_side == 0) ? b_endpoint : a_endpoint;
    auto holder = std::make_shared<net::PacketPtr>(std::move(pkt));
    sim.schedule_in(delay, [target, holder] {
      target->on_packet(std::move(*holder));
    });
  }

  TcpConfig fast_cfg() {
    TcpConfig cfg;
    cfg.min_rto = 10 * sim::kMillisecond;
    return cfg;
  }

  sim::Simulator sim;
  std::unique_ptr<Port> a, b;
  TcpEndpoint* a_endpoint{nullptr};  ///< receives packets sent by side B
  TcpEndpoint* b_endpoint{nullptr};  ///< receives packets sent by side A
  sim::Time delay{50 * sim::kMicrosecond};
  int drop_next{0};   ///< drop the Nth data packet (one-shot)
  int drop_every{0};  ///< drop every Nth data packet
  bool mark_all_data{false};
  int packets_seen{0};
  int data_seen{0};
};

TEST_F(TcpPipe, DeliversAllBytesInOrder) {
  TcpSender tx(*a, tuple(1, 2), fast_cfg());
  TcpReceiver rx(*b, tuple(1, 2).reversed(), fast_cfg());
  a_endpoint = &tx;
  b_endpoint = &rx;
  std::uint64_t delivered = 0;
  rx.on_deliver = [&](std::uint64_t total) { delivered = total; };
  bool done = false;
  tx.write(1'000'000, [&](sim::Time) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(delivered, 1'000'000u);
  EXPECT_EQ(rx.bytes_delivered(), 1'000'000u);
}

TEST_F(TcpPipe, CompletionTimeReflectsBandwidthDelay) {
  TcpSender tx(*a, tuple(1, 2), fast_cfg());
  TcpReceiver rx(*b, tuple(1, 2).reversed(), fast_cfg());
  a_endpoint = &tx;
  b_endpoint = &rx;
  sim::Time done_at = 0;
  tx.write(14'600, [&](sim::Time t) { done_at = t; });  // 10 MSS = IW
  sim.run();
  // One RTT (100us) for the initial window to be acked, modulo delack.
  EXPECT_GE(done_at, 2 * delay);
  EXPECT_LE(done_at, 2 * delay + 300 * sim::kMicrosecond);
}

TEST_F(TcpPipe, SlowStartDoublesWindow) {
  TcpSender tx(*a, tuple(1, 2), fast_cfg());
  TcpReceiver rx(*b, tuple(1, 2).reversed(), fast_cfg());
  a_endpoint = &tx;
  b_endpoint = &rx;
  const std::uint64_t w0 = tx.cwnd();
  tx.write(10'000'000, nullptr);
  sim.run(2 * delay + sim::kMicrosecond);  // one full RTT of acks
  EXPECT_GE(tx.cwnd(), w0 + w0 / 2);       // grew substantially (delack halves)
}

TEST_F(TcpPipe, FastRetransmitRecoversSingleLoss) {
  TcpSender tx(*a, tuple(1, 2), fast_cfg());
  TcpReceiver rx(*b, tuple(1, 2).reversed(), fast_cfg());
  a_endpoint = &tx;
  b_endpoint = &rx;
  drop_next = 5;
  bool done = false;
  tx.write(300'000, [&](sim::Time) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rx.bytes_delivered(), 300'000u);
  EXPECT_GE(tx.stats().fast_retransmits, 1u);
  EXPECT_EQ(tx.stats().timeouts, 0u);  // recovered without RTO
}

TEST_F(TcpPipe, TailLossProbeAvoidsRto) {
  TcpSender tx(*a, tuple(1, 2), fast_cfg());
  TcpReceiver rx(*b, tuple(1, 2).reversed(), fast_cfg());
  a_endpoint = &tx;
  b_endpoint = &rx;
  // Lose the very last data packet: no dupacks possible. The tail-loss
  // probe repairs it long before the RTO would fire.
  drop_next = 2;
  bool done = false;
  sim::Time done_at = 0;
  tx.write(2 * 1460, [&](sim::Time t) {
    done = true;
    done_at = t;
  });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(tx.stats().timeouts, 0u);
  EXPECT_LT(done_at, fast_cfg().min_rto);  // recovered pre-RTO
}

TEST_F(TcpPipe, RtoRecoversTailLossWithoutTlp) {
  TcpConfig cfg = fast_cfg();
  cfg.tail_loss_probe = false;
  TcpSender tx(*a, tuple(1, 2), cfg);
  TcpReceiver rx(*b, tuple(1, 2).reversed(), cfg);
  a_endpoint = &tx;
  b_endpoint = &rx;
  drop_next = 2;
  bool done = false;
  tx.write(2 * 1460, [&](sim::Time) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_GE(tx.stats().timeouts, 1u);  // classic behaviour: full RTO
}

TEST_F(TcpPipe, SurvivesHeavyPeriodicLoss) {
  TcpSender tx(*a, tuple(1, 2), fast_cfg());
  TcpReceiver rx(*b, tuple(1, 2).reversed(), fast_cfg());
  a_endpoint = &tx;
  b_endpoint = &rx;
  drop_every = 17;
  bool done = false;
  tx.write(500'000, [&](sim::Time) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rx.bytes_delivered(), 500'000u);
}

TEST_F(TcpPipe, LossReducesWindow) {
  TcpSender tx(*a, tuple(1, 2), fast_cfg());
  TcpReceiver rx(*b, tuple(1, 2).reversed(), fast_cfg());
  a_endpoint = &tx;
  b_endpoint = &rx;
  drop_next = 40;  // mid-transfer, with plenty of traffic behind it
  bool done = false;
  tx.write(2'000'000, [&](sim::Time) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_GE(tx.stats().fast_retransmits, 1u);
  // ssthresh was halved at the loss, so the final window is far below the
  // configured maximum it would have reached loss-free.
  EXPECT_LT(tx.cwnd(), TcpConfig{}.max_cwnd_bytes);
}

TEST_F(TcpPipe, EcnHalvesOncePerWindow) {
  TcpConfig cfg = fast_cfg();
  cfg.ecn = true;
  TcpSender tx(*a, tuple(1, 2), cfg);
  TcpReceiver rx(*b, tuple(1, 2).reversed(), cfg);
  a_endpoint = &tx;
  b_endpoint = &rx;
  mark_all_data = true;  // every data packet is CE-marked
  bool done = false;
  tx.write(2'000'000, [&](sim::Time) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_GE(tx.stats().ecn_reductions, 1u);
  // Sustained marking pins cwnd at its 2-MSS floor, so "once per window"
  // means at most one reduction per ~2 data packets — but never one per ACK.
  EXPECT_LT(tx.stats().ecn_reductions,
            static_cast<std::uint64_t>(data_seen) / 2 + 2);
  EXPECT_LE(tx.cwnd(), 4u * TcpConfig{}.mss);  // pinned near the floor
}

TEST_F(TcpPipe, NoEcnReactionWhenDisabled) {
  TcpConfig cfg = fast_cfg();
  cfg.ecn = false;
  TcpSender tx(*a, tuple(1, 2), cfg);
  TcpReceiver rx(*b, tuple(1, 2).reversed(), cfg);
  a_endpoint = &tx;
  b_endpoint = &rx;
  mark_all_data = true;
  tx.write(500'000, nullptr);
  sim.run(sim::milliseconds(5));
  EXPECT_EQ(tx.stats().ecn_reductions, 0u);
}

TEST_F(TcpPipe, DctcpScalesWithMarkingFraction) {
  TcpConfig cfg = fast_cfg();
  cfg.dctcp = true;
  TcpSender tx(*a, tuple(1, 2), cfg);
  TcpReceiver rx(*b, tuple(1, 2).reversed(), cfg);
  a_endpoint = &tx;
  b_endpoint = &rx;
  bool done = false;
  tx.write(2'000'000, [&](sim::Time) { done = true; });
  mark_all_data = true;
  sim.run();
  EXPECT_TRUE(done);
  // With every packet marked, DCTCP's alpha goes to ~1, so reductions are
  // steady but the transfer still completes.
  EXPECT_GE(tx.stats().ecn_reductions, 2u);
}

TEST_F(TcpPipe, MultipleJobsCompleteInOrder) {
  TcpSender tx(*a, tuple(1, 2), fast_cfg());
  TcpReceiver rx(*b, tuple(1, 2).reversed(), fast_cfg());
  a_endpoint = &tx;
  b_endpoint = &rx;
  std::vector<int> completed;
  tx.write(10'000, [&](sim::Time) { completed.push_back(1); });
  tx.write(20'000, [&](sim::Time) { completed.push_back(2); });
  tx.write(5'000, [&](sim::Time) { completed.push_back(3); });
  sim.run();
  EXPECT_EQ(completed, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(tx.idle());
}

TEST_F(TcpPipe, JobsQueueBehindEarlierJobs) {
  TcpSender tx(*a, tuple(1, 2), fast_cfg());
  TcpReceiver rx(*b, tuple(1, 2).reversed(), fast_cfg());
  a_endpoint = &tx;
  b_endpoint = &rx;
  sim::Time t1 = 0, t2 = 0;
  std::vector<int> order;
  tx.write(5'000'000, [&](sim::Time t) {
    t1 = t;
    order.push_back(1);
  });
  tx.write(1'000, [&](sim::Time t) {
    t2 = t;
    order.push_back(2);
  });
  sim.run();
  // The tiny job cannot finish before the elephant in front of it (the same
  // cumulative ACK may cover both, so equality is allowed).
  EXPECT_GE(t2, t1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_GT(t1, 0);
}

TEST_F(TcpPipe, RttEstimateConverges) {
  TcpSender tx(*a, tuple(1, 2), fast_cfg());
  TcpReceiver rx(*b, tuple(1, 2).reversed(), fast_cfg());
  a_endpoint = &tx;
  b_endpoint = &rx;
  tx.write(500'000, nullptr);
  sim.run();
  // True RTT = 100us (+ delack worst case). srtt should land nearby.
  EXPECT_GT(tx.srtt(), 80 * sim::kMicrosecond);
  EXPECT_LT(tx.srtt(), 500 * sim::kMicrosecond);
}

TEST_F(TcpPipe, ReceiverCountsReorderEvents) {
  TcpConfig cfg = fast_cfg();
  TcpReceiver rx(*b, tuple(1, 2).reversed(), cfg);
  // Deliver two segments out of order directly.
  auto p2 = clove::testutil::make_data(tuple(1, 2), 1460, 1460);
  auto p1 = clove::testutil::make_data(tuple(1, 2), 0, 1460);
  b_endpoint = &rx;
  rx.on_packet(std::move(p2));
  EXPECT_EQ(rx.reorder_events(), 1u);
  EXPECT_EQ(rx.bytes_delivered(), 0u);
  rx.on_packet(std::move(p1));
  EXPECT_EQ(rx.bytes_delivered(), 2920u);
}

TEST_F(TcpPipe, ReceiverHandlesDuplicates) {
  TcpReceiver rx(*b, tuple(1, 2).reversed(), fast_cfg());
  b_endpoint = &rx;
  rx.on_packet(clove::testutil::make_data(tuple(1, 2), 0, 1460));
  rx.on_packet(clove::testutil::make_data(tuple(1, 2), 0, 1460));  // dup
  EXPECT_EQ(rx.bytes_delivered(), 1460u);
}

TEST_F(TcpPipe, SenderIgnoresStrayNonAck) {
  TcpSender tx(*a, tuple(1, 2), fast_cfg());
  a_endpoint = &tx;
  auto p = clove::testutil::make_data(tuple(1, 2).reversed(), 0, 100);
  p->tcp.flags.ack = false;
  tx.on_packet(std::move(p));  // must not crash or advance state
  EXPECT_EQ(tx.snd_una(), 0u);
}

}  // namespace
}  // namespace clove::transport
