// Tests for the SACK machinery: receiver block generation, sender
// scoreboard recovery, tail-loss probes and the pipe model.

#include <gtest/gtest.h>

#include <memory>

#include "net/packet_pool.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "transport/tcp.hpp"

namespace clove::transport {
namespace {

using clove::testutil::tuple;

/// Direct-injection harness for receiver-side SACK generation.
class SackReceiver : public ::testing::Test {
 protected:
  class Capture : public VmPort {
   public:
    explicit Capture(sim::Simulator& s) : sim_(s) {}
    void vm_send(net::PacketPtr pkt) override { out.push_back(std::move(pkt)); }
    sim::Simulator& simulator() override { return sim_; }
    std::vector<net::PacketPtr> out;

   private:
    sim::Simulator& sim_;
  };

  SackReceiver() : port(sim) {
    TcpConfig cfg;
    cfg.ack_every = 1;  // ack every segment so every ACK is observable
    rx = std::make_unique<TcpReceiver>(port, tuple(1, 2).reversed(), cfg);
  }

  void deliver(std::uint64_t seq, std::uint32_t len = 1000) {
    rx->on_packet(clove::testutil::make_data(tuple(1, 2), seq, len));
  }

  const net::Packet& last_ack() const { return *port.out.back(); }
  /// The last ACK's cold record; null when it carries no SACK blocks.
  const net::Packet::Cold* last_record() {
    return net::PacketPool::of(sim).find_cold(last_ack());
  }
  /// The last ACK's SACK option (empty when it carries no record).
  net::Packet::Cold last_sack() {
    const net::Packet::Cold* c = last_record();
    return c != nullptr ? *c : net::Packet::Cold{};
  }

  sim::Simulator sim;
  Capture port;
  std::unique_ptr<TcpReceiver> rx;
};

TEST_F(SackReceiver, NoBlocksWhenInOrder) {
  deliver(0);
  ASSERT_FALSE(port.out.empty());
  EXPECT_EQ(last_sack().sack_count, 0);
  EXPECT_EQ(last_record(), nullptr);  // no blocks, no record
  EXPECT_EQ(last_ack().tcp.ack, 1000u);
}

TEST_F(SackReceiver, ReportsOutOfOrderBlock) {
  deliver(2000);
  ASSERT_FALSE(port.out.empty());
  ASSERT_EQ(last_sack().sack_count, 1);
  EXPECT_EQ(last_sack().sacks[0].start, 2000u);
  EXPECT_EQ(last_sack().sacks[0].end, 3000u);
  EXPECT_EQ(last_ack().tcp.ack, 0u);
}

TEST_F(SackReceiver, MostRecentBlockFirst) {
  deliver(2000);
  deliver(6000);
  deliver(4000);
  ASSERT_GE(last_sack().sack_count, 2);
  // The 4000 block arrived last, so it is reported first (RFC 2018).
  EXPECT_EQ(last_sack().sacks[0].start, 4000u);
}

TEST_F(SackReceiver, AtMostThreeBlocks) {
  deliver(2000);
  deliver(4000);
  deliver(6000);
  deliver(8000);
  deliver(10000);
  EXPECT_LE(last_sack().sack_count, 3);
}

TEST_F(SackReceiver, BlocksClearWhenGapFills) {
  deliver(2000);
  deliver(1000);
  deliver(0);
  EXPECT_EQ(last_ack().tcp.ack, 3000u);
  EXPECT_EQ(last_record(), nullptr);
}

TEST_F(SackReceiver, DisabledSackSendsNoBlocks) {
  TcpConfig cfg;
  cfg.sack = false;
  cfg.ack_every = 1;
  rx = std::make_unique<TcpReceiver>(port, tuple(1, 2).reversed(), cfg);
  deliver(2000);
  EXPECT_EQ(last_record(), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end recovery comparisons over a lossy pipe
// ---------------------------------------------------------------------------

class SackPipe : public ::testing::Test {
 protected:
  class Port : public VmPort {
   public:
    Port(SackPipe& owner, int side) : owner_(owner), side_(side) {}
    void vm_send(net::PacketPtr pkt) override {
      owner_.transmit(side_, std::move(pkt));
    }
    sim::Simulator& simulator() override { return owner_.sim; }

   private:
    SackPipe& owner_;
    int side_;
  };

  void SetUp() override {
    a = std::make_unique<Port>(*this, 0);
    b = std::make_unique<Port>(*this, 1);
  }

  void transmit(int side, net::PacketPtr pkt) {
    if (side == 0 && pkt->payload > 0) {
      ++data_seen;
      if (burst_start > 0 && data_seen >= burst_start &&
          data_seen < burst_start + burst_len) {
        return;  // contiguous burst loss
      }
      if (drop_every > 0 && data_seen % drop_every == 0) return;
    }
    TcpEndpoint* dst = (side == 0) ? rx_ep : tx_ep;
    net::Packet* raw = pkt.release();
    sim.schedule_in(delay, [dst, raw] { dst->on_packet(net::PacketPtr(raw)); });
  }

  /// Returns completion time of a 3MB transfer under the configured losses.
  sim::Time run_transfer(bool sack) {
    TcpConfig cfg;
    cfg.min_rto = 50 * sim::kMillisecond;
    cfg.sack = sack;
    TcpSender tx(*a, tuple(1, 2), cfg);
    TcpReceiver rx(*b, tuple(1, 2).reversed(), cfg);
    tx_ep = &tx;
    rx_ep = &rx;
    sim::Time done_at = -1;
    tx.write(3'000'000, [&](sim::Time t) { done_at = t; });
    sim.run();
    timeouts = tx.stats().timeouts;
    packets_sent = tx.stats().packets_sent;
    return done_at;
  }

  sim::Simulator sim;
  std::unique_ptr<Port> a, b;
  TcpEndpoint* tx_ep{nullptr};
  TcpEndpoint* rx_ep{nullptr};
  sim::Time delay{50 * sim::kMicrosecond};
  int data_seen{0};
  int burst_start{0};
  int burst_len{0};
  int drop_every{0};
  std::uint64_t timeouts{0};
  std::uint64_t packets_sent{0};
};

TEST_F(SackPipe, RecoversBurstLossWithoutRto) {
  burst_start = 100;
  burst_len = 40;  // a 40-packet contiguous hole
  const sim::Time t = run_transfer(true);
  ASSERT_GT(t, 0);
  EXPECT_EQ(timeouts, 0u);
}

TEST_F(SackPipe, SackBeatsNewRenoOnBurstLoss) {
  burst_start = 100;
  burst_len = 40;
  const sim::Time with_sack = run_transfer(true);
  data_seen = 0;
  SetUp();
  burst_start = 100;
  burst_len = 40;
  const sim::Time without = run_transfer(false);
  ASSERT_GT(with_sack, 0);
  ASSERT_GT(without, 0);
  // NewReno repairs ~one hole per RTT; SACK retransmits them in parallel.
  EXPECT_LT(with_sack, without);
}

TEST_F(SackPipe, PeriodicLossStillCompletes) {
  drop_every = 13;
  const sim::Time t = run_transfer(true);
  EXPECT_GT(t, 0);
}

TEST_F(SackPipe, TailBurstRepairedByProbe) {
  // Drop a burst that includes the very end of the transfer (packets
  // 2000-2055 of ~2055): recovery must come from tail probes, not RTO.
  burst_start = 2000;
  burst_len = 100;
  const sim::Time t = run_transfer(true);
  ASSERT_GT(t, 0);
  EXPECT_EQ(timeouts, 0u);
  EXPECT_LT(t, 50 * sim::kMillisecond);
}

TEST_F(SackPipe, MultiHoleRecoveryIsPinned) {
  // A burst plus periodic loss keeps several holes open at once, so pumps
  // retransmit many holes back to back. The values pin the exact recovery
  // schedule; they are the ones the per-segment rescan of the scoreboard
  // produced before the pipe terms were kept incrementally.
  burst_start = 100;
  burst_len = 40;
  drop_every = 29;
  const sim::Time t = run_transfer(true);
  EXPECT_EQ(t, 48500000);
  EXPECT_EQ(packets_sent, 2169u);
  EXPECT_EQ(timeouts, 0u);
}

}  // namespace
}  // namespace clove::transport
