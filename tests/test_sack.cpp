// Tests for the SACK machinery: receiver block generation, sender
// scoreboard recovery, tail-loss probes and the pipe model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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
// Scoreboard vs a per-chunk walk
// ---------------------------------------------------------------------------

/// The scoreboard as first written, kept as an oracle: std::map blocks and
/// records, a rescan of every record on each ACK, and pipe terms and holes
/// found by walking every hole in MSS chunks. SackScoreboard computes the
/// same things incrementally and must agree exactly.
struct ChunkWalkOracle {
  std::uint32_t mss;
  std::map<std::uint64_t, std::uint64_t> sacked;
  std::map<std::uint64_t, sim::Time> retx;

  void add(std::uint64_t s, std::uint64_t e) {
    auto it = sacked.lower_bound(s);
    if (it != sacked.begin() && std::prev(it)->second >= s) --it;
    while (it != sacked.end() && it->first <= e) {
      s = std::min(s, it->first);
      e = std::max(e, it->second);
      it = sacked.erase(it);
    }
    sacked[s] = e;
  }
  void drop_covered() {
    for (auto it = retx.begin(); it != retx.end();) {
      auto rit = sacked.upper_bound(it->first);
      const bool covered =
          rit != sacked.begin() && std::prev(rit)->second > it->first;
      it = covered ? retx.erase(it) : ++it;
    }
  }
  void advance(std::uint64_t una) {
    while (!sacked.empty() && sacked.begin()->second <= una) {
      sacked.erase(sacked.begin());
    }
    if (!sacked.empty() && sacked.begin()->first < una) {
      const std::uint64_t e = sacked.begin()->second;
      sacked.erase(sacked.begin());
      sacked[una] = e;
    }
    retx.erase(retx.begin(), retx.lower_bound(una));
  }
  [[nodiscard]] std::uint64_t sacked_bytes(std::uint64_t una) const {
    std::uint64_t total = 0;
    for (const auto& [s, e] : sacked) {
      if (e > una) total += e - std::max(s, una);
    }
    return total;
  }
  [[nodiscard]] SackScoreboard::Pipe pipe(std::uint64_t una, sim::Time now,
                                          sim::Time lost_after) const {
    SackScoreboard::Pipe p{0, 0};
    std::uint64_t pos = una;
    for (const auto& [s, e] : sacked) {
      if (e <= pos) continue;
      for (std::uint64_t h = pos; h < s; h += mss) {
        const std::uint64_t len = std::min<std::uint64_t>(mss, s - h);
        auto rit = retx.find(h);
        const bool recent = rit != retx.end() && now - rit->second < lost_after;
        (recent ? p.retx_inflight : p.lost) += len;
      }
      pos = std::max(pos, e);
    }
    return p;
  }
  [[nodiscard]] std::pair<std::uint64_t, std::uint32_t> next_hole(
      std::uint64_t una, std::uint64_t from, std::uint64_t stream_end,
      sim::Time now, sim::Time lost_after) const {
    std::uint64_t pos = una;
    for (const auto& [s, e] : sacked) {
      if (e <= pos) continue;
      std::uint64_t h = pos;
      if (h < from) h += (from - h + mss - 1) / mss * mss;
      for (; h < s; h += mss) {
        auto rit = retx.find(h);
        if (rit != retx.end() && now - rit->second < lost_after) continue;
        const auto len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>({mss, s - h, stream_end - h}));
        if (len > 0) return {h, len};
      }
      pos = std::max(pos, e);
    }
    return {0, 0};
  }
};

/// Drives a SackScoreboard and the oracle through the same random sender
/// history and compares everything the sender reads after every step.
class SackScoreboardDiff {
 public:
  SackScoreboardDiff(std::uint64_t seed, std::uint32_t mss)
      : rng_(seed), mss_(mss), board_(mss), oracle_{mss, {}, {}} {}

  void run(int steps) {
    for (int i = 0; i < steps && !::testing::Test::HasFailure(); ++i) {
      step();
      compare();
    }
  }

 private:
  std::uint64_t pick(std::uint64_t lo, std::uint64_t hi) {  // [lo, hi]
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng_);
  }
  /// A sequence number near [lo, hi]: MSS-aligned from the stream start,
  /// aligned to `lo`, or any byte, and sometimes a little outside.
  std::uint64_t seq_near(std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t slack = 2ull * mss_;
    const std::uint64_t a = lo > slack ? lo - slack : 0;
    const std::uint64_t v = pick(a, hi + slack);
    switch (pick(0, 2)) {
      case 0: return v / mss_ * mss_;
      case 1: return v < lo ? v : lo + (v - lo) / mss_ * mss_;
      default: return v;
    }
  }

  void step() {
    switch (pick(0, 9)) {
      case 0:
      case 1: {  // the application writes and the window opens
        stream_end_ += pick(1, 40) * mss_ - pick(0, 1) * pick(1, mss_ - 1);
        while (nxt_ < stream_end_ && nxt_ - una_ < 120ull * mss_) {
          nxt_ += std::min<std::uint64_t>(mss_, stream_end_ - nxt_);
        }
        break;
      }
      case 2:
      case 3:
      case 4: {  // an ACK carrying SACK blocks, clamped as TcpSender does
        const int n = static_cast<int>(pick(1, 3));
        for (int b = 0; b < n; ++b) {
          std::uint64_t s = seq_near(una_, nxt_);
          std::uint64_t e = s + pick(1, 6) * mss_ - pick(0, 1) * pick(0, mss_);
          s = std::max(s, una_);
          e = std::min(e, nxt_);
          if (s < e) {
            board_.add(s, e);
            oracle_.add(s, e);
          }
        }
        oracle_.drop_covered();
        break;
      }
      case 5: {  // the cumulative ACK advances, maybe into a block or hole
        if (una_ == nxt_) break;
        std::uint64_t una = std::min(nxt_, una_ + pick(1, 8ull * mss_));
        if (pick(0, 2) == 0 && una - una % mss_ > una_) una -= una % mss_;
        una_ = una;
        board_.advance(una_);
        oracle_.advance(una_);
        oracle_.drop_covered();
        break;
      }
      case 6:
      case 7: {  // a pump retransmits the holes it finds
        std::uint64_t from = pick(0, 1) == 0 ? una_ : seq_near(una_, nxt_);
        for (int k = static_cast<int>(pick(1, 8)); k > 0; --k) {
          const auto [h, len] = board_.next_hole(una_, from, now_, lost_after_);
          if (len == 0) break;
          board_.record_retx(h, now_);
          oracle_.retx[h] = now_;
          from = h + 1;
        }
        break;
      }
      case 8: {  // time passes; retransmissions may age past lost_after
        now_ += static_cast<sim::Time>(pick(0, 3 * lost_after_ / 4));
        if (pick(0, 4) == 0) lost_after_ = static_cast<sim::Time>(pick(1, 400));
        break;
      }
      default: {
        switch (pick(0, 3)) {
          case 0:  // RTO: go-back-N from snd_una
            nxt_ = una_;
            board_.clear();
            oracle_.sacked.clear();
            oracle_.retx.clear();
            break;
          case 1:  // hybrid_suspend: everything sent counts as delivered
            una_ = nxt_;
            board_.clear();
            oracle_.sacked.clear();
            oracle_.retx.clear();
            break;
          default:  // recovery entered or left
            board_.clear_retx();
            oracle_.retx.clear();
            break;
        }
        break;
      }
    }
  }

  void compare() {
    ASSERT_EQ(board_.sacked_bytes(), oracle_.sacked_bytes(una_));
    const std::vector<net::SackBlock>& blocks = board_.blocks();
    ASSERT_EQ(blocks.size(), oracle_.sacked.size());
    auto it = oracle_.sacked.begin();
    for (const net::SackBlock& b : blocks) {
      ASSERT_EQ(b.start, it->first);
      ASSERT_EQ(b.end, it->second);
      ++it;
    }
    const std::vector<SackScoreboard::Retx>& retx = board_.retx();
    ASSERT_EQ(retx.size(), oracle_.retx.size());
    auto rit = oracle_.retx.begin();
    for (const SackScoreboard::Retx& r : retx) {
      ASSERT_EQ(r.seq, rit->first);
      ASSERT_EQ(r.sent, rit->second);
      ++rit;
    }
    const SackScoreboard::Pipe got = board_.pipe(una_, now_, lost_after_);
    const SackScoreboard::Pipe want = oracle_.pipe(una_, now_, lost_after_);
    ASSERT_EQ(got.lost, want.lost);
    ASSERT_EQ(got.retx_inflight, want.retx_inflight);
    std::vector<std::uint64_t> froms{una_, una_ + 1, nxt_};
    for (const auto& [seq, sent] : oracle_.retx) froms.push_back(seq + 1);
    for (int k = 0; k < 4; ++k) froms.push_back(seq_near(una_, nxt_));
    for (std::uint64_t from : froms) {
      const auto hole =
          oracle_.next_hole(una_, from, stream_end_, now_, lost_after_);
      ASSERT_EQ(board_.next_hole(una_, from, now_, lost_after_), hole)
          << "from " << from << dump();
      // sack_pump() searches for a hole only while `lost` is nonzero.
      if (want.lost == 0) {
        ASSERT_EQ(hole.second, 0u) << dump();
      }
    }
    if (want.lost > 0) {
      ASSERT_GT(board_.next_hole(una_, una_, now_, lost_after_).second, 0u)
          << dump();
    }
  }

  /// The scoreboard's state, for failure messages.
  [[nodiscard]] std::string dump() const {
    std::ostringstream o;
    o << "\nuna " << una_ << " now " << now_ << " lost_after " << lost_after_
      << "\nblocks";
    for (const net::SackBlock& b : board_.blocks()) {
      o << " [" << b.start << "," << b.end << ")";
    }
    o << "\nretx";
    for (const SackScoreboard::Retx& r : board_.retx()) {
      o << " " << r.seq << "@" << r.sent;
    }
    return o.str();
  }

  std::mt19937_64 rng_;
  std::uint32_t mss_;
  SackScoreboard board_;
  ChunkWalkOracle oracle_;
  std::uint64_t una_{0};
  std::uint64_t nxt_{0};
  std::uint64_t stream_end_{0};
  sim::Time now_{0};
  sim::Time lost_after_{150};
};

TEST(SackScoreboard, MatchesChunkWalkOnRandomHistories) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SackScoreboardDiff(seed, seed % 3 == 0 ? 1460 : 100).run(400);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
  }
}

TEST(SackScoreboard, OffGridRecordNamesNoChunk) {
  // A retransmission recorded at a hole chunk stops counting once the hole
  // start moves off its grid, as the per-chunk walk never visits it.
  SackScoreboard board(100);
  board.add(1000, 1100);
  board.record_retx(0, 0);
  board.record_retx(100, 0);
  EXPECT_EQ(board.pipe(0, 0, 50).retx_inflight, 200u);
  board.advance(50);  // the hole now starts at 50: chunks 50, 150, ...
  EXPECT_EQ(board.pipe(50, 0, 50).retx_inflight, 0u);
  EXPECT_EQ(board.pipe(50, 0, 50).lost, 950u);
  EXPECT_EQ(board.next_hole(50, 50, 0, 50),
            (std::pair<std::uint64_t, std::uint32_t>{50, 100}));
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
    sim.schedule_in(delay, [dst, p = std::move(pkt)]() mutable {
      dst->on_packet(std::move(p));
    });
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
