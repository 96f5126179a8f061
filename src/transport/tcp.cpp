#include "transport/tcp.hpp"

#include <algorithm>
#include <array>
#include <iterator>

#include "net/packet_pool.hpp"
#include "prof/prof.hpp"
#include "sim/logging.hpp"
#include "telemetry/scope.hpp"

namespace clove::transport {

namespace {
constexpr sim::Time kMaxRto = 60 * sim::kSecond;
}

// ---------------------------------------------------------------------------
// TcpSender
// ---------------------------------------------------------------------------

TcpSender::TcpSender(VmPort& port, net::FiveTuple tuple, TcpConfig cfg)
    : port_(port),
      tuple_(tuple),
      cfg_(cfg),
      rto_timer_(port.simulator(), [this] { on_rto(); }),
      tlp_timer_(port.simulator(), [this] { on_tlp(); }),
      cwnd_(static_cast<std::uint64_t>(cfg.initial_cwnd_pkts) * cfg.mss),
      ssthresh_(cfg.max_cwnd_bytes),
      sack_(cfg.mss) {
  if (cfg_.dctcp) cfg_.ecn = true;
  auto bind = telemetry::current_scope().binder();
  cells_ = Cells{bind.counter("tcp.timeouts"),
                 bind.counter("tcp.fast_retransmits"),
                 bind.counter("tcp.ecn_reductions"),
                 bind.histogram("tcp.rtt_us")};
}

TcpSender::~TcpSender() {
  if (hook_ != nullptr) hook_->on_sender_gone(*this);
}

void TcpSender::write(std::uint64_t bytes, Completion done) {
  stream_end_ += bytes;
  if (done) completions_.emplace_back(stream_end_, std::move(done));
  try_send();
}

sim::Time TcpSender::rto() const {
  sim::Time base = (srtt_ == 0) ? 2 * cfg_.initial_rtt
                                : srtt_ + std::max<sim::Time>(4 * rttvar_,
                                                              sim::kMicrosecond);
  base = std::max(base, cfg_.min_rto);
  for (int i = 0; i < rto_backoff_; ++i) {
    base = std::min(base * 2, kMaxRto);
  }
  return base;
}

void TcpSender::arm_rto() {
  // Ensure-semantics: schedule the timers only when they are not already
  // pending, so repeated transmissions cannot push the RTO into the future
  // forever. on_ack() restarts them explicitly on cumulative progress.
  if (snd_una_ < snd_nxt_) {
    if (!rto_timer_.pending()) rto_timer_.schedule_in(rto());
    if (cfg_.tail_loss_probe && !tlp_timer_.pending()) {
      // Probe well before the (potentially huge) RTO would fire; the probe
      // re-arms itself, so a persistent stall keeps probing at PTO spacing
      // instead of waiting the full RTO.
      const sim::Time pto =
          std::max(cfg_.min_tlp, srtt_ > 0 ? 2 * srtt_ : 2 * cfg_.initial_rtt);
      if (pto < rto()) tlp_timer_.schedule_in(pto);
    }
  } else {
    rto_timer_.cancel();
    tlp_timer_.cancel();
  }
}

void TcpSender::restart_timers() {
  rto_timer_.cancel();
  tlp_timer_.cancel();
  arm_rto();
}

void TcpSender::on_tlp() {
  // Tail-loss probe: no ACK progress for ~2 RTTs with data outstanding.
  // Outside recovery, retransmit the LAST outstanding segment: a lost tail
  // is repaired directly, and otherwise the duplicate elicits dupacks that
  // let fast retransmit run instead of a full RTO. Inside recovery, a stall
  // means the retransmission itself was lost; re-send the oldest hole (what
  // SACK-based recovery in a real stack achieves).
  if (snd_una_ >= snd_nxt_) return;
  if (cfg_.sack) {
    // Re-pump first (hole retransmissions older than the probe timeout are
    // presumed lost again), then always probe the TAIL: when a whole burst
    // above the highest SACK was dropped, the pipe model cannot see it, and
    // only the tail probe's SACK can reveal the receiver's true state.
    if (in_recovery_) sack_pump();
    const std::uint64_t len =
        std::min<std::uint64_t>(cfg_.mss, snd_nxt_ - snd_una_);
    send_segment(snd_nxt_ - len, static_cast<std::uint32_t>(len),
                 /*retransmit=*/true);
  } else if (in_recovery_) {
    send_segment(snd_una_,
                 static_cast<std::uint32_t>(std::min<std::uint64_t>(
                     cfg_.mss, snd_nxt_ - snd_una_)),
                 /*retransmit=*/true);
  } else {
    const std::uint64_t len =
        std::min<std::uint64_t>(cfg_.mss, snd_nxt_ - snd_una_);
    send_segment(snd_nxt_ - len, static_cast<std::uint32_t>(len),
                 /*retransmit=*/true);
  }
  arm_rto();  // keep probing at PTO intervals while the stall lasts
}

void TcpSender::rtt_sample(sim::Time m) {
  if (telemetry::enabled()) {
    cells_.rtt_us->observe(static_cast<double>(m) / sim::kMicrosecond);
  }
  if (srtt_ == 0) {
    srtt_ = m;
    rttvar_ = m / 2;
  } else {
    const sim::Time err = srtt_ > m ? srtt_ - m : m - srtt_;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + m) / 8;
  }
}

void TcpSender::try_send() {
  // Promoted to the fluid model: the engine advances the stream; no packets
  // leave until hybrid_resume().
  if (hybrid_promoted_) return;
  // RFC 3042 limited transmit: the first dupacks each release one new
  // segment so that small windows can still reach the fast-retransmit
  // threshold instead of stalling into an RTO.
  std::uint64_t cwnd = cwnd_;
  if (cfg_.limited_transmit && !in_recovery_ && dupacks_ > 0) {
    cwnd += static_cast<std::uint64_t>(std::min(dupacks_, 2)) * cfg_.mss;
  }
  if (snd_nxt_ == snd_una_ && snd_nxt_ < stream_end_) {
    last_progress_ = port_.simulator().now();  // starting from idle
  }
  while (snd_nxt_ < stream_end_ && snd_nxt_ - snd_una_ < cwnd) {
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg_.mss, stream_end_ - snd_nxt_));
    // Avoid a sliver segment when the window has less than one byte... the
    // window check above already guarantees at least one byte of room.
    send_segment(snd_nxt_, len, /*retransmit=*/false);
    snd_nxt_ += len;
  }
  arm_rto();
}

void TcpSender::send_segment(std::uint64_t seq, std::uint32_t len,
                             bool retransmit) {
  auto pkt = net::make_packet(port_.simulator());
  pkt->inner = tuple_;
  pkt->tcp.seq = seq;
  pkt->tcp.ack = 0;
  pkt->tcp.flags.ack = false;
  pkt->payload = len;
  pkt->ttl = 64;
  pkt->sent_at = port_.simulator().now();
  if (trace_next_ && !retransmit && len > 0) {
    pkt->traced = true;
    trace_next_ = false;
  }
  if (cfg_.ecn) {
    pkt->ecn.ect = true;
    if (cwr_pending_) {
      pkt->tcp.flags.cwr = true;
      cwr_pending_ = false;
    }
  }
  samples_.push_back(
      SendSample{seq + len, retransmit ? -1 : port_.simulator().now()});
  ++stats_.packets_sent;
  stats_.bytes_sent += len;
  port_.vm_send(std::move(pkt));
}

void TcpSender::on_packet(net::PacketPtr pkt) {
  CLOVE_PROF_SCOPE(prof::kTransport);
  // While promoted, stale ACKs for pre-promotion packets still in flight
  // trickle in below the (already advanced) snd_una; discard them all.
  if (hybrid_promoted_) return;
  if (!pkt->tcp.flags.ack) return;
  on_ack(*pkt);
}

void TcpSender::on_path_evicted(net::IpAddr dst_ip, std::uint16_t port,
                                sim::Time now) {
  (void)port;  // the policy already dropped it; the re-hash picks a live one
  if (dst_ip != tuple_.dst_ip) return;
  if (hybrid_promoted_) {
    // The fluid flow may be riding the evicted path; the engine demotes it
    // so the next (real) packets re-run the path decision.
    if (hook_ != nullptr) hook_->on_loss_event(*this);
    return;
  }
  if (snd_una_ >= snd_nxt_) return;  // nothing in flight to rescue
  // Only act on a flow that is actually stalled: the eviction took ~several
  // probe intervals to fire, so a flow still advancing was not on that path.
  const sim::Time stall = srtt_ > 0 ? srtt_ : cfg_.initial_rtt;
  if (now - last_progress_ < stall) return;
  ++stats_.evict_repins;
  const std::uint64_t len =
      std::min<std::uint64_t>(cfg_.mss, snd_nxt_ - snd_una_);
  send_segment(snd_una_, static_cast<std::uint32_t>(len), /*retransmit=*/true);
  last_progress_ = now;  // one repin per eviction burst, not per dead port
  restart_timers();
}

// ---------------------------------------------------------------------------
// SACK scoreboard (RFC 6675-lite)
// ---------------------------------------------------------------------------

namespace {
bool ends_before(const net::SackBlock& b, std::uint64_t seq) {
  return b.end < seq;
}
bool starts_after(std::uint64_t seq, const net::SackBlock& b) {
  return seq < b.start;
}
bool retx_before(const SackScoreboard::Retx& r, std::uint64_t seq) {
  return r.seq < seq;
}
}  // namespace

void SackScoreboard::add(std::uint64_t start, std::uint64_t end) {
  // The blocks that overlap or touch [start, end): from the first one ending
  // at or after `start` to the last one starting at or before `end`. Blocks
  // never touch, so a merged block cannot reach past that last one.
  auto first =
      std::lower_bound(blocks_.begin(), blocks_.end(), start, ends_before);
  auto last = std::upper_bound(first, blocks_.end(), end, starts_after);
  if (first == last) {
    blocks_.insert(first, net::SackBlock{start, end});
    sacked_ += end - start;
  } else {
    for (auto it = first; it != last; ++it) sacked_ -= it->end - it->start;
    start = std::min(start, first->start);
    end = std::max(end, std::prev(last)->end);
    *first = net::SackBlock{start, end};
    sacked_ += end - start;
    blocks_.erase(first + 1, last);
  }
  // A retransmitted hole that is now sacked is no longer in flight. Only
  // the new range can cover records: the blocks it absorbed held none.
  auto r0 = std::lower_bound(retx_.begin(), retx_.end(), start, retx_before);
  auto r1 = std::lower_bound(r0, retx_.end(), end, retx_before);
  retx_.erase(r0, r1);
}

void SackScoreboard::advance(std::uint64_t una) {
  auto keep = blocks_.begin();
  for (; keep != blocks_.end() && keep->end <= una; ++keep) {
    sacked_ -= keep->end - keep->start;
  }
  blocks_.erase(blocks_.begin(), keep);
  if (!blocks_.empty() && blocks_.front().start < una) {
    sacked_ -= una - blocks_.front().start;
    blocks_.front().start = una;
  }
  retx_.erase(retx_.begin(),
              std::lower_bound(retx_.begin(), retx_.end(), una, retx_before));
}

void SackScoreboard::record_retx(std::uint64_t seq, sim::Time now) {
  auto it = std::lower_bound(retx_.begin(), retx_.end(), seq, retx_before);
  if (it != retx_.end() && it->seq == seq) {
    it->sent = now;
  } else {
    retx_.insert(it, Retx{seq, now});
  }
}

SackScoreboard::Pipe SackScoreboard::pipe(std::uint64_t una, sim::Time now,
                                          sim::Time lost_after) const {
  if (blocks_.empty()) return {0, 0};
  // Every hole byte below the highest sack is either presumed lost or
  // covered by a recent retransmission; only the records say which.
  const std::uint64_t holes = blocks_.back().end - una - sacked_;
  std::uint64_t retx_inflight = 0;
  auto b = blocks_.begin();
  std::uint64_t pos = una;  // start of the hole that ends at b->start
  for (const Retx& r : retx_) {
    for (; b != blocks_.end() && b->start <= r.seq; ++b) pos = b->end;
    if (b == blocks_.end()) break;
    if ((r.seq - pos) % mss_ == 0 && now - r.sent < lost_after) {
      retx_inflight += std::min<std::uint64_t>(mss_, b->start - r.seq);
    }
  }
  return {holes - retx_inflight, retx_inflight};
}

std::pair<std::uint64_t, std::uint32_t> SackScoreboard::next_hole(
    std::uint64_t una, std::uint64_t from, sim::Time now,
    sim::Time lost_after) const {
  // A hole ending at or below `from` has no chunk at or above it.
  auto b = std::upper_bound(blocks_.begin(), blocks_.end(), from, starts_after);
  auto r = retx_.begin();
  for (; b != blocks_.end(); ++b) {
    std::uint64_t h = b == blocks_.begin() ? una : std::prev(b)->end;
    if (h < from) h += (from - h + mss_ - 1) / mss_ * mss_;
    // Rounding up may overshoot this hole, and the next hole starts below
    // that point; only a hole with chunks left may move the record cursor.
    if (h >= b->start) continue;
    r = std::lower_bound(r, retx_.end(), h, retx_before);
    for (; h < b->start; h += mss_) {
      while (r != retx_.end() && r->seq < h) ++r;
      const bool recently_retx =
          r != retx_.end() && r->seq == h && now - r->sent < lost_after;
      if (!recently_retx) {
        return {h, static_cast<std::uint32_t>(
                       std::min<std::uint64_t>(mss_, b->start - h))};
      }
    }
  }
  return {0, 0};
}

void TcpSender::merge_sack_blocks(const net::Packet& pkt) {
  const net::Packet::Cold* opt =
      net::PacketPool::of(port_.simulator()).find_cold(pkt);
  if (opt == nullptr) return;
  for (int i = 0; i < opt->sack_count; ++i) {
    const net::SackBlock& b = opt->sacks[static_cast<std::size_t>(i)];
    const std::uint64_t s = std::max(b.start, snd_una_);
    const std::uint64_t e = std::min(b.end, snd_nxt_);
    if (s < e) sack_.add(s, e);
  }
}

sim::Time TcpSender::retx_lost_after() const {
  const sim::Time rtt = srtt_ > 0 ? srtt_ : cfg_.initial_rtt;
  return rtt + rtt / 2;
}

void TcpSender::enter_recovery_sack() {
  if (hook_ != nullptr) hook_->on_loss_event(*this);
  ++stats_.fast_retransmits;
  if (telemetry::enabled()) cells_.fast_retransmits->add();
  in_recovery_ = true;
  recover_point_ = snd_nxt_;
  const std::uint64_t inflight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max<std::uint64_t>(inflight / 2, 2ull * cfg_.mss);
  cwnd_ = ssthresh_;
  sack_.clear_retx();
}

void TcpSender::sack_pump() {
  // RFC 6675-style pipe: bytes believed in flight = outstanding, minus
  // sacked bytes, minus holes below the highest sack (presumed LOST — this
  // is what lets recovery proceed), plus recent hole retransmissions.
  //
  // The scoreboard terms are computed once per pump, then kept exact as
  // segments go out: new data only moves snd_nxt_, and a hole retransmission
  // turns exactly its chunk from lost into retransmitted-in-flight.
  const sim::Time now = port_.simulator().now();
  const sim::Time lost_after = retx_lost_after();
  const std::uint64_t sb = sack_.sacked_bytes();
  auto [lost, retx_inflight] = sack_.pipe(snd_una_, now, lost_after);
  // Every chunk below a retransmitted hole was already recent, so the next
  // hole search resumes just past it.
  std::uint64_t hole_from = snd_una_;
  while (true) {
    const std::uint64_t outstanding = snd_nxt_ - snd_una_;
    std::uint64_t pipe = outstanding > sb + lost ? outstanding - sb - lost : 0;
    pipe += retx_inflight;
    if (pipe >= cwnd_) break;
    // A hole chunk next_hole() may return is one `lost` counts, so with
    // nothing lost there is no hole to search for.
    if (in_recovery_ && lost > 0) {
      const auto [hseq, hlen] =
          sack_.next_hole(snd_una_, hole_from, now, lost_after);
      if (hlen > 0) {
        send_segment(hseq, hlen, /*retransmit=*/true);
        sack_.record_retx(hseq, now);
        lost -= hlen;
        retx_inflight += hlen;
        hole_from = hseq + 1;
        continue;
      }
    }
    if (snd_nxt_ < stream_end_) {
      const std::uint32_t len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(cfg_.mss, stream_end_ - snd_nxt_));
      send_segment(snd_nxt_, len, /*retransmit=*/false);
      snd_nxt_ += len;
      continue;
    }
    break;
  }
  arm_rto();
}

void TcpSender::ecn_reduce() {
  // RFC3168 / DCTCP: at most one multiplicative reduction per window.
  if (snd_una_ < ecn_reduce_until_) return;
  if (hook_ != nullptr) hook_->on_loss_event(*this);
  ecn_reduce_until_ = snd_nxt_;
  ++stats_.ecn_reductions;
  if (telemetry::enabled()) cells_.ecn_reductions->add();
  cwr_pending_ = true;
  std::uint64_t new_cwnd;
  if (cfg_.dctcp) {
    new_cwnd = static_cast<std::uint64_t>(
        static_cast<double>(cwnd_) * (1.0 - dctcp_alpha_ / 2.0));
  } else {
    new_cwnd = cwnd_ / 2;
  }
  cwnd_ = std::max<std::uint64_t>(new_cwnd, 2ull * cfg_.mss);
  ssthresh_ = cwnd_;
}

void TcpSender::on_ack(const net::Packet& pkt) {
  const net::TcpHeader& hdr = pkt.tcp;
  std::uint64_t ack = hdr.ack;
  const bool ece = hdr.flags.ece;
  if (ack > snd_nxt_) ack = snd_nxt_;  // corrupted/foreign; clamp

  // DCTCP marked-byte accounting (per-window alpha estimate).
  if (cfg_.dctcp && ack > snd_una_) {
    const std::uint64_t acked = ack - snd_una_;
    dctcp_acked_ += acked;
    if (ece) dctcp_marked_ += acked;
    if (ack >= dctcp_window_start_) {
      const double f = dctcp_acked_ > 0
                           ? static_cast<double>(dctcp_marked_) /
                                 static_cast<double>(dctcp_acked_)
                           : 0.0;
      dctcp_alpha_ = (1.0 - cfg_.dctcp_g) * dctcp_alpha_ + cfg_.dctcp_g * f;
      dctcp_acked_ = dctcp_marked_ = 0;
      dctcp_window_start_ = snd_nxt_;
    }
  }

  if (ece && cfg_.ecn) ecn_reduce();

  if (ack < snd_una_) return;  // stale
  if (cfg_.sack) merge_sack_blocks(pkt);
  if (ack == snd_una_) {
    if (snd_una_ < snd_nxt_) handle_dupack();
    return;
  }

  // New data acked.
  const std::uint64_t acked_bytes = ack - snd_una_;
  stats_.bytes_acked += acked_bytes;
  snd_una_ = ack;
  last_progress_ = port_.simulator().now();
  dupacks_ = 0;
  rto_backoff_ = 0;
  restart_timers();  // cumulative progress restarts the RTO/TLP clocks

  sack_.advance(snd_una_);  // prune the scoreboard below the new ack

  // RTT sample from the most recent fully-acked, never-retransmitted segment.
  sim::Time sample = -1;
  while (!samples_.empty() && samples_.front().seq_end <= ack) {
    if (samples_.front().sent >= 0) {
      sample = port_.simulator().now() - samples_.front().sent;
    }
    samples_.pop_front();
  }
  if (sample >= 0) rtt_sample(sample);

  if (in_recovery_) {
    if (ack >= recover_point_) {
      in_recovery_ = false;
      sack_.clear_retx();
      cwnd_ = std::max<std::uint64_t>(ssthresh_, 2ull * cfg_.mss);
    } else if (!cfg_.sack) {
      // NewReno partial ack: the next hole is lost too; retransmit it and
      // deflate the window by the amount acked. (With SACK the pump below
      // retransmits exactly the known holes instead.)
      send_segment(snd_una_,
                   static_cast<std::uint32_t>(std::min<std::uint64_t>(
                       cfg_.mss, stream_end_ - snd_una_)),
                   /*retransmit=*/true);
      cwnd_ = (cwnd_ > acked_bytes ? cwnd_ - acked_bytes : 0) + cfg_.mss;
    }
  } else if (cwnd_ < ssthresh_) {
    cwnd_ += acked_bytes;  // slow start
  } else {
    cwnd_ += ca_increase ? ca_increase(acked_bytes)
                         : std::max<std::uint64_t>(
                               1, static_cast<std::uint64_t>(cfg_.mss) *
                                      acked_bytes / std::max<std::uint64_t>(
                                                        cwnd_, 1));
  }
  cwnd_ = std::min<std::uint64_t>(cwnd_, cfg_.max_cwnd_bytes);

  // Fire job completions.
  const sim::Time now = port_.simulator().now();
  while (!completions_.empty() && completions_.front().first <= snd_una_) {
    auto done = std::move(completions_.front().second);
    completions_.pop_front();
    done(now);
  }

  if (hook_ != nullptr && !in_recovery_ && dupacks_ == 0 && sack_.empty()) {
    hook_->on_clean_ack(*this, acked_bytes);
  }

  if (cfg_.sack) {
    sack_pump();
  } else {
    try_send();
  }
  if (on_progress) on_progress();
}

void TcpSender::handle_dupack() {
  ++dupacks_;
  if (cfg_.sack) {
    if (!in_recovery_ &&
        (dupacks_ >= cfg_.dupack_threshold ||
         sack_.sacked_bytes() >= 3ull * cfg_.mss)) {
      enter_recovery_sack();
    }
    if (!in_recovery_ && cfg_.limited_transmit) {
      try_send();  // limited transmit before the threshold
    } else {
      sack_pump();
    }
    return;
  }
  if (in_recovery_) {
    // Window inflation: each dupack signals a departed packet.
    cwnd_ += cfg_.mss;
    try_send();
    return;
  }
  if (dupacks_ < cfg_.dupack_threshold) {
    try_send();  // limited transmit may release a segment
    return;
  }
  if (dupacks_ >= cfg_.dupack_threshold) {
    if (hook_ != nullptr) hook_->on_loss_event(*this);
    ++stats_.fast_retransmits;
    if (telemetry::enabled()) cells_.fast_retransmits->add();
    in_recovery_ = true;
    recover_point_ = snd_nxt_;
    const std::uint64_t inflight = snd_nxt_ - snd_una_;
    ssthresh_ = std::max<std::uint64_t>(inflight / 2, 2ull * cfg_.mss);
    cwnd_ = ssthresh_ + 3ull * cfg_.mss;
    send_segment(snd_una_,
                 static_cast<std::uint32_t>(std::min<std::uint64_t>(
                     cfg_.mss, stream_end_ - snd_una_)),
                 /*retransmit=*/true);
    arm_rto();
  }
}

void TcpSender::on_rto() {
  if (snd_una_ >= snd_nxt_) return;  // nothing outstanding
  if (hook_ != nullptr) hook_->on_loss_event(*this);
  ++stats_.timeouts;
  if (telemetry::enabled()) cells_.timeouts->add();
  ++rto_backoff_;
  ssthresh_ = std::max<std::uint64_t>((snd_nxt_ - snd_una_) / 2, 2ull * cfg_.mss);
  cwnd_ = cfg_.mss;
  in_recovery_ = false;
  dupacks_ = 0;
  // Go-back-N: rewind and resend from the hole. The scoreboard is dropped
  // (sack reneging is legal), trading some redundant bytes for simplicity.
  sack_.clear();
  snd_nxt_ = snd_una_;
  samples_.clear();
  try_send();
  arm_rto();
}

// ---------------------------------------------------------------------------
// Hybrid flow/packet engine bridge (clove::hybrid)
// ---------------------------------------------------------------------------

void TcpSender::hybrid_suspend() {
  hybrid_promoted_ = true;
  trace_next_ = false;
  // Treat everything already sent as delivered: the engine syncs the
  // receiver to the same point, so the in-flight packets arrive as stale
  // duplicates there and their ACKs are discarded here (see on_packet).
  if (snd_nxt_ > snd_una_) {
    stats_.bytes_acked += snd_nxt_ - snd_una_;
    snd_una_ = snd_nxt_;
  }
  dupacks_ = 0;
  in_recovery_ = false;
  rto_backoff_ = 0;
  sack_.clear();
  samples_.clear();
  rto_timer_.cancel();
  tlp_timer_.cancel();
  const sim::Time now = port_.simulator().now();
  last_progress_ = now;
  while (!completions_.empty() && completions_.front().first <= snd_una_) {
    auto done = std::move(completions_.front().second);
    completions_.pop_front();
    done(now);
  }
}

void TcpSender::hybrid_advance(std::uint64_t pos, sim::Time now) {
  if (!hybrid_promoted_ || pos <= snd_una_) return;
  if (pos > stream_end_) pos = stream_end_;
  // Fluid bytes never ride packets, so both send- and ack-side counters
  // advance here to keep transport_totals conservation intact.
  stats_.bytes_sent += pos - snd_una_;
  stats_.bytes_acked += pos - snd_una_;
  snd_una_ = pos;
  if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
  last_progress_ = now;
  while (!completions_.empty() && completions_.front().first <= snd_una_) {
    auto done = std::move(completions_.front().second);
    completions_.pop_front();
    done(now);
  }
}

void TcpSender::hybrid_resume(double rate_bytes_per_sec, sim::Time now) {
  if (!hybrid_promoted_) return;
  hybrid_promoted_ = false;
  // Translate the fluid model's final fair-share rate into a window so the
  // packet-level flow resumes at the bandwidth it was just granted instead
  // of re-running slow start from scratch.
  const sim::Time rtt = srtt_ > 0 ? srtt_ : cfg_.initial_rtt;
  const auto bdp = static_cast<std::uint64_t>(
      rate_bytes_per_sec * static_cast<double>(rtt) /
      static_cast<double>(sim::kSecond));
  cwnd_ = std::clamp<std::uint64_t>(bdp, 2ull * cfg_.mss, cfg_.max_cwnd_bytes);
  ssthresh_ = cwnd_;
  dupacks_ = 0;
  in_recovery_ = false;
  rto_backoff_ = 0;
  ecn_reduce_until_ = snd_nxt_;  // stale pre-promotion ECE must not halve us
  last_progress_ = now;
  try_send();
}

// ---------------------------------------------------------------------------
// TcpReceiver
// ---------------------------------------------------------------------------

TcpReceiver::TcpReceiver(VmPort& port, net::FiveTuple reverse_tuple,
                         TcpConfig cfg)
    : port_(port),
      reverse_tuple_(reverse_tuple),
      cfg_(cfg),
      delack_timer_(port.simulator(), [this] { do_send_ack(); }) {
  if (cfg_.dctcp) cfg_.ecn = true;
}

void TcpReceiver::on_packet(net::PacketPtr pkt) {
  CLOVE_PROF_SCOPE(prof::kTransport);
  if (pkt->payload == 0) return;  // pure control; nothing to ack

  const bool ce = pkt->ecn.ce;
  bool ecn_transition = false;
  if (cfg_.dctcp) {
    ecn_transition = (ce != last_pkt_ce_);
    last_pkt_ce_ = ce;
  } else if (ce && !ece_latched_) {
    ece_latched_ = true;
    ecn_transition = true;
  }
  if (pkt->tcp.flags.cwr) ece_latched_ = false;

  const std::uint64_t seq = pkt->tcp.seq;
  const std::uint64_t end = seq + pkt->payload;
  bool out_of_order = false;

  if (end <= rcv_nxt_) {
    // Pure duplicate (e.g. spurious retransmit); ack immediately.
    out_of_order = true;
  } else if (seq <= rcv_nxt_) {
    rcv_nxt_ = end;
    drain_ooo();
    if (on_deliver) on_deliver(rcv_nxt_);
  } else {
    out_of_order = true;
    ++reorder_events_;
    // Store [seq, end); a segment already buffered at seq keeps the larger
    // end.
    auto it = std::lower_bound(
        ooo_.begin(), ooo_.end(), seq,
        [](const net::SackBlock& b, std::uint64_t v) { return b.start < v; });
    if (it != ooo_.end() && it->start == seq) {
      it->end = std::max(it->end, end);
    } else {
      it = ooo_.insert(it, net::SackBlock{seq, end});
    }
    last_block_ = *it;
  }

  ++unacked_segments_;
  send_ack(out_of_order || ecn_transition);
}

void TcpReceiver::hybrid_sync(std::uint64_t pos) {
  if (pos <= rcv_nxt_) return;
  rcv_nxt_ = pos;
  drain_ooo();
  last_block_ = net::SackBlock{};
  if (on_deliver) on_deliver(rcv_nxt_);
}

void TcpReceiver::drain_ooo() {
  auto it = ooo_.begin();
  for (; it != ooo_.end() && it->start <= rcv_nxt_; ++it) {
    rcv_nxt_ = std::max(rcv_nxt_, it->end);
  }
  ooo_.erase(ooo_.begin(), it);
}

void TcpReceiver::send_ack(bool force) {
  if (force || unacked_segments_ >= cfg_.ack_every) {
    do_send_ack();
  } else if (!delack_timer_.pending()) {
    delack_timer_.schedule_in(cfg_.delack_timeout);
  }
}

void TcpReceiver::do_send_ack() {
  delack_timer_.cancel();
  unacked_segments_ = 0;
  auto ack = net::make_packet(port_.simulator());
  ack->inner = reverse_tuple_;
  ack->tcp.flags.ack = true;
  ack->tcp.ack = rcv_nxt_;
  ack->payload = 0;
  ack->ttl = 64;
  ack->sent_at = port_.simulator().now();
  if (cfg_.ecn) {
    const bool echo = cfg_.dctcp ? last_pkt_ce_ : ece_latched_;
    ack->tcp.flags.ece = echo;
  }
  if (cfg_.sack) {
    // Attach up to 3 SACK blocks: the most recently received block first
    // (RFC 2018), then older blocks ascending. Only an ACK that carries
    // blocks takes a cold record for them.
    std::array<net::SackBlock, 3> blocks{};
    std::uint8_t n = 0;
    if (last_block_.end > last_block_.start &&
        last_block_.start >= rcv_nxt_) {
      blocks[n++] = last_block_;
    }
    for (const net::SackBlock& b : ooo_) {
      if (n >= 3) break;
      if (b.start == last_block_.start) continue;
      blocks[n++] = b;
    }
    if (n > 0) {
      net::Packet::Cold& opt =
          net::PacketPool::of(port_.simulator()).cold(*ack);
      opt.sacks = blocks;
      opt.sack_count = n;
    }
  }
  port_.vm_send(std::move(ack));
}

}  // namespace clove::transport
