#include "net/link.hpp"

#include <algorithm>
#include <cassert>

#include "net/node.hpp"
#include "net/packet_pool.hpp"
#include "prof/prof.hpp"
#include "telemetry/scope.hpp"

namespace clove::net {

namespace {
/// How many packets ahead of the one being serialized start_tx() prefetches.
constexpr std::size_t kPrefetchAhead = 2;
}  // namespace

/// A link's queued probe replies as one open-ended recipe: reply i is the
/// i-th pushed since the link was built. The transmitter builds them in
/// push order, and start_tx() trims each one it builds, so the FIFO holds
/// only replies still waiting.
class ReplyRecipe final : public PacketRecipe {
 public:
  ReplyRecipe() { wire_size = ProbeReply::kWireSize; }

  void build(Packet& p, std::uint32_t i) const override { at(i).build(p); }
  [[nodiscard]] std::uint64_t uid(std::uint32_t i) const override {
    return at(i).uid;
  }

  /// Append `reply` and return its index.
  std::uint32_t push(const ProbeReply& reply) {
    fifo_.push_back(reply);
    return first_ + static_cast<std::uint32_t>(fifo_.size() - 1);
  }
  void pop_front() {
    fifo_.pop_front();
    ++first_;
  }
  void clear() {
    first_ += static_cast<std::uint32_t>(fifo_.size());
    fifo_.clear();
  }
  [[nodiscard]] std::size_t storage_bytes() const {
    return fifo_.capacity() * sizeof(ProbeReply);
  }

 private:
  // Indices wrap modulo 2^32 like Run's bounds; the FIFO never holds that many.
  [[nodiscard]] const ProbeReply& at(std::uint32_t i) const {
    assert(i - first_ < fifo_.size());
    return fifo_[i - first_];
  }

  util::RingDeque<ProbeReply> fifo_;
  std::uint32_t first_{0};  ///< index of fifo_.front()
};

Link::Link(sim::Simulator& sim, LinkId id, std::string name, Node* dst,
           int dst_in_port, const LinkConfig& cfg)
    : sim_(sim),
      id_(id),
      name_(std::move(name)),
      dst_(dst),
      dst_in_port_(dst_in_port),
      cfg_(cfg) {
  dre_.configure(cfg_.dre_alpha, cfg_.dre_interval, cfg_.rate_bytes_per_sec);
  auto bind = telemetry::current_scope().binder(
      [&] { return telemetry::Labels{{"link", name_}}; });
  cells_ = Cells{bind.counter("link.tx_packets"),
                 bind.counter("link.tx_bytes"),
                 bind.counter("link.drops_overflow"),
                 bind.counter("link.drops_down"),
                 bind.counter("link.drops_fault"),
                 bind.counter("link.ecn_marks"),
                 bind.gauge("link.queue_high_watermark_bytes")};
}

void Link::enqueue(PacketPtr pkt) {
  if (!admit(pkt.get(), 0, pkt->wire_size())) return;
  queue_.push_back(std::move(pkt));
  if (!busy_) start_tx();
}

void Link::enqueue_run(std::shared_ptr<const PacketRecipe> run) {
  const auto wire = static_cast<std::int64_t>(run->wire_size);
  for (std::uint32_t i = 0; i < run->count; ++i) {
    if (admit(nullptr, run->uid(i), wire)) queue_unbuilt(run, i);
  }
}

void Link::enqueue_reply(const ProbeReply& reply) {
  if (!admit(nullptr, reply.uid, ProbeReply::kWireSize)) return;
  if (replies_ == nullptr) replies_ = std::make_shared<ReplyRecipe>();
  queue_unbuilt(replies_, replies_->push(reply));
}

std::size_t Link::reply_storage_bytes() const {
  return replies_ == nullptr ? 0 : replies_->storage_bytes();
}

void Link::queue_unbuilt(const std::shared_ptr<const PacketRecipe>& recipe,
                         std::uint32_t i) {
  // Grow the recipe's entry at the back of the queue, or open a new one: a
  // dropped packet leaves a hole, and the transmitter may already have
  // taken the entry's last packet.
  if (!queue_.empty() && queue_.back() == nullptr &&
      runs_.back().recipe == recipe && runs_.back().end == i) {
    ++runs_.back().end;
  } else {
    runs_.push_back(Run{recipe, i, i + 1});
    queue_.push_back(PacketPtr{});
  }
  if (!busy_) start_tx();
}

bool Link::admit(Packet* pkt, std::uint64_t unbuilt_uid, std::int64_t wire) {
  const auto lost = [&](std::uint64_t& count, telemetry::Counter* cell,
                        telemetry::JourneyOutcome why) {
    ++count;
    if (telemetry::enabled()) cell->add();
    if (auto* fr = telemetry::flight()) {
      fr->on_drop(pkt != nullptr ? pkt->uid : unbuilt_uid,
                  dst_ != nullptr ? dst_->id() : 0, name_, why, sim_.now());
    }
    return false;
  };
  if (down_) {
    return lost(stats_.drops_down, cells_.drops_down,
                telemetry::JourneyOutcome::kDropLinkDown);
  }
  if (fault_drop_prob_ > 0.0 && fault_rng_.uniform() < fault_drop_prob_) {
    // Injected gray failure: the packet vanishes with no observable signal
    // on the link itself — the only evidence is missing deliveries.
    return lost(stats_.drops_fault, cells_.drops_fault,
                telemetry::JourneyOutcome::kDropFault);
  }
  if (queue_bytes_ + wire > cfg_.queue_capacity_bytes) {
    return lost(stats_.drops_overflow, cells_.drops_overflow,
                telemetry::JourneyOutcome::kDropOverflow);
  }
  // DCTCP-style marking: mark the arriving packet when the instantaneous
  // queue occupancy is at or above the threshold K (paper §3.2: 20 pkts).
  if (pkt != nullptr && cfg_.ecn_marking &&
      queue_bytes_ + fluid_queue_bytes_ >= cfg_.ecn_threshold_bytes) {
    bool fresh_mark = false;
    if (pkt->encap.present && pkt->encap.ecn.ect) {
      fresh_mark = !pkt->encap.ecn.ce;
      pkt->encap.ecn.ce = true;
    } else if (!pkt->encap.present && pkt->ecn.ect) {
      fresh_mark = !pkt->ecn.ce;
      pkt->ecn.ce = true;
    }
    if (fresh_mark) {
      ++stats_.ecn_marks;
      if (telemetry::enabled()) cells_.ecn_marks->add();
    }
  }
  queue_bytes_ += wire;
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queue_bytes_);
  if (telemetry::enabled()) {
    cells_.queue_high_watermark->update_max(static_cast<double>(queue_bytes_));
  }
  return true;
}

void Link::start_tx() {
  busy_ = true;
  if (queue_.front() != nullptr) {
    in_flight_ = std::move(queue_.front());
    queue_.pop_front();
  } else {
    // The front entry is a run: build its next packet now.
    Run& run = runs_.front();
    in_flight_ = run.recipe->make(PacketPool::of(sim_), run.next++);
    if (run.recipe == replies_) replies_->pop_front();
    if (run.next == run.end) {
      runs_.pop_front();
      queue_.pop_front();
    }
  }
  // A deep FIFO's packets were written long ago and have left the cache by
  // the time they reach the head. Prefetch the packet kPrefetchAhead places
  // after this one, so the one line a transmission reads (the packet's
  // first: wire_size() here, the trace and INT flags in on_tx_done) is
  // cached by its turn. A run's entry has no packet to fetch yet.
  if (queue_.size() >= kPrefetchAhead) {
    if (const Packet* ahead = queue_[kPrefetchAhead - 1].get()) {
      __builtin_prefetch(ahead);
    }
  }
  const std::int64_t wire = in_flight_->wire_size();
  queue_bytes_ -= wire;
  // Memoize the delay: wire sizes repeat (MTU data, bare ACKs), and the
  // floating-point division in transmission_delay is per-packet hot.
  if (wire != memo_bytes_) {
    memo_bytes_ = wire;
    if (fluid_rate_ > 0.0) {
      // Fluid (flow-level) load claims its share of the line rate; real
      // packets serialize on the residual. Floored so a saturating elephant
      // slows mice sharing the link rather than stalling them outright.
      const double nominal = cfg_.rate_bytes_per_sec * capacity_factor_;
      const double residual = std::max(nominal - fluid_rate_, nominal * 0.05);
      memo_delay_ = sim::transmission_delay(wire, residual);
    } else {
      memo_delay_ = serialization_delay(wire);
    }
  }
  sim_.schedule_in(memo_delay_,
                   [this, gen = tx_gen_] { on_tx_done(gen); });
}

void Link::on_tx_done(std::uint32_t tx_gen) {
  CLOVE_PROF_SCOPE(prof::kLinkTx);
  // The link went down during this serialization: down() already lost the
  // packet and idled the transmitter, which may since have started a newer
  // one with its own completion event.
  if (tx_gen != tx_gen_) return;
  PacketPtr pkt = std::move(in_flight_);
  const std::int64_t wire = pkt->wire_size();
  dre_.on_transmit(sim_.now(), wire);
  ++stats_.tx_packets;
  stats_.tx_bytes += static_cast<std::uint64_t>(wire);
  if (telemetry::enabled()) {
    cells_.tx_packets->add();
    cells_.tx_bytes->add(static_cast<std::uint64_t>(wire));
  }

  if (pkt->traced) PacketPool::of(sim_).cold(*pkt).trace.push(id_);

  if (cfg_.int_telemetry && pkt->int_stack.enabled) {
    if (fluid_rate_ > 0.0) {
      pkt->int_stack.push(static_cast<float>(utilization()));
    } else {
      pkt->int_stack.push(static_cast<float>(dre_.utilization(sim_.now())));
    }
  }
  if (cfg_.conga_metric && pkt->conga.present) {
    if (fluid_rate_ > 0.0) {
      pkt->conga.ce = std::max(pkt->conga.ce, utilization_quantized());
    } else {
      pkt->conga.ce = std::max(pkt->conga.ce, dre_.quantized(sim_.now()));
    }
  }

  propagating_.emplace_back(sim_.now() + cfg_.propagation, std::move(pkt));
  if (!prop_wake_.valid()) {
    // A pending wake is always at an earlier-or-equal deadline (per-link
    // deadlines are monotone), so one outstanding wake per link suffices.
    prop_wake_ =
        sim_.schedule_in(cfg_.propagation, [this] { deliver_front(); });
  }

  if (!queue_.empty()) {
    start_tx();
  } else {
    busy_ = false;
  }
}

void Link::deliver_front() {
  CLOVE_PROF_SCOPE(prof::kLinkDeliver);
  prop_wake_ = sim::EventId{};
  // Drain every packet whose deadline has arrived (several packets can share
  // a delivery instant), then re-arm a single wake for the new front.
  while (!propagating_.empty() && propagating_.front().first <= sim_.now()) {
    PacketPtr pkt = std::move(propagating_.front().second);
    propagating_.pop_front();
    if (down_) {
      ++stats_.drops_down;
      if (telemetry::enabled()) cells_.drops_down->add();
      if (auto* fr = telemetry::flight()) {
        fr->on_drop(pkt->uid, dst_ != nullptr ? dst_->id() : 0, name_,
                    telemetry::JourneyOutcome::kDropLinkDown, sim_.now());
      }
      continue;
    }
    dst_->receive(std::move(pkt), dst_in_port_);
  }
  if (!propagating_.empty()) {
    // The new front is delivered at least one serialization time from
    // now, and in a deep burst its lines have left the cache since its last
    // hop wrote them. Fetch the whole packet now, so the next hop's first
    // reads hit: the switch's TTL and route fields, the hypervisor's
    // dispatch, and the probe fields of line 3.
    const auto* front =
        reinterpret_cast<const char*>(propagating_.front().second.get());
    for (std::size_t at = 0; at < sizeof(Packet);
         at += PacketPool::kLineBytes) {
      __builtin_prefetch(front + at);
    }
    prop_wake_ = sim_.schedule_at(propagating_.front().first,
                                  [this] { deliver_front(); });
  }
}

void Link::down() {
  down_ = true;
  ++tx_gen_;
  std::uint64_t unbuilt = 0;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    unbuilt += runs_[i].end - runs_[i].next;
  }
  const std::uint64_t flushed = queue_.size() - runs_.size() + unbuilt +
                                propagating_.size() + (in_flight_ ? 1 : 0);
  stats_.drops_down += flushed;
  if (telemetry::enabled()) cells_.drops_down->add(flushed);
  if (auto* fr = telemetry::flight()) {
    // Finalize every flushed journey individually so the conservation
    // auditor can account for packets lost to the failure.
    const NodeId at = dst_ != nullptr ? dst_->id() : 0;
    const auto drop = [&](std::uint64_t uid) {
      fr->on_drop(uid, at, name_, telemetry::JourneyOutcome::kDropLinkDown,
                  sim_.now());
    };
    while (!queue_.empty()) {
      if (queue_.front() != nullptr) {
        drop(queue_.front()->uid);
      } else {
        const Run& run = runs_.front();
        for (std::uint32_t i = run.next; i != run.end; ++i) {
          drop(run.recipe->uid(i));
        }
        runs_.pop_front();
      }
      queue_.pop_front();
    }
    while (!propagating_.empty()) {
      drop(propagating_.front().second->uid);
      propagating_.pop_front();
    }
    if (in_flight_) drop(in_flight_->uid);
  }
  queue_.clear();
  runs_.clear();
  if (replies_ != nullptr) replies_->clear();
  queue_bytes_ = 0;
  propagating_.clear();
  if (prop_wake_.valid()) {
    sim_.cancel(prop_wake_);
    prop_wake_ = sim::EventId{};
  }
  in_flight_.reset();
  busy_ = false;
  if (fluid_observer_ != nullptr) fluid_observer_->on_link_changed(*this);
}

void Link::set_capacity_factor(double factor) {
  capacity_factor_ = std::clamp(factor, 1e-3, 1.0);
  memo_bytes_ = -1;  // cached serialization delay is for the old rate
  // Re-base the DRE on the degraded line rate: a link running at 25% that is
  // 25% full is saturated, and INT/CONGA must see it that way.
  dre_.configure(cfg_.dre_alpha, cfg_.dre_interval,
                 cfg_.rate_bytes_per_sec * capacity_factor_);
  if (fluid_observer_ != nullptr) fluid_observer_->on_link_changed(*this);
}

void Link::set_fault_drop(double p, std::uint64_t seed) {
  fault_drop_prob_ = std::clamp(p, 0.0, 1.0);
  if (fault_drop_prob_ > 0.0) fault_rng_.reseed(seed);
}

void Link::up() {
  down_ = false;
  dre_.reset();
  if (fluid_observer_ != nullptr) fluid_observer_->on_link_changed(*this);
}

}  // namespace clove::net
