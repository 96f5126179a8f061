#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace clove::telemetry {

const char* flight_mode_name(FlightMode m) {
  switch (m) {
    case FlightMode::kOff: return "off";
    case FlightMode::kSampled: return "sampled";
    case FlightMode::kFull: return "full";
  }
  return "?";
}

const char* journey_outcome_name(JourneyOutcome o) {
  switch (o) {
    case JourneyOutcome::kInFlight: return "in_flight";
    case JourneyOutcome::kDelivered: return "delivered";
    case JourneyOutcome::kConsumed: return "consumed";
    case JourneyOutcome::kDropOverflow: return "drop_overflow";
    case JourneyOutcome::kDropLinkDown: return "drop_link_down";
    case JourneyOutcome::kDropNoRoute: return "drop_no_route";
    case JourneyOutcome::kDropTtl: return "drop_ttl";
    case JourneyOutcome::kDropFault: return "drop_fault";
  }
  return "?";
}

std::string FlightFlowKey::to_string() const {
  std::string s;
  s += std::to_string(src_ip);
  s += ':';
  s += std::to_string(src_port);
  s += '>';
  s += std::to_string(dst_ip);
  s += ':';
  s += std::to_string(dst_port);
  return s;
}

FlightConfig FlightConfig::from_env() {
  FlightConfig c;
  if (const char* v = std::getenv("CLOVE_FLIGHT_RECORDER")) {
    if (std::strcmp(v, "full") == 0) {
      c.mode = FlightMode::kFull;
    } else if (std::strcmp(v, "sampled") == 0) {
      c.mode = FlightMode::kSampled;
    } else {
      c.mode = FlightMode::kOff;
    }
  }
  if (const char* v = std::getenv("CLOVE_FLIGHT_SAMPLE")) {
    const long n = std::atol(v);
    if (n > 0) c.sample_every = static_cast<std::uint64_t>(n);
  }
  return c;
}

FlightRecorder::FlightRecorder(const FlightConfig& cfg, MetricsRegistry* metrics)
    : cfg_(cfg) {
  if (cfg_.sample_every == 0) cfg_.sample_every = 1;
  if (metrics != nullptr) {
    cells_.conservation = metrics->counter("clove.audit.conservation", {});
    cells_.flowlet_reorder = metrics->counter("clove.audit.flowlet_reorder", {});
    cells_.vm_reorder = metrics->counter("clove.audit.vm_reorder", {});
    cells_.ecn_mask = metrics->counter("clove.audit.ecn_mask", {});
  }
}

void FlightRecorder::reset() {
  live_.clear();
  slab_.clear();
  free_slots_.clear();
  ring_.clear();
  ring_next_ = 0;
  flows_.clear();
  pending_vm_.clear();
  closed_flowlets_.clear();
  closed_next_ = 0;
  usage_.clear();
  names_.clear();
  packets_seen_ = started_ = delivered_ = consumed_ = dropped_ = 0;
  full_paths_ = not_tracked_ = flowlets_ = flowlets_attributed_ = 0;
  audit_ = AuditCounts{};
  loud_prints_left_ = 8;
}

void FlightRecorder::learn_name(std::uint32_t node, const std::string& name) {
  auto [slot, inserted] = names_.try_emplace(node);
  if (inserted) *slot = name;
}

std::string FlightRecorder::node_name(std::uint32_t node) const {
  const std::string* n = names_.find(node);
  if (n != nullptr && !n->empty()) return *n;
  std::string s = "n";
  s += std::to_string(node);
  return s;
}

// ---------------------------------------------------------------------------
// Journey side-buffer
// ---------------------------------------------------------------------------

Journey* FlightRecorder::journey_for(std::uint64_t uid) {
  std::uint32_t* slot = live_.find(uid);
  return slot == nullptr ? nullptr : &slab_[*slot];
}

Journey* FlightRecorder::begin_journey(std::uint64_t uid, sim::Time now) {
  if (live_.size() >= cfg_.max_live_journeys) {
    ++not_tracked_;
    return nullptr;
  }
  auto [slot, inserted] = live_.try_emplace(uid);
  if (!inserted) {
    // A recycled uid should be impossible (uids are per-simulation unique);
    // replace the stale journey rather than corrupting it.
    Journey& j = slab_[*slot];
    j = Journey{};
    j.uid = uid;
    j.t_start = j.t_last = now;
    return &j;
  }
  ++started_;
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
    slab_[idx] = Journey{};
  } else {
    idx = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  *slot = idx;
  Journey& j = slab_[idx];
  j.uid = uid;
  j.t_start = j.t_last = now;
  return &j;
}

void FlightRecorder::finalize(Journey& j, JourneyOutcome outcome,
                              std::uint32_t end_node, sim::Time now) {
  j.outcome = outcome;
  j.end_node = end_node;
  j.t_end = j.t_last = now;
  switch (outcome) {
    case JourneyOutcome::kDelivered:
      ++delivered_;
      if (j.full_path()) ++full_paths_;
      break;
    case JourneyOutcome::kConsumed:
      ++consumed_;
      break;
    default:
      ++dropped_;
      break;
  }

  // Per-path usage: delivered packets are attributed to the mid-path node
  // they actually crossed, bucketed by delivery time. Only journeys that
  // began at a vswitch pick count — probe/reply traffic would otherwise
  // pollute the data-plane share view with bytes the tenant never sent.
  if (outcome == JourneyOutcome::kDelivered && j.n_hops > 0 && j.has_origin) {
    bump_usage(j.via(), now, 1, j.payload, 0);
  }

  // Flowlet attribution + within-flowlet arrival ordering (dest side).
  if (j.flow.valid() && outcome == JourneyOutcome::kDelivered) {
    FlowState* fs = flows_.find(j.flow);
    if (fs != nullptr) {
      if (fs->open && !fs->attributed && fs->cur.flowlet_id == j.flowlet_id &&
          j.n_hops > 0) {
        fs->attributed = true;
        fs->cur.via = j.via();
        std::string sig;
        for (std::uint8_t h = 0; h < j.n_hops; ++h) {
          if (h > 0) sig += '>';
          sig += node_name(j.hops[h].node);
        }
        fs->cur.path = std::move(sig);
        ++flowlets_attributed_;
        bump_usage(fs->cur.via, fs->cur.t_start, 0, 0, 1);
      }
      if (j.payload > 0 && j.has_origin) {
        // Within-flowlet ordering is audited in SEND order: a flowlet rides
        // one path, and one path is FIFO, so tracked packets of the same
        // flowlet must arrive in the order they were handed to the fabric.
        // Seq order would misfire on retransmissions (old seq, new send).
        // The segment is (flowlet, outer port): a policy may legally re-pin
        // a live flowlet to a new port when its old path vanishes from the
        // discovered set, and the FIFO argument only holds per port.
        if (fs->arr_seen && j.flowlet_id == fs->arr_flowlet &&
            j.outer_port == fs->arr_port) {
          if (j.send_idx < fs->arr_last_send &&
              j.send_idx > fs->arr_amnesty) {
            if (fs->open && fs->cur.flowlet_id == j.flowlet_id) {
              ++fs->cur.reorders;
            }
            std::string detail = j.flow.to_string();
            detail += " flowlet ";
            detail += std::to_string(j.flowlet_id);
            detail += " send #";
            detail += std::to_string(j.send_idx);
            detail += " (seq ";
            detail += std::to_string(j.seq);
            detail += ") arrived after send #";
            detail += std::to_string(fs->arr_last_send);
            violation("flowlet_reorder", &AuditCounts::flowlet_reorder,
                      cells_.flowlet_reorder, detail);
          } else if (j.send_idx > fs->arr_last_send) {
            fs->arr_last_send = j.send_idx;
          }
        } else if (!fs->arr_seen || j.flowlet_id > fs->arr_flowlet ||
                   j.flowlet_id == fs->arr_flowlet) {
          // New (or first) flowlet segment observed at the destination;
          // stale packets from superseded flowlets are expected to
          // interleave around a switchover and are not within-flowlet
          // inversions. A same-flowlet port change re-bases tracking on the
          // new segment (interleaved old-port stragglers just re-base again
          // — never a false positive).
          fs->arr_seen = true;
          fs->arr_flowlet = j.flowlet_id;
          fs->arr_port = j.outer_port;
          fs->arr_last_send = j.send_idx;
        }
      }
    }
    // Stage the send index for the VM-boundary ordering audit. Only first
    // transmissions participate: a retransmission legitimately crosses the
    // VM boundary long after newer data (and, through a reassembly buffer,
    // may release buffered older sends behind it).
    if (j.payload > 0 && j.has_origin && !j.is_rtx) {
      pending_vm_[j.uid] = j.send_idx;
    }
  }

  // Retire into the completed ring and recycle the slab slot.
  const std::size_t cap = std::max<std::size_t>(1, cfg_.journey_ring);
  if (ring_.size() < cap) {
    ring_.push_back(j);
    ring_next_ = ring_.size() % cap;
  } else {
    ring_[ring_next_] = j;
    ring_next_ = (ring_next_ + 1) % cap;
  }
  const std::uint32_t idx = static_cast<std::uint32_t>(&j - slab_.data());
  live_.erase(j.uid);
  free_slots_.push_back(idx);
}

// ---------------------------------------------------------------------------
// Datapath hooks
// ---------------------------------------------------------------------------

void FlightRecorder::on_pick(std::uint64_t uid, std::uint32_t host,
                             const std::string& host_name,
                             const FlightFlowKey& flow, std::uint32_t dst_ip,
                             std::uint16_t outer_port, std::uint32_t flowlet_id,
                             const char* reason, double metric,
                             std::uint64_t seq, std::uint32_t payload,
                             sim::Time now) {
  ++packets_seen_;
  learn_name(host, host_name);

  FlowState& fs = flows_[flow];
  if (!fs.open || fs.cur.flowlet_id != flowlet_id ||
      fs.cur.outer_port != outer_port) {
    if (fs.open) close_flowlet(fs);
    fs.open = true;
    fs.attributed = false;
    fs.cur = FlowletRecord{};
    fs.cur.flow = flow;
    fs.cur.flowlet_id = flowlet_id;
    fs.cur.outer_port = outer_port;
    fs.cur.reason = reason;
    fs.cur.metric = metric;
    fs.cur.t_start = now;
    ++flowlets_;
  }
  fs.cur.t_last = now;
  ++fs.cur.packets;
  ++fs.send_counter;
  fs.cur.bytes += payload;
  bool is_rtx = false;
  if (payload > 0) {
    const std::uint64_t seq_end = seq + payload;
    if (seq_end <= fs.max_seq_end) {
      is_rtx = true;
      ++fs.cur.retransmits;
    } else {
      fs.max_seq_end = seq_end;
    }
  }
  if (fs.attributed) bump_usage(fs.cur.via, now, 0, payload, 0);

  if (!wants(uid)) return;
  Journey* j = begin_journey(uid, now);
  if (j == nullptr) return;
  j->flow = flow;
  j->origin = host;
  j->has_origin = true;
  j->dst_ip = dst_ip;
  j->outer_port = outer_port;
  j->flowlet_id = flowlet_id;
  j->seq = seq;
  j->send_idx = fs.send_counter;
  j->is_rtx = is_rtx;
  j->payload = payload;
}

void FlightRecorder::on_hop(std::uint64_t uid, std::uint32_t node,
                            const std::string& name, int in_port, int out_port,
                            std::int64_t queue_bytes, bool ecn_marked,
                            sim::Time now) {
  if (!wants(uid)) return;
  learn_name(node, name);
  Journey* j = journey_for(uid);
  if (j == nullptr) {
    // First sight of this packet (probe traffic, or traffic injected below
    // the vswitch): open a journey without flow identity.
    j = begin_journey(uid, now);
    if (j == nullptr) return;
  }
  j->t_last = now;
  if (j->n_hops < Journey::kMaxHops) {
    HopRecord& h = j->hops[j->n_hops++];
    h.t = now;
    h.node = node;
    h.in_port = static_cast<std::int16_t>(in_port);
    h.out_port = static_cast<std::int16_t>(out_port);
    h.queue_bytes = queue_bytes;
    h.ecn_marked = ecn_marked;
  } else {
    j->truncated = true;
  }
}

void FlightRecorder::on_drop(std::uint64_t uid, std::uint32_t node,
                             const std::string& name, JourneyOutcome outcome,
                             sim::Time now) {
  if (!wants(uid)) return;
  learn_name(node, name);
  Journey* j = journey_for(uid);
  if (j == nullptr) return;
  finalize(*j, outcome, node, now);
}

void FlightRecorder::on_deliver(std::uint64_t uid, std::uint32_t node,
                                const std::string& name, bool outer_ce,
                                sim::Time now) {
  if (!wants(uid)) return;
  learn_name(node, name);
  Journey* j = journey_for(uid);
  if (j == nullptr) return;
  j->outer_ce = outer_ce;
  finalize(*j, JourneyOutcome::kDelivered, node, now);
}

void FlightRecorder::on_vm_delivery(std::uint64_t uid,
                                    const FlightFlowKey& flow,
                                    std::uint64_t seq, std::uint32_t payload,
                                    bool inner_ce, bool ordering_expected,
                                    sim::Time /*now*/) {
  if (inner_ce) {
    violation("ecn_mask", &AuditCounts::ecn_mask, cells_.ecn_mask,
              "inner CE reached the VM on " + flow.to_string());
  }
  if (payload == 0) return;
  // VM-visible ordering (the Presto reassembly invariant): tracked first
  // transmissions of a flow must cross the VM boundary in the order they
  // were handed to the fabric. Retransmissions are exempt — loss recovery
  // legitimately delivers old data after newer data on any scheme — and are
  // simply absent from pending_vm_.
  const std::uint64_t* staged = pending_vm_.find(uid);
  if (staged == nullptr) return;
  const std::uint64_t send_idx = *staged;
  pending_vm_.erase(uid);
  // Flowlet schemes deliver straight through with no ordering promise; an
  // occasional cross-flowlet overtake there is legal, so the boundary audit
  // only arms when reassembly is (supposed to be) restoring send order.
  if (!ordering_expected) return;
  FlowState& fs = flows_[flow];
  if (send_idx < fs.vm_last_send) {
    // A forced reassembly flush deliberately released past a gap; stragglers
    // that were already in flight when it fired (send_idx <= the amnesty
    // watermark) are the designed aftermath, not a reassembly bug.
    if (send_idx <= fs.vm_amnesty) return;
    std::string detail = flow.to_string();
    detail += " VM saw send #";
    detail += std::to_string(send_idx);
    detail += " (seq ";
    detail += std::to_string(seq);
    detail += ") after send #";
    detail += std::to_string(fs.vm_last_send);
    violation("vm_reorder", &AuditCounts::vm_reorder, cells_.vm_reorder,
              detail);
  } else {
    fs.vm_last_send = send_idx;
  }
}

void FlightRecorder::on_reassembly_flush(const FlightFlowKey& flow) {
  // Every packet of the flow sent so far could legally reach the VM after
  // the flush's released horizon; only sends issued from now on must cross
  // the boundary in order again.
  FlowState& fs = flows_[flow];
  fs.vm_amnesty = fs.send_counter;
}

void FlightRecorder::on_route_change() {
  // A route recompute (failure, recovery, weight push) legally moves live
  // flowlets onto new paths mid-stream: a flowlet no longer rides a single
  // FIFO queue, and reassembly horizons shift under the flush logic. Every
  // packet already handed to the fabric is therefore exempt from both
  // ordering audits; only post-recompute sends must be ordered again.
  for (auto it = flows_.begin(); it != flows_.end(); ++it) {
    FlowState& fs = it.value();
    fs.arr_amnesty = fs.send_counter;
    fs.vm_amnesty = fs.send_counter;
  }
}

void FlightRecorder::on_ecn_to_vm(bool all_paths_congested) {
  if (all_paths_congested) return;
  violation("ecn_mask", &AuditCounts::ecn_mask, cells_.ecn_mask,
            "ECE surfaced to a VM while uncongested paths remain");
}

// ---------------------------------------------------------------------------
// Flow/flowlet bookkeeping
// ---------------------------------------------------------------------------

void FlightRecorder::close_flowlet(FlowState& fs) {
  if (!fs.open) return;
  const std::size_t cap = std::max<std::size_t>(1, cfg_.max_flowlet_records);
  if (closed_flowlets_.size() < cap) {
    closed_flowlets_.push_back(std::move(fs.cur));
    closed_next_ = closed_flowlets_.size() % cap;
  } else {
    closed_flowlets_[closed_next_] = std::move(fs.cur);
    closed_next_ = (closed_next_ + 1) % cap;
  }
  fs.open = false;
  fs.attributed = false;
}

void FlightRecorder::bump_usage(std::uint32_t via, sim::Time t,
                                std::uint64_t packets, std::uint64_t bytes,
                                std::uint64_t flowlets) {
  const sim::Time width = cfg_.usage_bucket > 0 ? cfg_.usage_bucket : 1;
  const std::uint64_t bucket =
      t <= 0 ? 0 : static_cast<std::uint64_t>(t / width);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(via) << 24) | (bucket & 0xffffffull);
  PathUsage& u = usage_[key];
  u.via = via;
  u.bucket_start = static_cast<sim::Time>(bucket) * width;
  u.packets += packets;
  u.bytes += bytes;
  u.flowlets += flowlets;
}

// ---------------------------------------------------------------------------
// Audits
// ---------------------------------------------------------------------------

void FlightRecorder::violation(const char* auditor,
                               std::uint64_t AuditCounts::*counter,
                               Counter* cell, const std::string& detail) {
  ++(audit_.*counter);
  if (cell != nullptr) cell->add();
  if (fail_handler_) {
    fail_handler_(auditor, detail);
  } else if (loud_prints_left_ > 0) {
    --loud_prints_left_;
    std::fprintf(stderr, "[clove.audit.%s] %s%s\n", auditor, detail.c_str(),
                 loud_prints_left_ == 0 ? " (further violations muted)" : "");
  }
}

std::uint64_t FlightRecorder::audit_conservation(sim::Time now,
                                                 sim::Time grace) {
  std::uint64_t fresh = 0;
  for (auto it = live_.begin(); it != live_.end(); ++it) {
    Journey& j = slab_[it.value()];
    if (j.audited_stuck || now - j.t_last <= grace) continue;
    j.audited_stuck = true;
    ++fresh;
    std::string detail = "packet uid ";
    detail += std::to_string(j.uid);
    detail += " last seen at ";
    detail += node_name(j.n_hops > 0 ? j.hops[j.n_hops - 1].node : j.origin);
    detail += ", idle ";
    detail += std::to_string(sim::to_microseconds(now - j.t_last));
    detail += "us with no delivery or drop record";
    violation("conservation", &AuditCounts::conservation, cells_.conservation,
              detail);
  }
  return fresh;
}

// ---------------------------------------------------------------------------
// Introspection / export
// ---------------------------------------------------------------------------

std::vector<const Journey*> FlightRecorder::journeys() const {
  std::vector<const Journey*> out;
  out.reserve(ring_.size());
  const std::size_t cap = std::max<std::size_t>(1, cfg_.journey_ring);
  const std::size_t start = ring_.size() < cap ? 0 : ring_next_;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(&ring_[(start + i) % ring_.size()]);
  }
  return out;
}

const Journey* FlightRecorder::find_journey(std::uint64_t uid) const {
  const Journey* found = nullptr;
  for (const Journey& j : ring_) {
    if (j.uid == uid) found = &j;
  }
  return found;
}

std::vector<FlowletRecord> FlightRecorder::flowlet_records() const {
  std::vector<FlowletRecord> out;
  out.reserve(closed_flowlets_.size() + flows_.size());
  const std::size_t cap = std::max<std::size_t>(1, cfg_.max_flowlet_records);
  const std::size_t start = closed_flowlets_.size() < cap ? 0 : closed_next_;
  for (std::size_t i = 0; i < closed_flowlets_.size(); ++i) {
    out.push_back(closed_flowlets_[(start + i) % closed_flowlets_.size()]);
  }
  for (auto it = flows_.begin(); it != flows_.end(); ++it) {
    if (it.value().open) out.push_back(it.value().cur);
  }
  return out;
}

std::vector<PathUsage> FlightRecorder::path_usage() const {
  std::vector<PathUsage> out;
  out.reserve(usage_.size());
  for (auto it = usage_.begin(); it != usage_.end(); ++it) {
    out.push_back(it.value());
  }
  std::sort(out.begin(), out.end(), [](const PathUsage& a, const PathUsage& b) {
    if (a.bucket_start != b.bucket_start) return a.bucket_start < b.bucket_start;
    return a.via < b.via;
  });
  return out;
}

FlightSummary FlightRecorder::summary(sim::Time now, sim::Time grace) {
  audit_conservation(now, grace);
  FlightSummary s;
  s.mode = cfg_.mode;
  s.packets_seen = packets_seen_;
  s.journeys_started = started_;
  s.delivered = delivered_;
  s.consumed = consumed_;
  s.dropped = dropped_;
  s.live = live_.size();
  s.full_paths = full_paths_;
  s.not_tracked = not_tracked_;
  s.flowlets = flowlets_;
  s.flowlets_attributed = flowlets_attributed_;
  s.audit = audit_;
  // Merge usage buckets into one row per via for the at-a-glance share view.
  s.usage = path_usage();
  util::FlatMap<std::uint64_t, PathUsage> merged;
  for (const PathUsage& u : s.usage) {
    PathUsage& m = merged[u.via];
    m.via = u.via;
    m.packets += u.packets;
    m.bytes += u.bytes;
    m.flowlets += u.flowlets;
  }
  for (auto it = merged.begin(); it != merged.end(); ++it) {
    s.paths.push_back(it.value());
  }
  std::sort(s.paths.begin(), s.paths.end(),
            [](const PathUsage& a, const PathUsage& b) { return a.via < b.via; });
  for (const PathUsage& p : s.paths) s.path_names.push_back(node_name(p.via));
  return s;
}

std::vector<PathShare> FlightSummary::shares(sim::Time from,
                                             sim::Time to) const {
  std::vector<std::uint64_t> bytes(paths.size(), 0);
  std::vector<std::uint64_t> flowlets(paths.size(), 0);
  std::uint64_t total_bytes = 0;
  std::uint64_t total_flowlets = 0;
  for (const PathUsage& u : usage) {
    if (u.bucket_start < from || u.bucket_start >= to) continue;
    const auto i = static_cast<std::size_t>(
        std::lower_bound(paths.begin(), paths.end(), u.via,
                         [](const PathUsage& p, std::uint32_t via) {
                           return p.via < via;
                         }) -
        paths.begin());
    bytes[i] += u.bytes;
    flowlets[i] += u.flowlets;
    total_bytes += u.bytes;
    total_flowlets += u.flowlets;
  }
  std::vector<PathShare> out;
  if (total_bytes == 0) return out;
  auto pct = [](std::uint64_t part, std::uint64_t total) {
    return total > 0 ? 100.0 * static_cast<double>(part) /
                           static_cast<double>(total)
                     : 0.0;
  };
  for (std::size_t i = 0; i < paths.size(); ++i) {
    out.push_back({pct(bytes[i], total_bytes),
                   pct(flowlets[i], total_flowlets)});
  }
  return out;
}

Json FlightSummary::to_json() const {
  Json j = Json::object();
  j.set("mode", flight_mode_name(mode));
  j.set("packets_seen", packets_seen);
  j.set("journeys_started", journeys_started);
  j.set("delivered", delivered);
  j.set("consumed", consumed);
  j.set("dropped", dropped);
  j.set("live", live);
  j.set("full_paths", full_paths);
  j.set("not_tracked", not_tracked);
  j.set("reconstruction_rate", reconstruction_rate());
  j.set("flowlets", flowlets);
  j.set("flowlets_attributed", flowlets_attributed);
  Json a = Json::object();
  a.set("conservation", audit.conservation);
  a.set("flowlet_reorder", audit.flowlet_reorder);
  a.set("vm_reorder", audit.vm_reorder);
  a.set("ecn_mask", audit.ecn_mask);
  j.set("audit", std::move(a));
  Json ps = Json::array();
  for (const PathUsage& p : paths) {
    Json row = Json::object();
    row.set("via", static_cast<std::uint64_t>(p.via));
    row.set("packets", p.packets);
    row.set("bytes", p.bytes);
    row.set("flowlets", p.flowlets);
    ps.push_back(std::move(row));
  }
  j.set("paths", std::move(ps));
  return j;
}

std::string FlightRecorder::journeys_jsonl() const {
  std::string out;
  for (const Journey* j : journeys()) {
    Json line = Json::object();
    line.set("uid", j->uid);
    if (j->flow.valid()) line.set("flow", j->flow.to_string());
    line.set("flowlet", static_cast<std::uint64_t>(j->flowlet_id));
    line.set("outer_port", static_cast<std::uint64_t>(j->outer_port));
    line.set("seq", j->seq);
    line.set("payload", static_cast<std::uint64_t>(j->payload));
    line.set("t_start_ns", static_cast<double>(j->t_start));
    line.set("t_end_ns", static_cast<double>(j->t_end));
    line.set("outcome", journey_outcome_name(j->outcome));
    if (j->has_origin) line.set("origin", node_name(j->origin));
    line.set("end_node", node_name(j->end_node));
    if (j->outer_ce) line.set("outer_ce", true);
    if (j->truncated) line.set("truncated", true);
    Json hops = Json::array();
    for (std::uint8_t h = 0; h < j->n_hops; ++h) {
      const HopRecord& hr = j->hops[h];
      Json hop = Json::object();
      hop.set("t_ns", static_cast<double>(hr.t));
      hop.set("node", node_name(hr.node));
      hop.set("in", static_cast<int>(hr.in_port));
      hop.set("out", static_cast<int>(hr.out_port));
      hop.set("q_bytes", static_cast<double>(hr.queue_bytes));
      if (hr.ecn_marked) hop.set("ecn", true);
      hops.push_back(std::move(hop));
    }
    line.set("hops", std::move(hops));
    out += line.dump();
    out += '\n';
  }
  return out;
}

std::string FlightRecorder::flows_jsonl() const {
  std::string out;
  for (const FlowletRecord& r : flowlet_records()) {
    Json line = Json::object();
    line.set("flow", r.flow.to_string());
    line.set("flowlet", static_cast<std::uint64_t>(r.flowlet_id));
    line.set("outer_port", static_cast<std::uint64_t>(r.outer_port));
    line.set("via", node_name(r.via));
    if (!r.path.empty()) line.set("path", r.path);
    line.set("reason", r.reason);
    line.set("metric", r.metric);
    line.set("t_start_ns", static_cast<double>(r.t_start));
    line.set("t_last_ns", static_cast<double>(r.t_last));
    line.set("packets", r.packets);
    line.set("bytes", r.bytes);
    line.set("retransmits", r.retransmits);
    line.set("reorders", r.reorders);
    out += line.dump();
    out += '\n';
  }
  return out;
}

}  // namespace clove::telemetry
