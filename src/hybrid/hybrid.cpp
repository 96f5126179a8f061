#include "hybrid/hybrid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "prof/prof.hpp"

namespace clove::hybrid {

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
}

}  // namespace

HybridConfig HybridConfig::from_env() {
  HybridConfig cfg;
  if (const char* v = std::getenv("CLOVE_HYBRID")) {
    const std::string s(v);
    cfg.enabled = (s == "on" || s == "1" || s == "true");
  }
  cfg.ramp_bytes = env_u64("CLOVE_HYBRID_RAMP", cfg.ramp_bytes);
  cfg.min_remaining = env_u64("CLOVE_HYBRID_MIN_REMAINING", cfg.min_remaining);
  cfg.tail_bytes = env_u64("CLOVE_HYBRID_TAIL", cfg.tail_bytes);
  if (const char* v = std::getenv("CLOVE_HYBRID_SOLVE_US")) {
    const auto us = std::strtoll(v, nullptr, 10);
    if (us > 0) cfg.solve_interval = us * sim::kMicrosecond;
  }
  return cfg;
}

Engine::Engine(sim::Simulator& sim, HybridConfig cfg)
    : sim_(sim),
      cfg_(cfg),
      timer_(sim, [this] { on_tick(); }),
      last_advance_(sim.now()) {}

Engine::~Engine() {
  // Detach from everything that could call back after we are gone. Promoted
  // senders stay suspended — the engine only dies with its simulation.
  for (auto& [sender, st] : adopted_) sender->hybrid_set_hook(nullptr);
  for (net::Link* link : links_) {
    if (link == nullptr) continue;
    link->set_fluid_observer(nullptr);
    link->set_fluid(0.0, 0);
  }
}

void Engine::add_link(net::Link* link) {
  if (link->id() >= links_.size()) {
    links_.resize(link->id() + 1, nullptr);
    link_state_.resize(link->id() + 1);
  }
  links_[link->id()] = link;
  link->set_fluid_observer(this);
}

void Engine::adopt(transport::TcpSender* sender) {
  auto [it, inserted] = adopted_.try_emplace(sender);
  if (inserted) sender->hybrid_set_hook(this);
}

void Engine::on_clean_ack(transport::TcpSender& s, std::uint64_t acked) {
  auto it = adopted_.find(&s);
  if (it == adopted_.end()) return;
  Adopted& a = it->second;
  const sim::Time now = sim_.now();
  if (a.trace_pending) {
    // The flagged segment should have reported within ~1 RTT; after 2 the
    // trace was likely dropped on the way. Flag the next segment again.
    const sim::Time rtt = s.srtt() > 0 ? s.srtt() : sim::kMillisecond;
    if (now - a.trace_requested_at > 2 * rtt) {
      s.hybrid_request_trace();
      a.trace_requested_at = now;
      ++stats_.trace_retries;
    }
    return;
  }
  a.clean_bytes += acked;
  if (a.clean_bytes < cfg_.ramp_bytes) return;
  if (s.stream_end() - s.snd_una() < cfg_.min_remaining) return;
  if (s.srtt() == 0) return;
  // Coupled congestion control / scheduler hooks mark MPTCP subflows; their
  // aggregate window dynamics are not representable as one fluid flow.
  if (s.ca_increase || s.on_progress) return;
  s.hybrid_request_trace();
  a.trace_pending = true;
  a.trace_requested_at = now;
  pending_trace_[s.tuple()] = &s;
  ++stats_.trace_requests;
}

void Engine::on_loss_event(transport::TcpSender& s) {
  auto it = adopted_.find(&s);
  if (it != adopted_.end()) {
    it->second.clean_bytes = 0;  // the promotion ramp restarts clean
    if (it->second.trace_pending) {
      it->second.trace_pending = false;
      auto pit = pending_trace_.find(s.tuple());
      if (pit != pending_trace_.end() && pit->second == &s) {
        pending_trace_.erase(pit);
      }
    }
  }
  if (!s.hybrid_promoted()) return;
  advance_all(sim_.now());
  for (std::size_t i = flows_.size(); i-- > 0;) {
    if (flows_[i]->sender == &s) {
      demote_at(i, DemoteReason::kLoss);
      break;
    }
  }
  solve();
  reschedule();
}

void Engine::on_sender_gone(transport::TcpSender& s) {
  auto pit = pending_trace_.find(s.tuple());
  if (pit != pending_trace_.end() && pit->second == &s) {
    pending_trace_.erase(pit);
  }
  adopted_.erase(&s);
  bool removed = false;
  for (std::size_t i = flows_.size(); i-- > 0;) {
    if (flows_[i]->sender == &s) {
      flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(i));
      removed = true;
    }
  }
  if (removed) {
    solve();
    reschedule();
  }
}

void Engine::on_trace(HostAdapter& dst_host, const net::FiveTuple& inner,
                      const net::Packet::HybridTrace& trace,
                      std::uint16_t encap_src_port) {
  CLOVE_PROF_SCOPE(prof::kHybrid);
  auto pit = pending_trace_.find(inner);
  if (pit == pending_trace_.end()) {
    ++stats_.trace_rejects;  // loss reset the ramp after the flag was set
    return;
  }
  transport::TcpSender* s = pit->second;
  pending_trace_.erase(pit);
  auto ait = adopted_.find(s);
  if (ait == adopted_.end()) {
    ++stats_.trace_rejects;
    return;
  }
  ait->second.trace_pending = false;
  ait->second.clean_bytes = 0;
  if (s->hybrid_promoted() || trace.overflowed() || trace.count == 0 ||
      dst_host.hybrid_requires_reassembly() ||
      s->stream_end() - s->snd_una() < cfg_.min_remaining) {
    ++stats_.trace_rejects;
    return;
  }
  std::vector<net::Link*> links;
  links.reserve(trace.count);
  for (int i = 0; i < trace.count; ++i) {
    const net::LinkId id = trace.links[static_cast<std::size_t>(i)];
    if (id >= links_.size() || links_[id] == nullptr) {
      ++stats_.trace_rejects;  // crossed an unregistered link
      return;
    }
    links.push_back(links_[id]);
  }
  auto* receiver = dst_host.hybrid_find_endpoint(inner.reversed());
  if (receiver == nullptr) {
    ++stats_.trace_rejects;
    return;
  }
  advance_all(sim_.now());
  s->hybrid_suspend();
  receiver->hybrid_sync(s->snd_una());
  auto f = std::make_unique<Flow>();
  f->sender = s;
  f->receiver = receiver;
  f->tuple = inner;
  f->encap_port = encap_src_port;
  f->links = std::move(links);
  f->pos = static_cast<double>(s->snd_una());
  flows_.push_back(std::move(f));
  ++stats_.promotions;
  solve();
  reschedule();
}

void Engine::on_port_degraded(net::IpAddr src_ip, net::IpAddr dst_ip,
                              std::uint16_t port) {
  if (flows_.empty()) return;
  advance_all(sim_.now());
  bool changed = false;
  for (std::size_t i = flows_.size(); i-- > 0;) {
    Flow& f = *flows_[i];
    if (f.tuple.src_ip == src_ip && f.tuple.dst_ip == dst_ip &&
        f.encap_port == port) {
      demote_at(i, DemoteReason::kDegrade);
      changed = true;
    }
  }
  if (changed) {
    solve();
    reschedule();
  }
}

void Engine::on_link_changed(net::Link& link) {
  if (flows_.empty()) return;
  advance_all(sim_.now());
  bool changed = false;
  for (std::size_t i = flows_.size(); i-- > 0;) {
    auto& ls = flows_[i]->links;
    if (std::find(ls.begin(), ls.end(), &link) != ls.end()) {
      demote_at(i, DemoteReason::kLink);
      changed = true;
    }
  }
  if (changed) {
    solve();
    reschedule();
  }
}

void Engine::demote_at(std::size_t i, DemoteReason reason) {
  auto f = std::move(flows_[i]);
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(i));
  switch (reason) {
    case DemoteReason::kTail: ++stats_.demotions_tail; break;
    case DemoteReason::kLoss: ++stats_.demotions_loss; break;
    case DemoteReason::kLink: ++stats_.demotions_link; break;
    case DemoteReason::kDegrade: ++stats_.demotions_degrade; break;
  }
  const sim::Time now = sim_.now();
  f->receiver->hybrid_sync(f->sender->snd_una());
  if (auto ait = adopted_.find(f->sender); ait != adopted_.end()) {
    ait->second.clean_bytes = 0;
  }
  // Promotion spans many RTTs — far past the flowlet gap — so the first
  // resumed packet opens a fresh flowlet and re-runs the path decision.
  f->sender->hybrid_resume(std::max(f->rate, 1.0), now);
}

void Engine::advance_all(sim::Time now) {
  const double dt =
      static_cast<double>(now - last_advance_) / static_cast<double>(sim::kSecond);
  last_advance_ = now;
  if (dt <= 0.0 || flows_.empty()) return;
  CLOVE_PROF_SCOPE(prof::kHybrid);
  for (auto& f : flows_) {
    if (f->rate <= 0.0) continue;
    const auto end = static_cast<double>(f->sender->stream_end());
    f->pos = std::min(f->pos + f->rate * dt, end);
    const std::uint64_t old_pos = f->sender->snd_una();
    if (f->pos < static_cast<double>(old_pos)) {
      f->pos = static_cast<double>(old_pos);  // never regress (rounding)
    }
    const auto new_pos = std::min(static_cast<std::uint64_t>(f->pos + 0.5),
                                  f->sender->stream_end());
    if (new_pos > old_pos) {
      stats_.fluid_bytes += new_pos - old_pos;
      f->sender->hybrid_advance(new_pos, now);
    }
  }
}

void Engine::solve() {
  CLOVE_PROF_SCOPE(prof::kHybrid);
  ++stats_.solves;
  // Dense per-link state by Link::id(); solve_links_ lists the links some
  // flow crosses, in first-touch order.
  solve_links_.clear();
  for (auto& f : flows_) {
    for (auto* l : f->links) {
      LinkState& st = link_state_[l->id()];
      if (!st.used) {
        st = LinkState{};
        st.used = true;
        solve_links_.push_back(l);
      }
      ++st.active;
    }
  }
  for (auto* l : solve_links_) {
    LinkState& st = link_state_[l->id()];
    const double nominal =
        l->config().rate_bytes_per_sec * l->capacity_factor();
    // Residual capacity: what the packet-level traffic (measured by the
    // DRE, which excludes our own fluid load) leaves on the table, with a
    // floor so a mice burst cannot starve the fluid model into stalling.
    const double cap =
        nominal * cfg_.max_share - l->packet_utilization() * nominal;
    st.capacity = std::max(cap, nominal * 0.01);
    st.residual = st.capacity;
  }
  // Max-min waterfill: each round fixes every flow whose bottleneck share
  // equals the global minimum, then deducts. Shares are computed from a
  // snapshot per round, so the fixpoint is iteration-order independent.
  std::vector<Flow*> unfixed;
  unfixed.reserve(flows_.size());
  for (auto& f : flows_) {
    f->rate = 0.0;
    unfixed.push_back(f.get());
  }
  std::vector<double> share;
  while (!unfixed.empty()) {
    share.assign(unfixed.size(), std::numeric_limits<double>::infinity());
    double m = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < unfixed.size(); ++i) {
      for (auto* l : unfixed[i]->links) {
        const LinkState& st = link_state_[l->id()];
        share[i] = std::min(share[i], st.residual / st.active);
      }
      m = std::min(m, share[i]);
    }
    std::vector<Flow*> next;
    for (std::size_t i = 0; i < unfixed.size(); ++i) {
      if (share[i] <= m * (1.0 + 1e-9)) {
        Flow* f = unfixed[i];
        f->rate = share[i];
        for (auto* l : f->links) {
          LinkState& st = link_state_[l->id()];
          st.residual = std::max(st.residual - share[i], 0.0);
          --st.active;
          st.alloc += share[i];
        }
      } else {
        next.push_back(unfixed[i]);
      }
    }
    unfixed.swap(next);
  }
  // Push the totals into the links: fluid load slows packet serialization
  // and shows in utilization/INT/CONGA; a saturated link also carries a
  // virtual standing queue at the marking threshold, so real ECT packets
  // crossing it keep getting CE-marked and Clove's feedback stays live.
  for (auto* l : solve_links_) {
    const LinkState& st = link_state_[l->id()];
    const bool saturated = st.alloc >= st.capacity * 0.999;
    l->set_fluid(st.alloc,
                 saturated ? l->config().ecn_threshold_bytes : 0);
  }
  for (auto* l : fluid_links_) {
    if (!link_state_[l->id()].used) l->set_fluid(0.0, 0);
  }
  for (auto* l : solve_links_) link_state_[l->id()].used = false;
  fluid_links_.swap(solve_links_);
}

void Engine::reschedule() {
  if (flows_.empty()) {
    timer_.cancel();
    return;
  }
  const sim::Time now = sim_.now();
  sim::Time wake = now + cfg_.solve_interval;
  for (auto& f : flows_) {
    if (f->rate <= 0.0) continue;
    // The next exact event on this flow: the first job-completion boundary
    // ahead of the fluid position, or the tail-demotion point.
    double target = static_cast<double>(f->sender->stream_end()) -
                    static_cast<double>(cfg_.tail_bytes);
    const std::uint64_t cb = f->sender->next_completion_boundary();
    if (cb != 0 && static_cast<double>(cb) < target) {
      target = static_cast<double>(cb);
    }
    double delta = target - f->pos;
    if (delta < 0.0) delta = 0.0;
    const auto dt = static_cast<sim::Time>(
        std::ceil(delta / f->rate * static_cast<double>(sim::kSecond)));
    sim::Time t = now + std::max<sim::Time>(dt, 1);
    wake = std::min(wake, t);
  }
  timer_.schedule_at(wake);
}

void Engine::on_tick() {
  CLOVE_PROF_SCOPE(prof::kHybrid);
  const sim::Time now = sim_.now();
  advance_all(now);
  for (std::size_t i = flows_.size(); i-- > 0;) {
    Flow& f = *flows_[i];
    const double remaining =
        static_cast<double>(f.sender->stream_end()) - f.pos;
    if (remaining <= static_cast<double>(cfg_.tail_bytes)) {
      demote_at(i, DemoteReason::kTail);
    }
  }
  solve();
  reschedule();
}

void Engine::solve_now() {
  advance_all(sim_.now());
  solve();
  reschedule();
}

double Engine::flow_rate(const transport::TcpSender* s) const {
  for (const auto& f : flows_) {
    if (f->sender == s) return f->rate;
  }
  return 0.0;
}

}  // namespace clove::hybrid
