#include "overlay/path_health.hpp"

#include <algorithm>

#include "telemetry/scope.hpp"

namespace clove::overlay {

PathHealthMonitor::PathHealthMonitor(sim::Simulator& sim,
                                     const std::string& owner,
                                     const PathHealthConfig& cfg,
                                     TracerouteDaemon* daemon,
                                     lb::Policy* policy)
    : sim_(sim), cfg_(cfg), daemon_(daemon), policy_(policy) {
  auto bind = telemetry::current_scope().binder(
      [&] { return telemetry::Labels{{"host", owner}}; });
  cells_ = Cells{bind.counter("clove.pathset.keepalives"),
                 bind.counter("clove.pathset.keepalive_acks"),
                 bind.counter("clove.pathset.suspects"),
                 bind.counter("clove.pathset.evictions"),
                 bind.counter("clove.pathset.readmissions")};
}

PathHealthMonitor::PortState* PathHealthMonitor::find(net::IpAddr dst,
                                                      std::uint16_t port) {
  auto dit = dsts_.find(dst);
  if (dit == dsts_.end()) return nullptr;
  auto pit = dit->second.find(port);
  return pit == dit->second.end() ? nullptr : &pit->second;
}

PathHealthMonitor::PortHealth PathHealthMonitor::health(
    net::IpAddr dst, std::uint16_t port) const {
  auto dit = dsts_.find(dst);
  if (dit == dsts_.end()) return PortHealth::kLive;
  auto pit = dit->second.find(port);
  return pit == dit->second.end() ? PortHealth::kLive : pit->second.health;
}

void PathHealthMonitor::on_paths_updated(net::IpAddr dst,
                                         const PathSet& paths) {
  if (!cfg_.enabled) return;
  PortMap& ports = dsts_[dst];
  for (auto& [port, st] : ports) st.in_set = false;
  for (const PathInfo& info : paths.paths) {
    auto [it, inserted] = ports.try_emplace(info.port);
    PortState& st = it->second;
    st.in_set = true;
    if (inserted) {
      st.last_evidence = sim_.now();
    } else if (st.health == PortHealth::kEvicted) {
      // Discovery republished a port we had declared dead: the path healed.
      st.health = PortHealth::kLive;
      st.last_evidence = sim_.now();
      st.misses = 0;
      ++stats_.readmissions;
      if (telemetry::enabled()) cells_.readmissions->add();
    }
  }
  // Drop mappings discovery has abandoned — except evicted ones, which keep
  // re-probing until the path heals or this destination forgets them.
  for (auto it = ports.begin(); it != ports.end();) {
    if (!it->second.in_set && it->second.health != PortHealth::kEvicted) {
      it = ports.erase(it);
    } else {
      ++it;
    }
  }
  if (!tick_armed_ && !ports.empty()) {
    tick_armed_ = true;
    sim_.schedule_in(cfg_.check_interval, [this] { tick(); });
  }
}

void PathHealthMonitor::note_sent(net::IpAddr dst, std::uint16_t port,
                                  sim::Time now) {
  if (PortState* st = find(dst, port)) st->last_sent = now;
}

void PathHealthMonitor::note_alive(net::IpAddr dst, std::uint16_t port,
                                   sim::Time now) {
  PortState* st = find(dst, port);
  if (st == nullptr || st->health == PortHealth::kEvicted) return;
  st->last_evidence = now;
  if (st->health == PortHealth::kSuspect) {
    st->health = PortHealth::kLive;
    st->misses = 0;
  }
}

void PathHealthMonitor::tick() {
  const sim::Time now = sim_.now();
  for (auto& [dst, ports] : dsts_) {
    for (auto& [port, st] : ports) {
      if (st.health != PortHealth::kLive || !st.in_set) continue;
      // Staleness needs traffic: only a path we are actively sending on and
      // hearing nothing back from is suspicious. ECN feedback is silent on
      // an uncongested healthy path, which is why suspicion leads to a
      // keepalive rather than straight to eviction.
      if (st.last_sent < 0 || st.last_sent <= st.last_evidence) continue;
      if (now - st.last_evidence <= cfg_.staleness) continue;
      st.health = PortHealth::kSuspect;
      st.misses = 0;
      st.backoff = cfg_.probe_backoff;
      ++stats_.suspects;
      if (telemetry::enabled()) cells_.suspects->add();
      if (!st.probe_outstanding) send_keepalive(dst, port);
    }
  }
  sim_.schedule_in(cfg_.check_interval, [this] { tick(); });
}

void PathHealthMonitor::send_keepalive(net::IpAddr dst, std::uint16_t port) {
  PortState* st = find(dst, port);
  if (st == nullptr || st->probe_outstanding) return;
  st->probe_outstanding = true;
  ++stats_.keepalives_sent;
  if (telemetry::enabled()) cells_.keepalives->add();
  daemon_->keepalive(dst, port,
                     [this](net::IpAddr d, std::uint16_t p, bool alive) {
                       on_keepalive_result(d, p, alive);
                     });
}

void PathHealthMonitor::schedule_retry(net::IpAddr dst, std::uint16_t port,
                                       sim::Time delay) {
  sim_.schedule_in(delay, [this, dst, port] {
    PortState* st = find(dst, port);
    if (st == nullptr || st->health == PortHealth::kLive) return;
    if (st->health == PortHealth::kEvicted && !cfg_.reprobe_evicted) return;
    send_keepalive(dst, port);
  });
}

void PathHealthMonitor::on_keepalive_result(net::IpAddr dst,
                                            std::uint16_t port, bool alive) {
  PortState* st = find(dst, port);
  if (st == nullptr) return;
  st->probe_outstanding = false;
  if (alive) {
    ++stats_.keepalive_acks;
    if (telemetry::enabled()) cells_.keepalive_acks->add();
    if (st->health == PortHealth::kEvicted) {
      // The dead path answers again. Ask discovery for a fresh round right
      // away; the republished set readmits the port (or maps a new one to
      // the healed path) through on_paths_updated. Erase first: probe_now
      // republishes synchronously-ish and the entry must not linger if the
      // port mapping changed.
      ++stats_.readmissions;
      if (telemetry::enabled()) cells_.readmissions->add();
      dsts_[dst].erase(port);
      daemon_->probe_now(dst);
      return;
    }
    st->health = PortHealth::kLive;
    st->misses = 0;
    st->last_evidence = sim_.now();
    return;
  }
  ++st->misses;
  if (st->health == PortHealth::kSuspect &&
      st->misses >= cfg_.evict_after_probes) {
    evict(dst, port);
    // fall through to keep re-probing the now-evicted port (backoff grows)
  }
  st = find(dst, port);
  if (st == nullptr) return;
  st->backoff = std::min<sim::Time>(
      static_cast<sim::Time>(static_cast<double>(st->backoff) *
                             cfg_.backoff_factor),
      cfg_.probe_backoff_max);
  if (st->backoff <= 0) st->backoff = cfg_.probe_backoff;
  if (st->health == PortHealth::kEvicted && !cfg_.reprobe_evicted) return;
  schedule_retry(dst, port, st->backoff);
}

void PathHealthMonitor::evict(net::IpAddr dst, std::uint16_t port) {
  PortState* st = find(dst, port);
  if (st == nullptr || st->health == PortHealth::kEvicted) return;
  st->health = PortHealth::kEvicted;
  ++stats_.evictions;
  if (telemetry::enabled()) cells_.evictions->add();
  // Order matters: the policy drops its per-port state first, then the
  // daemon republishes the shrunken set (on_paths_updated re-enters this
  // monitor, which keeps the evicted entry alive — see on_paths_updated).
  if (policy_ != nullptr) policy_->on_path_evicted(dst, port, sim_.now());
  if (on_evict) on_evict(dst, port);
  if (daemon_ != nullptr) daemon_->evict_port(dst, port);
}

}  // namespace clove::overlay
