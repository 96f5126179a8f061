#include "lb/clove_ecn.hpp"

#include <algorithm>

namespace clove::lb {

void CloveEcnPolicy::on_paths_updated(net::IpAddr dst,
                                      const overlay::PathSet& paths) {
  DstState& st = dsts_[dst];
  // A path keeps its learned weight, congestion mark and delay.
  remap_paths(st.paths, paths);

  // Normalize; brand-new paths start at the uniform share. Round-robin
  // credits restart for every path.
  const double uniform = st.paths.empty() ? 0.0 : 1.0 / st.paths.size();
  double total = 0.0;
  for (auto& p : st.paths) {
    if (p.weight <= 0.0) p.weight = uniform;
    p.wrr_credit = 0.0;
    total += p.weight;
  }
  if (total > 0.0) {
    for (auto& p : st.paths) p.weight /= total;
  }
}

void CloveEcnPolicy::apply_recovery(DstState& st, sim::Time now) {
  if (st.paths.empty() || cfg_.recovery_interval <= 0) return;
  const std::int64_t steps = (now - st.last_recovery) / cfg_.recovery_interval;
  if (steps <= 0) return;
  st.last_recovery += steps * cfg_.recovery_interval;
  const double uniform = 1.0 / st.paths.size();
  // w <- w*(1-r)^steps + uniform*(1-(1-r)^steps)
  double keep = 1.0;
  const double f = 1.0 - cfg_.recovery_rate;
  for (std::int64_t i = 0; i < std::min<std::int64_t>(steps, 64); ++i) keep *= f;
  for (auto& p : st.paths) {
    p.weight = p.weight * keep + uniform * (1.0 - keep);
  }
}

std::size_t CloveEcnPolicy::wrr_pick(DstState& st) {
  // Smooth weighted round-robin: add each weight to its credit, pick the
  // largest credit, subtract the total. Deterministic and burst-free.
  double total = 0.0;
  std::size_t best = 0;
  double best_credit = -1e300;
  for (std::size_t i = 0; i < st.paths.size(); ++i) {
    st.paths[i].wrr_credit += st.paths[i].weight;
    total += st.paths[i].weight;
    if (st.paths[i].wrr_credit > best_credit) {
      best_credit = st.paths[i].wrr_credit;
      best = i;
    }
  }
  st.paths[best].wrr_credit -= total;
  return best;
}

sim::Time CloveEcnPolicy::gap_for(const DstState* st) const {
  if (!cfg_.adaptive_gap || st == nullptr) return cfg_.flowlet_gap;
  // §7: widen the gap by the observed one-way-delay spread between paths so
  // a flowlet moving from a slow path to a fast one cannot overtake its
  // predecessor's tail.
  sim::Time lo = sim::kTimeNever, hi = 0;
  for (const auto& p : st->paths) {
    if (p.latency < 0) continue;
    lo = std::min(lo, p.latency);
    hi = std::max(hi, p.latency);
  }
  if (lo == sim::kTimeNever || hi <= lo) return cfg_.flowlet_gap;
  return cfg_.flowlet_gap +
         static_cast<sim::Time>(cfg_.adaptive_gap_factor *
                                static_cast<double>(hi - lo));
}

std::uint16_t CloveEcnPolicy::pick_port(const net::Packet& inner,
                                        net::IpAddr dst, sim::Time now,
                                        PickInfo* info) {
  auto it0 = dsts_.find(dst);
  auto t = flowlets_.touch(inner.inner, now,
                           gap_for(it0 == dsts_.end() ? nullptr : &it0->second));
  if (info != nullptr) {
    info->new_flowlet = t.new_flowlet;
    info->flowlet_id = t.flowlet_id;
  }
  auto it = it0;
  if (it == dsts_.end() || it->second.paths.empty()) {
    // Discovery hasn't produced a mapping yet: fall back to per-flowlet
    // random ports (Edge-Flowlet behaviour).
    if (info != nullptr) info->reason = "flowlet-hash";
    if (!t.new_flowlet) return t.port;
    const std::uint16_t port = hash_port(inner.inner, t.flowlet_id);
    t.set_port(port);
    return port;
  }
  DstState& st = it->second;
  apply_recovery(st, now);
  if (info != nullptr) {
    info->n_paths = static_cast<std::uint16_t>(st.paths.size());
  }

  if (!t.new_flowlet) {
    // Keep the flowlet on its path as long as that port is still mapped.
    for (const auto& p : st.paths) {
      if (p.info.port == t.port) {
        if (info != nullptr) {
          info->reason = "wrr";
          info->metric = p.weight;
        }
        return t.port;
      }
    }
  }
  const std::size_t idx = wrr_pick(st);
  const std::uint16_t port = st.paths[idx].info.port;
  t.set_port(port);
  if (info != nullptr) {
    info->reason = "wrr";
    info->metric = st.paths[idx].weight;
  }
  return port;
}

void CloveEcnPolicy::on_feedback(net::IpAddr dst, const net::CloveFeedback& fb,
                                 sim::Time now) {
  if (!fb.present) return;
  auto it = dsts_.find(dst);
  if (it == dsts_.end()) return;
  DstState& st = it->second;

  if (cfg_.adaptive_gap && fb.has_latency) {
    for (auto& p : st.paths) {
      if (p.info.port == fb.port) {
        p.latency = p.latency < 0 ? fb.latency : (p.latency + fb.latency) / 2;
        break;
      }
    }
  }
  if (!fb.ecn_set) return;
  apply_recovery(st, now);

  PathState* congested = nullptr;
  for (auto& p : st.paths) {
    if (p.info.port == fb.port) {
      congested = &p;
      break;
    }
  }
  if (congested == nullptr) return;  // feedback for a stale mapping
  congested->congested_at = now;

  // Reduce the congested path's weight and spread the removed mass equally
  // over the uncongested paths (§3.2 "Reacting to Congestion").
  double delta = congested->weight * cfg_.reduce_factor;
  if (congested->weight - delta < cfg_.min_weight) {
    delta = std::max(0.0, congested->weight - cfg_.min_weight);
  }
  std::vector<PathState*> uncongested;
  for (auto& p : st.paths) {
    if (&p != congested && !is_congested(p, now)) uncongested.push_back(&p);
  }
  if (uncongested.empty() || delta <= 0.0) return;
  congested->weight -= delta;
  const double share = delta / static_cast<double>(uncongested.size());
  for (PathState* p : uncongested) p->weight += share;

  if (on_port_degraded) on_port_degraded(dst, fb.port);
}

void CloveEcnPolicy::on_path_evicted(net::IpAddr dst, std::uint16_t port,
                                     sim::Time /*now*/) {
  auto it = dsts_.find(dst);
  if (it == dsts_.end()) return;
  DstState& st = it->second;
  const auto pit =
      std::find_if(st.paths.begin(), st.paths.end(),
                   [port](const PathState& p) { return p.info.port == port; });
  if (pit == st.paths.end()) return;
  st.paths.erase(pit);

  // Renormalize proportionally: the dead path's mass spreads over survivors
  // in the ratio they already held (unlike ECN reduction, nothing here says
  // which survivor deserves it more).
  double total = 0.0;
  for (const auto& p : st.paths) total += p.weight;
  if (total > 0.0) {
    for (auto& p : st.paths) p.weight /= total;
  } else if (!st.paths.empty()) {
    const double uniform = 1.0 / static_cast<double>(st.paths.size());
    for (auto& p : st.paths) p.weight = uniform;
  }
}

bool CloveEcnPolicy::all_paths_congested(net::IpAddr dst, sim::Time now) const {
  auto it = dsts_.find(dst);
  if (it == dsts_.end() || it->second.paths.empty()) return false;
  for (const auto& p : it->second.paths) {
    if (!is_congested(p, now)) return false;
  }
  return true;
}

std::vector<double> CloveEcnPolicy::weights(net::IpAddr dst) const {
  std::vector<double> w;
  auto it = dsts_.find(dst);
  if (it == dsts_.end()) return w;
  for (const auto& p : it->second.paths) w.push_back(p.weight);
  return w;
}

}  // namespace clove::lb
