#include "overlay/traceroute.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "net/packet_pool.hpp"
#include "prof/prof.hpp"
#include "sim/logging.hpp"

namespace clove::overlay {

namespace {

/// The probes of one round, or of one keepalive, as a run: probe i tests
/// ports[i / rungs] at TTL first_ttl + i % rungs. It owns a copy of all it
/// reads, so a later round cannot rewrite probes still queued at the NIC.
class ProbeRecipe final : public net::PacketRecipe {
 public:
  void build(net::Packet& p, std::uint32_t i) const override {
    const std::uint16_t port = ports[i / rungs];
    const auto ttl =
        static_cast<std::uint8_t>(first_ttl + static_cast<int>(i % rungs));
    p.encap.present = true;
    p.encap.tuple = net::FiveTuple{src, dst, port, kSttPort, net::Proto::kStt};
    p.inner = p.encap.tuple;  // probes carry no tenant payload
    p.inner.proto = net::Proto::kProbe;
    p.payload = 0;
    p.ttl = ttl;
    p.probe.probe_id = probe_id;
    p.probe.probed_port = port;
    p.probe.hop_index = ttl;
    p.sent_at = sent_at;
  }

  net::IpAddr src{net::kIpNone};
  net::IpAddr dst{net::kIpNone};
  std::uint32_t probe_id{0};
  int first_ttl{1};
  std::uint32_t rungs{1};
  sim::Time sent_at{0};
  std::vector<std::uint16_t> ports;  ///< in send order
};

}  // namespace

TracerouteDaemon::TracerouteDaemon(sim::Simulator& sim, net::IpAddr self,
                                   const TracerouteConfig& cfg, SendFn send,
                                   PathsCallback on_paths, std::uint64_t seed)
    : sim_(sim),
      self_(self),
      cfg_(cfg),
      send_(std::move(send)),
      on_paths_(std::move(on_paths)),
      rng_(seed ^ (static_cast<std::uint64_t>(self) << 20)),
      hop_stride_(static_cast<std::size_t>(std::max(cfg.max_ttl, 0)) + 1) {}

std::uint32_t TracerouteDaemon::slot_of(net::IpAddr dst) {
  auto [it, inserted] =
      slot_of_.try_emplace(dst, static_cast<std::uint32_t>(dsts_.size()));
  if (inserted) dsts_.emplace_back().dst = dst;
  return it->second;
}

void TracerouteDaemon::add_destination(net::IpAddr dst) {
  if (slot_of_.contains(dst)) return;
  start_round(slot_of(dst));
}

void TracerouteDaemon::probe_now(net::IpAddr dst) { start_round(slot_of(dst)); }

void TracerouteDaemon::start_round(std::uint32_t slot) {
  Round& r = dsts_[slot].round;
  if (r.open) return;  // a round is already collecting
  const net::IpAddr dst = dsts_[slot].dst;

  r.id = next_round_id_++;
  r.open = true;
  id_owner_.push_back(slot);

  // Sample distinct random encapsulation source ports. The set's iteration
  // order is the send order, which decides which probes overflowing queues
  // drop: it is part of the simulated outcome.
  const int want = std::clamp(cfg_.sample_ports, 0,
                              static_cast<int>(kEphemeralCount));
  std::unordered_set<std::uint16_t> ports;
  while (static_cast<int>(ports.size()) < want) {
    ports.insert(static_cast<std::uint16_t>(
        kEphemeralBase + rng_.uniform_int(kEphemeralCount)));
  }

  r.ports.assign(ports.begin(), ports.end());
  r.dest_hop.assign(r.ports.size(), 0);
  r.dest_ingress.assign(r.ports.size(), 0);
  r.hops.assign(r.ports.size() * hop_stride_, PathHop{});

  send_probes(dst, r.id, r.ports, 1, cfg_.max_ttl);

  sim_.schedule_in(cfg_.probe_timeout, [this, slot] { finish_round(slot); });
}

void TracerouteDaemon::keepalive(net::IpAddr dst, std::uint16_t port,
                                 KeepaliveFn done) {
  const std::uint32_t id = next_round_id_++;
  id_owner_.push_back(kNoOwner);
  keepalives_.emplace(id, Keepalive{dst, port, std::move(done)});

  ++keepalives_sent_;
  // No ladder: only the destination's answer matters.
  send_probes(dst, id, {port}, 64, 1);

  sim_.schedule_in(cfg_.probe_timeout, [this, id] {
    auto it = keepalives_.find(id);
    if (it == keepalives_.end()) return;  // answered in time
    Keepalive ka = std::move(it->second);
    keepalives_.erase(it);
    if (ka.done) ka.done(ka.dst, ka.port, false);
  });
}

void TracerouteDaemon::send_probes(net::IpAddr dst, std::uint32_t probe_id,
                                   const std::vector<std::uint16_t>& ports,
                                   int first_ttl, int rungs) {
  if (ports.empty() || rungs <= 0) return;
  auto run = std::make_shared<ProbeRecipe>();
  run->count = static_cast<std::uint32_t>(ports.size()) *
               static_cast<std::uint32_t>(rungs);
  run->first_uid = net::PacketPool::of(sim_).reserve_uids(run->count);
  run->src = self_;
  run->dst = dst;
  run->probe_id = probe_id;
  run->first_ttl = first_ttl;
  run->rungs = static_cast<std::uint32_t>(rungs);
  run->sent_at = sim_.now();
  run->ports = ports;
  probes_sent_ += run->count;
  send_(std::move(run));
}

bool TracerouteDaemon::evict_port(net::IpAddr dst, std::uint16_t port) {
  auto it = slot_of_.find(dst);
  if (it == slot_of_.end()) return false;
  PathSet& current = dsts_[it->second].current;
  auto& paths = current.paths;
  const auto pit =
      std::find_if(paths.begin(), paths.end(),
                   [port](const PathInfo& p) { return p.port == port; });
  if (pit == paths.end()) return false;
  paths.erase(pit);
  if (on_paths_) on_paths_(dst, current);
  return true;
}

void TracerouteDaemon::on_reply(const net::Packet& pkt) {
  CLOVE_PROF_SCOPE(prof::kDiscovery);
  const std::uint32_t id = pkt.probe.probe_id;
  if (!keepalives_.empty()) {
    if (auto kit = keepalives_.find(id); kit != keepalives_.end()) {
      if (!pkt.probe.from_destination) return;  // mid-path echo: not liveness
      Keepalive ka = std::move(kit->second);
      keepalives_.erase(kit);
      if (ka.done) ka.done(ka.dst, ka.port, true);
      return;
    }
  }
  if (id >= id_owner_.size() || id_owner_[id] == kNoOwner) return;
  Round& r = dsts_[id_owner_[id]].round;
  if (!r.open || r.id != id) return;  // a stale round's straggler

  const auto pit =
      std::find(r.ports.begin(), r.ports.end(), pkt.probe.probed_port);
  if (pit == r.ports.end()) return;
  const auto slot = static_cast<std::size_t>(pit - r.ports.begin());
  const int hop = pkt.probe.hop_index;
  if (hop < 1 || hop > cfg_.max_ttl) return;  // not a rung of our ladder
  if (pkt.probe.from_destination) {
    if (r.dest_hop[slot] == 0 || hop < r.dest_hop[slot]) {
      r.dest_hop[slot] = static_cast<std::uint8_t>(hop);
      r.dest_ingress[slot] = pkt.probe.hop_ingress;
    }
  } else {
    r.hops[slot * hop_stride_ + static_cast<std::size_t>(hop)] =
        PathHop{pkt.probe.hop_ip, pkt.probe.hop_ingress};
  }
}

void TracerouteDaemon::finish_round(std::uint32_t slot) {
  Round& r = dsts_[slot].round;
  if (!r.open) return;
  r.open = false;
  const net::IpAddr dst = dsts_[slot].dst;

  // Assemble candidate paths: a port's trace is usable when we saw a
  // destination reply at hop D and contiguous switch hops 1..D-1.
  std::vector<PathInfo> candidates;
  for (std::size_t i = 0; i < r.ports.size(); ++i) {
    const int reached = r.dest_hop[i];
    if (reached == 0) continue;
    const PathHop* row = &r.hops[i * hop_stride_];
    bool complete = true;
    for (int h = 1; h < reached; ++h) {
      if (row[h].node == net::kIpNone) {
        complete = false;
        break;
      }
    }
    if (!complete) continue;
    PathInfo info;
    info.port = r.ports[i];
    info.hops.assign(row + 1, row + reached);
    info.hops.push_back(PathHop{dst, r.dest_ingress[i]});
    candidates.push_back(std::move(info));
  }

  std::vector<PathInfo> chosen = select_disjoint(std::move(candidates),
                                                 cfg_.k_paths);
  if (!chosen.empty()) {
    PathSet& current = dsts_[slot].current;
    current.paths = std::move(chosen);
    current.discovered_at = sim_.now();
    ++rounds_completed_;
    if (on_paths_) on_paths_(dst, current);
  }
  schedule_next(slot);
}

std::vector<PathInfo> TracerouteDaemon::select_disjoint(
    std::vector<PathInfo> candidates, int k) {
  // Deduplicate by hop list (many ports hash to the same physical path);
  // keep the lowest port per path for determinism.
  std::sort(candidates.begin(), candidates.end(),
            [](const PathInfo& a, const PathInfo& b) { return a.port < b.port; });
  std::vector<PathInfo> unique;
  for (auto& c : candidates) {
    const bool seen = std::any_of(
        unique.begin(), unique.end(),
        [&c](const PathInfo& u) { return u.hops == c.hops; });
    if (!seen) unique.push_back(std::move(c));
  }

  // Greedy: repeatedly add the path sharing the fewest links with the
  // already-chosen set (§3.1's heuristic).
  std::vector<PathInfo> chosen;
  std::vector<bool> used(unique.size(), false);
  while (static_cast<int>(chosen.size()) < k) {
    int best = -1;
    int best_shared = std::numeric_limits<int>::max();
    for (std::size_t i = 0; i < unique.size(); ++i) {
      if (used[i]) continue;
      int shared = 0;
      for (const auto& c : chosen) shared += unique[i].shared_links(c);
      if (shared < best_shared) {
        best_shared = shared;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    used[static_cast<std::size_t>(best)] = true;
    chosen.push_back(std::move(unique[static_cast<std::size_t>(best)]));
  }
  std::sort(chosen.begin(), chosen.end(),
            [](const PathInfo& a, const PathInfo& b) { return a.port < b.port; });
  return chosen;
}

void TracerouteDaemon::schedule_next(std::uint32_t slot) {
  if (dsts_[slot].scheduled) return;
  dsts_[slot].scheduled = true;
  const double jitter =
      1.0 + cfg_.interval_jitter * (2.0 * rng_.uniform() - 1.0);
  const sim::Time delay = static_cast<sim::Time>(
      static_cast<double>(cfg_.probe_interval) * jitter);
  sim_.schedule_in(delay, [this, slot] {
    dsts_[slot].scheduled = false;
    start_round(slot);
  });
}

const PathSet* TracerouteDaemon::paths(net::IpAddr dst) const {
  auto it = slot_of_.find(dst);
  if (it == slot_of_.end()) return nullptr;
  const PathSet& current = dsts_[it->second].current;
  return current.empty() ? nullptr : &current;
}

}  // namespace clove::overlay
