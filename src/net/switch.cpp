#include "net/switch.hpp"

#include "net/packet_pool.hpp"
#include "prof/prof.hpp"
#include "telemetry/scope.hpp"

namespace clove::net {

Switch::Switch(sim::Simulator& sim, NodeId id, std::string name)
    : Node(id, std::move(name)), sim_(sim) {
  auto bind = telemetry::current_scope().binder(
      [&] { return telemetry::Labels{{"switch", this->name()}}; });
  cells_ = Cells{bind.counter("switch.forwarded"),
                 bind.counter("switch.no_route_drops"),
                 bind.counter("switch.ttl_drops")};
}

void Switch::reset_routes(std::size_t n_dst) {
  routes_.assign(n_dst, nullptr);
  pool_.clear();
  last_interned_ = nullptr;
}

const PortSet* Switch::intern(const std::vector<int>& ports) {
  for (const PortSet& set : pool_) {
    if (set.equals(ports)) return &set;
  }
  if (pool_.size() == pool_.capacity()) {
    // Grow by hand, so the routes into the old slots can be rebased while
    // those slots are still alive. The first growth sizes the pool for one
    // set per port plus one, which a fat-tree switch never exceeds.
    std::vector<PortSet> grown;
    grown.reserve(std::max(2 * pool_.size(),
                           static_cast<std::size_t>(port_count()) + 1));
    for (PortSet& set : pool_) grown.push_back(std::move(set));
    for (const PortSet*& r : routes_) {
      if (r != nullptr) r = grown.data() + (r - pool_.data());
    }
    pool_ = std::move(grown);
  }
  pool_.emplace_back(ports);
  return &pool_.back();
}

std::size_t Switch::route_table_bytes() const {
  std::size_t bytes = routes_.capacity() * sizeof(routes_[0]) +
                      pool_.capacity() * sizeof(PortSet);
  for (const PortSet& set : pool_) bytes += set.spill_bytes();
  return bytes;
}

void Switch::receive(PacketPtr pkt, int in_port) {
  CLOVE_PROF_SCOPE(prof::kSwitchForward);
  // TTL processing, as a router would: decrement, and on expiry either
  // answer a traceroute probe or silently drop.
  if (pkt->ttl == 0) {
    ++stats_.ttl_drops;
    if (telemetry::enabled()) cells_.ttl_drops->add();
    if (auto* fr = telemetry::flight()) {
      fr->on_drop(pkt->uid, id(), name(),
                  telemetry::JourneyOutcome::kDropTtl, sim_.now());
    }
    return;
  }
  pkt->ttl--;
  if (pkt->ttl == 0) {
    if (pkt->inner.proto == Proto::kProbe) {
      send_probe_reply(*pkt, in_port);
      if (auto* fr = telemetry::flight()) {
        // The probe terminated here by design — a legitimate consumption,
        // not a conservation violation.
        fr->on_drop(pkt->uid, id(), name(),
                    telemetry::JourneyOutcome::kConsumed, sim_.now());
      }
    } else {
      ++stats_.ttl_drops;
      if (telemetry::enabled()) cells_.ttl_drops->add();
      if (auto* fr = telemetry::flight()) {
        fr->on_drop(pkt->uid, id(), name(),
                    telemetry::JourneyOutcome::kDropTtl, sim_.now());
      }
    }
    return;
  }
  forward(std::move(pkt), in_port);
}

void Switch::forward(PacketPtr pkt, int in_port) {
  if (Link* egress = egress_for(*pkt, in_port)) {
    egress->enqueue(std::move(pkt));
  }
}

Link* Switch::egress_for(Packet& pkt, int in_port) {
  const PortSet* ports = route(pkt.wire_dst());
  if (ports == nullptr) {
    ++stats_.no_route_drops;
    if (telemetry::enabled()) cells_.no_route_drops->add();
    if (auto* fr = telemetry::flight()) {
      fr->on_drop(pkt.uid, id(), name(),
                  telemetry::JourneyOutcome::kDropNoRoute, sim_.now());
    }
    return nullptr;
  }
  const int egress = select_port(pkt, *ports, in_port);
  on_forward(pkt, egress, in_port);
  ++stats_.forwarded;
  if (telemetry::enabled()) cells_.forwarded->add();
  Link* l = port(egress);
  if (auto* fr = telemetry::flight(); fr != nullptr && fr->wants(pkt.uid)) {
    // Queue depth and ECN decision are recorded as the egress queue will see
    // this packet: the caller's enqueue applies exactly would_mark()'s
    // condition.
    fr->on_hop(pkt.uid, id(), name(), in_port, egress, l->queue_bytes(),
               l->would_mark(pkt), sim_.now());
  }
  return l;
}

int Switch::select_port(const Packet& pkt, const PortSet& ports,
                        int /*in_port*/) {
  if (ports.size() == 1) return ports[0];
  // One finalizer round over the cached prehash — identical decision to
  // hash_tuple(pkt.wire_tuple(), id()) but without re-mixing the tuple.
  return ports[salted_hash(pkt.wire_hash(), id()) % ports.size()];
}

void Switch::on_forward(Packet& /*pkt*/, int /*egress_port*/, int /*in_port*/) {}

void Switch::send_probe_reply(const Packet& probe, int in_port) {
  // Models the ICMP Time-Exceeded message a real switch would emit: a small
  // packet routed back to the prober, identifying the ingress interface it
  // arrived on (which is what lets traceroute tell parallel links apart).
  ProbeReply reply = ProbeReply::answer(
      probe, ip(), in_port, false, PacketPool::of(sim_).reserve_uids(1));
  ++stats_.probe_replies;
  // Route the reply as a packet on the stack, so select_port and on_forward
  // see it as they would a built one, then queue its descriptor with
  // whatever on_forward stamped (a CONGA leaf's header).
  Packet routed;
  reply.build(routed);
  if (Link* egress = egress_for(routed, -1)) {
    reply.conga = routed.conga;
    egress->enqueue_reply(reply);
  }
}

}  // namespace clove::net
