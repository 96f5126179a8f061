#include "net/conga_switch.hpp"

#include <algorithm>

namespace clove::net {

void CongaLeafSwitch::configure_fabric(int leaf_index,
                                       std::vector<int> uplink_ports,
                                       std::unordered_map<IpAddr, int> host_leaf) {
  leaf_index_ = leaf_index;
  uplink_ports_ = std::move(uplink_ports);
  // Densify the host->leaf mapping and size the feedback round-robin array
  // up front so the per-packet path never allocates.
  int max_leaf = leaf_index;
  host_leaf_.clear();
  for (const auto& [ip, leaf] : host_leaf) {
    if (ip >= host_leaf_.size()) host_leaf_.resize(ip + 1, -1);
    host_leaf_[ip] = leaf;
    max_leaf = std::max(max_leaf, leaf);
  }
  fb_rr_.assign(static_cast<std::size_t>(max_leaf) + 1, 0);
}

std::uint8_t CongaLeafSwitch::read_metric(const MetricTable& t,
                                          std::uint64_t key) const {
  const Metric* m = t.find(key);
  if (m == nullptr) return 0;
  if (sim_.now() - m->updated > cfg_.table_aging) return 0;
  return m->ce;
}

std::uint8_t CongaLeafSwitch::congestion_to(int dst_leaf, int tag) const {
  return read_metric(to_leaf_, table_key(dst_leaf, tag));
}
std::uint8_t CongaLeafSwitch::congestion_from(int src_leaf, int tag) const {
  return read_metric(from_leaf_, table_key(src_leaf, tag));
}

int CongaLeafSwitch::pick_uplink_tag(int dst_leaf,
                                     const PortSet& live_ports) {
  int best_tag = -1;
  int best_metric = 256;
  int n_best = 0;
  for (std::size_t tag = 0; tag < uplink_ports_.size(); ++tag) {
    const int port_idx = uplink_ports_[tag];
    if (std::find(live_ports.begin(), live_ports.end(), port_idx) ==
        live_ports.end()) {
      continue;  // uplink failed or not on a shortest path right now
    }
    const std::uint8_t local =
        port(port_idx)->utilization_quantized(cfg_.quantization_bits);
    const std::uint8_t remote = congestion_to(dst_leaf, static_cast<int>(tag));
    const int metric = std::max<int>(local, remote);
    if (metric < best_metric) {
      best_metric = metric;
      best_tag = static_cast<int>(tag);
      n_best = 1;
    } else if (metric == best_metric) {
      // Reservoir-sample among ties so equal paths share load evenly.
      ++n_best;
      if (rng_.uniform_int(static_cast<std::uint64_t>(n_best)) == 0) {
        best_tag = static_cast<int>(tag);
      }
    }
  }
  return best_tag;
}

int CongaLeafSwitch::select_port(const Packet& pkt, const PortSet& ports,
                                 int in_port) {
  const int dst_leaf = leaf_of(pkt.wire_dst());
  const bool entering_fabric =
      leaf_index_ >= 0 && dst_leaf >= 0 && dst_leaf != leaf_index_ &&
      !is_uplink(in_port);
  if (!entering_fabric) {
    return Switch::select_port(pkt, ports, in_port);
  }
  const std::uint64_t key = salted_hash(pkt.wire_hash(), 0xC09A);
  auto dec = flowlets_.touch(key, sim_.now());
  int tag;
  if (dec.new_flowlet) {
    tag = pick_uplink_tag(dst_leaf, ports);
    if (tag < 0) return Switch::select_port(pkt, ports, in_port);
    dec.set_value(static_cast<std::uint32_t>(tag));
  } else {
    tag = static_cast<int>(dec.value);
    const int port_idx = uplink_ports_[static_cast<std::size_t>(tag)];
    if (std::find(ports.begin(), ports.end(), port_idx) == ports.end()) {
      // The flowlet's uplink died; repick.
      tag = pick_uplink_tag(dst_leaf, ports);
      if (tag < 0) return Switch::select_port(pkt, ports, in_port);
      dec.set_value(static_cast<std::uint32_t>(tag));
    }
  }
  return uplink_ports_[static_cast<std::size_t>(tag)];
}

void CongaLeafSwitch::on_forward(Packet& pkt, int egress_port, int in_port) {
  if (leaf_index_ < 0) return;
  const int dst_leaf = leaf_of(pkt.wire_dst());

  if (dst_leaf == leaf_index_ && is_uplink(in_port)) {
    // Arriving from the fabric for a local host: harvest metrics.
    if (pkt.conga.present) {
      from_leaf_[table_key(static_cast<int>(pkt.conga.src_leaf),
                           pkt.conga.lb_tag)] = {pkt.conga.ce, sim_.now()};
      if (pkt.conga.fb_present) {
        to_leaf_[table_key(static_cast<int>(pkt.conga.src_leaf),
                           pkt.conga.fb_tag)] = {pkt.conga.fb_ce, sim_.now()};
      }
    }
    return;
  }

  if (dst_leaf >= 0 && dst_leaf != leaf_index_ && !is_uplink(in_port)) {
    // Entering the fabric: stamp the CONGA header and piggyback feedback
    // about the destination leaf's tags (measured on traffic we received
    // from it), exactly one (tag, ce) pair per packet, round-robin.
    pkt.conga.present = true;
    pkt.conga.src_leaf = static_cast<std::uint32_t>(leaf_index_);
    // lb_tag = index of the chosen uplink.
    for (std::size_t tag = 0; tag < uplink_ports_.size(); ++tag) {
      if (uplink_ports_[tag] == egress_port) {
        pkt.conga.lb_tag = static_cast<std::uint8_t>(tag);
        break;
      }
    }
    pkt.conga.ce = 0;
    if (!uplink_ports_.empty() &&
        static_cast<std::size_t>(dst_leaf) < fb_rr_.size()) {
      std::uint8_t& rr = fb_rr_[static_cast<std::size_t>(dst_leaf)];
      rr = static_cast<std::uint8_t>((rr + 1) % uplink_ports_.size());
      pkt.conga.fb_present = true;
      pkt.conga.fb_tag = rr;
      pkt.conga.fb_ce = congestion_from(dst_leaf, rr);
    }
  }
}

}  // namespace clove::net
