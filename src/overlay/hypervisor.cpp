#include "overlay/hypervisor.hpp"

#include "net/link.hpp"
#include "net/packet_pool.hpp"
#include "prof/prof.hpp"
#include "telemetry/scope.hpp"

namespace clove::overlay {

Hypervisor::Hypervisor(net::NodeId id, std::string name, sim::Simulator& sim,
                       HypervisorConfig cfg, std::unique_ptr<lb::Policy> policy)
    : net::Node(id, std::move(name)),
      sim_(sim),
      cfg_(cfg),
      policy_(std::move(policy)) {
  auto bind = telemetry::current_scope().binder([&] {
    return telemetry::Labels{{"host", this->name()},
                             {"scheme", policy_->name()}};
  });
  cells_ = Cells{bind.counter("hyp.encapped"), bind.counter("hyp.decapped"),
                 bind.counter("hyp.ce_intercepted"),
                 bind.counter("hyp.feedback_attached"),
                 bind.counter("hyp.feedback_received"),
                 bind.counter("hyp.forged_ece")};
  traceroute_ = std::make_unique<TracerouteDaemon>(
      sim_, ip(), cfg_.discovery,
      [this](std::shared_ptr<const net::PacketRecipe> run) {
        nic_send(std::move(run));
      },
      [this](net::IpAddr dst, const PathSet& ps) {
        policy_->on_paths_updated(dst, ps);
        if (path_health_) path_health_->on_paths_updated(dst, ps);
      });
  if (cfg_.path_health.enabled) {
    path_health_ = std::make_unique<PathHealthMonitor>(
        sim_, this->name(), cfg_.path_health, traceroute_.get(),
        policy_.get());
    // Fan evictions out to the transport endpoints talking to that peer so
    // a sender stalled on the dead path retransmits now, not at the RTO.
    // (Slot order is deterministic: same registration sequence, same layout.)
    path_health_->on_evict = [this](net::IpAddr dst, std::uint16_t port) {
      for (auto it = endpoints_.begin(); it != endpoints_.end(); ++it) {
        if (it.key().dst_ip == dst && it.value() != nullptr) {
          it.value()->on_path_evicted(dst, port, sim_.now());
        }
      }
    };
  }
  if (cfg_.reorder_buffer) {
    reorder_ = std::make_unique<ReorderBuffer>(
        sim_, cfg_.reorder,
        [this](net::PacketPtr p) { deliver_to_vm(std::move(p)); });
    reorder_->set_flush_hook([](const net::FiveTuple& t) {
      if (auto* fr = telemetry::flight()) {
        fr->on_reassembly_flush({t.src_ip, t.dst_ip, t.src_port, t.dst_port});
      }
    });
  }
}

void Hypervisor::register_endpoint(const net::FiveTuple& tuple,
                                   transport::TcpEndpoint* ep) {
  endpoints_[tuple] = ep;
  if (hybrid_ != nullptr && ep != nullptr && !hybrid_requires_reassembly()) {
    if (auto* s = ep->as_sender()) hybrid_->adopt(s);
  }
}

void Hypervisor::set_hybrid(hybrid::Engine* engine) {
  hybrid_ = engine;
  if (hybrid_ == nullptr || hybrid_requires_reassembly()) return;
  // Clove's weight-degrade feedback becomes a demotion trigger: a promoted
  // elephant riding a path the policy steers away from must come back to
  // packet level so the next flowlet decision is real.
  policy_->on_port_degraded = [this](net::IpAddr dst, std::uint16_t port) {
    hybrid_->on_port_degraded(ip(), dst, port);
  };
  for (auto it = endpoints_.begin(); it != endpoints_.end(); ++it) {
    if (it.value() != nullptr) {
      if (auto* s = it.value()->as_sender()) hybrid_->adopt(s);
    }
  }
}

void Hypervisor::start_discovery(const std::vector<net::IpAddr>& peers) {
  for (net::IpAddr p : peers) {
    if (p != ip()) traceroute_->add_destination(p);
  }
}

void Hypervisor::prof_note_tables(prof::Profiler& p) const {
  const auto digest = [](const auto& st) {
    return prof::TableStats{st.size, st.capacity, st.tombstones, st.probe_sum,
                            st.max_probe};
  };
  p.note_table("hyp.endpoints", digest(endpoints_.probe_stats()));
  p.note_table("hyp.pending_feedback", digest(pending_fb_.probe_stats()));
  if (auto* fl = policy_->flowlet_tracker()) {
    p.note_table("lb.flowlets", digest(fl->probe_stats()));
  }
}

void Hypervisor::nic_send(net::PacketPtr pkt) {
  if (port_count() == 0) return;  // unwired host (unit tests)
  ports_[0]->enqueue(std::move(pkt));
}

void Hypervisor::nic_send(std::shared_ptr<const net::PacketRecipe> run) {
  if (port_count() == 0) return;  // unwired host (unit tests)
  ports_[0]->enqueue_run(std::move(run));
}

void Hypervisor::nic_send(const net::ProbeReply& reply) {
  if (port_count() == 0) return;  // unwired host (unit tests)
  ports_[0]->enqueue_reply(reply);
}

// ---------------------------------------------------------------------------
// Egress: VM -> vswitch -> NIC
// ---------------------------------------------------------------------------

void Hypervisor::vm_send(net::PacketPtr pkt) {
  CLOVE_PROF_SCOPE(prof::kHypervisor);
  const net::IpAddr dst = pkt->inner.dst_ip;
  if (dst == ip()) {
    ++stats_.local_deliveries;
    deliver_to_vm(std::move(pkt));
    return;
  }

  lb::PickInfo pick;
  std::uint16_t port;
  {
    // The policy decision is the paper's contribution — attribute it apart
    // from the rest of the vswitch egress work.
    CLOVE_PROF_SCOPE(prof::kPolicy);
    port = policy_->pick_port(*pkt, dst, sim_.now(), &pick);
  }
  if (auto* fr = telemetry::flight()) {
    fr->on_pick(pkt->uid, id(), name(),
                {pkt->inner.src_ip, pkt->inner.dst_ip, pkt->inner.src_port,
                 pkt->inner.dst_port},
                dst, port, pick.flowlet_id, pick.reason, pick.metric,
                pkt->tcp.seq, pkt->payload, sim_.now());
  }

  if (cfg_.overlay) {
    ++stats_.encapped;
    if (telemetry::enabled()) cells_.encapped->add();
    pkt->encap.present = true;
    pkt->encap.tuple =
        net::FiveTuple{ip(), dst, port, kSttPort, net::Proto::kStt};
    pkt->encap.ecn.ect = policy_->wants_ect();
    pkt->encap.ecn.ce = false;
    pkt->int_stack = net::IntStack{.enabled = policy_->wants_int()};
  } else {
    // §7 non-overlay mode: rewrite the tenant source port in place; the
    // original travels in TCP options and is restored at the destination.
    pkt->rewrite.rewritten = true;
    pkt->rewrite.orig_src_port = pkt->inner.src_port;
    pkt->inner.src_port = port;
    // The fabric marks the inner header directly in this mode.
    pkt->ecn.ect = pkt->ecn.ect || policy_->wants_ect();
    pkt->int_stack = net::IntStack{.enabled = policy_->wants_int()};
  }
  // The wire tuple is final for this traversal: compute the ECMP prehash
  // once here and let every switch on the path salt-finalize it.
  pkt->invalidate_wire_hash();
  (void)pkt->wire_hash();

  if (path_health_) path_health_->note_sent(dst, port, sim_.now());
  attach_feedback(dst, *pkt);
  pkt->sent_at = sim_.now();  // NIC timestamp for one-way-delay telemetry
  pkt->ttl = 64;
  nic_send(std::move(pkt));
}

void Hypervisor::attach_feedback(net::IpAddr peer, net::Packet& pkt) {
  PeerFeedback* pfp = pending_fb_.find(peer);
  if (pfp == nullptr) return;
  PeerFeedback& pf = *pfp;
  if (pf.rr_order.empty()) return;

  // Round-robin across forward ports, relaying at most one port's state per
  // packet and at most once per relay interval per port (§3.2: calibrated
  // response, amortized per-packet cost).
  for (std::size_t scan = 0; scan < pf.rr_order.size(); ++scan) {
    pf.rr_next = (pf.rr_next + 1) % pf.rr_order.size();
    const std::uint16_t port = pf.rr_order[pf.rr_next];
    PendingFeedback& fb = pf.ports[port];
    const bool has_news = fb.ecn_pending || fb.has_util || fb.has_latency;
    if (!has_news) continue;
    if (fb.last_relayed >= 0 &&
        sim_.now() - fb.last_relayed < cfg_.feedback_relay_interval) {
      continue;
    }
    net::CloveFeedback& out = pkt.encap.feedback;
    out.present = true;
    out.port = port;
    out.ecn_set = fb.ecn_pending;
    out.has_util = fb.has_util;
    out.util = fb.util;
    out.has_latency = fb.has_latency;
    out.latency = fb.latency;
    fb.ecn_pending = false;
    fb.has_util = false;
    fb.has_latency = false;
    fb.last_relayed = sim_.now();
    ++stats_.feedback_attached;
    if (telemetry::enabled()) cells_.feedback_attached->add();
    return;
  }
}

void Hypervisor::note_feedback(
    net::IpAddr peer, std::uint16_t port,
    const std::function<void(PendingFeedback&)>& update) {
  PeerFeedback& pf = pending_fb_[peer];
  auto [fb, inserted] = pf.ports.try_emplace(port);
  if (inserted) pf.rr_order.push_back(port);
  update(*fb);
}

void Hypervisor::set_feedback_loss(double p, std::uint64_t seed) {
  fb_loss_ = p;
  if (fb_loss_ > 0.0) fb_rng_.reseed(seed);
}

void Hypervisor::deliver_feedback(net::IpAddr peer,
                                  const net::CloveFeedback& fb) {
  if (fb_loss_ > 0.0 && fb_rng_.uniform() < fb_loss_) {
    ++stats_.feedback_lost_fault;
    return;
  }
  if (fb_delay_ > 0) {
    ++stats_.feedback_delayed_fault;
    const net::CloveFeedback copy = fb;
    sim_.schedule_in(fb_delay_,
                     [this, peer, copy] { apply_feedback(peer, copy); });
    return;
  }
  apply_feedback(peer, fb);
}

void Hypervisor::apply_feedback(net::IpAddr peer, const net::CloveFeedback& fb) {
  policy_->on_feedback(peer, fb, sim_.now());
  // Any feedback naming one of our forward ports proves that path delivers
  // in both directions — evidence of life for the health monitor.
  if (path_health_) path_health_->note_alive(peer, fb.port, sim_.now());
}

// ---------------------------------------------------------------------------
// Ingress: NIC -> vswitch -> VM
// ---------------------------------------------------------------------------

void Hypervisor::receive(net::PacketPtr pkt, int /*in_port*/) {
  CLOVE_PROF_SCOPE(prof::kHypervisor);
  if (auto* fr = telemetry::flight(); fr != nullptr && fr->wants(pkt->uid)) {
    fr->on_deliver(pkt->uid, id(), name(),
                   pkt->encap.present && pkt->encap.ecn.ce, sim_.now());
  }
  if (pkt->inner.proto == net::Proto::kProbeReply) {
    handle_probe_reply(*pkt);
    return;
  }
  if (pkt->inner.proto == net::Proto::kProbe) {
    handle_probe(*pkt);
    return;
  }
  handle_data(std::move(pkt));
}

void Hypervisor::handle_probe(const net::Packet& probe) {
  // A traceroute probe survived to the destination hypervisor: answer it so
  // the prober learns the path is complete (§3.1).
  // It arrived on the single NIC interface, 0.
  const net::ProbeReply reply = net::ProbeReply::answer(
      probe, ip(), 0, true, net::PacketPool::of(sim_).reserve_uids(1));
  ++stats_.dest_probe_replies;
  nic_send(reply);
}

void Hypervisor::handle_probe_reply(const net::Packet& pkt) {
  traceroute_->on_reply(pkt);
}

void Hypervisor::handle_data(net::PacketPtr pkt) {
  net::IpAddr peer = net::kIpNone;
  // Hybrid path capture: remember the overlay port before decap wipes it;
  // the trace itself is reported after feedback processing, below.
  const std::uint16_t trace_port =
      pkt->encap.present ? pkt->encap.tuple.src_port : 0;

  if (pkt->encap.present) {
    peer = pkt->encap.tuple.src_ip;
    ++stats_.decapped;
    if (telemetry::enabled()) cells_.decapped->add();

    // (a) Congestion interception (§3.2 "Detecting Congestion"): the outer
    // CE mark is recorded for relay to the sender and masked from the VM.
    if (pkt->encap.ecn.ce) {
      ++stats_.ce_intercepted;
      const std::uint16_t fwd_port = pkt->encap.tuple.src_port;
      if (telemetry::enabled()) cells_.ce_intercepted->add();
      note_feedback(peer, fwd_port,
                    [](PendingFeedback& fb) { fb.ecn_pending = true; });
    }
    // (b) INT: relay the max egress-link utilization seen along the path.
    if (pkt->int_stack.enabled && pkt->int_stack.count > 0) {
      const double u = pkt->int_stack.max_util();
      const std::uint16_t fwd_port = pkt->encap.tuple.src_port;
      note_feedback(peer, fwd_port, [u](PendingFeedback& fb) {
        fb.has_util = true;
        fb.util = u;
      });
    }
    // (c) One-way latency (Clove-Latency extension).
    if (cfg_.measure_latency) {
      const sim::Time delay = sim_.now() - pkt->sent_at;
      const std::uint16_t fwd_port = pkt->encap.tuple.src_port;
      note_feedback(peer, fwd_port, [delay](PendingFeedback& fb) {
        fb.has_latency = true;
        fb.latency = delay;
      });
    }
    // (d) Feedback bits about OUR forward paths, relayed by the peer.
    if (pkt->encap.feedback.present) {
      ++stats_.feedback_received;
      if (telemetry::enabled()) cells_.feedback_received->add();
      deliver_feedback(peer, pkt->encap.feedback);
    }
    // Decapsulate. Outer CE is deliberately NOT copied to the inner header.
    pkt->encap = net::EncapHeader{};
    pkt->invalidate_wire_hash();  // wire tuple is now the inner tuple
  } else {
    // Non-overlay mode (§7): restore the rewritten source port and process
    // the feedback that rode in TCP options.
    if (pkt->rewrite.rewritten) {
      pkt->inner.src_port = pkt->rewrite.orig_src_port;
      pkt->rewrite = net::RewriteInfo{};
      pkt->invalidate_wire_hash();
    }
    peer = pkt->inner.src_ip;
    if (pkt->encap.feedback.present) {
      ++stats_.feedback_received;
      if (telemetry::enabled()) cells_.feedback_received->add();
      deliver_feedback(peer, pkt->encap.feedback);
      pkt->encap.feedback = net::CloveFeedback{};
    }
    if (pkt->ecn.ce) {
      // Inner marking reached us directly; treat like outer CE: record for
      // relay and mask from the VM.
      ++stats_.ce_intercepted;
      if (telemetry::enabled()) cells_.ce_intercepted->add();
      const std::uint16_t fwd_port = pkt->inner.dst_port;
      note_feedback(peer, fwd_port,
                    [](PendingFeedback& fb) { fb.ecn_pending = true; });
      pkt->ecn.ce = false;
    }
  }

  // (e) §3.2: only when ALL paths to the peer are congested is ECN relayed
  // into the sending VM — modeled by forging ECE on the inbound ACKs that
  // VM's TCP is clocked by.
  const bool all_congested = peer != net::kIpNone && pkt->tcp.flags.ack &&
                             policy_->all_paths_congested(peer, sim_.now());
  if (telemetry::flight_active() && pkt->tcp.flags.ack &&
      (pkt->tcp.flags.ece || all_congested)) {
    // The auditor sees every ECE that will reach the VM: forged ones (below)
    // and echoed ones arriving on the wire. Either is only legitimate when
    // all paths are congested — receivers never echo a masked CE.
    telemetry::flight()->on_ecn_to_vm(all_congested);
  }
  if (all_congested) {
    if (!pkt->tcp.flags.ece) {
      ++stats_.forged_ece;
      if (telemetry::enabled()) cells_.forged_ece->add();
    }
    pkt->tcp.flags.ece = true;
  }

  if (pkt->traced) {
    pkt->traced = false;
    if (hybrid_ != nullptr) {
      // Report the links the flagged segment actually serialized on; the
      // engine promotes its flow here (suspending the sender and syncing
      // the receiver) before this — now stale — segment is delivered.
      hybrid_->on_trace(*this, pkt->inner,
                        net::PacketPool::of(sim_).cold(*pkt).trace, trace_port);
    }
  }

  if (reorder_ && pkt->payload > 0) {
    reorder_->offer(std::move(pkt));
  } else {
    deliver_to_vm(std::move(pkt));
  }
}

void Hypervisor::deliver_to_vm(net::PacketPtr pkt) {
  if (auto* fr = telemetry::flight()) {
    fr->on_vm_delivery(pkt->uid,
                       {pkt->inner.src_ip, pkt->inner.dst_ip,
                        pkt->inner.src_port, pkt->inner.dst_port},
                       pkt->tcp.seq, pkt->payload, pkt->ecn.ce,
                       reorder_ != nullptr || policy_->requires_reassembly(),
                       sim_.now());
  }
  const net::FiveTuple key = pkt->inner.reversed();
  transport::TcpEndpoint** ep = endpoints_.find(key);
  if (ep == nullptr) {
    if (pkt->payload == 0) {
      ++stats_.no_endpoint_drops;  // stray ACK for a finished endpoint
      return;
    }
    // First packet of an inbound flow: the "listening" VM stack spins up a
    // receiver (connection setup is not modeled; see DESIGN.md).
    auto rx = std::make_unique<transport::TcpReceiver>(*this, key, cfg_.tcp);
    transport::TcpReceiver* raw = rx.get();
    owned_receivers_.push_back(std::move(rx));
    endpoints_[key] = raw;
    if (on_new_receiver) on_new_receiver(*raw, pkt->inner);
    raw->on_packet(std::move(pkt));
    return;
  }
  (*ep)->on_packet(std::move(pkt));
}

}  // namespace clove::overlay
