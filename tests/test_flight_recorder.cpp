// Tests for the fabric flight recorder: hook-level unit tests of journey
// tracking and the four invariant auditors, plus end-to-end runs through the
// experiment harness that reconstruct per-packet paths and prove the audits
// hold (or, for Presto without reassembly, correctly fail) on real schemes.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "sim/time.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/scope.hpp"
#include "workload/client_server.hpp"

namespace clove::telemetry {
namespace {

FlightConfig full_cfg() {
  FlightConfig cfg;
  cfg.mode = FlightMode::kFull;
  return cfg;
}

FlightFlowKey flow_a() { return {0x0a000001, 0x0a000002, 5000, 80}; }

/// Drive one data packet through pick -> leaf -> spine -> leaf -> delivery.
void run_journey(FlightRecorder& fr, std::uint64_t uid, std::uint64_t seq,
                 std::uint32_t flowlet, sim::Time t0,
                 const FlightFlowKey& flow = flow_a()) {
  fr.on_pick(uid, 100, "h1", flow, 0x0a000002, 40000 + flowlet, flowlet, "wrr",
             0.5, seq, 1000, t0);
  fr.on_hop(uid, 0, "L1", 0, 4, 30000, false, t0 + 1000);
  fr.on_hop(uid, 2, "S1", 0, 1, 0, false, t0 + 2000);
  fr.on_hop(uid, 1, "L2", 4, 1, 12000, true, t0 + 3000);
  fr.on_deliver(uid, 101, "h5", false, t0 + 4000);
}

TEST(FlightRecorder, JourneyReconstructsFullPath) {
  FlightRecorder fr(full_cfg());
  run_journey(fr, 7, 0, 1, 1000);

  const Journey* j = fr.find_journey(7);
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->outcome, JourneyOutcome::kDelivered);
  EXPECT_TRUE(j->full_path());
  ASSERT_EQ(j->n_hops, 3);
  EXPECT_EQ(j->via(), 2u);  // the spine hop distinguishes the path
  EXPECT_EQ(j->hops[0].node, 0u);
  EXPECT_EQ(j->hops[1].queue_bytes, 0);
  EXPECT_TRUE(j->hops[2].ecn_marked);
  EXPECT_EQ(j->end_node, 101u);
  EXPECT_EQ(fr.delivered(), 1u);
  EXPECT_EQ(fr.live_journeys(), 0u);

  EXPECT_EQ(fr.node_name(2), "S1");
  EXPECT_EQ(fr.node_name(99), "n99");  // never seen -> synthesized

  FlightSummary s = fr.summary(10'000);
  EXPECT_EQ(s.full_paths, 1u);
  EXPECT_DOUBLE_EQ(s.reconstruction_rate(), 1.0);
  EXPECT_EQ(s.audit.total(), 0u);
}

TEST(FlightRecorder, DropRecordsOutcomeAndSatisfiesConservation) {
  FlightRecorder fr(full_cfg());
  fr.on_pick(1, 100, "h1", flow_a(), 0x0a000002, 40000, 1, "wrr", 0.5, 0, 1000,
             0);
  fr.on_hop(1, 0, "L1", 0, 4, 90000, false, 1000);
  fr.on_drop(1, 0, "L1", JourneyOutcome::kDropOverflow, 2000);

  const Journey* j = fr.find_journey(1);
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->outcome, JourneyOutcome::kDropOverflow);
  EXPECT_EQ(j->end_node, 0u);
  // A properly accounted drop is not a conservation violation.
  EXPECT_EQ(fr.audit_conservation(1 * sim::kSecond), 0u);
}

TEST(FlightRecorder, ConservationAuditFlagsVanishedPacket) {
  FlightRecorder fr(full_cfg());
  fr.set_fail_handler([](const char*, const std::string&) {});
  fr.on_pick(5, 100, "h1", flow_a(), 0x0a000002, 40000, 1, "wrr", 0.5, 0, 1000,
             0);
  fr.on_hop(5, 0, "L1", 0, 4, 0, false, 1000);
  // Still within the grace window: not a violation yet.
  EXPECT_EQ(fr.audit_conservation(50 * sim::kMillisecond), 0u);
  // Idle past the grace window: flagged exactly once (idempotent).
  EXPECT_EQ(fr.audit_conservation(200 * sim::kMillisecond), 1u);
  EXPECT_EQ(fr.audit_conservation(300 * sim::kMillisecond), 0u);
  EXPECT_EQ(fr.audit().conservation, 1u);
}

TEST(FlightRecorder, FlowletReorderAuditFlagsArrivalInversion) {
  FlightRecorder fr(full_cfg());
  fr.set_fail_handler([](const char*, const std::string&) {});
  const FlightFlowKey f = flow_a();
  // Two sends of the same flowlet...
  fr.on_pick(1, 100, "h1", f, 0x0a000002, 40000, 3, "wrr", 0.5, 0, 1000, 0);
  fr.on_pick(2, 100, "h1", f, 0x0a000002, 40000, 3, "wrr", 0.5, 1000, 1000,
             100);
  // ...arriving in the opposite order. One FIFO path per flowlet makes that
  // impossible in a correct fabric, so the auditor must fire.
  fr.on_deliver(2, 101, "h5", false, 5000);
  fr.on_deliver(1, 101, "h5", false, 6000);
  EXPECT_EQ(fr.audit().flowlet_reorder, 1u);
  EXPECT_EQ(fr.audit().vm_reorder, 0u);  // never reached the VM boundary
}

TEST(FlightRecorder, VmReorderAuditFlagsSendOrderInversion) {
  FlightRecorder fr(full_cfg());
  fr.set_fail_handler([](const char*, const std::string&) {});
  const FlightFlowKey f = flow_a();
  // Distinct flowlets (a path switch), so fabric arrival order is free to
  // invert — only the VM boundary must still see send order.
  fr.on_pick(1, 100, "h1", f, 0x0a000002, 40000, 2, "wrr", 0.5, 0, 1000, 0);
  fr.on_pick(2, 100, "h1", f, 0x0a000002, 40001, 3, "wrr", 0.5, 1000, 1000,
             100);
  fr.on_deliver(2, 101, "h5", false, 5000);
  fr.on_deliver(1, 101, "h5", false, 6000);
  EXPECT_EQ(fr.audit().flowlet_reorder, 0u);

  // VM sees send #2 then send #1: a reassembly failure.
  fr.on_vm_delivery(2, f, 1000, 1000, false, /*ordering_expected=*/true,
                    7000);
  fr.on_vm_delivery(1, f, 0, 1000, false, /*ordering_expected=*/true, 8000);
  EXPECT_EQ(fr.audit().vm_reorder, 1u);
}

TEST(FlightRecorder, RetransmissionsExemptFromOrderingAudits) {
  FlightRecorder fr(full_cfg());
  fr.set_fail_handler([](const char*, const std::string&) {});
  const FlightFlowKey f = flow_a();
  fr.on_pick(1, 100, "h1", f, 0x0a000002, 40000, 1, "wrr", 0.5, 0, 1000, 0);
  fr.on_pick(2, 100, "h1", f, 0x0a000002, 40000, 1, "wrr", 0.5, 1000, 1000,
             100);
  // Same seq 0 again: an RTO retransmission — old seq, new send index.
  fr.on_pick(3, 100, "h1", f, 0x0a000002, 40000, 1, "wrr", 0.5, 0, 1000, 200);
  fr.on_deliver(1, 101, "h5", false, 5000);
  fr.on_deliver(2, 101, "h5", false, 6000);
  fr.on_deliver(3, 101, "h5", false, 7000);

  const Journey* rtx = fr.find_journey(3);
  ASSERT_NE(rtx, nullptr);
  EXPECT_TRUE(rtx->is_rtx);
  EXPECT_FALSE(fr.find_journey(2)->is_rtx);

  // The retransmit crosses the VM boundary first (a reassembly buffer may
  // release it ahead of data buffered behind the gap it filled). Loss
  // recovery legitimately looks like this, so no violation.
  fr.on_vm_delivery(3, f, 0, 1000, false, /*ordering_expected=*/true, 8000);
  fr.on_vm_delivery(1, f, 0, 1000, false, /*ordering_expected=*/true, 8100);
  fr.on_vm_delivery(2, f, 1000, 1000, false, /*ordering_expected=*/true,
                    8200);
  EXPECT_EQ(fr.audit().total(), 0u);
}

TEST(FlightRecorder, ReassemblyFlushAmnestiesInFlightStragglers) {
  FlightRecorder fr(full_cfg());
  fr.set_fail_handler([](const char*, const std::string&) {});
  const FlightFlowKey f = flow_a();
  // Send #1 takes a slow path; #2 and #3 overtake it and the reassembly
  // buffer gives up on the gap (forced flush) and releases them.
  fr.on_pick(1, 100, "h1", f, 0x0a000002, 40000, 1, "wrr", 0.5, 0, 1000, 0);
  fr.on_pick(2, 100, "h1", f, 0x0a000002, 40001, 2, "wrr", 0.5, 1000, 1000,
             100);
  fr.on_pick(3, 100, "h1", f, 0x0a000002, 40001, 2, "wrr", 0.5, 2000, 1000,
             200);
  fr.on_deliver(2, 101, "h5", false, 5000);
  fr.on_deliver(3, 101, "h5", false, 5100);
  fr.on_reassembly_flush(f);
  fr.on_vm_delivery(2, f, 1000, 1000, false, /*ordering_expected=*/true,
                    6000);
  fr.on_vm_delivery(3, f, 2000, 1000, false, /*ordering_expected=*/true,
                    6100);
  // The straggler crosses the VM boundary late: designed aftermath of the
  // flush, not a reassembly bug.
  fr.on_deliver(1, 101, "h5", false, 7000);
  fr.on_vm_delivery(1, f, 0, 1000, false, /*ordering_expected=*/true, 7100);
  EXPECT_EQ(fr.audit().vm_reorder, 0u);

  // A NEW send issued after the flush gets no amnesty: an inversion among
  // post-flush sends is a real reassembly failure.
  fr.on_pick(4, 100, "h1", f, 0x0a000002, 40002, 3, "wrr", 0.5, 3000, 1000,
             8000);
  fr.on_pick(5, 100, "h1", f, 0x0a000002, 40003, 4, "wrr", 0.5, 4000, 1000,
             8100);
  fr.on_deliver(4, 101, "h5", false, 9000);
  fr.on_deliver(5, 101, "h5", false, 9100);
  fr.on_vm_delivery(5, f, 4000, 1000, false, /*ordering_expected=*/true,
                    9200);
  fr.on_vm_delivery(4, f, 3000, 1000, false, /*ordering_expected=*/true,
                    9300);
  EXPECT_EQ(fr.audit().vm_reorder, 1u);
}

TEST(FlightRecorder, VmAuditOnlyArmsWhereOrderingIsPromised) {
  // Flowlet schemes deliver straight to the VM with no reassembly; a
  // cross-flowlet overtake at the boundary is legal there, so the same
  // inversion that fires under ordering_expected=true must stay silent.
  FlightRecorder fr(full_cfg());
  fr.set_fail_handler([](const char*, const std::string&) {});
  const FlightFlowKey f = flow_a();
  fr.on_pick(1, 100, "h1", f, 0x0a000002, 40000, 2, "wrr", 0.5, 0, 1000, 0);
  fr.on_pick(2, 100, "h1", f, 0x0a000002, 40001, 3, "wrr", 0.5, 1000, 1000,
             100);
  fr.on_deliver(2, 101, "h5", false, 5000);
  fr.on_deliver(1, 101, "h5", false, 6000);
  fr.on_vm_delivery(2, f, 1000, 1000, false, /*ordering_expected=*/false,
                    7000);
  fr.on_vm_delivery(1, f, 0, 1000, false, /*ordering_expected=*/false, 8000);
  EXPECT_EQ(fr.audit().vm_reorder, 0u);
  // The staged send indices were consumed, not left to leak.
  EXPECT_EQ(fr.pending_vm(), 0u);
}

TEST(FlightRecorder, RouteChangeAmnestiesBothOrderingAudits) {
  // Sends #1 and #2 ride flowlet 1's path; a route recompute then moves the
  // flowlet, so their late/inverted arrivals are legal aftermath for both
  // the within-flowlet and the VM-boundary audit.
  FlightRecorder fr(full_cfg());
  fr.set_fail_handler([](const char*, const std::string&) {});
  const FlightFlowKey f = flow_a();
  fr.on_pick(1, 100, "h1", f, 0x0a000002, 40000, 1, "wrr", 0.5, 0, 1000, 0);
  fr.on_pick(2, 100, "h1", f, 0x0a000002, 40000, 1, "wrr", 0.5, 1000, 1000,
             100);
  fr.on_route_change();
  fr.on_deliver(2, 101, "h5", false, 5000);
  fr.on_deliver(1, 101, "h5", false, 6000);
  EXPECT_EQ(fr.audit().flowlet_reorder, 0u);
  fr.on_vm_delivery(2, f, 1000, 1000, false, /*ordering_expected=*/true,
                    7000);
  fr.on_vm_delivery(1, f, 0, 1000, false, /*ordering_expected=*/true, 8000);
  EXPECT_EQ(fr.audit().vm_reorder, 0u);

  // Post-recompute sends regain full protection on both audits.
  fr.on_pick(3, 100, "h1", f, 0x0a000002, 40000, 1, "wrr", 0.5, 2000, 1000,
             9000);
  fr.on_pick(4, 100, "h1", f, 0x0a000002, 40000, 1, "wrr", 0.5, 3000, 1000,
             9100);
  fr.on_deliver(4, 101, "h5", false, 9500);
  fr.on_deliver(3, 101, "h5", false, 9600);
  EXPECT_EQ(fr.audit().flowlet_reorder, 1u);
}

TEST(FlightRecorder, MidFlowletPortRepinStartsNewOrderingSegment) {
  // When a flowlet's path vanishes from the discovered set the policy
  // legally re-pins the live flowlet to a new port; old-port and new-port
  // packets then ride different FIFO queues, so their interleaved arrivals
  // are not inversions — ordering is only promised per (flowlet, port).
  FlightRecorder fr(full_cfg());
  fr.set_fail_handler([](const char*, const std::string&) {});
  const FlightFlowKey f = flow_a();
  fr.on_pick(1, 100, "h1", f, 0x0a000002, 40000, 1, "wrr", 0.5, 0, 1000, 0);
  fr.on_pick(2, 100, "h1", f, 0x0a000002, 40000, 1, "wrr", 0.5, 1000, 1000,
             100);
  // Same flowlet id, new port: the re-pin.
  fr.on_pick(3, 100, "h1", f, 0x0a000002, 40007, 1, "wrr", 0.5, 2000, 1000,
             200);
  // New-port packet races ahead of the old-port pair.
  fr.on_deliver(3, 101, "h5", false, 4000);
  fr.on_deliver(1, 101, "h5", false, 5000);
  fr.on_deliver(2, 101, "h5", false, 6000);
  EXPECT_EQ(fr.audit().flowlet_reorder, 0u);

  // An inversion WITHIN one port segment still fires.
  fr.on_pick(4, 100, "h1", f, 0x0a000002, 40007, 1, "wrr", 0.5, 3000, 1000,
             7000);
  fr.on_pick(5, 100, "h1", f, 0x0a000002, 40007, 1, "wrr", 0.5, 4000, 1000,
             7100);
  fr.on_deliver(5, 101, "h5", false, 8000);
  fr.on_deliver(4, 101, "h5", false, 9000);
  EXPECT_EQ(fr.audit().flowlet_reorder, 1u);
}

TEST(FlightRecorder, EcnMaskAudit) {
  FlightRecorder fr(full_cfg());
  fr.set_fail_handler([](const char*, const std::string&) {});
  // ECE surfaced while some path is still clean: the §3.2 invariant broke.
  fr.on_ecn_to_vm(false);
  EXPECT_EQ(fr.audit().ecn_mask, 1u);
  // All paths congested: forging ECE to the guest is the designed behavior.
  fr.on_ecn_to_vm(true);
  EXPECT_EQ(fr.audit().ecn_mask, 1u);
  // Inner CE leaking through the hypervisor to the VM is always a violation.
  fr.on_vm_delivery(9, flow_a(), 0, 1000, /*inner_ce=*/true,
                    /*ordering_expected=*/false, 0);
  EXPECT_EQ(fr.audit().ecn_mask, 2u);
}

TEST(FlightRecorder, FailHandlerReceivesViolations) {
  FlightRecorder fr(full_cfg());
  std::vector<std::pair<std::string, std::string>> seen;
  fr.set_fail_handler([&](const char* auditor, const std::string& detail) {
    seen.emplace_back(auditor, detail);
  });
  fr.on_ecn_to_vm(false);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, "ecn_mask");
  EXPECT_FALSE(seen[0].second.empty());
}

TEST(FlightRecorder, SampledModeKeepsEveryNthJourney) {
  FlightConfig cfg;
  cfg.mode = FlightMode::kSampled;
  cfg.sample_every = 8;
  FlightRecorder fr(cfg);
  EXPECT_TRUE(fr.wants(0));
  EXPECT_FALSE(fr.wants(3));
  EXPECT_TRUE(fr.wants(8));

  for (std::uint64_t uid = 1; uid <= 16; ++uid) {
    fr.on_pick(uid, 100, "h1", flow_a(), 0x0a000002, 40000, 1, "wrr", 0.5,
               (uid - 1) * 1000, 1000, uid * 100);
  }
  // Flow accounting covers every packet; journeys only the sampled ones.
  EXPECT_EQ(fr.packets_seen(), 16u);
  EXPECT_EQ(fr.journeys_started(), 2u);  // uids 8 and 16
}

TEST(FlightRecorder, JourneyRingIsBounded) {
  FlightConfig cfg = full_cfg();
  cfg.journey_ring = 4;
  FlightRecorder fr(cfg);
  for (std::uint64_t uid = 1; uid <= 6; ++uid) {
    run_journey(fr, uid, (uid - 1) * 1000, 1, uid * 10'000);
  }
  EXPECT_EQ(fr.journeys().size(), 4u);
  EXPECT_EQ(fr.find_journey(1), nullptr);  // evicted
  ASSERT_NE(fr.find_journey(6), nullptr);
  EXPECT_EQ(fr.find_journey(6)->seq, 5000u);
}

TEST(FlightRecorder, ResetForgetsEverything) {
  FlightRecorder fr(full_cfg());
  fr.set_fail_handler([](const char*, const std::string&) {});
  run_journey(fr, 1, 0, 1, 0);
  fr.on_ecn_to_vm(false);
  fr.reset();
  EXPECT_EQ(fr.packets_seen(), 0u);
  EXPECT_EQ(fr.delivered(), 0u);
  EXPECT_EQ(fr.audit().total(), 0u);
  EXPECT_TRUE(fr.journeys().empty());
  EXPECT_EQ(fr.find_journey(1), nullptr);
}

TEST(FlightRecorder, SummarySharesSplitUsageByTime) {
  FlightRecorder fr(full_cfg());
  run_journey(fr, 1, 0, 1, 0);
  const FlightSummary one = fr.summary(sim::milliseconds(1));
  EXPECT_EQ(one.path_names, std::vector<std::string>{"S1"});
  ASSERT_EQ(one.shares().size(), 1u);
  EXPECT_DOUBLE_EQ(one.shares()[0].bytes_pct, 100.0);

  // Two spines over two 100 ms buckets: S1 carries most bytes in the first,
  // S2 in the second.
  const sim::Time t1 = sim::milliseconds(100);
  FlightSummary fs;
  fs.paths = {{.via = 2}, {.via = 3}};
  fs.usage = {{.via = 2, .bucket_start = 0, .bytes = 300, .flowlets = 1},
              {.via = 3, .bucket_start = 0, .bytes = 100, .flowlets = 1},
              {.via = 2, .bucket_start = t1, .bytes = 100, .flowlets = 0},
              {.via = 3, .bucket_start = t1, .bytes = 300, .flowlets = 2}};
  const auto before = fs.shares(0, t1);
  ASSERT_EQ(before.size(), 2u);
  EXPECT_DOUBLE_EQ(before[0].bytes_pct, 75.0);
  EXPECT_DOUBLE_EQ(before[1].flowlets_pct, 50.0);
  const auto after = fs.shares(t1);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_DOUBLE_EQ(after[1].bytes_pct, 75.0);
  EXPECT_DOUBLE_EQ(after[0].flowlets_pct, 0.0);
  const auto all = fs.shares();
  EXPECT_DOUBLE_EQ(all[0].bytes_pct, 50.0);
  EXPECT_DOUBLE_EQ(all[1].flowlets_pct, 75.0);
  EXPECT_TRUE(fs.shares(2 * t1).empty());
}

// ---------------------------------------------------------------------------
// End-to-end: the recorder riding along real experiment-harness runs.
// ---------------------------------------------------------------------------

harness::ExperimentConfig small(harness::Scheme s) {
  harness::ExperimentConfig cfg = harness::make_ns2_profile();
  cfg.scheme = s;
  cfg.topo.hosts_per_leaf = 4;
  cfg.discovery.probe_timeout = 5 * sim::kMillisecond;
  cfg.traffic_start = 15 * sim::kMillisecond;
  return cfg;
}

workload::ClientServerConfig small_wl() {
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 4;
  wl.conns_per_client = 1;
  wl.load = 0.5;
  wl.sizes = workload::FlowSizeDistribution::fixed(400'000);
  return wl;
}

/// Install a flight-enabled scope for one harness run and collect violations.
struct FlightFixture {
  explicit FlightFixture(FlightMode mode) {
    ScopeSettings st;
    st.enabled = true;
    st.flight.mode = mode;
    scope = std::make_unique<Scope>(st);
    scope->flight_recorder()->set_fail_handler(
        [this](const char* auditor, const std::string& detail) {
          violations.emplace_back(std::string(auditor) + ": " + detail);
        });
    guard = std::make_unique<ScopeGuard>(*scope);
  }

  std::unique_ptr<Scope> scope;
  std::unique_ptr<ScopeGuard> guard;
  std::vector<std::string> violations;
};

TEST(FlightRecorderE2E, FullModeReconstructsDeliveredPaths) {
  FlightFixture fx(FlightMode::kFull);
  auto r = run_fct_experiment(small(harness::Scheme::kCloveEcn), small_wl());

  EXPECT_GT(r.flight.delivered, 1000u);
  // Acceptance bar: >=99% of delivered packets have a complete hop chain.
  EXPECT_GE(r.flight.reconstruction_rate(), 0.99);
  EXPECT_GT(r.flight.flowlets, 0u);
  EXPECT_FALSE(r.flight.paths.empty());
  EXPECT_EQ(r.flight.audit.total(), 0u)
      << (fx.violations.empty() ? "" : fx.violations.front());

  // The raw provenance survives the run for post-mortem export.
  FlightRecorder* fr = fx.scope->flight_recorder();
  ASSERT_NE(fr, nullptr);
  EXPECT_NE(fr->journeys_jsonl().find("\"hops\""), std::string::npos);
  EXPECT_NE(fr->flows_jsonl().find("\"flowlet\""), std::string::npos);
}

TEST(FlightRecorderE2E, AuditorsCleanAcrossSchemes) {
  using harness::Scheme;
  for (Scheme s : {Scheme::kEcmp, Scheme::kEdgeFlowlet, Scheme::kCloveEcn,
                   Scheme::kCloveInt}) {
    FlightFixture fx(FlightMode::kFull);
    auto r = run_fct_experiment(small(s), small_wl());
    EXPECT_GT(r.flight.delivered, 0u) << harness::scheme_name(s);
    EXPECT_EQ(r.flight.audit.total(), 0u)
        << harness::scheme_name(s) << ": "
        << (fx.violations.empty() ? "" : fx.violations.front());
  }
}

TEST(FlightRecorderE2E, PrestoReassemblyShieldsVmFromSprayReorder) {
  // Presto sprays 64KB flowcells round-robin, reordering heavily in-fabric;
  // the destination vswitch's reassembly must hide that from the VM.
  // Flowcells only cross in flight when paths queue unequally, so make the
  // fabric the bottleneck (scaled to the 4-host mini-testbed) and fail one
  // S2-L2 parallel link — the paper's asymmetry scenario.
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 3;
  wl.conns_per_client = 1;
  wl.load = 0.8;
  wl.sizes = workload::FlowSizeDistribution::fixed(2'000'000);
  auto presto_cfg = small(harness::Scheme::kPresto);
  presto_cfg.topo.fabric_gbps = 10.0;
  presto_cfg.asymmetric = true;

  {
    FlightFixture fx(FlightMode::kFull);
    auto r = run_fct_experiment(presto_cfg, wl);
    EXPECT_EQ(r.flight.audit.vm_reorder, 0u)
        << (fx.violations.empty() ? "" : fx.violations.front());
  }
  {
    // Negative control: the same spray with reassembly disabled must trip
    // the VM-boundary auditor — proof the audit detects what it claims to.
    FlightFixture fx(FlightMode::kFull);
    auto cfg = presto_cfg;
    cfg.presto_no_reorder = true;
    auto r = run_fct_experiment(cfg, wl);
    EXPECT_GT(r.flight.audit.vm_reorder, 0u);
  }
}

TEST(FlightRecorderE2E, SampledModeStillAuditsEveryFlow) {
  FlightFixture fx(FlightMode::kSampled);
  auto r = run_fct_experiment(small(harness::Scheme::kEcmp), small_wl());
  EXPECT_GT(r.flight.packets_seen, r.flight.journeys_started);
  EXPECT_GT(r.flight.journeys_started, 0u);
  EXPECT_GT(r.flight.flowlets, 0u);
  EXPECT_EQ(r.flight.audit.total(), 0u)
      << (fx.violations.empty() ? "" : fx.violations.front());
}

}  // namespace
}  // namespace clove::telemetry
