#include "figures.hpp"

#include <cctype>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "bench_common.hpp"
#include "harness/parallel_runner.hpp"
#include "stats/stats.hpp"

namespace clove::bench {
namespace {

using harness::Scheme;
using Kind = Headline::Kind;

/// The fabric's base RTT in this simulator (DESIGN.md); Fig. 6's flowlet
/// gaps are multiples of it.
constexpr sim::Time kRtt = 50 * sim::kMicrosecond;
/// Incast requests per Fig. 7 point.
constexpr int kIncastRequests = 60;

// FaultRecovery's arithmetic (see figures.hpp).
constexpr sim::Time kRecoveryBucket = 50 * sim::kMillisecond;
/// Pre-fault measurement starts after slow-start / discovery warm-up.
constexpr sim::Time kPreFaultStart = 150 * sim::kMillisecond;
/// Fewer mice than this in a bucket means flows are stalled, which is itself
/// a failure to recover.
constexpr int kMinBucketMice = 5;
constexpr double kRecoveredBound = 1.2;

/// The testbed with one S2-L2 link failing mid-run through a fault plan.
/// Routing takes 250 ms to converge (vs the fault plan's 30 ms default):
/// the regime where edge-based recovery earns its keep. Until the fabric
/// reroutes, half of S2's downlink hashes keep pointing into the dead link;
/// the path-health monitor evicts those outer ports within a few keepalive
/// timeouts while ECMP keeps feeding them for the whole window.
harness::ExperimentConfig make_fault_profile() {
  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.discovery.probe_interval = 250 * sim::kMillisecond;
  cfg.clove_congestion_expiry = 20 * sim::kMillisecond;
  cfg.path_health.enabled = true;
  cfg.fault_plan.route_convergence = 250 * sim::kMillisecond;
  cfg.fault_plan.add(400 * sim::kMillisecond, fault::FaultKind::kLinkDown,
                     "L2->S2#0");
  cfg.fault_plan.add(1200 * sim::kMillisecond, fault::FaultKind::kLinkUp,
                     "L2->S2#0");
  cfg.max_sim_time = 2 * sim::kSecond;
  return cfg;
}

bool is_fault_metric(Metric m) {
  return m == Metric::kPreFaultMiceFct || m == Metric::kFaultInflation ||
         m == Metric::kRecovery;
}

std::vector<Series> schemes(std::initializer_list<Scheme> list) {
  std::vector<Series> out;
  for (Scheme s : list) {
    out.push_back(Series{.label = harness::scheme_name(s), .scheme = s});
  }
  return out;
}

/// A4: each scheme under each flow-size distribution.
std::vector<Series> by_workload(std::initializer_list<Scheme> list) {
  std::vector<Series> out;
  for (auto [name, sizes] :
       {std::pair{"web-search", &workload::FlowSizeDistribution::web_search},
        std::pair{"data-mining",
                  &workload::FlowSizeDistribution::data_mining}}) {
    for (Series s : schemes(list)) {
      s.label = std::string(name) + " " + s.label;
      s.sizes = sizes;
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<FigureSpec> make_figures() {
  const std::vector<Series> testbed_schemes =
      schemes({Scheme::kEcmp, Scheme::kEdgeFlowlet, Scheme::kCloveEcn,
               Scheme::kMptcp, Scheme::kPresto});
  const std::vector<TableSpec> avg_s = {{"avg FCT (seconds)", {Metric::kAvg}}};
  const std::vector<TableSpec> avg_p99_s = {
      {"avg and p99 FCT (seconds)", {Metric::kAvg, Metric::kP99}}};
  const std::vector<Headline> fig8_captures = {
      {.kind = Kind::kCapture, .a = "Edge-Flowlet", .b = "ECMP", .c = "CONGA",
       .paper = 0.40, .decimals = 1},
      {.kind = Kind::kCapture, .a = "Clove-ECN", .b = "ECMP", .c = "CONGA",
       .paper = 0.80, .decimals = 1},
      {.kind = Kind::kCapture, .a = "Clove-INT", .b = "ECMP", .c = "CONGA",
       .paper = 0.95, .decimals = 1},
  };
  auto at = [](std::vector<Headline> hs, double x) {
    for (Headline& h : hs) h.x = x;
    return hs;
  };

  return {
      // §5.1: all schemes comparable at low load; at high load ECMP worst,
      // Edge-Flowlet better, Clove-ECN / MPTCP / Presto neck and neck.
      {.name = "fig4b_symmetric",
       .paper_ref = "CoNEXT'17 Clove, Figure 4b",
       .title = "Fig. 4b - symmetric testbed, avg FCT vs load",
       .series = testbed_schemes,
       .panels = {{.xs = {0.2, 0.4, 0.6, 0.8, 0.9},
                   .headlines = {{.a = "ECMP", .b = "Clove-ECN", .x = 0.9,
                                  .paper = 2.5, .paper_x = 0.8},
                                 {.a = "Edge-Flowlet", .b = "Clove-ECN",
                                  .x = 0.9, .paper = 1.8, .paper_x = 0.8}}}},
       .tables = avg_s},
      // §5.2, one 40G S2-L2 link failed: ECMP collapses past ~50 % load,
      // Presto (ideal static weights) lags, Clove-ECN leads.
      {.name = "fig4c_asymmetric",
       .paper_ref = "CoNEXT'17 Clove, Figure 4c",
       .title = "Fig. 4c - asymmetric testbed, avg FCT vs load",
       .series = testbed_schemes,
       .panels = {{.asymmetric = true,
                   .xs = {0.2, 0.4, 0.5, 0.6, 0.7, 0.8},
                   .headlines = {{.a = "ECMP", .b = "Clove-ECN", .x = 0.8,
                                  .paper = 7.5},
                                 {.a = "ECMP", .b = "Edge-Flowlet", .x = 0.8,
                                  .paper = 4.2},
                                 {.a = "Edge-Flowlet", .b = "Clove-ECN",
                                  .x = 0.8, .paper = 2.0},
                                 {.a = "Presto", .b = "Clove-ECN", .x = 0.7,
                                  .paper = 3.8},
                                 {.a = "ECMP", .b = "Presto", .x = 0.7,
                                  .paper = 1.8}}}},
       .tables = avg_s},
      // §5.2 breakdown: at the tail MPTCP degrades (static subflow-to-path
      // mapping) while Clove-ECN stays ahead.
      {.name = "fig5_breakdown",
       .paper_ref = "CoNEXT'17 Clove, Figures 5a, 5b, 5c",
       .title =
           "Fig. 5 - FCT breakdown (mice avg / elephant avg / p99), asymmetric",
       .series = schemes({Scheme::kEcmp, Scheme::kPresto,
                          Scheme::kEdgeFlowlet, Scheme::kMptcp,
                          Scheme::kCloveEcn}),
       .panels = {{.asymmetric = true,
                   .xs = {0.3, 0.5, 0.6, 0.7, 0.8},
                   .headlines = {{.metric = Metric::kP99, .a = "MPTCP",
                                  .b = "Clove-ECN", .x = 0.6, .paper = 2.7}}}},
       .tables = {{"Fig. 5a - avg FCT, flows < 100 KB (seconds)",
                   {Metric::kMiceAvg}},
                  {"Fig. 5b - avg FCT, flows > 10 MB (seconds)",
                   {Metric::kElephantAvg}},
                  {"Fig. 5c - 99th percentile FCT (seconds)",
                   {Metric::kP99}}}},
      // Too small a gap sprays packets (reordering), too large a gap
      // collides elephants, too high an ECN threshold detects late.
      {.name = "fig6_params",
       .paper_ref = "CoNEXT'17 Clove, Figure 6",
       .title = "Fig. 6 - Clove-ECN parameter sensitivity, asymmetric",
       .series = {{.label = "Clove-best (1*RTT, 20pkts)",
                   .flowlet_gap = kRtt, .ecn_threshold_pkts = 20},
                  {.label = "Clove (0.2*RTT, 20pkts)",
                   .flowlet_gap = kRtt / 5, .ecn_threshold_pkts = 20},
                  {.label = "Clove (5*RTT, 20pkts)",
                   .flowlet_gap = 5 * kRtt, .ecn_threshold_pkts = 20},
                  {.label = "Clove (1*RTT, 40pkts)",
                   .flowlet_gap = kRtt, .ecn_threshold_pkts = 40}},
       .panels = {{.asymmetric = true,
                   .xs = {0.4, 0.6, 0.8},
                   .headlines = at({{.a = "Clove (0.2*RTT, 20pkts)",
                                     .b = "Clove-best (1*RTT, 20pkts)",
                                     .paper = 5.0},
                                    {.a = "Clove (5*RTT, 20pkts)",
                                     .b = "Clove-best (1*RTT, 20pkts)"},
                                    {.a = "Clove (1*RTT, 40pkts)",
                                     .b = "Clove-best (1*RTT, 20pkts)",
                                     .paper = 4.0}},
                                   0.8)}},
       .tables = avg_s},
      // §5.3 incast: MPTCP's N subflows ramp up together and multiply the
      // burst pressure on the client access link.
      {.name = "fig7_incast",
       .paper_ref = "CoNEXT'17 Clove, Figure 7",
       .title = "Fig. 7 - incast goodput vs request fan-in",
       .axis = XAxis::kFanIn,
       .series = schemes(
           {Scheme::kCloveEcn, Scheme::kEdgeFlowlet, Scheme::kMptcp}),
       .panels = {{.xs = {1, 3, 5, 7, 9, 11, 13, 15},
                   .headlines = {{.metric = Metric::kGoodput,
                                  .a = "Clove-ECN", .b = "MPTCP", .x = 9,
                                  .paper = 1.9, .paper_x = 10},
                                 {.metric = Metric::kGoodput,
                                  .a = "Clove-ECN", .b = "MPTCP", .x = 15,
                                  .paper = 3.4, .paper_x = 16}}}},
       .tables = {{"client goodput (Gb/s)", {Metric::kGoodput}, 2}}},
      // §6: Edge-Flowlet captures ~40 % of the ECMP->CONGA gain, Clove-ECN
      // ~80 %, Clove-INT ~95 %.
      {.name = "fig8_sims",
       .paper_ref = "CoNEXT'17 Clove, Figures 8a (symmetric), 8b (asymmetric)",
       .title = "Fig. 8 - simulation comparison incl. CONGA / Clove-INT",
       .profile = harness::make_ns2_profile,
       .series = schemes({Scheme::kEcmp, Scheme::kEdgeFlowlet,
                          Scheme::kCloveEcn, Scheme::kCloveInt,
                          Scheme::kConga}),
       .panels = {{.xs = {0.3, 0.5, 0.7, 0.9},
                   .headlines = at(fig8_captures, 0.9),
                   .title = "Fig. 8a - symmetric topology"},
                  {.asymmetric = true,
                   .xs = {0.3, 0.5, 0.6, 0.7},
                   .headlines = at(fig8_captures, 0.7),
                   .title = "Fig. 8b - asymmetric topology"}},
       .tables = {{"avg FCT (milliseconds)", {Metric::kAvg}, 1, 1000.0}}},
      // §6: Clove-ECN's mice CDF sits between ECMP's and CONGA's.
      {.name = "fig9_cdf",
       .paper_ref = "CoNEXT'17 Clove, Figure 9",
       .title = "Fig. 9 - CDF of mice FCTs @70% load, asymmetric",
       .profile = harness::make_ns2_profile,
       .series = schemes({Scheme::kEcmp, Scheme::kCloveEcn, Scheme::kConga}),
       .panels = {{.asymmetric = true,
                   .xs = {0.7},
                   .headlines = {{.kind = Kind::kCapture,
                                  .metric = Metric::kMiceP99,
                                  .a = "Clove-ECN", .b = "ECMP", .c = "CONGA",
                                  .x = 0.7, .paper = 0.80, .decimals = 0}}}},
       .tables = {{"mice FCT CDF (seconds at each percentile)",
                   {Metric::kMiceCdf}, 4}}},
      // A1 (§8): where should flowlets live? Both flowlet schemes adapt
      // implicitly; Clove's explicit feedback should still lead.
      {.name = "ablation_letflow",
       .paper_ref = "CoNEXT'17 Clove §8 (LetFlow discussion)",
       .title = "Ablation A1 - edge flowlets vs in-switch flowlets (asymmetric)",
       .profile = harness::make_ns2_profile,
       .series = schemes({Scheme::kEcmp, Scheme::kEdgeFlowlet,
                          Scheme::kLetFlow, Scheme::kCloveEcn}),
       .panels = {{.asymmetric = true, .xs = {0.3, 0.5, 0.7}}},
       .tables = avg_s},
      // A2: the weight reduction factor ("by a third", §3.2) and the ECN
      // relay interval ("half the RTT", §3.2/§4).
      {.name = "ablation_weights",
       .paper_ref = "CoNEXT'17 Clove §3.2/§4 design choices",
       .title = "Ablation A2 - Clove-ECN reduce factor & ECN relay interval",
       .series = {{.label = "reduce factor 0.167", .reduce_factor = 1.0 / 6.0},
                  {.label = "reduce factor 0.333", .reduce_factor = 1.0 / 3.0},
                  {.label = "reduce factor 0.500", .reduce_factor = 1.0 / 2.0},
                  {.label = "reduce factor 0.900", .reduce_factor = 0.9},
                  {.label = "relay 10.000us",
                   .relay_interval = 10 * sim::kMicrosecond},
                  {.label = "relay 25.000us",
                   .relay_interval = 25 * sim::kMicrosecond},
                  {.label = "relay 50.000us",
                   .relay_interval = 50 * sim::kMicrosecond},
                  {.label = "relay 200.000us",
                   .relay_interval = 200 * sim::kMicrosecond},
                  {.label = "relay 1.000ms",
                   .relay_interval = 1000 * sim::kMicrosecond}},
       .panels = {{.asymmetric = true, .xs = {0.7}}},
       .tables = avg_p99_s},
      // A3 (§7 extensions): the latency signal and five-tuple rewriting
      // instead of STT encapsulation.
      {.name = "ablation_extensions",
       .paper_ref = "CoNEXT'17 Clove §7",
       .title = "Ablation A3 - §7 extensions (latency signal, non-overlay)",
       .series = {{.label = "Clove-ECN (overlay)"},
                  {.label = "Clove-ECN (non-overlay)", .non_overlay = true},
                  {.label = "Clove-Latency", .scheme = Scheme::kCloveLatency},
                  {.label = "Edge-Flowlet", .scheme = Scheme::kEdgeFlowlet}},
       .panels = {{.asymmetric = true, .xs = {0.3, 0.5, 0.7}}},
       .tables = avg_s},
      // A4: the paper evaluates web-search only; CONGA/Presto also report
      // data-mining, where most bytes sit in a few giant flows and flowlet
      // switching has fewer opportunities.
      {.name = "ablation_workloads",
       .paper_ref = "CoNEXT'17 Clove §5 workload choice",
       .title = "Ablation A4 - workload distribution sensitivity",
       .series = by_workload(
           {Scheme::kEcmp, Scheme::kEdgeFlowlet, Scheme::kCloveEcn}),
       .panels = {{.asymmetric = true, .xs = {0.6}}},
       .tables = avg_p99_s},
      // §5.2 dynamics: ECMP has no edge state to repair, so mice hashed into
      // the blackhole serve the guest's 200 ms min-RTO and it never
      // recovers while the link is down. Flowlet schemes re-roll paths at
      // the next gap; Clove's path-health monitor also evicts the dead
      // outer ports and renormalizes its weights onto the survivors. The
      // scale is pinned so the committed baseline and CI measure the same
      // schedule.
      {.name = "BENCH_fault",
       .paper_ref = "link-failure recovery dynamics (paper §5.2 / Fig. 4c, "
                    "DESIGN.md §8)",
       .title = "Fault recovery: time-to-recover after a mid-run S2-L2 link "
                "failure",
       .profile = make_fault_profile,
       .series = schemes({Scheme::kEcmp, Scheme::kEdgeFlowlet,
                          Scheme::kCloveEcn, Scheme::kCloveInt}),
       .panels = {{.xs = {0.45}}},
       .tables = {{"mice FCT before the failure (ms) and its inflation in "
                   "the blackhole window [fail, fail + convergence)",
                   {Metric::kPreFaultMiceFct, Metric::kFaultInflation},
                   2},
                  {"recovery: ms until every 50 ms bucket of mice arrivals "
                   "is back within 1.2x the pre-fault FCT while the link is "
                   "down (never = still slow when it returns)",
                   {Metric::kRecovery, Metric::kPathEvictions,
                    Metric::kPathReadmissions},
                   0}},
       .scale = harness::BenchScale{
           .jobs_per_conn = 300, .seeds = 1, .conns_per_client = 2},
       .values = {Metric::kPreFaultMiceFct, Metric::kFaultInflation,
                  Metric::kRecovery}},
  };
}

std::string metric_name(Metric m) {
  switch (m) {
    case Metric::kAvg: return "avg FCT";
    case Metric::kMiceAvg: return "mice avg FCT";
    case Metric::kElephantAvg: return "elephant avg FCT";
    case Metric::kP99: return "p99 FCT";
    case Metric::kMiceP99: return "mice p99 FCT";
    case Metric::kMiceCdf: return "mice FCT CDF";
    case Metric::kGoodput: return "goodput";
    case Metric::kPreFaultMiceFct: return "pre-fault mice FCT";
    case Metric::kFaultInflation: return "inflation (x)";
    case Metric::kRecovery: return "recovery";
    case Metric::kPathEvictions: return "evictions";
    case Metric::kPathReadmissions: return "readmissions";
  }
  return "?";
}

/// The row name of an exported value (FigureSpec::values).
std::string metric_key(Metric m) {
  switch (m) {
    case Metric::kAvg: return "avg_fct_s";
    case Metric::kMiceAvg: return "mice_avg_fct_s";
    case Metric::kElephantAvg: return "elephant_avg_fct_s";
    case Metric::kP99: return "p99_fct_s";
    case Metric::kMiceP99: return "mice_p99_fct_s";
    case Metric::kMiceCdf: return "mice_fct_cdf";
    case Metric::kGoodput: return "goodput_gbps";
    case Metric::kPreFaultMiceFct: return "pre_fail_mice_fct_ms";
    case Metric::kFaultInflation: return "fct_inflation_x";
    case Metric::kRecovery: return "recovery_ms";
    case Metric::kPathEvictions: return "path_evictions";
    case Metric::kPathReadmissions: return "path_readmissions";
  }
  return "?";
}

/// A scheme's name as a value-row prefix: "Clove-ECN" -> "clove_ecn".
std::string scheme_key(Scheme s) {
  std::string key = harness::scheme_name(s);
  for (char& c : key) {
    c = c == '-' ? '_' : static_cast<char>(std::tolower(
                             static_cast<unsigned char>(c)));
  }
  return key;
}

/// A folded sweep point: the seeds' pooled result and, for a fault run,
/// their recovery readouts.
struct Folded {
  harness::ExperimentResult run;
  FaultRecovery fault{};
};

double value(const Folded& f, Metric m) {
  const harness::ExperimentResult& r = f.run;
  switch (m) {
    case Metric::kAvg: return r.avg_fct_s;
    case Metric::kMiceAvg: return r.mice_avg_fct_s;
    case Metric::kElephantAvg: return r.elephant_avg_fct_s;
    case Metric::kP99: return r.p99_fct_s;
    case Metric::kMiceP99: return r.mice_p99_fct_s;
    case Metric::kGoodput: return r.goodput_gbps;
    case Metric::kMiceCdf: break;  // a whole distribution, not one value
    case Metric::kPreFaultMiceFct: return f.fault.pre_fct_ms;
    case Metric::kFaultInflation: return f.fault.inflation_x;
    case Metric::kRecovery: return f.fault.recovery_ms;
    case Metric::kPathEvictions: return static_cast<double>(r.path_evictions);
    case Metric::kPathReadmissions:
      return static_cast<double>(r.path_readmissions);
  }
  return 0.0;
}

/// One table cell: `m` of `f`, scaled and rounded; a recovery of -1 reads
/// "never".
std::string cell(const Folded& f, Metric m, const TableSpec& t) {
  const double v = value(f, m);
  if (m == Metric::kRecovery && v < 0.0) return "never";
  return stats::Table::fmt(v * t.unit, t.decimals);
}

/// Row label of an x value in a table.
std::string x_label(XAxis axis, double x) {
  return axis == XAxis::kLoad ? stats::Table::fmt(x * 100, 0)
                              : std::to_string(static_cast<int>(x));
}

/// An x value in running text: "70%" or "fan-in 9".
std::string x_text(XAxis axis, double x) {
  std::string s = axis == XAxis::kLoad ? "" : "fan-in ";
  s += x_label(axis, x);
  if (axis == XAxis::kLoad) s += "%";
  return s;
}

std::size_t series_index(const FigureSpec& spec, const std::string& label) {
  for (std::size_t i = 0; i < spec.series.size(); ++i) {
    if (spec.series[i].label == label) return i;
  }
  throw std::invalid_argument(spec.name + ": headline names unknown series '" +
                              label + "'");
}

std::size_t x_index(const FigureSpec& spec, const Panel& panel, double x) {
  for (std::size_t i = 0; i < panel.xs.size(); ++i) {
    if (panel.xs[i] == x) return i;
  }
  throw std::invalid_argument(spec.name + ": headline x " +
                              x_text(spec.axis, x) + " is not on the axis");
}

struct Resolved {
  std::size_t x;
  std::size_t a;
  std::size_t b;
  std::size_t c;
};

Resolved resolve(const FigureSpec& spec, const Panel& panel,
                 const Headline& h) {
  return {x_index(spec, panel, h.x), series_index(spec, h.a),
          series_index(spec, h.b),
          h.kind == Kind::kCapture ? series_index(spec, h.c) : 0};
}

harness::ExperimentConfig make_config(const FigureSpec& spec,
                                      const Panel& panel, const Series& s) {
  harness::ExperimentConfig cfg = spec.profile();
  cfg.scheme = s.scheme;
  cfg.asymmetric = panel.asymmetric;
  cfg.non_overlay = s.non_overlay;
  if (s.flowlet_gap) cfg.flowlet_gap = *s.flowlet_gap;
  if (s.ecn_threshold_pkts) cfg.ecn_threshold_pkts = *s.ecn_threshold_pkts;
  if (s.reduce_factor) cfg.clove_reduce_factor = *s.reduce_factor;
  if (s.relay_interval) cfg.feedback_relay_interval = *s.relay_interval;
  return cfg;
}

/// One seed of one point. The seed is a fixed function of the seed index,
/// so a point's result does not depend on the thread count or on which
/// other points run.
harness::ExperimentResult run_seed(XAxis axis, harness::ExperimentConfig cfg,
                                   const Series& s, double x, int seed,
                                   const harness::BenchScale& scale) {
  if (axis == XAxis::kFanIn) {
    cfg.seed = static_cast<std::uint64_t>(seed) * 101 + 1;
    workload::IncastConfig ic;
    ic.fanout = static_cast<int>(x);
    ic.total_bytes = 10'000'000;
    ic.requests = kIncastRequests;
    ic.seed = cfg.seed * 13 + 5;
    return harness::run_incast_experiment(cfg, ic);
  }
  cfg.seed = static_cast<std::uint64_t>(seed) * 7919 + 1;
  workload::ClientServerConfig wl;
  wl.load = x;
  wl.jobs_per_conn = scale.jobs_per_conn;
  wl.conns_per_client = scale.conns_per_client;
  if (s.sizes != nullptr) wl.sizes = s.sizes();
  return harness::run_fct_experiment(cfg, wl);
}

/// Fold a point's seeds, in seed order: averages are means of the per-seed
/// averages (recovery too, unless a seed never recovers: then -1), counters
/// are summed, percentiles come from every seed's FCT samples pooled, and
/// the metrics snapshot and flight summary are the last seed's.
Folded fold(std::vector<harness::ExperimentResult>& runs, std::size_t first,
            int seeds, const std::optional<FaultWindow>& window) {
  Folded folded;
  harness::ExperimentResult& out = folded.run;
  out.fct = std::make_shared<stats::FctRecorder>();
  if (window) folded.fault.recovery_ms = 0.0;
  for (int s = 0; s < seeds; ++s) {
    harness::ExperimentResult& r = runs[first + static_cast<std::size_t>(s)];
    if (window) {
      const FaultRecovery f = fault_recovery(r.mice, *window);
      folded.fault.pre_fct_ms += f.pre_fct_ms / seeds;
      folded.fault.inflation_x += f.inflation_x / seeds;
      double& rec = folded.fault.recovery_ms;
      rec = rec < 0.0 || f.recovery_ms < 0.0 ? -1.0
                                              : rec + f.recovery_ms / seeds;
    }
    r.mice = {};
    out.avg_fct_s += r.avg_fct_s / seeds;
    out.mice_avg_fct_s += r.mice_avg_fct_s / seeds;
    out.elephant_avg_fct_s += r.elephant_avg_fct_s / seeds;
    out.goodput_gbps += r.goodput_gbps / seeds;
    out.jobs += r.jobs;
    out.timeouts += r.timeouts;
    out.fast_retransmits += r.fast_retransmits;
    out.ecn_marks += r.ecn_marks;
    out.drops += r.drops;
    out.events += r.events;
    out.path_evictions += r.path_evictions;
    out.path_readmissions += r.path_readmissions;
    if (r.queue_hwm > out.queue_hwm) out.queue_hwm = r.queue_hwm;
    if (r.fct) out.fct->merge(*r.fct);
    r.fct.reset();  // pooled now; frees the samples while the sweep folds
    out.metrics = std::move(r.metrics);
    out.flight = std::move(r.flight);
  }
  out.p99_fct_s = out.fct->all().percentile(99);
  out.mice_p99_fct_s = out.fct->mice().percentile(99);
  return folded;
}

/// Fabric-wide aggregates of the registry snapshot: compact enough to embed
/// per point, detailed enough to cross-check the legacy counters.
telemetry::Json metrics_digest(const telemetry::MetricsSnapshot& m) {
  telemetry::Json d = telemetry::Json::object();
  for (const char* metric :
       {"link.tx_packets", "link.tx_bytes", "link.drops_overflow",
        "link.ecn_marks", "hyp.encapped", "hyp.feedback_received",
        "hyp.ce_intercepted", "hyp.forged_ece", "tcp.timeouts",
        "tcp.fast_retransmits", "tcp.ecn_reductions"}) {
    d.set(metric, telemetry::Json(m.sum_over(metric)));
  }
  if (const auto* rtt = m.find("tcp.rtt_us")) {
    telemetry::Json h = telemetry::Json::object();
    h.set("count", telemetry::Json(static_cast<double>(rtt->count)));
    h.set("p50", telemetry::Json(rtt->p50));
    h.set("p99", telemetry::Json(rtt->p99));
    d.set("tcp.rtt_us", h);
  }
  return d;
}

/// Record one folded point: an FCT point into `points`, an incast point as
/// a `goodput_gbps` value.
void record(Artifact& artifact, XAxis axis, const harness::ExperimentConfig& cfg,
            const Series& s, double x, const harness::ExperimentResult& r) {
  artifact.note_engine(r.events, r.queue_hwm);
  if (axis == XAxis::kFanIn) {
    artifact.add_value("goodput_gbps", r.goodput_gbps,
                       {{"scheme", harness::scheme_name(cfg.scheme)},
                        {"fanout", x_label(axis, x)}});
    return;
  }
  using telemetry::Json;
  Json p = Json::object();
  p.set("scheme", Json(harness::scheme_name(cfg.scheme)));
  p.set("load", Json(x));
  p.set("asymmetric", Json(cfg.asymmetric));
  p.set("series", Json(s.label));
  p.set("avg_fct_s", Json(r.avg_fct_s));
  p.set("mice_avg_fct_s", Json(r.mice_avg_fct_s));
  p.set("elephant_avg_fct_s", Json(r.elephant_avg_fct_s));
  p.set("p99_fct_s", Json(r.p99_fct_s));
  p.set("jobs", Json(static_cast<double>(r.jobs)));
  p.set("timeouts", Json(static_cast<double>(r.timeouts)));
  p.set("fast_retransmits", Json(static_cast<double>(r.fast_retransmits)));
  p.set("ecn_marks", Json(static_cast<double>(r.ecn_marks)));
  p.set("drops", Json(static_cast<double>(r.drops)));
  p.set("events", Json(static_cast<double>(r.events)));
  p.set("queue_hwm", Json(static_cast<double>(r.queue_hwm)));
  if (!r.metrics.samples.empty()) p.set("metrics", metrics_digest(r.metrics));
  artifact.add_point(std::move(p));
}

/// The folded results of one panel, indexed [x][series].
using PanelResults = std::vector<std::vector<Folded>>;

void print_table(const FigureSpec& spec, const Panel& panel,
                 const TableSpec& t, const PanelResults& res) {
  const std::string x_head = spec.axis == XAxis::kLoad ? "load%" : "fan-in";
  std::printf("\n%s:\n", t.title.c_str());
  if (t.metrics.size() == 1 && t.metrics[0] == Metric::kMiceCdf) {
    for (std::size_t xi = 0; xi < panel.xs.size(); ++xi) {
      std::vector<std::string> head{"pct"};
      for (const Series& s : spec.series) head.push_back(s.label);
      stats::Table table(head);
      for (int pct : {10, 25, 50, 75, 90, 95, 99}) {
        std::vector<std::string> row{std::to_string(pct)};
        for (const Folded& f : res[xi]) {
          row.push_back(stats::Table::fmt(
              f.run.fct->mice().percentile(pct) * t.unit, t.decimals));
        }
        table.add_row(row);
      }
      table.print();
    }
    return;
  }
  if (t.metrics.size() == 1) {
    std::vector<std::string> head{x_head};
    for (const Series& s : spec.series) head.push_back(s.label);
    stats::Table table(head);
    for (std::size_t xi = 0; xi < panel.xs.size(); ++xi) {
      std::vector<std::string> row{x_label(spec.axis, panel.xs[xi])};
      for (const Folded& f : res[xi]) row.push_back(cell(f, t.metrics[0], t));
      table.add_row(row);
    }
    table.print();
    return;
  }
  std::vector<std::string> head{x_head, "series"};
  for (Metric m : t.metrics) head.push_back(metric_name(m));
  stats::Table table(head);
  for (std::size_t xi = 0; xi < panel.xs.size(); ++xi) {
    for (std::size_t si = 0; si < spec.series.size(); ++si) {
      std::vector<std::string> row{x_label(spec.axis, panel.xs[xi]),
                                   spec.series[si].label};
      for (Metric m : t.metrics) row.push_back(cell(res[xi][si], m, t));
      table.add_row(row);
    }
  }
  table.print();
}

void print_headline(const FigureSpec& spec, const Panel& panel,
                    const Headline& h, const PanelResults& res) {
  const Resolved at = resolve(spec, panel, h);
  auto v = [&](std::size_t si) { return value(res[at.x][si], h.metric); };
  const std::string where = x_text(spec.axis, h.x);
  const std::string metric = metric_name(h.metric);
  if (h.kind == Kind::kRatio) {
    std::printf("  @%s: %s / %s %s = %.*fx", where.c_str(), h.a.c_str(),
                h.b.c_str(), metric.c_str(), h.decimals, v(at.a) / v(at.b));
    if (h.paper > 0.0) {
      const double paper_x = h.paper_x > 0.0 ? h.paper_x : h.x;
      std::printf(" (paper: ~%gx @%s)", h.paper,
                  x_text(spec.axis, paper_x).c_str());
    }
    std::printf("\n");
    return;
  }
  std::printf("  @%s: %s capture of the %s->%s %s gain: ", where.c_str(),
              h.a.c_str(), h.b.c_str(), h.c.c_str(), metric.c_str());
  if (const auto f = capture_fraction(v(at.b), v(at.a), v(at.c))) {
    std::printf("%.*f%%", h.decimals, 100 * *f);
  } else {
    std::printf("n/a (%s not faster than %s)", h.c.c_str(), h.b.c_str());
  }
  if (h.paper > 0.0) std::printf(" (paper: ~%g%%)", 100 * h.paper);
  std::printf("\n");
}

/// With the flight recorder on, each point's per-spine byte and flowlet
/// shares before the failure and while the link is down, from packet
/// provenance, and whether the auditors stayed clean through it.
void print_fault_shares(const FigureSpec& spec, const Panel& panel,
                        const PanelResults& res, const FaultWindow& w) {
  if (!telemetry::flight_active()) return;
  std::printf("\nflight recorder: share per spine before the failure -> "
              "while the link is down [%s, %s):\n",
              sim::format_time(w.fail).c_str(),
              sim::format_time(w.restore).c_str());
  for (std::size_t xi = 0; xi < panel.xs.size(); ++xi) {
    for (std::size_t si = 0; si < spec.series.size(); ++si) {
      const telemetry::FlightSummary& fs = res[xi][si].run.flight;
      const auto pre = fs.shares(0, w.fail);
      const auto post = fs.shares(w.fail, w.restore);
      std::printf("  %-14s", spec.series[si].label.c_str());
      if (!pre.empty() && !post.empty()) {
        std::printf(" bytes");
        for (std::size_t i = 0; i < fs.paths.size(); ++i) {
          std::printf(" %s %.1f%% -> %.1f%%", fs.path_names[i].c_str(),
                      pre[i].bytes_pct, post[i].bytes_pct);
        }
        std::printf(" | flowlets");
        for (std::size_t i = 0; i < fs.paths.size(); ++i) {
          std::printf(" %s %.1f%% -> %.1f%%", fs.path_names[i].c_str(),
                      pre[i].flowlets_pct, post[i].flowlets_pct);
        }
      }
      std::printf(" | audits %s\n",
                  fs.audit.total() == 0 ? "[clean]" : "[VIOLATIONS]");
    }
  }
}

}  // namespace

const std::vector<FigureSpec>& figures() {
  static const std::vector<FigureSpec> all = make_figures();
  return all;
}

void validate(const FigureSpec& spec) {
  for (std::size_t i = 0; i < spec.series.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.series.size(); ++j) {
      if (spec.series[i].label == spec.series[j].label) {
        throw std::invalid_argument(spec.name + ": duplicate series '" +
                                    spec.series[i].label + "'");
      }
    }
  }
  for (const Panel& panel : spec.panels) {
    for (const Headline& h : panel.headlines) (void)resolve(spec, panel, h);
  }
  std::vector<Metric> metrics = spec.values;
  for (const TableSpec& t : spec.tables) {
    metrics.insert(metrics.end(), t.metrics.begin(), t.metrics.end());
  }
  for (Metric m : metrics) {
    if (is_fault_metric(m) && !fault_window(spec.profile().fault_plan)) {
      throw std::invalid_argument(spec.name + ": " + metric_name(m) +
                                  " needs a link failure in the fault plan");
    }
  }
  if (!spec.values.empty()) {
    std::size_t xs = 0;
    for (const Panel& panel : spec.panels) xs += panel.xs.size();
    std::set<Scheme> seen;
    for (const Series& s : spec.series) {
      if (xs != 1 || !seen.insert(s.scheme).second) {
        throw std::invalid_argument(
            spec.name + ": exported values need one point per scheme");
      }
    }
  }
}

std::optional<FaultWindow> fault_window(const fault::FaultPlan& plan) {
  const fault::FaultEvent* down = nullptr;
  for (const fault::FaultEvent& e : plan.events) {
    if (e.kind == fault::FaultKind::kLinkDown && (!down || e.at < down->at)) {
      down = &e;
    }
  }
  if (!down) return std::nullopt;
  const fault::FaultEvent* up = nullptr;
  for (const fault::FaultEvent& e : plan.events) {
    if (e.kind == fault::FaultKind::kLinkUp &&
        e.target == down->target && e.at > down->at &&
        (!up || e.at < up->at)) {
      up = &e;
    }
  }
  if (!up) return std::nullopt;
  return FaultWindow{down->at, up->at, plan.route_convergence};
}

FaultRecovery fault_recovery(const std::vector<harness::MouseFct>& mice,
                             const FaultWindow& w) {
  struct Bucket {
    double sum_ms{0.0};
    int n{0};
  };
  std::vector<Bucket> buckets;
  double pre_sum = 0.0, post_sum = 0.0;
  int pre_n = 0, post_n = 0;
  for (const harness::MouseFct& m : mice) {
    const double fct_ms = sim::to_milliseconds(m.fct);
    if (m.arrival >= kPreFaultStart && m.arrival < w.fail) {
      pre_sum += fct_ms;
      ++pre_n;
    }
    if (m.arrival >= w.fail && m.arrival < w.fail + w.convergence) {
      post_sum += fct_ms;
      ++post_n;
    }
    const auto idx = static_cast<std::size_t>(m.arrival / kRecoveryBucket);
    if (idx >= buckets.size()) buckets.resize(idx + 1);
    buckets[idx].sum_ms += fct_ms;
    ++buckets[idx].n;
  }

  FaultRecovery out;
  out.pre_fct_ms = pre_n > 0 ? pre_sum / pre_n : 0.0;
  out.inflation_x = (post_n > 0 && out.pre_fct_ms > 0.0)
                        ? (post_sum / post_n) / out.pre_fct_ms
                        : 0.0;
  const auto first = static_cast<std::size_t>(w.fail / kRecoveryBucket);
  const auto last = static_cast<std::size_t>(w.restore / kRecoveryBucket);
  double recovered_at = 0.0;
  bool never = false;
  for (std::size_t i = first; i < last; ++i) {
    const Bucket b = i < buckets.size() ? buckets[i] : Bucket{};
    const double mean = b.n > 0 ? b.sum_ms / b.n : 0.0;
    if (b.n < kMinBucketMice || mean > kRecoveredBound * out.pre_fct_ms) {
      recovered_at = sim::to_milliseconds(static_cast<sim::Time>(i + 1) *
                                          kRecoveryBucket) -
                     sim::to_milliseconds(w.fail);
      never = (i + 1 == last);
    }
  }
  out.recovery_ms = never ? -1.0 : recovered_at;
  return out;
}

std::optional<double> capture_fraction(double base, double x, double best) {
  const double gain = base - best;
  if (gain <= 0.0) return std::nullopt;
  return (base - x) / gain;
}

void run_figure(const FigureSpec& spec, const harness::RunEnv& env) {
  const harness::BenchScale scale = spec.scale.value_or(env.scale);
  std::printf("== %s ==\nreproduces: %s\n", spec.title.c_str(),
              spec.paper_ref.c_str());
  std::printf("scale: %d jobs/conn x %d conns/client x %d seed(s)   (%s)\n\n",
              scale.jobs_per_conn, scale.conns_per_client, scale.seeds,
              spec.scale ? "pinned by the figure"
                         : "CLOVE_JOBS / CLOVE_CONNS / CLOVE_SEEDS to change");
  const std::optional<FaultWindow> window =
      fault_window(spec.profile().fault_plan);
  if (window) {
    std::printf("fault: a link fails at %s, routes converge %s later, the "
                "link returns at %s\n",
                sim::format_time(window->fail).c_str(),
                sim::format_time(window->convergence).c_str(),
                sim::format_time(window->restore).c_str());
  }
  Artifact artifact(spec.name, spec.paper_ref, scale, env.json_out,
                    env.prof.value_or(prof::Mode::kOff));
  // A figure's runs go in parallel, so events over wall time measures
  // CLOVE_THREADS as much as the engine: the rate stays in the `engine`
  // section and is not mirrored into a checkable value.
  artifact.set_mirror_engine_rate(false);
  harness::ParallelRunner runner(env.threads);
  artifact.set_run_modes(
      runner.threads(),
      telemetry::flight_mode_name(
          telemetry::current_scope().flight_config().mode));

  // Every (panel, x, series) point, each run once per seed, all in one
  // parallel batch; map() returns results in this order.
  struct Point {
    const Series* series;
    double x;
    harness::ExperimentConfig cfg;
  };
  std::vector<Point> points;
  for (const Panel& panel : spec.panels) {
    for (double x : panel.xs) {
      for (const Series& s : spec.series) {
        points.push_back({&s, x, make_config(spec, panel, s)});
        env.apply(points.back().cfg);
      }
    }
  }
  std::vector<std::function<harness::ExperimentResult()>> runs;
  for (const Point& p : points) {
    for (int seed = 0; seed < scale.seeds; ++seed) {
      runs.push_back([&spec, &scale, &p, seed] {
        return run_seed(spec.axis, p.cfg, *p.series, p.x, seed, scale);
      });
    }
  }
  std::vector<harness::ExperimentResult> seed_results =
      runner.map<harness::ExperimentResult>(std::move(runs));

  std::size_t next = 0;
  for (const Panel& panel : spec.panels) {
    PanelResults res(panel.xs.size());
    for (auto& row : res) {
      for (std::size_t si = 0; si < spec.series.size(); ++si, ++next) {
        const Point& p = points[next];
        row.push_back(fold(seed_results,
                           next * static_cast<std::size_t>(scale.seeds),
                           scale.seeds, window));
        record(artifact, spec.axis, p.cfg, *p.series, p.x, row.back().run);
        for (Metric m : spec.values) {
          artifact.add_value(scheme_key(p.cfg.scheme) + "." + metric_key(m),
                             value(row.back(), m));
        }
      }
    }
    if (!panel.title.empty()) std::printf("\n%s\n", panel.title.c_str());
    for (const TableSpec& t : spec.tables) print_table(spec, panel, t, res);
    if (window) print_fault_shares(spec, panel, res, *window);
    if (!panel.headlines.empty()) std::printf("\nheadlines:\n");
    for (const Headline& h : panel.headlines) {
      print_headline(spec, panel, h, res);
    }
  }
}

}  // namespace clove::bench
