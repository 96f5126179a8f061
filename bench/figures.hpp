#pragma once

// The paper's evaluation grids (Figs. 4b-9, ablations A1-A4, the §5.2
// link-failure dynamics) as data.
//
// Each FigureSpec names one artifact and declares what to simulate (profile,
// fabric, x axis, series), what to print (tables) and which headline claims
// to check. run_figure() is the one driver: it fans every (point, seed) out
// over a harness::ParallelRunner, folds the seeds back per point, records
// the artifact in sweep order and prints the tables and headlines.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/run_env.hpp"
#include "workload/flow_size.hpp"

namespace clove::bench {

/// One quantity read off a folded sweep point.
enum class Metric {
  kAvg,          ///< mean FCT over all flows
  kMiceAvg,      ///< mean FCT, flows < 100 KB
  kElephantAvg,  ///< mean FCT, flows > 10 MB
  kP99,          ///< 99th-percentile FCT, every seed's samples pooled
  kMiceP99,      ///< 99th-percentile mice FCT, pooled
  kMiceCdf,      ///< mice FCT percentiles (a table of its own: rows are pcts)
  kGoodput,      ///< incast client goodput, Gb/s
  // Fault runs (the profile's plan has a FaultWindow); see FaultRecovery.
  kPreFaultMiceFct,   ///< mean mice FCT before the failure, ms
  kFaultInflation,    ///< blackhole-window mice FCT / pre-fault FCT
  kRecovery,          ///< ms from the failure to recovery; -1 = never
  kPathEvictions,     ///< path-health evictions, summed over clients
  kPathReadmissions,  ///< path-health readmissions, summed over clients
};

/// What the x axis sweeps; it also selects the workload that runs.
enum class XAxis {
  kLoad,   ///< client-server FCT workload at this offered load
  kFanIn,  ///< incast of a 10 MB object split over this many servers
};

/// One line of a figure: a label plus the config fields it sets on top of
/// the figure's profile.
struct Series {
  std::string label;
  harness::Scheme scheme{harness::Scheme::kCloveEcn};
  std::optional<sim::Time> flowlet_gap{};
  std::optional<std::int64_t> ecn_threshold_pkts{};
  std::optional<double> reduce_factor{};
  std::optional<sim::Time> relay_interval{};
  bool non_overlay{false};
  workload::FlowSizeDistribution (*sizes)(){nullptr};
};

/// A table to print. With one metric the rows are x values and the columns
/// series; with several, each row is one (x, series) point and the columns
/// are the metrics. kMiceCdf prints percentile rows against series columns.
struct TableSpec {
  std::string title;
  std::vector<Metric> metrics;
  int decimals{3};
  double unit{1.0};  ///< multiplier applied before printing (1000: s -> ms)
};

/// A headline claim checked at one x value (given by value, not position).
///  kRatio:   metric(a) / metric(b)
///  kCapture: the share of the b -> c gain that a captures,
///            (b - a) / (b - c); n/a when c is not better than b.
struct Headline {
  enum class Kind { kRatio, kCapture };
  Kind kind{Kind::kRatio};
  Metric metric{Metric::kAvg};
  std::string a;
  std::string b;
  std::string c{};
  double x{0.0};
  double paper{0.0};    ///< the paper's number (x-fold or fraction); 0 = none
  double paper_x{0.0};  ///< the x the paper quotes it at; 0 = same as x
  int decimals{2};      ///< of the printed ratio or percentage
};

/// One fabric and one x axis of a figure (Fig. 8 has a symmetric and an
/// asymmetric panel; every other figure has one).
struct Panel {
  bool asymmetric{false};
  std::vector<double> xs;
  std::vector<Headline> headlines{};
  std::string title{};
};

struct FigureSpec {
  std::string name;  ///< artifact name and command-line selector
  std::string paper_ref;
  std::string title;
  harness::ExperimentConfig (*profile)(){harness::make_testbed_profile};
  XAxis axis{XAxis::kLoad};
  std::vector<Series> series;
  std::vector<Panel> panels;
  std::vector<TableSpec> tables;
  /// A scale the figure always runs at, in place of CLOVE_JOBS / CLOVE_SEEDS
  /// / CLOVE_CONNS (for a committed baseline that CI re-checks).
  std::optional<harness::BenchScale> scale{};
  /// Metrics exported per point as `<scheme_key>.<row>` artifact values,
  /// e.g. `clove_ecn.recovery_ms`; needs one point per scheme.
  std::vector<Metric> values{};
};

/// Every figure and ablation, in the order `bench_figures` runs them.
[[nodiscard]] const std::vector<FigureSpec>& figures();

/// Throws std::invalid_argument when the spec cannot run as declared:
/// duplicate series labels, a headline naming a series or x value the spec
/// does not have, a fault metric without a FaultWindow in the profile's
/// plan, or exported values without exactly one point per scheme.
void validate(const FigureSpec& spec);

/// The share of the base -> best gain that x captures; nullopt when best is
/// not better (lower) than base, where the ratio has no meaning.
[[nodiscard]] std::optional<double> capture_fraction(double base, double x,
                                                     double best);

/// The first link failure of a fault plan: when the link fails, when it
/// comes back, and how long routing takes to converge around it.
struct FaultWindow {
  sim::Time fail{0};
  sim::Time restore{0};
  sim::Time convergence{0};
};

/// The plan's earliest link_down and the earliest link_up of the same link
/// after it; nullopt when the plan has no such pair.
[[nodiscard]] std::optional<FaultWindow> fault_window(
    const fault::FaultPlan& plan);

/// One run's recovery from a FaultWindow (paper §5.2 failure dynamics).
/// Mice are bucketed by ARRIVAL time in 50 ms buckets: a mouse that stalls
/// into a 200 ms RTO counts against the moment it was issued. Bucketing by
/// completion has survivorship bias: during the outage only the lucky flows
/// finish, so the outage looks fast while stalled traffic piles into later
/// buckets.
struct FaultRecovery {
  /// Mean FCT of mice arriving in [150 ms, fail), after the warm-up.
  double pre_fct_ms{0.0};
  /// Mean FCT of mice arriving in [fail, fail + convergence) over
  /// pre_fct_ms; 0 without samples.
  double inflation_x{0.0};
  /// A bucket in [fail, restore) is bad when fewer than 5 mice arrived in
  /// it or their mean FCT exceeds 1.2x pre_fct_ms. Recovery is the end of
  /// the last bad bucket, in ms after the failure; -1 (never) when the
  /// bucket just before the restore is bad.
  double recovery_ms{-1.0};
};

[[nodiscard]] FaultRecovery fault_recovery(
    const std::vector<harness::MouseFct>& mice, const FaultWindow& window);

/// Simulate every point of `spec` at `env`'s scale (unless the spec pins its
/// own) with `env` applied to each point's config, write its artifact (when
/// env.json_out is set) and print its tables and headlines. Call validate()
/// first: a headline that does not resolve throws only after the
/// simulations ran.
void run_figure(const FigureSpec& spec, const harness::RunEnv& env);

}  // namespace clove::bench
