#pragma once

// The paper's evaluation grids (Figs. 4b-9, ablations A1-A4) as data.
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
};

/// Every figure and ablation, in the order `bench_figures` runs them.
[[nodiscard]] const std::vector<FigureSpec>& figures();

/// Throws std::invalid_argument when the spec cannot run as declared:
/// duplicate series labels, or a headline naming a series or x value the
/// spec does not have.
void validate(const FigureSpec& spec);

/// The share of the base -> best gain that x captures; nullopt when best is
/// not better (lower) than base, where the ratio has no meaning.
[[nodiscard]] std::optional<double> capture_fraction(double base, double x,
                                                     double best);

/// Simulate every point of `spec`, write its artifact (when CLOVE_JSON_OUT
/// is set) and print its tables and headlines. Call validate() first: a
/// headline that does not resolve throws only after the simulations ran.
void run_figure(const FigureSpec& spec, const harness::BenchScale& scale);

}  // namespace clove::bench
