#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"
#include "util/flat_map.hpp"

namespace clove::telemetry {

/// Metric label set, e.g. {{"link", "L1->S2"}, {"scheme", "clove-ecn"}}.
/// Canonicalized (sorted by key) when used to identify a registry cell.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter cell. Cells are owned by the MetricsRegistry and stay
/// valid for the process lifetime, so instrumented components resolve them
/// once (at construction) and do a plain add on the hot path, guarded by
/// telemetry::enabled().
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_ += n; }
  [[nodiscard]] std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_{0};
};

/// Last-value / high-watermark gauge cell.
class Gauge {
 public:
  void set(double v) { v_ = v; }
  /// Keep the maximum seen (queue-depth high-watermarks).
  void update_max(double v) {
    if (v > v_) v_ = v;
  }
  [[nodiscard]] double value() const { return v_; }
  void reset() { v_ = 0.0; }

 private:
  double v_{0.0};
};

/// Log-bucketed histogram: exponential buckets with kSubBuckets buckets per
/// octave (~9% relative resolution at 8/octave), a sparse bucket map, and
/// exact count/sum/min/max. percentile() interpolates inside the bucket, so
/// estimates stay within the bucket's relative width of the true value —
/// tested against stats::Samples in test_metrics.cpp.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;

  void observe(double v);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// p in [0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  void reset();

 private:
  static int bucket_index(double v);
  static double bucket_lower(int idx);

  std::map<int, std::uint64_t> buckets_;  ///< ordered for percentile walks
  std::uint64_t nonpositive_{0};          ///< v <= 0 observations
  std::uint64_t count_{0};
  double sum_{0.0};
  double min_{0.0};
  double max_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One exported metric value (see MetricsRegistry::snapshot()).
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind{MetricKind::kCounter};
  double value{0.0};  ///< counter (as double) or gauge value
  // Histogram-only fields.
  std::uint64_t count{0};
  double sum{0.0};
  double min{0.0};
  double max{0.0};
  double p50{0.0};
  double p99{0.0};
};

/// Point-in-time export of every registered metric, sorted by (name, labels,
/// kind) for deterministic artifacts.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  [[nodiscard]] const MetricSample* find(const std::string& name,
                                         const Labels& labels = {}) const;
  [[nodiscard]] double value_or(const std::string& name, double fallback,
                                const Labels& labels = {}) const;
  /// Sum of `value` across every label set of `name` (fabric-wide totals).
  [[nodiscard]] double sum_over(const std::string& name) const;
  [[nodiscard]] Json to_json() const;
};

/// Named, labeled metric cells with get-or-create registration and a
/// snapshot/export API. Lookups happen at component construction; the hot
/// path touches only the returned cell. Values survive reset_values() as
/// zeroed cells, so resolved pointers never dangle across runs.
///
/// A fabric registers thousands of cells (one set per link, switch and
/// host), so registration is built to cost no per-cell allocation. Metric
/// names and canonical label sets are interned once each: every cell of one
/// component refers to the same label set by id. Cells live per kind in
/// fixed-size chunks, so an address once handed out never moves. A cell is
/// found by (kind, name id) among the cells of its label set.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name, const Labels& labels = {});
  Gauge* gauge(const std::string& name, const Labels& labels = {});
  Histogram* histogram(const std::string& name, const Labels& labels = {});

  /// Zero every cell (start of a run). Cells remain registered.
  void reset_values();
  [[nodiscard]] std::size_t size() const { return refs_.size(); }
  /// Distinct canonical label sets among the registered cells.
  [[nodiscard]] std::size_t label_set_count() const {
    return label_sets_.size();
  }
  /// Every cell, sorted by (name, labels, kind).
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  /// Distinct values of T by dense id, found by hash with collision chains.
  template <typename T>
  class Interner {
   public:
    std::uint32_t intern(const T& v, std::uint64_t hash);
    [[nodiscard]] const T& operator[](std::uint32_t id) const {
      return values_[id];
    }
    [[nodiscard]] std::size_t size() const { return values_.size(); }
    /// rank[id] = position of value `id` in sorted order.
    [[nodiscard]] std::vector<std::uint32_t> ranks() const;

   private:
    std::vector<T> values_;
    util::FlatMap<std::uint64_t, std::uint32_t> head_;  ///< hash -> 1 + id
    std::vector<std::uint32_t> next_;  ///< id -> 1 + older id, same hash
  };

  /// Cells of one kind in chunks of ~4 KiB that never move.
  template <typename Cell>
  class Store {
   public:
    static constexpr std::size_t kChunk = 4096 / sizeof(Cell);

    Cell* add();
    [[nodiscard]] Cell& at(std::size_t i) const {
      return chunks_[i / kChunk][i % kChunk];
    }
    [[nodiscard]] std::size_t size() const { return size_; }

   private:
    std::vector<std::unique_ptr<Cell[]>> chunks_;
    std::size_t size_{0};
  };

  /// One registered cell. The cells of one label set form a chain, newest
  /// first, so a lookup scans only the few cells of one component.
  struct CellRef {
    std::uint32_t name;
    std::uint32_t labels;
    std::uint32_t index;  ///< in the Store of its kind
    std::uint32_t next;   ///< 1 + the previous cell of this label set; 0 = none
    MetricKind kind;
  };

  template <typename Cell>
  Cell* get_or_create(MetricKind kind, Store<Cell>& store,
                      const std::string& name, const Labels& labels);

  Interner<std::string> names_;
  Interner<Labels> label_sets_;
  std::vector<std::uint32_t> newest_;  ///< label-set id -> 1 + newest cell
  std::vector<CellRef> refs_;          ///< every cell, in registration order
  Store<Counter> counters_;
  Store<Gauge> gauges_;
  Store<Histogram> histograms_;
};

}  // namespace clove::telemetry
