#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace clove::stats {

/// Streaming mean/min/max/variance (Welford) without storing samples.
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{std::numeric_limits<double>::max()};
  double max_{std::numeric_limits<double>::lowest()};
};

/// Sample store with percentiles and CDF export. Keeps every sample (the
/// experiments record at most a few hundred thousand flows).
class Samples {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }

  /// Append every sample of `o` (pooling runs, e.g. one per seed).
  void merge(const Samples& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] double mean() const {
    if (values_.empty()) return 0.0;
    double s = 0.0;
    for (double v : values_) s += v;
    return s / static_cast<double>(values_.size());
  }

  /// p in [0, 100]; linearly interpolated between the two nearest order
  /// statistics (NumPy's default "linear" method), so e.g. the median of
  /// {10, 20, 30, 40} is 25, not an observed sample.
  [[nodiscard]] double percentile(double p) {
    if (values_.empty()) return 0.0;
    sort_once();
    const double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values_[lo] * (1.0 - frac) + values_[hi] * frac;
  }

  [[nodiscard]] double max() {
    if (values_.empty()) return 0.0;
    sort_once();
    return values_.back();
  }

  /// (value, cumulative fraction) pairs at `points` evenly spaced quantiles.
  [[nodiscard]] std::vector<std::pair<double, double>> cdf(int points = 100) {
    std::vector<std::pair<double, double>> out;
    if (values_.empty()) return out;
    sort_once();
    for (int i = 1; i <= points; ++i) {
      const double q = static_cast<double>(i) / points;
      const std::size_t idx = std::min(
          values_.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(values_.size())));
      out.emplace_back(values_[idx], q);
    }
    return out;
  }

  [[nodiscard]] const std::vector<double>& raw() const { return values_; }

 private:
  void sort_once() {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
  }
  std::vector<double> values_;
  bool sorted_{false};
};

/// Flow-completion-time recorder with the paper's size-class breakdown:
/// mice (< 100 KB, Fig. 5a) and elephants (> 10 MB, Fig. 5b).
class FctRecorder {
 public:
  static constexpr std::uint64_t kMiceMaxBytes = 100 * 1000;
  static constexpr std::uint64_t kElephantMinBytes = 10 * 1000 * 1000;

  void add(std::uint64_t flow_bytes, double fct_seconds) {
    all_.add(fct_seconds);
    if (flow_bytes < kMiceMaxBytes) mice_.add(fct_seconds);
    if (flow_bytes > kElephantMinBytes) elephants_.add(fct_seconds);
  }

  /// Pool another recorder's samples into this one, class by class.
  void merge(const FctRecorder& o) {
    all_.merge(o.all_);
    mice_.merge(o.mice_);
    elephants_.merge(o.elephants_);
  }

  [[nodiscard]] Samples& all() { return all_; }
  [[nodiscard]] Samples& mice() { return mice_; }
  [[nodiscard]] Samples& elephants() { return elephants_; }

 private:
  Samples all_;
  Samples mice_;
  Samples elephants_;
};

/// Minimal fixed-width table printer for the bench harness outputs.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  [[nodiscard]] std::string to_string() const;
  void print() const;

  static std::string fmt(double v, int precision = 3);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace clove::stats
