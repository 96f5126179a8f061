#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <tuple>

namespace clove::telemetry {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

int Histogram::bucket_index(double v) {
  // floor(log2(v) * kSubBuckets): each bucket spans a 2^(1/kSubBuckets)
  // ratio. Clamped to a generous range (2^-64 .. 2^64 covers ns..years and
  // bytes..exabytes for every metric we record).
  const double l = std::log2(v) * kSubBuckets;
  const double clamped = std::clamp(l, -64.0 * kSubBuckets, 64.0 * kSubBuckets);
  return static_cast<int>(std::floor(clamped));
}

double Histogram::bucket_lower(int idx) {
  return std::exp2(static_cast<double>(idx) / kSubBuckets);
}

void Histogram::observe(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (v > 0.0) {
    ++buckets_[bucket_index(v)];
  } else {
    ++nonpositive_;
  }
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count_ - 1);
  // The first `nonpositive_` ranks are <= 0; report min() for those.
  if (target < static_cast<double>(nonpositive_)) return std::min(min_, 0.0);
  double cum = static_cast<double>(nonpositive_);
  for (const auto& [idx, n] : buckets_) {
    const double next = cum + static_cast<double>(n);
    if (target < next) {
      // Interpolate linearly across the bucket span by rank position.
      const double lo = std::max(bucket_lower(idx), min_);
      const double hi = std::min(bucket_lower(idx + 1), max_);
      const double frac =
          n > 1 ? (target - cum) / static_cast<double>(n - 1) : 0.5;
      return lo + (hi - lo) * frac;
    }
    cum = next;
  }
  return max_;
}

void Histogram::reset() {
  buckets_.clear();
  nonpositive_ = 0;
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

std::uint64_t hash_of(const std::string& s) {
  return std::hash<std::string>{}(s);
}

std::uint64_t hash_of(const Labels& labels) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& [k, v] : labels) {
    h = (h ^ hash_of(k)) * 0x100000001b3ULL;
    h = (h ^ hash_of(v)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

template <typename T>
std::uint32_t MetricsRegistry::Interner<T>::intern(const T& v,
                                                   std::uint64_t hash) {
  std::uint32_t& head = head_[hash];
  for (std::uint32_t i = head; i != 0; i = next_[i - 1]) {
    if (values_[i - 1] == v) return i - 1;
  }
  values_.push_back(v);
  next_.push_back(head);
  head = static_cast<std::uint32_t>(values_.size());
  return head - 1;
}

template <typename T>
std::vector<std::uint32_t> MetricsRegistry::Interner<T>::ranks() const {
  std::vector<std::uint32_t> order(values_.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::uint32_t a,
                                               std::uint32_t b) {
    return values_[a] < values_[b];
  });
  std::vector<std::uint32_t> rank(values_.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return rank;
}

template <typename Cell>
Cell* MetricsRegistry::Store<Cell>::add() {
  if (size_ % kChunk == 0) chunks_.push_back(std::make_unique<Cell[]>(kChunk));
  return &at(size_++);
}

template <typename Cell>
Cell* MetricsRegistry::get_or_create(MetricKind kind, Store<Cell>& store,
                                     const std::string& name,
                                     const Labels& labels) {
  std::uint32_t label_id = 0;
  if (std::is_sorted(labels.begin(), labels.end())) {
    label_id = label_sets_.intern(labels, hash_of(labels));
  } else {
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    label_id = label_sets_.intern(sorted, hash_of(sorted));
  }
  const std::uint32_t name_id = names_.intern(name, hash_of(name));
  if (label_id == newest_.size()) newest_.push_back(0);
  for (std::uint32_t r = newest_[label_id]; r != 0; r = refs_[r - 1].next) {
    const CellRef& c = refs_[r - 1];
    if (c.name == name_id && c.kind == kind) return &store.at(c.index);
  }
  refs_.push_back(CellRef{name_id, label_id,
                          static_cast<std::uint32_t>(store.size()),
                          newest_[label_id], kind});
  newest_[label_id] = static_cast<std::uint32_t>(refs_.size());
  return store.add();
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  return get_or_create(MetricKind::kCounter, counters_, name, labels);
}

Gauge* MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  return get_or_create(MetricKind::kGauge, gauges_, name, labels);
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels) {
  return get_or_create(MetricKind::kHistogram, histograms_, name, labels);
}

void MetricsRegistry::reset_values() {
  for (std::size_t i = 0; i < counters_.size(); ++i) counters_.at(i).reset();
  for (std::size_t i = 0; i < gauges_.size(); ++i) gauges_.at(i).reset();
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    histograms_.at(i).reset();
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // Order the cells by interned ranks, then export in that order.
  struct Ref {
    std::uint32_t name_rank;
    std::uint32_t label_rank;
    const CellRef* cell;
  };
  const std::vector<std::uint32_t> name_rank = names_.ranks();
  const std::vector<std::uint32_t> label_rank = label_sets_.ranks();
  std::vector<Ref> refs;
  refs.reserve(refs_.size());
  for (const CellRef& c : refs_) {
    refs.push_back(Ref{name_rank[c.name], label_rank[c.labels], &c});
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return std::tie(a.name_rank, a.label_rank, a.cell->kind) <
           std::tie(b.name_rank, b.label_rank, b.cell->kind);
  });

  MetricsSnapshot snap;
  snap.samples.reserve(refs.size());
  for (const Ref& r : refs) {
    const CellRef& c = *r.cell;
    MetricSample s;
    s.name = names_[c.name];
    s.labels = label_sets_[c.labels];
    s.kind = c.kind;
    switch (c.kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(counters_.at(c.index).value());
        break;
      case MetricKind::kGauge:
        s.value = gauges_.at(c.index).value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = histograms_.at(c.index);
        s.count = h.count();
        s.sum = h.sum();
        s.min = h.min();
        s.max = h.max();
        s.p50 = h.percentile(50);
        s.p99 = h.percentile(99);
        s.value = h.mean();
        break;
      }
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

const MetricSample* MetricsSnapshot::find(const std::string& name,
                                          const Labels& labels) const {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& s : samples) {
    if (s.name == name && s.labels == sorted) return &s;
  }
  return nullptr;
}

double MetricsSnapshot::value_or(const std::string& name, double fallback,
                                 const Labels& labels) const {
  const MetricSample* s = find(name, labels);
  return s != nullptr ? s->value : fallback;
}

double MetricsSnapshot::sum_over(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

Json MetricsSnapshot::to_json() const {
  Json arr = Json::array();
  for (const auto& s : samples) {
    Json m = Json::object();
    m.set("name", s.name);
    if (!s.labels.empty()) {
      Json l = Json::object();
      for (const auto& [k, v] : s.labels) l.set(k, v);
      m.set("labels", std::move(l));
    }
    switch (s.kind) {
      case MetricKind::kCounter:
        m.set("type", "counter");
        m.set("value", s.value);
        break;
      case MetricKind::kGauge:
        m.set("type", "gauge");
        m.set("value", s.value);
        break;
      case MetricKind::kHistogram:
        m.set("type", "histogram");
        m.set("count", static_cast<double>(s.count));
        m.set("sum", s.sum);
        m.set("min", s.min);
        m.set("max", s.max);
        m.set("p50", s.p50);
        m.set("p99", s.p99);
        break;
    }
    arr.push_back(std::move(m));
  }
  return arr;
}

}  // namespace clove::telemetry
