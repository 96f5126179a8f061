// Tests for the telemetry metrics registry: labeled cells, histogram
// percentile accuracy against the exact stats::Samples, snapshot export,
// and run-to-run cell stability.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "stats/stats.hpp"
#include "telemetry/metrics.hpp"

namespace clove::telemetry {
namespace {

TEST(MetricsRegistry, SameNameSameLabelsSharesCell) {
  MetricsRegistry reg;
  Counter* a = reg.counter("pkts", {{"link", "L1"}});
  Counter* b = reg.counter("pkts", {{"link", "L1"}});
  EXPECT_EQ(a, b);
  a->add(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, DistinctLabelsDistinctCells) {
  MetricsRegistry reg;
  Counter* a = reg.counter("pkts", {{"link", "L1"}});
  Counter* b = reg.counter("pkts", {{"link", "L2"}});
  Counter* c = reg.counter("pkts");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, LabelOrderIsCanonicalized) {
  MetricsRegistry reg;
  Counter* a = reg.counter("pkts", {{"b", "2"}, {"a", "1"}});
  Counter* b = reg.counter("pkts", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistry, KindsWithSameNameAreSeparate) {
  // A counter and a gauge may share a metric name without clobbering each
  // other (the registry keys on kind as well).
  MetricsRegistry reg;
  Counter* c = reg.counter("x");
  Gauge* g = reg.gauge("x");
  c->add(7);
  g->set(1.5);
  EXPECT_EQ(c->value(), 7u);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);
}

TEST(MetricsRegistry, ResetValuesKeepsPointersValid) {
  MetricsRegistry reg;
  Counter* c = reg.counter("pkts", {{"link", "L1"}});
  Gauge* g = reg.gauge("depth");
  Histogram* h = reg.histogram("lat");
  c->add(10);
  g->set(4.0);
  h->observe(1.0);
  reg.reset_values();
  EXPECT_EQ(reg.size(), 3u);  // cells survive, zeroed
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  c->add(1);  // the old pointer still points at the live cell
  EXPECT_EQ(reg.counter("pkts", {{"link", "L1"}})->value(), 1u);
}

TEST(Gauge, UpdateMaxKeepsHighWatermark) {
  Gauge g;
  g.update_max(5.0);
  g.update_max(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.update_max(8.0);
  EXPECT_DOUBLE_EQ(g.value(), 8.0);
}

TEST(Histogram, ExactStatsAreExact) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.observe(123.0);
  EXPECT_DOUBLE_EQ(h.min(), 123.0);
  EXPECT_DOUBLE_EQ(h.max(), 123.0);
  // The one observation bounds every percentile.
  EXPECT_NEAR(h.percentile(50), 123.0, 123.0 * 0.1);
}

TEST(Histogram, PercentilesTrackExactSamples) {
  // The log-bucketed estimate must stay within the bucket's relative width
  // (~9% at 8 sub-buckets/octave) of the exact order statistic, across a
  // few distributions spanning several orders of magnitude.
  std::mt19937_64 rng(7);
  std::vector<std::vector<double>> datasets;
  {
    std::uniform_real_distribution<double> u(1.0, 1000.0);
    std::vector<double> d;
    for (int i = 0; i < 20000; ++i) d.push_back(u(rng));
    datasets.push_back(std::move(d));
  }
  {
    std::lognormal_distribution<double> ln(3.0, 1.5);
    std::vector<double> d;
    for (int i = 0; i < 20000; ++i) d.push_back(ln(rng));
    datasets.push_back(std::move(d));
  }
  {
    std::exponential_distribution<double> ex(1e-3);
    std::vector<double> d;
    for (int i = 0; i < 20000; ++i) d.push_back(ex(rng) + 1e-6);
    datasets.push_back(std::move(d));
  }

  for (const auto& data : datasets) {
    Histogram h;
    stats::Samples exact;
    for (double v : data) {
      h.observe(v);
      exact.add(v);
    }
    for (double p : {10.0, 50.0, 90.0, 99.0}) {
      const double want = exact.percentile(p);
      const double got = h.percentile(p);
      EXPECT_NEAR(got, want, want * 0.10)
          << "p" << p << " over " << data.size() << " samples";
    }
  }
}

TEST(Histogram, NonpositiveValuesCountedNotBucketed) {
  Histogram h;
  h.observe(0.0);
  h.observe(-5.0);
  h.observe(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  // Low percentiles resolve to the nonpositive mass (clamped by min).
  EXPECT_LE(h.percentile(10), 0.0);
}

TEST(MetricsSnapshot, FindValueAndSum) {
  MetricsRegistry reg;
  reg.counter("drops", {{"link", "a"}})->add(3);
  reg.counter("drops", {{"link", "b"}})->add(4);
  reg.gauge("depth")->set(9.5);
  MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);

  const MetricSample* s = snap.find("drops", {{"link", "b"}});
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 4.0);
  EXPECT_EQ(snap.find("drops"), nullptr);  // unlabeled variant not registered
  EXPECT_DOUBLE_EQ(snap.value_or("depth", -1.0), 9.5);
  EXPECT_DOUBLE_EQ(snap.value_or("nope", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(snap.sum_over("drops"), 7.0);
}

TEST(MetricsSnapshot, DeterministicOrderAndJson) {
  MetricsRegistry reg;
  reg.counter("z.last")->add(1);
  reg.counter("a.first", {{"link", "L2"}})->add(2);
  reg.counter("a.first", {{"link", "L1"}})->add(3);
  reg.histogram("h")->observe(2.0);
  MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 4u);
  EXPECT_EQ(snap.samples[0].name, "a.first");
  EXPECT_EQ(snap.samples[0].labels[0].second, "L1");
  EXPECT_EQ(snap.samples[1].labels[0].second, "L2");
  EXPECT_EQ(snap.samples[3].name, "z.last");

  Json j = snap.to_json();
  ASSERT_EQ(j.size(), 4u);
  EXPECT_EQ(j[0]["name"].as_string(), "a.first");
  EXPECT_EQ(j[0]["labels"]["link"].as_string(), "L1");
  EXPECT_EQ(j[0]["type"].as_string(), "counter");
  EXPECT_DOUBLE_EQ(j[0]["value"].as_number(), 3.0);
  EXPECT_EQ(j[2]["type"].as_string(), "histogram");
  EXPECT_DOUBLE_EQ(j[2]["count"].as_number(), 1.0);
  // The export parses back (artifact consumers round-trip it).
  std::string err;
  Json back = Json::parse(j.dump(2), &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.size(), 4u);
}

}  // namespace
}  // namespace clove::telemetry
