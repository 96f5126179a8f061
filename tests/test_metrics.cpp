// Tests for the telemetry metrics registry: labeled cells, histogram
// percentile accuracy against the exact stats::Samples, snapshot export,
// and run-to-run cell stability.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
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

TEST(MetricsRegistry, CellAddressesSurviveManyRegistrations) {
  // Cells live in chunks that never move: the first cell's address must
  // still be valid (and still be its cell) after 10,000 more.
  MetricsRegistry reg;
  std::vector<Counter*> counters;
  std::vector<Gauge*> gauges;
  // Piecewise appends: `"l" + std::to_string(i)` trips a GCC 12 -O3
  // -Wrestrict false positive (GCC PR105651) under -Werror.
  const auto link = [](int i) {
    std::string s = "l";
    s += std::to_string(i);
    return s;
  };
  for (int i = 0; i < 10000; ++i) {
    const Labels labels{{"link", link(i)}};
    counters.push_back(reg.counter("pkts", labels));
    counters.back()->add(static_cast<std::uint64_t>(i));
    if (i % 10 == 0) {
      gauges.push_back(reg.gauge("depth", labels));
      gauges.back()->set(i);
    }
  }
  EXPECT_EQ(reg.size(), 11000u);
  for (int i = 0; i < 10000; ++i) {
    const Labels labels{{"link", link(i)}};
    ASSERT_EQ(reg.counter("pkts", labels), counters[static_cast<std::size_t>(i)]);
    EXPECT_EQ(counters[static_cast<std::size_t>(i)]->value(),
              static_cast<std::uint64_t>(i));
  }
  for (std::size_t j = 0; j < gauges.size(); ++j) {
    EXPECT_DOUBLE_EQ(gauges[j]->value(), static_cast<double>(j * 10));
  }
  EXPECT_EQ(reg.size(), 11000u);
}

TEST(MetricsRegistry, EqualLabelsShareOneLabelSet) {
  MetricsRegistry reg;
  const Labels labels{{"link", "L1->S2"}};
  Counter* a = reg.counter("link.tx_packets", labels);
  Counter* b = reg.counter("link.tx_bytes", labels);
  Gauge* g = reg.gauge("link.queue_high_watermark_bytes", labels);
  Counter* c = reg.counter("link.drops", {{"link", "L1->S2"}});  // equal copy
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_EQ(reg.size(), 4u);
  EXPECT_EQ(reg.label_set_count(), 1u);
  a->add(1);
  b->add(2);
  c->add(3);
  g->set(4.0);
  EXPECT_EQ(a->value(), 1u);
  EXPECT_EQ(b->value(), 2u);
  EXPECT_EQ(c->value(), 3u);
  // Another component's set, and one given out of order, are new sets
  // only when their canonical content differs.
  reg.counter("hyp.encapped", {{"scheme", "ecmp"}, {"host", "h1"}});
  reg.counter("hyp.decapped", {{"host", "h1"}, {"scheme", "ecmp"}});
  EXPECT_EQ(reg.label_set_count(), 2u);
  reg.counter("tcp.timeouts");
  EXPECT_EQ(reg.label_set_count(), 3u);
}

TEST(MetricsRegistry, ResetValuesZeroesEveryKind) {
  MetricsRegistry reg;
  std::vector<Counter*> cs;
  std::vector<Gauge*> gs;
  std::vector<Histogram*> hs;
  for (int i = 0; i < 700; ++i) {  // several chunks of each kind
    const Labels labels{{"id", std::to_string(i)}};
    cs.push_back(reg.counter("c", labels));
    gs.push_back(reg.gauge("g", labels));
    hs.push_back(reg.histogram("h", labels));
    cs.back()->add(5);
    gs.back()->set(-1.5);
    hs.back()->observe(2.0);
    hs.back()->observe(-3.0);
  }
  reg.reset_values();
  EXPECT_EQ(reg.size(), 2100u);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    EXPECT_EQ(cs[i]->value(), 0u);
    EXPECT_DOUBLE_EQ(gs[i]->value(), 0.0);
    EXPECT_EQ(hs[i]->count(), 0u);
    EXPECT_DOUBLE_EQ(hs[i]->sum(), 0.0);
    EXPECT_DOUBLE_EQ(hs[i]->min(), 0.0);
    EXPECT_DOUBLE_EQ(hs[i]->percentile(50), 0.0);
  }
  for (const MetricSample& s : reg.snapshot().samples) {
    EXPECT_DOUBLE_EQ(s.value, 0.0) << s.name;
    EXPECT_EQ(s.count, 0u) << s.name;
  }
}

// Fixed registration script: several components' label sets, labels given
// out of order, names sharing prefixes, every kind.
void run_script(MetricsRegistry& reg) {
  const char* links[] = {"L1->S2", "S2->L1", "L2->S1", "h1-1->L1"};
  int i = 0;
  for (const char* l : links) {
    const Labels labels{{"link", l}};
    reg.counter("link.tx_packets", labels)->add(100 + i);
    reg.counter("link.tx_bytes", labels)->add(1500 * (100 + i));
    reg.counter("link.drops_overflow", labels)->add(i);
    reg.gauge("link.queue_high_watermark_bytes", labels)->update_max(3000.0 * i);
    ++i;
  }
  for (const char* h : {"h2-1", "h1-16", "h1-2"}) {
    const Labels labels{{"scheme", "clove-ecn"}, {"host", h}};
    reg.counter("hyp.encapped", labels)->add(7);
    reg.counter("hyp.feedback_received", labels)->add(h[1] == '1' ? 2 : 0);
  }
  reg.counter("tcp.timeouts")->add(3);
  Histogram* rtt = reg.histogram("tcp.rtt_us");
  for (double v : {120.0, 80.5, 300.0, 95.0, 101.0}) rtt->observe(v);
  reg.gauge("a.first")->set(-2.5);
  reg.counter("switch.forwarded", {{"switch", "S1"}})->add(42);
  reg.counter("switch.forwarded", {{"switch", "L1"}})->add(41);
  reg.histogram("lat", {{"b", "2"}, {"a", "1"}})->observe(4.0);
  reg.counter("lat", {{"a", "1"}, {"c", "3"}})->add(1);
}

TEST(MetricsRegistry, SnapshotOfAFixedScriptIsPinned) {
  // Sample for sample what the registry exported before cells were
  // interned and chunked: sorted by name, then canonical labels.
  struct Want {
    const char* name;
    Labels labels;
    int kind;
    double value;
    std::uint64_t count;
    double sum, min, max, p50, p99;
  };
  const std::vector<Want> want = {
      {"a.first", {}, 1, -2.5, 0, 0, 0, 0, 0, 0},
      {"hyp.encapped", {{"host", "h1-16"}, {"scheme", "clove-ecn"} }, 0, 7, 0, 0, 0, 0, 0, 0},
      {"hyp.encapped", {{"host", "h1-2"}, {"scheme", "clove-ecn"} }, 0, 7, 0, 0, 0, 0, 0, 0},
      {"hyp.encapped", {{"host", "h2-1"}, {"scheme", "clove-ecn"} }, 0, 7, 0, 0, 0, 0, 0, 0},
      {"hyp.feedback_received", {{"host", "h1-16"}, {"scheme", "clove-ecn"} }, 0, 2, 0, 0, 0, 0, 0, 0},
      {"hyp.feedback_received", {{"host", "h1-2"}, {"scheme", "clove-ecn"} }, 0, 2, 0, 0, 0, 0, 0, 0},
      {"hyp.feedback_received", {{"host", "h2-1"}, {"scheme", "clove-ecn"} }, 0, 0, 0, 0, 0, 0, 0, 0},
      {"lat", {{"a", "1"}, {"b", "2"} }, 2, 4, 1, 4, 4, 4, 4, 4},
      {"lat", {{"a", "1"}, {"c", "3"} }, 0, 1, 0, 0, 0, 0, 0, 0},
      {"link.drops_overflow", {{"link", "L1->S2"} }, 0, 0, 0, 0, 0, 0, 0, 0},
      {"link.drops_overflow", {{"link", "L2->S1"} }, 0, 2, 0, 0, 0, 0, 0, 0},
      {"link.drops_overflow", {{"link", "S2->L1"} }, 0, 1, 0, 0, 0, 0, 0, 0},
      {"link.drops_overflow", {{"link", "h1-1->L1"} }, 0, 3, 0, 0, 0, 0, 0, 0},
      {"link.queue_high_watermark_bytes", {{"link", "L1->S2"} }, 1, 0, 0, 0, 0, 0, 0, 0},
      {"link.queue_high_watermark_bytes", {{"link", "L2->S1"} }, 1, 6000, 0, 0, 0, 0, 0, 0},
      {"link.queue_high_watermark_bytes", {{"link", "S2->L1"} }, 1, 3000, 0, 0, 0, 0, 0, 0},
      {"link.queue_high_watermark_bytes", {{"link", "h1-1->L1"} }, 1, 9000, 0, 0, 0, 0, 0, 0},
      {"link.tx_bytes", {{"link", "L1->S2"} }, 0, 150000, 0, 0, 0, 0, 0, 0},
      {"link.tx_bytes", {{"link", "L2->S1"} }, 0, 153000, 0, 0, 0, 0, 0, 0},
      {"link.tx_bytes", {{"link", "S2->L1"} }, 0, 151500, 0, 0, 0, 0, 0, 0},
      {"link.tx_bytes", {{"link", "h1-1->L1"} }, 0, 154500, 0, 0, 0, 0, 0, 0},
      {"link.tx_packets", {{"link", "L1->S2"} }, 0, 100, 0, 0, 0, 0, 0, 0},
      {"link.tx_packets", {{"link", "L2->S1"} }, 0, 102, 0, 0, 0, 0, 0, 0},
      {"link.tx_packets", {{"link", "S2->L1"} }, 0, 101, 0, 0, 0, 0, 0, 0},
      {"link.tx_packets", {{"link", "h1-1->L1"} }, 0, 103, 0, 0, 0, 0, 0, 0},
      {"switch.forwarded", {{"switch", "L1"} }, 0, 41, 0, 0, 0, 0, 0, 0},
      {"switch.forwarded", {{"switch", "S1"} }, 0, 42, 0, 0, 0, 0, 0, 0},
      {"tcp.rtt_us", {}, 2, 139.30000000000001, 5, 696.5, 80.5, 300, 103.16811698929183, 122.68825876509896},
      {"tcp.timeouts", {}, 0, 3, 0, 0, 0, 0, 0, 0},
  };
  MetricsRegistry reg;
  run_script(reg);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const MetricSample& got = snap.samples[i];
    const Want& w = want[i];
    EXPECT_EQ(got.name, w.name) << i;
    EXPECT_EQ(got.labels, w.labels) << i;
    EXPECT_EQ(static_cast<int>(got.kind), w.kind) << i;
    EXPECT_DOUBLE_EQ(got.value, w.value) << i;
    EXPECT_EQ(got.count, w.count) << i;
    EXPECT_DOUBLE_EQ(got.sum, w.sum) << i;
    EXPECT_DOUBLE_EQ(got.min, w.min) << i;
    EXPECT_DOUBLE_EQ(got.max, w.max) << i;
    EXPECT_DOUBLE_EQ(got.p50, w.p50) << i;
    EXPECT_DOUBLE_EQ(got.p99, w.p99) << i;
  }
}

TEST(MetricsRegistry, SameNameKindsExportInKindOrder) {
  // Cells that share a name and labels export counter, gauge, histogram,
  // whatever order they were registered in.
  for (int order = 0; order < 2; ++order) {
    MetricsRegistry reg;
    if (order == 0) {
      reg.histogram("x")->observe(1.0);
      reg.gauge("x")->set(2.0);
      reg.counter("x")->add(3);
    } else {
      reg.counter("x")->add(3);
      reg.histogram("x")->observe(1.0);
      reg.gauge("x")->set(2.0);
    }
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 3u);
    EXPECT_EQ(snap.samples[0].kind, MetricKind::kCounter);
    EXPECT_EQ(snap.samples[1].kind, MetricKind::kGauge);
    EXPECT_EQ(snap.samples[2].kind, MetricKind::kHistogram);
  }
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
