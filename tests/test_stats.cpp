// Tests for the statistics helpers.

#include <gtest/gtest.h>

#include "stats/stats.hpp"

namespace clove::stats {
namespace {

TEST(OnlineStats, MeanMinMax) {
  OnlineStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(OnlineStats, Variance) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);  // sample variance
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Samples, MeanAndCount) {
  Samples s;
  for (int i = 1; i <= 10; ++i) s.add(i);
  EXPECT_EQ(s.count(), 10u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.5);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1.0);
  EXPECT_NEAR(s.percentile(99), 99.01, 1.0);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
}

TEST(Samples, PercentileInterpolatesBetweenOrderStatistics) {
  // Pins the documented method: linear interpolation between the two
  // nearest order statistics, not nearest-rank (which would only ever
  // return observed samples).
  Samples s;
  for (int v : {10, 20, 30, 40}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
  EXPECT_DOUBLE_EQ(s.percentile(75), 32.5);
}

TEST(Samples, PercentileUnsortedInput) {
  Samples s;
  for (int v : {5, 1, 9, 3, 7}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 9.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
}

TEST(Samples, AddAfterPercentileResorts) {
  Samples s;
  s.add(10);
  EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
  s.add(20);
  EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
}

TEST(Samples, CdfMonotonic) {
  Samples s;
  for (int i = 0; i < 1000; ++i) s.add(i % 37);
  auto cdf = s.cdf(50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Samples, EmptySafe) {
  Samples s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 0.0);
  EXPECT_TRUE(s.cdf().empty());
}

TEST(FctRecorder, SizeClassBuckets) {
  FctRecorder r;
  r.add(50'000, 0.1);        // mouse
  r.add(500'000, 0.2);       // neither
  r.add(20'000'000, 0.3);    // elephant
  EXPECT_EQ(r.all().count(), 3u);
  EXPECT_EQ(r.mice().count(), 1u);
  EXPECT_EQ(r.elephants().count(), 1u);
  EXPECT_DOUBLE_EQ(r.mice().mean(), 0.1);
  EXPECT_DOUBLE_EQ(r.elephants().mean(), 0.3);
}

TEST(FctRecorder, BoundaryValues) {
  FctRecorder r;
  r.add(FctRecorder::kMiceMaxBytes, 1.0);      // exactly 100 KB: not a mouse
  r.add(FctRecorder::kElephantMinBytes, 1.0);  // exactly 10 MB: not an elephant
  EXPECT_EQ(r.mice().count(), 0u);
  EXPECT_EQ(r.elephants().count(), 0u);
}

TEST(FctRecorder, MergePoolsEverySizeClass) {
  // Two "seeds": the pooled p99 must come from all ten samples, not from
  // either run alone and not from the mean of the per-run p99s.
  FctRecorder a;
  FctRecorder b;
  for (int i = 1; i <= 5; ++i) a.add(50'000, i);  // mice 1..5
  for (int i = 6; i <= 9; ++i) b.add(50'000, i);  // mice 6..9
  b.add(20'000'000, 100.0);                       // one elephant
  EXPECT_DOUBLE_EQ(a.mice().percentile(100), 5.0);  // sorts before merging
  a.merge(b);
  EXPECT_EQ(a.all().count(), 10u);
  EXPECT_EQ(a.mice().count(), 9u);
  EXPECT_EQ(a.elephants().count(), 1u);
  EXPECT_DOUBLE_EQ(a.mice().percentile(100), 9.0);
  EXPECT_DOUBLE_EQ(a.mice().percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(a.all().percentile(100), 100.0);
  EXPECT_EQ(b.all().count(), 5u);  // the source is left untouched
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "2.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Samples, SingleSampleCdfAndPercentiles) {
  Samples s;
  s.add(42.0);
  // Every percentile of one sample is that sample (rank interpolation over
  // values_.size()-1 == 0 must not divide or index out of range).
  EXPECT_DOUBLE_EQ(s.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  auto cdf = s.cdf(10);
  ASSERT_EQ(cdf.size(), 10u);
  for (const auto& [v, q] : cdf) EXPECT_DOUBLE_EQ(v, 42.0);
  EXPECT_DOUBLE_EQ(cdf.front().second, 0.1);
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Samples, DuplicateValuesCdfStaysMonotone) {
  // A heavily tied distribution (e.g. all mice flows finishing in the same
  // FCT bucket) must still yield a monotone CDF that steps through the tie.
  Samples s;
  for (int i = 0; i < 6; ++i) s.add(5.0);
  s.add(1.0);
  s.add(9.0);
  auto cdf = s.cdf(8);
  ASSERT_EQ(cdf.size(), 8u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.front().first, 5.0);  // the tie dominates early mass
  EXPECT_DOUBLE_EQ(cdf.back().first, 9.0);
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
  // Percentiles inside the tie are exact, not interpolated across it.
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
}

TEST(Samples, CdfMorePointsThanSamplesClampsToMax) {
  Samples s;
  s.add(1.0);
  s.add(2.0);
  auto cdf = s.cdf(100);
  ASSERT_EQ(cdf.size(), 100u);
  EXPECT_DOUBLE_EQ(cdf.back().first, 2.0);
  // The index clamp keeps every quantile inside the sample range.
  for (const auto& [v, q] : cdf) {
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 2.0);
  }
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace clove::stats
