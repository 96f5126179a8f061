// Tests for the figure table (bench/figures.cpp): every spec loads and
// resolves without simulating anything, the capture headline refuses a
// gap that is not there, and the fault-recovery readouts follow their
// arrival-bucket arithmetic.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "figures.hpp"

namespace clove::bench {
namespace {

TEST(FigureSpecs, NamesAreTheArtifactNamesAndUnique) {
  std::set<std::string> names;
  for (const FigureSpec& f : figures()) {
    EXPECT_TRUE(names.insert(f.name).second) << "duplicate " << f.name;
  }
  EXPECT_EQ(names, (std::set<std::string>{
                       "fig4b_symmetric", "fig4c_asymmetric", "fig5_breakdown",
                       "fig6_params", "fig7_incast", "fig8_sims", "fig9_cdf",
                       "ablation_letflow", "ablation_weights",
                       "ablation_extensions", "ablation_workloads",
                       "BENCH_fault"}));
}

TEST(FigureSpecs, EveryHeadlineResolves) {
  for (const FigureSpec& f : figures()) {
    EXPECT_NO_THROW(validate(f)) << f.name;
    EXPECT_FALSE(f.tables.empty()) << f.name;
  }
}

TEST(FigureSpecs, UnresolvedHeadlineFailsLoudly) {
  const FigureSpec* fig7 = nullptr;
  for (const FigureSpec& f : figures()) {
    if (f.name == "fig7_incast") fig7 = &f;
  }
  ASSERT_NE(fig7, nullptr);
  ASSERT_FALSE(fig7->panels[0].headlines.empty());

  FigureSpec off_axis = *fig7;
  off_axis.panels[0].headlines[0].x = 16;  // fan-ins are odd: 1 .. 15
  EXPECT_THROW(validate(off_axis), std::invalid_argument);

  FigureSpec unknown_series = *fig7;
  unknown_series.panels[0].headlines[0].b = "Presto";
  EXPECT_THROW(validate(unknown_series), std::invalid_argument);

  FigureSpec duplicate_series = *fig7;
  duplicate_series.series.push_back(duplicate_series.series[0]);
  EXPECT_THROW(validate(duplicate_series), std::invalid_argument);
}

const FigureSpec& figure(const std::string& name) {
  for (const FigureSpec& f : figures()) {
    if (f.name == name) return f;
  }
  throw std::invalid_argument("no figure " + name);
}

TEST(FigureSpecs, FaultMetricsNeedAFaultPlanAndOnePointPerScheme) {
  const FigureSpec& fault = figure("BENCH_fault");
  EXPECT_NO_THROW(validate(fault));

  FigureSpec no_fault = fault;
  no_fault.profile = harness::make_testbed_profile;
  EXPECT_THROW(validate(no_fault), std::invalid_argument);

  FigureSpec two_loads = fault;
  two_loads.panels[0].xs.push_back(0.6);
  EXPECT_THROW(validate(two_loads), std::invalid_argument);
}

TEST(FaultWindow, ReadsTheFirstFailureAndItsRestore) {
  const auto w = fault_window(figure("BENCH_fault").profile().fault_plan);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->fail, 400 * sim::kMillisecond);
  EXPECT_EQ(w->restore, 1200 * sim::kMillisecond);
  EXPECT_EQ(w->convergence, 250 * sim::kMillisecond);

  fault::FaultPlan down_only;
  down_only.add(sim::milliseconds(400), fault::FaultKind::kLinkDown, "L2->S2#0");
  EXPECT_FALSE(fault_window(down_only).has_value());
  down_only.add(sim::milliseconds(900), fault::FaultKind::kLinkUp, "L1->S1#0");
  EXPECT_FALSE(fault_window(down_only).has_value());  // another link
}

/// `n` mice arriving at `at_ms`, each taking `fct_us`.
void add_mice(std::vector<harness::MouseFct>& mice, int at_ms, int n,
              int fct_us) {
  for (int i = 0; i < n; ++i) {
    mice.push_back({sim::milliseconds(at_ms), sim::microseconds(fct_us)});
  }
}

/// Fail at 400 ms, routes converge by 500 ms, link back at 600 ms: the
/// recovery buckets are [400, 450), [450, 500), [500, 550) and [550, 600).
constexpr FaultWindow kWindow{.fail = 400 * sim::kMillisecond,
                              .restore = 600 * sim::kMillisecond,
                              .convergence = 100 * sim::kMillisecond};

/// Pre-fault mice average 10 ms (the warm-up before 150 ms does not
/// count); [400, 450) is slow, [450, 500) healthy, [500, 550) too thin to
/// count, and the last bucket's mice take `last_us` each.
std::vector<harness::MouseFct> outage(int last_us) {
  std::vector<harness::MouseFct> mice;
  add_mice(mice, 100, 5, 90'000);  // warm-up, ignored
  add_mice(mice, 200, 5, 8'000);
  add_mice(mice, 350, 5, 12'000);
  add_mice(mice, 420, 5, 40'000);
  add_mice(mice, 470, 5, 11'000);
  add_mice(mice, 520, 4, 10'000);
  add_mice(mice, 570, 5, last_us);
  return mice;
}

TEST(FaultRecovery, PreFaultMeanAndBlackholeInflation) {
  const FaultRecovery r = fault_recovery(outage(11'000), kWindow);
  EXPECT_DOUBLE_EQ(r.pre_fct_ms, 10.0);
  // Arrivals in [400, 500): five at 40 ms and five at 11 ms.
  EXPECT_DOUBLE_EQ(r.inflation_x, 2.55);
}

TEST(FaultRecovery, ThinBucketIsBadAndRecoveryEndsAtTheLastBadBucket) {
  // [450, 500) is healthy, but four mice in [500, 550) are too few: the
  // fabric recovered only once that bucket ended, 150 ms after the failure.
  EXPECT_DOUBLE_EQ(fault_recovery(outage(11'000), kWindow).recovery_ms,
                   150.0);
  // Without the thin bucket, recovery comes one bucket after the slow one.
  std::vector<harness::MouseFct> mice = outage(11'000);
  add_mice(mice, 520, 1, 10'000);
  EXPECT_DOUBLE_EQ(fault_recovery(mice, kWindow).recovery_ms, 50.0);
}

TEST(FaultRecovery, NeverWhenTheBucketBeforeRestoreIsBad) {
  // 12.5 ms is 1.25x the pre-fault mean: over the 1.2x bound.
  EXPECT_DOUBLE_EQ(fault_recovery(outage(12'500), kWindow).recovery_ms, -1.0);
  // Exactly 1.2x still counts as recovered.
  EXPECT_DOUBLE_EQ(fault_recovery(outage(12'000), kWindow).recovery_ms,
                   150.0);
  // No mice at all after the failure: stalled throughout.
  std::vector<harness::MouseFct> stalled;
  add_mice(stalled, 200, 5, 10'000);
  EXPECT_DOUBLE_EQ(fault_recovery(stalled, kWindow).recovery_ms, -1.0);
}

TEST(CaptureFraction, ShareOfTheGap) {
  ASSERT_TRUE(capture_fraction(2.0, 1.2, 1.0).has_value());
  EXPECT_DOUBLE_EQ(*capture_fraction(2.0, 1.2, 1.0), 0.8);
  EXPECT_DOUBLE_EQ(*capture_fraction(2.0, 2.5, 1.0), -0.5);
}

TEST(CaptureFraction, NoGainIsNotApplicable) {
  // CONGA no better than ECMP: there is no gain to capture.
  EXPECT_FALSE(capture_fraction(1.0, 0.9, 1.0).has_value());
  EXPECT_FALSE(capture_fraction(1.1, 1.15, 1.2).has_value());
}

}  // namespace
}  // namespace clove::bench
