// Tests for the figure table (bench/figures.cpp): every spec loads and
// resolves without simulating anything, and the capture headline refuses a
// gap that is not there.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

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
                       "ablation_extensions", "ablation_workloads"}));
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
