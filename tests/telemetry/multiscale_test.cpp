#include "telemetry/multiscale.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "reference/telemetry/multiscale_series.h"

namespace epm::telemetry {
namespace {

TEST(Aggregate, AddAndMerge) {
  Aggregate a;
  a.add(1.0);
  a.add(3.0);
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 3.0);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  Aggregate b;
  b.add(5.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.max, 5.0);
  EXPECT_EQ(a.count, 3u);
  Aggregate empty;
  a.merge(empty);
  EXPECT_EQ(a.count, 3u);
  empty.merge(a);
  EXPECT_EQ(empty.count, 3u);
}

MultiScaleConfig tiny_config() {
  // 10 s base with tight retention, 60 s and 600 s above it.
  MultiScaleConfig config;
  config.levels = {{10.0, 12}, {60.0, 1440}, {600.0, 0}};
  return config;
}

TEST(MultiScaleSeries, AggregatesMatchRawData) {
  MultiScaleSeries series(tiny_config());
  double sum = 0.0;
  for (int i = 0; i < 6; ++i) {
    series.append(i * 10.0, static_cast<double>(i));
    sum += i;
  }
  const auto agg = series.range_at_level(1, 0.0, 60.0);  // one 60 s bin
  EXPECT_EQ(agg.count, 6u);
  EXPECT_DOUBLE_EQ(agg.sum, sum);
  EXPECT_DOUBLE_EQ(agg.min, 0.0);
  EXPECT_DOUBLE_EQ(agg.max, 5.0);
}

TEST(MultiScaleSeries, EveryLevelSeesEverySample) {
  MultiScaleSeries series(tiny_config());
  for (int i = 0; i < 100; ++i) series.append(i * 10.0, 1.0);
  for (std::size_t level = 0; level < series.level_count(); ++level) {
    const auto agg = series.range_at_level(level, 0.0, 1000.0);
    EXPECT_GT(agg.count, 0u) << "level " << level;
  }
  // Coarse level retains everything.
  EXPECT_EQ(series.range_at_level(2, 0.0, 1000.0).count, 100u);
}

TEST(MultiScaleSeries, FineLevelEvicts) {
  MultiScaleSeries series(tiny_config());
  for (int i = 0; i < 100; ++i) series.append(i * 10.0, 1.0);
  EXPECT_LE(series.level_bins(0), 12u);  // retention bound
  // Early window no longer served by level 0...
  const auto early_fine = series.range_at_level(0, 0.0, 100.0);
  EXPECT_EQ(early_fine.count, 0u);
  // ...but range() transparently falls back to a retained level. The
  // answer is bin-aligned: [0, 100) straddles 60 s bins 0 and 1, so both
  // whole bins (12 samples) are included.
  const auto early = series.range(0.0, 100.0);
  EXPECT_EQ(early.count, 12u);
}

TEST(MultiScaleSeries, RangePrefersFinestRetainedLevel) {
  MultiScaleSeries series(tiny_config());
  for (int i = 0; i < 100; ++i) series.append(i * 10.0, static_cast<double>(i % 7));
  // Recent window: answered from the fine level -> exact.
  const auto recent = series.range(900.0, 990.0);
  EXPECT_EQ(recent.count, 9u);
}

TEST(MultiScaleSeries, PartialBinQueriesAreBinAligned) {
  MultiScaleSeries series(tiny_config());
  for (int i = 0; i < 12; ++i) series.append(i * 10.0, 1.0);
  // [5, 15) clips into bins 0 and 1 -> both included whole.
  const auto agg = series.range_at_level(0, 5.0, 15.0);
  EXPECT_EQ(agg.count, 2u);
}

TEST(MultiScaleSeries, SparseDataPadsEmptyBins) {
  MultiScaleSeries series(tiny_config());
  series.append(0.0, 1.0);
  series.append(50.0, 2.0);  // skips 4 bins
  const auto agg = series.range_at_level(0, 0.0, 60.0);
  EXPECT_EQ(agg.count, 2u);
  const auto means = series.means_at_level(0, 0.0, 60.0);
  EXPECT_EQ(means.means.size(), 2u);  // empty bins skipped
  EXPECT_DOUBLE_EQ(means.times_s[1], 50.0);
}

TEST(MultiScaleSeries, MeansAtLevel) {
  MultiScaleSeries series(tiny_config());
  for (int i = 0; i < 12; ++i) {
    series.append(i * 10.0, i < 6 ? 10.0 : 20.0);
  }
  const auto means = series.means_at_level(1, 0.0, 120.0);
  ASSERT_EQ(means.means.size(), 2u);
  EXPECT_DOUBLE_EQ(means.means[0], 10.0);
  EXPECT_DOUBLE_EQ(means.means[1], 20.0);
}

TEST(MultiScaleSeries, MemoryBounded) {
  MultiScaleSeries series(tiny_config());
  for (int i = 0; i < 100000; ++i) series.append(i * 10.0, 1.0);
  // Level 0 capped at 12 bins; level 1/2 unlimited but coarse.
  const std::size_t raw_bytes = 100000 * sizeof(double) * 2;
  EXPECT_LT(series.memory_bytes(), raw_bytes / 10);
  EXPECT_EQ(series.total_samples(), 100000u);
}

TEST(MultiScaleSeries, RejectsTimeTravelAndBadConfig) {
  MultiScaleSeries series(tiny_config());
  series.append(100.0, 1.0);
  EXPECT_THROW(series.append(50.0, 1.0), std::invalid_argument);
  MultiScaleConfig bad;
  bad.levels = {{60.0, 0}, {90.0, 0}};  // not an integer multiple
  EXPECT_THROW(MultiScaleSeries{bad}, std::invalid_argument);
  bad.levels = {};
  EXPECT_THROW(MultiScaleSeries{bad}, std::invalid_argument);
  EXPECT_THROW(series.range_at_level(99, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(series.range(10.0, 5.0), std::invalid_argument);
}

TEST(MultiScaleSeries, DefaultConfigPaperScales) {
  // 15 s -> 1 min -> 15 min -> 1 h -> 1 d ladder accepts a day of samples.
  MultiScaleSeries series;
  Rng rng(1);
  for (int i = 0; i < 5760; ++i) {  // one day at 15 s
    series.append(i * 15.0, 50.0 + rng.normal(0.0, 5.0));
  }
  const auto day = series.range(0.0, 86400.0);
  EXPECT_EQ(day.count, 5760u);
  EXPECT_NEAR(day.mean(), 50.0, 0.5);
}

}  // namespace
}  // namespace epm::telemetry
