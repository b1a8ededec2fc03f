// Band-query window edges, checked against expected values directly: the
// store-vs-oracle suites cannot see a window rule both sides share. An
// empty window [t, t) holds nothing, and neither does a window ending at or
// before 0 (append rejects negative times). Suite name "SeriesBlock..."
// keeps these under the TSan/ASan CI regexes.
#include <gtest/gtest.h>

#include "reference/telemetry/multiscale_series.h"
#include "telemetry/block.h"
#include "telemetry/multiscale.h"

namespace epm::telemetry {
namespace {

constexpr int kSamples = 100;
constexpr double kStep = 15.0;

ColumnSeries filled_column_series() {
  TelemetryTuning tuning;
  tuning.block_capacity = 16;  // sealed blocks and an open tail
  ColumnSeries series(MultiScaleConfig{}, tuning);
  for (int i = 0; i < kSamples; ++i) series.append(kStep * i, 1.0 + i);
  return series;
}

MultiScaleSeries filled_multiscale_series() {
  MultiScaleSeries series{MultiScaleConfig{}};
  for (int i = 0; i < kSamples; ++i) series.append(kStep * i, 1.0 + i);
  return series;
}

TEST(SeriesBlockWindow, ColumnSeriesEmptyWindowHoldsNothing) {
  const ColumnSeries series = filled_column_series();
  EXPECT_EQ(series.range(600.0, 600.0).count, 0u);
  EXPECT_EQ(series.range(607.5, 607.5).count, 0u);
  EXPECT_EQ(series.range_at_level(1, 600.0, 600.0).count, 0u);
  EXPECT_TRUE(series.means_at_level(1, 600.0, 600.0).means.empty());
  // The neighbouring non-empty windows still answer.
  EXPECT_EQ(series.range(600.0, 615.0).count, 1u);
  EXPECT_EQ(series.range_at_level(1, 600.0, 660.0).count, 4u);
  EXPECT_EQ(series.means_at_level(1, 600.0, 660.0).means.size(), 1u);
}

TEST(SeriesBlockWindow, ColumnSeriesWindowEndingAtZeroHoldsNothing) {
  const ColumnSeries series = filled_column_series();
  EXPECT_EQ(series.range(-100.0, 0.0).count, 0u);
  EXPECT_EQ(series.range(-100.0, -50.0).count, 0u);
  EXPECT_EQ(series.range_at_level(0, -100.0, 0.0).count, 0u);
  EXPECT_EQ(series.range_at_level(4, -86400.0, 0.0).count, 0u);
  EXPECT_TRUE(series.means_at_level(1, -100.0, 0.0).means.empty());
  EXPECT_EQ(series.range(0.0, 0.0).count, 0u);
  // A window reaching past 0 holds the first bin's samples.
  EXPECT_EQ(series.range_at_level(0, -100.0, 15.0).count, 1u);
  EXPECT_EQ(series.range_at_level(4, -100.0, 1.0).count,
            static_cast<std::uint64_t>(kSamples));
}

TEST(SeriesBlockWindow, MultiScaleSeriesEmptyWindowHoldsNothing) {
  const MultiScaleSeries series = filled_multiscale_series();
  EXPECT_EQ(series.range(600.0, 600.0).count, 0u);
  EXPECT_EQ(series.range(607.5, 607.5).count, 0u);
  EXPECT_EQ(series.range_at_level(1, 600.0, 600.0).count, 0u);
  EXPECT_TRUE(series.means_at_level(1, 600.0, 600.0).means.empty());
  EXPECT_EQ(series.range(600.0, 615.0).count, 1u);
  EXPECT_EQ(series.range_at_level(1, 600.0, 660.0).count, 4u);
  EXPECT_EQ(series.means_at_level(1, 600.0, 660.0).means.size(), 1u);
}

TEST(SeriesBlockWindow, MultiScaleSeriesWindowEndingAtZeroHoldsNothing) {
  const MultiScaleSeries series = filled_multiscale_series();
  EXPECT_EQ(series.range(-100.0, 0.0).count, 0u);
  EXPECT_EQ(series.range(-100.0, -50.0).count, 0u);
  EXPECT_EQ(series.range_at_level(0, -100.0, 0.0).count, 0u);
  EXPECT_EQ(series.range_at_level(4, -86400.0, 0.0).count, 0u);
  EXPECT_TRUE(series.means_at_level(1, -100.0, 0.0).means.empty());
  EXPECT_EQ(series.range(0.0, 0.0).count, 0u);
  EXPECT_EQ(series.range_at_level(0, -100.0, 15.0).count, 1u);
  EXPECT_EQ(series.range_at_level(4, -100.0, 1.0).count,
            static_cast<std::uint64_t>(kSamples));
}

}  // namespace
}  // namespace epm::telemetry
