// ColumnSeries / SealedBlock (block.h): the seal pipeline must answer band
// queries bit-identically to a MultiScaleSeries fed the same samples, keep
// exact raw history through compression, downsample with the laned summary,
// and surface spikes through the streaming detector. Suite name "SeriesBlock"
// keeps these under the TSan/ASan CI regexes.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.h"
#include "telemetry/block.h"
#include "reference/telemetry/multiscale_series.h"
#include "telemetry/compress.h"
#include "telemetry/multiscale.h"

namespace epm::telemetry {
namespace {

bool aggregates_identical(const Aggregate& a, const Aggregate& b) {
  return a.count == b.count && a.sum == b.sum && a.min == b.min && a.max == b.max;
}

TelemetryTuning tiny_blocks(std::size_t capacity) {
  TelemetryTuning tuning;
  tuning.block_capacity = capacity;
  return tuning;
}

TEST(SeriesBlock, LaneSummaryMatchesStrictScalarFold) {
  Rng rng(5);
  for (std::size_t n = 0; n <= 33; ++n) {
    std::vector<double> values(n);
    for (auto& v : values) v = rng.uniform(-1e6, 1e6);
    const Aggregate laned = lane_summary(values.data(), n);
    Aggregate strict;
    for (const double v : values) strict.add(v);
    EXPECT_TRUE(aggregates_identical(laned, strict)) << "n=" << n;
  }
}

TEST(SeriesBlock, SealsAtCapacityAndFlushSealsTheRemainder) {
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(8));
  for (int i = 0; i < 21; ++i) {
    series.append(15.0 * i, static_cast<double>(i));
  }
  EXPECT_EQ(series.blocks().size(), 2u);  // 8 + 8 sealed
  EXPECT_EQ(series.open_samples(), 5u);
  EXPECT_EQ(series.total_samples(), 21u);
  series.flush();
  EXPECT_EQ(series.blocks().size(), 3u);
  EXPECT_EQ(series.open_samples(), 0u);
  series.flush();  // idempotent on empty open block
  EXPECT_EQ(series.blocks().size(), 3u);
}

TEST(SeriesBlock, SealedBlockDecodesBitExactly) {
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(16));
  std::vector<double> times;
  std::vector<double> values;
  Rng rng(9);
  for (int i = 0; i < 16; ++i) {
    times.push_back(15.0 * i + 3.0);
    values.push_back(std::floor(rng.uniform(0.0, 1000.0)));
    series.append(times.back(), values.back());
  }
  ASSERT_EQ(series.blocks().size(), 1u);
  const SealedBlock& block = series.blocks().front();
  EXPECT_EQ(block.samples, 16u);
  EXPECT_EQ(block.first_time_s, times.front());
  EXPECT_EQ(block.last_time_s, times.back());
  std::vector<double> got_times;
  std::vector<double> got_values;
  block.decode(got_times, got_values);
  EXPECT_EQ(got_times, times);
  EXPECT_EQ(got_values, values);
  EXPECT_LT(block.payload_bytes(), 16u * 16u);  // compressed below raw
}

TEST(SeriesBlock, TruncatedSealedBlockThrowsEndOfStream) {
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(64));
  Rng rng(21);
  for (int i = 0; i < 64; ++i) {
    series.append(15.0 * i, std::floor(rng.uniform(0.0, 1e6)));
  }
  ASSERT_EQ(series.blocks().size(), 1u);
  const SealedBlock& sealed = series.blocks().front();
  std::vector<double> times;
  std::vector<double> values;
  // The writer emits a trailing byte only when it holds payload bits, so
  // every proper prefix of either column is missing data the decoder needs:
  // each must fail loudly instead of decoding zero-filled values.
  for (std::size_t keep = 0; keep < sealed.time_bytes.size(); ++keep) {
    SealedBlock cut = sealed;
    cut.time_bytes.resize(keep);
    EXPECT_THROW(cut.decode(times, values), EndOfStreamError) << "time bytes " << keep;
  }
  for (std::size_t keep = 0; keep < sealed.value_bytes.size(); ++keep) {
    SealedBlock cut = sealed;
    cut.value_bytes.resize(keep);
    EXPECT_THROW(cut.decode(times, values), EndOfStreamError) << "value bytes " << keep;
  }
  sealed.decode(times, values);  // the intact block still round-trips
  EXPECT_EQ(times.size(), 64u);
}

TEST(SeriesBlock, RejectsTimeRegressions) {
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(8));
  series.append(100.0, 1.0);
  EXPECT_THROW(series.append(99.0, 1.0), std::invalid_argument);
  EXPECT_THROW(series.append(-1.0, 1.0), std::invalid_argument);
  series.append(100.0, 2.0);  // equal timestamps are allowed
  EXPECT_EQ(series.total_samples(), 2u);
}

TEST(SeriesBlock, BandQueriesMatchMultiScaleSeriesBitForBit) {
  // A day of 15 s samples through a 7-sample block (many seals + a partial
  // open block) must answer every band query exactly as the legacy cascade.
  MultiScaleConfig config;
  ColumnSeries columnar(config, tiny_blocks(7));
  MultiScaleSeries legacy(config);
  Rng rng(11);
  double value = 40.0;
  const auto samples = static_cast<std::size_t>(86400.0 / 15.0);
  for (std::size_t i = 0; i < samples; ++i) {
    const double t = 15.0 * static_cast<double>(i);
    value += rng.uniform(-0.75, 0.75);
    columnar.append(t, value);
    legacy.append(t, value);
  }
  ASSERT_EQ(columnar.level_count(), legacy.level_count());

  const double windows[][2] = {{0.0, 86400.0},        {86400.0 - 3600.0, 86400.0},
                               {1000.0, 2000.0},      {0.0, 15.0},
                               {80000.0, 90000.0},    {86399.0, 86400.0},
                               {20000.0, 20000.0}};
  for (const auto& w : windows) {
    EXPECT_TRUE(aggregates_identical(columnar.range(w[0], w[1]),
                                     legacy.range(w[0], w[1])))
        << "range [" << w[0] << ", " << w[1] << ")";
    for (std::size_t level = 0; level < legacy.level_count(); ++level) {
      EXPECT_TRUE(
          aggregates_identical(columnar.range_at_level(level, w[0], w[1]),
                               legacy.range_at_level(level, w[0], w[1])))
          << "level " << level << " [" << w[0] << ", " << w[1] << ")";
      const auto a = columnar.means_at_level(level, w[0], w[1]);
      const auto b = legacy.means_at_level(level, w[0], w[1]);
      EXPECT_EQ(a.times_s, b.times_s) << "level " << level;
      EXPECT_EQ(a.means, b.means) << "level " << level;
    }
  }

  // Flushing moves the open block into the chain without changing answers.
  const Aggregate before = columnar.range(0.0, 86400.0);
  columnar.flush();
  EXPECT_TRUE(aggregates_identical(before, columnar.range(0.0, 86400.0)));
}

TEST(SeriesBlock, RawRangeIsExactAcrossSealedAndOpenSamples) {
  // Integer values make the sum association-free, so the reference fold is
  // exact whatever block granularity contributes summaries.
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(16));
  Rng rng(21);
  std::vector<double> times;
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) {  // 6 sealed blocks + 4 open samples
    times.push_back(15.0 * i);
    values.push_back(static_cast<double>(rng.uniform_int(0, 1000)));
    series.append(times.back(), values.back());
  }
  const double queries[][2] = {{0.0, 1500.0},  {0.0, 10.0},    {100.0, 900.0},
                               {1400.0, 1500.0}, {237.0, 1201.0}, {1485.0, 1e9}};
  for (const auto& q : queries) {
    Aggregate expect;
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (times[i] >= q[0] && times[i] < q[1]) expect.add(values[i]);
    }
    const Aggregate got = series.raw_range(q[0], q[1]);
    EXPECT_EQ(got.count, expect.count) << "[" << q[0] << ", " << q[1] << ")";
    EXPECT_EQ(got.sum, expect.sum);
    if (expect.count > 0) {
      EXPECT_EQ(got.min, expect.min);
      EXPECT_EQ(got.max, expect.max);
    }
  }
}

TEST(SeriesBlock, StreamingDetectorFlagsSpikeAfterWarmup) {
  TelemetryTuning tuning = tiny_blocks(32);
  ColumnSeries series(MultiScaleConfig{}, tuning);
  // 64 calm samples, then one huge spike, then calm again.
  Rng rng(3);
  const double spike_t = 15.0 * 64.0;
  for (int i = 0; i < 96; ++i) {
    const double t = 15.0 * i;
    const double v = i == 64 ? 5000.0 : 50.0 + rng.uniform(-1.0, 1.0);
    series.append(t, v);
  }
  series.flush();
  const auto& events = series.anomalies();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.front().time_s, spike_t);
  EXPECT_EQ(events.front().value, 5000.0);
  EXPECT_GT(events.front().zscore, 6.0);
}

TEST(SeriesBlock, WarmupSamplesNeverAlarm) {
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(8));
  // A violent step inside the 32-sample warmup must stay silent — the batch
  // detector has the same blind spot.
  for (int i = 0; i < 30; ++i) {
    series.append(15.0 * i, i == 10 ? 1e6 : 1.0);
  }
  series.flush();
  EXPECT_TRUE(series.anomalies().empty());
}

TEST(SeriesBlock, MemoryAccountingShrinksBelowRaw) {
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(1024));
  for (int i = 0; i < 4096; ++i) {
    series.append(15.0 * i, 100.0 + (i % 3));
  }
  series.flush();
  EXPECT_EQ(series.raw_sample_bytes(), 4096u * 16u);
  EXPECT_LT(series.compressed_payload_bytes(), series.raw_sample_bytes() / 8);
}

}  // namespace
}  // namespace epm::telemetry
