// ColumnSeries band queries at the retention edge of every level. Seven and
// a half weeks of irregular samples outlast every finite retention of the
// default ladder (4 h, 1 day, 1 week, 6 weeks), so each level has evicted
// by the end; gaps pad bins, repeated timestamps share a bin, and the
// series ends with an open block. Every answer must equal the per-sample
// cascade's (reference/) bit for bit, at every level, for block capacities
// that seal per sample, often, and rarely. Suite name "SeriesBlock" keeps
// this under the TSan/ASan CI regexes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/rng.h"
#include "reference/telemetry/multiscale_series.h"
#include "telemetry/block.h"
#include "telemetry/multiscale.h"

namespace epm::telemetry {
namespace {

constexpr double kDay = 86400.0;

bool aggregates_identical(const Aggregate& a, const Aggregate& b) {
  return a.count == b.count && a.sum == b.sum && a.min == b.min && a.max == b.max;
}

struct Point {
  double time_s;
  double value;
};

/// Irregular history: mostly sub-minute steps, some repeats, hour-scale
/// steps and a few multi-day gaps, up to `horizon_s`.
std::vector<Point> irregular_history(double horizon_s) {
  Rng rng(77);
  std::vector<Point> out;
  double t = 7.0;
  double value = 50.0;
  while (t < horizon_s) {
    value += rng.uniform(-1.5, 1.5);
    out.push_back({t, value});
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.1) continue;  // repeat the timestamp
    if (u < 0.7) {
      t += rng.uniform(1.0, 60.0);
    } else if (u < 0.995) {
      t += rng.uniform(60.0, 3600.0);
    } else {
      t += rng.uniform(kDay, 3.0 * kDay);
    }
  }
  return out;
}

/// Query windows around every level's retention edge, plus whole-history,
/// empty-width, pre-history and post-history windows.
std::vector<std::pair<double, double>> edge_windows(const MultiScaleConfig& config,
                                                    double first_s, double last_s) {
  std::vector<double> anchors = {-100.0, 0.0, first_s, last_s, last_s + 1.0,
                                 last_s + kDay, (first_s + last_s) / 2.0};
  for (const LevelSpec& spec : config.levels) {
    const double res = spec.resolution_s;
    const double span = static_cast<double>(spec.retention_bins) * res;
    if (span == 0.0) continue;
    const double edge = (std::floor(last_s / res) + 1.0) * res - span;
    for (const double d : {-res, -res / 2.0, 0.0, res / 2.0, res}) {
      anchors.push_back(edge + d);
    }
  }
  std::sort(anchors.begin(), anchors.end());
  std::vector<std::pair<double, double>> windows;
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    for (std::size_t j = i; j < anchors.size(); ++j) {
      windows.emplace_back(anchors[i], anchors[j]);
    }
  }
  return windows;
}

void expect_same_answers(const ColumnSeries& columnar, const MultiScaleSeries& legacy,
                         const MultiScaleConfig& config, double first_s, double last_s) {
  for (const auto& [t0, t1] : edge_windows(config, first_s, last_s)) {
    EXPECT_TRUE(aggregates_identical(columnar.range(t0, t1), legacy.range(t0, t1)))
        << "range [" << t0 << ", " << t1 << ")";
    for (std::size_t level = 0; level < legacy.level_count(); ++level) {
      EXPECT_TRUE(aggregates_identical(columnar.range_at_level(level, t0, t1),
                                       legacy.range_at_level(level, t0, t1)))
          << "level " << level << " [" << t0 << ", " << t1 << ")";
      const BinnedMeans a = columnar.means_at_level(level, t0, t1);
      const BinnedMeans b = legacy.means_at_level(level, t0, t1);
      EXPECT_EQ(a.times_s, b.times_s) << "level " << level << " [" << t0 << ", " << t1 << ")";
      EXPECT_EQ(a.means, b.means) << "level " << level << " [" << t0 << ", " << t1 << ")";
    }
  }
}

TEST(SeriesBlock, RetentionEdgesMatchMultiScaleSeriesAtEveryLevel) {
  const MultiScaleConfig config;
  const std::vector<Point> history = irregular_history(7.5 * 7.0 * kDay);
  ASSERT_GT(history.back().time_s - history.front().time_s, 7.0 * 7.0 * kDay);

  for (const std::size_t capacity : {std::size_t{1}, std::size_t{7}, std::size_t{1024}}) {
    SCOPED_TRACE(testing::Message() << "block_capacity " << capacity);
    TelemetryTuning tuning;
    tuning.block_capacity = capacity;
    ColumnSeries columnar(config, tuning);
    MultiScaleSeries legacy(config);
    // Check once mid-way (three weeks in: only the fine levels have
    // evicted) and once at the end (every finite retention has).
    const double midway_s = history.front().time_s + 21.0 * kDay;
    bool checked_midway = false;
    double last_s = 0.0;
    for (const Point& s : history) {
      if (!checked_midway && s.time_s > midway_s) {
        expect_same_answers(columnar, legacy, config, history.front().time_s, last_s);
        checked_midway = true;
      }
      columnar.append(s.time_s, s.value);
      legacy.append(s.time_s, s.value);
      last_s = s.time_s;
    }
    if (capacity > 1) {
      ASSERT_GT(columnar.open_samples(), 0u) << "history must end in an open block";
    }
    for (std::size_t level = 0; level + 1 < config.levels.size(); ++level) {
      EXPECT_EQ(legacy.level_bins(level), config.levels[level].retention_bins)
          << "level " << level << " never evicted";
    }
    expect_same_answers(columnar, legacy, config, history.front().time_s,
                        history.back().time_s);
  }
}

}  // namespace
}  // namespace epm::telemetry
