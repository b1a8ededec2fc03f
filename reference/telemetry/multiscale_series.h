// The per-sample multiscale cascade (paper §5.3): every append folds into
// every level's LevelBins row at once, so each series stores a full bin
// pyramid. The columnar store (telemetry/block.h) stores no bins; it folds
// them at query time from its compressed blocks. This cascade stays here as
// the independent oracle the block and store equivalence suites compare
// against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "telemetry/multiscale.h"

namespace epm::telemetry {

/// One resolution level's dense bin row. Bin i covers [i*res, (i+1)*res);
/// skipped bins are padded with empties so indexing stays dense; bins
/// beyond retention are evicted (the data survives only in coarser levels).
struct LevelBins {
  LevelSpec spec{1.0, 0};
  /// Index of the first retained bin.
  std::int64_t first_bin = 0;
  std::deque<Aggregate> bins;

  std::int64_t bin_index(double time_s) const;
  /// Left-folds one sample into its bin (padding forward as needed), then
  /// evicts beyond retention.
  void add(double time_s, double value);
  void evict();
};

/// Validates `config` and returns one empty LevelBins row per level.
std::vector<LevelBins> make_level_bins(const MultiScaleConfig& config);

/// One counter's multi-resolution history. Samples must arrive with
/// non-decreasing timestamps.
class MultiScaleSeries {
 public:
  explicit MultiScaleSeries(MultiScaleConfig config = {});

  void append(double time_s, double value);
  std::uint64_t total_samples() const { return total_samples_; }
  std::size_t level_count() const { return levels_.size(); }
  double level_resolution_s(std::size_t level) const;
  std::size_t level_bins(std::size_t level) const;

  /// Aggregate over [t0_s, t1_s), served from the finest level whose
  /// retention still covers t0_s (bin-aligned approximation at the edges).
  /// Returns an empty aggregate when nothing is retained for the range.
  Aggregate range(double t0_s, double t1_s) const;

  /// Aggregate over [t0_s, t1_s) from a specific level.
  Aggregate range_at_level(std::size_t level, double t0_s, double t1_s) const;

  /// Per-bin means from `level` covering [t0_s, t1_s); bins without data are
  /// skipped. Times are bin starts.
  using BinnedMeans = telemetry::BinnedMeans;
  BinnedMeans means_at_level(std::size_t level, double t0_s, double t1_s) const;

  /// Approximate resident memory (bins x aggregate size), for the paper's
  /// storage-reduction argument.
  std::size_t memory_bytes() const;

 private:
  std::vector<LevelBins> levels_;
  double last_time_s_ = -1.0;
  std::uint64_t total_samples_ = 0;
};

}  // namespace epm::telemetry
