// The per-sample multiscale cascade (paper §5.3): every append folds into
// every level's LevelBins row at once. The columnar store replaced it with
// block-seal banding over the same fold (telemetry/block.h); it stays here
// as the oracle the block and store equivalence suites compare against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/multiscale.h"

namespace epm::telemetry {

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
