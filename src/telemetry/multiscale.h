// Multi-scale time-series storage (paper §5.3).
//
//   "consider a 10,000 server cloud computing environment, if there are 100
//    software performance counters of interests, and each of them are
//    sampled every 15 seconds, we will expect 2.4 million data points per
//    minutes... Since these queries essentially focuses on data with
//    certain narrow band, preprocessing and indexing the data into multiple
//    scales can speed up the query significantly. At the same time, raw
//    data out of these bands can be considered as noise and be eliminated,
//    thus reducing storage requirements."
//
// Each counter keeps a pyramid of aggregate levels (e.g. 15 s -> 1 min ->
// 15 min -> 1 h -> 1 d). Range queries are answered from the finest level
// that still covers the request; old fine-grained bins are evicted per
// level-specific retention.
//
// This header holds what every banded consumer shares: the `Aggregate`
// fold, the level configuration, and `LevelBins`, one level's dense bin
// row. The columnar store (block.h) folds each sealed block into its rows;
// the per-sample cascade that first used them (MultiScaleSeries) is kept
// only in the epm_reference test library, as the equivalence oracle, and
// runs the very same fold, so the two answer band queries bit-identically
// by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace epm::telemetry {

/// min/max/sum/count aggregate; the only thing levels store.
struct Aggregate {
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;

  void add(double v);
  void merge(const Aggregate& other);
  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

struct LevelSpec {
  double resolution_s;
  /// Bins retained before eviction (0 = unlimited).
  std::size_t retention_bins;
};

struct MultiScaleConfig {
  /// Finest-to-coarsest. Each resolution must be an integer multiple of the
  /// previous one. Default: 15 s (4 h), 1 min (1 day), 15 min (1 week),
  /// 1 h (6 weeks), 1 day (unlimited).
  std::vector<LevelSpec> levels{
      {15.0, 960},  {60.0, 1440}, {900.0, 672}, {3600.0, 1008}, {86400.0, 0}};
};

/// One resolution level's dense bin row: the fold every multiscale consumer
/// shares. Bin i covers [i*res, (i+1)*res); skipped bins are padded with
/// empties so indexing stays dense; bins beyond retention are evicted (the
/// data survives only in coarser levels).
struct LevelBins {
  LevelSpec spec{1.0, 0};
  /// Index of the first retained bin.
  std::int64_t first_bin = 0;
  std::deque<Aggregate> bins;

  std::int64_t bin_index(double time_s) const;
  /// Left-folds one sample into its bin (padding forward as needed), then
  /// evicts beyond retention — the legacy per-append discipline.
  void add(double time_s, double value);
  /// Batch fold over a time-sorted column pair: identical final state to
  /// calling add() per sample (the per-bin fold is kept in registers and
  /// written back once per bin; eviction runs once at the end, which only
  /// changes *when* bins are popped, never which ones survive).
  void add_column(const double* times_s, const double* values, std::size_t n);
  void evict();
};

/// Per-bin means from one level over a query window; bins without data are
/// skipped. Times are bin starts.
struct BinnedMeans {
  std::vector<double> times_s;
  std::vector<double> means;
};

/// Validates a MultiScaleConfig (positive resolutions, integer >1 level
/// ratios) and returns the level rows ready for folding.
std::vector<LevelBins> make_level_bins(const MultiScaleConfig& config);

}  // namespace epm::telemetry
