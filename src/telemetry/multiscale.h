// Multi-scale time-series queries (paper §5.3).
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
// Each counter is queried through a ladder of aggregate levels (e.g. 15 s
// -> 1 min -> 15 min -> 1 h -> 1 d). Range queries are answered from the
// finest level whose retention still covers the request; each level keeps
// only its trailing `retention_bins` bins.
//
// This header holds what every banded consumer shares: the `Aggregate`
// fold and the level configuration. The columnar store (block.h) folds
// bins at query time from its compressed blocks; the per-sample cascade
// that stores every level (MultiScaleSeries) lives only in the
// epm_reference test library, as the independent equivalence oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace epm::telemetry {

/// min/max/sum/count aggregate; the fold every band query answers with.
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

/// Per-bin means from one level over a query window; bins without data are
/// skipped. Times are bin starts.
struct BinnedMeans {
  std::vector<double> times_s;
  std::vector<double> means;
};

/// Validates a MultiScaleConfig (at least one level, positive resolutions,
/// integer >1 level ratios); throws std::invalid_argument otherwise.
void validate(const MultiScaleConfig& config);

}  // namespace epm::telemetry
