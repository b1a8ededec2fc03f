#include "telemetry/multiscale.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"

namespace epm::telemetry {

void Aggregate::add(double v) {
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  sum += v;
  ++count;
}

void Aggregate::merge(const Aggregate& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  sum += other.sum;
  count += other.count;
}

std::int64_t LevelBins::bin_index(double time_s) const {
  return static_cast<std::int64_t>(std::floor(time_s / spec.resolution_s));
}

namespace {

/// Grows `lvl.bins` (padding with empties) so `bin` is addressable, and
/// returns its dense index. Requires bin >= the last touched bin.
std::size_t reserve_bin(LevelBins& lvl, std::int64_t bin) {
  if (lvl.bins.empty()) {
    lvl.first_bin = bin;
    lvl.bins.emplace_back();
  } else {
    const std::int64_t last =
        lvl.first_bin + static_cast<std::int64_t>(lvl.bins.size()) - 1;
    ensure(bin >= last, "LevelBins: time went backwards within a level");
    for (std::int64_t b = last; b < bin; ++b) lvl.bins.emplace_back();
  }
  return static_cast<std::size_t>(bin - lvl.first_bin);
}

}  // namespace

void LevelBins::add(double time_s, double value) {
  const std::size_t idx = reserve_bin(*this, bin_index(time_s));
  bins[idx].add(value);
  evict();
}

void LevelBins::add_column(const double* times_s, const double* values,
                           std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    const std::int64_t bin = bin_index(times_s[i]);
    const std::size_t idx = reserve_bin(*this, bin);
    // Fold the bin's run in a register-resident aggregate, seeded from any
    // existing content so the per-sample order (and therefore every bit of
    // the sum) matches the one-at-a-time path.
    Aggregate agg = bins[idx];
    do {
      agg.add(values[i]);
      ++i;
    } while (i < n && bin_index(times_s[i]) == bin);
    bins[idx] = agg;
  }
  evict();
}

void LevelBins::evict() {
  if (spec.retention_bins == 0) return;
  while (bins.size() > spec.retention_bins) {
    bins.pop_front();
    ++first_bin;
  }
}

std::vector<LevelBins> make_level_bins(const MultiScaleConfig& config) {
  require(!config.levels.empty(), "MultiScaleSeries: need at least one level");
  std::vector<LevelBins> levels;
  double prev = 0.0;
  for (const auto& spec : config.levels) {
    require(spec.resolution_s > 0.0, "MultiScaleSeries: resolution must be positive");
    if (prev > 0.0) {
      const double ratio = spec.resolution_s / prev;
      require(std::abs(ratio - std::round(ratio)) < 1e-9 && ratio >= 2.0 - 1e-9,
              "MultiScaleSeries: each level must be an integer (>1) multiple of "
              "the previous");
    }
    prev = spec.resolution_s;
    levels.push_back(LevelBins{spec, 0, {}});
  }
  return levels;
}

}  // namespace epm::telemetry
