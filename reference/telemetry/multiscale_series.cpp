#include "reference/telemetry/multiscale_series.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"

namespace epm::telemetry {

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

void LevelBins::evict() {
  if (spec.retention_bins == 0) return;
  while (bins.size() > spec.retention_bins) {
    bins.pop_front();
    ++first_bin;
  }
}

std::vector<LevelBins> make_level_bins(const MultiScaleConfig& config) {
  validate(config);
  std::vector<LevelBins> levels;
  for (const auto& spec : config.levels) levels.push_back(LevelBins{spec, 0, {}});
  return levels;
}

MultiScaleSeries::MultiScaleSeries(MultiScaleConfig config)
    : levels_(make_level_bins(config)) {}

void MultiScaleSeries::append(double time_s, double value) {
  require(time_s >= 0.0, "MultiScaleSeries: negative time");
  require(time_s >= last_time_s_, "MultiScaleSeries: timestamps must be non-decreasing");
  last_time_s_ = time_s;
  ++total_samples_;
  // Cascade: every level receives every sample; each keeps its own binning.
  // (O(levels) per append; levels is a small constant.)
  for (auto& lvl : levels_) lvl.add(time_s, value);
}

double MultiScaleSeries::level_resolution_s(std::size_t level) const {
  require(level < levels_.size(), "MultiScaleSeries: level out of range");
  return levels_[level].spec.resolution_s;
}

std::size_t MultiScaleSeries::level_bins(std::size_t level) const {
  require(level < levels_.size(), "MultiScaleSeries: level out of range");
  return levels_[level].bins.size();
}

Aggregate MultiScaleSeries::range_at_level(std::size_t level, double t0_s,
                                           double t1_s) const {
  require(level < levels_.size(), "MultiScaleSeries: level out of range");
  require(t1_s >= t0_s, "MultiScaleSeries: inverted range");
  const LevelBins& lvl = levels_[level];
  Aggregate out;
  if (lvl.bins.empty()) return out;
  const std::int64_t lo = std::max(lvl.bin_index(t0_s), lvl.first_bin);
  const std::int64_t hi_bin = lvl.bin_index(std::nextafter(t1_s, t0_s));
  const std::int64_t hi =
      std::min(hi_bin, lvl.first_bin + static_cast<std::int64_t>(lvl.bins.size()) - 1);
  for (std::int64_t b = lo; b <= hi; ++b) {
    out.merge(lvl.bins[static_cast<std::size_t>(b - lvl.first_bin)]);
  }
  return out;
}

Aggregate MultiScaleSeries::range(double t0_s, double t1_s) const {
  // Finest level whose retained window still reaches back to t0_s wins.
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const LevelBins& lvl = levels_[l];
    if (lvl.bins.empty()) continue;
    const double retained_start =
        static_cast<double>(lvl.first_bin) * lvl.spec.resolution_s;
    if (retained_start <= t0_s + 1e-9) return range_at_level(l, t0_s, t1_s);
  }
  // Nothing covers the start: answer from the coarsest level (best effort).
  return range_at_level(levels_.size() - 1, t0_s, t1_s);
}

MultiScaleSeries::BinnedMeans MultiScaleSeries::means_at_level(std::size_t level,
                                                               double t0_s,
                                                               double t1_s) const {
  require(level < levels_.size(), "MultiScaleSeries: level out of range");
  require(t1_s >= t0_s, "MultiScaleSeries: inverted range");
  const LevelBins& lvl = levels_[level];
  BinnedMeans out;
  if (lvl.bins.empty()) return out;
  const std::int64_t lo = std::max(lvl.bin_index(t0_s), lvl.first_bin);
  const std::int64_t hi =
      std::min(lvl.bin_index(std::nextafter(t1_s, t0_s)),
               lvl.first_bin + static_cast<std::int64_t>(lvl.bins.size()) - 1);
  for (std::int64_t b = lo; b <= hi; ++b) {
    const Aggregate& agg = lvl.bins[static_cast<std::size_t>(b - lvl.first_bin)];
    if (agg.count == 0) continue;
    out.times_s.push_back(static_cast<double>(b) * lvl.spec.resolution_s);
    out.means.push_back(agg.mean());
  }
  return out;
}

std::size_t MultiScaleSeries::memory_bytes() const {
  std::size_t bins = 0;
  for (const auto& lvl : levels_) bins += lvl.bins.size();
  return bins * sizeof(Aggregate);
}

}  // namespace epm::telemetry
