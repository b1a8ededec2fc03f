#include "reference/telemetry/legacy_store.h"

#include <algorithm>
#include <cmath>

#include "core/parallel.h"
#include "core/require.h"

namespace epm::telemetry {

namespace {

/// Locates the levels used by the canned band queries; falls back to the
/// coarsest when an exact resolution is absent.
void find_band_levels(const MultiScaleConfig& config, std::size_t& daily_level,
                      std::size_t& hourly_level) {
  require(!config.levels.empty(), "TelemetryStore: config has no levels");
  daily_level = hourly_level = config.levels.size() - 1;
  for (std::size_t l = 0; l < config.levels.size(); ++l) {
    if (std::abs(config.levels[l].resolution_s - 3600.0) < 1e-9) hourly_level = l;
    if (std::abs(config.levels[l].resolution_s - 86400.0) < 1e-9) daily_level = l;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// LegacyTelemetryStore

LegacyTelemetryStore::LegacyTelemetryStore(MultiScaleConfig per_counter_config,
                                           const TelemetryTuning& /*tuning*/)
    : config_(std::move(per_counter_config)) {
  find_band_levels(config_, daily_level_, hourly_level_);
}

void LegacyTelemetryStore::append(CounterKey key, double time_s, double value,
                                  bool degraded) {
  auto [it, inserted] = shards_[shard_of(key)].try_emplace(key, config_);
  it->second.append(time_s, value);
  ++total_samples_;
  if (degraded) ++degraded_samples_;
}

void LegacyTelemetryStore::bulk_append(const std::vector<Sample>& samples,
                                       ThreadPool& pool) {
  if (samples.empty()) return;
  require(samples.size() <= 0xffffffffu,
          "TelemetryStore::bulk_append: batch too large for 32-bit indices");

  // Phase 1: partition indices by shard, in parallel over input slices.
  // Concatenating each shard's slice-lists in slice order restores the
  // global input order per shard, so the result cannot depend on how many
  // slices (= threads) scanned the input. Degraded samples are counted
  // per slice here (phase 2 runs shards concurrently, so a shared counter
  // there would race) and summed serially below.
  const std::size_t slices = pool.thread_count();
  std::vector<std::array<std::vector<std::uint32_t>, kShards>> partition(slices);
  std::vector<std::uint64_t> degraded_per_slice(slices, 0);
  const std::size_t per_slice = (samples.size() + slices - 1) / slices;
  pool.parallel_for(slices, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      const std::size_t lo = s * per_slice;
      const std::size_t hi = std::min(samples.size(), lo + per_slice);
      for (std::size_t i = lo; i < hi; ++i) {
        partition[s][shard_of(samples[i].key)].push_back(
            static_cast<std::uint32_t>(i));
        if (samples[i].degraded) ++degraded_per_slice[s];
      }
    }
  });

  // Phase 2: apply whole shards concurrently. Each shard map is touched by
  // exactly one task, so no synchronization is needed.
  pool.parallel_for(kShards, [&](std::size_t begin, std::size_t end) {
    for (std::size_t shard = begin; shard < end; ++shard) {
      auto& map = shards_[shard];
      for (std::size_t s = 0; s < slices; ++s) {
        for (const std::uint32_t i : partition[s][shard]) {
          const Sample& sample = samples[i];
          auto [it, inserted] = map.try_emplace(sample.key, config_);
          it->second.append(sample.time_s, sample.value);
        }
      }
    }
  });

  total_samples_ += samples.size();
  for (const std::uint64_t n : degraded_per_slice) degraded_samples_ += n;
}

void LegacyTelemetryStore::bulk_append(const std::vector<Sample>& samples,
                                       std::size_t threads) {
  ThreadPool pool(resolve_thread_count(static_cast<std::int64_t>(threads)));
  bulk_append(samples, pool);
}

std::size_t LegacyTelemetryStore::series_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard.size();
  return total;
}

const MultiScaleSeries& LegacyTelemetryStore::series(CounterKey key) const {
  const auto& shard = shards_[shard_of(key)];
  auto it = shard.find(key);
  require(it != shard.end(), "TelemetryStore: unknown counter");
  return it->second;
}

std::size_t LegacyTelemetryStore::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& [key, s] : shard) total += s.memory_bytes();
  }
  return total;
}

Aggregate LegacyTelemetryStore::range(CounterKey key, double t0_s, double t1_s) const {
  return series(key).range(t0_s, t1_s);
}

BinnedMeans LegacyTelemetryStore::daily_trend(CounterKey key,
                                                               double t0_s,
                                                               double t1_s) const {
  return series(key).means_at_level(daily_level_, t0_s, t1_s);
}

BinnedMeans LegacyTelemetryStore::hourly_pattern(CounterKey key,
                                                                  double t0_s,
                                                                  double t1_s) const {
  return series(key).means_at_level(hourly_level_, t0_s, t1_s);
}

// ---------------------------------------------------------------------------
// RawStore

void RawStore::append(CounterKey key, double time_s, double value) {
  auto& col = columns_[key];
  require(col.times_s.empty() || time_s >= col.times_s.back(),
          "RawStore: timestamps must be non-decreasing");
  col.times_s.push_back(time_s);
  col.values.push_back(value);
  ++total_samples_;
}

std::size_t RawStore::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& [key, col] : columns_) {
    total += (col.times_s.capacity() + col.values.capacity()) * sizeof(double);
  }
  return total;
}

RawStore::Stats RawStore::range(CounterKey key, double t0_s, double t1_s) const {
  auto it = columns_.find(key);
  require(it != columns_.end(), "RawStore: unknown counter");
  const Column& col = it->second;
  Stats stats;
  double sum = 0.0;
  // Binary-search the window start, then scan (times are sorted).
  const auto begin =
      std::lower_bound(col.times_s.begin(), col.times_s.end(), t0_s);
  for (auto t = begin; t != col.times_s.end() && *t < t1_s; ++t) {
    const double v = col.values[static_cast<std::size_t>(t - col.times_s.begin())];
    if (stats.count == 0) {
      stats.min = stats.max = v;
    } else {
      stats.min = std::min(stats.min, v);
      stats.max = std::max(stats.max, v);
    }
    sum += v;
    ++stats.count;
  }
  if (stats.count > 0) stats.mean = sum / static_cast<double>(stats.count);
  return stats;
}

}  // namespace epm::telemetry
