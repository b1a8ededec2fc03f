#include "telemetry/store.h"

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

ColumnarTelemetryStore::ColumnarTelemetryStore(MultiScaleConfig per_counter_config,
                                               const TelemetryTuning& tuning)
    : config_(std::move(per_counter_config)), tuning_(tuning) {
  find_band_levels(config_, daily_level_, hourly_level_);
}

ColumnSeries& ColumnarTelemetryStore::series_slot(std::size_t shard, CounterKey key) {
  auto [it, inserted] = shards_[shard].try_emplace(key, config_, tuning_);
  return it->second;
}

void ColumnarTelemetryStore::append(CounterKey key, double time_s, double value,
                                    bool degraded) {
  series_slot(shard_of(key), key).append(time_s, value);
  ++total_samples_;
  if (degraded) ++degraded_samples_;
}

void ColumnarTelemetryStore::bulk_append(const std::vector<Sample>& samples,
                                         ThreadPool& pool) {
  if (samples.empty()) return;
  require(samples.size() <= 0xffffffffu,
          "TelemetryStore::bulk_append: batch too large for 32-bit indices");

  // Pass 1: partition indices by shard, in parallel over contiguous input
  // slices. Concatenating each shard's slice lists in slice order restores
  // the batch order per shard, so the result cannot depend on how many
  // slices (= threads) scanned the input. Degraded samples are counted per
  // slice here (pass 2 runs shards concurrently, so a shared counter there
  // would race) and summed serially below.
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

  // Pass 2: apply whole shards concurrently. Each shard map is touched by
  // exactly one task, so no synchronization is needed.
  pool.parallel_for(kShards, [&](std::size_t begin, std::size_t end) {
    for (std::size_t shard = begin; shard < end; ++shard) {
      for (std::size_t s = 0; s < slices; ++s) {
        for (const std::uint32_t i : partition[s][shard]) {
          const Sample& sample = samples[i];
          series_slot(shard, sample.key).append(sample.time_s, sample.value);
        }
      }
    }
  });

  total_samples_ += samples.size();
  for (const std::uint64_t n : degraded_per_slice) degraded_samples_ += n;
}

void ColumnarTelemetryStore::bulk_append(const std::vector<Sample>& samples,
                                         std::size_t threads) {
  ThreadPool pool(resolve_thread_count(static_cast<std::int64_t>(threads)));
  bulk_append(samples, pool);
}

void ColumnarTelemetryStore::flush() {
  for (auto& shard : shards_) {
    for (auto& [key, s] : shard) s.flush();
  }
}

std::size_t ColumnarTelemetryStore::series_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard.size();
  return total;
}

const ColumnSeries& ColumnarTelemetryStore::column_series(CounterKey key) const {
  const auto& shard = shards_[shard_of(key)];
  auto it = shard.find(key);
  require(it != shard.end(), "TelemetryStore: unknown counter");
  return it->second;
}

std::size_t ColumnarTelemetryStore::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& [key, s] : shard) total += s.memory_bytes();
  }
  return total;
}

std::size_t ColumnarTelemetryStore::compressed_payload_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& [key, s] : shard) total += s.compressed_payload_bytes();
  }
  return total;
}

std::uint64_t ColumnarTelemetryStore::sealed_samples() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& [key, s] : shard) {
      total += s.total_samples() - s.open_samples();
    }
  }
  return total;
}

Aggregate ColumnarTelemetryStore::range(CounterKey key, double t0_s, double t1_s) const {
  return column_series(key).range(t0_s, t1_s);
}

BinnedMeans ColumnarTelemetryStore::daily_trend(CounterKey key, double t0_s,
                                                double t1_s) const {
  return column_series(key).means_at_level(daily_level_, t0_s, t1_s);
}

BinnedMeans ColumnarTelemetryStore::hourly_pattern(CounterKey key, double t0_s,
                                                   double t1_s) const {
  return column_series(key).means_at_level(hourly_level_, t0_s, t1_s);
}

Aggregate ColumnarTelemetryStore::raw_range(CounterKey key, double t0_s,
                                            double t1_s) const {
  return column_series(key).raw_range(t0_s, t1_s);
}

std::vector<AnomalyEvent> ColumnarTelemetryStore::anomalies() const {
  std::vector<AnomalyEvent> out;
  for (const auto& shard : shards_) {
    for (const auto& [key, s] : shard) {
      for (AnomalyEvent event : s.anomalies()) {
        event.key = key;
        out.push_back(event);
      }
    }
  }
  // The shard maps are unordered; a stable sort on (time, key) pins the
  // report order while keeping each series' emission order for ties.
  std::stable_sort(out.begin(), out.end(),
                   [](const AnomalyEvent& a, const AnomalyEvent& b) {
                     if (a.time_s != b.time_s) return a.time_s < b.time_s;
                     return a.key < b.key;
                   });
  return out;
}

}  // namespace epm::telemetry
