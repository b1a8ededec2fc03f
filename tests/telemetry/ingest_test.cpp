// Partitioned bulk ingest (ColumnarTelemetryStore::bulk_append): pass 1
// lists each contiguous input slice's sample indices per shard, pass 2
// applies whole shards in parallel reading the slice lists in slice order.
// Whatever the thread count, the store must end up bit-identical to serial
// append() — including the skewed layouts where every sample lands in one
// shard, stride-64 server enumerations, and batches smaller than the slice
// count. A bad batch must surface the series' typed error, not hang a
// worker. Suite name "PartitionIngest" is in the TSan/ASan CI regexes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "telemetry/store.h"

namespace epm::telemetry {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 3, 4, 8};

/// Small blocks so batches cross many seal boundaries (compression, banding
/// and the streaming detector all run inside the shard tasks).
TelemetryTuning small_blocks() {
  TelemetryTuning tuning;
  tuning.block_capacity = 16;
  return tuning;
}

/// Tick-major batch over `servers` x `counters`; every eleventh sample is
/// flagged degraded so the per-slice degraded tallies are exercised.
std::vector<Sample> tick_major_batch(const std::vector<std::uint32_t>& servers,
                                     std::uint32_t counters, std::size_t ticks) {
  std::vector<Sample> samples;
  samples.reserve(servers.size() * counters * ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    for (const std::uint32_t s : servers) {
      for (std::uint32_t c = 0; c < counters; ++c) {
        const std::size_t n = samples.size();
        samples.push_back({make_key(s, c), 15.0 * static_cast<double>(t),
                           static_cast<double>((t * 31 + s * 7 + c * 3) % 101),
                           n % 11 == 0});
      }
    }
  }
  return samples;
}

bool aggregates_identical(const Aggregate& a, const Aggregate& b) {
  return a.count == b.count && a.sum == b.sum && a.min == b.min && a.max == b.max;
}

bool events_identical(const std::vector<AnomalyEvent>& a,
                      const std::vector<AnomalyEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].time_s != b[i].time_s ||
        a[i].value != b[i].value || a[i].zscore != b[i].zscore) {
      return false;
    }
  }
  return true;
}

/// Asserts `bulk` holds exactly what serial append() of `samples` builds.
void expect_matches_serial(const std::vector<Sample>& samples,
                           const ColumnarTelemetryStore& bulk,
                           std::size_t threads) {
  ColumnarTelemetryStore serial({}, small_blocks());
  for (const Sample& sample : samples) {
    serial.append(sample.key, sample.time_s, sample.value, sample.degraded);
  }
  ASSERT_EQ(bulk.total_samples(), serial.total_samples()) << threads << " threads";
  ASSERT_EQ(bulk.series_count(), serial.series_count()) << threads << " threads";
  EXPECT_EQ(bulk.degraded_samples(), serial.degraded_samples()) << threads << " threads";
  EXPECT_EQ(bulk.sealed_samples(), serial.sealed_samples()) << threads << " threads";
  EXPECT_EQ(bulk.compressed_payload_bytes(), serial.compressed_payload_bytes())
      << threads << " threads";
  double horizon_s = 0.0;
  std::vector<CounterKey> keys;
  for (const Sample& sample : samples) {
    horizon_s = std::max(horizon_s, sample.time_s + 15.0);
    keys.push_back(sample.key);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const CounterKey key : keys) {
    ASSERT_TRUE(aggregates_identical(bulk.range(key, 0.0, horizon_s),
                                     serial.range(key, 0.0, horizon_s)))
        << "range, key " << key << ", " << threads << " threads";
    ASSERT_TRUE(aggregates_identical(bulk.raw_range(key, 0.0, horizon_s),
                                     serial.raw_range(key, 0.0, horizon_s)))
        << "raw_range, key " << key << ", " << threads << " threads";
    const auto& a = bulk.column_series(key);
    const auto& b = serial.column_series(key);
    ASSERT_EQ(a.blocks().size(), b.blocks().size()) << "key " << key;
    for (std::size_t i = 0; i < a.blocks().size(); ++i) {
      ASSERT_EQ(a.blocks()[i].time_bytes, b.blocks()[i].time_bytes) << "key " << key;
      ASSERT_EQ(a.blocks()[i].value_bytes, b.blocks()[i].value_bytes) << "key " << key;
    }
  }
  EXPECT_TRUE(events_identical(bulk.anomalies(), serial.anomalies()))
      << threads << " threads";
}

void expect_bulk_matches_serial_at_every_thread_count(
    const std::vector<Sample>& samples) {
  for (const std::size_t threads : kThreadCounts) {
    ColumnarTelemetryStore bulk({}, small_blocks());
    bulk.bulk_append(samples, threads);
    expect_matches_serial(samples, bulk, threads);
  }
}

TEST(PartitionIngest, MatchesSerialAppendWhenEverySampleLandsInOneShard) {
  // Twelve servers that all hash to shard 0: pass 2 runs one busy shard
  // task next to 63 empty ones, and every slice list but shard 0's is empty.
  std::vector<std::uint32_t> servers;
  for (std::uint32_t s = 0; servers.size() < 12; ++s) {
    if (telemetry_shard_of(make_key(s, 0)) == 0) servers.push_back(s);
  }
  const auto samples = tick_major_batch(servers, 5, 40);
  for (const Sample& sample : samples) {
    ASSERT_EQ(telemetry_shard_of(sample.key), 0u);
  }
  expect_bulk_matches_serial_at_every_thread_count(samples);
}

TEST(PartitionIngest, MatchesSerialAppendForStride64ServerIds) {
  // Column-major rack enumeration: servers 0, 64, 128, ... (the layout
  // that once serialized on one shard before the server-id mix).
  std::vector<std::uint32_t> servers;
  for (std::uint32_t s = 0; s < 48; ++s) servers.push_back(s * 64);
  expect_bulk_matches_serial_at_every_thread_count(tick_major_batch(servers, 3, 30));
}

TEST(PartitionIngest, MatchesSerialAppendAcrossBatchSizes) {
  // No small-batch cutoff: a batch with fewer samples than slices leaves
  // trailing slices empty, and sizes around the old 4096-sample serial
  // floor go through the same two passes as everything else.
  std::vector<std::uint32_t> servers;
  for (std::uint32_t s = 0; s < 100; ++s) servers.push_back(s);
  const auto full = tick_major_batch(servers, 4, 12);  // 4,800 samples
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{7}, std::size_t{64}, std::size_t{65},
                              std::size_t{4095}, std::size_t{4096},
                              std::size_t{4097}, full.size()}) {
    const std::vector<Sample> batch(full.begin(),
                                    full.begin() + static_cast<std::ptrdiff_t>(n));
    SCOPED_TRACE("batch size " + std::to_string(n));
    expect_bulk_matches_serial_at_every_thread_count(batch);
  }
}

TEST(PartitionIngest, ConsecutiveBatchesOnOneSharedPoolMatchSerial) {
  std::vector<std::uint32_t> servers;
  for (std::uint32_t s = 0; s < 70; ++s) servers.push_back(s);
  const auto samples = tick_major_batch(servers, 4, 20);
  for (const std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    ColumnarTelemetryStore bulk({}, small_blocks());
    const std::size_t half = samples.size() / 2;
    bulk.bulk_append({samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(half)},
                     pool);
    bulk.bulk_append({samples.begin() + static_cast<std::ptrdiff_t>(half), samples.end()},
                     pool);
    expect_matches_serial(samples, bulk, threads);
  }
}

TEST(PartitionIngest, NonMonotonicTimestampThrowsTypedErrorWithoutHanging) {
  std::vector<std::uint32_t> servers;
  for (std::uint32_t s = 0; s < 80; ++s) servers.push_back(s);
  auto samples = tick_major_batch(servers, 4, 30);
  // One late sample for one series: its timestamp goes backwards. Placed
  // in the last slice so earlier slices' samples of the same shard apply.
  const std::size_t bad = samples.size() - 3;
  samples[bad].time_s = 0.0;
  for (const std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    ColumnarTelemetryStore store({}, small_blocks());
    EXPECT_THROW(store.bulk_append(samples, pool), std::invalid_argument)
        << threads << " threads";
    // The failed batch is not counted, and the pool still serves the next
    // batch: no worker was left waiting on the failed shard.
    EXPECT_EQ(store.total_samples(), 0u);
    auto repaired = samples;
    repaired[bad].time_s = repaired[bad - 1].time_s;
    ColumnarTelemetryStore fresh({}, small_blocks());
    fresh.bulk_append(repaired, pool);
    expect_matches_serial(repaired, fresh, threads);
  }
}

}  // namespace
}  // namespace epm::telemetry
