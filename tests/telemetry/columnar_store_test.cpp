// ColumnarTelemetryStore vs the reference LegacyTelemetryStore: the two
// must answer the shared band-query API bit-identically on equal input, at
// every ingest thread count (1/2/8 partition slices). Also the shard-mix
// fix: stride-64 server enumerations must spread across shards instead of
// serializing on one. Suite names match the TSan/ASan CI regexes
// ("Telemetry") so the partitioned ingest races under both sanitizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "core/parallel.h"
#include "reference/telemetry/legacy_store.h"
#include "telemetry/store.h"
#include "workload/fleet_counters.h"

namespace epm::telemetry {
namespace {

bool aggregates_identical(const Aggregate& a, const Aggregate& b) {
  return a.count == b.count && a.sum == b.sum && a.min == b.min && a.max == b.max;
}

bool means_identical(const BinnedMeans& a, const BinnedMeans& b) {
  return a.times_s == b.times_s && a.means == b.means;
}

workload::FleetCountersBatch reference_batch() {
  workload::FleetCountersConfig mix;
  mix.servers = 40;
  mix.counters_per_server = 8;
  mix.ticks = 20;  // 6,400 samples
  mix.seed = 0xabc;
  return workload::synthesize_fleet_counters(mix);
}

template <typename StoreA, typename StoreB>
void expect_identical_answers(const StoreA& a, const StoreB& b,
                              std::uint32_t servers, std::uint32_t counters,
                              double horizon_s) {
  ASSERT_EQ(a.total_samples(), b.total_samples());
  ASSERT_EQ(a.series_count(), b.series_count());
  for (std::uint32_t s = 0; s < servers; ++s) {
    for (std::uint32_t c = 0; c < counters; ++c) {
      const auto key = make_key(s, c);
      ASSERT_TRUE(aggregates_identical(a.range(key, 0.0, horizon_s),
                                       b.range(key, 0.0, horizon_s)))
          << "range, server " << s << " counter " << c;
      ASSERT_TRUE(
          aggregates_identical(a.range(key, horizon_s - 120.0, horizon_s),
                               b.range(key, horizon_s - 120.0, horizon_s)))
          << "trailing range, server " << s << " counter " << c;
      ASSERT_TRUE(means_identical(a.daily_trend(key, 0.0, horizon_s),
                                  b.daily_trend(key, 0.0, horizon_s)))
          << "daily_trend, server " << s << " counter " << c;
      ASSERT_TRUE(means_identical(a.hourly_pattern(key, 0.0, horizon_s),
                                  b.hourly_pattern(key, 0.0, horizon_s)))
          << "hourly_pattern, server " << s << " counter " << c;
    }
  }
}

TEST(TelemetryColumnarStore, BitIdenticalToLegacyAtEveryThreadCount) {
  const auto batch = reference_batch();
  const double horizon_s = 20.0 * 15.0 + 15.0;

  LegacyTelemetryStore legacy;
  for (const auto& sample : batch.samples) {
    legacy.append(sample.key, sample.time_s, sample.value, sample.degraded);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ColumnarTelemetryStore columnar;
    columnar.bulk_append(batch.samples, threads);
    expect_identical_answers(legacy, columnar, 40, 8, horizon_s);
  }
}

TEST(TelemetryColumnarStore, LegacyBulkAppendMatchesLegacySerial) {
  const auto batch = reference_batch();
  const double horizon_s = 20.0 * 15.0 + 15.0;
  LegacyTelemetryStore serial;
  for (const auto& sample : batch.samples) {
    serial.append(sample.key, sample.time_s, sample.value, sample.degraded);
  }
  LegacyTelemetryStore parallel;
  parallel.bulk_append(batch.samples, /*threads=*/2);
  expect_identical_answers(serial, parallel, 40, 8, horizon_s);
}

TEST(TelemetryColumnarStore, BulkAppendMatchesSerialAppendOnSharedPool) {
  const auto batch = reference_batch();
  ColumnarTelemetryStore serial;
  for (const auto& sample : batch.samples) {
    serial.append(sample.key, sample.time_s, sample.value, sample.degraded);
  }
  ThreadPool pool(4);
  ColumnarTelemetryStore pooled;
  pooled.bulk_append(batch.samples, pool);
  expect_identical_answers(serial, pooled, 40, 8, 20.0 * 15.0 + 15.0);
  EXPECT_EQ(serial.degraded_samples(), pooled.degraded_samples());
}

TEST(TelemetryColumnarStore, AnomaliesAreDeterministicAcrossThreadCounts) {
  workload::FleetCountersConfig mix;
  mix.servers = 30;
  mix.counters_per_server = 6;
  mix.ticks = 80;
  mix.seed = 0xdead;
  mix.spike_probability = 0.05;
  const auto batch = workload::synthesize_fleet_counters(mix);
  ASSERT_FALSE(batch.spikes.empty());

  std::vector<AnomalyEvent> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ColumnarTelemetryStore store;
    store.bulk_append(batch.samples, threads);
    store.flush();
    const auto events = store.anomalies();
    if (threads == 1) {
      reference = events;
      // Every injected ground-truth spike is recalled.
      for (const auto& spike : batch.spikes) {
        const bool hit =
            std::any_of(events.begin(), events.end(), [&](const AnomalyEvent& e) {
              return e.key == spike.key && e.time_s == spike.time_s;
            });
        EXPECT_TRUE(hit) << "missed spike on key " << spike.key;
      }
      // Events arrive ordered by (time, key) — deterministic despite the
      // unordered shard maps.
      for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_TRUE(events[i - 1].time_s < events[i].time_s ||
                    (events[i - 1].time_s == events[i].time_s &&
                     events[i - 1].key <= events[i].key));
      }
    } else {
      ASSERT_EQ(events.size(), reference.size()) << threads << " threads";
      for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].key, reference[i].key);
        EXPECT_EQ(events[i].time_s, reference[i].time_s);
        EXPECT_EQ(events[i].value, reference[i].value);
        EXPECT_EQ(events[i].zscore, reference[i].zscore);
      }
    }
  }
}

TEST(TelemetryColumnarStore, RawRangeMatchesRawStoreScan) {
  const auto batch = reference_batch();
  ColumnarTelemetryStore store(MultiScaleConfig{},
                               TelemetryTuning{.block_capacity = 16});
  RawStore raw;
  for (const auto& sample : batch.samples) {
    store.append(sample.key, sample.time_s, sample.value);
    raw.append(sample.key, sample.time_s, sample.value);
  }
  const double horizon_s = 20.0 * 15.0 + 15.0;
  for (std::uint32_t s = 0; s < 40; s += 7) {
    const auto key = make_key(s, 3);
    const auto got = store.raw_range(key, 30.0, horizon_s - 30.0);
    const auto expect = raw.range(key, 30.0, horizon_s - 30.0);
    EXPECT_EQ(got.count, expect.count);
    EXPECT_EQ(got.min, expect.min);
    EXPECT_EQ(got.max, expect.max);
    // Fleet counters are integer-valued, so the sum is grouping-free.
    EXPECT_EQ(got.mean(), expect.mean);
  }
}

TEST(TelemetryColumnarStore, TracksFaultAccountingLikeLegacy) {
  ColumnarTelemetryStore store;
  store.append(make_key(0, 0), 0.0, 1.0, /*degraded=*/true);
  store.append(make_key(0, 0), 15.0, 2.0);
  store.record_dropout(3);
  store.record_shed(2);
  store.record_abandoned(1);
  store.record_retried(5);
  EXPECT_EQ(store.total_samples(), 2u);
  EXPECT_EQ(store.degraded_samples(), 1u);
  EXPECT_EQ(store.dropped_samples(), 3u);
  EXPECT_EQ(store.shed_requests(), 2u);
  EXPECT_EQ(store.abandoned_requests(), 1u);
  EXPECT_EQ(store.retried_requests(), 5u);
  EXPECT_TRUE(store.contains(make_key(0, 0)));
  EXPECT_FALSE(store.contains(make_key(1, 0)));
  EXPECT_THROW(store.column_series(make_key(1, 0)), std::invalid_argument);
  EXPECT_EQ(store.column_series(make_key(0, 0)).total_samples(), 2u);
}

TEST(TelemetryShardBalance, HashMixSpreadsStride64Enumerations) {
  // The regression the mix fixes: servers enumerated with stride 64 (e.g.
  // one column of a 64-wide rack grid) all satisfy server % 64 == 0, so the
  // old modulo layout serialized them on a single shard.
  constexpr std::size_t kServers = 4096;
  std::array<std::size_t, kTelemetryShards> load{};
  std::set<std::size_t> shards_hit;
  for (std::size_t i = 0; i < kServers; ++i) {
    const auto server = static_cast<std::uint32_t>(i * 64);
    const std::size_t shard = telemetry_shard_of(make_key(server, 0));
    ASSERT_LT(shard, kTelemetryShards);
    ++load[shard];
    shards_hit.insert(shard);
    // The modulo layout would have put every one of these on shard 0.
    EXPECT_EQ(server % kTelemetryShards, 0u);
  }
  EXPECT_EQ(shards_hit.size(), kTelemetryShards);  // all shards used
  // No shard carries more than 2x the fair share (64 per shard).
  const std::size_t fair = kServers / kTelemetryShards;
  for (const std::size_t l : load) {
    EXPECT_LE(l, 2 * fair);
    EXPECT_GE(l, fair / 4);
  }
}

TEST(TelemetryShardBalance, ShardOfDependsOnlyOnServer) {
  // All counters of one server land on one shard (per-series order needs a
  // single drainer per server), and the two stores agree on the layout.
  for (std::uint32_t server : {0u, 1u, 63u, 64u, 1000u, 0xffffffffu}) {
    const std::size_t shard = telemetry_shard_of(make_key(server, 0));
    for (std::uint32_t counter : {1u, 2u, 99u}) {
      EXPECT_EQ(telemetry_shard_of(make_key(server, counter)), shard);
    }
    EXPECT_EQ(LegacyTelemetryStore::shard_of(make_key(server, 7)), shard);
    EXPECT_EQ(ColumnarTelemetryStore::shard_of(make_key(server, 7)), shard);
  }
}

}  // namespace
}  // namespace epm::telemetry
