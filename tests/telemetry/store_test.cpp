#include "telemetry/store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/parallel.h"
#include "reference/telemetry/legacy_store.h"

namespace epm::telemetry {
namespace {

TEST(CounterKey, PackAndUnpack) {
  const CounterKey key = make_key(1234, 56);
  EXPECT_EQ(server_of(key), 1234u);
  EXPECT_EQ(counter_of(key), 56u);
  EXPECT_NE(make_key(1, 2), make_key(2, 1));
}

TEST(TelemetryStore, LazySeriesCreation) {
  TelemetryStore store;
  EXPECT_EQ(store.series_count(), 0u);
  store.append(make_key(0, 0), 0.0, 1.0);
  store.append(make_key(0, 1), 0.0, 2.0);
  store.append(make_key(0, 0), 15.0, 3.0);
  EXPECT_EQ(store.series_count(), 2u);
  EXPECT_EQ(store.total_samples(), 3u);
  EXPECT_TRUE(store.contains(make_key(0, 0)));
  EXPECT_FALSE(store.contains(make_key(9, 9)));
  EXPECT_THROW(store.range(make_key(9, 9), 0.0, 1.0), std::invalid_argument);
}

TEST(TelemetryStore, HourlyPatternQuery) {
  TelemetryStore store;
  const CounterKey key = make_key(1, 1);
  // Two hours: 40 then 80.
  for (int i = 0; i < 2 * 240; ++i) {
    store.append(key, i * 15.0, i < 240 ? 40.0 : 80.0);
  }
  const auto pattern = store.hourly_pattern(key, 0.0, 7200.0);
  ASSERT_EQ(pattern.means.size(), 2u);
  EXPECT_DOUBLE_EQ(pattern.means[0], 40.0);
  EXPECT_DOUBLE_EQ(pattern.means[1], 80.0);
}

TEST(TelemetryStore, DailyTrendQuery) {
  // Coarse samples (15 min) keep this fast: 3 days with rising means.
  MultiScaleConfig config;
  config.levels = {{900.0, 0}, {3600.0, 0}, {86400.0, 0}};
  TelemetryStore store(config);
  const CounterKey key = make_key(2, 7);
  for (int d = 0; d < 3; ++d) {
    for (int i = 0; i < 96; ++i) {
      store.append(key, d * 86400.0 + i * 900.0, 10.0 * (d + 1));
    }
  }
  const auto trend = store.daily_trend(key, 0.0, 3.0 * 86400.0);
  ASSERT_EQ(trend.means.size(), 3u);
  EXPECT_DOUBLE_EQ(trend.means[0], 10.0);
  EXPECT_DOUBLE_EQ(trend.means[2], 30.0);
}

TEST(TelemetryStore, MemoryAccounting) {
  TelemetryStore store;
  store.append(make_key(0, 0), 0.0, 1.0);
  EXPECT_GT(store.memory_bytes(), 0u);
}

TEST(RawStore, RangeScan) {
  RawStore raw;
  const CounterKey key = make_key(3, 3);
  for (int i = 0; i < 100; ++i) {
    raw.append(key, i * 15.0, static_cast<double>(i));
  }
  const auto stats = raw.range(key, 150.0, 300.0);  // samples 10..19
  EXPECT_EQ(stats.count, 10u);
  EXPECT_DOUBLE_EQ(stats.min, 10.0);
  EXPECT_DOUBLE_EQ(stats.max, 19.0);
  EXPECT_DOUBLE_EQ(stats.mean, 14.5);
  EXPECT_EQ(raw.total_samples(), 100u);
  EXPECT_GT(raw.memory_bytes(), 100 * 2 * sizeof(double) - 1);
}

TEST(RawStore, EmptyRangeAndUnknownKey) {
  RawStore raw;
  const CounterKey key = make_key(1, 1);
  raw.append(key, 0.0, 1.0);
  const auto stats = raw.range(key, 100.0, 200.0);
  EXPECT_EQ(stats.count, 0u);
  EXPECT_THROW(raw.range(make_key(5, 5), 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(raw.append(key, -10.0, 1.0), std::invalid_argument);
}

namespace {

/// A deterministic fleet batch in arrival (time-major) order.
std::vector<Sample> fleet_batch(std::uint32_t servers, std::uint32_t counters,
                                std::size_t steps) {
  std::vector<Sample> samples;
  samples.reserve(static_cast<std::size_t>(servers) * counters * steps);
  for (std::size_t i = 0; i < steps; ++i) {
    for (std::uint32_t s = 0; s < servers; ++s) {
      for (std::uint32_t c = 0; c < counters; ++c) {
        samples.push_back({make_key(s, c), static_cast<double>(i) * 15.0,
                           static_cast<double>((i * 31 + s * 7 + c) % 97)});
      }
    }
  }
  return samples;
}

/// Every series aggregate must agree bitwise between two stores.
void expect_stores_identical(const TelemetryStore& a, const TelemetryStore& b,
                             std::uint32_t servers, std::uint32_t counters,
                             double horizon_s) {
  ASSERT_EQ(a.total_samples(), b.total_samples());
  ASSERT_EQ(a.series_count(), b.series_count());
  for (std::uint32_t s = 0; s < servers; ++s) {
    for (std::uint32_t c = 0; c < counters; ++c) {
      const auto key = make_key(s, c);
      const auto lhs = a.range(key, 0.0, horizon_s);
      const auto rhs = b.range(key, 0.0, horizon_s);
      EXPECT_EQ(lhs.count, rhs.count) << "server " << s << " counter " << c;
      EXPECT_DOUBLE_EQ(lhs.sum, rhs.sum) << "server " << s << " counter " << c;
      EXPECT_DOUBLE_EQ(lhs.min, rhs.min) << "server " << s << " counter " << c;
      EXPECT_DOUBLE_EQ(lhs.max, rhs.max) << "server " << s << " counter " << c;
    }
  }
}

}  // namespace

TEST(TelemetryStoreParallel, BulkMatchesSerialAppend) {
  const std::uint32_t servers = 9;
  const std::uint32_t counters = 4;
  const std::size_t steps = 50;
  const auto batch = fleet_batch(servers, counters, steps);

  TelemetryStore serial;
  for (const auto& sample : batch) {
    serial.append(sample.key, sample.time_s, sample.value);
  }
  TelemetryStore bulk;
  bulk.bulk_append(batch, /*threads=*/4);
  expect_stores_identical(serial, bulk, servers, counters, steps * 15.0);
}

TEST(TelemetryStoreParallel, BitIdenticalAcrossThreadCounts) {
  const std::uint32_t servers = 130;  // > kShards so shards hold several servers
  const std::uint32_t counters = 3;
  const std::size_t steps = 20;
  const auto batch = fleet_batch(servers, counters, steps);

  TelemetryStore at1;
  at1.bulk_append(batch, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    TelemetryStore at;
    at.bulk_append(batch, threads);
    expect_stores_identical(at1, at, servers, counters, steps * 15.0);
  }
}

TEST(TelemetryStoreParallel, InterleavesWithSingleAppends) {
  TelemetryStore store;
  store.append(make_key(0, 0), 0.0, 1.0);
  store.bulk_append({{make_key(0, 0), 15.0, 2.0}, {make_key(1, 0), 15.0, 3.0}},
                    2);
  store.append(make_key(1, 0), 30.0, 4.0);
  EXPECT_EQ(store.total_samples(), 4u);
  EXPECT_EQ(store.series_count(), 2u);
  const auto agg = store.range(make_key(0, 0), 0.0, 100.0);
  EXPECT_EQ(agg.count, 2u);
  EXPECT_DOUBLE_EQ(agg.sum, 3.0);
}

TEST(TelemetryStoreParallel, EmptyBatchIsNoOp) {
  TelemetryStore store;
  store.bulk_append({}, 4);
  EXPECT_EQ(store.total_samples(), 0u);
  EXPECT_EQ(store.series_count(), 0u);
}

TEST(TelemetryStoreParallel, SharedPoolReuse) {
  ThreadPool pool(3);
  TelemetryStore store;
  const auto batch = fleet_batch(5, 2, 10);
  auto later = batch;  // second batch continues where the first left off
  for (auto& sample : later) sample.time_s += 10 * 15.0;
  store.bulk_append(batch, pool);
  store.bulk_append(later, pool);
  EXPECT_EQ(store.total_samples(), 2 * batch.size());
}

TEST(StoreAgreement, MultiScaleMatchesRawScan) {
  // The §5.3 claim only holds if the fast path gives the same answers.
  TelemetryStore store;
  RawStore raw;
  const CounterKey key = make_key(7, 7);
  for (int i = 0; i < 1000; ++i) {
    const double v = 50.0 + 30.0 * ((i % 17) / 17.0);
    store.append(key, i * 15.0, v);
    raw.append(key, i * 15.0, v);
  }
  const double t0 = 0.0;
  const double t1 = 1000 * 15.0;
  const auto fast = store.range(key, t0, t1);
  const auto slow = raw.range(key, t0, t1);
  EXPECT_EQ(fast.count, slow.count);
  EXPECT_NEAR(fast.mean(), slow.mean, 1e-9);
  EXPECT_DOUBLE_EQ(fast.min, slow.min);
  EXPECT_DOUBLE_EQ(fast.max, slow.max);
}

}  // namespace
}  // namespace epm::telemetry
