// Reference telemetry stores, kept outside the library as oracles for the
// columnar store (telemetry/store.h):
//
//   * LegacyTelemetryStore — the original design: every sample cascades
//     through a MultiScaleSeries immediately; bulk ingest partitions the
//     batch by shard and applies whole shards per worker. The columnar
//     store must answer its band queries bit-identically (tests, EXP-AA).
//   * RawStore — plain raw storage (15 s samples kept forever), the
//     linear-scan baseline for the band-query timing and agreement tests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "reference/telemetry/multiscale_series.h"
#include "telemetry/store.h"

namespace epm {
class ThreadPool;
}

namespace epm::telemetry {

/// Multi-scale store for a whole fleet, sharded by server (original
/// per-sample cascade design; the columnar store's A/B baseline).
class LegacyTelemetryStore {
 public:
  static constexpr std::size_t kShards = kTelemetryShards;

  static constexpr std::size_t shard_of(CounterKey key) {
    return telemetry_shard_of(key);
  }

  /// `tuning` is accepted for signature parity with the columnar store (so
  /// templated suites construct either one the same way) and ignored here.
  explicit LegacyTelemetryStore(MultiScaleConfig per_counter_config = {},
                                const TelemetryTuning& tuning = {});

  /// Appends one sample; creates the series lazily.
  void append(CounterKey key, double time_s, double value, bool degraded = false);

  /// Fault hook: accounts `count` samples that a sensor dropout swallowed
  /// (they were never produced, so nothing is stored).
  void record_dropout(std::uint64_t count) { dropped_samples_ += count; }

  /// Overload-defense accounting (closed-loop workloads): requests refused
  /// by the admission stack, intents abandoned by clients, and re-offered
  /// retry attempts. Counters, not series — the per-epoch rates flow
  /// through the sensor plane as kShedRate/kRetryRate channels.
  void record_shed(std::uint64_t count) { shed_requests_ += count; }
  void record_abandoned(std::uint64_t count) { abandoned_requests_ += count; }
  void record_retried(std::uint64_t count) { retried_requests_ += count; }

  /// Parallel bulk ingest: partitions `samples` by shard, then lets each
  /// worker apply whole shards (one shard is never split across threads, so
  /// no locking is needed and per-series order is the input order). Requires
  /// the same per-series timestamp monotonicity as append(). Bit-identical
  /// to appending `samples` serially, at every thread count.
  void bulk_append(const std::vector<Sample>& samples, ThreadPool& pool);
  /// Convenience overload: a private pool with `threads` workers
  /// (0 = default_thread_count()).
  void bulk_append(const std::vector<Sample>& samples, std::size_t threads = 0);

  /// No deferred state on this path; provided for API parity.
  void flush() {}

  std::size_t series_count() const;
  std::uint64_t total_samples() const { return total_samples_; }
  /// Stored samples flagged degraded (sensor stuck-at).
  std::uint64_t degraded_samples() const { return degraded_samples_; }
  /// Samples lost to sensor dropouts (never stored).
  std::uint64_t dropped_samples() const { return dropped_samples_; }
  /// Requests refused by the admission stack (queue/bucket/breaker).
  std::uint64_t shed_requests() const { return shed_requests_; }
  /// Client intents abandoned after exhausting their retry budget.
  std::uint64_t abandoned_requests() const { return abandoned_requests_; }
  /// Re-offered (retry) attempts beyond each intent's first.
  std::uint64_t retried_requests() const { return retried_requests_; }
  /// Series lookup; throws for unknown keys. (Legacy-only: the columnar
  /// store has no MultiScaleSeries to hand out — use the query methods.)
  const MultiScaleSeries& series(CounterKey key) const;
  bool contains(CounterKey key) const {
    return shards_[shard_of(key)].count(key) > 0;
  }

  std::size_t memory_bytes() const;

  /// §5.3 band queries over one counter (shared query API):
  /// Aggregate over [t0, t1) from the finest level still covering t0.
  Aggregate range(CounterKey key, double t0_s, double t1_s) const;
  /// Long-term trend: daily means over [t0, t1).
  BinnedMeans daily_trend(CounterKey key, double t0_s, double t1_s) const;
  /// Within-day pattern: hourly means.
  BinnedMeans hourly_pattern(CounterKey key, double t0_s,
                                               double t1_s) const;

  /// In-stream anomaly detection is columnar-only; empty here (API parity).
  std::vector<AnomalyEvent> anomalies() const { return {}; }

 private:
  using ShardMap = std::unordered_map<CounterKey, MultiScaleSeries>;

  MultiScaleConfig config_;
  std::array<ShardMap, kShards> shards_;
  std::uint64_t total_samples_ = 0;
  std::uint64_t degraded_samples_ = 0;
  std::uint64_t dropped_samples_ = 0;
  std::uint64_t shed_requests_ = 0;
  std::uint64_t abandoned_requests_ = 0;
  std::uint64_t retried_requests_ = 0;
  std::size_t daily_level_ = 0;
  std::size_t hourly_level_ = 0;
};

/// Plain raw storage (15 s samples kept forever) used as the baseline in
/// EXP-F: linear-scan queries and un-aggregated memory footprint.
class RawStore {
 public:
  void append(CounterKey key, double time_s, double value);
  std::uint64_t total_samples() const { return total_samples_; }
  std::size_t memory_bytes() const;

  struct Stats {
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    std::uint64_t count = 0;
  };
  /// Linear scan over one counter's samples in [t0, t1).
  Stats range(CounterKey key, double t0_s, double t1_s) const;

 private:
  struct Column {
    std::vector<double> times_s;
    std::vector<double> values;
  };
  std::unordered_map<CounterKey, Column> columns_;
  std::uint64_t total_samples_ = 0;
};

}  // namespace epm::telemetry
