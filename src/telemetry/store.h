// Fleet-wide telemetry store: (server, counter) -> per-counter history,
// sharded by server so the §5.3 firehose (10,000 servers x 100 counters
// @ 15 s = 2.4M+ points/minute) can be ingested in parallel.
//
// Each counter accumulates plain columnar blocks (block.h); the detect /
// downsample / compress work runs per sealed block over contiguous arrays
// instead of per sample, and band queries fold their bins from the decoded
// blocks at query time (no per-level copy is stored). Bulk ingest is a two-pass shard
// partition: contiguous input slices list their sample indices per shard,
// then whole shards are applied in parallel, each reading the slice lists
// in slice order. Every series therefore sees its samples in batch order
// at any thread count, so the store is bit-identical to serial append.
//
// The per-sample cascade store this one replaced is kept only in the
// epm_reference library that tests and benches link. It stores a bin
// pyramid per series and shares no fold code with this store; tests and
// EXP-AA check that the two answer every band query bit-identically.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "telemetry/block.h"
#include "telemetry/multiscale.h"

namespace epm {
class ThreadPool;
}

namespace epm::telemetry {

/// Dense counter key: server index * counters_per_server + counter index.
using CounterKey = std::uint64_t;

constexpr CounterKey make_key(std::uint32_t server, std::uint32_t counter) {
  return (static_cast<CounterKey>(server) << 32) | counter;
}
constexpr std::uint32_t server_of(CounterKey key) {
  return static_cast<std::uint32_t>(key >> 32);
}
constexpr std::uint32_t counter_of(CounterKey key) {
  return static_cast<std::uint32_t>(key & 0xffffffffu);
}

/// Fixed shard fan-out. Independent of the thread count (shards are
/// assigned to workers, not created per worker), so the layout — and every
/// query answer — is identical however many threads ingest.
constexpr std::size_t kTelemetryShards = 64;

/// splitmix64 finalizer over the server id. A plain `server % kShards`
/// collides whole racks onto one shard whenever fleet enumeration strides
/// by a multiple of 64 (e.g. servers 0, 64, 128, ... of a column-major
/// rack layout all landed on shard 0, serializing their ingest); the mix
/// spreads any enumeration pattern evenly.
constexpr std::uint64_t mix_server(std::uint32_t server) {
  std::uint64_t x = static_cast<std::uint64_t>(server) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr std::size_t telemetry_shard_of(CounterKey key) {
  return static_cast<std::size_t>(mix_server(server_of(key)) % kTelemetryShards);
}

/// One telemetry point in flight, as handed to bulk ingest.
struct Sample {
  CounterKey key = 0;
  double time_s = 0.0;
  double value = 0.0;
  /// Set by the fault layer for sensor stuck-at faults: the value is a stale
  /// repeat, not a fresh reading. Degraded samples are stored (queries still
  /// work) but counted so consumers can judge data quality.
  bool degraded = false;
};

/// Multi-scale store for a whole fleet, sharded by server: partitioned
/// parallel ingest, compressed sealed blocks, block-seal downsampling /
/// anomaly detection, query-time band folds (block.h).
class ColumnarTelemetryStore {
 public:
  static constexpr std::size_t kShards = kTelemetryShards;

  static constexpr std::size_t shard_of(CounterKey key) {
    return telemetry_shard_of(key);
  }

  explicit ColumnarTelemetryStore(MultiScaleConfig per_counter_config = {},
                                  const TelemetryTuning& tuning = {});

  /// Appends one sample; creates the series lazily. Timestamps must be
  /// non-decreasing per series (std::invalid_argument otherwise).
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

  /// Parallel bulk ingest on a pool of T workers. Pass 1 splits the batch
  /// into T contiguous slices, each listing its sample indices per shard;
  /// pass 2 applies whole shards concurrently (one shard is never split
  /// across workers, so no locking), reading the slice lists in slice
  /// order. Per-series order is the batch order at every T, including 1 —
  /// bit-identical to appending `samples` serially. A non-monotonic series
  /// throws its append error after the other shards finish; the batch is
  /// then partly applied, as a serial loop would leave it.
  void bulk_append(const std::vector<Sample>& samples, ThreadPool& pool);
  /// Convenience overload: a private pool with `threads` workers
  /// (0 = default_thread_count()).
  void bulk_append(const std::vector<Sample>& samples, std::size_t threads = 0);

  /// Seals every open block (partial blocks included) so all samples are in
  /// the compressed chain. Queries do not require a flush — open blocks
  /// are scanned directly — but benchmarks and memory accounting call it to
  /// finalize.
  void flush();

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
  bool contains(CounterKey key) const {
    return shards_[shard_of(key)].count(key) > 0;
  }
  /// Columnar series lookup; throws for unknown keys.
  const ColumnSeries& column_series(CounterKey key) const;

  std::size_t memory_bytes() const;
  /// Compressed payload across all sealed blocks (compression-ratio
  /// denominator; the numerator is 16 bytes x sealed_samples()).
  std::size_t compressed_payload_bytes() const;
  /// Samples living in sealed (compressed) blocks.
  std::uint64_t sealed_samples() const;

  /// §5.3 band queries over one counter:
  /// Aggregate over [t0, t1) from the finest level still covering t0.
  Aggregate range(CounterKey key, double t0_s, double t1_s) const;
  /// Long-term trend: daily means over [t0, t1).
  BinnedMeans daily_trend(CounterKey key, double t0_s, double t1_s) const;
  /// Within-day pattern: hourly means.
  BinnedMeans hourly_pattern(CounterKey key, double t0_s, double t1_s) const;

  /// Exact aggregate over the raw (uncompacted) history of one counter —
  /// whole interior blocks answer from their summaries without
  /// decompression.
  Aggregate raw_range(CounterKey key, double t0_s, double t1_s) const;

  /// All band-escape events so far, keys stamped, ordered by (time, key)
  /// with per-series emission order preserved — deterministic despite the
  /// unordered shard maps. Detection latency is one sealed block: call
  /// flush() first to include open-block samples.
  std::vector<AnomalyEvent> anomalies() const;

 private:
  using ShardMap = std::unordered_map<CounterKey, ColumnSeries>;

  ColumnSeries& series_slot(std::size_t shard, CounterKey key);

  MultiScaleConfig config_;
  TelemetryTuning tuning_;
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

/// The fleet telemetry store.
using TelemetryStore = ColumnarTelemetryStore;

}  // namespace epm::telemetry
