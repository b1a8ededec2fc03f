// EXP-AA: the §5.3 telemetry firehose on the columnar store, shared by
// bench/exp_telemetry_scale and `epmctl telemetry`.
//
// Measured sections (records appended to BENCH_telemetry.json):
//
//   telemetry_ingest           bulk_append of the reference counter mix
//                              (workload/fleet_counters.h) through the
//                              two-pass shard partition, at 1 thread and at
//                              `threads`; gated on absolute points/minute
//   telemetry_raw_bytes /      footprint of the same samples raw (16 B per
//   telemetry_compressed_bytes point) vs the sealed-block payload; the
//                              ratio is gated (>= min_compression_ratio)
//   telemetry_band_query       range(horizon - 3600, horizon) over every
//                              series vs a RawStore linear scan (report
//                              only). 200 ticks x 15 s span ~3,000 s
//                              (horizon 3,015 s), so the window opens
//                              before the first sample: range() answers
//                              from the coarsest (daily) level, a
//                              whole-history fold over the decoded blocks,
//                              not a trailing hour
//
// Verdict sections (no timing, gate only):
//
//   * legacy equivalence — the columnar store at 1/2/8 threads must answer
//     range / daily_trend / hourly_pattern bit-identically to the legacy
//     per-sample store (reference/) on the same batch;
//   * anomaly recall — every spike injected by the generator must surface
//     in anomalies(), and the event list must be identical at 1 vs
//     `threads` ingest threads.
//
// The throughput gate is absolute (the paper's firehose is an absolute
// claim: 2.4M points/minute for the 10k-server fleet; the store is gated at
// >= 100M/minute, ~40 such fleets on one node). Compression and the two
// verdicts are machine-independent.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_report.h"
#include "core/parallel.h"
#include "reference/telemetry/legacy_store.h"
#include "telemetry/store.h"
#include "workload/fleet_counters.h"

namespace epm::bench {

struct TelemetryBenchConfig {
  std::size_t threads = 0;  ///< 0 = default_thread_count()
  std::uint64_t seed = 42;

  /// Reference-mix shape for the throughput/compression sections.
  std::uint32_t servers = 1000;
  std::uint32_t counters_per_server = 50;
  std::uint32_t ticks = 200;  // 10M points

  /// Smaller mix for the legacy-equivalence section (the legacy store pays
  /// the full cascade per sample, so this bounds the A/B cost).
  std::uint32_t equiv_servers = 150;
  std::uint32_t equiv_counters = 20;
  std::uint32_t equiv_ticks = 120;

  /// Spike probability for the anomaly section (on the equivalence mix).
  double spike_probability = 0.02;

  /// Ingest gate in points/minute at `threads`; 0 = report only.
  double min_points_per_min = 100e6;
  /// Sealed-payload compression gate (raw bytes / payload bytes).
  double min_compression_ratio = 8.0;
};

struct TelemetryBenchOutcome {
  double ingest_wall_1t_s = 0.0;
  double ingest_wall_nt_s = 0.0;
  double points_per_min = 0.0;  ///< at `threads`
  double compression_ratio = 0.0;
  double band_query_s = 0.0;
  double raw_scan_s = 0.0;
  bool legacy_identical = false;
  bool anomalies_recalled = false;
  bool anomalies_deterministic = false;
  std::size_t spikes_injected = 0;
  std::size_t anomaly_events = 0;
  bool gate_ok = false;
};

namespace telemetry_detail {

inline double now_wall_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

inline bool aggregates_equal(const telemetry::Aggregate& a,
                             const telemetry::Aggregate& b) {
  return a.count == b.count && a.sum == b.sum && a.min == b.min && a.max == b.max;
}

inline bool means_equal(const telemetry::BinnedMeans& a,
                        const telemetry::BinnedMeans& b) {
  return a.times_s == b.times_s && a.means == b.means;
}

/// Bitwise agreement of the shared query API across two stores, over every
/// key of the batch.
template <typename StoreA, typename StoreB>
bool stores_answer_identically(const StoreA& a, const StoreB& b,
                               const workload::FleetCountersConfig& mix,
                               double horizon_s) {
  if (a.total_samples() != b.total_samples()) return false;
  if (a.series_count() != b.series_count()) return false;
  for (std::uint32_t s = 0; s < mix.servers; ++s) {
    for (std::uint32_t c = 0; c < mix.counters_per_server; ++c) {
      const auto key = telemetry::make_key(s, c);
      if (!aggregates_equal(a.range(key, 0.0, horizon_s),
                            b.range(key, 0.0, horizon_s))) {
        return false;
      }
      if (!aggregates_equal(a.range(key, horizon_s - 3600.0, horizon_s),
                            b.range(key, horizon_s - 3600.0, horizon_s))) {
        return false;
      }
      if (!means_equal(a.daily_trend(key, 0.0, horizon_s),
                       b.daily_trend(key, 0.0, horizon_s))) {
        return false;
      }
      if (!means_equal(a.hourly_pattern(key, 0.0, horizon_s),
                       b.hourly_pattern(key, 0.0, horizon_s))) {
        return false;
      }
    }
  }
  return true;
}

inline bool events_equal(const std::vector<telemetry::AnomalyEvent>& a,
                         const std::vector<telemetry::AnomalyEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].time_s != b[i].time_s ||
        a[i].value != b[i].value || a[i].zscore != b[i].zscore) {
      return false;
    }
  }
  return true;
}

}  // namespace telemetry_detail

inline TelemetryBenchOutcome run_telemetry_bench(const TelemetryBenchConfig& config) {
  // Default the report to BENCH_telemetry.json unless the caller already
  // chose a destination (or suppressed it with "-").
  ::setenv("EPM_BENCH_REPORT", "BENCH_telemetry.json", /*overwrite=*/0);
  namespace td = telemetry_detail;
  TelemetryBenchOutcome out;
  const std::size_t threads =
      resolve_thread_count(static_cast<std::int64_t>(config.threads));

  // -- ingest throughput + compression on the reference mix ----------------
  {
    workload::FleetCountersConfig mix;
    mix.servers = config.servers;
    mix.counters_per_server = config.counters_per_server;
    mix.ticks = config.ticks;
    mix.seed = config.seed;
    const auto batch = workload::synthesize_fleet_counters(mix);
    const auto points = static_cast<double>(batch.samples.size());

    {
      telemetry::ColumnarTelemetryStore store;
      const double t0 = td::now_wall_s();
      store.bulk_append(batch.samples, /*threads=*/1);
      out.ingest_wall_1t_s = td::now_wall_s() - t0;
      append_bench_record({"telemetry_ingest", 1, out.ingest_wall_1t_s, points});
    }

    telemetry::ColumnarTelemetryStore store;
    {
      ThreadPool pool(threads);
      const double t0 = td::now_wall_s();
      store.bulk_append(batch.samples, pool);
      out.ingest_wall_nt_s = td::now_wall_s() - t0;
      append_bench_record({"telemetry_ingest", threads, out.ingest_wall_nt_s, points});
    }
    out.points_per_min =
        out.ingest_wall_nt_s > 0.0 ? points / out.ingest_wall_nt_s * 60.0 : 0.0;

    store.flush();
    const double raw_bytes = static_cast<double>(store.sealed_samples()) * 16.0;
    const double payload = static_cast<double>(store.compressed_payload_bytes());
    out.compression_ratio = payload > 0.0 ? raw_bytes / payload : 0.0;
    append_bench_record({"telemetry_raw_bytes", threads, 0.0, raw_bytes});
    append_bench_record({"telemetry_compressed_bytes", threads, 0.0, payload});

    std::printf("  ingest %.2fM points: %.0f ms @ 1 thread, %.0f ms @ %zu "
                "(%.1fM points/min)\n",
                points / 1e6, out.ingest_wall_1t_s * 1e3,
                out.ingest_wall_nt_s * 1e3, threads, out.points_per_min / 1e6);
    std::printf("  sealed compression: %.2f MB raw -> %.2f MB (%.1fx)\n",
                raw_bytes / 1e6, payload / 1e6, out.compression_ratio);

    // range(horizon - 3600, horizon) over every series vs a raw linear scan
    // over the same samples (report only). The history is shorter than an
    // hour, so no level's retained window reaches t0 and range() falls back
    // to the coarsest level: this times a whole-history fold that decodes
    // every block, not a trailing-hour read. Bit-identity with the legacy
    // store says nothing about speed; this record is the only speed number.
    {
      const double horizon_s = static_cast<double>(mix.ticks) * mix.cadence_s + 15.0;
      telemetry::RawStore raw;
      for (const auto& sample : batch.samples) {
        raw.append(sample.key, sample.time_s, sample.value);
      }
      double sink = 0.0;
      const double t0 = td::now_wall_s();
      for (std::uint32_t s = 0; s < mix.servers; ++s) {
        for (std::uint32_t c = 0; c < mix.counters_per_server; ++c) {
          sink += store.range(telemetry::make_key(s, c), horizon_s - 3600.0,
                              horizon_s).mean();
        }
      }
      out.band_query_s = td::now_wall_s() - t0;
      const double t1 = td::now_wall_s();
      for (std::uint32_t s = 0; s < mix.servers; ++s) {
        for (std::uint32_t c = 0; c < mix.counters_per_server; ++c) {
          sink -= raw.range(telemetry::make_key(s, c), horizon_s - 3600.0,
                            horizon_s).mean;
        }
      }
      out.raw_scan_s = td::now_wall_s() - t1;
      const double series =
          static_cast<double>(mix.servers) * mix.counters_per_server;
      append_bench_record({"telemetry_band_query", 1, out.band_query_s, series});
      append_bench_record({"telemetry_raw_scan", 1, out.raw_scan_s, series});
      std::printf("  whole-history band query (window opens before the first "
                  "sample; daily level) x %.0fk series: %.0f ms vs raw scan "
                  "%.0f ms (sink %.1f)\n",
                  series / 1e3, out.band_query_s * 1e3, out.raw_scan_s * 1e3,
                  sink);
    }
  }

  // -- legacy equivalence at 1/2/8 threads ---------------------------------
  {
    workload::FleetCountersConfig mix;
    mix.servers = config.equiv_servers;
    mix.counters_per_server = config.equiv_counters;
    mix.ticks = config.equiv_ticks;
    mix.seed = config.seed + 1;
    const auto batch = workload::synthesize_fleet_counters(mix);
    const double horizon_s = static_cast<double>(mix.ticks) * mix.cadence_s + 15.0;

    telemetry::LegacyTelemetryStore legacy;
    for (const auto& sample : batch.samples) {
      legacy.append(sample.key, sample.time_s, sample.value, sample.degraded);
    }
    out.legacy_identical = true;
    for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      telemetry::ColumnarTelemetryStore columnar;
      columnar.bulk_append(batch.samples, t);
      if (!td::stores_answer_identically(legacy, columnar, mix, horizon_s)) {
        out.legacy_identical = false;
        std::printf("  legacy equivalence: MISMATCH at %zu threads\n", t);
        break;
      }
    }
    if (out.legacy_identical) {
      std::printf("  legacy equivalence: bit-identical at 1/2/8 threads "
                  "(%zu series x 4 queries)\n",
                  static_cast<std::size_t>(mix.servers) * mix.counters_per_server);
    }
  }

  // -- in-stream anomaly recall + determinism ------------------------------
  {
    workload::FleetCountersConfig mix;
    mix.servers = config.equiv_servers;
    mix.counters_per_server = config.equiv_counters;
    mix.ticks = config.equiv_ticks;
    mix.seed = config.seed + 2;
    mix.spike_probability = config.spike_probability;
    const auto batch = workload::synthesize_fleet_counters(mix);
    out.spikes_injected = batch.spikes.size();

    telemetry::ColumnarTelemetryStore store;
    store.bulk_append(batch.samples, /*threads=*/1);
    store.flush();
    const auto events = store.anomalies();
    out.anomaly_events = events.size();

    out.anomalies_recalled = true;
    for (const auto& spike : batch.spikes) {
      const bool hit = std::any_of(
          events.begin(), events.end(), [&](const telemetry::AnomalyEvent& e) {
            return e.key == spike.key && e.time_s == spike.time_s;
          });
      if (!hit) {
        out.anomalies_recalled = false;
        std::printf("  anomaly recall: MISSED spike on key %llu at t=%.0f\n",
                    static_cast<unsigned long long>(spike.key), spike.time_s);
        break;
      }
    }

    telemetry::ColumnarTelemetryStore parallel_store;
    parallel_store.bulk_append(batch.samples, threads);
    parallel_store.flush();
    out.anomalies_deterministic =
        td::events_equal(events, parallel_store.anomalies());

    std::printf("  in-stream anomalies: %zu injected spikes, %zu events, "
                "recall %s, deterministic across threads %s\n",
                out.spikes_injected, out.anomaly_events,
                out.anomalies_recalled ? "ok" : "FAIL",
                out.anomalies_deterministic ? "yes" : "NO");
  }

  const bool rate_ok = config.min_points_per_min <= 0.0 ||
                       out.points_per_min >= config.min_points_per_min;
  const bool compression_ok = out.compression_ratio >= config.min_compression_ratio;
  out.gate_ok = rate_ok && compression_ok && out.legacy_identical &&
                out.anomalies_recalled && out.anomalies_deterministic;
  std::printf("  gates: ingest %s (%.1fM/min vs %.0fM), compression %s "
              "(%.1fx vs %.0fx), equivalence %s, anomalies %s => %s\n",
              rate_ok ? "ok" : "FAIL", out.points_per_min / 1e6,
              config.min_points_per_min / 1e6, compression_ok ? "ok" : "FAIL",
              out.compression_ratio, config.min_compression_ratio,
              out.legacy_identical ? "ok" : "FAIL",
              out.anomalies_recalled && out.anomalies_deterministic ? "ok"
                                                                    : "FAIL",
              out.gate_ok ? "PASS" : "FAIL");
  return out;
}

}  // namespace epm::bench
