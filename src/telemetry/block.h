// Columnar series blocks and the block-seal pipeline (§5.3 firehose).
//
// One counter's history is a chain of sealed, immutable, compressed blocks
// plus one open block of plain contiguous columns (times[], values[]).
// Ingest is two vector pushes; the per-sample work runs once per block at
// seal time, over contiguous arrays:
//
//   seal:  [detect]     StreamingSpikeDetector::observe per sample,
//          [downsample] 4-wide-lane min/max + strict-order sum summary,
//          [compress]   predictive delta-of-delta timestamps + Gorilla XOR
//                       values (compress.h), ~2 bytes/point on the reference
//                       counter mix vs 16 raw.
//
// The blocks are the only copy of the data. Band queries fold their bins at
// query time: they decode the sealed blocks that overlap the window, read
// the open tail, and fold each bin's samples in append order. That is the
// order a per-sample level cascade folds them in, so the answers match it
// bit for bit. Raw-history queries take a whole block inside the window
// from its summary (no decompression); only window-edge blocks are decoded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/anomaly.h"
#include "telemetry/multiscale.h"

namespace epm::telemetry {

/// Columnar-store knobs. The defaults serve the §5.3 reference mix; tests
/// shrink block_capacity to exercise many seal boundaries cheaply.
struct TelemetryTuning {
  /// Samples per block; seal triggers when the open block reaches this.
  /// Block boundaries depend only on the per-series sample count, so the
  /// layout is identical at every thread count.
  std::size_t block_capacity = 1024;
  StreamingAnomalyConfig anomaly;
};

/// An immutable, compressed run of consecutive samples.
struct SealedBlock {
  double first_time_s = 0.0;
  double last_time_s = 0.0;
  /// Block-level downsample: min/max folded in 4-wide lanes, sum as a
  /// strict left fold (see block.cpp).
  Aggregate summary;
  std::uint32_t samples = 0;
  std::vector<std::uint8_t> time_bytes;
  std::vector<std::uint8_t> value_bytes;

  /// Compressed payload only (the compression-ratio numerator's rival).
  std::size_t payload_bytes() const { return time_bytes.size() + value_bytes.size(); }
  std::size_t memory_bytes() const {
    return sizeof(SealedBlock) + time_bytes.capacity() + value_bytes.capacity();
  }
  /// Bit-exact reconstruction of the block's columns.
  void decode(std::vector<double>& times_s, std::vector<double>& values) const;
};

/// Block-level downsample over a contiguous column: min/max reduce across
/// four independent lanes (auto-vectorizable), count is trivial, and the
/// sum stays a strict left fold so every derived number is reproducible
/// bit-for-bit regardless of how the compiler vectorizes.
Aggregate lane_summary(const double* values, std::size_t n);

/// One counter's columnar history: sealed chain + open block + streaming
/// detector state. Appends must have non-decreasing timestamps
/// (same contract as MultiScaleSeries).
class ColumnSeries {
 public:
  ColumnSeries(const MultiScaleConfig& config, const TelemetryTuning& tuning);

  void append(double time_s, double value);
  /// Seals a partial open block (no-op when empty). Queries are correct
  /// without flushing — the open block is scanned directly — but flushing
  /// moves its samples into the compressed chain.
  void flush();

  std::uint64_t total_samples() const { return total_samples_; }
  std::size_t level_count() const { return levels_.size(); }
  const std::vector<SealedBlock>& blocks() const { return blocks_; }
  const std::vector<AnomalyEvent>& anomalies() const { return events_; }
  std::size_t open_samples() const { return open_times_.size(); }

  /// Band queries, answer-for-answer bit-identical to a MultiScaleSeries
  /// fed the same samples. Bins are folded from the overlapping sealed
  /// blocks and the open tail; nothing per level is stored.
  Aggregate range(double t0_s, double t1_s) const;
  Aggregate range_at_level(std::size_t level, double t0_s, double t1_s) const;
  BinnedMeans means_at_level(std::size_t level, double t0_s, double t1_s) const;

  /// Exact raw-history aggregate over [t0, t1) — answered from the blocks
  /// themselves, no separate raw copy. Whole blocks inside the window
  /// contribute their summaries without decompression.
  Aggregate raw_range(double t0_s, double t1_s) const;

  std::size_t memory_bytes() const;
  std::size_t compressed_payload_bytes() const;
  /// Raw footprint of every ingested sample (two doubles each).
  std::size_t raw_sample_bytes() const {
    return static_cast<std::size_t>(total_samples_) * 2 * sizeof(double);
  }

 private:
  struct LevelWindow {
    std::int64_t first = 0;  ///< first retained bin
    std::int64_t last = 0;   ///< bin of the newest sample
  };

  void seal();
  /// Retained-bin window for `level`: the closed form of per-append
  /// eviction over every sample so far, sealed and open alike.
  LevelWindow effective_window(std::size_t level) const;
  /// Calls fn(bin_start_s, aggregate) for every non-empty bin of `level`
  /// that lies in [t0, t1) and in the retained window, oldest bin first.
  template <class Fn>
  void for_each_bin(std::size_t level, double t0_s, double t1_s, Fn&& fn) const;

  std::size_t block_capacity_;
  StreamingAnomalyConfig anomaly_config_;
  std::vector<LevelSpec> levels_;
  std::vector<SealedBlock> blocks_;
  std::vector<double> open_times_;
  std::vector<double> open_values_;
  StreamingSpikeDetector detector_;
  std::vector<AnomalyEvent> events_;
  double first_time_s_ = 0.0;
  double last_time_s_ = -1.0;
  std::uint64_t total_samples_ = 0;
};

}  // namespace epm::telemetry
