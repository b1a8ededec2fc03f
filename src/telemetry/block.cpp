#include "telemetry/block.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"
#include "telemetry/compress.h"

namespace epm::telemetry {

void SealedBlock::decode(std::vector<double>& times_s, std::vector<double>& values) const {
  times_s.resize(samples);
  values.resize(samples);
  BitReader tr(time_bytes);
  decode_times(tr, times_s.data(), samples);
  BitReader vr(value_bytes);
  decode_values(vr, values.data(), samples);
}

Aggregate lane_summary(const double* values, std::size_t n) {
  Aggregate out;
  if (n == 0) return out;
  out.count = n;
  std::size_t i = 0;
  if (n >= 4) {
    // Four independent min/max lanes over the contiguous column; each lane's
    // dependency chain is its own, so the loop vectorizes to packed
    // min/max. (Assumes no NaN/-0.0 in the column — true for the counter
    // mix; lane order would otherwise be observable.)
    double mn0 = values[0], mn1 = values[1], mn2 = values[2], mn3 = values[3];
    double mx0 = mn0, mx1 = mn1, mx2 = mn2, mx3 = mn3;
    for (i = 4; i + 4 <= n; i += 4) {
      mn0 = std::min(mn0, values[i + 0]);
      mn1 = std::min(mn1, values[i + 1]);
      mn2 = std::min(mn2, values[i + 2]);
      mn3 = std::min(mn3, values[i + 3]);
      mx0 = std::max(mx0, values[i + 0]);
      mx1 = std::max(mx1, values[i + 1]);
      mx2 = std::max(mx2, values[i + 2]);
      mx3 = std::max(mx3, values[i + 3]);
    }
    out.min = std::min(std::min(mn0, mn1), std::min(mn2, mn3));
    out.max = std::max(std::max(mx0, mx1), std::max(mx2, mx3));
    for (; i < n; ++i) {
      out.min = std::min(out.min, values[i]);
      out.max = std::max(out.max, values[i]);
    }
  } else {
    out.min = out.max = values[0];
    for (i = 1; i < n; ++i) {
      out.min = std::min(out.min, values[i]);
      out.max = std::max(out.max, values[i]);
    }
  }
  // Strict left fold for the sum: the one reduction where grouping changes
  // bits, so it is never laned.
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) sum += values[j];
  out.sum = sum;
  return out;
}

namespace {

std::int64_t bin_index(double time_s, double resolution_s) {
  return static_cast<std::int64_t>(std::floor(time_s / resolution_s));
}

}  // namespace

ColumnSeries::ColumnSeries(const MultiScaleConfig& config, const TelemetryTuning& tuning)
    : block_capacity_(tuning.block_capacity),
      anomaly_config_(tuning.anomaly),
      levels_(config.levels),
      detector_(tuning.anomaly) {
  validate(config);
  require(block_capacity_ >= 1, "ColumnSeries: block_capacity must be >= 1");
  open_times_.reserve(block_capacity_);
  open_values_.reserve(block_capacity_);
}

void ColumnSeries::append(double time_s, double value) {
  require(time_s >= 0.0, "ColumnSeries: negative time");
  require(time_s >= last_time_s_, "ColumnSeries: timestamps must be non-decreasing");
  if (total_samples_ == 0) first_time_s_ = time_s;
  last_time_s_ = time_s;
  ++total_samples_;
  open_times_.push_back(time_s);
  open_values_.push_back(value);
  if (open_times_.size() >= block_capacity_) seal();
}

void ColumnSeries::flush() { seal(); }

void ColumnSeries::seal() {
  const std::size_t n = open_times_.size();
  if (n == 0) return;
  const double* times = open_times_.data();
  const double* values = open_values_.data();

  // [detect] Events carry key=0 here; the store stamps the owning counter.
  if (anomaly_config_.enabled) {
    for (std::size_t i = 0; i < n; ++i) {
      const double z = detector_.observe(values[i]);
      if (z > 0.0) events_.push_back(AnomalyEvent{0, times[i], values[i], z});
    }
  }

  // [downsample] + [compress]
  SealedBlock block;
  block.first_time_s = times[0];
  block.last_time_s = times[n - 1];
  block.samples = static_cast<std::uint32_t>(n);
  block.summary = lane_summary(values, n);
  BitWriter tw;
  encode_times(times, n, tw);
  block.time_bytes = tw.finish();
  block.time_bytes.shrink_to_fit();
  BitWriter vw;
  encode_values(values, n, vw);
  block.value_bytes = vw.finish();
  block.value_bytes.shrink_to_fit();
  blocks_.push_back(std::move(block));

  open_times_.clear();
  open_values_.clear();
}

ColumnSeries::LevelWindow ColumnSeries::effective_window(std::size_t level) const {
  // A level that evicts per append keeps the trailing `retention_bins`
  // bins ending at the newest sample's bin, never reaching back past the
  // first bin a sample ever touched.
  const LevelSpec& spec = levels_[level];
  LevelWindow w;
  w.last = bin_index(last_time_s_, spec.resolution_s);
  w.first = bin_index(first_time_s_, spec.resolution_s);
  if (spec.retention_bins != 0) {
    const std::int64_t cutoff =
        w.last - static_cast<std::int64_t>(spec.retention_bins) + 1;
    w.first = std::max(w.first, cutoff);
  }
  return w;
}

template <class Fn>
void ColumnSeries::for_each_bin(std::size_t level, double t0_s, double t1_s,
                                Fn&& fn) const {
  require(level < levels_.size(), "ColumnSeries: level out of range");
  require(t1_s >= t0_s, "ColumnSeries: inverted range");
  // [t, t) is empty, and append rejects negative times, so a window ending
  // at or before 0 holds nothing: the `hi` bin below would claim one.
  if (total_samples_ == 0 || t1_s <= t0_s || t1_s <= 0.0) return;
  const double res = levels_[level].resolution_s;
  const LevelWindow w = effective_window(level);
  const std::int64_t lo = std::max(bin_index(t0_s, res), w.first);
  const std::int64_t hi = std::min(bin_index(std::nextafter(t1_s, t0_s), res), w.last);
  if (lo > hi) return;

  // Samples arrive in time order, so bins do too: fold each bin's samples
  // left to right and hand it on when the next bin starts.
  std::int64_t bin = lo;
  Aggregate agg;
  // Returns false once a sample lies past `hi` (nothing later can match).
  const auto fold = [&](const double* times, const double* values, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t b = bin_index(times[i], res);
      if (b < lo) continue;
      if (b > hi) return false;
      if (b != bin) {
        if (agg.count != 0) fn(static_cast<double>(bin) * res, agg);
        agg = Aggregate{};
        bin = b;
      }
      agg.add(values[i]);
    }
    return true;
  };

  std::vector<double> times, values;
  for (const SealedBlock& block : blocks_) {
    if (bin_index(block.last_time_s, res) < lo) continue;
    if (bin_index(block.first_time_s, res) > hi) break;
    block.decode(times, values);
    if (!fold(times.data(), values.data(), block.samples)) break;
  }
  // After an early stop the tail lies past `hi` too and returns at once.
  fold(open_times_.data(), open_values_.data(), open_times_.size());
  if (agg.count != 0) fn(static_cast<double>(bin) * res, agg);
}

Aggregate ColumnSeries::range_at_level(std::size_t level, double t0_s, double t1_s) const {
  Aggregate out;
  for_each_bin(level, t0_s, t1_s, [&out](double, const Aggregate& agg) { out.merge(agg); });
  return out;
}

Aggregate ColumnSeries::range(double t0_s, double t1_s) const {
  if (total_samples_ == 0) return {};
  // Finest level whose retained window still reaches back to t0_s.
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const double retained_start =
        static_cast<double>(effective_window(l).first) * levels_[l].resolution_s;
    if (retained_start <= t0_s + 1e-9) return range_at_level(l, t0_s, t1_s);
  }
  return range_at_level(levels_.size() - 1, t0_s, t1_s);
}

BinnedMeans ColumnSeries::means_at_level(std::size_t level, double t0_s,
                                         double t1_s) const {
  BinnedMeans out;
  for_each_bin(level, t0_s, t1_s, [&out](double bin_start_s, const Aggregate& agg) {
    out.times_s.push_back(bin_start_s);
    out.means.push_back(agg.mean());
  });
  return out;
}

Aggregate ColumnSeries::raw_range(double t0_s, double t1_s) const {
  require(t1_s >= t0_s, "ColumnSeries: inverted range");
  Aggregate out;
  std::vector<double> times, values;
  for (const SealedBlock& block : blocks_) {
    if (block.samples == 0) continue;
    if (block.last_time_s < t0_s || block.first_time_s >= t1_s) continue;
    if (block.first_time_s >= t0_s && block.last_time_s < t1_s) {
      // Whole block inside the window: its summary stands in for the
      // samples, so the block is never decompressed. (Sum association is
      // block-granular; min/max/count are exact.)
      out.merge(block.summary);
      continue;
    }
    block.decode(times, values);
    for (std::uint32_t i = 0; i < block.samples; ++i) {
      if (times[i] >= t0_s && times[i] < t1_s) out.add(values[i]);
    }
  }
  for (std::size_t i = 0; i < open_times_.size(); ++i) {
    if (open_times_[i] >= t0_s && open_times_[i] < t1_s) out.add(open_values_[i]);
  }
  return out;
}

std::size_t ColumnSeries::memory_bytes() const {
  std::size_t bytes = open_times_.capacity() * sizeof(double) +
                      open_values_.capacity() * sizeof(double) +
                      events_.capacity() * sizeof(AnomalyEvent);
  for (const SealedBlock& block : blocks_) bytes += block.memory_bytes();
  return bytes;
}

std::size_t ColumnSeries::compressed_payload_bytes() const {
  std::size_t bytes = 0;
  for (const SealedBlock& block : blocks_) bytes += block.payload_bytes();
  return bytes;
}

}  // namespace epm::telemetry
