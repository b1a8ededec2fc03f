// Reference answers for telemetry queries, recomputed by the benchmark from
// its own copy of the samples. They restate the store's documented
// semantics, not its code:
//
//   * raw_range: samples are sealed into blocks of `block_capacity` in
//     append order (the tail stays open unless flushed). A block wholly
//     inside [t0, t1) contributes its summary (sum = left fold of its
//     values); any other sample in the window is folded in one at a time,
//     oldest first.
//   * range on the finest level: samples grouped into bins of
//     `resolution_s` (bin = floor(t / resolution)); every bin from the one
//     holding t0 to the one holding the last instant before t1 is folded,
//     then the bins are merged oldest first.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace perfbench {

struct Fold {
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;

  void add(double v) {
    min = count == 0 ? v : std::min(min, v);
    max = count == 0 ? v : std::max(max, v);
    sum += v;
    ++count;
  }
  void merge(const Fold& o) {
    if (o.count == 0) return;
    if (count == 0) {
      *this = o;
      return;
    }
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    sum += o.sum;
    count += o.count;
  }
};

/// Bitwise equality with any aggregate carrying min/max/sum/count.
template <typename Agg>
bool same_answer(const Agg& a, const Fold& b) {
  return a.count == b.count && a.min == b.min && a.max == b.max && a.sum == b.sum;
}

/// raw_range over one series whose first n samples, in append order, are
/// (times[i], values[i]).
inline Fold oracle_raw_range(const double* times, const double* values, std::size_t n,
                             std::size_t block_capacity, bool flushed, double t0,
                             double t1) {
  Fold out;
  const std::size_t sealed_end =
      flushed ? n : n / block_capacity * block_capacity;
  for (std::size_t lo = 0; lo < sealed_end; lo += block_capacity) {
    const std::size_t hi = std::min(lo + block_capacity, sealed_end);
    const double first = times[lo];
    const double last = times[hi - 1];
    if (last < t0 || first >= t1) continue;
    if (first >= t0 && last < t1) {
      Fold block;
      for (std::size_t i = lo; i < hi; ++i) block.add(values[i]);
      out.merge(block);
      continue;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      const double t = times[i];
      if (t >= t0 && t < t1) out.add(values[i]);
    }
  }
  for (std::size_t i = sealed_end; i < n; ++i) {
    const double t = times[i];
    if (t >= t0 && t < t1) out.add(values[i]);
  }
  return out;
}

/// range() answered from the finest level (bins of `resolution_s`), for a
/// window the level still retains.
inline Fold oracle_binned_range(const double* times, const double* values, std::size_t n,
                                double resolution_s, double t0, double t1) {
  const auto bin = [&](double t) {
    return static_cast<std::int64_t>(std::floor(t / resolution_s));
  };
  const std::int64_t lo = bin(t0);
  const std::int64_t hi = bin(std::nextafter(t1, t0));
  Fold out;
  Fold cur;
  std::int64_t cur_bin = 0;
  bool open = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t b = bin(times[i]);
    if (b < lo || b > hi) continue;
    if (open && b != cur_bin) {
      out.merge(cur);
      cur = Fold{};
    }
    cur_bin = b;
    open = true;
    cur.add(values[i]);
  }
  if (open) out.merge(cur);
  return out;
}

}  // namespace perfbench
