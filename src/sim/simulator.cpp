#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "core/require.h"

namespace epm::sim {

// ---------------------------------------------------------------------------
// CalendarSimulator
// ---------------------------------------------------------------------------

namespace {

/// Ascending (when, seq) order for bucket sorts and merges.
struct EarlierEntry {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.when_s != b.when_s) return a.when_s < b.when_s;
    return a.seq < b.seq;
  }
};

}  // namespace

CalendarSimulator::CalendarSimulator() { buckets_.resize(kMinBuckets); }

CalendarSimulator::~CalendarSimulator() = default;

std::uint32_t CalendarSimulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if ((slot_capacity_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  return slot_capacity_++;
}

void CalendarSimulator::free_slot(std::uint32_t slot) {
  Node& n = node(slot);
  n.fn = EventFn{};
  n.status = Status::kFree;
  ++n.gen;  // invalidates outstanding handles to this slot
  free_slots_.push_back(slot);
}

void CalendarSimulator::insert_entry(const Entry& entry) {
  // Bucket placement goes through the *index* (a monotone function of time),
  // so boundary rounding can never reorder entries across the cursor.
  if (entry.when_s >= wheel_end_s()) {
    overflow_.push(entry);
    return;
  }
  std::size_t idx = 0;
  if (entry.when_s > base_s_) {
    idx = static_cast<std::size_t>((entry.when_s - base_s_) * inv_width_s_);
  }
  if (idx >= buckets_.size()) {
    overflow_.push(entry);  // floating-point edge of the wheel horizon
    return;
  }
  ++wheel_count_;
  if (idx < next_bucket_) {
    // Due before the loaded window's end: joins the working list, merged in
    // (when, seq) order before the next pop.
    cur_adds_.push_back(entry);
  } else {
    buckets_[idx].push_back(entry);
  }
  if (wheel_count_ > 2 * buckets_.size() && buckets_.size() < kMaxBuckets) {
    resize_wheel(buckets_.size() * 2);
  }
}

EventHandle CalendarSimulator::push(double when_s, double period_s, EventFn fn) {
  require(when_s >= now_s_, "Simulator: cannot schedule in the past");
  require(static_cast<bool>(fn), "Simulator: empty event function");
  const std::uint32_t slot = acquire_slot();
  Node& n = node(slot);
  n.when_s = when_s;
  n.seq = next_seq_++;
  n.period_s = period_s;
  n.status = Status::kPending;
  n.fn = std::move(fn);
  ++live_count_;
  insert_entry(Entry{when_s, n.seq, slot});
  return EventHandle{handle_id(slot, n.gen)};
}

EventHandle CalendarSimulator::schedule_at(double when_s, EventFn fn) {
  return push(when_s, 0.0, std::move(fn));
}

EventHandle CalendarSimulator::schedule_after(double delay_s, EventFn fn) {
  require(delay_s >= 0.0, "Simulator: negative delay");
  return push(now_s_ + delay_s, 0.0, std::move(fn));
}

EventHandle CalendarSimulator::schedule_periodic(double first_s, double period_s,
                                                 EventFn fn) {
  require(period_s > 0.0, "Simulator: period must be positive");
  return push(first_s, period_s, std::move(fn));
}

void CalendarSimulator::begin_batch(double when_s) {
  require(when_s >= now_s_, "Simulator: cannot schedule in the past");
  // Resolve the destination once; batch_push() reuses it for every event.
  batch_in_overflow_ = when_s >= wheel_end_s();
  batch_bucket_ = 0;
  if (!batch_in_overflow_) {
    std::size_t idx = 0;
    if (when_s > base_s_) {
      idx = static_cast<std::size_t>((when_s - base_s_) * inv_width_s_);
    }
    if (idx >= buckets_.size()) {
      batch_in_overflow_ = true;
    } else {
      batch_bucket_ = idx;
    }
  }
}

void CalendarSimulator::batch_push(double when_s, EventFn fn) {
  require(static_cast<bool>(fn), "Simulator: empty event function");
  const std::uint32_t slot = acquire_slot();
  Node& n = node(slot);
  n.when_s = when_s;
  n.seq = next_seq_++;
  n.period_s = 0.0;
  n.status = Status::kPending;
  n.fn = std::move(fn);
  ++live_count_;
  const Entry entry{when_s, n.seq, slot};
  if (batch_in_overflow_) {
    overflow_.push(entry);
    return;
  }
  ++wheel_count_;
  if (batch_bucket_ < next_bucket_) {
    cur_adds_.push_back(entry);
  } else {
    buckets_[batch_bucket_].push_back(entry);
  }
}

void CalendarSimulator::end_batch() {
  if (wheel_count_ > 2 * buckets_.size() && buckets_.size() < kMaxBuckets) {
    resize_wheel(buckets_.size() * 2);
  }
}

void CalendarSimulator::cancel(EventHandle handle) {
  if (!handle.valid()) return;
  const auto slot = static_cast<std::uint32_t>((handle.id_ & 0xffffffffULL) - 1);
  const auto gen = static_cast<std::uint32_t>(handle.id_ >> 32);
  if (slot >= slot_capacity_) return;
  Node& n = node(slot);
  if (n.gen != gen || n.status != Status::kPending) return;
  n.status = Status::kCancelled;
  --live_count_;
  // The calendar entry drains lazily; free_slot() recycles the slot then.
}

void CalendarSimulator::merge_adds() {
  std::sort(cur_adds_.begin(), cur_adds_.end(), EarlierEntry{});
  cur_.erase(cur_.begin(),
             cur_.begin() + static_cast<std::ptrdiff_t>(cur_pos_));
  cur_pos_ = 0;
  const auto mid = static_cast<std::ptrdiff_t>(cur_.size());
  cur_.insert(cur_.end(), cur_adds_.begin(), cur_adds_.end());
  std::inplace_merge(cur_.begin(), cur_.begin() + mid, cur_.end(),
                     EarlierEntry{});
  cur_adds_.clear();
}

void CalendarSimulator::rebase_from_overflow() {
  const double min_when = overflow_.top().when_s;
  double base = std::floor(min_when / width_s_) * width_s_;
  if (!(base <= min_when) || !std::isfinite(base)) base = min_when;
  base_s_ = base;
  next_bucket_ = 0;
  const double end = wheel_end_s();
  while (!overflow_.empty() && overflow_.top().when_s < end) {
    const Entry entry = overflow_.top();
    overflow_.pop();
    std::size_t idx = 0;
    if (entry.when_s > base_s_) {
      idx = static_cast<std::size_t>((entry.when_s - base_s_) * inv_width_s_);
    }
    if (idx >= buckets_.size()) idx = buckets_.size() - 1;
    buckets_[idx].push_back(entry);
    ++wheel_count_;
  }
}

void CalendarSimulator::resize_wheel(std::size_t target_buckets) {
  // Gather every wheel entry (the unconsumed working list, pending adds,
  // and all buckets) and rebuild with occupancy-adapted geometry.
  std::vector<Entry> entries;
  entries.reserve(wheel_count_);
  entries.insert(entries.end(),
                 cur_.begin() + static_cast<std::ptrdiff_t>(cur_pos_),
                 cur_.end());
  entries.insert(entries.end(), cur_adds_.begin(), cur_adds_.end());
  for (auto& bucket : buckets_) {
    entries.insert(entries.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  cur_.clear();
  cur_pos_ = 0;
  cur_adds_.clear();

  buckets_.resize(target_buckets);
  if (!entries.empty()) {
    double lo = entries.front().when_s;
    double hi = lo;
    for (const Entry& e : entries) {
      lo = std::min(lo, e.when_s);
      hi = std::max(hi, e.when_s);
    }
    const double span = hi - lo;
    if (span > 0.0) {
      // Two average inter-event gaps per bucket: ~O(1) events per bucket
      // once the distribution is roughly uniform (Brown's heuristic).
      width_s_ = std::max(span * 2.0 / static_cast<double>(entries.size()),
                          1e-12);
      inv_width_s_ = 1.0 / width_s_;
    }
    double base = std::floor(lo / width_s_) * width_s_;
    if (!(base <= lo) || !std::isfinite(base)) base = lo;
    base_s_ = base;
  }
  next_bucket_ = 0;
  wheel_count_ = 0;
  for (const Entry& e : entries) {
    if (e.when_s >= wheel_end_s()) {
      overflow_.push(e);
      continue;
    }
    std::size_t idx = 0;
    if (e.when_s > base_s_) {
      idx = static_cast<std::size_t>((e.when_s - base_s_) * inv_width_s_);
    }
    if (idx >= buckets_.size()) idx = buckets_.size() - 1;
    buckets_[idx].push_back(e);
    ++wheel_count_;
  }
  // The new horizon can reach past the old one; overflow entries now inside
  // it must move into the wheel or they would fire after later bucket
  // entries.
  while (!overflow_.empty() && overflow_.top().when_s < wheel_end_s()) {
    const Entry e = overflow_.top();
    overflow_.pop();
    std::size_t idx = 0;
    if (e.when_s > base_s_) {
      idx = static_cast<std::size_t>((e.when_s - base_s_) * inv_width_s_);
    }
    if (idx >= buckets_.size()) idx = buckets_.size() - 1;
    buckets_[idx].push_back(e);
    ++wheel_count_;
  }
}

bool CalendarSimulator::ensure_head() {
  for (;;) {
    if (!cur_adds_.empty()) merge_adds();
    if (cur_pos_ < cur_.size()) {
      const Entry& head = cur_[cur_pos_];
      if (node(head.slot).status == Status::kCancelled) {
        free_slot(head.slot);
        ++cur_pos_;
        --wheel_count_;
        continue;
      }
      return true;
    }
    cur_.clear();
    cur_pos_ = 0;
    while (next_bucket_ < buckets_.size() && buckets_[next_bucket_].empty()) {
      ++next_bucket_;
    }
    if (next_bucket_ < buckets_.size()) {
      cur_.swap(buckets_[next_bucket_]);
      ++next_bucket_;
      if (cur_.size() > 1) std::sort(cur_.begin(), cur_.end(), EarlierEntry{});
      // Start the node loads for this bucket now; by the time each entry
      // fires, its (otherwise cold) slab line is already in flight.
      for (const Entry& e : cur_) {
        __builtin_prefetch(&node(e.slot), 1);
      }
      if (next_bucket_ < buckets_.size() && !buckets_[next_bucket_].empty()) {
        __builtin_prefetch(buckets_[next_bucket_].data(), 0);
      }
      continue;
    }
    if (overflow_.empty()) return false;
    rebase_from_overflow();
  }
}

bool CalendarSimulator::step() {
  if (!ensure_head()) return false;
  const Entry e = cur_[cur_pos_++];
  --wheel_count_;
  Node& n = node(e.slot);  // chunked slab: stable across nested schedules
  ensure(e.when_s >= now_s_, "Simulator: time went backwards");
  now_s_ = e.when_s;
  if (n.period_s > 0.0) {
    n.seq = next_seq_++;
    n.when_s = e.when_s + n.period_s;
    insert_entry(Entry{n.when_s, n.seq, e.slot});
    n.fn();
  } else {
    n.status = Status::kFiring;  // self-cancel during the callback is a no-op
    --live_count_;
    n.fn();
    free_slot(e.slot);
  }
  return true;
}

std::size_t CalendarSimulator::run_until(double until_s) {
  std::size_t ran = 0;
  while (ensure_head() && cur_[cur_pos_].when_s <= until_s) {
    if (step()) ++ran;
  }
  if (now_s_ < until_s) now_s_ = until_s;
  return ran;
}

std::size_t CalendarSimulator::run_before(double until_s) {
  std::size_t ran = 0;
  while (ensure_head() && cur_[cur_pos_].when_s < until_s) {
    if (step()) ++ran;
  }
  return ran;
}

double CalendarSimulator::next_time() {
  if (!ensure_head()) return std::numeric_limits<double>::infinity();
  return cur_[cur_pos_].when_s;
}

std::size_t CalendarSimulator::run_all() {
  std::size_t ran = 0;
  while (step()) ++ran;
  return ran;
}

void CalendarSimulator::restore_clock(double now_s) {
  require(std::isfinite(now_s) && now_s >= 0.0,
          "Simulator: restore_clock needs a finite time >= 0");
  require(live_count_ == 0,
          "Simulator: restore_clock requires an idle kernel (pending() == 0)");
  // pending() == 0 still leaves cancelled entries parked in the calendar;
  // sweep their slots back to the freelist before touching the geometry.
  for (std::uint32_t slot = 0; slot < slot_capacity_; ++slot) {
    if (node(slot).status == Status::kCancelled) free_slot(slot);
  }
  for (auto& bucket : buckets_) bucket.clear();
  cur_.clear();
  cur_pos_ = 0;
  cur_adds_.clear();
  while (!overflow_.empty()) overflow_.pop();
  wheel_count_ = 0;
  next_bucket_ = 0;
  double base = std::floor(now_s / width_s_) * width_s_;
  if (!(base <= now_s) || !std::isfinite(base)) base = now_s;
  base_s_ = base;
  now_s_ = now_s;
}

}  // namespace epm::sim
