// The original binary-heap event scheduler (std::function events, hash-set
// cancellation tombstones) that sim::CalendarSimulator replaced. It is not
// part of the library: it lives here as the A/B baseline for
// bench/exp_kernel_throughput and as the cross-validation oracle of the
// kernel property suite, with the same observable contract as the
// calendar queue (same-timestamp FIFO, run_before half-open windows,
// restore_clock on an idle kernel).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/event_fn.h"

namespace epm::sim {

/// Binary-heap scheduler with the CalendarSimulator API.
class HeapSimulator {
 public:
  using Callback = std::function<void()>;

  /// Handle to a scheduled event, usable to cancel it (same shape as
  /// sim::EventHandle, which only the library kernel may mint).
  class Handle {
   public:
    Handle() = default;
    bool valid() const { return id_ != 0; }

   private:
    friend class HeapSimulator;
    explicit Handle(std::uint64_t id) : id_(id) {}
    std::uint64_t id_ = 0;
  };

  HeapSimulator() = default;
  HeapSimulator(const HeapSimulator&) = delete;
  HeapSimulator& operator=(const HeapSimulator&) = delete;

  double now() const { return now_s_; }

  Handle schedule_at(double when_s, Callback fn);
  Handle schedule_at(double when_s, EventFn fn);
  Handle schedule_after(double delay_s, Callback fn);
  Handle schedule_after(double delay_s, EventFn fn);
  Handle schedule_periodic(double first_s, double period_s, Callback fn);
  Handle schedule_periodic(double first_s, double period_s, EventFn fn);

  /// API-parity batch schedule (the heap has no bucket to amortize; this is
  /// a plain loop so the two backends stay drop-in interchangeable).
  template <typename It>
  void schedule_batch_at(double when_s, It first, It last) {
    for (It it = first; it != last; ++it) {
      schedule_at(when_s, std::move(*it));
    }
  }

  void cancel(Handle handle);
  std::size_t run_until(double until_s);
  /// Half-open mirror of run_until: fires events strictly before `until_s`
  /// and leaves now() at the last fired event (see CalendarSimulator).
  std::size_t run_before(double until_s);
  std::size_t run_all();
  bool step();
  /// Next pending timestamp or +infinity; drains cancelled tombstones off
  /// the heap top so a dead entry never masquerades as the head.
  double next_time();
  /// Snapshot-restore support, mirroring CalendarSimulator::restore_clock:
  /// requires pending() == 0, drops any cancelled tombstones, and sets the
  /// clock.
  void restore_clock(double now_s);
  std::size_t pending() const { return queue_.size() - cancelled_.size(); }

 private:
  struct Event {
    double when_s;
    std::uint64_t seq;
    std::uint64_t id;
    // Larger than zero => reschedule after firing.
    double period_s;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when_s != b.when_s) return a.when_s > b.when_s;
      return a.seq > b.seq;
    }
  };

  Handle push(double when_s, double period_s, Callback fn);
  bool is_cancelled(std::uint64_t id) const;
  /// Pops cancelled tombstones off the heap top; they must not satisfy the
  /// run_until time check on behalf of a later live event.
  void drain_cancelled_top();

  double now_s_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  /// Ids cancelled but not yet drained from the queue; erased when their
  /// queued instance pops, so the set stays bounded by live cancellations
  /// and every lookup is O(1) (a linear scan here made cancelling n events
  /// O(n^2) across the subsequent drain).
  std::unordered_set<std::uint64_t> cancelled_;
};

}  // namespace epm::sim
