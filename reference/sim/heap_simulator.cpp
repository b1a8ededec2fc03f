#include "reference/sim/heap_simulator.h"

#include <cmath>
#include <limits>
#include <memory>

#include "core/require.h"

namespace epm::sim {

HeapSimulator::Handle HeapSimulator::push(double when_s, double period_s, Callback fn) {
  require(when_s >= now_s_, "Simulator: cannot schedule in the past");
  require(static_cast<bool>(fn), "Simulator: empty event function");
  const std::uint64_t id = next_id_++;
  queue_.push(Event{when_s, next_seq_++, id, period_s, std::move(fn)});
  return Handle{id};
}

namespace {

/// Adapts a move-only EventFn to the copyable std::function the baseline
/// stores. Only the explicit-EventFn overloads pay this indirection.
HeapSimulator::Callback wrap(EventFn fn) {
  auto shared = std::make_shared<EventFn>(std::move(fn));
  return [shared] { (*shared)(); };
}

}  // namespace

HeapSimulator::Handle HeapSimulator::schedule_at(double when_s, Callback fn) {
  return push(when_s, 0.0, std::move(fn));
}

HeapSimulator::Handle HeapSimulator::schedule_at(double when_s, EventFn fn) {
  require(static_cast<bool>(fn), "Simulator: empty event function");
  return push(when_s, 0.0, wrap(std::move(fn)));
}

HeapSimulator::Handle HeapSimulator::schedule_after(double delay_s, Callback fn) {
  require(delay_s >= 0.0, "Simulator: negative delay");
  return push(now_s_ + delay_s, 0.0, std::move(fn));
}

HeapSimulator::Handle HeapSimulator::schedule_after(double delay_s, EventFn fn) {
  require(delay_s >= 0.0, "Simulator: negative delay");
  require(static_cast<bool>(fn), "Simulator: empty event function");
  return push(now_s_ + delay_s, 0.0, wrap(std::move(fn)));
}

HeapSimulator::Handle HeapSimulator::schedule_periodic(double first_s, double period_s,
                                             Callback fn) {
  require(period_s > 0.0, "Simulator: period must be positive");
  return push(first_s, period_s, std::move(fn));
}

HeapSimulator::Handle HeapSimulator::schedule_periodic(double first_s, double period_s,
                                             EventFn fn) {
  require(period_s > 0.0, "Simulator: period must be positive");
  require(static_cast<bool>(fn), "Simulator: empty event function");
  return push(first_s, period_s, wrap(std::move(fn)));
}

void HeapSimulator::cancel(Handle handle) {
  if (!handle.valid()) return;
  cancelled_.insert(handle.id_);
}

bool HeapSimulator::is_cancelled(std::uint64_t id) const {
  return cancelled_.count(id) > 0;
}

void HeapSimulator::drain_cancelled_top() {
  while (!queue_.empty() && is_cancelled(queue_.top().id)) {
    cancelled_.erase(queue_.top().id);
    queue_.pop();
  }
}

bool HeapSimulator::step() {
  while (!queue_.empty()) {
    Event ev = queue_.top();
    queue_.pop();
    // At most one queued instance exists per id (periodic events are
    // re-queued only after firing), so a drained id can be forgotten now.
    if (cancelled_.erase(ev.id) > 0) continue;
    ensure(ev.when_s >= now_s_, "Simulator: time went backwards");
    now_s_ = ev.when_s;
    if (ev.period_s > 0.0) {
      queue_.push(Event{ev.when_s + ev.period_s, next_seq_++, ev.id, ev.period_s, ev.fn});
    }
    ev.fn();
    if (ev.period_s <= 0.0 && !cancelled_.empty()) {
      // A one-shot that cancelled itself from its own callback can never be
      // drained from the queue again; drop the tombstone so pending() stays
      // exact.
      cancelled_.erase(ev.id);
    }
    return true;
  }
  return false;
}

std::size_t HeapSimulator::run_until(double until_s) {
  std::size_t ran = 0;
  for (;;) {
    // A cancelled tombstone at the top must not satisfy the time check on
    // behalf of a later live event.
    drain_cancelled_top();
    if (queue_.empty() || queue_.top().when_s > until_s) break;
    if (step()) ++ran;
  }
  if (now_s_ < until_s) now_s_ = until_s;
  return ran;
}

std::size_t HeapSimulator::run_before(double until_s) {
  std::size_t ran = 0;
  for (;;) {
    drain_cancelled_top();
    if (queue_.empty() || queue_.top().when_s >= until_s) break;
    if (step()) ++ran;
  }
  return ran;
}

double HeapSimulator::next_time() {
  drain_cancelled_top();
  return queue_.empty() ? std::numeric_limits<double>::infinity()
                        : queue_.top().when_s;
}

std::size_t HeapSimulator::run_all() {
  std::size_t ran = 0;
  while (step()) ++ran;
  return ran;
}

void HeapSimulator::restore_clock(double now_s) {
  require(std::isfinite(now_s) && now_s >= 0.0,
          "Simulator: restore_clock needs a finite time >= 0");
  require(pending() == 0,
          "Simulator: restore_clock requires an idle kernel (pending() == 0)");
  queue_ = {};  // only cancelled tombstones remain; drop them with the heap
  cancelled_.clear();
  now_s_ = now_s;
}

}  // namespace epm::sim
