// Property suite: the calendar-queue scheduler and the binary-heap baseline
// are observationally identical. Both backends execute the same randomized
// script of schedule/cancel/periodic/advance operations, and every firing
// (timestamp + identity), every pending() probe, and the final clock must
// match exactly — the contract that makes the reference heap scheduler a
// valid oracle for the calendar queue.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "reference/sim/heap_simulator.h"
#include "sim/simulator.h"

namespace epm::sim {
namespace {

struct ScriptResult {
  std::vector<std::pair<double, int>> fires;  ///< (time, script handle index)
  std::vector<std::size_t> pending_probes;
  double final_now = 0.0;
};

/// Runs the op script derived from `seed` on one backend. All decisions are
/// drawn from the RNG plus state that evolves identically on both backends
/// (fired flags follow the fire order, which this suite asserts is shared),
/// so the two runs see the very same script.
template <typename Sim>
ScriptResult run_script(std::uint64_t seed, int ops) {
  Sim sim;
  SplitMix64 rng(seed);
  ScriptResult result;
  std::vector<decltype(sim.schedule_at(0.0, EventFn{}))> handles;
  std::vector<bool> fired;     // one-shots only; periodics stay false
  std::vector<bool> periodic;
  std::vector<bool> cancelled;

  const auto uniform = [&rng] {
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  };
  const auto record = [&result, &sim](int idx) {
    result.fires.emplace_back(sim.now(), idx);
  };

  for (int op = 0; op < ops; ++op) {
    const std::uint64_t roll = rng.next() % 100;
    if (roll < 55) {  // schedule_at, mostly near future, sometimes far
      const int idx = static_cast<int>(handles.size());
      const double horizon = roll < 50 ? 10.0 : 1e5;
      handles.push_back(sim.schedule_at(
          sim.now() + uniform() * horizon,
          [&fired, &record, idx] {
            fired[idx] = true;
            record(idx);
          }));
      fired.push_back(false);
      periodic.push_back(false);
      cancelled.push_back(false);
    } else if (roll < 65) {  // schedule_after
      const int idx = static_cast<int>(handles.size());
      handles.push_back(sim.schedule_after(uniform() * 5.0,
                                           [&fired, &record, idx] {
                                             fired[idx] = true;
                                             record(idx);
                                           }));
      fired.push_back(false);
      periodic.push_back(false);
      cancelled.push_back(false);
    } else if (roll < 70) {  // schedule_periodic
      const int idx = static_cast<int>(handles.size());
      handles.push_back(sim.schedule_periodic(sim.now() + uniform() * 2.0,
                                              0.25 + uniform() * 2.0,
                                              [&record, idx] { record(idx); }));
      fired.push_back(false);
      periodic.push_back(true);
      cancelled.push_back(false);
    } else if (roll < 85) {  // cancel a live handle
      if (!handles.empty()) {
        const auto pick = static_cast<std::size_t>(rng.next() % handles.size());
        // Only cancel handles that have not completed: cancelling a fired
        // one-shot is a no-op by contract, but picking live targets keeps
        // the script exercising real cancellations.
        if (!cancelled[pick] && (periodic[pick] || !fired[pick])) {
          sim.cancel(handles[pick]);
          cancelled[pick] = true;
        }
      }
    } else if (roll < 95) {  // advance the clock a little
      sim.run_until(sim.now() + uniform() * 3.0);
      result.pending_probes.push_back(sim.pending());
    } else {  // single step
      sim.step();
      result.pending_probes.push_back(sim.pending());
    }
  }

  // Stop the periodic generators, then drain everything that remains.
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (periodic[i] && !cancelled[i]) sim.cancel(handles[i]);
  }
  sim.run_all();
  result.pending_probes.push_back(sim.pending());
  result.final_now = sim.now();
  return result;
}

TEST(SimKernelProperty, BackendsAgreeOnRandomizedScripts) {
  for (const std::uint64_t seed : {11ULL, 2026ULL, 777216ULL}) {
    const ScriptResult cal = run_script<CalendarSimulator>(seed, 10000);
    const ScriptResult heap = run_script<HeapSimulator>(seed, 10000);
    ASSERT_EQ(cal.fires.size(), heap.fires.size()) << "seed " << seed;
    for (std::size_t i = 0; i < cal.fires.size(); ++i) {
      ASSERT_EQ(cal.fires[i].first, heap.fires[i].first)
          << "seed " << seed << " fire " << i;
      ASSERT_EQ(cal.fires[i].second, heap.fires[i].second)
          << "seed " << seed << " fire " << i;
    }
    EXPECT_EQ(cal.pending_probes, heap.pending_probes) << "seed " << seed;
    EXPECT_EQ(cal.final_now, heap.final_now) << "seed " << seed;
    EXPECT_EQ(cal.pending_probes.back(), 0u) << "seed " << seed;
  }
}

TEST(SimKernelProperty, BackendsAgreeOnBatchSchedules) {
  // Epoch-style usage: at each boundary, batch-schedule a burst of
  // completions for the next boundary, mixed with stray singles.
  const auto run = [](auto& sim) {
    SplitMix64 rng(99);
    std::vector<std::pair<double, int>> log;
    int id = 0;
    for (int epoch = 1; epoch <= 50; ++epoch) {
      const double t = static_cast<double>(epoch);
      std::vector<EventFn> batch;
      const int burst = 1 + static_cast<int>(rng.next() % 40);
      for (int i = 0; i < burst; ++i) {
        const int my = id++;
        batch.emplace_back(EventFn{[&log, &sim, my] {
          log.emplace_back(sim.now(), my);
        }});
      }
      sim.schedule_batch_at(t, batch.begin(), batch.end());
      if (rng.next() % 2 == 0) {
        const int my = id++;
        sim.schedule_at(t, [&log, &sim, my] { log.emplace_back(sim.now(), my); });
      }
      sim.run_until(t);
    }
    return log;
  };
  CalendarSimulator cal;
  HeapSimulator heap;
  const auto cal_log = run(cal);
  const auto heap_log = run(heap);
  EXPECT_EQ(cal_log, heap_log);
  EXPECT_EQ(cal.pending(), heap.pending());
}

}  // namespace
}  // namespace epm::sim
