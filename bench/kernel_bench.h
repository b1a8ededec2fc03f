// DES-kernel throughput microbench, shared by bench/exp_kernel_throughput
// and `epmctl kernelbench`.
//
// Measured sections (events/sec each, appended to BENCH_kernel.json):
//
//   kernel_schedule_fire      schedule N one-shots, drain them — with
//                             --threads independent simulator instances in
//                             parallel
//   kernel_schedule_cancel    schedule N, cancel every other one, drain
//   kernel_periodic           P periodic timers swept over a long horizon
//   kernel_hold_*             the classic hold model (pop one, push one at
//                             now + Exp(1), steady queue size), run A/B on
//                             the calendar-queue and binary-heap backends
//   kernel_client_sweep       the raw vectorized client-population sweep:
//                             collect / serve-batch / expire epochs over
//                             `sweep_clients` clients (client-visits/sec)
//   kernel_retry_storm_1m     the end-to-end retry-storm slice on the epoch
//                             engine, interleaved best-of-N A/B against
//                             kernel_retry_storm_1m_legacy (the PR 5
//                             heap-population path)
//   kernel_retry_storm_10m    the full 10M-client storm slice on the epoch
//                             engine, single shot, gated on absolute wall
//
// The pass/fail gates are *relative* where possible: the calendar backend
// must beat the binary heap by `min_hold_speedup` on the hold model, and
// the epoch engine must beat the legacy heap engine by `min_storm_speedup`
// on the same storm config inside the same run, so those verdicts do not
// depend on machine speed. The 10M section is the one absolute claim
// (single-digit seconds on a single node) and is gated on
// `max_storm_10m_wall_s`.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <cmath>
#include <vector>

#include "bench_report.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "faults/retry_storm.h"
#include "reference/faults/retry_storm_legacy.h"
#include "reference/sim/heap_simulator.h"
#include "sim/simulator.h"

namespace epm::bench {

struct KernelBenchConfig {
  std::size_t threads = 1;
  std::uint64_t seed = 42;
  double min_hold_speedup = 3.0;
  /// Hold-model resident queue size and hold operations per backend. The
  /// resident set is deliberately large (the paper's "millions of users"
  /// regime): the binary heap pays O(log n) cache-missing sift passes per
  /// hold there, while the calendar queue stays O(1).
  std::size_t hold_resident = 1 << 21;
  std::size_t hold_ops = 1 << 21;
  /// Hold-model repetitions per backend (best-of-N wall time, interleaved).
  std::size_t hold_reps = 3;
  /// One-shot events per schedule-fire/cancel section (per thread).
  std::size_t oneshot_events = 1 << 20;
  /// Periodic timers and firings for the periodic section.
  std::size_t periodic_timers = 1 << 12;
  std::size_t periodic_firings = 1 << 20;
  /// Clients in the retry-storm A/B slice; 0 skips the section (tests).
  std::size_t storm_clients = 1'000'000;
  /// Retry-storm A/B repetitions (best-of-N wall time, interleaved).
  std::size_t storm_reps = 3;
  /// Epoch engine must beat the legacy heap engine by this factor on the
  /// A/B storm; 0 disables the relative gate (smoke mode).
  double min_storm_speedup = 3.0;
  /// Absolute ceiling on the A/B storm's epoch-engine wall time; 0 = no
  /// ceiling. Used by the CI smoke (reduced population, loose ceiling).
  double max_storm_wall_s = 0.0;
  /// Clients in the raw sweep section; 0 skips.
  std::size_t sweep_clients = 1'000'000;
  std::size_t sweep_epochs = 20;
  /// Clients in the big single-shot storm; 0 skips.
  std::size_t storm_10m_clients = 10'000'000;
  /// Absolute wall-clock gate for the big storm; 0 = report only.
  double max_storm_10m_wall_s = 10.0;
};

struct KernelBenchOutcome {
  double hold_calendar_eps = 0.0;  ///< hold-model events/sec, calendar queue
  double hold_heap_eps = 0.0;      ///< hold-model events/sec, binary heap
  double hold_speedup = 0.0;
  double storm_engine_aps = 0.0;  ///< A/B storm attempts/sec, epoch engine
  double storm_legacy_aps = 0.0;  ///< A/B storm attempts/sec, heap engine
  double storm_speedup = 0.0;
  double storm_wall_s = 0.0;  ///< best epoch-engine wall on the A/B storm
  /// The two engines must agree bit-for-bit on the A/B storm; a mismatch
  /// fails the gate (a fast wrong engine is worthless).
  bool storm_outcomes_match = true;
  double storm_10m_wall_s = 0.0;
  double storm_10m_aps = 0.0;
  bool gate_ok = false;
};

namespace detail {

inline double now_wall_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

inline double exp_draw(SplitMix64& rng) {
  const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  return -std::log1p(-u);
}

/// Self-perpetuating hold event: firing draws Exp(1) and schedules its own
/// successor, so the queue holds `resident` events at all times. 24-byte
/// capture: inline for EventFn, heap-boxed by the baseline's std::function.
template <typename Sim>
struct HoldEvent {
  Sim* sim;
  SplitMix64* rng;
  std::size_t* remaining;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    sim->schedule_at(sim->now() + exp_draw(*rng), HoldEvent{*this});
  }
};

/// The retry-storm slice used by the A/B and 10M sections: capacity scaled
/// with the population (20k reference clients -> 1000 rps) so the slice
/// exercises a loaded-but-stable service at any size.
inline faults::RetryStormConfig make_bench_storm_config(std::size_t clients,
                                                        std::uint64_t seed) {
  faults::RetryStormConfig storm;
  storm.clients.clients = clients;
  storm.clients.seed = seed;
  storm.horizon_s = 30.0;
  storm.epoch_s = 1.0;
  storm.outage_start_s = 10.0;
  storm.outage_duration_s = 5.0;
  storm.recovery_window_epochs = 2;
  const double scale = static_cast<double>(clients) / 20000.0;
  storm.service_capacity_rps = 1000.0 * scale;
  storm.batch_rps = 300.0 * scale;
  storm.naive_queue_capacity = static_cast<std::size_t>(120000.0 * scale);
  return storm;
}

/// The engines must agree on every client-visible total; a fast wrong
/// engine must fail the bench, not pass it.
inline bool storm_outcomes_equal(const faults::RetryStormOutcome& a,
                                 const faults::RetryStormOutcome& b) {
  return a.attempts == b.attempts && a.intents == b.intents &&
         a.retries == b.retries && a.served_fresh == b.served_fresh &&
         a.served_stale == b.served_stale && a.timed_out == b.timed_out &&
         a.abandoned == b.abandoned && a.dark_failures == b.dark_failures &&
         a.max_queue_depth == b.max_queue_depth;
}

template <typename Sim>
double hold_model_wall_s(std::size_t resident, std::size_t ops,
                         std::uint64_t seed, std::size_t* fired_out) {
  Sim sim;
  SplitMix64 rng(seed);
  std::size_t remaining = ops;
  for (std::size_t i = 0; i < resident; ++i) {
    sim.schedule_at(exp_draw(rng),
                    HoldEvent<Sim>{&sim, &rng, &remaining});
  }
  const double t0 = now_wall_s();
  std::size_t fired = 0;
  while (sim.step()) ++fired;
  const double wall = now_wall_s() - t0;
  if (fired_out != nullptr) *fired_out = fired;
  return wall;
}

}  // namespace detail

inline KernelBenchOutcome run_kernel_bench(const KernelBenchConfig& config) {
  // Default the report to BENCH_kernel.json unless the caller already chose
  // a destination (or suppressed it with "-").
  ::setenv("EPM_BENCH_REPORT", "BENCH_kernel.json", /*overwrite=*/0);
  KernelBenchOutcome out;

  // -- schedule-fire, one independent simulator instance per thread --------
  {
    ThreadPool pool(resolve_thread_count(
        static_cast<std::int64_t>(config.threads)));
    std::vector<std::size_t> fired(config.threads, 0);
    const double t0 = detail::now_wall_s();
    pool.parallel_for(config.threads, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        sim::Simulator sim;
        SplitMix64 rng(config.seed + i);
        std::size_t count = 0;
        for (std::size_t e = 0; e < config.oneshot_events; ++e) {
          sim.schedule_at(detail::exp_draw(rng) * 100.0,
                          [&count] { ++count; });
        }
        sim.run_all();
        fired[i] = count;
      }
    });
    const double wall = detail::now_wall_s() - t0;
    double items = 0.0;
    for (const std::size_t f : fired) items += static_cast<double>(f);
    append_bench_record({"kernel_schedule_fire", config.threads, wall, items});
    std::printf("  schedule-fire    %10.0f events/s (%zu thread%s)\n",
                items / wall, config.threads, config.threads == 1 ? "" : "s");
  }

  // -- schedule-cancel -----------------------------------------------------
  {
    sim::Simulator sim;
    SplitMix64 rng(config.seed);
    std::vector<sim::EventHandle> handles;
    handles.reserve(config.oneshot_events);
    std::size_t count = 0;
    const double t0 = detail::now_wall_s();
    for (std::size_t e = 0; e < config.oneshot_events; ++e) {
      handles.push_back(sim.schedule_at(detail::exp_draw(rng) * 100.0,
                                        [&count] { ++count; }));
    }
    for (std::size_t e = 0; e < handles.size(); e += 2) sim.cancel(handles[e]);
    sim.run_all();
    const double wall = detail::now_wall_s() - t0;
    const auto items = static_cast<double>(config.oneshot_events);
    append_bench_record({"kernel_schedule_cancel", 1, wall, items});
    std::printf("  schedule-cancel  %10.0f events/s (half cancelled)\n",
                items / wall);
  }

  // -- periodic ------------------------------------------------------------
  {
    sim::Simulator sim;
    SplitMix64 rng(config.seed);
    std::size_t count = 0;
    for (std::size_t p = 0; p < config.periodic_timers; ++p) {
      sim.schedule_periodic(detail::exp_draw(rng), 0.5 + detail::exp_draw(rng),
                            [&count] { ++count; });
    }
    const double t0 = detail::now_wall_s();
    while (count < config.periodic_firings && sim.step()) {
    }
    const double wall = detail::now_wall_s() - t0;
    append_bench_record({"kernel_periodic", 1, wall,
                         static_cast<double>(count)});
    std::printf("  periodic         %10.0f events/s (%zu timers)\n",
                static_cast<double>(count) / wall, config.periodic_timers);
  }

  // -- hold model, calendar vs binary heap (the gate) ----------------------
  {
    // Interleaved best-of-N: both hold runs are DRAM-resident at this size,
    // so a noisy co-tenant can slow either arm by 2x. The minimum wall time
    // per backend measures unhindered kernel speed and keeps the A/B ratio
    // stable across loaded machines.
    std::size_t fired = 0;
    double cal_wall = 0.0;
    double heap_wall = 0.0;
    for (int rep = 0; rep < static_cast<int>(config.hold_reps); ++rep) {
      const double cal = detail::hold_model_wall_s<sim::CalendarSimulator>(
          config.hold_resident, config.hold_ops, config.seed, &fired);
      cal_wall = rep == 0 ? cal : std::min(cal_wall, cal);
      const double heap = detail::hold_model_wall_s<sim::HeapSimulator>(
          config.hold_resident, config.hold_ops, config.seed, &fired);
      heap_wall = rep == 0 ? heap : std::min(heap_wall, heap);
    }
    out.hold_calendar_eps = static_cast<double>(fired) / cal_wall;
    append_bench_record({"kernel_hold_calendar", 1, cal_wall,
                         static_cast<double>(fired)});
    out.hold_heap_eps = static_cast<double>(fired) / heap_wall;
    append_bench_record({"kernel_hold_heap", 1, heap_wall,
                         static_cast<double>(fired)});

    out.hold_speedup = out.hold_calendar_eps / out.hold_heap_eps;
    std::printf("  hold calendar    %10.0f events/s (%zu resident)\n",
                out.hold_calendar_eps, config.hold_resident);
    std::printf("  hold binary-heap %10.0f events/s\n", out.hold_heap_eps);
  }

  // -- raw client sweep ----------------------------------------------------
  if (config.sweep_clients > 0) {
    workload::ClientPopulationConfig pop_config;
    pop_config.clients = config.sweep_clients;
    pop_config.seed = config.seed;
    pop_config.threads = config.threads;
    workload::ClientPopulation pop(pop_config);
    const double t0 = detail::now_wall_s();
    for (std::size_t e = 0; e < config.sweep_epochs; ++e) {
      const double t = static_cast<double>(e);
      const auto& due = pop.collect_due(t, 1.0);
      pop.on_served_batch(due.data(), due.size(), t + 1.0);
      pop.expire_timeouts(t + 1.0);
    }
    const double wall = detail::now_wall_s() - t0;
    const auto items = static_cast<double>(config.sweep_clients) *
                       static_cast<double>(config.sweep_epochs);
    append_bench_record({"kernel_client_sweep", config.threads, wall, items});
    std::printf("  client sweep     %10.0f client-visits/s (%zu clients, %zu epochs)\n",
                items / wall, config.sweep_clients, config.sweep_epochs);
  }

  // -- retry-storm A/B: epoch engine vs PR 5 heap engine -------------------
  if (config.storm_clients > 0) {
    const auto storm =
        detail::make_bench_storm_config(config.storm_clients, config.seed);
    // Interleaved best-of-N, same reasoning as the hold A/B: the minimum
    // wall per engine keeps the ratio stable on a loaded machine.
    double engine_wall = 0.0;
    double legacy_wall = 0.0;
    faults::RetryStormOutcome engine_out;
    faults::RetryStormOutcome legacy_out;
    for (std::size_t rep = 0; rep < config.storm_reps; ++rep) {
      double t0 = detail::now_wall_s();
      engine_out = faults::run_retry_storm(storm);
      const double engine = detail::now_wall_s() - t0;
      engine_wall = rep == 0 ? engine : std::min(engine_wall, engine);
      t0 = detail::now_wall_s();
      legacy_out = faults::run_retry_storm_legacy(storm);
      const double legacy = detail::now_wall_s() - t0;
      legacy_wall = rep == 0 ? legacy : std::min(legacy_wall, legacy);
    }
    out.storm_wall_s = engine_wall;
    out.storm_engine_aps =
        static_cast<double>(engine_out.attempts) / engine_wall;
    out.storm_legacy_aps =
        static_cast<double>(legacy_out.attempts) / legacy_wall;
    out.storm_speedup = out.storm_engine_aps / out.storm_legacy_aps;
    out.storm_outcomes_match = detail::storm_outcomes_equal(engine_out,
                                                            legacy_out);
    append_bench_record({"kernel_retry_storm_1m", 1, engine_wall,
                         static_cast<double>(engine_out.attempts)});
    append_bench_record({"kernel_retry_storm_1m_legacy", 1, legacy_wall,
                         static_cast<double>(legacy_out.attempts)});
    std::printf("  retry-storm      %10.0f attempts/s epoch engine (%llu attempts, %zu clients)\n",
                out.storm_engine_aps,
                static_cast<unsigned long long>(engine_out.attempts),
                config.storm_clients);
    std::printf("  retry-storm      %10.0f attempts/s legacy heap engine\n",
                out.storm_legacy_aps);
    if (!out.storm_outcomes_match) {
      std::printf("  retry-storm      ENGINE MISMATCH: epoch and legacy outcomes differ\n");
    }
  }

  // -- 10M-client storm (the absolute single-node claim) -------------------
  if (config.storm_10m_clients > 0) {
    const auto storm = detail::make_bench_storm_config(
        config.storm_10m_clients, config.seed);
    const double t0 = detail::now_wall_s();
    const auto outcome = faults::run_retry_storm(storm);
    out.storm_10m_wall_s = detail::now_wall_s() - t0;
    const auto items = static_cast<double>(outcome.attempts);
    out.storm_10m_aps = items / out.storm_10m_wall_s;
    append_bench_record({"kernel_retry_storm_10m", 1, out.storm_10m_wall_s,
                         items});
    std::printf("  retry-storm 10M  %10.0f attempts/s (%llu attempts, %.2f s wall)\n",
                out.storm_10m_aps,
                static_cast<unsigned long long>(outcome.attempts),
                out.storm_10m_wall_s);
  }

  bool gate_ok = out.hold_speedup >= config.min_hold_speedup;
  std::printf("  hold speedup     %9.2fx calendar vs heap (gate: >= %.1fx) %s\n",
              out.hold_speedup, config.min_hold_speedup,
              out.hold_speedup >= config.min_hold_speedup ? "PASS" : "FAIL");
  if (config.storm_clients > 0) {
    gate_ok = gate_ok && out.storm_outcomes_match;
    if (config.min_storm_speedup > 0.0) {
      const bool pass = out.storm_speedup >= config.min_storm_speedup;
      gate_ok = gate_ok && pass;
      std::printf("  storm speedup    %9.2fx epoch vs legacy engine (gate: >= %.1fx) %s\n",
                  out.storm_speedup, config.min_storm_speedup,
                  pass ? "PASS" : "FAIL");
    }
    if (config.max_storm_wall_s > 0.0) {
      const bool pass = out.storm_wall_s <= config.max_storm_wall_s;
      gate_ok = gate_ok && pass;
      std::printf("  storm wall       %9.2fs (ceiling: <= %.1fs) %s\n",
                  out.storm_wall_s, config.max_storm_wall_s,
                  pass ? "PASS" : "FAIL");
    }
  }
  if (config.storm_10m_clients > 0 && config.max_storm_10m_wall_s > 0.0) {
    const bool pass = out.storm_10m_wall_s <= config.max_storm_10m_wall_s;
    gate_ok = gate_ok && pass;
    std::printf("  10M storm wall   %9.2fs (ceiling: <= %.1fs) %s\n",
                out.storm_10m_wall_s, config.max_storm_10m_wall_s,
                pass ? "PASS" : "FAIL");
  }
  out.gate_ok = gate_ok;
  return out;
}

}  // namespace epm::bench
