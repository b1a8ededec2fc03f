// Batch-order pins for the client sweep engine's collect_due on the inputs
// where a due-time sort is easiest to get wrong: exact ties and dues of both
// signs. Each test drives the sweep engine in lockstep with the reference
// heap engine (LegacyClientPopulation, which pops in (due, id) order) at 1,
// 2, and 8 threads, and requires identical batches, ledgers, and occupancy
// after every epoch.
//
//   * every client due at exactly 0.0 (start_spread_s = 0): the first batch
//     is ids 0..N-1 across all 64 shards;
//   * immediate backoff with zero delay and zero jitter: mass rejections
//     re-offer at exactly their rejection time, in groups of equal dues;
//   * disconnect_all at a negative time: dues straddle zero, and one epoch
//     collects negative and positive dues together.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "reference/workload/client_population_legacy.h"
#include "workload/client_population.h"

namespace epm {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// Both engines plus the shared drive state of one lockstep run.
class Lockstep {
 public:
  Lockstep(const workload::ClientPopulationConfig& config, std::size_t threads,
           std::uint64_t drive_seed)
      : sweep_(with_threads(config, threads)), legacy_(config), drive_(drive_seed) {}

  /// One epoch [t0, t0 + dt): collects on both engines and returns the
  /// sweep's batch after asserting it equals the legacy batch. Each attempt
  /// is rejected with probability `reject_p`, at a rejection time drawn
  /// from `reject_times` (few distinct values, so re-offers tie); the rest
  /// are admitted at t0. Some queued requests are served at the epoch end,
  /// then deadlines expire there.
  std::vector<std::uint32_t> epoch(double t0, double dt, double reject_p,
                                   const std::vector<double>& reject_times) {
    std::vector<std::uint32_t> batch = sweep_.collect_due(t0, dt);
    const auto& legacy_batch = legacy_.collect_due(t0, dt);
    EXPECT_EQ(batch, legacy_batch) << "epoch at t0 = " << t0;
    for (const std::uint32_t id : batch) {
      if (drive_.uniform(0.0, 1.0) < reject_p) {
        const auto pick = static_cast<std::size_t>(drive_.uniform_int(
            0, static_cast<std::int64_t>(reject_times.size()) - 1));
        sweep_.on_rejected(id, reject_times[pick]);
        legacy_.on_rejected(id, reject_times[pick]);
      } else {
        sweep_.on_admitted(id, t0);
        legacy_.on_admitted(id, t0);
        queued_.push_back(id);
      }
    }
    const double t1 = t0 + dt;
    const auto serves = static_cast<std::size_t>(
        drive_.uniform_int(0, static_cast<std::int64_t>(queued_.size())));
    cohort_.assign(queued_.begin(),
                   queued_.begin() + static_cast<std::ptrdiff_t>(serves));
    queued_.erase(queued_.begin(),
                  queued_.begin() + static_cast<std::ptrdiff_t>(serves));
    sweep_.on_served_batch(cohort_.data(), cohort_.size(), t1);
    for (const std::uint32_t id : cohort_) legacy_.on_served(id, t1);
    sweep_.expire_timeouts(t1);
    legacy_.expire_timeouts(t1);
    check_books(t0);
    return batch;
  }

  void disconnect_all(double now_s) {
    sweep_.disconnect_all(now_s);
    legacy_.disconnect_all(now_s);
    check_books(now_s);
  }

 private:
  static workload::ClientPopulationConfig with_threads(
      workload::ClientPopulationConfig config, std::size_t threads) {
    config.threads = threads;
    return config;
  }

  void check_books(double t) {
    const auto& a = sweep_.ledger();
    const auto& b = legacy_.ledger();
    EXPECT_EQ(a.intents, b.intents) << "t = " << t;
    EXPECT_EQ(a.attempts, b.attempts) << "t = " << t;
    EXPECT_EQ(a.retries, b.retries) << "t = " << t;
    EXPECT_EQ(a.served, b.served) << "t = " << t;
    EXPECT_EQ(a.stale_served, b.stale_served) << "t = " << t;
    EXPECT_EQ(a.rejected, b.rejected) << "t = " << t;
    EXPECT_EQ(a.timed_out, b.timed_out) << "t = " << t;
    EXPECT_EQ(a.dropped, b.dropped) << "t = " << t;
    EXPECT_EQ(a.abandoned, b.abandoned) << "t = " << t;
    EXPECT_EQ(a.retry_cancelled, b.retry_cancelled) << "t = " << t;
    EXPECT_EQ(a.disconnected_intents, b.disconnected_intents) << "t = " << t;
    EXPECT_EQ(a.disconnects, b.disconnects) << "t = " << t;
    EXPECT_EQ(sweep_.waiting_count(), legacy_.waiting_count()) << "t = " << t;
    EXPECT_EQ(sweep_.backoff_count(), legacy_.backoff_count()) << "t = " << t;
    EXPECT_EQ(sweep_.lost_count(), legacy_.lost_count()) << "t = " << t;
    EXPECT_TRUE(sweep_.conservation_ok()) << sweep_.conservation_report();
  }

  workload::ClientPopulation sweep_;
  workload::LegacyClientPopulation legacy_;
  Rng drive_;
  std::deque<std::uint32_t> queued_;
  std::vector<std::uint32_t> cohort_;
};

workload::ClientPopulationConfig tie_config(std::size_t clients) {
  workload::ClientPopulationConfig config;
  config.clients = clients;
  config.think_time_s = 6.0;
  config.request_timeout_s = 2.0;
  config.reconnect_spread_s = 5.0;
  config.retry.backoff = workload::RetryBackoff::kImmediate;
  config.retry.base_delay_s = 0.0;
  config.retry.jitter_frac = 0.0;
  config.retry.max_attempts = 5;
  config.retry.abandon_cooldown_s = 3.0;
  config.seed = 1234;
  return config;
}

// Every client is due at exactly 0.0, so the first batch holds one key for
// the whole population and must come back in plain id order — across every
// one of the 64 shards, not per shard.
TEST(ClientSweepOrder, ZeroStartSpreadFirstBatchIsIdOrder) {
  auto config = tie_config(3001);
  config.start_spread_s = 0.0;
  std::vector<std::uint32_t> ids(config.clients);
  std::iota(ids.begin(), ids.end(), 0u);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    Lockstep run(config, threads, 55);
    EXPECT_EQ(run.epoch(0.0, 1.0, 0.5, {0.0}), ids);
    // Half the population was rejected at 0.0 with zero delay: the next
    // batch re-offers all of them at one tied due, again in id order.
    for (int e = 1; e < 20; ++e) run.epoch(e, 1.0, 0.5, {static_cast<double>(e)});
  }
}

// Immediate backoff with zero delay and zero jitter: a rejected client's
// next due is exactly its rejection time. Rejecting most of each batch at
// one of three instants makes every later batch a few large groups of equal
// dues ahead of the fresh intents' distinct ones.
TEST(ClientSweepOrder, ZeroDelayRetriesTieAtTheirRejectionTime) {
  auto config = tie_config(5000);
  config.start_spread_s = 4.0;
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    Lockstep run(config, threads, 66);
    std::size_t max_batch = 0;
    for (int e = 0; e < 40; ++e) {
      const double t0 = 0.5 * e;
      const auto batch = run.epoch(t0, 0.5, 0.8, {t0, t0 + 0.125, t0 + 0.25});
      max_batch = std::max(max_batch, batch.size());
      if (e == 20) run.disconnect_all(t0 + 0.5);
    }
    EXPECT_GT(max_batch, config.clients / 4);
  }
}

// disconnect_all at a negative time: reconnect dues are -30 + Exp(20), so
// they straddle zero. The wide epoch [-5, 5) collects negative and positive
// dues in one batch; rejections at -0.0 and +0.0 re-offer at a due of zero
// that must tie (the two compare equal) and fall between the signs.
TEST(ClientSweepOrder, NegativeDisconnectTimeMixesSigns) {
  auto config = tie_config(4000);
  config.reconnect_spread_s = 20.0;
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    Lockstep run(config, threads, 77);
    run.disconnect_all(-30.0);
    const auto early = run.epoch(-40.0, 35.0, 0.3, {-20.0, -12.5});
    EXPECT_FALSE(early.empty());
    const auto mixed = run.epoch(-5.0, 10.0, 0.6, {-0.0, 0.0, -2.5});
    EXPECT_FALSE(mixed.empty());
    for (int e = 0; e < 30; ++e) {
      const double t0 = 5.0 + 1.5 * e;
      run.epoch(t0, 1.5, 0.5, {t0 - 7.0, t0});
    }
  }
}

}  // namespace
}  // namespace epm
