// Equivalence, determinism, and conservation suites for the vectorized
// client-population epoch engine:
//
//   * ClientSweepStreams     — the block RNG contract: raw-counter block
//     draws reproduce a SplitMix64 object's stream bit-for-bit, per client;
//   * ClientSweepEquivalence — the sweep engine reproduces the legacy heap
//     engine's batches (order included), ledger, and occupancy exactly
//     under randomized drives, and the templated storm driver produces
//     identical outcomes on both engines;
//   * ClientSweepDeterminism — the sharded sweep is bit-identical at 1, 2,
//     and 8 threads (fixed shard partition, deterministic merge);
//   * ClientSweepProperty    — the 12-counter ledger and all four
//     conservation identities hold every epoch on a randomized 100k-client
//     storm driven through the branch-free transitions.
#include <cstdint>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "faults/retry_storm.h"
#include "reference/faults/retry_storm_legacy.h"
#include "reference/workload/client_population_legacy.h"
#include "workload/client_population.h"

namespace epm {
namespace {

workload::ClientPopulationConfig random_sweep_config(Rng& rng,
                                                     std::size_t clients) {
  workload::ClientPopulationConfig config;
  config.clients = clients;
  config.think_time_s = rng.uniform(2.0, 30.0);
  config.request_timeout_s = rng.uniform(1.0, 6.0);
  config.reconnect_spread_s = rng.uniform(1.0, 20.0);
  config.start_spread_s = rng.uniform(0.0, 10.0);
  const workload::RetryBackoff backoffs[] = {
      workload::RetryBackoff::kImmediate, workload::RetryBackoff::kFixed,
      workload::RetryBackoff::kExponential};
  config.retry.backoff = backoffs[rng.uniform_int(0, 2)];
  config.retry.base_delay_s = rng.uniform(0.0, 3.0);
  config.retry.multiplier = rng.uniform(1.0, 3.0);
  config.retry.max_delay_s = rng.uniform(3.0, 30.0);
  config.retry.jitter_frac = rng.uniform(0.0, 0.9);
  config.retry.max_attempts = static_cast<std::size_t>(rng.uniform_int(1, 6));
  config.retry.abandon_cooldown_s =
      rng.uniform(0.0, 1.0) < 0.5 ? rng.uniform(1.0, 20.0) : 0.0;
  config.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return config;
}

bool ledgers_equal(const workload::ClientLedger& a,
                   const workload::ClientLedger& b) {
  return a.intents == b.intents && a.attempts == b.attempts &&
         a.retries == b.retries && a.served == b.served &&
         a.stale_served == b.stale_served && a.rejected == b.rejected &&
         a.timed_out == b.timed_out && a.dropped == b.dropped &&
         a.abandoned == b.abandoned &&
         a.retry_cancelled == b.retry_cancelled &&
         a.disconnected_intents == b.disconnected_intents &&
         a.disconnects == b.disconnects;
}

// The epoch engine derives per-client streams from the closed-form counter
// seed instead of walking a sequential seeder and per-client SplitMix64
// objects. This is the regression pin: for every client, block draws over
// the raw counter state must reproduce the object stream bit-for-bit.
TEST(ClientSweepStreams, BlockDrawsMatchSplitMix64PerClient) {
  for (const std::uint64_t seed : {0ull, 7ull, 42ull, 0xdeadbeefull}) {
    SplitMix64 seeder(seed);
    (void)seeder.next();  // draw 1 seeds the disconnect stream
    for (std::uint64_t id = 0; id < 1000; ++id) {
      SplitMix64 object(seeder.next());
      std::uint64_t raw = SplitMix64::mix(seed + (id + 2) * SplitMix64::kGamma);
      ASSERT_EQ(raw, object.state()) << "seed " << seed << " client " << id;
      for (int draw = 0; draw < 16; ++draw) {
        const std::uint64_t block = SplitMix64::mix(raw += SplitMix64::kGamma);
        ASSERT_EQ(block, object.next())
            << "seed " << seed << " client " << id << " draw " << draw;
      }
    }
  }
}

// Lockstep drive: both engines see the identical verdict/serve/disconnect
// script. Batches must match element-for-element (the (due, id) merge order
// is contractual), and the ledger and occupancy must agree after every
// epoch.
TEST(ClientSweepEquivalence, MatchesLegacyEngineUnderRandomDrive) {
  Rng meta(2024);
  for (int round = 0; round < 6; ++round) {
    const auto config = random_sweep_config(meta, 2000);
    workload::ClientPopulation sweep(config);
    workload::LegacyClientPopulation legacy(config);
    Rng drive(meta.next_u64());
    std::deque<std::uint32_t> queued;
    std::vector<std::uint32_t> cohort;
    for (int epoch = 0; epoch < 80; ++epoch) {
      const double t0 = epoch;
      const double t1 = t0 + 1.0;
      if (epoch == 25) {
        const double fraction = drive.uniform(0.0, 1.0);
        sweep.disconnect_fraction(fraction, t0);
        legacy.disconnect_fraction(fraction, t0);
      }
      if (epoch == 50) {
        sweep.disconnect_all(t0);
        legacy.disconnect_all(t0);
      }
      const auto batch = sweep.collect_due(t0, 1.0);  // copy: batch_ reused
      const auto& legacy_batch = legacy.collect_due(t0, 1.0);
      ASSERT_EQ(batch, legacy_batch) << "round " << round << " epoch " << epoch;
      for (const std::uint32_t id : batch) {
        if (drive.uniform(0.0, 1.0) < 0.3) {
          sweep.on_rejected(id, t0);
          legacy.on_rejected(id, t0);
        } else {
          sweep.on_admitted(id, t0);
          legacy.on_admitted(id, t0);
          queued.push_back(id);
        }
      }
      const auto serves = static_cast<std::size_t>(
          drive.uniform_int(0, static_cast<std::int64_t>(queued.size())));
      cohort.assign(queued.begin(),
                    queued.begin() + static_cast<std::ptrdiff_t>(serves));
      queued.erase(queued.begin(),
                   queued.begin() + static_cast<std::ptrdiff_t>(serves));
      // The sweep engine takes the cohort as one batch; the legacy engine
      // serves one at a time — the contract says these are equivalent.
      sweep.on_served_batch(cohort.data(), cohort.size(), t1);
      for (const std::uint32_t id : cohort) legacy.on_served(id, t1);
      sweep.expire_timeouts(t1);
      legacy.expire_timeouts(t1);

      ASSERT_TRUE(ledgers_equal(sweep.ledger(), legacy.ledger()))
          << "round " << round << " epoch " << epoch;
      ASSERT_EQ(sweep.waiting_count(), legacy.waiting_count());
      ASSERT_EQ(sweep.backoff_count(), legacy.backoff_count());
      ASSERT_EQ(sweep.lost_count(), legacy.lost_count());
      ASSERT_TRUE(sweep.conservation_ok()) << sweep.conservation_report();
      ASSERT_TRUE(legacy.conservation_ok()) << legacy.conservation_report();
    }
  }
}

// The templated storm driver must produce the same scenario outcome on both
// engines — the in-run A/B in bench/exp_kernel_throughput gates on exactly
// this equality at 1M clients; this pins it at test scale for every build.
TEST(ClientSweepEquivalence, StormDriverMatchesLegacyEngineOutcomes) {
  for (const bool defended : {false, true}) {
    auto config = faults::make_reference_retry_storm_config(
        workload::RetryBackoff::kExponential, 120.0, defended);
    config.clients.clients = 4000;
    config.service_capacity_rps = 200.0;
    config.batch_rps = 60.0;
    config.defense.bucket = {180.0, 180.0};
    config.defense.queue_capacity = 360;
    config.naive_queue_capacity = 24000;
    config.horizon_s = 600.0;
    const auto engine = faults::run_retry_storm(config);
    const auto legacy = faults::run_retry_storm_legacy(config);
    EXPECT_EQ(engine.intents, legacy.intents);
    EXPECT_EQ(engine.attempts, legacy.attempts);
    EXPECT_EQ(engine.retries, legacy.retries);
    EXPECT_EQ(engine.served_fresh, legacy.served_fresh);
    EXPECT_EQ(engine.served_stale, legacy.served_stale);
    EXPECT_EQ(engine.timed_out, legacy.timed_out);
    EXPECT_EQ(engine.abandoned, legacy.abandoned);
    EXPECT_EQ(engine.dark_failures, legacy.dark_failures);
    EXPECT_EQ(engine.shed_breaker, legacy.shed_breaker);
    EXPECT_EQ(engine.shed_bucket, legacy.shed_bucket);
    EXPECT_EQ(engine.shed_queue, legacy.shed_queue);
    EXPECT_EQ(engine.max_queue_depth, legacy.max_queue_depth);
    EXPECT_EQ(engine.recovered, legacy.recovered);
    EXPECT_DOUBLE_EQ(engine.end_goodput_rps, legacy.end_goodput_rps);
    EXPECT_TRUE(engine.conservation_ok) << engine.conservation_report;
    EXPECT_TRUE(legacy.conservation_ok) << legacy.conservation_report;
  }
}

/// One scripted drive, returning a digest of everything observable: batch
/// order checksum, full ledger, and final occupancy.
struct SweepDigest {
  std::uint64_t batch_checksum = 0;
  workload::ClientLedger ledger;
  std::size_t waiting = 0;
  std::size_t backoff = 0;
  std::size_t lost = 0;
};

SweepDigest drive_sharded(const workload::ClientPopulationConfig& base,
                          std::size_t threads, std::uint64_t drive_seed) {
  workload::ClientPopulationConfig config = base;
  config.threads = threads;
  workload::ClientPopulation pop(config);
  Rng drive(drive_seed);
  std::deque<std::uint32_t> queued;
  std::vector<std::uint32_t> cohort;
  SweepDigest digest;
  for (int epoch = 0; epoch < 60; ++epoch) {
    const double t0 = epoch;
    const double t1 = t0 + 1.0;
    if (epoch == 30) pop.disconnect_all(t0);
    for (const std::uint32_t id : pop.collect_due(t0, 1.0)) {
      digest.batch_checksum = digest.batch_checksum * 1315423911u + id;
      if (drive.uniform(0.0, 1.0) < 0.3) {
        pop.on_rejected(id, t0);
      } else {
        pop.on_admitted(id, t0);
        queued.push_back(id);
      }
    }
    const auto serves = static_cast<std::size_t>(
        drive.uniform_int(0, static_cast<std::int64_t>(queued.size())));
    cohort.assign(queued.begin(),
                  queued.begin() + static_cast<std::ptrdiff_t>(serves));
    queued.erase(queued.begin(),
                 queued.begin() + static_cast<std::ptrdiff_t>(serves));
    pop.on_served_batch(cohort.data(), cohort.size(), t1);
    pop.expire_timeouts(t1);
  }
  digest.ledger = pop.ledger();
  digest.waiting = pop.waiting_count();
  digest.backoff = pop.backoff_count();
  digest.lost = pop.lost_count();
  return digest;
}

// The fixed 64-shard partition and deterministic shard-order merge mean the
// thread count can never leak into results: 1, 2, and 8 workers must agree
// on every bit of the batch stream and ledger, across seeds.
TEST(ClientSweepDeterminism, BitIdenticalAcrossThreadCounts) {
  Rng meta(77);
  for (const std::uint64_t seed : {11ull, 222ull, 3333ull}) {
    auto config = random_sweep_config(meta, 5000);
    config.seed = seed;
    const std::uint64_t drive_seed = meta.next_u64();
    const auto one = drive_sharded(config, 1, drive_seed);
    const auto two = drive_sharded(config, 2, drive_seed);
    const auto eight = drive_sharded(config, 8, drive_seed);
    for (const auto* other : {&two, &eight}) {
      EXPECT_EQ(one.batch_checksum, other->batch_checksum) << "seed " << seed;
      EXPECT_TRUE(ledgers_equal(one.ledger, other->ledger)) << "seed " << seed;
      EXPECT_EQ(one.waiting, other->waiting);
      EXPECT_EQ(one.backoff, other->backoff);
      EXPECT_EQ(one.lost, other->lost);
    }
  }
}

// 100k clients through a randomized storm drive: the 12-counter ledger and
// all four conservation identities (attempt flow, attempt composition,
// failure routing, intent settlement — see ClientPopulation::conservation_ok)
// must hold at every epoch boundary, and the run must end with the books
// balanced under the branch-free table/mask transitions.
TEST(ClientSweepProperty, ConservationHoldsOnRandomized100kStorm) {
  Rng meta(424242);
  auto config = random_sweep_config(meta, 100'000);
  config.threads = 2;  // conservation must also hold on the parallel sweep
  workload::ClientPopulation pop(config);
  Rng drive(meta.next_u64());
  std::deque<std::uint32_t> queued;
  std::vector<std::uint32_t> cohort;
  for (int epoch = 0; epoch < 40; ++epoch) {
    const double t0 = epoch;
    const double t1 = t0 + 1.0;
    if (epoch == 12) pop.disconnect_all(t0);  // outage onset mid-run
    if (epoch == 24) pop.disconnect_fraction(0.25, t0);
    for (const std::uint32_t id : pop.collect_due(t0, 1.0)) {
      if (drive.uniform(0.0, 1.0) < 0.4) {
        pop.on_rejected(id, t0);
      } else {
        pop.on_admitted(id, t0);
        queued.push_back(id);
      }
    }
    const auto serves = static_cast<std::size_t>(
        drive.uniform_int(0, static_cast<std::int64_t>(queued.size())));
    cohort.assign(queued.begin(),
                  queued.begin() + static_cast<std::ptrdiff_t>(serves));
    queued.erase(queued.begin(),
                 queued.begin() + static_cast<std::ptrdiff_t>(serves));
    pop.on_served_batch(cohort.data(), cohort.size(), t1);
    pop.expire_timeouts(t1);
    ASSERT_TRUE(pop.conservation_ok())
        << "epoch " << epoch << ": " << pop.conservation_report();
  }
  const auto& led = pop.ledger();
  EXPECT_EQ(led.attempts, led.intents + led.retries);
  EXPECT_GT(led.attempts, 0u);
}

}  // namespace
}  // namespace epm
