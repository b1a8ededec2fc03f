// Property suite for deterministic checkpoint/restore (the robustness
// acceptance grid), on the control-plane world under a permanent leader
// death: for every (seed, shard count, thread count) combination the
// 4-datacenter world must (a) run bit-identically regardless of the shard
// and worker-thread count and (b) survive a mid-failover kill-and-restore
// with a bit-identical continuation.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "faults/control_chaos.h"

namespace epm::faults {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 17, 424242};
constexpr std::size_t kShards[] = {1, 2, 4};
constexpr std::size_t kThreads[] = {1, 2, 8};

ControlChaosConfig grid_config(std::uint64_t seed, std::size_t shards,
                               std::size_t threads) {
  ControlChaosConfig config;
  config.dcs = 4;
  config.shards = shards;
  config.threads = threads;
  config.seed = seed;
  config.controller_faults = make_leader_kill_plan();
  return config;
}

/// Snapshot after the leader's death (13.25 s), before its successor's
/// claim; kill a few epochs later.
ControlRestoreReport restore_drill(std::uint64_t seed, std::size_t shards,
                                   std::size_t threads) {
  return run_control_plane_with_restore(grid_config(seed, shards, threads),
                                        /*snapshot_at_s=*/14.0,
                                        /*kill_at_s=*/16.5);
}

std::string label(std::uint64_t seed, std::size_t shards,
                  std::size_t threads) {
  return "seed=" + std::to_string(seed) +
         " shards=" + std::to_string(shards) +
         " threads=" + std::to_string(threads);
}

TEST(SnapshotProperty, OutcomesAreThreadCountInvariant) {
  for (const std::uint64_t seed : kSeeds) {
    const ControlChaosOutcome baseline =
        run_control_plane(grid_config(seed, 1, 1));
    EXPECT_TRUE(baseline.conservation_ok)
        << label(seed, 1, 1) << ": " << baseline.report;
    EXPECT_TRUE(baseline.fifo_ok) << label(seed, 1, 1);
    for (const std::size_t shards : kShards) {
      for (const std::size_t threads : kThreads) {
        const ControlChaosOutcome out =
            run_control_plane(grid_config(seed, shards, threads));
        EXPECT_TRUE(baseline == out)
            << label(seed, shards, threads)
            << " diverged from the serial single-shard run";
      }
    }
  }
}

TEST(SnapshotProperty, KillAndRestoreIsBitIdenticalAcrossTheGrid) {
  for (const std::uint64_t seed : kSeeds) {
    for (const std::size_t shards : kShards) {
      for (const std::size_t threads : kThreads) {
        const ControlRestoreReport r = restore_drill(seed, shards, threads);
        EXPECT_TRUE(r.identical) << label(seed, shards, threads);
        EXPECT_TRUE(r.uninterrupted == r.restored)
            << label(seed, shards, threads);
        EXPECT_GT(r.snapshot_bytes, 0U) << label(seed, shards, threads);
        EXPECT_TRUE(r.restored.conservation_ok)
            << label(seed, shards, threads) << ": " << r.restored.report;
      }
    }
  }
}

TEST(SnapshotProperty, SnapshotsAreSeedSensitive) {
  // Restore does not launder determinism: different seeds stay different
  // runs even through the snapshot path.
  const ControlRestoreReport a = restore_drill(1, 2, 1);
  const ControlRestoreReport b = restore_drill(17, 2, 1);
  EXPECT_TRUE(a.identical);
  EXPECT_TRUE(b.identical);
  EXPECT_FALSE(a.restored == b.restored);
}

}  // namespace
}  // namespace epm::faults
