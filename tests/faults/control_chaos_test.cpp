// The control-plane chaos harness end-to-end: clean no-fault runs, the
// kill-the-leader drill (defended vs naive, with and without a WAN
// partition), the split-brain drill, grid-script controller kills,
// mid-failover save/restore bit-identity, and the per-pair FIFO / zero-loss
// message accounting under open partitions and degraded links.
#include <gtest/gtest.h>

#include <stdexcept>

#include "faults/control_chaos.h"
#include "network/interdc_link.h"

namespace epm::faults {
namespace {

ControlChaosConfig base_config() {
  ControlChaosConfig config;
  config.dcs = 4;
  config.seed = 7;
  return config;
}

TEST(ControlChaos, NoFaultRunIsCleanAndOnlyTheSeedLeaderActs) {
  const ControlChaosOutcome out = run_control_plane(base_config());
  EXPECT_EQ(0U, out.total_sla_violations) << out.report;
  EXPECT_EQ(0U, out.total_alarms) << out.report;
  EXPECT_TRUE(out.lease_unique_ok);
  EXPECT_TRUE(out.fencing_clean);
  EXPECT_TRUE(out.conservation_ok) << out.report;
  EXPECT_DOUBLE_EQ(42.0, out.final_now_s);
  EXPECT_GT(out.control_messages, 0U);
  ASSERT_EQ(4U, out.replicas.size());
  // Replica 0 holds its seeded lease the whole run; nobody else claims.
  EXPECT_EQ(1U, out.replicas[0].claims);
  for (std::size_t r = 1; r < 4; ++r) {
    EXPECT_TRUE(out.replicas[r].hosted);
    EXPECT_EQ(0U, out.replicas[r].claims);
    EXPECT_EQ(0U, out.replicas[r].depositions);
  }
  for (const ControlDcOutcome& dc : out.dcs) {
    EXPECT_GT(dc.epochs, 0U);
    EXPECT_GT(dc.commands_applied, 0U);  // the eco program reached every DC
    EXPECT_EQ(0U, dc.safe_state_trips);
    EXPECT_EQ(0U, dc.double_actuations);
    EXPECT_GT(dc.heartbeats_seen, 0U);
  }
  // Every replica converges on the same journal: all 24 program steps.
  for (const ControlReplicaOutcome& r : out.replicas) {
    EXPECT_EQ(24U, r.journal_entries);
  }
}

TEST(ControlChaos, OutcomeIsBitIdenticalAcrossShardAndThreadCounts) {
  ControlChaosConfig serial = base_config();
  serial.shards = 1;
  const ControlChaosOutcome reference = run_control_plane(serial);
  for (const std::size_t shards : {2U, 4U}) {
    for (const std::size_t threads : {1U, 2U, 8U}) {
      ControlChaosConfig c = base_config();
      c.shards = shards;
      c.threads = threads;
      const ControlChaosOutcome out = run_control_plane(c);
      EXPECT_TRUE(reference == out)
          << "shards=" << shards << " threads=" << threads << "\nref: "
          << reference.report << "\ngot: " << out.report;
    }
  }
}

TEST(ControlChaos, LeaderKillGateDefendedSurvivesNaiveViolates) {
  const ControlLeaderKillReport rep =
      run_leader_kill_drill(/*dcs=*/4, /*threads=*/2, /*seed=*/7,
                            /*with_partition=*/false);
  EXPECT_TRUE(rep.defended_clean)
      << "defended: " << rep.defended.report;
  EXPECT_TRUE(rep.naive_violates) << "naive: " << rep.naive.report;
  EXPECT_TRUE(rep.gate_ok);

  // Defended: replica 1 (shortest staggered TTL) takes over exactly once
  // and resumes the half-issued eco exit.
  EXPECT_EQ(1U, rep.defended.replicas[1].claims);
  EXPECT_GT(rep.defended.replicas[1].commands_replayed, 0U);
  EXPECT_GT(rep.defended.replicas[1].commands_issued, 0U);
  EXPECT_EQ(1U, rep.defended.replicas[0].crashes);
  // The replay was suppressed by uid where already applied — rejections on
  // the actuator ledgers, zero double actuations anywhere.
  std::uint64_t rejections = 0;
  for (const ControlDcOutcome& dc : rep.defended.dcs) {
    rejections += dc.fencing_rejections;
    EXPECT_EQ(0U, dc.double_actuations);
  }
  EXPECT_GT(rejections, 0U);

  // Naive: the dead controller strands the unreached DCs in eco mode.
  EXPECT_LT(rep.naive.fleet_end_frac, 0.9);
  EXPECT_GT(rep.naive.total_sla_violations, 0U);
  EXPECT_GT(rep.naive.total_alarms, 0U);
}

TEST(ControlChaos, LeaderKillGateHoldsAtOtherFleetSizes) {
  for (const std::size_t dcs : {3U, 6U}) {
    const ControlLeaderKillReport rep =
        run_leader_kill_drill(dcs, /*threads=*/2, /*seed=*/11,
                              /*with_partition=*/false);
    EXPECT_TRUE(rep.gate_ok)
        << "dcs=" << dcs << "\ndefended: " << rep.defended.report
        << "\nnaive: " << rep.naive.report;
  }
}

TEST(ControlChaos, PartitionedDcFallsBackToSafeStateBeforeTheRamp) {
  const ControlLeaderKillReport rep =
      run_leader_kill_drill(/*dcs=*/4, /*threads=*/2, /*seed=*/7,
                            /*with_partition=*/true);
  EXPECT_TRUE(rep.gate_ok)
      << "defended: " << rep.defended.report
      << "\nnaive: " << rep.naive.report;
  // DC 0 was cut off from the new leader through the failover window: its
  // dead-man's switch must have tripped it to safe defaults.
  EXPECT_GE(rep.defended.dcs[0].safe_state_trips, 1U);
  for (std::size_t d = 1; d < 4; ++d) {
    EXPECT_EQ(0U, rep.defended.dcs[d].safe_state_trips);
  }
}

TEST(ControlChaos, SplitBrainActuationsAreFencedAndTheImposterDeposed) {
  const ControlSplitBrainReport rep =
      run_split_brain_drill(/*dcs=*/4, /*threads=*/2, /*seed=*/7);
  EXPECT_TRUE(rep.passed) << rep.outcome.report;
  EXPECT_GT(rep.stale_fenced, 0U);
  EXPECT_EQ(0U, rep.double_actuations);
  EXPECT_TRUE(rep.stale_leader_deposed);
  // The woken leader's heartbeats were recognized as stale by its peers.
  std::uint64_t stale_heartbeats = 0;
  for (const ControlReplicaOutcome& r : rep.outcome.replicas) {
    stale_heartbeats += r.stale_heartbeats;
  }
  EXPECT_GT(stale_heartbeats, 0U);
  // Second rejection layer: its journal replications were fenced too.
  std::uint64_t journal_rejections = 0;
  for (const ControlReplicaOutcome& r : rep.outcome.replicas) {
    journal_rejections += r.journal_rejected_stale;
  }
  EXPECT_GT(journal_rejections, 0U);
  // And the fleet stayed clean throughout.
  EXPECT_EQ(0U, rep.outcome.total_sla_violations) << rep.outcome.report;
  EXPECT_EQ(0U, rep.outcome.total_alarms);
}

TEST(ControlChaos, GridScriptKillsCoLocatedControllersTogether) {
  ControlChaosConfig config = base_config();
  config.grid_script = make_reference_control_grid_script();
  const ControlChaosOutcome out = run_control_plane(config);
  // In the 4-DC reference fleet the americas region hosts pnw and virginia
  // (DCs 0-1): both controllers died with the grid event; the surviving
  // replica with the shortest staggered TTL (ireland, DC 2) took over.
  EXPECT_EQ(1U, out.replicas[0].crashes);
  EXPECT_EQ(1U, out.replicas[1].crashes);
  EXPECT_EQ(0U, out.replicas[2].crashes);
  EXPECT_EQ(0U, out.replicas[3].crashes);
  EXPECT_EQ(1U, out.replicas[2].claims);
  EXPECT_EQ(0U, out.replicas[3].claims);
  EXPECT_EQ(0U, out.total_sla_violations) << out.report;
  EXPECT_EQ(0U, out.total_alarms) << out.report;
  EXPECT_TRUE(out.lease_unique_ok);
  EXPECT_TRUE(out.fencing_clean);
  EXPECT_TRUE(out.conservation_ok);
}

TEST(ControlChaos, RestoredRunFinishesBitIdenticalThroughTheFailover) {
  ControlChaosConfig config = base_config();
  config.controller_faults = make_leader_kill_plan();
  // Snapshot after the kill but before the successor's claim (kill at
  // 13.25, claim at 16.0): the failover itself replays from the snapshot.
  const ControlRestoreReport rep =
      run_control_plane_with_restore(config, /*snapshot_at_s=*/14.0,
                                     /*kill_at_s=*/16.5);
  EXPECT_TRUE(rep.identical)
      << "uninterrupted: " << rep.uninterrupted.report
      << "\nrestored: " << rep.restored.report;
  EXPECT_GT(rep.snapshot_bytes, 0U);
  EXPECT_EQ(1U, rep.restored.replicas[1].claims);
}

TEST(ControlChaos, RejectsMalformedConfigurations) {
  ControlChaosConfig bad = base_config();
  bad.shards = 3;  // does not divide 4
  EXPECT_THROW(run_control_plane(bad), std::invalid_argument);

  ControlChaosConfig wrong_fault = base_config();
  wrong_fault.controller_faults = "crash:0@5+1";  // a server fault, not ctl-*
  EXPECT_THROW(run_control_plane(wrong_fault), std::invalid_argument);

  ControlChaosConfig out_of_range = base_config();
  out_of_range.controller_faults = "ctl-crash:9@5+1";  // only 4 replicas
  EXPECT_THROW(run_control_plane(out_of_range), std::invalid_argument);

  // A link plan with mismatched sharding is rejected up front.
  ControlChaosConfig two_shards = base_config();
  two_shards.shards = 2;
  network::InterDcLinkPlan plan(4);
  EXPECT_THROW(run_control_plane(two_shards, &plan), std::invalid_argument);

  EXPECT_THROW(run_leader_kill_drill(2, 1, 1, false), std::invalid_argument);
}

TEST(ControlChaos, PlainRunDeliversEveryMessageInFifoOrder) {
  const ControlChaosOutcome out = run_control_plane(base_config());
  EXPECT_TRUE(out.fifo_ok);
  EXPECT_GT(out.control_messages, 0U);
  EXPECT_EQ(out.control_messages, out.messages_received);
  EXPECT_EQ(0U, out.final_pending);
  EXPECT_TRUE(out.conservation_ok) << out.report;
}

TEST(ControlChaos, PartitionDrillParksHealsAndLosesNothing) {
  ControlChaosConfig config = base_config();
  config.threads = 2;
  const ControlPartitionReport r = run_control_partition_drill(
      config, /*partition_at_s=*/8.0, /*check_at_s=*/14.0,
      /*heal_at_s=*/16.0);
  EXPECT_TRUE(r.parked_seen);
  EXPECT_GT(r.parked_at_check, 0U);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.zero_loss);
  EXPECT_TRUE(r.fifo_ok);
  EXPECT_TRUE(r.outcome.fencing_clean) << r.outcome.report;
  EXPECT_TRUE(r.outcome.lease_unique_ok) << r.outcome.report;
  EXPECT_TRUE(r.passed) << r.outcome.report;
  EXPECT_TRUE(r.outcome.conservation_ok) << r.outcome.report;
  EXPECT_EQ(r.outcome.control_messages, r.outcome.messages_received);
  // The drill is deterministic at any thread count.
  config.threads = 1;
  const ControlPartitionReport serial = run_control_partition_drill(
      config, /*partition_at_s=*/8.0, /*check_at_s=*/14.0,
      /*heal_at_s=*/16.0);
  EXPECT_TRUE(serial.outcome == r.outcome);
  EXPECT_EQ(serial.parked_at_check, r.parked_at_check);
}

TEST(ControlChaos, DegradedLinksDelayButNeverLoseOrReorder) {
  ControlChaosConfig config = base_config();
  network::InterDcLinkPlan plan(config.dcs);
  plan.slow(0, 1, 5.0, 12.0, 4.0);
  plan.lose(0, 2, 6.0, 15.0, 0.6);
  const ControlChaosOutcome degraded = run_control_plane(config, &plan);
  EXPECT_TRUE(degraded.fifo_ok);
  EXPECT_EQ(degraded.control_messages, degraded.messages_received);
  EXPECT_TRUE(degraded.conservation_ok) << degraded.report;
  EXPECT_TRUE(degraded.fencing_clean);
  EXPECT_TRUE(degraded.lease_unique_ok);
  // The plan had an effect: the delayed heartbeats changed the run.
  EXPECT_FALSE(degraded == run_control_plane(config));
}

TEST(ControlChaos, SnapshotAtTheKillPointRestoresBitIdentical) {
  // Snapshot and kill at the same barrier, the degenerate-but-legal case,
  // on a threaded federation.
  ControlChaosConfig config = base_config();
  config.threads = 3;
  config.controller_faults = make_leader_kill_plan();
  const ControlRestoreReport rep =
      run_control_plane_with_restore(config, /*snapshot_at_s=*/14.0,
                                     /*kill_at_s=*/14.0);
  EXPECT_TRUE(rep.identical)
      << "uninterrupted: " << rep.uninterrupted.report
      << "\nrestored: " << rep.restored.report;
  EXPECT_TRUE(rep.restored.fifo_ok);
}

TEST(ControlChaos, DrillBoundsFailLoudly) {
  // Restore drill: 0 < snapshot <= kill < horizon.
  EXPECT_THROW(run_control_plane_with_restore(base_config(), 0.0, 16.0),
               std::invalid_argument);
  EXPECT_THROW(run_control_plane_with_restore(base_config(), 18.0, 16.0),
               std::invalid_argument);
  EXPECT_THROW(run_control_plane_with_restore(base_config(), 10.0, 42.0),
               std::invalid_argument);
  // Partition drill: partition < check <= heal < drive_until, on a
  // shards == dcs world of at least two datacenters.
  EXPECT_THROW(run_control_partition_drill(base_config(), 14.0, 8.0, 16.0),
               std::invalid_argument);
  EXPECT_THROW(run_control_partition_drill(base_config(), 8.0, 14.0, 12.0),
               std::invalid_argument);
  EXPECT_THROW(run_control_partition_drill(base_config(), 8.0, 14.0, 40.0),
               std::invalid_argument);
  ControlChaosConfig two_shards = base_config();
  two_shards.shards = 2;
  EXPECT_THROW(run_control_partition_drill(two_shards, 8.0, 14.0, 16.0),
               std::invalid_argument);
  ControlChaosConfig one_dc = base_config();
  one_dc.dcs = 1;
  EXPECT_THROW(run_control_partition_drill(one_dc, 8.0, 14.0, 16.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace epm::faults
