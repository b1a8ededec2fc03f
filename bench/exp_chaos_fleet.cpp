// Extension experiment (EXP-Y): chaos drills for the federation.
//
// Two gated drills:
//
//   * recovery — the reference fleet storm under a correlated regional
//     grid event (fault-domain fan-out). The defended arm (admission
//     stack + grid broadcasts steering forwards away from dark
//     datacenters) must end the run at >= 99% of its pre-event fleet
//     goodput at EVERY swept fleet size; the naive arm (no defense, blind
//     round-robin into the fault domain) must fail that bar at every one.
//     (faults/chaos_fleet.h)
//   * partition — on the control-plane world (faults/control_chaos.h), an
//     open partition on the 0 -> 1 link must park control traffic in the
//     bounded mailbox FIFO and, after heal, finish with zero message loss,
//     per-pair FIFO order intact, and clean leases and fencing, at 1 and 8
//     worker threads.
//
// Kill-and-restore is gated by EXP-Z (exp_control_plane, drill 4).
//
// Emits one BENCH_chaos.json record per drill (set EPM_BENCH_REPORT to
// redirect); the checked-in copy is the reference run the CI smoke lane
// compares against.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/table.h"
#include "faults/chaos_fleet.h"
#include "faults/control_chaos.h"

using namespace epm;

namespace {

std::string chaos_report_path() {
  if (const char* env = std::getenv("EPM_BENCH_REPORT")) return env;
  return "BENCH_chaos.json";
}

std::ofstream open_report() {
  const std::string path = chaos_report_path();
  if (path == "-") return {};
  return std::ofstream(path, std::ios::app);
}

void append_provenance(std::ofstream& file) {
  file << ",\"git_commit\":\"" << bench::detail::git_commit()
       << "\",\"cpu_model\":\"" << bench::detail::cpu_model() << "\"}\n";
}

void append_recovery_record(std::size_t dcs, const std::string& arm_name,
                            const faults::ChaosRecoveryReport& rep,
                            const faults::ChaosRecoveryArm& arm) {
  auto file = open_report();
  if (!file) return;
  file << "{\"name\":\"chaos_fleet_recovery\",\"dcs\":" << dcs
       << ",\"arm\":\"" << arm_name << "\",\"grid_script\":\""
       << rep.grid_script << "\",\"threshold\":" << rep.threshold
       << ",\"prefault_goodput_rps\":" << arm.fleet_prefault_goodput_rps
       << ",\"end_goodput_rps\":" << arm.fleet_end_goodput_rps
       << ",\"ratio\":" << arm.ratio
       << ",\"grid_signals\":" << arm.grid_signals
       << ",\"recovered\":" << (arm.recovered ? "true" : "false")
       << ",\"conservation_ok\":" << (arm.conservation_ok ? "true" : "false");
  append_provenance(file);
}

void append_partition_record(std::size_t threads,
                             const faults::ControlPartitionReport& rep) {
  auto file = open_report();
  if (!file) return;
  file << "{\"name\":\"chaos_partition_zero_loss\",\"world\":\"control\""
       << ",\"threads\":" << threads
       << ",\"parked_at_check\":" << rep.parked_at_check
       << ",\"redelivered\":" << rep.redelivered
       << ",\"parked_seen\":" << (rep.parked_seen ? "true" : "false")
       << ",\"drained\":" << (rep.drained ? "true" : "false")
       << ",\"zero_loss\":" << (rep.zero_loss ? "true" : "false")
       << ",\"fifo_ok\":" << (rep.fifo_ok ? "true" : "false")
       << ",\"fencing_clean\":"
       << (rep.outcome.fencing_clean ? "true" : "false")
       << ",\"lease_unique\":"
       << (rep.outcome.lease_unique_ok ? "true" : "false")
       << ",\"passed\":" << (rep.passed ? "true" : "false");
  append_provenance(file);
}

}  // namespace

int main() {
  std::cout << banner("EXP-Y: federation chaos drills");
  bool gate_ok = true;

  // Drill 1: correlated-regional-outage recovery gate, swept fleet sizes.
  const std::vector<std::size_t> fleet_sizes = {4, 6};
  Table recovery({"dcs", "arm", "prefault", "end", "ratio", "signals",
                  "recovered"});
  for (const std::size_t dcs : fleet_sizes) {
    const auto rep = faults::run_chaos_recovery(
        dcs, 2000, 42, faults::make_reference_grid_script(), 0.99);
    append_recovery_record(dcs, "defended", rep, rep.defended);
    append_recovery_record(dcs, "naive", rep, rep.naive);
    for (const bool defended : {true, false}) {
      const auto& arm = defended ? rep.defended : rep.naive;
      recovery.add_row({std::to_string(dcs), defended ? "defended" : "naive",
                        fmt(arm.fleet_prefault_goodput_rps, 1) + "/s",
                        fmt(arm.fleet_end_goodput_rps, 1) + "/s",
                        fmt(arm.ratio, 4),
                        std::to_string(arm.grid_signals),
                        arm.recovered ? "yes" : "NO"});
      if (!arm.conservation_ok) {
        gate_ok = false;
        std::cout << "  CONSERVATION VIOLATION (dcs=" << dcs << ", "
                  << (defended ? "defended" : "naive") << " arm)\n";
      }
    }
    if (!rep.gate_ok) {
      gate_ok = false;
      std::cout << "  RECOVERY GATE FAILED at dcs=" << dcs
                << " (defended ratio=" << fmt(rep.defended.ratio, 4)
                << ", naive ratio=" << fmt(rep.naive.ratio, 4)
                << ", threshold=" << fmt(rep.threshold, 2) << ")\n";
    }
  }
  std::cout << recovery.render();

  // Drill 2: partition, park, heal, drain on the control-plane world.
  Table partition({"threads", "parked@check", "redelivered", "drained",
                   "zero loss", "fifo", "fencing", "lease", "passed"});
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    faults::ControlChaosConfig c;
    c.threads = threads;
    const auto part = faults::run_control_partition_drill(
        c, /*partition_at_s=*/12.5, /*check_at_s=*/20.0, /*heal_at_s=*/22.0);
    append_partition_record(threads, part);
    partition.add_row({std::to_string(threads),
                       std::to_string(part.parked_at_check),
                       std::to_string(part.redelivered),
                       part.drained ? "yes" : "NO",
                       part.zero_loss ? "yes" : "NO",
                       part.fifo_ok ? "yes" : "NO",
                       part.outcome.fencing_clean ? "clean" : "DOUBLE",
                       part.outcome.lease_unique_ok ? "unique" : "DUP",
                       part.passed ? "yes" : "NO"});
    if (!part.passed) {
      gate_ok = false;
      std::cout << "  PARTITION DRILL FAILED at " << threads
                << " threads: " << part.outcome.report << "\n";
    }
  }
  std::cout << partition.render();

  std::cout << "\n  Chaos gates (recovery >= 99%, zero-loss FIFO "
               "partition): "
            << (gate_ok ? "all pass" : "FAILED") << "\n";
  std::cout
      << "  Paper: regional grid events hit correlated groups of "
         "datacenters at once (§3.2) — resilience\n  must be engineered at "
         "the fleet level. Measured: fault-domain-aware forward steering "
         "plus the\n  admission stack rides out a regional outage the naive "
         "fleet cannot, and the federation's\n  partition mailboxes lose "
         "and reorder no control message along the way.\n";
  return gate_ok ? 0 : 1;
}
