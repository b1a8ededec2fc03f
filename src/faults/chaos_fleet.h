// Fleet recovery drill for the federation: the fleet retry-storm scenario
// (faults/fleet_storm.h) under a correlated regional grid event
// (faults/fault_domain.h expanded onto FleetDisruptions). The defended arm
// (admission stack + grid broadcasts steering forwards away from dark
// datacenters) must end the run at >= `threshold` of its pre-fault fleet
// goodput while the naive arm (no defense, blind round-robin forwards) must
// not.
//
// The snapshot and partition drills run on the control-plane world
// (faults/control_chaos.h), the repo's one snapshot-capable drill world.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace epm::faults {

/// Recovery gate: the reference fleet storm under a correlated grid script
/// (fault_domain text syntax, e.g. "outage:region/americas@30+20"),
/// expanded onto the reference fault-domain tree for the fleet's site
/// names. Runs two arms on a single-kernel fabric:
///   * defended — admission stack on, grid broadcasts steer forwards;
///   * naive    — defense off, broadcasts off (blind round-robin).
struct ChaosRecoveryArm {
  double fleet_prefault_goodput_rps = 0.0;
  double fleet_end_goodput_rps = 0.0;
  double ratio = 0.0;  ///< end / prefault (0 when prefault is 0)
  std::uint64_t grid_signals = 0;
  bool conservation_ok = false;
  bool recovered = false;  ///< ratio >= threshold
};
struct ChaosRecoveryReport {
  ChaosRecoveryArm defended;
  ChaosRecoveryArm naive;
  double threshold = 0.99;
  std::string grid_script;
  /// Defended recovers to >= threshold of pre-fault fleet goodput AND the
  /// naive arm does not — the gate BENCH_chaos.json enforces.
  bool gate_ok = false;
};
ChaosRecoveryReport run_chaos_recovery(std::size_t dcs,
                                       std::size_t clients_per_dc,
                                       std::uint64_t seed,
                                       const std::string& grid_script,
                                       double threshold = 0.99);

/// The reference grid script used by `epmctl chaos` and the bench: a
/// regional outage over the americas (taking out every DC in that region
/// at staggered onsets) plus an EU brownout.
std::string make_reference_grid_script();

}  // namespace epm::faults
