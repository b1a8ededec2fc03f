#include "faults/chaos_fleet.h"

#include <vector>

#include "core/require.h"
#include "faults/fault_domain.h"
#include "faults/fleet_storm.h"
#include "sim/fabric.h"

namespace epm::faults {
namespace {

ChaosRecoveryArm summarize_arm(const FleetStormOutcome& o, double threshold) {
  ChaosRecoveryArm arm;
  arm.fleet_prefault_goodput_rps = o.fleet_prefault_goodput_rps;
  arm.fleet_end_goodput_rps = o.fleet_end_goodput_rps;
  arm.ratio = o.fleet_prefault_goodput_rps > 0.0
                  ? o.fleet_end_goodput_rps / o.fleet_prefault_goodput_rps
                  : 0.0;
  for (const FleetDcOutcome& dc : o.dcs) arm.grid_signals += dc.grid_signals;
  arm.conservation_ok = o.conservation_ok;
  arm.recovered = arm.ratio >= threshold;
  return arm;
}

}  // namespace

ChaosRecoveryReport run_chaos_recovery(std::size_t dcs,
                                       std::size_t clients_per_dc,
                                       std::uint64_t seed,
                                       const std::string& grid_script,
                                       double threshold) {
  require(threshold > 0.0 && threshold <= 1.0,
          "chaos recovery threshold must be in (0, 1]");
  ChaosRecoveryReport rep;
  rep.threshold = threshold;
  rep.grid_script = grid_script;

  const FleetStormConfig base =
      make_reference_fleet_storm_config(dcs, clients_per_dc, seed);
  std::vector<std::string> names;
  names.reserve(base.sites.size());
  for (const macro::SiteConfig& s : base.sites) names.push_back(s.name);
  const FaultDomainTree tree = make_reference_fault_domains(names);
  const DomainFaultPlan grid = DomainFaultPlan::parse(grid_script);
  DomainExpansionConfig expansion;
  expansion.seed = seed;
  const std::vector<FleetDisruption> disruptions =
      to_fleet_disruptions(expand_to_datacenters(tree, grid, expansion));

  const auto run_arm = [&](bool defended) {
    FleetStormConfig c = base;
    c.disruptions = disruptions;
    c.grid_broadcasts = defended;
    c.defense.enabled = defended;
    sim::SingleKernelFabric fabric(c.sites.size());
    return summarize_arm(run_fleet_storm(c, fabric), threshold);
  };
  rep.defended = run_arm(true);
  rep.naive = run_arm(false);
  rep.gate_ok = rep.defended.recovered && !rep.naive.recovered;
  return rep;
}

std::string make_reference_grid_script() {
  return "outage:region/americas@32+16;brownout:feed/grid-eu@36+12x0.5";
}

}  // namespace epm::faults
