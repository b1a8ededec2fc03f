#include "reference/faults/retry_storm_legacy.h"

#include "faults/retry_storm_engine.h"
#include "reference/workload/client_population_legacy.h"

namespace epm::faults {

RetryStormOutcome run_retry_storm_legacy(const RetryStormConfig& config) {
  return run_retry_storm_serial<workload::LegacyClientPopulation>(config);
}

}  // namespace epm::faults
