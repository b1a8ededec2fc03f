// The retry-storm scenario on the heap-based client engine — the kernel
// bench's in-run A/B baseline (see reference/workload/client_population_legacy.h).
#pragma once

#include "faults/retry_storm.h"

namespace epm::faults {

/// Same scenario on the heap engine (workload::LegacyClientPopulation)
/// with one kernel event per completion — the faithful A/B baseline the
/// kernel bench gates against. Outcomes are bit-identical to
/// run_retry_storm by construction (asserted by the equivalence suite).
RetryStormOutcome run_retry_storm_legacy(const RetryStormConfig& config);

}  // namespace epm::faults
