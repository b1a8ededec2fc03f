// EXP-AA (paper §5.3): the telemetry firehose on the columnar store.
//
//   "consider a 10,000 server cloud computing environment, if there are 100
//    software performance counters of interests, and each of them are
//    sampled every 15 seconds, we will expect 2.4 million data points per
//    minutes... preprocessing and indexing the data into multiple scales
//    can speed up the query significantly. At the same time, raw data out
//    of these bands can be considered as noise and be eliminated, thus
//    reducing storage requirements."
//
// Emits BENCH_telemetry.json (one record per section, see telemetry_bench.h)
// and exits non-zero when any gate fails: >= 100M points/minute partitioned
// ingest, >= 8x sealed-block compression on the reference counter mix,
// bit-identical answers vs the legacy store at 1/2/8 threads, and full
// recall of injected spikes by the in-stream detector. The Release CI lane
// runs `--smoke` (reduced mix, loose throughput floor) and the full run at
// EPM_THREADS=2 on every push.
#include <cstdio>

#include "core/cli_args.h"
#include "telemetry_bench.h"

int main(int argc, char** argv) {
  epm::CliArgs args(argc, argv);
  epm::bench::TelemetryBenchConfig config;
  config.threads = args.threads();
  config.seed = static_cast<std::uint64_t>(
      args.get("seed", static_cast<std::int64_t>(42)));
  // --smoke: the reduced CI configuration — ~5% of the full mix under a
  // loose absolute throughput floor, so the Release lane catches
  // order-of-magnitude regressions (and any correctness-gate break) without
  // paying the 10M-point run on every push.
  if (args.get_switch("smoke")) {
    config.servers = 200;
    config.counters_per_server = 25;
    config.ticks = 100;
    config.equiv_servers = 60;
    config.equiv_counters = 10;
    config.equiv_ticks = 100;
    config.min_points_per_min = 10e6;
  }

  std::printf("==== EXP-AA: sec. 5.3 telemetry firehose (seed %llu%s) ====\n",
              static_cast<unsigned long long>(config.seed),
              args.get_switch("smoke") ? ", smoke" : "");
  std::printf("  paper arithmetic: 10,000 servers x 100 counters @ 15 s = "
              "2.4M points/minute; single-node gate is %.0fM/minute\n",
              config.min_points_per_min / 1e6);
  const auto outcome = epm::bench::run_telemetry_bench(config);
  return outcome.gate_ok ? 0 : 1;
}
