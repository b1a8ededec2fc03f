// perfbench: the simulator's end-to-end benchmark. Usually run through
// run.py, which builds this binary first; see README.md.
//
//   perfbench --workload <storm_fleet|facility_week|firehose> --seed <n>
//             --seconds <s> --trace <0|1> [--threads <n>] [--size full|tiny]
//             [--trace-out <file>] [--commit <id>] [--corrupt-oracle]
//
// A run repeats passes (set-up, then the timed section) until --seconds
// have passed since the first one began. With --trace 0 every pass is untraced and the last
// stdout line carries the end-to-end metrics; with --trace 1 untraced and
// traced passes alternate, and the last line carries the per-layer metrics.
// Exit code 0 only when every check passed; 2 on bad arguments.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 0;
  Size size = Size::kFull;
  std::string trace_out;
  std::string commit;
  bool corrupt_oracle = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<storm_fleet|facility_week|firehose> --seed <n> --seconds <s> "
               "--trace <0|1> [--threads <n>] [--size full|tiny] [--trace-out "
               "<file>] [--commit <id>] [--corrupt-oracle]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--workload") {
        a.workload = value(i);
      } else if (flag == "--seed") {
        a.seed = std::stoull(value(i));
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value(i));
      } else if (flag == "--trace") {
        const std::string v = value(i);
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--threads") {
        a.threads = std::stoul(value(i));
      } else if (flag == "--size") {
        const std::string v = value(i);
        if (v != "full" && v != "tiny") usage("--size takes full or tiny");
        a.size = v == "tiny" ? Size::kTiny : Size::kFull;
      } else if (flag == "--trace-out") {
        a.trace_out = value(i);
      } else if (flag == "--commit") {
        a.commit = value(i);
      } else if (flag == "--corrupt-oracle") {
        a.corrupt_oracle = true;
      } else {
        usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    usage("malformed number");
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// The fixed per-layer metric list (BENCHMARK.json "per_layer"): every
// traced run reports all of them, 0 where the workload does not reach the
// layer or statistic.
const char* const kLayers[] = {"workload", "cluster", "sim",     "faults",   "macro",
                               "power",    "thermal", "sensing", "telemetry"};
const char* const kSpanShares[] = {
    "macro.plain_step",     "macro.coordinate_step",    "telemetry.append",
    "telemetry.dashboard_read", "telemetry.ingest",     "telemetry.point_read",
    "telemetry.flush",      "telemetry.scan",           "telemetry.anomalies"};
struct StatSpec {
  const char* name;
  const char* unit;
};
const StatSpec kStats[] = {
    {"sim.windows", "count"},
    {"sim.messages_sent", "count"},
    {"sim.messages_parked", "count"},
    {"sim.events_per_attempt", "ratio"},
    {"workload.attempts", "count"},
    {"workload.retry_amplification", "ratio"},
    {"workload.goodput_frac", "frac"},
    {"cluster.shed_frac", "frac"},
    {"faults.forwarded_frac", "frac"},
    {"macro.decisions", "count"},
    {"macro.capping_epochs", "count"},
    {"cluster.sla_violation_epochs", "count"},
    {"thermal.alarms", "count"},
    {"power.it_energy_kwh", "kWh"},
    {"power.mean_pue", "ratio"},
    {"sensing.invariant_violations", "count"},
    {"telemetry.compression_ratio", "ratio"},
    {"telemetry.bytes_per_point", "B"},
    {"telemetry.anomaly_recall", "frac"},
    {"telemetry.anomaly_precision", "frac"},
    {"telemetry.anomaly_events", "count"},
};

std::unique_ptr<Workload> make(const Args& a) {
  Options o;
  o.seed = a.seed;
  o.threads = a.threads;
  o.size = a.size;
  o.corrupt_oracle = a.corrupt_oracle;
  if (a.workload == "storm_fleet") return make_storm_fleet(o);
  if (a.workload == "facility_week") return make_facility_week(o);
  if (a.workload == "firehose") return make_firehose(o);
  usage("unknown workload " + a.workload);
}

// Host steal time of the whole VM so far, in clock ticks (/proc/stat), or 0
// where it cannot be read. Printed per pass to show host interference.
long steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  long v[8] = {};
  if (f) {
    if (std::fscanf(f, "cpu %ld %ld %ld %ld %ld %ld %ld %ld", &v[0], &v[1], &v[2], &v[3],
                    &v[4], &v[5], &v[6], &v[7]) != 8) v[7] = 0;
    std::fclose(f);
  }
  return v[7];
}

struct PassRecord {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t run_from_ns = 0;
  std::int64_t run_to_ns = 0;
  std::int64_t setup_from_ns = 0;
  long steal_ticks = 0;
  PassOutput out;
};

void print_ledger(const std::string& workload, const Ledger& ledger, double wall_s,
                  std::size_t passes) {
  std::printf("\nper-layer ledger: %s (%zu traced passes, %.6f s timed)\n",
              workload.c_str(), passes, wall_s);
  std::printf("  %-28s %12s %8s %10s %12s\n", "layer / span", "self s", "share",
              "spans", "calls");
  for (const auto& [layer, row] : ledger.by_layer) {
    std::printf("  %-28s %12.6f %7.2f%% %10llu %12llu\n", layer.c_str(), row.self_s,
                100.0 * row.self_s / wall_s, static_cast<unsigned long long>(row.spans),
                static_cast<unsigned long long>(row.calls));
    for (const auto& [span, srow] : ledger.by_span) {
      if (layer_of(span.c_str()) != layer) continue;
      std::printf("    %-26s %12.6f %7.2f%% %10llu %12llu\n", span.c_str(), srow.self_s,
                  100.0 * srow.self_s / wall_s,
                  static_cast<unsigned long long>(srow.spans),
                  static_cast<unsigned long long>(srow.calls));
    }
  }
  const double untraced = wall_s - ledger.covered_s;
  std::printf("  %-28s %12.6f %7.2f%%\n", "(no span: bench loop)", untraced,
              100.0 * untraced / wall_s);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Keep freed memory in the heap: later passes reuse pass 0's pages
  // instead of faulting fresh ones in, which on a shared VM costs a
  // host-dependent amount of CPU per page.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const Stamp stamp = make_stamp(args.commit);
  std::printf("stamp %s\n", stamp_json(stamp).c_str());
  if (!stamp.optimized || stamp.build_type != "Release") {
    const char* warn =
        "WARNING: perfbench was NOT built as an optimised Release binary; its "
        "timings are not comparable. Build it with run.py.\n";
    std::fputs(warn, stderr);
    std::fputs(warn, stdout);
  }

  std::unique_ptr<Workload> workload = make(args);
  const std::size_t threads = workload->threads();

  Tracer tracer;
  Checks checks;
  std::vector<PassRecord> passes;
  std::uint64_t digest = 0;
  double first_pass_rss_mb = 0.0;
  // At least three passes of each kind that is measured.
  const std::size_t min_passes = args.trace ? 6 : 3;
  const std::int64_t loop_from_ns = now_ns();
  try {
    for (std::uint32_t p = 0;
         static_cast<double>(now_ns() - loop_from_ns) * 1e-9 < args.seconds ||
         passes.size() < min_passes;
         ++p) {
      PassRecord rec;
      rec.traced = args.trace && p % 2 == 1;
      tracer.set_enabled(rec.traced);
      tracer.set_run(p);
      rec.setup_from_ns = now_ns();
      workload->setup(tracer);
      const long steal0 = steal_ticks();
      rec.run_from_ns = now_ns();
      const double cpu0 = process_cpu_s();
      rec.out = workload->run(tracer);
      rec.cpu_s = process_cpu_s() - cpu0;
      rec.run_to_ns = now_ns();
      rec.steal_ticks = steal_ticks() - steal0;
      // One pass is one run of the workload; later passes only add
      // allocator-arena reuse noise to the process peak.
      if (p == 0) first_pass_rss_mb = peak_rss_mb();
      rec.setup_s = static_cast<double>(rec.run_from_ns - rec.setup_from_ns) * 1e-9;
      rec.wall_s = static_cast<double>(rec.run_to_ns - rec.run_from_ns) * 1e-9;
      tracer.set_enabled(false);
      workload->check(rec.out, checks);
      if (p == 0) digest = rec.out.digest;
      checks.expect(rec.out.digest == digest,
                    "outcome_digest of pass " + std::to_string(p) +
                        (rec.traced ? " (traced)" : " (untraced)") +
                        " differs from pass 0");
      workload->teardown();
      passes.push_back(std::move(rec));
    }
    workload->check_once(checks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    checks.expect(false, std::string("exception: ") + e.what());
  }
  workload.reset();

  std::printf("workload %s seed %llu threads %zu passes %zu\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), threads,
              passes.size());
  std::printf("outcome_digest %s\n", hex64(digest).c_str());

  // Untraced passes give the end-to-end metrics.
  std::vector<double> setups, walls, cpus, rates, cpu_rates, steps, traced_walls;
  std::map<std::string, std::vector<double>> timings;
  for (const PassRecord& r : passes) {
    setups.push_back(r.setup_s);
    if (r.traced) {
      traced_walls.push_back(r.wall_s);
      continue;
    }
    walls.push_back(r.wall_s);
    cpus.push_back(r.cpu_s);
    rates.push_back(r.out.work / r.out.work_wall_s);
    cpu_rates.push_back(r.out.work / r.out.work_cpu_s);
    steps.insert(steps.end(), r.out.step_s.begin(), r.out.step_s.end());
    for (const auto& [k, v] : r.out.timings) timings[k].push_back(v);
  }
  const std::vector<Metric> end_to_end = {
      {"setup_s", "s", median(setups)},
      {"cpu_s", "s", median(cpus)},
      {"peak_rss_mb", "MB", first_pass_rss_mb},
      {"work_per_cpu_s", "1/s", median(cpu_rates)},
  };
  // Host wall-time figures: printed, and per-layer in a traced run. They
  // move with preemption and stolen CPU on a shared host (see README.md).
  const std::vector<Metric> wall_figures = {
      {"bench.wall_s", "s", median(walls)},
      {"bench.work_per_s", "1/s", median(rates)},
      {"bench.step_p50_us", "us", quantile(steps, 0.5) * 1e6},
      {"bench.step_p99_us", "us", quantile(steps, 0.99) * 1e6},
  };
  std::printf("pass walls s:");
  for (const PassRecord& r : passes) std::printf(" %.4f%s", r.wall_s, r.traced ? "t" : "");
  std::printf("\npass cpu s:");
  for (const PassRecord& r : passes) std::printf(" %.4f", r.cpu_s);
  std::printf("\npass work cpu s:");
  for (const PassRecord& r : passes) std::printf(" %.4f", r.out.work_cpu_s);
  std::printf("\npass host steal ticks:");
  for (const PassRecord& r : passes) std::printf(" %ld", r.steal_ticks);
  std::printf("\npass setups s:");
  for (const PassRecord& r : passes) std::printf(" %.6f", r.setup_s);
  std::printf("\n\nend-to-end (%zu untraced passes, %zu steps):\n", walls.size(),
              steps.size());
  for (const Metric& m : end_to_end) {
    std::printf("  %-22s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : wall_figures) {
    std::printf("  %-22s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [k, v] : timings) {
    std::printf("  %-22s %16.6f (median of passes)\n", k.c_str(), median(v));
  }
  std::printf("  %-22s %16.6g (%llu failed of %llu checks)\n", "failed_frac",
              checks.made ? static_cast<double>(checks.failed) / static_cast<double>(checks.made)
                          : 0.0,
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.made));

  std::vector<Metric> reported = end_to_end;
  if (args.trace) {
    // Per-layer metrics from the traced passes.
    std::vector<Window> timed, setup;
    double traced_wall = 0.0;
    double setup_total = 0.0;
    for (const PassRecord& r : passes) {
      if (!r.traced) continue;
      timed.push_back({r.run_from_ns, r.run_to_ns});
      setup.push_back({r.setup_from_ns, r.run_from_ns});
      traced_wall += r.wall_s;
      setup_total += r.setup_s;
    }
    const std::size_t traced = timed.size();
    const Ledger ledger = build_ledger(tracer.spans(), timed);
    const Ledger setup_ledger = build_ledger(tracer.spans(), setup);
    const auto fed = setup_ledger.by_span.find("sim.federation_setup");
    const double fed_setup = fed == setup_ledger.by_span.end() ? 0.0 : fed->second.total_s;
    print_ledger(args.workload, ledger, traced_wall, traced);

    // Durations of the traced macro steps, for the plain/coordinate split.
    std::vector<double> plain, coordinate;
    for (const SpanRecord& s : tracer.spans()) {
      const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      if (std::string(s.name) == "macro.plain_step") plain.push_back(d);
      if (std::string(s.name) == "macro.coordinate_step") coordinate.push_back(d);
    }

    reported = wall_figures;
    reported.push_back({"bench.traced_wall_s", "s", median(traced_walls)});
    reported.push_back({"bench.trace_overhead_frac", "frac",
                        median(traced_walls) / median(walls) - 1.0});
    reported.push_back({"bench.untraced_share", "frac",
                        1.0 - ledger.covered_s / traced_wall});
    for (const char* layer : kLayers) {
      const auto it = ledger.by_layer.find(layer);
      const LedgerRow row = it == ledger.by_layer.end() ? LedgerRow{} : it->second;
      reported.push_back({std::string(layer) + ".self_frac", "frac", row.self_s / traced_wall});
      reported.push_back({std::string(layer) + ".calls", "count",
                          static_cast<double>(row.calls) / static_cast<double>(traced)});
    }
    for (const char* span : kSpanShares) {
      const auto it = ledger.by_span.find(span);
      const double self = it == ledger.by_span.end() ? 0.0 : it->second.self_s;
      reported.push_back({std::string(span) + "_frac", "frac", self / traced_wall});
    }
    reported.push_back({"sim.federation_setup_frac", "frac", fed_setup / setup_total});
    const double plain_p50 = median(plain);
    reported.push_back({"macro.coordinate_over_plain_p50", "ratio",
                        plain_p50 > 0.0 ? median(coordinate) / plain_p50 : 0.0});
    const auto scan = timings.find("scan_series_per_s");
    reported.push_back({"telemetry.scan_series_per_s", "1/s",
                        scan == timings.end() ? 0.0 : median(scan->second)});
    const std::map<std::string, double>& stats = passes.empty()
                                                     ? std::map<std::string, double>{}
                                                     : passes.front().out.stats;
    for (const StatSpec& spec : kStats) {
      const auto it = stats.find(spec.name);
      reported.push_back({spec.name, spec.unit, it == stats.end() ? 0.0 : it->second});
    }
    std::printf("\nper-layer metrics:\n");
    for (const Metric& m : reported) {
      std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!args.trace_out.empty()) {
      const auto first = std::find_if(passes.begin(), passes.end(),
                                      [](const PassRecord& r) { return r.traced; });
      if (first != passes.end()) {
        const bool ok = tracer.write_chrome_json(
            args.trace_out, static_cast<std::uint32_t>(first - passes.begin()), 500000);
        checks.expect(ok, "could not write the trace file " + args.trace_out);
        if (ok) std::printf("trace written to %s\n", args.trace_out.c_str());
      }
    }
  }

  for (const std::string& f : checks.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = checks.failed == 0 && checks.made > 0 && !passes.empty();

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(checks.made, 1)) +
                     ", \"failed\": " + std::to_string(checks.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    json += (i ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " + fmt(v) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
