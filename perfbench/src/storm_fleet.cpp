// storm_fleet: the reference multi-datacenter retry storm on the sharded
// federation. Client sweeps (workload), admission (cluster) and the
// federated kernel (sim) do nearly all the work; there is no telemetry
// store and no physical plant.
//
// One pass = one faults::run_fleet_storm call on a freshly built
// ShardedSimulator (built in setup so the federation counters can be read
// afterwards). Once per invocation the same config also runs on one
// SingleKernelFabric, and every pass's outcome must equal it bit for bit.
#include <memory>
#include <optional>

#include "bench.h"
#include "faults/fleet_storm.h"
#include "sim/fabric.h"
#include "sim/sharded_simulator.h"

namespace perfbench {

namespace {

constexpr std::size_t kDcs = 4;

std::uint64_t fleet_attempts(const epm::faults::FleetStormOutcome& out) {
  std::uint64_t n = 0;
  for (const auto& dc : out.dcs) n += dc.attempts;
  return n;
}

std::uint64_t outcome_digest(const epm::faults::FleetStormOutcome& out) {
  Digest d;
  for (const auto& dc : out.dcs) {
    for (std::uint64_t v :
         {dc.intents, dc.attempts, dc.retries, dc.served_fresh, dc.served_stale,
          dc.timed_out, dc.abandoned, dc.dark_failures, dc.shed_breaker,
          dc.shed_bucket, dc.shed_queue, dc.forwarded, dc.remote_admitted,
          dc.remote_served, dc.remote_shed, dc.grid_signals, dc.breaker_trips,
          static_cast<std::uint64_t>(dc.max_queue_depth),
          static_cast<std::uint64_t>(dc.recovered)}) {
      d.add_u64(v);
    }
    for (double v : {dc.prefault_goodput_rps, dc.end_offered_rps,
                     dc.end_goodput_rps, dc.recovery_s}) {
      d.add_f64(v);
    }
  }
  d.add_u64(out.epochs);
  d.add_u64(out.forwarded);
  d.add_u64(out.remote_served);
  d.add_u64(out.remote_shed);
  d.add_u64(out.events_run);
  d.add_u64(out.events_pending);
  d.add_f64(out.fleet_goodput_fraction);
  d.add_f64(out.fleet_prefault_goodput_rps);
  d.add_f64(out.fleet_end_goodput_rps);
  return d.value();
}

class StormFleet final : public Workload {
 public:
  explicit StormFleet(const Options& options)
      : options_(options),
        config_(epm::faults::make_reference_fleet_storm_config(
            kDcs, options.size == Size::kTiny ? 5'000 : 500'000, options.seed)),
        net_(epm::faults::make_fleet_network(config_)) {
    // The federation supplies the parallelism; populations sweep serially
    // so the threads in use never exceed options.threads.
    config_.clients.threads = 1;
  }

  // Two workers keep the barrier windows off the last free cores of a
  // small box, which steadies the timings; --threads overrides.
  std::size_t threads() const override { return options_.threads_or(2); }

  void setup(Tracer& tracer) override {
    Span span(tracer, "sim.federation_setup");
    fed_ = std::make_unique<epm::sim::ShardedSimulator>(
        epm::faults::make_fleet_sharded_config(net_, kDcs, threads()));
    fabric_ = std::make_unique<epm::sim::ShardedFabric>(*fed_);
  }

  PassOutput run(Tracer& tracer) override {
    PassOutput out;
    const double t0 = now_s();
    const double cpu0 = process_cpu_s();
    {
      Span span(tracer, "faults.run_fleet_storm");
      outcome_ = epm::faults::run_fleet_storm(config_, *fabric_);
    }
    std::uint64_t windows = 0, sent = 0, parked = 0;
    {
      Span span(tracer, "sim.read_counters", 3);
      windows = fed_->windows_run();
      sent = fed_->messages_sent();
      parked = fed_->messages_parked();
    }
    const double wall = now_s() - t0;
    const double cpu = process_cpu_s() - cpu0;
    const epm::faults::FleetStormOutcome& o = *outcome_;
    const auto attempts = static_cast<double>(fleet_attempts(o));
    out.work = attempts;
    out.work_wall_s = wall;
    out.work_cpu_s = cpu;
    out.step_s.push_back(wall);
    out.digest = outcome_digest(o);

    double intents = 0, fresh = 0, shed = 0;
    for (const auto& dc : o.dcs) {
      intents += static_cast<double>(dc.intents);
      fresh += static_cast<double>(dc.served_fresh);
      shed += static_cast<double>(dc.shed_breaker + dc.shed_bucket + dc.shed_queue);
    }
    out.stats["sim.windows"] = static_cast<double>(windows);
    out.stats["sim.messages_sent"] = static_cast<double>(sent);
    out.stats["sim.messages_parked"] = static_cast<double>(parked);
    out.stats["sim.events_per_attempt"] = static_cast<double>(o.events_run) / attempts;
    out.stats["workload.attempts"] = attempts;
    out.stats["workload.retry_amplification"] = attempts / intents;
    out.stats["workload.goodput_frac"] = fresh / intents;
    out.stats["cluster.shed_frac"] = shed / attempts;
    out.stats["faults.forwarded_frac"] = static_cast<double>(o.forwarded) / attempts;
    out.timings["attempts_per_s"] = attempts / wall;
    return out;
  }

  void check(const PassOutput& /*out*/, Checks& checks) override {
    const epm::faults::FleetStormOutcome& o = *outcome_;
    checks.expect(o.conservation_ok,
                  "storm_fleet: conservation failed: " + o.conservation_report);
    for (const auto& dc : o.dcs) {
      checks.expect(dc.recovered, "storm_fleet: DC " + dc.site + " did not recover");
    }
    if (!first_) first_ = *outcome_;
  }

  void check_once(Checks& checks) override {
    if (!first_) return;
    epm::sim::SingleKernelFabric fabric(kDcs);
    epm::faults::FleetStormOutcome reference =
        epm::faults::run_fleet_storm(config_, fabric);
    if (options_.corrupt_oracle) reference.dcs[0].attempts += 1;
    checks.expect(epm::faults::fleet_storm_outcomes_equal(*first_, reference),
                  "storm_fleet: federated outcome differs from the single kernel");
  }

  void teardown() override {
    fabric_.reset();
    fed_.reset();
    outcome_.reset();
  }

 private:
  Options options_;
  epm::faults::FleetStormConfig config_;
  epm::network::InterDcNetwork net_;
  std::unique_ptr<epm::sim::ShardedSimulator> fed_;
  std::unique_ptr<epm::sim::ShardedFabric> fabric_;
  std::optional<epm::faults::FleetStormOutcome> outcome_;
  std::optional<epm::faults::FleetStormOutcome> first_;
};

}  // namespace

std::unique_ptr<Workload> make_storm_fleet(const Options& options) {
  return std::make_unique<StormFleet>(options);
}

}  // namespace perfbench
