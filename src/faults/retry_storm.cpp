#include "faults/retry_storm.h"

#include <cstddef>
#include <memory>

#include "faults/retry_storm_engine.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace epm::faults {

RetryStormOutcome run_retry_storm(const RetryStormConfig& config) {
  return run_retry_storm_serial<workload::ClientPopulation>(config);
}

struct FederatedRetryStorm::Impl {
  explicit Impl(const RetryStormConfig& config) : engine(config) {}
  RetryStormEngine<workload::ClientPopulation> engine;
};

FederatedRetryStorm::FederatedRetryStorm(const RetryStormConfig& config,
                                         sim::ShardedSimulator& fed,
                                         std::size_t shard)
    : impl_(std::make_unique<Impl>(config)) {
  auto* eng = &impl_->engine;
  sim::Simulator* kernel = &fed.shard(shard);
  const double dt = eng->epoch_s();
  const std::size_t epochs = eng->epochs();
  end_s_ = static_cast<double>(epochs) * dt;

  // Driver event chain: D(e) fires at t = e*dt and runs phase B of epoch
  // e-1, then phase A of epoch e, then schedules D(e+1). Because phase A
  // schedules epoch e's completion cohort at (e+1)*dt BEFORE D(e+1) is
  // pushed, the kernel's same-timestamp FIFO fires the cohort first — the
  // serial loop's "completions.run_until(t1); end_epoch(e)" order, replayed
  // event-by-event. D(epochs) closes the final epoch.
  struct Driver {
    RetryStormEngine<workload::ClientPopulation>* eng;
    sim::Simulator* kernel;
    double dt;
    std::size_t epochs;
    void operator()(std::size_t e) {
      if (e > 0) eng->end_epoch(e - 1);
      if (e >= epochs) return;
      eng->begin_epoch(e, *kernel);
      kernel->schedule_at(static_cast<double>(e) * dt + dt,
                          [self = *this, e]() mutable { self(e + 1); });
    }
  };
  kernel->schedule_at(0.0, [driver = Driver{eng, kernel, dt, epochs}]() mutable {
    driver(0);
  });
}

FederatedRetryStorm::~FederatedRetryStorm() = default;

RetryStormOutcome FederatedRetryStorm::finish() {
  ensure(impl_ != nullptr, "FederatedRetryStorm: finish() called twice");
  RetryStormOutcome out = impl_->engine.finish();
  impl_.reset();
  return out;
}

RetryStormOutcome run_retry_storm_federated(const RetryStormConfig& config,
                                            sim::ShardedSimulator& fed,
                                            std::size_t shard) {
  FederatedRetryStorm storm(config, fed, shard);
  fed.run_until(storm.end_s());
  return storm.finish();
}

RetryStormConfig make_reference_retry_storm_config(
    workload::RetryBackoff backoff, double outage_duration_s, bool defended) {
  RetryStormConfig config;
  config.clients.clients = 20000;
  config.clients.think_time_s = 40.0;
  config.clients.request_timeout_s = 4.0;
  config.clients.reconnect_spread_s = 60.0;
  config.clients.start_spread_s = 40.0;
  config.clients.seed = 7;
  config.clients.retry.backoff = backoff;
  config.clients.retry.base_delay_s = 2.0;
  config.clients.retry.multiplier = 2.0;
  config.clients.retry.max_delay_s = 60.0;
  config.clients.retry.jitter_frac = 0.5;
  config.clients.retry.max_attempts = 8;
  // Abandoned users come back: a login storm is not solved by losing the
  // customers (and a cooldown that returns them is what sustains the
  // congestion the defense must survive).
  config.clients.retry.abandon_cooldown_s = 30.0;

  config.service_capacity_rps = 1000.0;
  config.batch_rps = 300.0;
  config.outage_start_s = 180.0;
  config.outage_duration_s = outage_duration_s;
  config.horizon_s = 1200.0;

  config.defense.enabled = defended;
  config.defense.bucket = {900.0, 900.0};
  // Worst-case sojourn 1800 / 1000 rps = 1.8 s < the 4 s client timeout:
  // everything the queue accepts is still fresh when served.
  config.defense.queue_capacity = 1800;
  config.defense.breaker.failure_ratio = 0.5;
  config.defense.breaker.min_volume = 20;
  config.defense.breaker.open_duration_s = 5.0;
  config.defense.breaker.half_open_probes = 5;
  config.defense.breaker.close_after_healthy_epochs = 2;

  config.policy_enabled = defended;
  config.policy.low_tier_service = 1;  // batch
  config.policy.overload_shed_fraction = 1.0;
  config.policy.overload_min_shed_rate_per_s = 1.0;
  return config;
}

}  // namespace epm::faults
