// Phase-split retry-storm epoch engine.
//
// The closed-loop retry-storm scenario (see retry_storm.h) advances in
// control epochs, and each epoch factors into two phases separated by the
// epoch's completion cohort:
//
//   begin_epoch(e)  [t0 = e*dt]   outage edges, admission of the attempts
//                                 due this epoch, queue drain within the
//                                 interactive capacity — and the completion
//                                 cohort scheduled on a caller-supplied
//                                 kernel at t1 = t0 + dt;
//   (kernel fires the cohort at t1)
//   end_epoch(e)    [t1]          client deadlines, breaker verdict,
//                                 shed/retry telemetry through the sensor
//                                 plane, macro overload posture, invariant
//                                 checks.
//
// Splitting the loop body this way lets the SAME code drive two execution
// shapes with bit-identical results:
//
//   * the serial runner (run_retry_storm): a plain for-loop with a private
//     completion kernel, exactly the PR 4-6 shape;
//   * the federated runner (run_retry_storm_federated): begin/end become
//     event callbacks on a sim::ShardedSimulator shard, chained so that at
//     every boundary t1 the completion cohort (scheduled first, lower seq)
//     fires before end_epoch(e) + begin_epoch(e+1) — the same-timestamp
//     FIFO guarantee replays the serial loop order exactly, which is what
//     the "degenerate federation" golden tests assert.
//
// Population is the client engine type (workload::ClientPopulation in the
// library; the reference heap engine reuses the same runner for its A/B);
// see retry_storm.cpp for the drive protocol.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/admission.h"
#include "core/arena.h"
#include "core/require.h"
#include "faults/retry_storm.h"
#include "macro/decision_log.h"
#include "macro/degradation.h"
#include "sensing/channels.h"
#include "sensing/estimator.h"
#include "sensing/invariants.h"
#include "sensing/sensor_plane.h"
#include "sensing/telemetry_feed.h"
#include "sim/event_fn.h"
#include "sim/simulator.h"
#include "telemetry/store.h"

namespace epm::faults {

/// Trailing-window mean over series[end-window, end).
inline double retry_storm_window_mean(const std::vector<double>& series,
                                      std::size_t end, std::size_t window) {
  const std::size_t lo = end > window ? end - window : 0;
  if (end <= lo) return 0.0;
  double sum = 0.0;
  for (std::size_t i = lo; i < end; ++i) sum += series[i];
  return sum / static_cast<double>(end - lo);
}

template <typename Population>
class RetryStormEngine {
 public:
  explicit RetryStormEngine(const RetryStormConfig& config)
      : config_(config),
        population_(config.clients),
        queue_(config.defense.enabled ? config.defense.queue_capacity
                                      : config.naive_queue_capacity),
        bucket_(config.defense.bucket),
        breaker_(config.defense.breaker),
        policy_(config.policy, /*service_count=*/2, &log_),
        estimator_(config.estimator),
        monitor_(config.invariants) {
    require(config.epoch_s > 0.0, "RetryStorm: epoch must be positive");
    require(config.service_capacity_rps > 0.0,
            "RetryStorm: service capacity must be positive");
    require(config.batch_rps >= 0.0 &&
                config.batch_rps < config.service_capacity_rps,
            "RetryStorm: batch tier must leave interactive capacity");
    require(config.outage_start_s > 0.0 && config.outage_duration_s > 0.0,
            "RetryStorm: outage must have positive start and duration");
    require(config.horizon_s >
                config.outage_start_s + config.outage_duration_s,
            "RetryStorm: horizon must extend past the outage");
    require(config.sla_goodput_fraction > 0.0 &&
                config.sla_goodput_fraction <= 1.0,
            "RetryStorm: SLA fraction outside (0, 1]");
    require(config.recovery_window_epochs >= 1,
            "RetryStorm: recovery window must be at least one epoch");
    dt_ = config.epoch_s;
    epochs_ = static_cast<std::size_t>(std::ceil(config.horizon_s / dt_));
    const auto window = config.recovery_window_epochs;
    outage_start_epoch_ =
        static_cast<std::size_t>(config.outage_start_s / dt_);
    require(outage_start_epoch_ / 2 + window <= outage_start_epoch_,
            "RetryStorm: outage starts too early for a pre-fault SLA window");
    outage_end_s_ = config.outage_start_s + config.outage_duration_s;

    sensing::SensorPlaneConfig sensor_config = config.sensors;
    sensor_config.fault_domains = 1;
    sensors_.emplace(sensor_config);

    offered_rate_.assign(epochs_, 0.0);
    goodput_rate_.assign(epochs_, 0.0);
    failure_rate_.assign(epochs_, 0.0);
    interactive_capacity_rps_ =
        config.service_capacity_rps - config.batch_rps;
  }

  RetryStormEngine(const RetryStormEngine&) = delete;
  RetryStormEngine& operator=(const RetryStormEngine&) = delete;

  std::size_t epochs() const { return epochs_; }
  double epoch_s() const { return dt_; }

  /// Phase A of epoch e, at t0 = e*dt. `kernel` receives the epoch's
  /// completion cohort at t1 = t0 + dt (any Simulator-shaped scheduler: the
  /// serial runner's private kernel, or a federation shard).
  template <typename Kernel>
  void begin_epoch(std::size_t e, Kernel& kernel) {
    const double t0 = static_cast<double>(e) * dt_;
    const double t1 = t0 + dt_;
    const bool outage = t0 >= config_.outage_start_s && t0 < outage_end_s_;

    // Outage onset: every session drops; reconnects spread out like the
    // Fig. 3 login spike.
    if (outage && !sessions_dropped_) {
      population_.disconnect_all(t0);
      sessions_dropped_ = true;
    }

    if (config_.defense.enabled) {
      breaker_.begin_epoch(t0);
      bucket_.refill(dt_);
    }

    // Snapshot ledger deltas for this epoch's breaker/telemetry accounting.
    led0_ = population_.ledger();
    dark_ = 0;
    shed_breaker_ = 0;
    shed_bucket_ = 0;
    shed_queue_ = 0;

    // 1. Client attempts due this epoch, through the admission stack.
    for (const std::uint32_t id : population_.collect_due(t0, dt_)) {
      if (config_.defense.enabled && !breaker_.allow()) {
        ++shed_breaker_;
        population_.on_rejected(id, t0);
      } else if (outage) {
        ++dark_;  // reached a dark service: connection failure
        population_.on_rejected(id, t0);
      } else if (config_.defense.enabled && !bucket_.try_acquire()) {
        ++shed_bucket_;
        population_.on_rejected(id, t0);
      } else if (!queue_.try_push(id, t0)) {
        ++shed_queue_;
        population_.on_rejected(id, t0);
      } else {
        population_.on_admitted(id, t0);
      }
    }
    out_.max_queue_depth = std::max(out_.max_queue_depth, queue_.size());

    // 2. Interactive capacity: total minus the surviving batch tier (the
    // macro overload posture sheds batch to make headroom).
    const double batch_served_rps =
        outage ? 0.0 : config_.batch_rps * (1.0 - batch_shed_frac_);
    interactive_capacity_rps_ =
        outage ? 0.0 : config_.service_capacity_rps - batch_served_rps;

    // 3. Drain the accept queue FIFO; completions land at the epoch end.
    // Fractional credit carries over only while the server is backlogged
    // (an idle server cannot bank capacity).
    fresh0_ = population_.ledger().served;
    stale0_ = population_.ledger().stale_served;
    double credit = serve_carry_ + interactive_capacity_rps_ * dt_;
    if constexpr (Population::kBatchServe) {
      // One id span for the whole cohort, reused epoch over epoch via the
      // arena; the single event keeps the kernel O(1) per epoch instead of
      // O(completions).
      cohort_arena_.reset();
      const std::size_t budget =
          std::min(static_cast<std::size_t>(credit), queue_.size());
      std::uint32_t* cohort = cohort_arena_.template alloc<std::uint32_t>(budget);
      std::size_t cohort_n = 0;
      while (credit >= 1.0 && !queue_.empty()) {
        cohort[cohort_n++] = queue_.front().id;
        queue_.pop();
        credit -= 1.0;
      }
      serve_carry_ = queue_.empty() ? 0.0 : credit;
      if (cohort_n > 0) {
        Population* population = &population_;
        sim::EventFn event{[population, cohort, cohort_n, t1] {
          population->on_served_batch(cohort, cohort_n, t1);
        }};
        kernel.schedule_batch_at(t1, &event, &event + 1);
      }
    } else {
      completion_batch_.clear();
      while (credit >= 1.0 && !queue_.empty()) {
        const std::uint32_t id = queue_.front().id;
        Population* population = &population_;
        completion_batch_.emplace_back(
            [population, id, t1] { population->on_served(id, t1); });
        queue_.pop();
        credit -= 1.0;
      }
      serve_carry_ = queue_.empty() ? 0.0 : credit;
      kernel.schedule_batch_at(t1, completion_batch_.begin(),
                               completion_batch_.end());
    }
  }

  /// Phase B of epoch e, at t1 = (e+1)*dt, after the kernel fired the
  /// epoch's completion cohort.
  void end_epoch(std::size_t e) {
    const double t1 = static_cast<double>(e) * dt_ + dt_;

    // 4. Client deadlines fire after this epoch's completions.
    const auto expired0 = population_.ledger().timed_out;
    population_.expire_timeouts(t1);

    const auto& led1 = population_.ledger();
    const auto fresh_delta = led1.served - fresh0_;
    const auto stale_delta = led1.stale_served - stale0_;
    const auto expired_delta = led1.timed_out - expired0;
    const auto retry_delta = led1.retries - led0_.retries;
    const auto abandoned_delta = led1.abandoned - led0_.abandoned;
    const std::uint64_t shed_delta = shed_breaker_ + shed_bucket_ + shed_queue_;

    // 5. Breaker verdict from downstream outcomes: completions, client
    // timeouts, and dark failures. The stack's own sheds are deliberate and
    // must not trip it.
    if (config_.defense.enabled) {
      const std::uint64_t observed =
          dark_ + fresh_delta + stale_delta + expired_delta;
      breaker_.on_epoch_end(observed, observed - fresh_delta, t1);
    }

    // 6. Shed/retry telemetry through the sensor plane, and the overload
    // signal (from the *estimated* rates, like every macro observation)
    // into the degradation policy for next epoch's posture.
    const double shed_rps = static_cast<double>(shed_delta) / dt_;
    const double retry_rps = static_cast<double>(retry_delta) / dt_;
    telemetry_.record_shed(shed_delta);
    telemetry_.record_retried(retry_delta);
    telemetry_.record_abandoned(abandoned_delta);
    macro::OverloadSignal signal;
    signal.breaker_open =
        config_.defense.enabled &&
        breaker_.state() != cluster::BreakerState::kClosed;
    {
      const auto readings = sensors_->sample(shed_channel_, shed_rps, t1);
      feed_.publish(shed_key_, readings, t1);
      signal.shed_rate_per_s =
          estimator_.update(shed_channel_, readings, t1).value;
    }
    {
      const auto readings = sensors_->sample(retry_channel_, retry_rps, t1);
      feed_.publish(retry_key_, readings, t1);
      signal.retry_rate_per_s =
          estimator_.update(retry_channel_, readings, t1).value;
    }
    if (config_.policy_enabled) {
      policy_.observe_overload(signal, t1);
      const auto action = policy_.react(t1, /*battery_ride_through_s=*/1e12);
      batch_shed_frac_ = action.shed_scale[config_.policy.low_tier_service];
    }

    // 7. Invariants: cumulative flow identities and the retry-budget
    // conservation ledger, every epoch.
    sensing::InvariantMonitor::RequestFlow flow;
    flow.time_s = t1;
    flow.offered = static_cast<double>(led1.attempts);
    flow.served = static_cast<double>(led1.served + led1.stale_served);
    flow.goodput = static_cast<double>(led1.served);
    flow.intents = static_cast<double>(led1.intents);
    flow.retries = static_cast<double>(led1.retries);
    monitor_.check_request_flow(flow);
    monitor_.check_condition("retry-budget-conservation",
                             population_.conservation_ok(),
                             population_.conservation_report(), t1);

    const auto attempts_delta = led1.attempts - led0_.attempts;
    offered_rate_[e] = static_cast<double>(attempts_delta) / dt_;
    goodput_rate_[e] = static_cast<double>(fresh_delta) / dt_;
    failure_rate_[e] = static_cast<double>(stale_delta + expired_delta +
                                           shed_delta + dark_) /
                       dt_;
    out_.dark_failures += dark_;
    out_.shed_breaker += shed_breaker_;
    out_.shed_bucket += shed_bucket_;
    out_.shed_queue += shed_queue_;
    ++out_.epochs;
  }

  /// Post-loop summary: recovery scan, metastability verdict, ledger
  /// copy-out. Call exactly once, after end_epoch(epochs() - 1).
  RetryStormOutcome finish() {
    const auto window = config_.recovery_window_epochs;

    // Pre-fault SLA basis: steady-state goodput over the half of the warm
    // period closest to the outage.
    out_.prefault_goodput_rps =
        retry_storm_window_mean(goodput_rate_, outage_start_epoch_,
                                outage_start_epoch_ - outage_start_epoch_ / 2);
    const double sla_rps =
        config_.sla_goodput_fraction * out_.prefault_goodput_rps;
    const double fail_budget_rps =
        (1.0 - config_.sla_goodput_fraction) * out_.prefault_goodput_rps;

    // Recovery: the first run of `window` consecutive healthy epochs after
    // the outage clears.
    const auto clear_epoch = std::min(
        epochs_, static_cast<std::size_t>(std::ceil(outage_end_s_ / dt_)));
    std::size_t healthy_run = 0;
    for (std::size_t e = clear_epoch; e < epochs_ && !out_.recovered; ++e) {
      const bool healthy = goodput_rate_[e] >= sla_rps &&
                           failure_rate_[e] <= fail_budget_rps;
      healthy_run = healthy ? healthy_run + 1 : 0;
      if (healthy_run >= window) {
        out_.recovered = true;
        out_.recovery_s = static_cast<double>(e + 1) * dt_ - outage_end_s_;
      }
    }

    out_.end_offered_rps = retry_storm_window_mean(offered_rate_, epochs_, window);
    out_.end_goodput_rps = retry_storm_window_mean(goodput_rate_, epochs_, window);
    out_.end_interactive_capacity_rps = interactive_capacity_rps_;
    out_.metastable = !out_.recovered &&
                      out_.end_offered_rps > out_.end_interactive_capacity_rps;

    const auto& led = population_.ledger();
    out_.intents = led.intents;
    out_.attempts = led.attempts;
    out_.retries = led.retries;
    out_.served_fresh = led.served;
    out_.served_stale = led.stale_served;
    out_.timed_out = led.timed_out;
    out_.abandoned = led.abandoned;
    out_.breaker_trips = breaker_.trips();
    out_.breaker_probes = breaker_.probes_issued();
    out_.telemetry_samples = telemetry_.total_samples();
    out_.telemetry_shed = telemetry_.shed_requests();
    out_.telemetry_retried = telemetry_.retried_requests();
    out_.telemetry_abandoned = telemetry_.abandoned_requests();
    out_.conservation_ok = population_.conservation_ok();
    out_.conservation_report = population_.conservation_report();
    out_.invariants_ok = monitor_.ok();
    out_.invariant_violations = monitor_.violation_count();
    out_.invariant_report = monitor_.report();
    out_.decision_counts = log_.counts_by_kind();
    return out_;
  }

 private:
  RetryStormConfig config_;
  double dt_ = 1.0;
  std::size_t epochs_ = 0;
  std::size_t outage_start_epoch_ = 0;
  double outage_end_s_ = 0.0;

  Population population_;
  cluster::BoundedQueue queue_;
  cluster::TokenBucket bucket_;
  cluster::CircuitBreaker breaker_;
  macro::DecisionLog log_;
  macro::DegradationPolicy policy_;
  std::optional<sensing::SensorPlane> sensors_;
  sensing::ValidatedEstimator estimator_;
  sensing::InvariantMonitor monitor_;
  telemetry::TelemetryStore telemetry_;
  sensing::TelemetryFeed feed_{telemetry_};
  const std::uint64_t shed_channel_ =
      sensing::make_channel(sensing::ChannelKind::kShedRate, 0);
  const std::uint64_t retry_channel_ =
      sensing::make_channel(sensing::ChannelKind::kRetryRate, 0);
  const std::uint64_t shed_key_ = telemetry::make_key(0, 1);
  const std::uint64_t retry_key_ = telemetry::make_key(0, 2);

  RetryStormOutcome out_;
  std::vector<double> offered_rate_;
  std::vector<double> goodput_rate_;
  std::vector<double> failure_rate_;
  bool sessions_dropped_ = false;
  std::vector<sim::EventFn> completion_batch_;
  EpochArena cohort_arena_;
  double serve_carry_ = 0.0;
  double batch_shed_frac_ = 0.0;  // from last epoch's policy reaction
  double interactive_capacity_rps_ = 0.0;

  // Phase-A snapshot consumed by phase B of the same epoch.
  workload::ClientLedger led0_;
  std::uint64_t dark_ = 0;
  std::uint64_t shed_breaker_ = 0;
  std::uint64_t shed_bucket_ = 0;
  std::uint64_t shed_queue_ = 0;
  std::uint64_t fresh0_ = 0;
  std::uint64_t stale0_ = 0;
};

/// The serial runner: a plain epoch loop over the phase-split engine with a
/// private completion kernel. Outcomes are bit-identical to the federated
/// runner on a 1-shard federation and to every checked-in anchor.
template <typename Population>
RetryStormOutcome run_retry_storm_serial(const RetryStormConfig& config) {
  RetryStormEngine<Population> engine(config);
  sim::Simulator completions;
  const double dt = engine.epoch_s();
  for (std::size_t e = 0; e < engine.epochs(); ++e) {
    engine.begin_epoch(e, completions);
    completions.run_until(static_cast<double>(e) * dt + dt);
    engine.end_epoch(e);
  }
  return engine.finish();
}

}  // namespace epm::faults
