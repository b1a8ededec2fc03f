// facility_week: a fleet of datacenters, each a macro::Facility under a
// MacroResourceManager with an InvariantMonitor attached, stepped
// single-threaded through one simulated week at 60 s epochs. After every
// step about twenty FacilityStep channels per datacenter are appended to
// one ColumnarTelemetryStore; on every coordination epoch a dashboard reads
// the trailing hour of every channel with raw_range.
//
// macro/cluster/thermal/power/sensing do most of the work; telemetry sees
// small streaming writes with reads mixed in. No clients, no federation.
#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/rng.h"
#include "macro/coordinator.h"
#include "macro/facility.h"
#include "oracle.h"
#include "sensing/invariants.h"
#include "telemetry/store.h"
#include "thermal/outside_air.h"
#include "workload/messenger.h"

namespace perfbench {

namespace {

constexpr double kEpochS = 60.0;
constexpr double kHorizonS = 86400.0;
constexpr double kDashboardWindowS = 3600.0;
constexpr std::size_t kServices = 2;
// Seven plant channels plus seven per service.
constexpr std::size_t kChannels = 7 + 7 * kServices;

struct Shape {
  std::size_t dcs;
  std::size_t servers_per_service;
  std::size_t epochs;
};

Shape shape_for(Size size) {
  if (size == Size::kTiny) return {2, 40, 600};
  return {8, 500, static_cast<std::size_t>(kHorizonS / kEpochS)};
}

std::array<double, kChannels> channels_of(const epm::macro::FacilityStep& s) {
  std::array<double, kChannels> c{};
  std::size_t i = 0;
  c[i++] = s.it_power_w;
  c[i++] = s.mechanical_power_w;
  c[i++] = s.utility_draw_w;
  c[i++] = s.pue;
  c[i++] = s.max_zone_temp_c;
  c[i++] = static_cast<double>(s.new_thermal_alarms);
  c[i++] = s.power_overloaded ? 1.0 : 0.0;
  for (std::size_t k = 0; k < kServices; ++k) {
    const auto& r = s.services[k];
    c[i++] = r.arrival_rate_per_s;
    c[i++] = r.utilization;
    c[i++] = r.mean_response_s;
    c[i++] = r.p99_response_s;
    c[i++] = r.dropped_rate_per_s;
    c[i++] = r.server_power_w;
    c[i++] = static_cast<double>(r.serving);
  }
  return c;
}

class FacilityWeek final : public Workload {
 public:
  explicit FacilityWeek(const Options& options)
      : options_(options), shape_(shape_for(options.size)) {}

  std::size_t threads() const override { return 1; }

  void setup(Tracer& tracer) override {
    const double horizon = static_cast<double>(shape_.epochs) * kEpochS;
    // Reference demand peaks (fig. 4) are for 60 servers per service.
    const double scale = static_cast<double>(shape_.servers_per_service) / 60.0;
    demand_.assign(shape_.dcs, {});
    outside_.assign(shape_.dcs, {});
    {
      Span span(tracer, "workload.generate_inputs", 2 * shape_.dcs);
      for (std::size_t d = 0; d < shape_.dcs; ++d) {
        const std::uint64_t dc_seed =
            epm::SplitMix64::mix(options_.seed * 0x9e3779b97f4a7c15ull + d + 1);
        epm::workload::MessengerConfig wl;
        wl.step_s = kEpochS;
        wl.seed = dc_seed;
        const auto trace = epm::workload::generate_messenger_trace(wl, horizon);
        const double peak = trace.connections.stats().max();
        epm::thermal::OutsideAirConfig air;
        air.seed = dc_seed ^ 0xa11ull;
        air.hottest_day = 3.0;  // day 0 is at the seasonal peak: cooling works hard
        epm::thermal::OutsideAirModel model(air);
        const auto temps = model.sample(horizon, kEpochS);
        demand_[d].reserve(shape_.epochs);
        outside_[d].reserve(shape_.epochs);
        for (std::size_t i = 0; i < shape_.epochs; ++i) {
          const double level = trace.connections[i] / peak;
          demand_[d].push_back({level * 4000.0 * scale, level * 2500.0 * scale});
          outside_[d].push_back(temps[i]);
        }
      }
    }
    Span span(tracer, "macro.construct", shape_.dcs);
    facilities_.clear();
    managers_.clear();
    monitors_.clear();
    const auto config = epm::macro::make_reference_facility(shape_.servers_per_service);
    epm::sensing::InvariantMonitorConfig mon;
    mon.throw_on_violation = false;
    for (std::size_t d = 0; d < shape_.dcs; ++d) {
      facilities_.push_back(std::make_unique<epm::macro::Facility>(config));
      monitors_.push_back(std::make_unique<epm::sensing::InvariantMonitor>(mon));
      facilities_.back()->attach_invariant_monitor(monitors_.back().get());
      managers_.push_back(
          std::make_unique<epm::macro::MacroResourceManager>(*facilities_.back()));
    }
    store_ = std::make_unique<epm::telemetry::ColumnarTelemetryStore>();
    history_.assign(shape_.dcs * kChannels, {});
    for (auto& h : history_) h.reserve(shape_.epochs);
    times_.clear();
    times_.reserve(shape_.epochs);
    answers_.clear();
  }

  PassOutput run(Tracer& tracer) override {
    PassOutput out;
    const std::size_t every = epm::macro::MacroManagerConfig{}.coordinate_every_epochs;
    const double t_start = now_s();
    const double cpu_start = process_cpu_s();
    std::vector<double> pue_sum(shape_.dcs, 0.0);
    for (std::size_t i = 0; i < shape_.epochs; ++i) {
      const double t0 = now_s();
      // The manager coordinates before stepping on every `every`-th epoch.
      const bool coordinating = i % every == 0;
      double t_step = 0.0;
      for (std::size_t d = 0; d < shape_.dcs; ++d) {
        epm::macro::FacilityStep step;
        {
          Span span(tracer, coordinating ? "macro.coordinate_step" : "macro.plain_step");
          step = managers_[d]->step(demand_[d][i], outside_[d][i]);
        }
        pue_sum[d] += step.pue;
        t_step = step.time_s;
        const auto values = channels_of(step);
        {
          Span span(tracer, "telemetry.append", kChannels);
          for (std::size_t c = 0; c < kChannels; ++c) {
            store_->append(epm::telemetry::make_key(static_cast<std::uint32_t>(d),
                                                    static_cast<std::uint32_t>(c)),
                           step.time_s, values[c]);
          }
        }
        for (std::size_t c = 0; c < kChannels; ++c) {
          history_[d * kChannels + c].push_back(values[c]);
        }
      }
      times_.push_back(t_step);
      if (coordinating) {
        Span span(tracer, "telemetry.dashboard_read", shape_.dcs * kChannels);
        const double t1 = t_step + kEpochS / 2.0;
        for (std::size_t d = 0; d < shape_.dcs; ++d) {
          for (std::size_t c = 0; c < kChannels; ++c) {
            answers_.push_back(store_->raw_range(
                epm::telemetry::make_key(static_cast<std::uint32_t>(d),
                                         static_cast<std::uint32_t>(c)),
                t1 - kDashboardWindowS, t1));
          }
        }
      }
      out.step_s.push_back(now_s() - t0);
    }
    out.work = static_cast<double>(shape_.dcs * shape_.epochs);
    out.work_wall_s = now_s() - t_start;
    out.work_cpu_s = process_cpu_s() - cpu_start;

    Digest digest;
    double decisions = 0, capping = 0, sla = 0, alarms = 0, it_j = 0, pue = 0,
           violations = 0;
    for (std::size_t d = 0; d < shape_.dcs; ++d) {
      const auto& f = *facilities_[d];
      const auto& m = *managers_[d];
      const double mean_pue = pue_sum[d] / static_cast<double>(shape_.epochs);
      for (double v : {static_cast<double>(m.log().size()),
                       static_cast<double>(m.capping_epochs()),
                       static_cast<double>(f.total_sla_violation_epochs()),
                       static_cast<double>(f.total_thermal_alarms()),
                       static_cast<double>(f.total_overload_epochs()),
                       f.total_it_energy_j(), f.total_mechanical_energy_j(), mean_pue,
                       static_cast<double>(monitors_[d]->violation_count())}) {
        digest.add_f64(v);
      }
      decisions += static_cast<double>(m.log().size());
      capping += static_cast<double>(m.capping_epochs());
      sla += static_cast<double>(f.total_sla_violation_epochs());
      alarms += static_cast<double>(f.total_thermal_alarms());
      it_j += f.total_it_energy_j();
      pue += mean_pue;
      violations += static_cast<double>(monitors_[d]->violation_count());
      mean_pue_.push_back(mean_pue);
    }
    for (const auto& a : answers_) {
      digest.add_u64(a.count);
      digest.add_f64(a.sum);
      digest.add_f64(a.min);
      digest.add_f64(a.max);
    }
    digest.add_u64(store_->total_samples());
    out.digest = digest.value();
    out.stats["macro.decisions"] = decisions;
    out.stats["macro.capping_epochs"] = capping;
    out.stats["cluster.sla_violation_epochs"] = sla;
    out.stats["thermal.alarms"] = alarms;
    out.stats["power.it_energy_kwh"] = it_j / 3.6e6;
    out.stats["power.mean_pue"] = pue / static_cast<double>(shape_.dcs);
    out.stats["sensing.invariant_violations"] = violations;
    return out;
  }

  void check(const PassOutput& /*out*/, Checks& checks) override {
    for (std::size_t d = 0; d < shape_.dcs; ++d) {
      checks.expect(monitors_[d]->ok(), "facility_week: invariant violated in DC " +
                                            std::to_string(d) + ":\n" +
                                            monitors_[d]->report());
      checks.expect(std::isfinite(mean_pue_[d]) && mean_pue_[d] >= 1.0,
                    "facility_week: mean PUE of DC " + std::to_string(d) +
                        " is not a finite value >= 1");
    }
    checks.expect(store_->total_samples() == shape_.dcs * shape_.epochs * kChannels,
                  "facility_week: telemetry lost samples");
    // Replay the dashboard reads against the benchmark's own history.
    const std::size_t every = epm::macro::MacroManagerConfig{}.coordinate_every_epochs;
    const std::size_t capacity = epm::telemetry::TelemetryTuning{}.block_capacity;
    std::size_t k = 0;
    for (std::size_t i = 0; i < shape_.epochs; i += every) {
      const double t1 = times_[i] + kEpochS / 2.0;
      for (std::size_t s = 0; s < shape_.dcs * kChannels; ++s, ++k) {
        Fold expect = oracle_raw_range(times_.data(), history_[s].data(), i + 1,
                                       capacity, false, t1 - kDashboardWindowS, t1);
        if (options_.corrupt_oracle && k == 0) expect.sum += 1.0;
        checks.expect(k < answers_.size() && same_answer(answers_[k], expect),
                      "facility_week: dashboard raw_range answer differs from "
                      "the recomputation");
      }
    }
    checks.expect(k == answers_.size(), "facility_week: dashboard read count");
  }

  void teardown() override {
    managers_.clear();
    facilities_.clear();
    monitors_.clear();
    store_.reset();
    history_.clear();
    answers_.clear();
    mean_pue_.clear();
  }

 private:
  Options options_;
  Shape shape_;
  std::vector<std::vector<std::vector<double>>> demand_;
  std::vector<std::vector<double>> outside_;
  std::vector<std::unique_ptr<epm::macro::Facility>> facilities_;
  std::vector<std::unique_ptr<epm::sensing::InvariantMonitor>> monitors_;
  std::vector<std::unique_ptr<epm::macro::MacroResourceManager>> managers_;
  std::unique_ptr<epm::telemetry::ColumnarTelemetryStore> store_;
  std::vector<std::vector<double>> history_;  ///< [dc * kChannels + c][epoch]
  std::vector<double> times_;                 ///< step time of each epoch
  std::vector<epm::telemetry::Aggregate> answers_;
  std::vector<double> mean_pue_;
};

}  // namespace

std::unique_ptr<Workload> make_facility_week(const Options& options) {
  return std::make_unique<FacilityWeek>(options);
}

}  // namespace perfbench
