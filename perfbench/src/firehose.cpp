// firehose: the §5.3 monitoring firehose on the columnar telemetry store.
// The reference counter mix (workload::synthesize_fleet_counters, spikes
// on) goes through bulk_append on a thread pool two ticks per batch (a 30 s
// collector flush); after each batch a fixed number of seeded trailing-hour
// raw_range point reads run. After the last batch: flush(), repeated
// fleet-wide trailing-hour range scans over every series, then
// anomalies().
//
// Two ticks (16000 samples) per call halve the pool hand-offs of one tick
// per call, whose spin-waits made the ingest CPU time swing with host
// steal, while each ingest ring still holds its share of a batch (4000 of
// 4096 slots), so producers never wait on a full ring.
//
// Bulk writes and reads contend in the telemetry layer, so a change that
// trades ingest speed for query speed shows on both sides.
#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "oracle.h"
#include "telemetry/store.h"
#include "workload/fleet_counters.h"

namespace perfbench {

namespace {

constexpr double kCadenceS = 15.0;
constexpr double kWindowS = 3600.0;
constexpr std::uint32_t kTicksPerBatch = 2;

struct Shape {
  std::uint32_t servers;
  std::uint32_t counters;
  std::uint32_t ticks;
  std::size_t reads_per_tick;
  std::size_t scans;
};

Shape shape_for(Size size) {
  if (size == Size::kTiny) return {128, 40, 80, 4, 3};
  return {200, 40, 240, 8, 6};
}

struct PointRead {
  epm::telemetry::CounterKey key = 0;
  std::uint32_t series = 0;  ///< server * counters + counter
};

class Firehose final : public Workload {
 public:
  explicit Firehose(const Options& options)
      : options_(options), shape_(shape_for(options.size)) {}

  std::size_t threads() const override { return options_.threads_or(4); }

  void setup(Tracer& tracer) override {
    epm::workload::FleetCountersConfig mix;
    mix.servers = shape_.servers;
    mix.counters_per_server = shape_.counters;
    mix.ticks = shape_.ticks;
    mix.cadence_s = kCadenceS;
    mix.seed = options_.seed;
    mix.spike_probability = 0.02;
    {
      Span span(tracer, "workload.synthesize_fleet_counters");
      auto batch = epm::workload::synthesize_fleet_counters(mix);
      spikes_ = std::move(batch.spikes);
      // Tick-major output: batch b is kTicksPerBatch contiguous ticks.
      const std::size_t per_batch = series() * kTicksPerBatch;
      batches_.assign(batch_count(), {});
      for (std::uint32_t b = 0; b < batch_count(); ++b) {
        const auto first = batch.samples.begin() + static_cast<std::ptrdiff_t>(b * per_batch);
        batches_[b].assign(first, first + static_cast<std::ptrdiff_t>(per_batch));
      }
    }
    // Seeded read plan: reads_per_tick distinct-or-not series per tick.
    epm::Rng rng(epm::SplitMix64::mix(options_.seed ^ 0x5eedf00dull));
    reads_.clear();
    reads_.reserve(shape_.ticks * shape_.reads_per_tick);
    for (std::size_t i = 0; i < batch_count() * reads_per_batch(); ++i) {
      const auto s = static_cast<std::uint32_t>(rng.next_u64() % series());
      reads_.push_back({epm::telemetry::make_key(s / shape_.counters, s % shape_.counters), s});
    }
    Span span(tracer, "telemetry.construct");
    store_ = std::make_unique<epm::telemetry::ColumnarTelemetryStore>();
    pool_ = std::make_unique<epm::ThreadPool>(threads());
    point_answers_.clear();
    point_answers_.reserve(reads_.size());
    scan_answers_.clear();
  }

  PassOutput run(Tracer& tracer) override {
    PassOutput out;
    double ingest_s = 0.0;
    double ingest_cpu_s = 0.0;
    std::size_t r = 0;
    for (std::uint32_t b = 0; b < batch_count(); ++b) {
      const double a = now_s();
      const double cpu0 = process_cpu_s();
      {
        Span span(tracer, "telemetry.ingest");
        store_->bulk_append(batches_[b], *pool_);
      }
      ingest_cpu_s += process_cpu_s() - cpu0;
      ingest_s += now_s() - a;
      const double t1 = static_cast<double>((b + 1) * kTicksPerBatch) * kCadenceS;
      for (std::size_t k = 0; k < reads_per_batch(); ++k, ++r) {
        const double q = now_s();
        {
          Span span(tracer, "telemetry.point_read");
          point_answers_.push_back(store_->raw_range(reads_[r].key, t1 - kWindowS, t1));
        }
        out.step_s.push_back(now_s() - q);
      }
    }
    {
      Span span(tracer, "telemetry.flush");
      store_->flush();
    }
    const double horizon = static_cast<double>(shape_.ticks) * kCadenceS;
    std::vector<double> scan_s;
    for (std::size_t k = 0; k < shape_.scans; ++k) {
      const double a = now_s();
      Span span(tracer, "telemetry.scan", series());
      for (std::uint32_t s = 0; s < shape_.servers; ++s) {
        for (std::uint32_t c = 0; c < shape_.counters; ++c) {
          scan_answers_.push_back(store_->range(epm::telemetry::make_key(s, c),
                                                horizon - kWindowS, horizon));
        }
      }
      scan_s.push_back(now_s() - a);
    }
    {
      Span span(tracer, "telemetry.anomalies");
      events_ = store_->anomalies();
    }
    const double points = static_cast<double>(series()) * shape_.ticks;
    out.work = points;
    out.work_wall_s = ingest_s;
    out.work_cpu_s = ingest_cpu_s;
    out.timings["ingest_points_per_s"] = points / ingest_s;
    out.timings["query_p50_us"] = quantile(out.step_s, 0.5) * 1e6;
    out.timings["query_p99_us"] = quantile(out.step_s, 0.99) * 1e6;
    out.timings["scan_ms"] = median(scan_s) * 1e3;
    out.timings["scan_series_per_s"] = static_cast<double>(series()) / median(scan_s);

    // Anomaly scoring: an event is attributed to a spike when it fires on
    // the spiked sample itself (same key, same timestamp).
    std::set<std::pair<epm::telemetry::CounterKey, double>> spiked;
    for (const auto& s : spikes_) spiked.insert({s.key, s.time_s});
    std::set<std::pair<epm::telemetry::CounterKey, double>> fired;
    std::size_t attributed = 0;
    for (const auto& e : events_) {
      fired.insert({e.key, e.time_s});
      if (spiked.count({e.key, e.time_s}) != 0) ++attributed;
    }
    recalled_ = 0;
    for (const auto& s : spikes_) recalled_ += fired.count({s.key, s.time_s});

    Digest digest;
    digest.add_u64(store_->total_samples());
    digest.add_u64(store_->compressed_payload_bytes());
    for (const auto* answers : {&point_answers_, &scan_answers_}) {
      for (const auto& a : *answers) {
        digest.add_u64(a.count);
        digest.add_f64(a.sum);
        digest.add_f64(a.min);
        digest.add_f64(a.max);
      }
    }
    for (const auto& e : events_) {
      digest.add_u64(e.key);
      digest.add_f64(e.time_s);
      digest.add_f64(e.value);
      digest.add_f64(e.zscore);
    }
    out.digest = digest.value();
    const double sealed = static_cast<double>(store_->sealed_samples());
    out.stats["telemetry.compression_ratio"] =
        sealed * 16.0 / static_cast<double>(store_->compressed_payload_bytes());
    out.stats["telemetry.bytes_per_point"] =
        static_cast<double>(store_->memory_bytes()) / points;
    out.stats["telemetry.anomaly_recall"] =
        spikes_.empty() ? 1.0
                        : static_cast<double>(recalled_) / static_cast<double>(spikes_.size());
    out.stats["telemetry.anomaly_precision"] =
        events_.empty() ? 0.0
                        : static_cast<double>(attributed) / static_cast<double>(events_.size());
    out.stats["telemetry.anomaly_events"] = static_cast<double>(events_.size());
    return out;
  }

  void check(const PassOutput& /*out*/, Checks& checks) override {
    checks.expect(store_->total_samples() ==
                      static_cast<std::uint64_t>(series()) * shape_.ticks,
                  "firehose: total_samples differs from the generated count");
    checks.expect(!spikes_.empty() && recalled_ == spikes_.size(),
                  "firehose: an injected spike was not recalled");
    const std::size_t capacity = epm::telemetry::TelemetryTuning{}.block_capacity;
    // Batches live in separate vectors: gather one series at a time.
    std::vector<double> ts(shape_.ticks), vs(shape_.ticks);
    auto gather = [&](std::uint32_t s) {
      for (std::uint32_t t = 0; t < shape_.ticks; ++t) {
        const auto& sample =
            batches_[t / kTicksPerBatch][(t % kTicksPerBatch) * series() + s];
        ts[t] = sample.time_s;
        vs[t] = sample.value;
      }
    };
    std::size_t r = 0;
    for (std::uint32_t b = 0; b < batch_count(); ++b) {
      const std::uint32_t seen = (b + 1) * kTicksPerBatch;
      const double t1 = static_cast<double>(seen) * kCadenceS;
      for (std::size_t k = 0; k < reads_per_batch(); ++k, ++r) {
        gather(reads_[r].series);
        Fold expect = oracle_raw_range(ts.data(), vs.data(), seen, capacity,
                                       false, t1 - kWindowS, t1);
        if (options_.corrupt_oracle && r == 0) expect.sum += 1.0;
        checks.expect(same_answer(point_answers_[r], expect),
                      "firehose: raw_range answer differs from the recomputation");
      }
    }
    const double horizon = static_cast<double>(shape_.ticks) * kCadenceS;
    std::vector<Fold> scan_expect;
    scan_expect.reserve(series());
    for (std::uint32_t s = 0; s < series(); ++s) {
      gather(s);
      scan_expect.push_back(oracle_binned_range(ts.data(), vs.data(), shape_.ticks,
                                                kCadenceS, horizon - kWindowS, horizon));
    }
    for (std::size_t i = 0; i < scan_answers_.size(); ++i) {
      checks.expect(same_answer(scan_answers_[i], scan_expect[i % series()]),
                    "firehose: trailing-hour range answer differs from the "
                    "recomputation");
    }
  }

  void teardown() override {
    pool_.reset();
    store_.reset();
    batches_.clear();
    batches_.shrink_to_fit();
    point_answers_.clear();
    scan_answers_.clear();
    events_.clear();
  }

 private:
  std::uint32_t series() const { return shape_.servers * shape_.counters; }
  std::uint32_t batch_count() const { return shape_.ticks / kTicksPerBatch; }
  std::size_t reads_per_batch() const {
    return shape_.reads_per_tick * kTicksPerBatch;
  }

  Options options_;
  Shape shape_;
  std::vector<std::vector<epm::telemetry::Sample>> batches_;
  std::vector<epm::workload::InjectedSpike> spikes_;
  std::vector<PointRead> reads_;
  std::unique_ptr<epm::telemetry::ColumnarTelemetryStore> store_;
  std::unique_ptr<epm::ThreadPool> pool_;
  std::vector<epm::telemetry::Aggregate> point_answers_;
  std::vector<epm::telemetry::Aggregate> scan_answers_;
  std::vector<epm::telemetry::AnomalyEvent> events_;
  std::size_t recalled_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_firehose(const Options& options) {
  return std::make_unique<Firehose>(options);
}

}  // namespace perfbench
