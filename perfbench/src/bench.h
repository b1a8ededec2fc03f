// Shared harness of the end-to-end benchmark: host clock, span tracer,
// check ledger, outcome digest and the workload interface.
//
// The benchmark drives the simulator only through its public API. Each
// workload is a closed loop of calls into the layers under src/; in a
// traced pass every such call (or tight group of calls) is wrapped in a
// Span named "<layer>.<function>", so the per-layer ledger is the self time
// of those spans. Spans inside the program are not recorded here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic time in nanoseconds.
std::int64_t now_ns();
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }
/// CPU time used so far by all threads of this process, in seconds. Unlike
/// host wall time it does not grow while the process is preempted or its
/// virtual CPUs are stolen, which dominates run-to-run noise on a shared
/// host.
double process_cpu_s();

// ---------------------------------------------------------------------------
// Tracing

struct SpanRecord {
  const char* name = "";  ///< "<layer>.<function>", a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
  std::uint32_t run = 0;     ///< pass the span belongs to
  std::uint64_t calls = 0;   ///< calls into the layer the span covers
};

/// In-memory span recorder for the benchmark's own (single) thread. When
/// disabled, begin() returns -1 and nothing is recorded.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_run(std::uint32_t run) { run_ = run; }

  std::int32_t begin(const char* name, std::uint64_t calls);
  void end(std::int32_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes the spans of pass `run` as Chrome trace-event JSON (complete
  /// "X" events, microsecond timestamps), at most `max_events` of them.
  /// Returns false if the file could not be written.
  bool write_chrome_json(const std::string& path, std::uint32_t run,
                         std::size_t max_events) const;

 private:
  bool enabled_ = false;
  std::uint32_t run_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t calls = 1)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.begin(name, calls) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_.end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Self time (span minus the part its children cover) and counts, summed
/// per key (a span name or a layer name).
struct LedgerRow {
  double self_s = 0.0;
  double total_s = 0.0;
  std::uint64_t spans = 0;
  std::uint64_t calls = 0;
};

struct Ledger {
  std::map<std::string, LedgerRow> by_span;
  std::map<std::string, LedgerRow> by_layer;
  /// Sum of root-span durations: the covered part of the measured window.
  double covered_s = 0.0;
};

/// A host-time interval [from_ns, to_ns).
struct Window {
  std::int64_t from_ns = 0;
  std::int64_t to_ns = 0;
};

/// Ledger over the spans that start inside one of `windows`.
Ledger build_ledger(const std::vector<SpanRecord>& spans,
                    const std::vector<Window>& windows);

/// "telemetry.ingest" -> "telemetry".
std::string layer_of(const char* span_name);

// ---------------------------------------------------------------------------
// Statistics, checks, digest

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Counts checks made and failed; keeps the first few failure messages.
struct Checks {
  std::uint64_t made = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what);
};

/// FNV-1a over the bit patterns of the simulator's result statistics.
class Digest {
 public:
  void add_u64(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add_f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  void add_bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------------------
// Workloads

enum class Size { kFull, kTiny };

struct Options {
  std::uint64_t seed = 1;
  /// Worker threads; 0 = the workload's default, capped at the hardware's.
  std::size_t threads = 0;
  Size size = Size::kFull;
  /// Self-test only: perturb one oracle answer so a check must fail.
  bool corrupt_oracle = false;

  /// `threads`, or `preferred` capped at the hardware's thread count.
  std::size_t threads_or(std::size_t preferred) const;
};

/// What one timed pass produced.
struct PassOutput {
  /// Units of work done in the pass, and the wall and CPU time of the calls
  /// that do it (the whole pass, or only e.g. the ingest calls).
  double work = 0.0;
  double work_wall_s = 0.0;
  double work_cpu_s = 0.0;
  /// Host time of each step of the pass's closed loop.
  std::vector<double> step_s;
  /// Digest of the simulated statistics (must not depend on timing,
  /// threads or tracing).
  std::uint64_t digest = 0;
  /// Per-layer statistics (simulated counts and ratios) by metric name.
  std::map<std::string, double> stats;
  /// Workload-specific host timings for the human-readable report.
  std::map<std::string, double> timings;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads the workload runs on (1 for a single-threaded workload).
  virtual std::size_t threads() const = 0;

  /// Generates the pass's inputs and constructs the system under test.
  virtual void setup(Tracer& tracer) = 0;
  /// The timed section. Calls into the program only with inputs made by
  /// setup().
  virtual PassOutput run(Tracer& tracer) = 0;
  /// Verifies the outputs of the pass run() just finished (untimed).
  virtual void check(const PassOutput& out, Checks& checks) = 0;
  /// Once per invocation, after the passes: checks that need a separate
  /// reference computation (untimed).
  virtual void check_once(Checks& /*checks*/) {}
  /// Releases the pass's state before the next setup().
  virtual void teardown() = 0;
};

std::unique_ptr<Workload> make_storm_fleet(const Options& options);
std::unique_ptr<Workload> make_facility_week(const Options& options);
std::unique_ptr<Workload> make_firehose(const Options& options);

// ---------------------------------------------------------------------------
// Result stamp

struct Stamp {
  std::string commit;
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  bool optimized = false;
};

Stamp make_stamp(const std::string& commit);
std::string stamp_json(const Stamp& stamp);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
