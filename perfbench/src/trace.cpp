#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>

#include "bench.h"

namespace perfbench {

std::int64_t now_ns() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int32_t Tracer::begin(const char* name, std::uint64_t calls) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.run = run_;
  rec.calls = calls;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(rec);
  stack_.push_back(id);
  // Read the clock last so the bookkeeping above is not inside the span.
  spans_.back().start_ns = now_ns();
  return id;
}

void Tracer::end(std::int32_t id) {
  const std::int64_t t = now_ns();
  spans_[static_cast<std::size_t>(id)].end_ns = t;
  // Spans nest strictly (RAII on one thread), so `id` is the top.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool Tracer::write_chrome_json(const std::string& path, std::uint32_t run,
                               std::size_t max_events) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = 0;
  bool have_origin = false;
  for (const SpanRecord& s : spans_) {
    if (s.run != run) continue;
    if (!have_origin || s.start_ns < origin) origin = s.start_ns;
    have_origin = true;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::size_t written = 0;
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.run != run) continue;
    if (written == max_events) {
      ++skipped;
      continue;
    }
    const std::string layer = layer_of(s.name);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"run\":%u,\"calls\":%llu}}",
                 written == 0 ? "" : ",\n", s.name, layer.c_str(),
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                 s.run, static_cast<unsigned long long>(s.calls));
    ++written;
  }
  std::fprintf(f,
               "\n],\"otherData\":{\"run\":%u,\"events_written\":%zu,"
               "\"events_skipped\":%zu}}\n",
               run, written, skipped);
  return std::fclose(f) == 0;
}

std::string layer_of(const char* span_name) {
  const char* dot = std::strchr(span_name, '.');
  return dot == nullptr ? std::string(span_name)
                        : std::string(span_name, static_cast<std::size_t>(dot - span_name));
}

Ledger build_ledger(const std::vector<SpanRecord>& spans,
                    const std::vector<Window>& windows) {
  // Children's durations per parent, so self = duration - children.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  Ledger ledger;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const bool inside = std::any_of(windows.begin(), windows.end(), [&](const Window& w) {
      return s.start_ns >= w.from_ns && s.start_ns < w.to_ns;
    });
    if (!inside) continue;
    const double total = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const double self = static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    for (LedgerRow* row : {&ledger.by_span[s.name], &ledger.by_layer[layer_of(s.name)]}) {
      row->self_s += self;
      row->total_s += total;
      row->spans += 1;
      row->calls += s.calls;
    }
    if (s.parent < 0) ledger.covered_s += total;
  }
  return ledger;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Checks::expect(bool ok, const std::string& what) {
  ++made;
  if (ok) return;
  ++failed;
  if (failures.size() < 16) failures.push_back(what);
}

void Digest::add_bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ull;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
