#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? std::string() : line.substr(start);
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

Stamp make_stamp(const std::string& commit) {
  Stamp s;
  s.commit = commit.empty() ? "unknown" : commit;
  s.cpu_model = cpu_model();
  s.nproc = std::thread::hardware_concurrency();
  s.compiler = PERFBENCH_COMPILER;
  s.build_type = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  s.optimized = true;
#endif
  return s;
}

std::string stamp_json(const Stamp& s) {
  return "{\"commit\": \"" + json_escape(s.commit) + "\", \"cpu_model\": \"" +
         json_escape(s.cpu_model) + "\", \"nproc\": " + std::to_string(s.nproc) +
         ", \"compiler\": \"" + json_escape(s.compiler) + "\", \"build_type\": \"" +
         json_escape(s.build_type) + "\", \"optimized\": " +
         (s.optimized ? "true" : "false") + "}";
}

std::size_t Options::threads_or(std::size_t preferred) const {
  if (threads != 0) return threads;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(preferred, hw);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
