#include "telemetry/multiscale.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"

namespace epm::telemetry {

void Aggregate::add(double v) {
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  sum += v;
  ++count;
}

void Aggregate::merge(const Aggregate& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  sum += other.sum;
  count += other.count;
}

void validate(const MultiScaleConfig& config) {
  require(!config.levels.empty(), "MultiScaleConfig: need at least one level");
  double prev = 0.0;
  for (const auto& spec : config.levels) {
    require(spec.resolution_s > 0.0, "MultiScaleConfig: resolution must be positive");
    if (prev > 0.0) {
      const double ratio = spec.resolution_s / prev;
      require(std::abs(ratio - std::round(ratio)) < 1e-9 && ratio >= 2.0 - 1e-9,
              "MultiScaleConfig: each level must be an integer (>1) multiple of "
              "the previous");
    }
    prev = spec.resolution_s;
  }
}

}  // namespace epm::telemetry
