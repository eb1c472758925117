// Order statistics shared by the client and the traced replay.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace servebench {

/// q-quantile with linear interpolation between order statistics (the
/// "linear" rule of numpy and statistics.quantiles(method="inclusive")).
/// 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(at));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (at - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace servebench
