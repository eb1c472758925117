// Log-domain arithmetic.
//
// Counting oracles for determinantal distributions produce quantities that
// overflow `double` long before the interesting problem sizes are reached
// (partition functions are products of n eigenvalue factors). Every count,
// probability mass and acceptance ratio in pardpp is therefore carried as a
// natural logarithm; this header provides the small set of primitives used
// to combine them.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

namespace pardpp {

/// log(0): the additive identity of log-domain accumulation.
inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Elementwise log of a probability vector, with exact kNegInf for zero
/// entries — the shared derivation of every oracle's singleton
/// log-marginal cache (the p_i = 0 convention must not drift between the
/// base oracles and their commit-path states).
[[nodiscard]] inline std::vector<double> log_probabilities(
    std::span<const double> p) {
  std::vector<double> lp(p.size(), kNegInf);
  for (std::size_t i = 0; i < p.size(); ++i)
    if (p[i] > 0.0) lp[i] = std::log(p[i]);
  return lp;
}

/// Returns log(exp(a) + exp(b)) without leaving the log domain.
[[nodiscard]] inline double log_add(double a, double b) noexcept {
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

/// Returns log(exp(a) - exp(b)); requires a >= b. Returns kNegInf when the
/// difference underflows (a == b up to rounding).
[[nodiscard]] inline double log_sub(double a, double b) noexcept {
  if (b == kNegInf) return a;
  if (a <= b) return kNegInf;
  return a + std::log1p(-std::exp(b - a));
}

/// Returns log(sum_i exp(values[i])) with a single pass for the maximum and
/// one for the sum, the standard numerically stable evaluation.
[[nodiscard]] inline double logsumexp(std::span<const double> values) noexcept {
  double hi = kNegInf;
  for (const double v : values) hi = std::max(hi, v);
  if (hi == kNegInf) return kNegInf;
  double acc = 0.0;
  for (const double v : values) acc += std::exp(v - hi);
  return hi + std::log(acc);
}

}  // namespace pardpp
