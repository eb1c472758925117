#include "dpp/charpoly_engine.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "linalg/lu.h"
#include "parallel/execution.h"
#include "support/error.h"
#include "support/logsum.h"

namespace pardpp {

namespace {

// Per-part "expected counts" tr_a(D(rho) M (I + D(rho) M)^{-1}) for radius
// vector rho — the multivariate saddle-point objective.
std::vector<double> expected_counts(const Matrix& m,
                                    std::span<const int> part_of,
                                    std::size_t num_parts,
                                    std::span<const double> rho) {
  const std::size_t n = m.rows();
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double scale = rho[static_cast<std::size_t>(part_of[i])];
    for (std::size_t j = 0; j < n; ++j) a(i, j) = scale * m(i, j);
    a(i, i) += 1.0;
  }
  std::vector<double> counts(num_parts, 0.0);
  const auto lu = lu_factor(std::move(a));
  if (lu.singular()) {
    // Degenerate evaluation: report saturated counts so bisection backs off.
    for (std::size_t i = 0; i < n; ++i)
      counts[static_cast<std::size_t>(part_of[i])] += 1.0;
    return counts;
  }
  const Matrix inv = lu.inverse();
  for (std::size_t i = 0; i < n; ++i)
    counts[static_cast<std::size_t>(part_of[i])] += 1.0 - inv(i, i);
  return counts;
}

}  // namespace

CharPolyEngine::CharPolyEngine(Matrix m, std::vector<int> part_of,
                               std::size_t num_parts,
                               std::vector<int> target_counts,
                               double memory_budget)
    : m_(std::move(m)),
      part_of_(std::move(part_of)),
      num_parts_(num_parts),
      target_counts_(std::move(target_counts)),
      memory_budget_(memory_budget) {
  check_arg(m_.square(), "CharPolyEngine: matrix not square");
  check_arg(part_of_.size() == m_.rows(),
            "CharPolyEngine: partition label count mismatch");
  check_arg(target_counts_.size() == num_parts_,
            "CharPolyEngine: target count size mismatch");
  check_arg(num_parts_ >= 1, "CharPolyEngine: need at least one part");
  for (const int p : part_of_)
    check_arg(p >= 0 && static_cast<std::size_t>(p) < num_parts_,
              "CharPolyEngine: partition label out of range");
  for (const int c : target_counts_)
    check_arg(c >= 0, "CharPolyEngine: negative target count");
}

std::vector<double> CharPolyEngine::choose_radii() const {
  std::vector<double> rho(num_parts_, 1.0);
  if (m_.max_abs() == 0.0) return rho;
  std::vector<double> part_sizes(num_parts_, 0.0);
  for (const int p : part_of_) part_sizes[static_cast<std::size_t>(p)] += 1.0;
  std::vector<double> target(num_parts_);
  for (std::size_t a = 0; a < num_parts_; ++a) {
    // Stay strictly inside (0, |V_a|) so the saddle point exists.
    target[a] =
        std::clamp(static_cast<double>(target_counts_[a]), 0.25,
                   std::max(part_sizes[a] - 0.25, 0.25));
  }
  // Coordinate-wise log-bisection sweeps on the monotone-in-own-coordinate
  // map rho_a -> expected count of part a.
  for (int sweep = 0; sweep < 4; ++sweep) {
    for (std::size_t a = 0; a < num_parts_; ++a) {
      double lo = 1e-8;
      double hi = 1e8;
      for (int iter = 0; iter < 22; ++iter) {
        rho[a] = std::sqrt(lo * hi);
        const auto counts = expected_counts(m_, part_of_, num_parts_, rho);
        if (counts[a] < target[a]) {
          lo = rho[a];
        } else {
          hi = rho[a];
        }
        if (hi / lo < 1.0 + 1e-4) break;
      }
      rho[a] = std::sqrt(lo * hi);
    }
  }
  return rho;
}

void CharPolyEngine::build_cache() const {
  Cache cache;
  const std::size_t n = m_.rows();
  cache.axis_nodes.resize(num_parts_);
  std::vector<double> part_sizes(num_parts_, 0.0);
  for (const int p : part_of_) part_sizes[static_cast<std::size_t>(p)] += 1.0;
  cache.grid_size = 1;
  for (std::size_t a = 0; a < num_parts_; ++a) {
    cache.axis_nodes[a] = static_cast<std::size_t>(part_sizes[a]) + 1;
    cache.grid_size *= cache.axis_nodes[a];
  }
  const double bytes = static_cast<double>(cache.grid_size) *
                       static_cast<double>(n) * static_cast<double>(n) * 16.0;
  check_arg(bytes <= memory_budget_,
            "CharPolyEngine: node cache exceeds memory budget; reduce the "
            "ground set / partition sizes or raise the budget");
  cache.radii = choose_radii();

  cache.log_det.resize(cache.grid_size);
  cache.det_phase.resize(cache.grid_size);
  cache.inverse.resize(cache.grid_size);
  cache.node_w.resize(cache.grid_size * num_parts_);

  const CMatrix mc = to_complex(m_);
  // One complex LU + inverse per node, each on disjoint cache slots: a
  // textbook wide round, fanned out on the linalg pool.
  linalg_context().for_each(0, cache.grid_size, [&](std::size_t g) {
    // Decode the multi-index of grid node g (axis 0 slowest).
    std::vector<std::complex<double>> w(num_parts_);
    {
      std::size_t rem = g;
      for (std::size_t a = num_parts_; a-- > 0;) {
        const std::size_t ta = rem % cache.axis_nodes[a];
        rem /= cache.axis_nodes[a];
        const double angle = 2.0 * std::numbers::pi *
                             static_cast<double>(ta) /
                             static_cast<double>(cache.axis_nodes[a]);
        w[a] = std::polar(cache.radii[a], angle);
      }
    }
    for (std::size_t a = 0; a < num_parts_; ++a)
      cache.node_w[g * num_parts_ + a] = w[a];
    CMatrix a_mat(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::complex<double> scale =
          w[static_cast<std::size_t>(part_of_[i])];
      for (std::size_t j = 0; j < n; ++j) a_mat(i, j) = scale * mc(i, j);
      a_mat(i, i) += 1.0;
    }
    auto lu = lu_factor(std::move(a_mat));
    check_numeric(!lu.singular(),
                  "CharPolyEngine: det(I + D(w)M) vanished at an "
                  "interpolation node (degenerate ensemble)");
    const auto det = lu.log_det();
    cache.log_det[g] = det.log_abs;
    cache.det_phase[g] = det.phase;
    cache.inverse[g] = lu.inverse();
  });
  cache_ = std::move(cache);
}

const CharPolyEngine::Cache& CharPolyEngine::cache() const {
  if (!cache_.has_value()) build_cache();
  return *cache_;
}

LogCoefficient CharPolyEngine::extract_coefficient(
    std::span<const std::complex<double>> values_phase,
    std::span<const double> values_log, std::span<const int> j) const {
  const auto& c = cache();
  check_arg(j.size() == num_parts_, "extract_coefficient: bad index size");
  for (std::size_t a = 0; a < num_parts_; ++a) {
    if (j[a] < 0) return {kNegInf, 0};
    if (static_cast<std::size_t>(j[a]) >= c.axis_nodes[a]) return {kNegInf, 0};
  }
  double scale = kNegInf;
  for (const double v : values_log) scale = std::max(scale, v);
  if (scale == kNegInf) return {kNegInf, 0};

  std::complex<double> acc(0.0, 0.0);
  double max_mag = 0.0;
  for (std::size_t g = 0; g < c.grid_size; ++g) {
    if (values_log[g] == kNegInf) continue;
    const std::complex<double> value =
        values_phase[g] * std::exp(values_log[g] - scale);
    max_mag = std::max(max_mag, std::abs(value));
    // Twiddle factor prod_a w_a(g)^{-j_a} / rho_a^{-j_a} = unit phase.
    double angle = 0.0;
    std::size_t rem = g;
    for (std::size_t a = num_parts_; a-- > 0;) {
      const std::size_t ta = rem % c.axis_nodes[a];
      rem /= c.axis_nodes[a];
      angle -= 2.0 * std::numbers::pi * static_cast<double>(ta) *
               static_cast<double>(j[a]) / static_cast<double>(c.axis_nodes[a]);
    }
    acc += value * std::polar(1.0, angle);
  }
  acc /= static_cast<double>(c.grid_size);
  const double noise_floor = max_mag * 3e-12 *
                             std::sqrt(static_cast<double>(c.grid_size));
  const double real_part = acc.real();
  if (std::abs(real_part) <= noise_floor) return {kNegInf, 0};
  double log_abs = std::log(std::abs(real_part)) + scale;
  for (std::size_t a = 0; a < num_parts_; ++a)
    log_abs -= static_cast<double>(j[a]) * std::log(c.radii[a]);
  return {log_abs, real_part > 0.0 ? 1 : -1};
}

LogCoefficient CharPolyEngine::log_count(std::span<const int> j) const {
  const auto& c = cache();
  return extract_coefficient(c.det_phase, c.log_det, j);
}

LogCoefficient CharPolyEngine::log_count_superset(std::span<const int> t,
                                                  std::span<const int> j) const {
  if (t.empty()) return log_count(j);
  const auto& c = cache();
  const std::size_t tsize = t.size();
  for (std::size_t a = 0; a < tsize; ++a) {
    check_arg(t[a] >= 0 && static_cast<std::size_t>(t[a]) < ground_size(),
              "log_count_superset: index out of range");
    for (std::size_t b = a + 1; b < tsize; ++b)
      check_arg(t[a] != t[b], "log_count_superset: duplicate index in T");
  }
  std::vector<std::complex<double>> phases(c.grid_size);
  std::vector<double> logs(c.grid_size, kNegInf);
  // Independent t x t solves per node — the per-proposal hot path.
  const auto solve_node = [&](std::size_t g, CMatrix& ct) {
    const CMatrix& inv = c.inverse[g];
    // (C_T)_{r r'} = δ + (1 - w_r)(M A^{-1})_{r r'} - A^{-1}_{r r'} with
    // (M A^{-1})_{r r'} = (δ - A^{-1}_{r r'}) / w_r, w_r = w_{p(t_r)}.
    for (std::size_t a = 0; a < tsize; ++a) {
      const auto row = static_cast<std::size_t>(t[a]);
      const std::complex<double> w =
          c.node_w[g * num_parts_ + static_cast<std::size_t>(part_of_[row])];
      const std::complex<double> one_minus_w_over_w = (1.0 - w) / w;
      for (std::size_t b = 0; b < tsize; ++b) {
        const auto col = static_cast<std::size_t>(t[b]);
        const std::complex<double> ainv = inv(row, col);
        const std::complex<double> delta = (a == b) ? 1.0 : 0.0;
        ct(a, b) = delta + one_minus_w_over_w * (delta - ainv) - ainv;
      }
    }
    const auto lu = lu_factor(ct);
    if (lu.singular()) {
      logs[g] = kNegInf;
      phases[g] = {0.0, 0.0};
      return;
    }
    const auto det = lu.log_det();
    logs[g] = c.log_det[g] + det.log_abs;
    phases[g] = c.det_phase[g] * det.phase;
  };
  // Scratch is per chunk: private to each parallel body, hoisted across
  // all nodes when the round runs serially as one chunk.
  linalg_context().for_each_chunk(
      0, c.grid_size, [&](std::size_t lo, std::size_t hi) {
        CMatrix ct(tsize, tsize);
        for (std::size_t g = lo; g < hi; ++g) solve_node(g, ct);
      });
  return extract_coefficient(phases, logs, j);
}

std::vector<LogCoefficient> CharPolyEngine::marginal_numerators() const {
  const auto& c = cache();
  const std::size_t n = ground_size();
  std::vector<LogCoefficient> out(n);
  // sum_{S ∋ i} det(M_S) prod w^counts = det(A) (1 - A^{-1}_{ii}).
  const auto element = [&](std::size_t i, std::vector<std::complex<double>>& phases,
                           std::vector<double>& logs) {
    for (std::size_t g = 0; g < c.grid_size; ++g) {
      const std::complex<double> factor = 1.0 - c.inverse[g](i, i);
      const double mag = std::abs(factor);
      if (mag == 0.0) {
        logs[g] = kNegInf;
        phases[g] = {0.0, 0.0};
      } else {
        logs[g] = c.log_det[g] + std::log(mag);
        phases[g] = c.det_phase[g] * (factor / mag);
      }
    }
    out[i] = extract_coefficient(phases, logs, target_counts_);
  };
  // All n numerators are one wide round over the shared node cache;
  // per-chunk scratch keeps the bodies disjoint.
  linalg_context().for_each_chunk(0, n, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::complex<double>> phases(c.grid_size);
    std::vector<double> logs(c.grid_size);
    for (std::size_t i = lo; i < hi; ++i) element(i, phases, logs);
  });
  return out;
}

}  // namespace pardpp
