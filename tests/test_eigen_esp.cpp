// Tests for the symmetric eigensolvers (tred2/tql2 vs Jacobi and vs the
// textbook column-order reference), elementary symmetric polynomials, and
// characteristic-polynomial extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "linalg/charpoly.h"
#include "linalg/esp.h"
#include "linalg/schur.h"
#include "linalg/factory.h"
#include "linalg/lu.h"
#include "linalg/symmetric_eigen.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "support/combinatorics.h"
#include "support/logsum.h"
#include "support/random.h"

namespace pardpp {
namespace {

class EigenCrossCheck : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(EigenCrossCheck, QlMatchesJacobi) {
  const auto [n, seed] = GetParam();
  RandomStream rng(static_cast<std::uint64_t>(seed) * 1000 + 7);
  const Matrix a = random_psd(static_cast<std::size_t>(n),
                              static_cast<std::size_t>(std::max(1, n / 2)),
                              rng, 1e-4);
  const auto ql = symmetric_eigen(a);
  const auto jac = jacobi_eigen(a);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(ql.values[static_cast<std::size_t>(i)],
                jac.values[static_cast<std::size_t>(i)], 1e-8)
        << "eigenvalue " << i;
  }
  // Eigenvalue-only path agrees too.
  const auto only = symmetric_eigenvalues(a);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(only[static_cast<std::size_t>(i)],
                ql.values[static_cast<std::size_t>(i)], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SizesAndSeeds, EigenCrossCheck,
                         ::testing::Combine(::testing::Values(1, 2, 3, 6, 11,
                                                              20, 33),
                                            ::testing::Values(1, 2, 3)));

TEST(Eigen, Reconstruction) {
  RandomStream rng(41);
  const Matrix a = random_psd(8, 8, rng);
  const auto eig = symmetric_eigen(a);
  Matrix recon(8, 8);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) {
      double acc = 0.0;
      for (std::size_t m = 0; m < 8; ++m)
        acc += eig.vectors(i, m) * eig.values[m] * eig.vectors(j, m);
      recon(i, j) = acc;
    }
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_NEAR(recon(i, j), a(i, j), 1e-9);
}

TEST(Eigen, VectorsOrthonormal) {
  RandomStream rng(42);
  const Matrix a = random_psd(7, 7, rng);
  const auto eig = symmetric_eigen(a);
  for (std::size_t p = 0; p < 7; ++p) {
    for (std::size_t q = 0; q < 7; ++q) {
      double dot = 0.0;
      for (std::size_t i = 0; i < 7; ++i)
        dot += eig.vectors(i, p) * eig.vectors(i, q);
      EXPECT_NEAR(dot, p == q ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Eigen, KnownSpectrum) {
  // diag(1, 2, 3) in a rotated basis.
  RandomStream rng(43);
  const std::vector<double> spectrum = {1.0, 2.0, 3.0};
  const Matrix a = kernel_with_spectrum(spectrum, rng);
  const auto eig = symmetric_eigen(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-9);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-9);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-9);
  EXPECT_NEAR(spectral_norm_symmetric(a), 3.0, 1e-9);
}

TEST(Eigen, HandlesZeroAndOneByOne) {
  const auto empty = symmetric_eigen(Matrix(0, 0));
  EXPECT_TRUE(empty.values.empty());
  Matrix one(1, 1);
  one(0, 0) = 5.0;
  const auto single = symmetric_eigen(one);
  EXPECT_DOUBLE_EQ(single.values[0], 5.0);
}

// ---- Bit identity against the textbook column-order tred2/tql2 ----

// Reference: textbook tred2 + tql2 (EISPACK / Numerical Recipes order) on a
// row-major matrix, walking columns in the Householder accumulation and in
// every QL rotation. The production solver walks rows with the same
// floating-point operations per element in the same order, so its output
// must be memcmp-equal to this, not merely close.
void reference_tred2(Matrix& z, std::vector<double>& d, std::vector<double>& e,
                     bool want_vectors) {
  const int n = static_cast<int>(z.rows());
  const auto at = [&z](int r, int c) -> double& {
    return z(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  };
  const auto ve = [](std::vector<double>& v, int i) -> double& {
    return v[static_cast<std::size_t>(i)];
  };
  for (int i = n - 1; i >= 1; --i) {
    const int l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (int k = 0; k <= l; ++k) scale += std::abs(at(i, k));
      if (scale == 0.0) {
        ve(e, i) = at(i, l);
      } else {
        for (int k = 0; k <= l; ++k) {
          at(i, k) /= scale;
          h += at(i, k) * at(i, k);
        }
        double f = at(i, l);
        double g = (f >= 0.0 ? -std::sqrt(h) : std::sqrt(h));
        ve(e, i) = scale * g;
        h -= f * g;
        at(i, l) = f - g;
        f = 0.0;
        for (int j = 0; j <= l; ++j) {
          at(j, i) = at(i, j) / h;
          g = 0.0;
          for (int k = 0; k <= j; ++k) g += at(j, k) * at(i, k);
          for (int k = j + 1; k <= l; ++k) g += at(k, j) * at(i, k);
          ve(e, j) = g / h;
          f += ve(e, j) * at(i, j);
        }
        const double hh = f / (h + h);
        for (int j = 0; j <= l; ++j) {
          f = at(i, j);
          g = ve(e, j) - hh * f;
          ve(e, j) = g;
          for (int k = 0; k <= j; ++k)
            at(j, k) -= f * ve(e, k) + g * at(i, k);
        }
      }
    } else {
      ve(e, i) = at(i, l);
    }
    ve(d, i) = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (int i = 0; i < n; ++i) {
    const int l = i - 1;
    if (want_vectors && ve(d, i) != 0.0) {
      for (int j = 0; j <= l; ++j) {
        double g = 0.0;
        for (int k = 0; k <= l; ++k) g += at(i, k) * at(k, j);
        for (int k = 0; k <= l; ++k) at(k, j) -= g * at(k, i);
      }
    }
    ve(d, i) = at(i, i);
    if (!want_vectors) continue;
    at(i, i) = 1.0;
    for (int j = 0; j <= l; ++j) at(j, i) = at(i, j) = 0.0;
  }
}

void reference_tql2(std::vector<double>& d, std::vector<double>& e, Matrix& z,
                    bool want_vectors) {
  const int n = static_cast<int>(d.size());
  const auto at = [&z](int r, int c) -> double& {
    return z(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  };
  const auto ve = [](std::vector<double>& v, int i) -> double& {
    return v[static_cast<std::size_t>(i)];
  };
  for (int i = 1; i < n; ++i) ve(e, i - 1) = ve(e, i);
  ve(e, n - 1) = 0.0;
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m = l;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::abs(ve(d, m)) + std::abs(ve(d, m + 1));
        if (std::abs(ve(e, m)) <= 1e-15 * dd) break;
      }
      if (m != l) {
        if (iter++ >= 64)
          throw std::runtime_error("reference_tql2: no convergence");
        double g = (ve(d, l + 1) - ve(d, l)) / (2.0 * ve(e, l));
        double r = std::hypot(g, 1.0);
        g = ve(d, m) - ve(d, l) + ve(e, l) / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int i = m - 1;
        for (; i >= l; --i) {
          double f = s * ve(e, i);
          const double b = c * ve(e, i);
          r = std::hypot(f, g);
          ve(e, i + 1) = r;
          if (r == 0.0) {
            ve(d, i + 1) -= p;
            ve(e, m) = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = ve(d, i + 1) - p;
          r = (ve(d, i) - g) * s + 2.0 * c * b;
          p = s * r;
          ve(d, i + 1) = g + p;
          g = c * r - b;
          if (!want_vectors) continue;
          for (int k = 0; k < n; ++k) {
            f = at(k, i + 1);
            at(k, i + 1) = s * at(k, i) + c * f;
            at(k, i) = c * at(k, i) - s * f;
          }
        }
        if (r == 0.0 && i >= l) continue;
        ve(d, l) -= p;
        ve(e, l) = g;
        ve(e, m) = 0.0;
      }
    } while (m != l);
  }
}

SymmetricEigen reference_eigen(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix z = a;
  if (n == 1) return {{a(0, 0)}, Matrix::identity(1)};
  std::vector<double> d(n, 0.0);
  std::vector<double> e(n, 0.0);
  reference_tred2(z, d, e, /*want_vectors=*/true);
  reference_tql2(d, e, z, /*want_vectors=*/true);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&d](std::size_t x, std::size_t y) { return d[x] < d[y]; });
  SymmetricEigen out{std::vector<double>(n), Matrix(n, n)};
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j]];
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = z(i, order[j]);
  }
  return out;
}

std::vector<double> reference_eigenvalues(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix z = a;
  if (n == 1) return {a(0, 0)};
  std::vector<double> d(n, 0.0);
  std::vector<double> e(n, 0.0);
  reference_tred2(z, d, e, /*want_vectors=*/false);
  reference_tql2(d, e, z, /*want_vectors=*/false);
  std::sort(d.begin(), d.end());
  return d;
}

bool same_bits(std::span<const double> x, std::span<const double> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

enum class Spectrum { kPsd, kRankDeficient, kDiagonal, kZero, kRepeated };

void PrintTo(Spectrum kind, std::ostream* os) {
  constexpr const char* kNames[] = {"psd", "rank_deficient", "diagonal",
                                    "zero", "repeated"};
  *os << kNames[static_cast<int>(kind)];
}

Matrix eigen_fixture(std::size_t n, Spectrum kind) {
  RandomStream rng(7000 + n * 8 + static_cast<std::size_t>(kind));
  switch (kind) {
    case Spectrum::kPsd:
      return random_psd(n, n, rng, 1e-4);
    case Spectrum::kRankDeficient:
      return random_psd(n, std::max<std::size_t>(1, n / 4), rng, 0.0);
    case Spectrum::kDiagonal: {
      std::vector<double> diag(n);
      for (auto& v : diag) v = rng.uniform() * 2.0;
      return Matrix::diagonal(std::span<const double>(diag));
    }
    case Spectrum::kZero:
      return Matrix(n, n);
    case Spectrum::kRepeated: {
      // Three eigenvalues, each with multiplicity ~n/3.
      std::vector<double> spectrum(n);
      for (std::size_t i = 0; i < n; ++i)
        spectrum[i] = static_cast<double>(i % 3) * 0.75;
      return kernel_with_spectrum(spectrum, rng);
    }
  }
  return Matrix(n, n);
}

class EigenRowOrder
    : public ::testing::TestWithParam<std::tuple<int, Spectrum>> {
 protected:
  Matrix input() const {
    const auto [n, kind] = GetParam();
    return eigen_fixture(static_cast<std::size_t>(n), kind);
  }
};

TEST_P(EigenRowOrder, BitIdenticalToColumnOrderReference) {
  const Matrix a = input();
  const auto want = reference_eigen(a);
  const auto got = symmetric_eigen(a);
  EXPECT_TRUE(same_bits(got.values, want.values));
  EXPECT_TRUE(same_bits(got.vectors.flat(), want.vectors.flat()));
  const auto values = symmetric_eigenvalues(a);
  EXPECT_TRUE(same_bits(values, reference_eigenvalues(a)));
  // The eigenvalue-only path yields the full path's spectrum too.
  EXPECT_TRUE(same_bits(values, got.values));
  double norm = 0.0;
  for (const double v : want.values) norm = std::max(norm, std::abs(v));
  EXPECT_EQ(spectral_norm_symmetric(a), norm);
}

TEST_P(EigenRowOrder, BitIdenticalAtEveryLinalgPoolSize) {
  const Matrix a = input();
  const auto serial = symmetric_eigen(a);
  const auto serial_values = symmetric_eigenvalues(a);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(threads);
    set_linalg_pool(&pool);
    const auto eig = symmetric_eigen(a);
    const auto values = symmetric_eigenvalues(a);
    set_linalg_pool(nullptr);
    EXPECT_TRUE(same_bits(eig.values, serial.values)) << threads << " threads";
    EXPECT_TRUE(same_bits(eig.vectors.flat(), serial.vectors.flat()))
        << threads << " threads";
    EXPECT_TRUE(same_bits(values, serial_values)) << threads << " threads";
  }
}

TEST_P(EigenRowOrder, ReconstructsWithOrthonormalVectors) {
  const Matrix a = input();
  const std::size_t n = a.rows();
  const auto eig = symmetric_eigen(a);
  Matrix scaled = eig.vectors;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t m = 0; m < n; ++m) scaled(i, m) *= eig.values[m];
  const Matrix recon = multiply_transposed_b(scaled, eig.vectors);
  const Matrix vt = eig.vectors.transpose();
  const Matrix gram = multiply_transposed_b(vt, vt);
  const double unit_tol = 1e-11 * static_cast<double>(n);
  const double tol = unit_tol * std::max(1.0, a.max_abs());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_NEAR(recon(i, j), a(i, j), tol) << "(" << i << "," << j << ")";
      ASSERT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, unit_tol)
          << "(" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSpectra, EigenRowOrder,
    ::testing::Combine(::testing::Values(1, 2, 3, 17, 64, 128, 129, 256),
                       ::testing::Values(Spectrum::kPsd,
                                         Spectrum::kRankDeficient,
                                         Spectrum::kDiagonal, Spectrum::kZero,
                                         Spectrum::kRepeated)));

// ---- Elementary symmetric polynomials ----

double brute_esp(std::span<const double> lambda, int j) {
  double total = 0.0;
  for_each_subset(static_cast<int>(lambda.size()), j,
                  [&](std::span<const int> subset) {
                    double prod = 1.0;
                    for (const int i : subset)
                      prod *= lambda[static_cast<std::size_t>(i)];
                    total += prod;
                  });
  return total;
}

class EspTest : public ::testing::TestWithParam<int> {};

TEST_P(EspTest, MatchesBruteForce) {
  RandomStream rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> lambda(7);
  for (auto& v : lambda) v = rng.uniform() * 3.0;
  lambda[2] = 0.0;  // exercise zero handling
  const auto log_e = log_esp(lambda, 7);
  for (int j = 0; j <= 7; ++j) {
    const double brute = brute_esp(lambda, j);
    EXPECT_NEAR(std::exp(log_e[static_cast<std::size_t>(j)]), brute,
                1e-9 * std::max(1.0, brute))
        << "e_" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EspTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(Esp, LeaveOneOutIdentity) {
  // e_j(lambda) = e_j(lambda \ m) + lambda_m e_{j-1}(lambda \ m).
  RandomStream rng(51);
  std::vector<double> lambda(9);
  for (auto& v : lambda) v = rng.uniform() * 2.0;
  const LogEspTable table(lambda, 5);
  for (std::size_t m = 0; m < 9; ++m) {
    for (std::size_t j = 1; j <= 5; ++j) {
      const double lhs = std::exp(table.log_e(j));
      const double rhs =
          std::exp(table.log_e_without(m, j)) +
          lambda[m] * std::exp(table.log_e_without(m, j - 1));
      EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, lhs));
    }
  }
}

TEST(Esp, LargeValuesStayInLogDomain) {
  // 300 eigenvalues of size ~1e10: e_150 overflows double massively but
  // must be finite in log domain.
  std::vector<double> lambda(300, 1e10);
  const auto log_e = log_esp(lambda, 150);
  EXPECT_TRUE(std::isfinite(log_e[150]));
  // e_150 = C(300,150) * 1e1500.
  EXPECT_NEAR(log_e[150], log_binomial(300, 150) + 150.0 * std::log(1e10),
              1e-6 * log_e[150]);
}

TEST(NewtonEsp, MatchesLogEspTableOnRandomSpectra) {
  RandomStream rng(52);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 5 + static_cast<std::size_t>(rng.uniform_index(8));
    const std::size_t jmax = std::min<std::size_t>(n, 6);
    std::vector<double> lambda(n);
    for (auto& v : lambda) v = rng.uniform() * 2.0 + 0.05;
    std::vector<double> traces(jmax, 0.0);
    for (const double lam : lambda) {
      double p = 1.0;
      for (std::size_t v = 1; v <= jmax; ++v) {
        p *= lam;
        traces[v - 1] += p;
      }
    }
    const NewtonEsp ne = esp_from_power_traces(traces, jmax);
    const LogEspTable table(lambda, jmax);
    for (std::size_t j = 0; j <= jmax; ++j) {
      ASSERT_TRUE(ne.well_conditioned(j, kEspCancelGuard))
          << "trial " << trial << " j=" << j;
      EXPECT_NEAR(std::log(ne.e[j]), table.log_e(j), 1e-12)
          << "trial " << trial << " j=" << j;
    }
  }
}

TEST(NewtonEsp, CancellationMonitorFlagsNearRankDeficientSpectra) {
  // A spectrum whose e_4 is ~1e-12 of the |term| mass: the alternating
  // Newton sum cancels catastrophically and well_conditioned must say so
  // (this is what routes the oracle fast paths to the spectral fallback).
  const std::vector<double> lambda = {1.0, 1.0, 1.0, 1e-12};
  std::vector<double> traces(4, 0.0);
  for (const double lam : lambda) {
    double p = 1.0;
    for (std::size_t v = 1; v <= 4; ++v) {
      p *= lam;
      traces[v - 1] += p;
    }
  }
  const NewtonEsp ne = esp_from_power_traces(traces, 4);
  EXPECT_TRUE(ne.well_conditioned(3, kEspCancelGuard));
  EXPECT_FALSE(ne.well_conditioned(4, kEspCancelGuard));
}

// ---- Block moment probe (factor-native Schur downdates) ----

// Direct power traces / diagonal moments of mhat = m / scale.
void direct_moments(const Matrix& m, double scale, std::size_t vmax,
                    std::vector<double>& traces, std::vector<double>& diag) {
  const std::size_t n = m.rows();
  Matrix mhat = m;
  mhat *= 1.0 / scale;
  Matrix power = Matrix::identity(n);
  traces.assign(vmax, 0.0);
  diag.assign(vmax * n, 0.0);
  for (std::size_t v = 1; v <= vmax; ++v) {
    power = power * mhat;
    traces[v - 1] = power.trace();
    for (std::size_t i = 0; i < n; ++i) diag[(v - 1) * n + i] = power(i, i);
  }
}

TEST(BlockMomentProbe, DowndatedMomentsMatchSchurComplement) {
  RandomStream rng(53);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(rng.uniform_index(5));
    const Matrix m = random_psd(n, n, rng, 1e-2);
    const std::size_t vmax = 4;
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) scale = std::max(scale, m(i, i));
    const std::vector<int> elim = {1, static_cast<int>(n - 2)};
    IncrementalCholesky chol(elim.size());
    std::vector<double> row;
    for (std::size_t r = 0; r < elim.size(); ++r) {
      row.resize(r + 1);
      for (std::size_t c = 0; c <= r; ++c)
        row[c] = m(static_cast<std::size_t>(elim[r]),
                   static_cast<std::size_t>(elim[c]));
      ASSERT_TRUE(chol.append(row));
    }
    std::vector<double> base_traces;
    std::vector<double> base_diag;
    direct_moments(m, scale, vmax, base_traces, base_diag);
    BlockMomentProbe probe;
    probe.build(m, scale, elim, chol, vmax);
    std::vector<double> traces;
    std::vector<double> traces_abs;
    std::vector<double> diag;
    std::vector<double> diag_abs;
    probe.downdated_traces(base_traces, base_traces, vmax, traces, traces_abs);
    probe.downdated_diag(base_diag, base_diag, vmax, diag, diag_abs);
    // Reference: moments of the Schur complement, embedded in the full
    // index set (eliminated rows contribute exact zeros).
    const auto keep = complement_indices(n, elim);
    const auto schur = schur_complement(m, keep, elim, /*symmetric=*/true);
    std::vector<double> want_traces;
    std::vector<double> want_diag_reduced;
    direct_moments(schur.reduced, scale, vmax, want_traces,
                   want_diag_reduced);
    for (std::size_t v = 1; v <= vmax; ++v) {
      EXPECT_NEAR(traces[v - 1], want_traces[v - 1],
                  1e-10 * std::max(1.0, traces_abs[v - 1]))
          << "trial " << trial << " v=" << v;
      for (std::size_t j = 0; j < keep.size(); ++j) {
        const auto ki = static_cast<std::size_t>(keep[j]);
        EXPECT_NEAR(diag[(v - 1) * n + ki],
                    want_diag_reduced[(v - 1) * keep.size() + j],
                    1e-10 * std::max(1.0, diag_abs[(v - 1) * n + ki]))
            << "trial " << trial << " v=" << v << " i=" << ki;
      }
      // Eliminated rows land at zero up to monitored drift.
      for (const int e : elim) {
        const auto ei = static_cast<std::size_t>(e);
        EXPECT_NEAR(diag[(v - 1) * n + ei], 0.0,
                    1e-10 * std::max(1.0, diag_abs[(v - 1) * n + ei]));
      }
    }
  }
}

// ---- Characteristic polynomial ----

double brute_minor_sum(const Matrix& m, int j) {
  double total = 0.0;
  for_each_subset(static_cast<int>(m.rows()), j,
                  [&](std::span<const int> subset) {
                    total += det_small(m.principal(subset));
                  });
  return total;
}

class CharPolyTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(CharPolyTest, MatchesBruteForceMinorSums) {
  const auto [seed, symmetric] = GetParam();
  RandomStream rng(static_cast<std::uint64_t>(seed) + 100);
  const Matrix m = symmetric ? random_psd(6, 6, rng, 1e-3)
                             : random_npsd(6, rng, 0.7);
  for (std::size_t jstar = 1; jstar <= 6; ++jstar) {
    const auto coeffs = charpoly_log_coeffs(m, jstar);
    const double brute = brute_minor_sum(m, static_cast<int>(jstar));
    const double got = coeffs[jstar].sign * std::exp(coeffs[jstar].log_abs);
    EXPECT_NEAR(got, brute, 1e-7 * std::max(1.0, std::abs(brute)))
        << "coefficient " << jstar;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndSymmetry, CharPolyTest,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Bool()));

TEST(CharPoly, NewtonIdentitiesAgree) {
  RandomStream rng(61);
  const Matrix m = random_psd(5, 5, rng, 1e-3);
  const auto newton = charpoly_newton(m, 5);
  const auto lambda = symmetric_eigenvalues(m);
  const auto log_e = log_esp(lambda, 5);
  for (std::size_t j = 0; j <= 5; ++j) {
    EXPECT_NEAR(newton[j], std::exp(log_e[j]),
                1e-8 * std::max(1.0, newton[j]));
  }
}

TEST(CharPoly, SaddleRadiusTargetsExpectedSize) {
  RandomStream rng(62);
  const Matrix m = random_psd(12, 12, rng, 1e-2);
  const double rho = saddle_point_radius(m, 4.0);
  // Expected size at rho should be ~4: tr(rho M (I + rho M)^{-1}).
  Matrix a = m * rho;
  for (std::size_t i = 0; i < 12; ++i) a(i, i) += 1.0;
  const Matrix inv = lu_factor(a).inverse();
  double expected = 12.0;
  for (std::size_t i = 0; i < 12; ++i) expected -= inv(i, i);
  EXPECT_NEAR(expected, 4.0, 0.05);
}

TEST(CharPoly, ZeroMatrixCoefficients) {
  const Matrix zero(4, 4);
  const auto coeffs = charpoly_log_coeffs(zero, 4);
  EXPECT_EQ(coeffs[0].sign, 1);
  EXPECT_NEAR(coeffs[0].log_abs, 0.0, 1e-9);
  for (std::size_t j = 1; j <= 4; ++j) EXPECT_EQ(coeffs[j].sign, 0);
}

}  // namespace
}  // namespace pardpp
