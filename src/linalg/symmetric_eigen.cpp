#include "linalg/symmetric_eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/error.h"

namespace pardpp {

namespace {

// Householder reduction of a symmetric matrix to tridiagonal form.
// On exit `z` holds the accumulated orthogonal transformation, `d` the
// diagonal and `e` the subdiagonal (e[0] unused). Classic tred2. With
// `want_vectors == false` the transformation is not accumulated.
// Every O(n^3) loop walks rows of the row-major `z`; where the textbook
// form runs down a column, its sums become row axpys in the same k order,
// so each element sees the same floating-point operations in the same
// order and the output is bit-identical to the textbook form's.
void tred2(Matrix& z, std::vector<double>& d, std::vector<double>& e,
           bool want_vectors = true) {
  const std::size_t n = z.rows();
  const auto row = [&z](std::size_t r) { return z.row(r).data(); };
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double* zi = row(i);
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(zi[k]);
      if (scale == 0.0) {
        e[i] = zi[l];
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          zi[k] /= scale;
          h += zi[k] * zi[k];
        }
        double f = zi[l];
        double g = (f >= 0.0 ? -std::sqrt(h) : std::sqrt(h));
        e[i] = scale * g;
        h -= f * g;
        zi[l] = f - g;
        // e[j] = (A u)_j / h: the k <= j half is a dot along row j, the
        // k > j half is added by the row sweep over k that follows.
        for (std::size_t j = 0; j <= l; ++j) {
          z(j, i) = zi[j] / h;
          const double* zj = row(j);
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += zj[k] * zi[k];
          e[j] = g;
        }
        for (std::size_t k = 1; k <= l; ++k) {
          const double* zk = row(k);
          const double uk = zi[k];
          for (std::size_t j = 0; j < k; ++j) e[j] += zk[j] * uk;
        }
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          e[j] /= h;
          f += e[j] * zi[j];
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = zi[j];
          g = e[j] - hh * f;
          e[j] = g;
          double* zj = row(j);
          for (std::size_t k = 0; k <= j; ++k) zj[k] -= f * e[k] + g * zi[k];
        }
      }
    } else {
      e[i] = zi[l];
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  if (!want_vectors) {
    for (std::size_t i = 0; i < n; ++i) d[i] = z(i, i);
    return;
  }
  // Applying Householder transformation i to the accumulated rows 0..i-1:
  // w = u^T Z as row axpys in k order, then Z[k,:] -= w * z(k,i), where
  // z(k,i) = u_k / h was stored by the reduction. This is the O(n^3)
  // term of the reduction.
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    double* zi = row(i);
    if (d[i] != 0.0) {
      std::fill(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(i), 0.0);
      for (std::size_t k = 0; k < i; ++k) {
        const double* zk = row(k);
        const double uk = zi[k];
        for (std::size_t j = 0; j < i; ++j) w[j] += uk * zk[j];
      }
      for (std::size_t k = 0; k < i; ++k) {
        double* zk = row(k);
        const double vk = zk[i];
        for (std::size_t j = 0; j < i; ++j) zk[j] -= w[j] * vk;
      }
    }
    d[i] = zi[i];
    zi[i] = 1.0;
    for (std::size_t j = 0; j < i; ++j) {
      z(j, i) = 0.0;
      zi[j] = 0.0;
    }
  }
}

// Implicit-shift QL iteration on a tridiagonal matrix, accumulating the
// rotations into `zt` when `want_vectors`. Classic tqli on the transpose:
// row j of `zt` is eigenvector j, so each rotation combines two rows.
void tql2(std::vector<double>& dv, std::vector<double>& ev, Matrix& zt,
          bool want_vectors = true) {
  const int n = static_cast<int>(dv.size());
  double* const d = dv.data();
  double* const e = ev.data();
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m = l;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-15 * dd) break;
      }
      if (m != l) {
        check_numeric(iter++ < 64, "tql2: QL iteration failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int i = m - 1;
        for (; i >= l; --i) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          if (want_vectors) {
            double* zi = zt.row(static_cast<std::size_t>(i)).data();
            double* zi1 = zt.row(static_cast<std::size_t>(i + 1)).data();
            for (int k = 0; k < n; ++k) {
              const double t = zi1[k];
              zi1[k] = s * zi[k] + c * t;
              zi[k] = c * zi[k] - s * t;
            }
          }
        }
        if (r == 0.0 && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

// Sorts eigenpairs ascending by eigenvalue; row j of `zt` is the
// eigenvector of d[j].
SymmetricEigen sorted(std::vector<double> d, const Matrix& zt) {
  const std::size_t n = d.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&d](std::size_t a, std::size_t b) { return d[a] < d[b]; });
  SymmetricEigen out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j]];
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = zt(order[j], i);
  }
  return out;
}

}  // namespace

SymmetricEigen symmetric_eigen(const Matrix& a) {
  check_arg(a.square(), "symmetric_eigen: matrix not square");
  const std::size_t n = a.rows();
  if (n == 0) return {{}, Matrix(0, 0)};
  Matrix z = a;
  std::vector<double> d(n, 0.0);
  std::vector<double> e(n, 0.0);
  if (n == 1) {
    d[0] = a(0, 0);
    z(0, 0) = 1.0;
    return {std::move(d), std::move(z)};
  }
  tred2(z, d, e);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) std::swap(z(i, j), z(j, i));
  tql2(d, e, z);
  return sorted(std::move(d), z);
}

SymmetricEigen jacobi_eigen(const Matrix& a, int max_sweeps, double tol) {
  check_arg(a.square(), "jacobi_eigen: matrix not square");
  const std::size_t n = a.rows();
  Matrix m = a;
  Matrix v = Matrix::identity(n);
  const double scale = std::max(a.max_abs(), 1e-300);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off += m(p, q) * m(p, q);
    if (std::sqrt(off) <= tol * scale * static_cast<double>(n)) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::abs(apq) <= 1e-300) continue;
        const double theta = (m(q, q) - m(p, p)) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::abs(theta) + std::sqrt(theta * theta + 1.0)), theta);
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k);
          const double mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = m(i, i);
  return sorted(std::move(d), v.transpose());
}

std::vector<double> symmetric_eigenvalues(const Matrix& a) {
  check_arg(a.square(), "symmetric_eigenvalues: matrix not square");
  const std::size_t n = a.rows();
  if (n == 0) return {};
  Matrix z = a;
  std::vector<double> d(n, 0.0);
  std::vector<double> e(n, 0.0);
  if (n == 1) {
    d[0] = a(0, 0);
    return d;
  }
  tred2(z, d, e, /*want_vectors=*/false);
  tql2(d, e, z, /*want_vectors=*/false);
  std::sort(d.begin(), d.end());
  return d;
}

double spectral_norm_symmetric(const Matrix& a) {
  double best = 0.0;
  for (const double v : symmetric_eigenvalues(a))
    best = std::max(best, std::abs(v));
  return best;
}

}  // namespace pardpp
