#include "linalg/symmetric_eigen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "util/stopwatch.h"

namespace slampred {
namespace {

// The row kernels below step two lanes at a time: at -O2 GCC only
// vectorizes straight-line pairs (SLP), not loops of unknown length, so
// this is what turns them into packed SSE2. Per element the arithmetic
// is the same as the one-lane loop.

// y += a·x over n entries.
void Axpy(double a, const double* x, double* y, std::size_t n) {
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const double x0 = x[k];
    const double x1 = x[k + 1];
    y[k] += a * x0;
    y[k + 1] += a * x1;
  }
  if (k < n) y[k] += a * x[k];
}

// y -= a·x + b·z over n entries: row j of the rank-2 update
// A' -= u qᵀ + q uᵀ. Entries (j, k) and (k, j) round identically, so A'
// stays exactly symmetric.
void SubtractRank2Row(double a, const double* x, double b, const double* z,
                      double* y, std::size_t n) {
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const double x0 = x[k];
    const double x1 = x[k + 1];
    const double z0 = z[k];
    const double z1 = z[k + 1];
    y[k] -= a * x0 + b * z0;
    y[k + 1] -= a * x1 + b * z1;
  }
  if (k < n) y[k] -= a * x[k] + b * z[k];
}

// One Givens rotation of a QL sweep on a row pair of Qᵀ: `upper` is the
// untouched row i, `carry` the running row i+1. Writes the final row
// i+1 to `lower` and leaves the rotated row i in `carry`.
void RotateRowPair(double c, double s, const double* upper, double* lower,
                   double* carry, std::size_t n) {
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const double x0 = upper[k];
    const double x1 = upper[k + 1];
    const double t0 = carry[k];
    const double t1 = carry[k + 1];
    lower[k] = s * x0 + c * t0;
    lower[k + 1] = s * x1 + c * t1;
    carry[k] = c * x0 - s * t0;
    carry[k + 1] = c * x1 - s * t1;
  }
  if (k < n) {
    const double x = upper[k];
    const double t = carry[k];
    lower[k] = s * x + c * t;
    carry[k] = c * x - s * t;
  }
}

// Householder reduction of the symmetric n×n row-major matrix `a` to
// tridiagonal form T = Qᵀ A Q (EISPACK tred2, reorganised so every inner
// loop is a row axpy). On return d holds T's diagonal, e[i] its
// subdiagonal T(i, i-1) with e[0] = 0, and `qt` holds Qᵀ.
//
// Step i (descending) annihilates row i left of the subdiagonal with
// P = I - u uᵀ/h, u stored in place of that row segment. The leading
// i×i block A' is kept fully symmetric, so A'u is a sum of its rows
// scaled by u, and the update A' -= u qᵀ + q uᵀ runs row by row.
void Tridiagonalize(std::vector<double>& a, std::size_t n,
                    std::vector<double>& d, std::vector<double>& e,
                    std::vector<double>& qt) {
  std::vector<double> h_of(n, 0.0);
  std::vector<double> p(n);
  for (std::size_t i = n; i-- > 1;) {
    double* u = &a[i * n];
    double scale = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::fabs(u[k]);
    if (i == 1 || scale == 0.0) {
      e[i] = u[i - 1];
      continue;
    }
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) {
      u[k] /= scale;
      h += u[k] * u[k];
    }
    const double f = u[i - 1];
    const double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
    e[i] = scale * g;
    h -= f * g;
    u[i - 1] = f - g;
    h_of[i] = h;

    // p = A'u / h, then q = p - (uᵀp / 2h) u, kept in p.
    std::fill_n(p.begin(), i, 0.0);
    for (std::size_t k = 0; k < i; ++k) Axpy(u[k] / h, &a[k * n], &p[0], i);
    double up = 0.0;
    for (std::size_t j = 0; j < i; ++j) up += p[j] * u[j];
    const double half_k = up / (h + h);
    for (std::size_t j = 0; j < i; ++j) p[j] -= half_k * u[j];
    for (std::size_t j = 0; j < i; ++j) {
      SubtractRank2Row(u[j], &p[0], p[j], u, &a[j * n], i);
    }
  }
  for (std::size_t i = 0; i < n; ++i) d[i] = a[i * n + i];
  e[0] = 0.0;

  // Q = P_{n-1} ⋯ P₂ P₁, applied to I from P₁ up. Before step i only the
  // leading (i-1)×(i-1) block differs from I, so P_i touches the leading
  // i×i block: g = uᵀQ' is a sum of rows, then row k -= (u_k/h) g. Q is
  // built in `qt` and transposed in place at the end.
  std::fill(qt.begin(), qt.end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) qt[i * n + i] = 1.0;
  for (std::size_t i = 1; i < n; ++i) {
    if (h_of[i] == 0.0) continue;
    const double* u = &a[i * n];
    std::fill_n(p.begin(), i, 0.0);
    for (std::size_t k = 0; k < i; ++k) Axpy(u[k], &qt[k * n], &p[0], i);
    for (std::size_t k = 0; k < i; ++k) {
      Axpy(-u[k] / h_of[i], &p[0], &qt[k * n], i);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      std::swap(qt[i * n + j], qt[j * n + i]);
    }
  }
}

// Implicit-shift QL on the tridiagonal (d, e) from Tridiagonalize
// (EISPACK tql2). A sweep's Givens rotations act on adjacent columns of
// Q, i.e. adjacent contiguous rows of `qt`; they are recorded and then
// applied in one pass that carries the running row down, so each row is
// read and written once per sweep. On success d holds the (unsorted)
// eigenvalues and row j of `qt` the eigenvector of d[j].
Status QlIterate(std::size_t n, int max_iterations, std::vector<double>& d,
                 std::vector<double>& e, std::vector<double>& qt) {
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  constexpr double kEps = std::numeric_limits<double>::epsilon();
  std::vector<double> cos_of(n);
  std::vector<double> sin_of(n);
  std::vector<double> carry(n);
  double shift_sum = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    std::size_t m = l;
    while (m + 1 < n && std::fabs(e[m]) > kEps * tst1) ++m;

    int iterations = 0;
    while (m > l && std::fabs(e[l]) > kEps * tst1) {
      if (iterations++ >= max_iterations) {
        return Status::NotConverged(
            "QL eigen iteration did not converge within the cap");
      }
      // Shift from the leading 2×2 block.
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = std::hypot(p, 1.0);
      if (p < 0.0) r = -r;
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
      shift_sum += h;

      // Chase the bulge from m-1 down to l.
      p = d[m];
      double c = 1.0;
      double c2 = 1.0;
      double c3 = 1.0;
      const double el1 = e[l + 1];
      double s = 0.0;
      double s2 = 0.0;
      for (std::size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = std::hypot(p, e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        cos_of[i] = c;
        sin_of[i] = s;
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;

      std::copy_n(&qt[m * n], n, carry.begin());
      for (std::size_t i = m; i-- > l;) {
        RotateRowPair(cos_of[i], sin_of[i], &qt[i * n], &qt[(i + 1) * n],
                      &carry[0], n);
      }
      std::copy_n(carry.begin(), n, &qt[l * n]);
    }
    d[l] += shift_sum;
    e[l] = 0.0;
  }
  return Status::OK();
}

}  // namespace

Matrix SymmetricEigenResult::Reconstruct() const {
  const std::size_t n = eigenvalues.size();
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        sum += eigenvectors(i, k) * eigenvalues[k] * eigenvectors(j, k);
      }
      out(i, j) = sum;
    }
  }
  return out;
}

Result<SymmetricEigenResult> ComputeSymmetricEigen(
    const Matrix& a, const SymmetricEigenOptions& options) {
  SvdTimerScope svd_timer;
  if (a.empty()) {
    return Status::InvalidArgument("eigen of empty matrix");
  }
  if (!a.IsSquare()) {
    return Status::InvalidArgument("eigen of non-square matrix");
  }
  // NaN slips through the symmetry test below and would come out of the
  // QL loop as NaN eigenvalues with an OK status.
  for (double v : a.data()) {
    if (!std::isfinite(v)) {
      return Status::NumericalError("eigen input contains non-finite entries");
    }
  }
  if (!a.IsSymmetric(1e-8 * std::max(1.0, a.MaxAbs()))) {
    return Status::InvalidArgument("eigen of asymmetric matrix");
  }

  const std::size_t n = a.rows();
  Matrix work = a.Symmetrized();  // Wipe out tiny asymmetries up front.
  std::vector<double> d(n);
  std::vector<double> e(n);
  std::vector<double> qt(n * n);
  Tridiagonalize(work.data(), n, d, e, qt);
  const Status ql = QlIterate(n, options.max_iterations, d, e, qt);
  if (!ql.ok()) return ql;
  for (double lambda : d) {
    if (!std::isfinite(lambda)) {
      return Status::NumericalError("eigen iteration produced non-finite "
                                    "eigenvalues");
    }
  }

  // Sort eigenpairs ascending by eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] < d[y]; });

  SymmetricEigenResult res;
  res.eigenvalues = Vector(n);
  res.eigenvectors = Matrix(n, n);
  for (std::size_t jj = 0; jj < n; ++jj) {
    const std::size_t j = order[jj];
    res.eigenvalues[jj] = d[j];
    const double* vec = &qt[j * n];
    for (std::size_t i = 0; i < n; ++i) res.eigenvectors(i, jj) = vec[i];
  }
  return res;
}

}  // namespace slampred
