#include "la/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/annotate.hpp"
#include "common/check.hpp"
#include "la/vector_ops.hpp"

namespace sa::la {

namespace {

/// In-place cyclic Jacobi sweeps; on return the diagonal of `a` holds the
/// eigenvalues (unsorted).
void jacobi_sweeps(DenseMatrix& a, double tolerance,
                   std::size_t max_sweeps) {
  const std::size_t n = a.rows();
  const double scale_ref = std::max(a.frobenius_norm(), 1e-300);
  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off += a(p, q) * a(p, q);
    if (std::sqrt(off) <= tolerance * scale_ref) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= tolerance * scale_ref / (n * n)) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0)
                             ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                             : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        // Apply the rotation J(p, q, θ) on both sides: A := JᵀAJ.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
      }
    }
  }
}

/// Reduces the symmetric matrix in `t` to tridiagonal form T with n−2
/// Householder reflections (Golub & Van Loan, Algorithm 8.3.1), reading
/// and writing only the upper triangle and not accumulating Q.  On return
/// T sits in the lower band: t(i, i) = d_i and t(i + 1, i) = e_i², the
/// squared off-diagonal (all the Sturm count needs).  `w` holds each
/// reflection's update vector and must have n entries.
void tridiagonalize(DenseMatrix& t, std::span<double> w) {
  const std::size_t n = t.rows();
  for (std::size_t k = 0; k + 1 < n; ++k) {
    // x = t(k, k+1:n) is the part of row k to reflect onto ‖x‖·e_{k+1}.
    const std::size_t r = k + 1;
    const std::span<double> x = t.row(k);
    double sigma = 0.0;
    for (std::size_t j = r + 1; j < n; ++j) sigma += x[j] * x[j];
    if (sigma == 0.0) {  // row already tridiagonal (always so for k = n−2)
      t(r, k) = x[r] * x[r];
      continue;
    }
    // P = I − β·v·vᵀ with v(k+1) = 1 (GVL Algorithm 5.1.1); v overwrites
    // x, whose reflected image ‖x‖·e_{k+1} gives e_k.
    const double x0 = x[r];
    const double norm = std::sqrt(x0 * x0 + sigma);
    const double v0 = x0 <= 0.0 ? x0 - norm : -sigma / (x0 + norm);
    const double beta = 2.0 * v0 * v0 / (sigma + v0 * v0);
    x[r] = 1.0;
    for (std::size_t j = r + 1; j < n; ++j) x[j] /= v0;
    t(r, k) = norm * norm;

    // p = β·A₂₂·v from the trailing block's upper triangle ...
    for (std::size_t i = r; i < n; ++i) w[i] = 0.0;
    for (std::size_t i = r; i < n; ++i) {
      const std::span<const double> row = t.row(i);
      double acc = row[i] * x[i];
      for (std::size_t j = i + 1; j < n; ++j) {
        acc += row[j] * x[j];
        w[j] += row[j] * x[i];
      }
      w[i] += acc;
    }
    double pv = 0.0;
    for (std::size_t i = r; i < n; ++i) {
      w[i] *= beta;
      pv += w[i] * x[i];
    }
    // ... w = p − (β·pᵀv/2)·v, and A₂₂ := P·A₂₂·P = A₂₂ − v·wᵀ − w·vᵀ.
    const double c = 0.5 * beta * pv;
    for (std::size_t i = r; i < n; ++i) w[i] -= c * x[i];
    for (std::size_t i = r; i < n; ++i) {
      const std::span<double> row = t.row(i);
      for (std::size_t j = i; j < n; ++j)
        row[j] -= x[i] * w[j] + w[i] * x[j];
    }
  }
}

/// Number of eigenvalues of T (lower band of `t`, see tridiagonalize)
/// below x: the negative pivots of the LDLᵀ factorization of T − x·I
/// (Sturm count, GVL §8.4.1).  A pivot smaller than `pivmin` in magnitude
/// is replaced by −pivmin, as in LAPACK's dstebz, so the recurrence never
/// divides by zero and e_i²/q cannot overflow.
std::size_t count_below(const DenseMatrix& t, double x, double pivmin) {
  const std::size_t n = t.rows();
  double q = t(0, 0) - x;
  if (std::abs(q) < pivmin) q = -pivmin;
  std::size_t count = q < 0.0 ? 1 : 0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::span<const double> row = t.row(i);
    q = (row[i] - x) - row[i - 1] / q;
    if (std::abs(q) < pivmin) q = -pivmin;
    count += q < 0.0 ? 1 : 0;
  }
  return count;
}

}  // namespace

double largest_eigenvalue_psd(const DenseMatrix& a, EigenScratch& scratch) {
  SA_STEADY_STATE;
  SA_CHECK(a.rows() == a.cols(), "largest_eigenvalue_psd: matrix not square");
  const std::size_t n = a.rows();
  if (n == 0) return 0.0;

  // Both buffers keep their capacity: once sized for n, no call of that
  // size or smaller reallocates.
  DenseMatrix& t = scratch.work;
  t.reshape(n, n);
  copy(a.data(), t.data());
  // sa-lint: allow(alloc): grow-only, reserve(n) or the first solve sizes it
  scratch.update.resize(n);
  tridiagonalize(t, scratch.update);

  // Bracket λ_max(T): it is at least every diagonal entry (a Rayleigh
  // quotient) and at most the largest Gershgorin row bound d_i + |e_{i−1}|
  // + |e_i|.  The bracket is at most 2·max|e_i| ≤ 2·λ_max wide for a PSD
  // T, so bisection reaches adjacent doubles within kEigenBisectionSteps
  // halvings.
  double lo = t(0, 0);
  double hi = t(0, 0);
  double max_e2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e_left = i > 0 ? t(i, i - 1) : 0.0;
    const double e_right = i + 1 < n ? t(i + 1, i) : 0.0;
    lo = std::max(lo, t(i, i));
    hi = std::max(hi, t(i, i) + std::sqrt(e_left) + std::sqrt(e_right));
    max_e2 = std::max(max_e2, e_right);
  }
  const double pivmin =
      std::numeric_limits<double>::min() * std::max(1.0, max_e2);
  for (std::size_t step = 0; step < kEigenBisectionSteps; ++step) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;  // lo and hi are adjacent doubles
    if (count_below(t, mid, pivmin) < n) {
      lo = mid;  // some eigenvalue is ≥ mid
    } else {
      hi = mid;
    }
  }
  return lo;
}

double largest_eigenvalue_psd(const DenseMatrix& a) {
  EigenScratch scratch;
  return largest_eigenvalue_psd(a, scratch);
}

std::vector<double> jacobi_eigenvalues(DenseMatrix a, double tolerance,
                                       std::size_t max_sweeps) {
  SA_CHECK(a.rows() == a.cols(), "jacobi_eigenvalues: matrix not square");
  const std::size_t n = a.rows();
  if (n == 0) return {};
  jacobi_sweeps(a, tolerance, max_sweeps);
  std::vector<double> eig(n);
  for (std::size_t i = 0; i < n; ++i) eig[i] = a(i, i);
  std::sort(eig.begin(), eig.end());
  return eig;
}

double largest_singular_value(const DenseMatrix& a) {
  if (a.rows() == 0 || a.cols() == 0) return 0.0;
  // Work with the smaller of AᵀA and AAᵀ.
  const DenseMatrix g = (a.cols() <= a.rows())
                            ? gram_upper(a)
                            : gram_upper(a.transposed());
  return std::sqrt(std::max(0.0, largest_eigenvalue_psd(g)));
}

double smallest_nonzero_singular_value(const DenseMatrix& a,
                                       double rank_tol) {
  if (a.rows() == 0 || a.cols() == 0) return 0.0;
  const DenseMatrix g = (a.cols() <= a.rows())
                            ? gram_upper(a)
                            : gram_upper(a.transposed());
  std::vector<double> eig = jacobi_eigenvalues(g);
  const double sigma_max_sq = std::max(0.0, eig.back());
  const double cutoff = rank_tol * rank_tol * sigma_max_sq;
  for (double e : eig) {
    if (e > cutoff) return std::sqrt(e);
  }
  return 0.0;
}

}  // namespace sa::la
