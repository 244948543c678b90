// Small symmetric eigensolvers.
//
// The BCD solvers need the largest eigenvalue of the µ×µ sampled Gram
// matrix every iteration (the optimal block Lipschitz constant, line 10 of
// the paper's Algorithm 1).  µ is small (1–32 in the paper), so simple
// dense methods are appropriate:
//   * Householder tridiagonalization followed by Sturm-count bisection for
//     the largest eigenvalue (used inside the solvers): a fixed amount of
//     work, ~4µ³/3 flops plus a bounded number of O(µ) Sturm counts, with
//     no iteration whose length depends on the spectrum, and
//   * cyclic Jacobi for the full spectrum (used by λ-selection helpers and
//     as the tests' reference).
#pragma once

#include <cstddef>
#include <vector>

#include "la/dense.hpp"

namespace sa::la {

/// Upper bound on the bisection steps of largest_eigenvalue_psd.  The
/// starting bracket is narrower than 2·λ_max for a PSD matrix, so 64
/// halvings always reach adjacent doubles; the search stops earlier once
/// the midpoint no longer splits the bracket.
inline constexpr std::size_t kEigenBisectionSteps = 64;

/// Grow-only work storage for the allocation-free eigensolver entry point
/// below.  One instance per solver, reused across every µ×µ solve.
struct EigenScratch {
  DenseMatrix work;            ///< the matrix, reduced to tridiagonal T
  std::vector<double> update;  ///< one reflection's rank-2 update vector

  /// Pre-sizes both buffers for matrices up to n×n, so no later solve of
  /// that size or smaller allocates.
  void reserve(std::size_t n) {
    work.reshape(n, n);
    update.reserve(n);
  }
};

/// Returns the largest eigenvalue of a symmetric positive semi-definite
/// matrix, to within a small multiple of machine epsilon times λ_max.
///
/// The matrix is reduced to symmetric tridiagonal form T by n−2
/// Householder reflections without accumulating Q (Golub & Van Loan,
/// Matrix Computations, §8.3.1), and λ_max(T) is found by bisection on
/// the Sturm count of T − x·I (§8.4.1), starting from T's Gershgorin
/// bracket.  Every loop is a plain fixed-order scalar loop, so the result
/// is bitwise reproducible for a given input.  All work storage comes from
/// `scratch`: once it is sized, calls perform no heap allocation.
double largest_eigenvalue_psd(const DenseMatrix& a, EigenScratch& scratch);

/// Convenience overload with its own (allocated) scratch.
double largest_eigenvalue_psd(const DenseMatrix& a);

/// Returns all eigenvalues of a symmetric matrix in ascending order using
/// the cyclic Jacobi method (no eigenvectors).
std::vector<double> jacobi_eigenvalues(DenseMatrix a,
                                       double tolerance = 1e-14,
                                       std::size_t max_sweeps = 64);

/// Returns the largest singular value of an arbitrary dense matrix
/// (sqrt of the largest eigenvalue of AᵀA or AAᵀ, whichever is smaller).
double largest_singular_value(const DenseMatrix& a);

/// Returns the smallest *nonzero* singular value of a dense matrix —
/// used by λ-selection (the paper sets λ = 100·σ_min).  Values below
/// rank_tol · σ_max are treated as zero.
double smallest_nonzero_singular_value(const DenseMatrix& a,
                                       double rank_tol = 1e-10);

}  // namespace sa::la
