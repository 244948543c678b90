// BLAS-1 style kernels on contiguous double spans.
//
// These free functions are the innermost building blocks of every solver in
// the library.  They are deliberately simple, allocation-free, and operate
// on std::span so callers can pass std::vector, raw arrays, or matrix
// rows/columns without copies.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace sa::la {

/// Minimum flop count before a kernel forks an OpenMP team.  Shared by
/// every parallel kernel in the layer (Gram, batch_dots, spmv) so they all
/// cross from serial to threaded at the same work size.
inline constexpr std::size_t kParallelFlopThreshold = std::size_t{1} << 19;

/// Runs body(t) for every t in [0, n): inside one OpenMP parallel loop
/// (guided schedule) when `parallel` is set and more than one thread is
/// available, and as a plain loop otherwise — then no region is entered
/// at all, not even an `if(false)` one, which costs a team hand-off on
/// every call.  Each body call must write disjoint outputs, so the
/// results are identical either way.
template <typename Body>
void parallel_for(std::size_t n, bool parallel, Body&& body) {
#ifdef _OPENMP
  if (parallel && omp_get_max_threads() > 1) {
#pragma omp parallel for schedule(guided)
    for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(n); ++t)
      body(static_cast<std::size_t>(t));
    return;
  }
#endif
  (void)parallel;
  for (std::size_t t = 0; t < n; ++t) body(t);
}

/// Returns the dot product  x' * y.  Both spans must have equal length.
double dot(std::span<const double> x, std::span<const double> y);

/// y := alpha * x + y  (classic axpy).  Spans must have equal length.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x := alpha * x.
void scale(double alpha, std::span<double> x);

/// Returns the Euclidean norm ||x||_2.
double nrm2(std::span<const double> x);

/// Returns the 1-norm  sum_i |x_i|.
double asum(std::span<const double> x);

/// Returns the infinity norm  max_i |x_i|  (0 for empty spans).
double inf_norm(std::span<const double> x);

/// dst := src.  Spans must have equal length (no-op when both empty).
void copy(std::span<const double> src, std::span<double> dst);

/// x := value for every element.
void fill(std::span<double> x, double value);

/// Returns sum_i x_i.
double sum(std::span<const double> x);

/// Returns the squared Euclidean norm  ||x||_2^2  without the sqrt.
double nrm2_squared(std::span<const double> x);

/// Returns the largest relative elementwise difference
///   max_i |x_i - y_i| / max(1, |x_i|, |y_i|),
/// a scale-invariant distance used by the SA-vs-non-SA equivalence tests.
double max_rel_diff(std::span<const double> x, std::span<const double> y);

/// Convenience owning helpers used throughout tests and examples.
std::vector<double> zeros(std::size_t n);
std::vector<double> constant(std::size_t n, double value);

}  // namespace sa::la
