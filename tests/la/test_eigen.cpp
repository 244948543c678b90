// Unit tests for the small symmetric eigensolvers.
//
// largest_eigenvalue_psd is checked against jacobi_eigenvalues (the
// full-spectrum reference) to 1e-13 relative on every input.  The binary
// owns a counting global operator new so the scratch overload can be shown
// allocation-free once its scratch is sized.
#include "la/eigen.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/annotate.hpp"
#include "common/check.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "la/csc.hpp"
#include "la/vector_ops.hpp"

namespace {

std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  sa::common::notify_allocation();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sa::la {
namespace {

/// Relative tolerance of largest_eigenvalue_psd against the Jacobi
/// reference.
constexpr double kRelTol = 1e-13;

/// Asserts largest_eigenvalue_psd(a) agrees with Jacobi's largest
/// eigenvalue to kRelTol relative (exactly, for a zero spectrum).
void expect_matches_jacobi(const DenseMatrix& a) {
  const double got = largest_eigenvalue_psd(a);
  const double want = jacobi_eigenvalues(a).back();
  EXPECT_NEAR(got, want, kRelTol * std::abs(want)) << "n=" << a.rows();
}

TEST(LargestEigenvalue, DiagonalMatrixLargestEntry) {
  DenseMatrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 7.0;
  a(2, 2) = 3.0;
  EXPECT_NEAR(largest_eigenvalue_psd(a), 7.0, kRelTol * 7.0);
}

TEST(LargestEigenvalue, OneByOneIsTheEntry) {
  DenseMatrix a(1, 1);
  a(0, 0) = 4.25;
  EXPECT_DOUBLE_EQ(largest_eigenvalue_psd(a), 4.25);
}

TEST(LargestEigenvalue, EmptyMatrixIsZero) {
  EXPECT_DOUBLE_EQ(largest_eigenvalue_psd(DenseMatrix()), 0.0);
}

TEST(LargestEigenvalue, ZeroMatrixIsZero) {
  EXPECT_DOUBLE_EQ(largest_eigenvalue_psd(DenseMatrix(4, 4)), 0.0);
}

TEST(LargestEigenvalue, RejectsNonSquare) {
  EXPECT_THROW(largest_eigenvalue_psd(DenseMatrix(2, 3)), PreconditionError);
}

TEST(LargestEigenvalue, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] has eigenvalues {1, 3}.
  DenseMatrix a(2, 2, {2.0, 1.0, 1.0, 2.0});
  EXPECT_NEAR(largest_eigenvalue_psd(a), 3.0, kRelTol * 3.0);
}

TEST(LargestEigenvalue, ClusteredLeadingEigenvalues) {
  // Two nearly equal leading eigenvalues — the spectrum that stalls
  // iterative methods — cost bisection nothing extra.
  DenseMatrix a(3, 3);
  a(0, 0) = 5.0;
  a(1, 1) = 5.0 - 1e-14;
  a(2, 2) = 1.0;
  EXPECT_NEAR(largest_eigenvalue_psd(a), 5.0, kRelTol * 5.0);
}

TEST(LargestEigenvalue, ZeroRowAndColumn) {
  // Sparse sampling draws columns that no row touches: their row and
  // column of the block Gram are all zero.
  DenseMatrix b(6, 4);
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      if (j != 1) b(i, j) = std::cos(static_cast<double>(3 * i + j));
  const DenseMatrix g = gram_upper(b);
  for (std::size_t j = 0; j < g.cols(); ++j) ASSERT_EQ(g(1, j), 0.0);
  expect_matches_jacobi(g);
}

TEST(LargestEigenvalue, IdentityIsExact) {
  EXPECT_EQ(largest_eigenvalue_psd(DenseMatrix::identity(8)), 1.0);
}

TEST(LargestEigenvalue, AllOnesRankOne) {
  // J = 11ᵀ: eigenvalue n once and 0 with multiplicity n − 1.
  for (std::size_t n : {std::size_t{2}, std::size_t{5}, std::size_t{16}}) {
    DenseMatrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = 1.0;
    const double want = static_cast<double>(n);
    EXPECT_NEAR(largest_eigenvalue_psd(a), want, kRelTol * want) << n;
  }
}

TEST(LargestEigenvalue, TridiagonalInputNeedsNoReflection) {
  // The 1-D Laplacian tridiag(−1, 2, −1): λ_max = 2 − 2·cos(nπ/(n+1)).
  const std::size_t n = 12;
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 2.0;
    if (i + 1 < n) a(i, i + 1) = a(i + 1, i) = -1.0;
  }
  const double pi = std::acos(-1.0);
  const double want =
      2.0 - 2.0 * std::cos(static_cast<double>(n) * pi / (n + 1.0));
  EXPECT_NEAR(largest_eigenvalue_psd(a), want, kRelTol * want);
  expect_matches_jacobi(a);
}

TEST(LargestEigenvalue, ScratchOverloadMatchesAndAllocatesNothing) {
  // A 16×16 solve, then a smaller one through the same scratch.
  DenseMatrix b(20, 16);
  DenseMatrix c(9, 5);
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      b(i, j) = std::sin(static_cast<double>(i * 16 + j + 1));
  for (std::size_t i = 0; i < c.rows(); ++i)
    for (std::size_t j = 0; j < c.cols(); ++j)
      c(i, j) = std::cos(static_cast<double>(i * 5 + j));
  const DenseMatrix big = gram_upper(b);
  const DenseMatrix small = gram_upper(c);
  EigenScratch scratch;
  scratch.reserve(16);
  common::reset_steady_state_violations();
  common::arm_allocation_guard(true);
  const std::size_t before = g_alloc_count.load();
  const double v_big = largest_eigenvalue_psd(big, scratch);
  const double v_small = largest_eigenvalue_psd(small, scratch);
  const std::size_t allocations = g_alloc_count.load() - before;
  common::arm_allocation_guard(false);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(common::steady_state_violations(), 0u);
  // Same arithmetic as the allocating overload: bitwise equal results.
  EXPECT_EQ(v_big, largest_eigenvalue_psd(big));
  EXPECT_EQ(v_small, largest_eigenvalue_psd(small));
}

TEST(Jacobi, DiagonalMatrixSortedSpectrum) {
  DenseMatrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = 1.0;
  a(2, 2) = 2.0;
  const std::vector<double> eig = jacobi_eigenvalues(a);
  ASSERT_EQ(eig.size(), 3u);
  EXPECT_NEAR(eig[0], 1.0, 1e-12);
  EXPECT_NEAR(eig[1], 2.0, 1e-12);
  EXPECT_NEAR(eig[2], 3.0, 1e-12);
}

TEST(Jacobi, KnownTwoByTwoSpectrum) {
  DenseMatrix a(2, 2, {2.0, 1.0, 1.0, 2.0});
  const std::vector<double> eig = jacobi_eigenvalues(a);
  EXPECT_NEAR(eig[0], 1.0, 1e-12);
  EXPECT_NEAR(eig[1], 3.0, 1e-12);
}

TEST(Jacobi, TraceAndFrobeniusInvariants) {
  DenseMatrix a(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      a(i, j) = 1.0 / (1.0 + static_cast<double>(i + j));  // Hilbert-like
  const std::vector<double> eig = jacobi_eigenvalues(a);
  double trace = 0.0, frob_sq = 0.0, eig_sum = 0.0, eig_sq = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    trace += a(i, i);
    for (std::size_t j = 0; j < 4; ++j) frob_sq += a(i, j) * a(i, j);
  }
  for (double e : eig) {
    eig_sum += e;
    eig_sq += e * e;
  }
  EXPECT_NEAR(trace, eig_sum, 1e-10);
  EXPECT_NEAR(frob_sq, eig_sq, 1e-10);
}

TEST(Jacobi, EmptyMatrixGivesEmptySpectrum) {
  EXPECT_TRUE(jacobi_eigenvalues(DenseMatrix()).empty());
}

TEST(SingularValues, DiagonalRectangular) {
  DenseMatrix a(3, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 5.0;
  EXPECT_NEAR(largest_singular_value(a), 5.0, 1e-10);
  EXPECT_NEAR(smallest_nonzero_singular_value(a), 2.0, 1e-10);
}

TEST(SingularValues, RankDeficientIgnoresZeros) {
  // Rank-1 matrix: single nonzero singular value ||u||·||v||.
  DenseMatrix a(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = 2.0;
  EXPECT_NEAR(largest_singular_value(a), 6.0, 1e-9);
  EXPECT_NEAR(smallest_nonzero_singular_value(a), 6.0, 1e-9);
}

TEST(SingularValues, EmptyMatrixIsZero) {
  EXPECT_DOUBLE_EQ(largest_singular_value(DenseMatrix()), 0.0);
  EXPECT_DOUBLE_EQ(smallest_nonzero_singular_value(DenseMatrix()), 0.0);
}

/// The largest eigenvalue must agree with Jacobi's across a sweep of
/// synthetic PSD matrices G = BᵀB of growing size.
class EigenAgreementSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenAgreementSweep, MatchesJacobi) {
  const std::size_t n = GetParam();
  DenseMatrix b(n + 2, n);
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < n; ++j)
      b(i, j) = std::sin(static_cast<double>(i * n + j + 1));
  expect_matches_jacobi(gram_upper(b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenAgreementSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 24, 32));

/// Gram A_Jᵀ·A_J of the columns J of a sparse matrix, by sorted-index
/// merges — the block whose largest eigenvalue the BCD solvers need.
DenseMatrix block_gram(const CscMatrix& a, std::span<const std::size_t> cols) {
  const std::size_t k = cols.size();
  DenseMatrix g(k, k);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t q = p; q < k; ++q) {
      const auto ip = a.col_indices(cols[p]);
      const auto iq = a.col_indices(cols[q]);
      const auto vp = a.col_values(cols[p]);
      const auto vq = a.col_values(cols[q]);
      double acc = 0.0;
      for (std::size_t x = 0, y = 0; x < ip.size() && y < iq.size();) {
        if (ip[x] < iq[y]) {
          ++x;
        } else if (iq[y] < ip[x]) {
          ++y;
        } else {
          acc += vp[x++] * vq[y++];
        }
      }
      g(p, q) = g(q, p) = acc;
    }
  }
  return g;
}

/// Block Grams of µ columns sampled from a sparse regression matrix, the
/// solvers' real input: mostly small off-diagonals, some empty columns.
class SampledBlockGrams : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SampledBlockGrams, MatchJacobi) {
  const std::size_t mu = GetParam();
  data::RegressionConfig cfg;
  cfg.num_points = 4000;
  cfg.num_features = 400;
  cfg.density = 0.005;
  cfg.seed = 7;
  const CscMatrix a(data::make_regression(cfg).dataset.a);
  data::CoordinateSampler sampler(a.cols(), mu, 11);
  for (int block = 0; block < 40; ++block)
    expect_matches_jacobi(block_gram(a, sampler.next()));
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, SampledBlockGrams,
                         ::testing::Values(8, 16, 32));

}  // namespace
}  // namespace sa::la
