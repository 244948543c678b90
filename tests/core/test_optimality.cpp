// Optimality-certificate tests: long solver runs must satisfy the KKT /
// subgradient conditions of their convex problems.  These validate the
// mathematics end to end — step sizes, gradients, prox operators, duality
// constants — independently of any reference implementation.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "core/objective.hpp"
#include "core/prox.hpp"
#include "data/synthetic.hpp"
#include "dist/serial_comm.hpp"
#include "la/csc.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {
namespace {

/// Returns the gradient A'(Ax − b) of the least-squares term.
std::vector<double> ls_gradient(const data::Dataset& d,
                                std::span<const double> x) {
  std::vector<double> r(d.num_points());
  d.a.spmv(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= d.b[i];
  std::vector<double> g(d.num_features());
  d.a.spmv_transpose(r, g);
  return g;
}

data::Dataset regression_problem(std::uint64_t seed) {
  data::RegressionConfig cfg;
  cfg.num_points = 80;
  cfg.num_features = 30;
  cfg.density = 0.5;
  cfg.support_size = 5;
  cfg.noise_sigma = 0.05;
  cfg.seed = seed;
  return data::make_regression(cfg).dataset;
}

/// Lasso subgradient optimality:
///   |x_j| > activity_tol  ⇒  ∇_j f + λ·sign(x_j) = 0   (within tol)
///   |x_j| ≤ activity_tol  ⇒  |∇_j f| ≤ λ + tol
/// The activity threshold matters for the accelerated solvers: their
/// iterate x = θ²·y + z carries O(θ²) dust on every coordinate, which is
/// "nonzero" without being active.
void check_lasso_kkt(const data::Dataset& d, const std::vector<double>& x,
                     double lambda, double tol,
                     double activity_tol = 1e-6) {
  const std::vector<double> g = ls_gradient(d, x);
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (std::abs(x[j]) > activity_tol) {
      EXPECT_NEAR(g[j] + lambda * (x[j] > 0.0 ? 1.0 : -1.0), 0.0, tol)
          << "active coordinate " << j;
    } else {
      EXPECT_LE(std::abs(g[j]), lambda + tol) << "inactive coordinate " << j;
    }
  }
}

/// Scale-robust optimality certificate: the proximal-gradient residual
///   r_j = x_j − S_{λ/L_j}(x_j − ∇_j f / L_j),  L_j = ||a_j||²,
/// which is 0 exactly at the optimum and maps near-zero "dust"
/// coordinates (the θ²·y term of accelerated iterates) to ~their own
/// magnitude instead of triggering a spurious active-coordinate check.
double prox_gradient_residual(const data::Dataset& d,
                              const std::vector<double>& x, double lambda) {
  const std::vector<double> g = ls_gradient(d, x);
  const la::CscMatrix csc(d.a);
  const std::vector<double> col_norms = csc.col_norms_squared();
  double worst = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    const double lj = col_norms[j] > 0.0 ? col_norms[j] : 1.0;
    const double target =
        soft_threshold(x[j] - g[j] / lj, lambda / lj);
    worst = std::max(worst, std::abs(x[j] - target));
  }
  return worst;
}

TEST(Optimality, LassoCdSatisfiesKkt) {
  const data::Dataset d = regression_problem(1);
  SolverSpec opt;
  opt.lambda = 0.5;
  opt.max_iterations = 30000;
  const SolveResult r = solve(d, opt);
  check_lasso_kkt(d, r.x, opt.lambda, 1e-6);
}

TEST(Optimality, LassoAccBcdSatisfiesKkt) {
  const data::Dataset d = regression_problem(2);
  SolverSpec opt;
  opt.lambda = 0.5;
  opt.block_size = 4;
  opt.accelerated = true;
  opt.max_iterations = 30000;
  const SolveResult r = solve(d, opt);
  // Accelerated methods reach the optimum at the O(1/H²) objective rate
  // (sublinear tail), so the certificate tolerance is looser than plain
  // CD's linear-rate 1e-6.
  EXPECT_LT(prox_gradient_residual(d, r.x, opt.lambda), 2e-3);
}

TEST(Optimality, SaLassoSatisfiesKkt) {
  const data::Dataset d = regression_problem(3);
  SolverSpec sa = SolverSpec::make("sa-lasso");
  sa.lambda = 0.5;
  sa.block_size = 2;
  sa.accelerated = true;
  sa.max_iterations = 30000;
  sa.s = 32;
  const SolveResult r = solve(d, sa);
  EXPECT_LT(prox_gradient_residual(d, r.x, sa.lambda), 2e-3);
}

TEST(Optimality, ElasticNetStationarity) {
  // EN optimality: x_j ≠ 0 ⇒ ∇_j f + 2λ·w2·x_j + λ·w1·sign(x_j) = 0.
  const data::Dataset d = regression_problem(4);
  SolverSpec opt;
  opt.penalty = Penalty::kElasticNet;
  opt.lambda = 0.4;
  opt.elastic_net_l1 = 0.6;
  opt.elastic_net_l2 = 0.4;
  opt.max_iterations = 30000;
  const SolveResult r = solve(d, opt);
  const std::vector<double> g = ls_gradient(d, r.x);
  const double l1 = opt.lambda * opt.elastic_net_l1;
  const double l2 = opt.lambda * opt.elastic_net_l2;
  for (std::size_t j = 0; j < r.x.size(); ++j) {
    if (r.x[j] != 0.0) {
      EXPECT_NEAR(g[j] + 2.0 * l2 * r.x[j] +
                      l1 * (r.x[j] > 0.0 ? 1.0 : -1.0),
                  0.0, 1e-6);
    } else {
      EXPECT_LE(std::abs(g[j]), l1 + 1e-6);
    }
  }
}

TEST(Optimality, GroupLassoBlockStationarity) {
  // Active group: A_g'r + λ·x_g/||x_g|| = 0;  inactive: ||A_g'r|| ≤ λ.
  const data::Dataset d = regression_problem(5);
  SolverSpec opt = SolverSpec::make("group-lasso");
  opt.lambda = 1.0;
  opt.groups = GroupStructure::uniform(d.num_features(), 5);
  opt.max_iterations = 30000;
  const SolveResult r = solve(d, opt);
  const std::vector<double> g = ls_gradient(d, r.x);
  for (std::size_t gi = 0; gi < opt.groups.num_groups(); ++gi) {
    const std::size_t begin = opt.groups.offsets[gi];
    const std::size_t size = opt.groups.offsets[gi + 1] - begin;
    const std::span<const double> xg(r.x.data() + begin, size);
    const std::span<const double> gg(g.data() + begin, size);
    const double norm_x = la::nrm2(xg);
    if (norm_x > 0.0) {
      for (std::size_t a = 0; a < size; ++a)
        EXPECT_NEAR(gg[a] + opt.lambda * xg[a] / norm_x, 0.0, 1e-5)
            << "group " << gi;
    } else {
      EXPECT_LE(la::nrm2(gg), opt.lambda + 1e-6) << "group " << gi;
    }
  }
}

// ------------------------------------------ s-step solvers at a realistic size

/// A sparse 2000×200 problem: large enough to spread its rows over four
/// ranks and to sample 25 distinct 8-column blocks, small enough that a
/// solve to optimality takes tens of ms.
data::Dataset realistic_problem() {
  data::RegressionConfig cfg;
  cfg.num_points = 2000;
  cfg.num_features = 200;
  cfg.density = 0.02;
  cfg.support_size = 10;
  cfg.noise_sigma = 0.05;
  cfg.seed = 21;
  return data::make_regression(cfg).dataset;
}

/// Worst violation of group-Lasso block stationarity at x:
/// A_gᵀr + λ·x_g/‖x_g‖ = 0 on active groups and ‖A_gᵀr‖ ≤ λ on inactive
/// ones.
double group_stationarity(const data::Dataset& d,
                          const std::vector<double>& x,
                          const SolverSpec& spec) {
  const std::vector<double> g = ls_gradient(d, x);
  double worst = 0.0;
  for (std::size_t gi = 0; gi < spec.groups.num_groups(); ++gi) {
    const std::size_t begin = spec.groups.offsets[gi];
    const std::size_t size = spec.groups.offsets[gi + 1] - begin;
    const std::span<const double> xg(x.data() + begin, size);
    const std::span<const double> gg(g.data() + begin, size);
    const double norm_x = la::nrm2(xg);
    if (norm_x > 0.0) {
      for (std::size_t a = 0; a < size; ++a)
        worst =
            std::max(worst, std::abs(gg[a] + spec.lambda * xg[a] / norm_x));
    } else {
      worst = std::max(worst, la::nrm2(gg) - spec.lambda);
    }
  }
  return worst;
}

/// (ranks, s) of one certified s-step solve.
class SaOptimalityAtScale
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(SaOptimalityAtScale, SaLassoKktResidual) {
  const auto [ranks, s] = GetParam();
  const data::Dataset d = realistic_problem();
  SolverSpec sa = SolverSpec::make("sa-lasso");
  sa.lambda = 1.0;
  sa.block_size = 8;
  sa.s = s;
  sa.max_iterations = 1500;
  const SolveResult r = solve_on_ranks(d, sa, ranks);
  // Plain BCD converges linearly once the support is found: the
  // proximal-gradient residual is ≈2e-15 after 1500 iterations.
  EXPECT_LT(prox_gradient_residual(d, r.x, sa.lambda), 1e-11);
}

TEST_P(SaOptimalityAtScale, SaGroupLassoBlockStationarity) {
  const auto [ranks, s] = GetParam();
  const data::Dataset d = realistic_problem();
  SolverSpec sa = SolverSpec::make("sa-group-lasso");
  sa.lambda = 2.0;
  sa.groups = GroupStructure::uniform(d.num_features(), 8);
  sa.s = s;
  sa.max_iterations = 1500;
  const SolveResult r = solve_on_ranks(d, sa, ranks);
  // sa-group-lasso converges more slowly on this problem (≈9e-11 here vs
  // ≈2e-15 for sa-lasso after 1500 iterations), so its bound is looser.
  EXPECT_LT(group_stationarity(d, r.x, sa), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndDepth, SaOptimalityAtScale,
    ::testing::Combine(::testing::Values(1, 4),
                       ::testing::Values(std::size_t{1}, std::size_t{16})));

// ------------------------------- dense rounds whose sampled columns repeat

/// A dense 400×24 problem.  With µ = 4 and s = 16 a round samples 64
/// columns of 24, so most of them repeat and the dense Gram computes each
/// distinct column's entries once.
data::Dataset dense_repeats_problem() {
  data::RegressionConfig cfg;
  cfg.num_points = 400;
  cfg.num_features = 24;
  cfg.density = 0.6;
  cfg.support_size = 6;
  cfg.noise_sigma = 0.05;
  cfg.seed = 23;
  return data::make_regression(cfg).dataset;
}

SolverSpec dense_repeats_spec(const std::string& id, std::size_t n) {
  SolverSpec spec = SolverSpec::make(id);
  spec.s = 16;
  spec.max_iterations = 1500;
  if (spec.family() == SolverFamily::kGroupLasso) {
    spec.lambda = 2.0;
    spec.groups = GroupStructure::uniform(n, 4);
  } else {
    spec.lambda = 1.0;
    spec.block_size = 4;
  }
  return spec;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

class DenseRepeatedColumns : public ::testing::TestWithParam<std::string> {};

TEST_P(DenseRepeatedColumns, SerialEqualsRanksBitwise) {
  const data::Dataset d = dense_repeats_problem();
  const SolverSpec spec = dense_repeats_spec(GetParam(), d.num_features());
  const SolveResult serial = solve_on_ranks(d, spec, 1);
  for (const int ranks : {2, 3, 4})
    EXPECT_TRUE(same_bits(serial.x, solve_on_ranks(d, spec, ranks).x))
        << ranks << " ranks";
}

TEST_P(DenseRepeatedColumns, ResumedEqualsUninterruptedBitwise) {
  const data::Dataset d = dense_repeats_problem();
  const SolverSpec spec = dense_repeats_spec(GetParam(), d.num_features());
  const data::Partition rows = partition_for_ranks(d, spec, 1);
  dist::SerialComm ref_comm;
  const SolveResult reference = make_solver(ref_comm, d, rows, spec)->run();
  dist::SerialComm comm_a;
  const std::unique_ptr<Solver> interrupted =
      make_solver(comm_a, d, rows, spec);
  interrupted->step(spec.max_iterations / 3);
  const std::vector<std::uint8_t> image = interrupted->snapshot();
  dist::SerialComm comm_b;
  const std::unique_ptr<Solver> resumed = make_solver(comm_b, d, rows, spec);
  resumed->restore(image);
  EXPECT_TRUE(same_bits(reference.x, resumed->run().x));
}

TEST_P(DenseRepeatedColumns, MeetsOptimalityCertificate) {
  const data::Dataset d = dense_repeats_problem();
  const SolverSpec spec = dense_repeats_spec(GetParam(), d.num_features());
  const SolveResult r = solve_on_ranks(d, spec, 1);
  ASSERT_GT(la::nrm2(r.x), 0.0);
  if (spec.family() == SolverFamily::kGroupLasso) {
    EXPECT_LT(group_stationarity(d, r.x, spec), 1e-9);
  } else {
    EXPECT_LT(prox_gradient_residual(d, r.x, spec.lambda), 1e-11);
  }
}

INSTANTIATE_TEST_SUITE_P(SaIds, DenseRepeatedColumns,
                         ::testing::Values("sa-lasso", "sa-group-lasso"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param == "sa-lasso" ? "SaLasso"
                                                        : "SaGroupLasso";
                         });

// ------------------------------------------------------------------ SVM

data::Dataset classification_problem(std::uint64_t seed) {
  data::ClassificationConfig cfg;
  cfg.num_points = 70;
  cfg.num_features = 30;
  cfg.density = 0.5;
  cfg.margin = 0.4;
  cfg.seed = seed;
  return data::make_classification(cfg);
}

/// Dual-SVM box KKT:  α_i = 0 ⇒ g_i ≥ 0;  α_i = ν ⇒ g_i ≤ 0;
/// interior ⇒ g_i = 0, where g_i = b_i·A_i·x − 1 + γ·α_i.
void check_svm_kkt(const data::Dataset& d, const SolveResult& r,
                   double lambda, SvmLoss loss, double tol) {
  const SvmConstants c = SvmConstants::make(loss, lambda);
  std::vector<double> margins(d.num_points());
  d.a.spmv(r.x, margins);
  for (std::size_t i = 0; i < d.num_points(); ++i) {
    const double g = d.b[i] * margins[i] - 1.0 + c.gamma * r.alpha[i];
    if (r.alpha[i] <= tol) {
      EXPECT_GE(g, -tol) << "lower-bound point " << i;
    } else if (std::isfinite(c.nu) && r.alpha[i] >= c.nu - tol) {
      EXPECT_LE(g, tol) << "upper-bound point " << i;
    } else {
      EXPECT_NEAR(g, 0.0, tol) << "interior point " << i;
    }
  }
}

TEST(Optimality, SvmL1SatisfiesDualKkt) {
  const data::Dataset d = classification_problem(11);
  SolverSpec opt = SolverSpec::make("svm");
  opt.lambda = 1.0;
  opt.loss = SvmLoss::kL1;
  opt.max_iterations = 60000;
  const SolveResult r = solve(d, opt);
  check_svm_kkt(d, r, opt.lambda, opt.loss, 1e-6);
}

TEST(Optimality, SvmL2SatisfiesDualKkt) {
  const data::Dataset d = classification_problem(12);
  SolverSpec opt = SolverSpec::make("svm");
  opt.lambda = 1.0;
  opt.loss = SvmLoss::kL2;
  opt.max_iterations = 60000;
  const SolveResult r = solve(d, opt);
  check_svm_kkt(d, r, opt.lambda, opt.loss, 1e-6);
}

TEST(Optimality, SaSvmSatisfiesDualKkt) {
  const data::Dataset d = classification_problem(13);
  SolverSpec sa = SolverSpec::make("sa-svm");
  sa.lambda = 1.0;
  sa.loss = SvmLoss::kL2;
  sa.max_iterations = 60000;
  sa.s = 50;
  const SolveResult r = solve(d, sa);
  check_svm_kkt(d, r, sa.lambda, sa.loss, 1e-6);
}

TEST(Optimality, SvmDualityGapVanishesAtOptimum) {
  // Strong duality: at the dual optimum the primal-dual gap is ~0
  // (the property behind the paper's Figure 5 convergence criterion).
  const data::Dataset d = classification_problem(14);
  SolverSpec opt = SolverSpec::make("svm");
  opt.lambda = 1.0;
  opt.loss = SvmLoss::kL2;
  opt.max_iterations = 60000;
  const SolveResult r = solve(d, opt);
  const double gap =
      svm_duality_gap(d.a, d.b, r.alpha, r.x, opt.lambda, opt.loss);
  EXPECT_GE(gap, -1e-9);
  EXPECT_LE(gap, 1e-8);
}

}  // namespace
}  // namespace sa::core
