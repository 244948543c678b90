// Tests for warm-started regularization paths and cross-validation.
#include "core/path.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/cross_validation.hpp"
#include "core/objective.hpp"
#include "core/registry.hpp"
#include "data/synthetic.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {
namespace {

data::Dataset make_problem(std::uint64_t seed = 42) {
  data::RegressionConfig cfg;
  cfg.num_points = 120;
  cfg.num_features = 40;
  cfg.density = 0.3;
  cfg.support_size = 6;
  cfg.noise_sigma = 0.05;
  cfg.seed = seed;
  return data::make_regression(cfg).dataset;
}

PathOptions base_options() {
  PathOptions opt;
  opt.solver.block_size = 2;
  opt.solver.accelerated = true;
  opt.solver.max_iterations = 600;
  opt.num_lambdas = 8;
  opt.lambda_min_ratio = 1e-2;
  return opt;
}

TEST(LambdaGrid, StartsAtLambdaMaxAndDescends) {
  const data::Dataset d = make_problem();
  const auto grid = default_lambda_grid(d, 10, 1e-3);
  ASSERT_EQ(grid.size(), 10u);
  EXPECT_NEAR(grid.front(), lasso_lambda_max(d.a, d.b), 1e-9);
  EXPECT_NEAR(grid.back(), grid.front() * 1e-3, 1e-9 * grid.front());
  for (std::size_t i = 1; i < grid.size(); ++i)
    EXPECT_LT(grid[i], grid[i - 1]);
}

TEST(LambdaGrid, IsLogSpaced) {
  const data::Dataset d = make_problem();
  const auto grid = default_lambda_grid(d, 5, 1e-4);
  const double ratio = grid[1] / grid[0];
  for (std::size_t i = 2; i < grid.size(); ++i)
    EXPECT_NEAR(grid[i] / grid[i - 1], ratio, 1e-10);
}

TEST(LambdaGrid, RejectsBadArguments) {
  const data::Dataset d = make_problem();
  EXPECT_THROW(default_lambda_grid(d, 1, 1e-3), sa::PreconditionError);
  EXPECT_THROW(default_lambda_grid(d, 5, 0.0), sa::PreconditionError);
  EXPECT_THROW(default_lambda_grid(d, 5, 1.5), sa::PreconditionError);
}

TEST(LassoPath, SupportGrowsAsLambdaShrinks) {
  const data::Dataset d = make_problem();
  const auto path = lasso_path(d, base_options());
  ASSERT_EQ(path.size(), 8u);
  // At λ_max the solution is 0 in exact arithmetic; the argmax coordinate
  // sits exactly on the soft-threshold boundary, so a one-ulp difference
  // between the λ_max reduction and the solver's gradient reduction can
  // admit a single coordinate.
  EXPECT_LE(path.front().nonzeros, 1u);
  EXPECT_GT(path.back().nonzeros, 0u);
  // Monotone-ish growth: final support at least as large as the first
  // nonzero support.
  std::size_t first_nonzero = 0;
  for (const auto& p : path)
    if (p.nonzeros > 0) {
      first_nonzero = p.nonzeros;
      break;
    }
  EXPECT_GE(path.back().nonzeros, first_nonzero);
}

TEST(LassoPath, ObjectivesMatchFromScratchEvaluation) {
  const data::Dataset d = make_problem();
  const auto path = lasso_path(d, base_options());
  for (const auto& p : path) {
    EXPECT_NEAR(p.objective, lasso_objective(d.a, d.b, p.x, p.lambda),
                1e-9 * std::max(1.0, p.objective));
  }
}

TEST(LassoPath, SaSolverProducesSamePath) {
  const data::Dataset d = make_problem();
  PathOptions classical = base_options();
  PathOptions avoiding = base_options();
  avoiding.solver.algorithm = "sa-lasso";
  avoiding.solver.s = 8;
  const auto p1 = lasso_path(d, classical);
  const auto p2 = lasso_path(d, avoiding);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i)
    EXPECT_LT(la::max_rel_diff(p1[i].x, p2[i].x), 1e-8) << "lambda index " << i;
}

TEST(LassoPath, WarmStartReducesWorkAtNextLambda) {
  // With a warm start the solver begins near the optimum; verify the warm
  // path reaches at least the cold objective at every λ (it can only
  // help), using a deliberately small iteration budget.
  const data::Dataset d = make_problem();
  PathOptions opt = base_options();
  opt.solver.max_iterations = 150;
  const auto warm = lasso_path(d, opt);
  for (std::size_t i = 1; i < warm.size(); ++i) {
    SolverSpec cold = opt.solver;
    cold.algorithm = "lasso";
    cold.lambda = warm[i].lambda;
    const SolveResult cold_fit = solve(d, cold);
    const double cold_obj =
        lasso_objective(d.a, d.b, cold_fit.x, warm[i].lambda);
    EXPECT_LE(warm[i].objective, cold_obj * 1.05) << "lambda " << i;
  }
}

TEST(LassoPath, ExplicitGridValidated) {
  const data::Dataset d = make_problem();
  PathOptions opt = base_options();
  opt.lambdas = {0.1, 0.5};  // ascending: invalid
  EXPECT_THROW(lasso_path(d, opt), sa::PreconditionError);
  opt.lambdas = {0.5, 0.1};
  EXPECT_EQ(lasso_path(d, opt).size(), 2u);
}

TEST(SplitFold, PartitionsAllPointsExactlyOnce) {
  const data::Dataset d = make_problem();
  const std::size_t folds = 4;
  std::size_t total_test = 0;
  for (std::size_t f = 0; f < folds; ++f) {
    const auto [train, test] = split_fold(d, f, folds, 7);
    EXPECT_EQ(train.num_points() + test.num_points(), d.num_points());
    EXPECT_EQ(train.num_features(), d.num_features());
    total_test += test.num_points();
  }
  EXPECT_EQ(total_test, d.num_points());
}

TEST(SplitFold, DeterministicGivenSeed) {
  const data::Dataset d = make_problem();
  const auto [train1, test1] = split_fold(d, 1, 5, 99);
  const auto [train2, test2] = split_fold(d, 1, 5, 99);
  EXPECT_EQ(test1.b, test2.b);
  const auto [train3, test3] = split_fold(d, 1, 5, 100);
  EXPECT_NE(test1.b, test3.b);
}

TEST(SplitFold, RejectsBadArguments) {
  const data::Dataset d = make_problem();
  EXPECT_THROW(split_fold(d, 0, 1, 7), sa::PreconditionError);
  EXPECT_THROW(split_fold(d, 5, 5, 7), sa::PreconditionError);
}

TEST(MeanSquaredError, ZeroForExactModel) {
  data::RegressionConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.num_points = 40;
  cfg.num_features = 20;
  cfg.support_size = 4;
  const data::RegressionProblem p = data::make_regression(cfg);
  EXPECT_NEAR(mean_squared_error(p.dataset, p.x_star), 0.0, 1e-20);
}

TEST(CrossValidation, PicksSmallLambdaOnCleanData) {
  // With little noise, smaller λ predicts better; best λ must sit in the
  // lower half of the grid and mean MSE must be far below the variance of
  // the targets.
  const data::Dataset d = make_problem(11);
  CvOptions cv;
  cv.path = base_options();
  cv.path.solver.max_iterations = 400;
  cv.num_folds = 4;
  const CvResult result = cross_validate_lasso(d, cv);
  ASSERT_EQ(result.points.size(), 8u);
  double best_mse = 1e300;
  std::size_t best_index = 0;
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    if (result.points[i].mean_mse < best_mse) {
      best_mse = result.points[i].mean_mse;
      best_index = i;
    }
  }
  EXPECT_EQ(result.points[best_index].lambda, result.best_lambda);
  EXPECT_GE(best_index, result.points.size() / 2);
  EXPECT_LT(best_mse, result.points.front().mean_mse);
}

}  // namespace
}  // namespace sa::core
