// Regularization path + cross-validation: the workflow the paper's intro
// motivates for high-dimensional feature selection.
//
//   $ ./lasso_path [file.libsvm]
//
// With no argument, runs on a synthetic problem with a planted sparse
// model; with a LIBSVM file, runs on real data.  Computes a warm-started
// Lasso path with the SA solver, prints the support-size profile, then
// picks λ by 5-fold cross-validation.
#include <cstdio>

#include "core/cross_validation.hpp"
#include "core/path.hpp"
#include "data/libsvm_io.hpp"
#include "data/scaling.hpp"
#include "data/synthetic.hpp"

int main(int argc, char** argv) {
  sa::data::Dataset dataset;
  std::size_t planted_support = 0;
  if (argc > 1) {
    dataset = sa::data::read_libsvm_file(argv[1]);
    std::printf("loaded %s: %zu points, %zu features\n", argv[1],
                dataset.num_points(), dataset.num_features());
  } else {
    sa::data::RegressionConfig config;
    config.num_points = 300;
    config.num_features = 120;
    config.density = 0.15;
    config.support_size = 10;
    config.noise_sigma = 0.05;
    dataset = sa::data::make_regression(config).dataset;
    planted_support = config.support_size;
    std::printf("synthetic problem: %zu points, %zu features, planted "
                "support %zu\n",
                dataset.num_points(), dataset.num_features(),
                planted_support);
  }

  // Unit-norm columns make the λ grid comparable across features.
  auto [scaled, scaling] = sa::data::normalize_columns(dataset);

  sa::core::PathOptions options;
  // Synchronization-avoiding solver: one reduce per 16 iterations.
  options.solver.algorithm = "sa-lasso";
  options.solver.s = 16;
  options.solver.block_size = 4;
  options.solver.accelerated = true;
  options.solver.max_iterations = 2000;
  options.num_lambdas = 16;
  options.lambda_min_ratio = 1e-3;

  std::printf("\nwarm-started Lasso path (SA-accBCD, s = %zu):\n",
              options.solver.s);
  std::printf("%14s %12s %14s %12s\n", "lambda", "support", "objective",
              "iterations");
  const auto path = sa::core::lasso_path(scaled, options);
  for (const auto& point : path) {
    std::printf("%14.6g %12zu %14.6g %12zu\n", point.lambda, point.nonzeros,
                point.objective, point.iterations);
  }

  std::printf("\n5-fold cross-validation over the same grid:\n");
  sa::core::CvOptions cv;
  cv.path = options;
  cv.path.solver.max_iterations = 800;  // cheaper per-fold fits
  cv.num_folds = 5;
  const sa::core::CvResult result =
      sa::core::cross_validate_lasso(scaled, cv);
  std::printf("%14s %14s %14s\n", "lambda", "mean MSE", "std MSE");
  for (const auto& point : result.points) {
    std::printf("%14.6g %14.6g %14.6g%s\n", point.lambda, point.mean_mse,
                point.std_mse,
                point.lambda == result.best_lambda ? "   <-- best" : "");
  }
  if (planted_support > 0) {
    // Report the support recovered at the CV-selected λ.
    for (const auto& point : path) {
      if (point.lambda == result.best_lambda) {
        std::printf("\nsupport at best lambda: %zu (planted: %zu)\n",
                    point.nonzeros, planted_support);
      }
    }
  }
  return 0;
}
