#include "core/path.hpp"

#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "core/objective.hpp"
#include "core/registry.hpp"

namespace sa::core {

std::vector<double> default_lambda_grid(const data::Dataset& dataset,
                                        std::size_t num_lambdas,
                                        double lambda_min_ratio) {
  SA_CHECK(num_lambdas >= 2, "default_lambda_grid: need at least 2 points");
  SA_CHECK(lambda_min_ratio > 0.0 && lambda_min_ratio < 1.0,
           "default_lambda_grid: ratio must be in (0, 1)");
  const double lambda_max = lasso_lambda_max(dataset.a, dataset.b);
  SA_CHECK(lambda_max > 0.0, "default_lambda_grid: A'b is identically zero");
  std::vector<double> grid(num_lambdas);
  const double log_max = std::log(lambda_max);
  const double log_min = std::log(lambda_max * lambda_min_ratio);
  for (std::size_t i = 0; i < num_lambdas; ++i) {
    const double t = static_cast<double>(i) /
                     static_cast<double>(num_lambdas - 1);
    grid[i] = std::exp(log_max + t * (log_min - log_max));
  }
  return grid;
}

std::vector<PathPoint> lasso_path(dist::Communicator& comm,
                                  const data::Dataset& dataset,
                                  const data::Partition& rows,
                                  const PathOptions& options) {
  std::vector<double> grid = options.lambdas;
  if (grid.empty()) {
    grid = default_lambda_grid(dataset, options.num_lambdas,
                               options.lambda_min_ratio);
  }
  for (std::size_t i = 1; i < grid.size(); ++i)
    SA_CHECK(grid[i - 1] >= grid[i],
             "lasso_path: lambda grid must be sorted descending");

  // The per-λ spec: the spec's own algorithm id is honored (and must be
  // Lasso-family).  λ and the warm start rotate per grid point.
  SolverSpec spec = options.solver;
  SA_CHECK(spec.family() == SolverFamily::kLasso,
           "lasso_path: solver must be a Lasso-family algorithm");

  std::vector<PathPoint> path;
  path.reserve(grid.size());

  for (double lambda : grid) {
    spec.lambda = lambda;
    SolveResult result = make_solver(comm, dataset, rows, spec)->run();

    PathPoint point;
    point.lambda = lambda;
    point.objective = lasso_objective(dataset.a, dataset.b, result.x, lambda);
    for (double v : result.x)
      if (v != 0.0) ++point.nonzeros;
    point.iterations = result.trace.iterations_run;
    spec.x0 = std::move(result.x);  // warm-start the next grid point
    point.x = spec.x0;
    path.push_back(std::move(point));
  }
  return path;
}

std::vector<PathPoint> lasso_path(const data::Dataset& dataset,
                                  const PathOptions& options) {
  dist::SerialComm comm;
  return lasso_path(comm, dataset,
                    data::Partition::block(dataset.num_points(), 1), options);
}

}  // namespace sa::core
