// Warm-started Lasso regularization paths.
//
// Computes solutions along a decreasing λ grid, warm-starting each solve
// from the previous solution — the standard way practitioners use Lasso
// (scikit-learn's lasso_path, glmnet).  Built entirely on the unified
// sa::core::Solver facade (make_solver), so paths run serially or
// distributed and with either the classical or the
// synchronization-avoiding solver.
#pragma once

#include <cstddef>
#include <vector>

#include "core/solver.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"

namespace sa::core {

/// One point of a regularization path.
struct PathPoint {
  double lambda = 0.0;
  std::vector<double> x;
  double objective = 0.0;
  std::size_t nonzeros = 0;      ///< support size of x
  std::size_t iterations = 0;    ///< iterations spent at this λ
};

/// Options for a path computation.
struct PathOptions {
  /// Per-λ solver settings (λ and the warm start are overridden per grid
  /// point).  Must name a Lasso-family algorithm: "lasso", or "sa-lasso"
  /// with its unrolling depth in `solver.s`.
  SolverSpec solver;
  std::size_t num_lambdas = 20;   ///< grid size when `lambdas` is empty
  double lambda_min_ratio = 1e-3; ///< λ_min = ratio · λ_max (auto grid)
  std::vector<double> lambdas;    ///< explicit grid (sorted descending);
                                  ///< empty = log grid from λ_max down
};

/// Builds the descending log-spaced λ grid from λ_max(A, b).
std::vector<double> default_lambda_grid(const data::Dataset& dataset,
                                        std::size_t num_lambdas,
                                        double lambda_min_ratio);

/// Computes the full warm-started path (serial, P = 1).
std::vector<PathPoint> lasso_path(const data::Dataset& dataset,
                                  const PathOptions& options);

/// Distributed variant: call on every rank with identical arguments
/// (1D-row partition, as the Lasso family expects); results are
/// replicated.
std::vector<PathPoint> lasso_path(dist::Communicator& comm,
                                  const data::Dataset& dataset,
                                  const data::Partition& rows,
                                  const PathOptions& options);

}  // namespace sa::core
