// The benchmark's workloads: one registered solver id each, with the data
// it runs on, its rank count and the reference its correctness gate
// checks.  Why each workload exists is recorded in e2e_bench/README.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"

namespace e2e {

/// Where a workload's dataset comes from.
enum class DataSource {
  kRegression,    ///< data::make_regression
  kPaperTwin,     ///< data::make_paper_twin, kept in memory
  kLibsvmTwin,    ///< data::make_paper_twin written once to a LIBSVM
                  ///< file; set-up loads it with read_libsvm_file
};

struct Workload {
  std::string name;
  int ranks = 1;
  /// The solve: algorithm id and every knob except the checkpoint path,
  /// which the driver fills in.
  sa::core::SolverSpec spec;
  std::size_t checkpoint_every = 0;  ///< 0 = the solve writes no snapshots
  std::size_t group_size = 0;        ///< group Lasso only

  DataSource source = DataSource::kRegression;
  sa::data::RegressionConfig regression;  ///< kRegression
  sa::data::PaperDataset twin = sa::data::PaperDataset::kEpsilon;
  double shrink = 1.0;  ///< twin scale-down factor

  /// Correctness gate: the progress ratio (see Progress) must lie within
  /// reference_tolerance (relative) of the ratio a serial solve of the
  /// other variant of the same family reaches on the same data and seed.
  /// Classical and SA variants take the same steps in exact arithmetic
  /// (the paper's Table III), so they agree to rounding error.
  sa::core::SolverSpec reference;
  double reference_tolerance = 1e-9;
};

/// The workload `name` with its inputs drawn from `seed`; `smoke` gives a
/// tiny version that finishes in well under a second.  Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, bool smoke,
                       std::uint64_t seed);

/// Generates the workload's dataset in memory (for kLibsvmTwin this is
/// the content of the file set-up reads).
sa::data::Dataset generate(const Workload& w);

/// How far a solve got, from the public core:: evaluators on the full
/// dataset.
///   Lasso, group Lasso: ratio = f(x)/f(0); improved when f(x) < f(0).
///   SVM: ratio = D(α)/P(0), the dual objective over the primal one at
///   zero; improved when D(α) > D(0) = 0.  Dual coordinate ascent raises
///   D monotonically, while P(x) of a solve that has not yet seen every
///   point can lie far above P(0), so the SVM gate is on the dual.  It
///   also checks that x is the primal image Aᵀ(b∘α) of the returned α and
///   that α is dual feasible.
struct Progress {
  double ratio = 0.0;
  bool improved = false;
  std::string error;  ///< non-empty when the result is malformed
};
Progress progress(const Workload& w, const sa::data::Dataset& d,
                  const sa::core::SolveResult& r);

}  // namespace e2e
