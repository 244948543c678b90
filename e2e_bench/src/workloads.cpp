#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/objective.hpp"
#include "core/prox.hpp"

namespace e2e {

namespace core = sa::core;
namespace data = sa::data;

namespace {

data::RegressionConfig regression(std::size_t m, std::size_t n,
                                  double density, std::uint64_t seed) {
  data::RegressionConfig c;
  c.num_points = m;
  c.num_features = n;
  c.density = density;
  c.seed = seed;
  return c;
}

}  // namespace

// H is short enough that a 20 s run holds ten or more solves, so the
// run's median is steady; see README.md, "Workloads".
Workload make_workload(const std::string& name, bool smoke,
                       std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "lasso-sparse-p2") {
    w.ranks = 2;
    w.spec = core::SolverSpec::make("sa-lasso")
                 .with_lambda(0.05)
                 .with_block_size(8)
                 .with_s(16)
                 .with_acceleration(true)
                 .with_max_iterations(smoke ? 256 : 2000);
    w.regression = smoke ? regression(2000, 200, 0.02, seed)
                         : regression(40000, 2000, 0.005, seed);
  } else if (name == "svm-sync-p2") {
    w.ranks = 2;
    w.spec = core::SolverSpec::make("svm")
                 .with_lambda(1.0)
                 .with_loss(core::SvmLoss::kL2)
                 .with_max_iterations(smoke ? 500 : 5000);
    w.source = DataSource::kLibsvmTwin;
    w.twin = data::PaperDataset::kRcv1Binary;
    w.shrink = smoke ? 20.0 : 1.0;
  } else if (name == "lasso-dense-p1") {
    w.ranks = 1;
    w.spec = core::SolverSpec::make("sa-lasso")
                 .with_lambda(0.05)
                 .with_block_size(8)
                 .with_s(16)
                 .with_acceleration(true)
                 .with_max_iterations(smoke ? 128 : 500);
    w.source = DataSource::kPaperTwin;
    w.twin = data::PaperDataset::kEpsilon;
    w.shrink = smoke ? 200.0 : 20.0;
  } else if (name == "glasso-ckpt-p2") {
    w.ranks = 2;
    w.group_size = 8;
    w.checkpoint_every = 32;
    w.regression = smoke ? regression(2000, 256, 0.05, seed)
                         : regression(20000, 2048, 0.01, seed);
    w.spec = core::SolverSpec::make("sa-group-lasso")
                 .with_lambda(0.05)
                 .with_s(16)
                 .with_groups(core::GroupStructure::uniform(
                     w.regression.num_features, w.group_size))
                 .with_max_iterations(smoke ? 256 : 1000);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.spec.seed = seed;
  // The reference is the other variant: classical for sa-*, SA for svm.
  w.reference = w.spec;
  if (w.spec.is_sa()) {
    w.reference.algorithm = w.spec.algorithm.substr(3);
  } else {
    w.reference.algorithm = "sa-" + w.spec.algorithm;
    w.reference.s = 16;
  }
  return w;
}

data::Dataset generate(const Workload& w) {
  switch (w.source) {
    case DataSource::kRegression:
      return data::make_regression(w.regression).dataset;
    case DataSource::kPaperTwin:
    case DataSource::kLibsvmTwin:
      return data::make_paper_twin(w.twin, w.shrink, w.spec.seed);
  }
  throw std::logic_error("generate: unhandled data source");
}

namespace {

bool all_finite(const std::vector<double>& v) {
  for (const double e : v)
    if (!std::isfinite(e)) return false;
  return true;
}

}  // namespace

Progress progress(const Workload& w, const data::Dataset& d,
                  const core::SolveResult& r) {
  Progress p;
  const core::SolverSpec& spec = w.spec;
  const std::vector<double> zeros(d.num_features(), 0.0);
  if (r.x.size() != d.num_features() || !all_finite(r.x)) {
    p.error = "solution x has the wrong length or is not finite";
    return p;
  }
  switch (spec.family()) {
    case core::SolverFamily::kLasso: {
      const double f = core::lasso_objective(d.a, d.b, r.x, spec.lambda);
      const double f0 = core::lasso_objective(d.a, d.b, zeros, spec.lambda);
      p.ratio = f / f0;
      p.improved = f < f0;
      return p;
    }
    case core::SolverFamily::kGroupLasso: {
      const double f = core::group_lasso_objective(d.a, d.b, r.x, spec.lambda,
                                                   spec.groups);
      const double f0 = core::group_lasso_objective(d.a, d.b, zeros,
                                                    spec.lambda, spec.groups);
      p.ratio = f / f0;
      p.improved = f < f0;
      return p;
    }
    case core::SolverFamily::kSvm: {
      if (r.alpha.size() != d.num_points() || !all_finite(r.alpha)) {
        p.error = "dual variables have the wrong length or are not finite";
        return p;
      }
      const core::SvmConstants c = core::SvmConstants::make(spec.loss,
                                                            spec.lambda);
      double scale = 1.0;
      std::vector<double> yb(d.num_points());
      for (std::size_t i = 0; i < yb.size(); ++i) {
        if (r.alpha[i] < 0.0 || r.alpha[i] > c.nu) {
          p.error = "dual variables are not feasible";
          return p;
        }
        yb[i] = d.b[i] * r.alpha[i];
      }
      std::vector<double> image(d.num_features());
      d.a.spmv_transpose(yb, image);
      double diff = 0.0;
      for (std::size_t j = 0; j < image.size(); ++j) {
        scale = std::max(scale, std::abs(image[j]));
        diff = std::max(diff, std::abs(image[j] - r.x[j]));
      }
      if (diff > 1e-9 * scale) {
        p.error = "x differs from the primal image of alpha by " +
                  std::to_string(diff);
        return p;
      }
      const double dual = core::svm_dual_objective(r.alpha, r.x, c.gamma);
      const double p0 = core::svm_primal_objective(d.a, d.b, zeros,
                                                   spec.lambda, spec.loss);
      p.ratio = dual / p0;
      p.improved = dual > 0.0;
      return p;
    }
    case core::SolverFamily::kUnknown:
      break;
  }
  p.error = "unknown solver family";
  return p;
}

}  // namespace e2e
