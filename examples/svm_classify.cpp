// Binary classification with synchronization-avoiding dual CD SVM.
//
//   $ ./svm_classify [train.libsvm [test.libsvm]]
//
// With no arguments, generates a train/test split from a planted
// hyperplane.  Trains SVM-L2 with the SA solver until the duality gap
// drops below tolerance, reports train/test accuracy, support-vector
// count, and the communication metered along the way.
#include <cstdio>

#include "core/objective.hpp"
#include "core/registry.hpp"
#include "core/trace_io.hpp"
#include "data/libsvm_io.hpp"
#include "data/synthetic.hpp"

int main(int argc, char** argv) {
  sa::data::Dataset train, test;
  if (argc > 1) {
    train = sa::data::read_libsvm_file(argv[1]);
    if (argc > 2) {
      sa::data::LibsvmReadOptions opts;
      opts.num_features = train.num_features();
      test = sa::data::read_libsvm_file(argv[2], opts);
    } else {
      test = train;
    }
  } else {
    // One draw from a planted hyperplane, split 75/25 into train/test so
    // both shares follow the same distribution.
    sa::data::ClassificationConfig config;
    config.num_points = 800;
    config.num_features = 150;
    config.density = 0.2;
    config.margin = 0.3;
    config.label_noise = 0.02;
    const sa::data::Dataset all = sa::data::make_classification(config);
    const std::size_t cut = 600;
    train.name = "train";
    train.a = all.a.row_slice(0, cut);
    train.b.assign(all.b.begin(), all.b.begin() + cut);
    test.name = "test";
    test.a = all.a.row_slice(cut, all.num_points());
    test.b.assign(all.b.begin() + cut, all.b.end());
  }
  std::printf("train: %zu points x %zu features (%.1f%% nnz)\n",
              train.num_points(), train.num_features(),
              100.0 * train.density());

  const sa::core::SolverSpec spec =
      sa::core::SolverSpec::make("sa-svm")
          .with_lambda(1.0)
          .with_loss(sa::core::SvmLoss::kL2)
          .with_max_iterations(200000)
          .with_trace_every(2000)
          .with_gap_tolerance(1e-6)
          .with_s(64);  // one communication round per 64 dual updates

  const sa::core::SolveResult model = sa::core::solve(train, spec);

  std::printf("\nduality gap trace:\n%12s %16s\n", "iteration", "gap");
  for (const auto& point : model.trace.points)
    std::printf("%12zu %16.6e\n", point.iteration, point.objective);

  std::size_t support_vectors = 0;
  for (double a : model.alpha)
    if (a != 0.0) ++support_vectors;

  std::printf("\ntrain accuracy: %.2f%%\n",
              100.0 * sa::core::svm_accuracy(train.a, train.b, model.x));
  std::printf("test  accuracy: %.2f%%\n",
              100.0 * sa::core::svm_accuracy(test.a, test.b, model.x));
  std::printf("support vectors: %zu of %zu points\n", support_vectors,
              train.num_points());
  std::printf("stopped: %s\n", sa::core::to_string(model.stop_reason));
  std::printf("trace summary: %s\n",
              sa::core::summarize_trace(model.trace).c_str());
  return 0;
}
