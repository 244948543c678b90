#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.hpp"

namespace sa::data {

bool Dataset::has_binary_labels() const {
  for (double v : b) {
    if (v != 1.0 && v != -1.0) return false;
  }
  return !b.empty();
}

void Dataset::validate() const {
  SA_CHECK(b.size() == a.rows(), "Dataset: label count must equal row count");
  // NaN and Inf poison every sum they enter, and the sparse Gram kernels
  // rely on finite values (a skipped pair stands for val·(+0.0) products,
  // which are NaN for an infinite val).  One pass over the stored values;
  // the row and column are located only on the error path.
  const std::span<const double> values = a.values();
  const auto bad = std::find_if_not(values.begin(), values.end(),
                                    [](double v) { return std::isfinite(v); });
  if (bad != values.end()) {
    const auto pos = static_cast<std::size_t>(bad - values.begin());
    const std::span<const std::size_t> indptr = a.indptr();
    const auto row = static_cast<std::size_t>(
        std::upper_bound(indptr.begin(), indptr.end(), pos) -
        indptr.begin() - 1);
    throw PreconditionError("Dataset: non-finite value " +
                            std::to_string(*bad) + " in row " +
                            std::to_string(row) + ", column " +
                            std::to_string(a.indices()[pos]));
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (!std::isfinite(b[i]))
      throw PreconditionError("Dataset: non-finite label " +
                              std::to_string(b[i]) + " in row " +
                              std::to_string(i));
  }
}

DatasetSummary summarize(const Dataset& d) {
  DatasetSummary s;
  s.name = d.name;
  s.features = d.num_features();
  s.points = d.num_points();
  s.nnz_percent = 100.0 * d.density();
  return s;
}

}  // namespace sa::data
