// Tests for the LIBSVM reader/writer.
#include "data/libsvm_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace sa::data {
namespace {

TEST(LibsvmRead, ParsesBasicFile) {
  std::istringstream in("+1 1:0.5 3:2\n-1 2:1.5\n");
  const Dataset d = read_libsvm(in);
  EXPECT_EQ(d.num_points(), 2u);
  EXPECT_EQ(d.num_features(), 3u);
  EXPECT_EQ(d.nnz(), 3u);
  EXPECT_DOUBLE_EQ(d.b[0], 1.0);
  EXPECT_DOUBLE_EQ(d.b[1], -1.0);
  EXPECT_DOUBLE_EQ(d.a.to_dense()(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(d.a.to_dense()(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(d.a.to_dense()(1, 1), 1.5);
}

TEST(LibsvmRead, HandlesEmptyLinesAndComments) {
  std::istringstream in("\n# full comment line\n+1 1:1 # trailing comment\n\n");
  const Dataset d = read_libsvm(in);
  EXPECT_EQ(d.num_points(), 1u);
  EXPECT_EQ(d.nnz(), 1u);
}

TEST(LibsvmRead, PointWithNoFeaturesIsAllowed) {
  std::istringstream in("3.5\n-1 1:2\n");
  const Dataset d = read_libsvm(in);
  EXPECT_EQ(d.num_points(), 2u);
  EXPECT_EQ(d.a.row_nnz(0), 0u);
  EXPECT_DOUBLE_EQ(d.b[0], 3.5);
}

TEST(LibsvmRead, RegressionTargetsSupported) {
  std::istringstream in("2.75 1:1\n-0.5 1:2\n");
  const Dataset d = read_libsvm(in);
  EXPECT_FALSE(d.has_binary_labels());
  EXPECT_DOUBLE_EQ(d.b[0], 2.75);
}

TEST(LibsvmRead, RespectsDeclaredFeatureCount) {
  std::istringstream in("+1 2:1\n");
  LibsvmReadOptions opts;
  opts.num_features = 10;
  const Dataset d = read_libsvm(in, opts);
  EXPECT_EQ(d.num_features(), 10u);
}

TEST(LibsvmRead, RejectsIndexBeyondDeclaredCount) {
  std::istringstream in("+1 11:1\n");
  LibsvmReadOptions opts;
  opts.num_features = 10;
  EXPECT_THROW(read_libsvm(in, opts), sa::PreconditionError);
}

TEST(LibsvmRead, ZeroBasedMode) {
  std::istringstream in("+1 0:5\n");
  LibsvmReadOptions opts;
  opts.zero_based = true;
  const Dataset d = read_libsvm(in, opts);
  EXPECT_DOUBLE_EQ(d.a.to_dense()(0, 0), 5.0);
}

TEST(LibsvmRead, RejectsZeroIndexInOneBasedMode) {
  std::istringstream in("+1 0:5\n");
  EXPECT_THROW(read_libsvm(in), sa::PreconditionError);
}

TEST(LibsvmRead, RejectsNonIncreasingIndices) {
  std::istringstream in("+1 2:1 2:2\n");
  EXPECT_THROW(read_libsvm(in), sa::PreconditionError);
  std::istringstream in2("+1 3:1 2:2\n");
  EXPECT_THROW(read_libsvm(in2), sa::PreconditionError);
}

TEST(LibsvmRead, RejectsMalformedTokens) {
  std::istringstream bad_pair("+1 1\n");
  EXPECT_THROW(read_libsvm(bad_pair), sa::PreconditionError);
  std::istringstream bad_value("+1 1:abc\n");
  EXPECT_THROW(read_libsvm(bad_value), sa::PreconditionError);
  std::istringstream bad_index("+1 x:1\n");
  EXPECT_THROW(read_libsvm(bad_index), sa::PreconditionError);
}

/// The message of the PreconditionError `f` throws ("" when none).
template <typename F>
std::string rejection(F&& f) {
  try {
    f();
  } catch (const sa::PreconditionError& error) {
    return error.what();
  }
  return "";
}

TEST(LibsvmRead, RejectsNonFiniteTokensNamingTheLine) {
  // std::from_chars accepts these spellings; the reader must not.
  for (const std::string token : {"nan", "NaN", "inf", "-inf", "infinity"}) {
    std::istringstream value("+1 1:0.5\n-1 2:" + token + "\n");
    const std::string what = rejection([&] { read_libsvm(value); });
    EXPECT_NE(what.find("non-finite"), std::string::npos) << token;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    std::istringstream label("+1 1:0.5\n\n" + token + " 2:1\n");
    const std::string label_what = rejection([&] { read_libsvm(label); });
    EXPECT_NE(label_what.find("line 3"), std::string::npos) << label_what;
  }
}

TEST(LibsvmFileIo, ReadFileRejectsNonFiniteValues) {
  const std::string path = ::testing::TempDir() + "/sa_opt_nan.libsvm";
  {
    std::ofstream out(path);
    out << "+1 1:1 2:2\n-1 1:0.5\n+1 3:nan\n";
  }
  const std::string what = rejection([&] { read_libsvm_file(path); });
  EXPECT_NE(what.find("'nan' on line 3"), std::string::npos) << what;
}

TEST(DatasetValidate, RejectsNonFiniteValuesNamingRowAndColumn) {
  Dataset d;
  d.a = la::CsrMatrix::from_triplets(
      3, 4, {{0, 0, 1.0}, {1, 1, 2.0}, {1, 3, std::nan("")}, {2, 2, 1.0}});
  d.b = {1.0, -1.0, 1.0};
  std::string what = rejection([&] { d.validate(); });
  EXPECT_NE(what.find("row 1, column 3"), std::string::npos) << what;

  d.a = la::CsrMatrix::from_triplets(
      3, 4, {{0, 0, 1.0}, {2, 0, -INFINITY}, {2, 2, INFINITY}});
  what = rejection([&] { d.validate(); });
  EXPECT_NE(what.find("row 2, column 0"), std::string::npos) << what;

  d.a = la::CsrMatrix::from_triplets(3, 4, {{0, 0, 1.0}});
  d.b = {1.0, INFINITY, std::nan("")};
  what = rejection([&] { d.validate(); });
  EXPECT_NE(what.find("label inf in row 1"), std::string::npos) << what;

  d.b = {1.0, -1.0, 0.5};
  EXPECT_NO_THROW(d.validate());
}

TEST(LibsvmRead, MissingFileThrows) {
  EXPECT_THROW(read_libsvm_file("/nonexistent/path.libsvm"),
               sa::PreconditionError);
}

TEST(LibsvmRead, EmptyStreamYieldsEmptyDataset) {
  std::istringstream in("");
  const Dataset d = read_libsvm(in);
  EXPECT_EQ(d.num_points(), 0u);
  EXPECT_EQ(d.num_features(), 0u);
}

TEST(LibsvmWrite, RoundTripsThroughText) {
  std::istringstream in("+1 1:0.5 3:2\n-1 2:1.5\n2.5\n");
  LibsvmReadOptions opts;
  opts.num_features = 4;
  const Dataset original = read_libsvm(in, opts);

  std::ostringstream out;
  write_libsvm(out, original);
  std::istringstream back(out.str());
  LibsvmReadOptions opts2;
  opts2.num_features = 4;
  const Dataset round = read_libsvm(back, opts2);

  EXPECT_EQ(round.num_points(), original.num_points());
  EXPECT_EQ(round.nnz(), original.nnz());
  EXPECT_EQ(round.b, original.b);
  EXPECT_LT(round.a.to_dense().max_abs_diff(original.a.to_dense()), 1e-12);
}

TEST(LibsvmWrite, UsesOneBasedIndices) {
  Dataset d;
  d.name = "tiny";
  d.a = la::CsrMatrix::from_triplets(1, 2, {{0, 0, 1.0}});
  d.b = {1.0};
  std::ostringstream out;
  write_libsvm(out, d);
  EXPECT_EQ(out.str(), "1 1:1\n");
}

TEST(LibsvmFileIo, WriteThenReadFromDisk) {
  Dataset d;
  d.name = "disk";
  d.a = la::CsrMatrix::from_triplets(2, 3,
                                     {{0, 0, 1.5}, {1, 2, -2.0}});
  d.b = {1.0, -1.0};
  const std::string path = ::testing::TempDir() + "/sa_opt_test.libsvm";
  write_libsvm_file(path, d);
  LibsvmReadOptions opts;
  opts.num_features = 3;
  const Dataset back = read_libsvm_file(path, opts);
  EXPECT_EQ(back.num_points(), 2u);
  EXPECT_LT(back.a.to_dense().max_abs_diff(d.a.to_dense()), 1e-12);
  EXPECT_EQ(back.name, path);
}

}  // namespace
}  // namespace sa::data
