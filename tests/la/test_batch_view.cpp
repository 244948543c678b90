// Zero-copy pipeline parity tests: the fused view-based kernel
// sampled_gram_and_dots() must be BIT-identical to the copy-based
// gather_columns + concat + gram + pack_upper + dot_all path it replaces,
// on both storage kinds (sparse CSC views and densified staging) and for
// both solver modes (accelerated = two dot sections, plain = one); the
// chunk-major pack kernels must reproduce it chunk by chunk.
#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/detail.hpp"
#include "core/local_data.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "la/batch_view.hpp"
#include "la/vector_batch.hpp"
#include "la/vector_ops.hpp"
#include "la/workspace.hpp"

namespace sa::la {
namespace {

data::Dataset make_dataset(double density, std::uint64_t seed) {
  data::RegressionConfig cfg;
  cfg.num_points = 120;
  cfg.num_features = 64;
  cfg.density = density;
  cfg.support_size = 8;
  cfg.seed = seed;
  return data::make_regression(cfg).dataset;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  data::SplitMix64 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.next_normal();
  return v;
}

/// The seed copy-based pipeline, reproduced verbatim: per-block gathers,
/// concat, full Gram, pack_upper, then one dot_all per right-hand side.
std::vector<double> copy_pipeline(const core::RowBlock& block,
                                  std::span<const std::size_t> cols,
                                  std::size_t blocks,
                                  std::span<const std::vector<double>> rhs) {
  const std::size_t mu = cols.size() / blocks;
  std::vector<VectorBatch> batches;
  for (std::size_t t = 0; t < blocks; ++t)
    batches.push_back(block.gather_columns(std::vector<std::size_t>(
        cols.begin() + t * mu, cols.begin() + (t + 1) * mu)));
  const VectorBatch big = concat(batches);
  const std::size_t k = big.size();
  const std::size_t tri = core::detail::triangle_size(k);
  std::vector<double> buffer(tri + rhs.size() * k);
  core::detail::pack_upper(big.gram(),
                           std::span<double>(buffer.data(), tri));
  for (std::size_t sct = 0; sct < rhs.size(); ++sct) {
    const std::vector<double> dots = big.dot_all(rhs[sct]);
    std::copy(dots.begin(), dots.end(), buffer.begin() + tri + sct * k);
  }
  return buffer;
}

std::vector<double> view_pipeline(const core::RowBlock& block,
                                  std::span<const std::size_t> cols,
                                  std::span<const std::vector<double>> rhs,
                                  Workspace& ws) {
  const BatchView view = block.view_columns(cols, ws);
  std::vector<std::span<const double>> xs(rhs.begin(), rhs.end());
  std::vector<double> buffer(fused_buffer_size(view.size(), xs.size()));
  sampled_gram_and_dots(view, xs, buffer);
  return buffer;
}

class StoragePairSweep : public ::testing::TestWithParam<double> {};

TEST_P(StoragePairSweep, FusedKernelBitIdenticalToCopyPipeline) {
  // density 0.05 → sparse CSC views; 0.5 → densified staging views.
  const data::Dataset d = make_dataset(GetParam(), 31);
  const core::RowBlock block(
      d, data::Partition::block(d.num_points(), 1), 0);
  const std::size_t m = block.local_rows();

  data::CoordinateSampler sampler(d.num_features(), 4, 7);
  Workspace ws;
  for (const std::size_t blocks : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}}) {
    std::vector<std::size_t> cols(blocks * 4);
    for (std::size_t t = 0; t < blocks; ++t)
      sampler.next_into(std::span<std::size_t>(cols).subspan(t * 4, 4));

    // Accelerated mode: two right-hand sides; plain mode: one.
    const std::array<std::vector<double>, 2> rhs{random_vector(m, 11),
                                                 random_vector(m, 12)};
    for (const std::size_t sections : {std::size_t{2}, std::size_t{1}}) {
      const std::span<const std::vector<double>> xs(rhs.data(), sections);
      const std::vector<double> want =
          copy_pipeline(block, cols, blocks, xs);
      const std::vector<double> got = view_pipeline(block, cols, xs, ws);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i], want[i])
            << "entry " << i << " blocks " << blocks << " sections "
            << sections;
    }
  }
}

// The round pipeline packs the two halves at different times (the Gram
// triangle speculatively, the dot sections after the previous apply), so
// the split entry points must reproduce the fused kernel bit-for-bit on
// both storage kinds and in both solver modes.
TEST_P(StoragePairSweep, SplitGramAndDotsBitIdenticalToFusedKernel) {
  const data::Dataset d = make_dataset(GetParam(), 31);
  const core::RowBlock block(
      d, data::Partition::block(d.num_points(), 1), 0);
  const std::size_t m = block.local_rows();

  data::CoordinateSampler sampler(d.num_features(), 4, 7);
  Workspace ws_fused, ws_split;
  for (const std::size_t blocks : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}}) {
    std::vector<std::size_t> cols(blocks * 4);
    for (std::size_t t = 0; t < blocks; ++t)
      sampler.next_into(std::span<std::size_t>(cols).subspan(t * 4, 4));
    const std::size_t k = cols.size();
    const std::size_t tri = core::detail::triangle_size(k);

    const std::array<std::vector<double>, 2> rhs{random_vector(m, 11),
                                                 random_vector(m, 12)};
    for (const std::size_t sections : {std::size_t{2}, std::size_t{1}}) {
      const std::span<const std::vector<double>> xs_vecs(rhs.data(),
                                                         sections);
      const std::vector<double> want =
          view_pipeline(block, cols, xs_vecs, ws_fused);

      const BatchView view = block.view_columns(cols, ws_split);
      std::vector<std::span<const double>> xs(xs_vecs.begin(),
                                              xs_vecs.end());
      std::vector<double> got(tri + sections * k);
      const std::array<std::size_t, 2> whole{0, view.dim()};
      sampled_gram_chunks(view, whole, got.size(), got);
      sampled_dots_chunks(view, xs, whole, got.size(),
                          std::span<double>(got).subspan(tri));
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i], want[i])
            << "entry " << i << " blocks " << blocks << " sections "
            << sections;
    }
  }
}

/// The view of chunk [b, e) alone, built the slow way: sparse members
/// narrowed to their in-range nonzeros by binary search (absolute indices
/// kept), dense members shifted to the range.
BatchView chunk_view(const BatchView& y, std::size_t b, std::size_t e,
                     std::vector<std::span<const std::size_t>>& idx,
                     std::vector<std::span<const double>>& val,
                     std::vector<const double*>& rows) {
  const std::size_t k = y.size();
  if (y.is_dense()) {
    rows.resize(k);
    for (std::size_t i = 0; i < k; ++i) rows[i] = y.row_pointers()[i] + b;
    return BatchView::dense(rows, e - b);
  }
  idx.resize(k);
  val.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::span<const std::size_t> mi = y.member_indices(i);
    const auto lo = static_cast<std::size_t>(
        std::lower_bound(mi.begin(), mi.end(), b) - mi.begin());
    const auto hi = static_cast<std::size_t>(
        std::lower_bound(mi.begin(), mi.end(), e) - mi.begin());
    idx[i] = mi.subspan(lo, hi - lo);
    val[i] = y.member_values(i).subspan(lo, hi - lo);
  }
  return BatchView::sparse(idx, val, y.dim());
}

// The chunk-major pack kernels write every owned chunk's partial in one
// call.  Each partial must be bitwise the fused kernel on that chunk's
// sub-slices, for k ∈ {1, 8, 128}, on grids with empty chunks, and on a
// rank slice that starts mid-grid (and mid-chunk); the words between the
// strided chunk sections must stay untouched.
TEST_P(StoragePairSweep, ChunkPartialsBitIdenticalToFusedKernelPerChunk) {
  const data::Dataset d = make_dataset(GetParam(), 31);
  // Rank 1 of a split at row 37: its slice is global rows [37, 120).
  const data::Partition rows({0, 37, d.num_points()});
  const core::RowBlock block(d, rows, 1);
  const std::size_t m = block.local_rows();
  ASSERT_EQ(m, 83u);
  const std::array<std::vector<double>, 2> rhs{random_vector(m, 21),
                                               random_vector(m, 22)};

  // Slice-local chunk boundaries.  Grid 1: a global grid of 10-row chunks
  // clipped to the slice (a 3-row head chunk, then whole chunks).  Grid 2:
  // empty chunks at the front, middle and end.  Grid 3: one chunk.
  const std::vector<std::vector<std::size_t>> grids{
      {0, 3, 13, 23, 33, 43, 53, 63, 73, 83},
      {0, 0, 5, 5, 5, 40, 41, 83, 83},
      {0, 83}};
  data::SplitMix64 rng(9);
  Workspace ws;
  for (const std::size_t k : {std::size_t{1}, std::size_t{8},
                              std::size_t{128}}) {
    // Members drawn with replacement (repeats allowed, as in SVM rounds).
    std::vector<std::size_t> cols(k);
    for (std::size_t& c : cols)
      c = static_cast<std::size_t>(rng.next_below(d.num_features()));
    const BatchView view = block.view_columns(cols, ws);
    ASSERT_EQ(view.is_dense(), GetParam() > 0.1);
    const std::size_t tri = core::detail::triangle_size(k);
    for (const std::size_t sections : {std::size_t{1}, std::size_t{2}}) {
      const std::vector<std::span<const double>> xs(rhs.begin(),
                                                    rhs.begin() + sections);
      const std::size_t stride = tri + sections * k + 3;  // gap of 3
      for (const std::vector<std::size_t>& bounds : grids) {
        const std::size_t nc = bounds.size() - 1;
        std::vector<double> wire(nc * stride, 7.0);
        sampled_gram_chunks(view, bounds, stride, wire);
        sampled_dots_chunks(view, xs, bounds, stride,
                            std::span<double>(wire).subspan(tri));

        std::vector<std::span<const std::size_t>> idx;
        std::vector<std::span<const double>> val;
        std::vector<const double*> ptrs;
        for (std::size_t c = 0; c < nc; ++c) {
          const std::size_t b = bounds[c];
          const std::size_t e = bounds[c + 1];
          const BatchView sub = chunk_view(view, b, e, idx, val, ptrs);
          // Dense sub-views read the same range of the right-hand sides;
          // sparse ones gather through them whole.
          std::vector<std::span<const double>> sub_xs;
          for (const std::span<const double>& x : xs)
            sub_xs.push_back(view.is_dense() ? x.subspan(b, e - b) : x);
          std::vector<double> want(fused_buffer_size(k, sections));
          sampled_gram_and_dots(sub, sub_xs, want);
          for (std::size_t w = 0; w < want.size(); ++w)
            ASSERT_EQ(wire[c * stride + w], want[w])
                << "k " << k << " sections " << sections << " chunk " << c
                << " [" << b << ", " << e << ") entry " << w;
          for (std::size_t w = want.size(); w < stride; ++w)
            ASSERT_EQ(wire[c * stride + w], 7.0) << "gap word overwritten";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, StoragePairSweep,
                         ::testing::Values(0.05, 0.5));

TEST(BatchView, ColBlockRowViewsMatchGatherPath) {
  // SVM layout: sampled rows (with replacement, including repeats).
  const data::Dataset d = make_dataset(0.05, 33);
  const core::ColBlock block(
      d, data::Partition::block(d.num_features(), 1), 0);
  const std::vector<std::size_t> rows{3, 17, 3, 44, 101, 0};
  const std::vector<double> x = random_vector(block.local_cols(), 5);

  const VectorBatch batch = block.gather_rows(rows);
  const std::size_t k = batch.size();
  const std::size_t tri = core::detail::triangle_size(k);
  std::vector<double> want(tri + k);
  core::detail::pack_upper(batch.gram(),
                           std::span<double>(want.data(), tri));
  const std::vector<double> dots = batch.dot_all(x);
  std::copy(dots.begin(), dots.end(), want.begin() + tri);

  Workspace ws;
  const BatchView view = block.view_rows(rows, ws);
  const std::array<std::span<const double>, 1> xs{
      std::span<const double>(x)};
  std::vector<double> got(fused_buffer_size(k, 1));
  sampled_gram_and_dots(view, xs, got);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "entry " << i;
}

TEST(BatchView, AddScaledToMatchesVectorBatch) {
  const data::Dataset d = make_dataset(0.05, 35);
  const core::RowBlock block(
      d, data::Partition::block(d.num_points(), 1), 0);
  const std::vector<std::size_t> cols{1, 9, 30, 63};
  const VectorBatch batch = block.gather_columns(cols);
  Workspace ws;
  const BatchView view = block.view_columns(cols, ws);
  ASSERT_EQ(view.size(), batch.size());
  ASSERT_EQ(view.dim(), batch.dim());
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.member_nnz(i), batch.member_nnz(i));
    std::vector<double> a = random_vector(view.dim(), 100 + i);
    std::vector<double> b = a;
    view.add_scaled_to(i, 0.37, a);
    batch.add_scaled_to(i, 0.37, b);
    for (std::size_t p = 0; p < a.size(); ++p) EXPECT_EQ(a[p], b[p]);
  }
}

TEST(BatchView, FlopFormulasMatchVectorBatch) {
  for (const double density : {0.05, 0.5}) {
    const data::Dataset d = make_dataset(density, 37);
    const core::RowBlock block(
        d, data::Partition::block(d.num_points(), 1), 0);
    const std::vector<std::size_t> cols{2, 5, 11, 23, 47};
    const VectorBatch batch = block.gather_columns(cols);
    Workspace ws;
    const BatchView view = block.view_columns(cols, ws);
    EXPECT_EQ(view.nnz(), batch.nnz());
    EXPECT_EQ(view.gram_flops(), batch.gram_flops());
    EXPECT_EQ(view.dot_all_flops(), batch.dot_all_flops());
  }
}

TEST(BatchView, PackedUpperViewAgreesWithUnpack) {
  const std::size_t k = 7;
  std::vector<double> packed(core::detail::triangle_size(k));
  for (std::size_t i = 0; i < packed.size(); ++i)
    packed[i] = static_cast<double>(i) * 0.25 - 3.0;
  const DenseMatrix full = core::detail::unpack_upper(packed, k);
  const core::detail::PackedUpper view(packed.data(), k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j)
      EXPECT_EQ(view(i, j), full(i, j)) << i << "," << j;
}

TEST(BatchView, EmptyRankBlockProducesZeroSections) {
  // A rank that owns zero rows still participates in the collective: the
  // fused kernel must emit a fully written all-zero buffer.
  const data::Dataset d = make_dataset(0.05, 39);
  const data::Partition rows({0, d.num_points(), d.num_points()});
  const core::RowBlock block(d, rows, 1);  // rank 1 owns nothing
  ASSERT_EQ(block.local_rows(), 0u);
  Workspace ws;
  const std::vector<std::size_t> cols{0, 1, 2};
  const BatchView view = block.view_columns(cols, ws);
  const std::vector<double> empty_rhs;  // dim 0
  const std::array<std::span<const double>, 1> xs{
      std::span<const double>(empty_rhs)};
  std::vector<double> out(fused_buffer_size(3, 1), 99.0);
  sampled_gram_and_dots(view, xs, out);
  for (const double v : out) EXPECT_EQ(v, 0.0);
}

TEST(Workspace, SteadyStateReservationIsStable) {
  const data::Dataset d = make_dataset(0.05, 41);
  const core::RowBlock block(
      d, data::Partition::block(d.num_points(), 1), 0);
  Workspace ws;
  const std::vector<std::size_t> cols{4, 8, 15, 16, 23, 42};
  const std::vector<double> x = random_vector(block.local_rows(), 3);
  const std::array<std::span<const double>, 1> xs{
      std::span<const double>(x)};
  std::vector<double> out(fused_buffer_size(cols.size(), 1));

  auto run_once = [&] {
    const BatchView view = block.view_columns(cols, ws);
    sampled_gram_and_dots(view, xs, out);
  };
  run_once();
  const std::size_t after_first = ws.bytes_reserved();
  std::vector<double> first = out;
  for (int round = 0; round < 10; ++round) run_once();
  EXPECT_EQ(ws.bytes_reserved(), after_first);
  // Rebuilding the view over the same workspace reproduces the result.
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], first[i]);
}

TEST(RowBlock, ColumnNormsPrecomputedAndCorrect) {
  const data::Dataset d = make_dataset(0.05, 43);
  const core::RowBlock block(
      d, data::Partition::block(d.num_points(), 1), 0);
  const std::vector<double>& norms = block.col_norms_squared();
  ASSERT_EQ(norms.size(), d.num_features());
  for (std::size_t j = 0; j < d.num_features(); ++j) {
    const VectorBatch col = block.gather_columns({j});
    EXPECT_NEAR(norms[j], col.norm_squared(0), 1e-12);
  }
}

}  // namespace
}  // namespace sa::la
