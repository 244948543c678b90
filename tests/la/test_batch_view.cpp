// Zero-copy pipeline parity tests: the fused kernel sampled_gram_and_dots()
// on a block's views must be BIT-identical to the same kernels fed an
// owning copy of the sampled vectors (the copy-based gather the views
// replaced), on both storage kinds (sparse CSC views and densified
// staging) and for both solver modes (accelerated = two dot sections,
// plain = one); the chunk-major pack kernels must reproduce it chunk by
// chunk.  Also the BatchView basics on hand-made batches: sizes, member
// nnz, dense/sparse agreement, the add_scaled_to scatter, flop formulas; and
// the dense aliasing contract: members that share a row pointer are
// computed once, with the same bits as private copies.  The binary owns a
// counting global operator new so the aliased kernels can be shown
// allocation-free once their scratch is sized.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/annotate.hpp"
#include "core/detail.hpp"
#include "core/local_data.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "la/batch_view.hpp"
#include "la/csc.hpp"
#include "la/simd/simd.hpp"
#include "la/sparse_vector.hpp"
#include "la/vector_ops.hpp"
#include "la/workspace.hpp"

namespace {

std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  sa::common::notify_allocation();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

/// An owning copy of sampled vectors — what the zero-copy views replaced:
/// dense members as the rows of a DenseMatrix, sparse members as
/// SparseVectors.  view() presents the copy to the kernels under test.
struct Gathered {
  bool dense = false;
  std::size_t dim = 0;
  DenseMatrix rows;                   // k × dim in dense mode
  std::vector<SparseVector> members;  // k members in sparse mode

  std::size_t size() const { return dense ? rows.rows() : members.size(); }

  BatchView view(Workspace& ws) const {
    if (dense) return BatchView::of(rows, ws);
    std::span<std::span<const std::size_t>> idx =
        ws.member_index_spans(members.size());
    std::span<std::span<const double>> val =
        ws.member_value_spans(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      idx[i] = members[i].indices;
      val[i] = members[i].values;
    }
    return BatchView::sparse(idx, val, dim);
  }
};

/// Copies the given global columns of `block` (restricted to its rows);
/// storage follows the matrix density, as the block's views do.
Gathered gather_columns(const core::RowBlock& block,
                        std::span<const std::size_t> cols) {
  const CscMatrix csc(block.matrix());
  Gathered g;
  g.dense = block.matrix().density() > core::kDenseBatchThreshold;
  g.dim = block.local_rows();
  if (g.dense) g.rows = DenseMatrix(cols.size(), g.dim);
  for (std::size_t c = 0; c < cols.size(); ++c) {
    if (!g.dense) {
      g.members.push_back(csc.gather_column(cols[c]));
      continue;
    }
    const auto idx = csc.col_indices(cols[c]);
    const auto val = csc.col_values(cols[c]);
    for (std::size_t p = 0; p < idx.size(); ++p) g.rows(c, idx[p]) = val[p];
  }
  return g;
}

/// Copies the given global rows of `block` (restricted to its columns).
Gathered gather_rows(const core::ColBlock& block,
                     std::span<const std::size_t> rows) {
  const CsrMatrix& a = block.matrix();
  Gathered g;
  g.dense = a.density() > core::kDenseBatchThreshold;
  g.dim = block.local_cols();
  if (g.dense) g.rows = DenseMatrix(rows.size(), g.dim);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (!g.dense) {
      g.members.push_back(a.gather_row(rows[r]));
      continue;
    }
    const auto idx = a.row_indices(rows[r]);
    const auto val = a.row_values(rows[r]);
    for (std::size_t p = 0; p < idx.size(); ++p) g.rows(r, idx[p]) = val[p];
  }
  return g;
}

/// [upper(G) | Yᵀx₀ | …] of an owning copy: the packed Gram, then one
/// batch_dots call per right-hand side.
std::vector<double> copy_pipeline(const Gathered& copy,
                                  std::span<const std::vector<double>> rhs) {
  Workspace ws;
  const BatchView big = copy.view(ws);
  const std::size_t k = big.size();
  const std::size_t tri = core::detail::triangle_size(k);
  std::vector<double> buffer(tri + rhs.size() * k);
  sampled_gram_and_dots(big, {}, std::span<double>(buffer.data(), tri));
  for (std::size_t sct = 0; sct < rhs.size(); ++sct)
    batch_dots(big, rhs[sct],
               std::span<double>(buffer).subspan(tri + sct * k, k));
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
          copy_pipeline(gather_columns(block, cols), xs);
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

  const std::array<std::vector<double>, 1> rhs{x};
  const std::vector<double> want =
      copy_pipeline(gather_rows(block, rows), rhs);
  const std::size_t k = rows.size();

  Workspace ws;
  const BatchView view = block.view_rows(rows, ws);
  const std::array<std::span<const double>, 1> xs{
      std::span<const double>(x)};
  std::vector<double> got(fused_buffer_size(k, 1));
  sampled_gram_and_dots(view, xs, got);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "entry " << i;
}

TEST(BatchView, AddScaledToMatchesGatheredCopy) {
  const data::Dataset d = make_dataset(0.05, 35);
  const core::RowBlock block(
      d, data::Partition::block(d.num_points(), 1), 0);
  const std::vector<std::size_t> cols{1, 9, 30, 63};
  const Gathered copy = gather_columns(block, cols);
  ASSERT_FALSE(copy.dense);
  Workspace ws;
  const BatchView view = block.view_columns(cols, ws);
  ASSERT_EQ(view.size(), copy.size());
  ASSERT_EQ(view.dim(), copy.dim);
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.member_nnz(i), copy.members[i].nnz());
    std::vector<double> a = random_vector(view.dim(), 100 + i);
    std::vector<double> b = a;
    view.add_scaled_to(i, 0.37, a);
    axpy(0.37, copy.members[i], b);
    for (std::size_t p = 0; p < a.size(); ++p) EXPECT_EQ(a[p], b[p]);
  }
}

TEST(BatchView, FlopFormulasMatchClosedForms) {
  for (const double density : {0.05, 0.5}) {
    const data::Dataset d = make_dataset(density, 37);
    const core::RowBlock block(
        d, data::Partition::block(d.num_points(), 1), 0);
    const std::vector<std::size_t> cols{2, 5, 11, 23, 47};
    const Gathered copy = gather_columns(block, cols);
    // dense k(k+1)·dim; sparse Σ_j 2(j+1)·nnz_j; one dot section 2·nnz.
    const std::size_t k = copy.size();
    std::size_t nnz = k * copy.dim;
    std::size_t gram_flops = k * (k + 1) * copy.dim;
    if (!copy.dense) {
      nnz = gram_flops = 0;
      for (std::size_t j = 0; j < k; ++j) {
        nnz += copy.members[j].nnz();
        gram_flops += 2 * (j + 1) * copy.members[j].nnz();
      }
    }
    Workspace ws;
    const BatchView view = block.view_columns(cols, ws);
    EXPECT_EQ(view.nnz(), nnz);
    EXPECT_EQ(view.gram_flops(), gram_flops);
    EXPECT_EQ(view.dot_all_flops(), 2 * nnz);
  }
}

TEST(BatchView, PackedUpperViewAgreesWithUnpack) {
  const std::size_t k = 7;
  std::vector<double> packed(core::detail::triangle_size(k));
  for (std::size_t i = 0; i < packed.size(); ++i)
    packed[i] = static_cast<double>(i) * 0.25 - 3.0;
  // Unpack the row-major upper triangle the plain way.
  DenseMatrix full(k, k);
  std::size_t p = 0;
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i; j < k; ++j, ++p)
      full(i, j) = full(j, i) = packed[p];
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
    const Gathered col = gather_columns(block, std::array{j});
    EXPECT_NEAR(norms[j], nrm2_squared(col.members[0]), 1e-12);
  }
}

// ---------------------------------------------------------------------
// BatchView basics on a hand-made batch: three vectors of length 4,
// stored densely and sparsely.
// ---------------------------------------------------------------------

Gathered small_batch(bool dense) {
  Gathered g;
  g.dense = dense;
  g.dim = 4;
  if (dense) {
    g.rows = DenseMatrix(3, 4,
                         {1.0, 0.0, 2.0, 0.0,   //
                          0.0, 3.0, 0.0, 1.0,   //
                          1.0, 1.0, 1.0, 1.0});
  } else {
    g.members.push_back({4, {0, 2}, {1.0, 2.0}});
    g.members.push_back({4, {1, 3}, {3.0, 1.0}});
    g.members.push_back({4, {0, 1, 2, 3}, {1.0, 1.0, 1.0, 1.0}});
  }
  return g;
}

std::vector<double> packed_gram(const BatchView& y) {
  std::vector<double> out(fused_buffer_size(y.size(), 0));
  sampled_gram_and_dots(y, {}, out);
  return out;
}

TEST(BatchView, SizesAndDims) {
  for (const bool dense : {true, false}) {
    const Gathered g = small_batch(dense);
    Workspace ws;
    const BatchView v = g.view(ws);
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v.dim(), 4u);
    EXPECT_EQ(v.is_dense(), dense);
  }
}

TEST(BatchView, DenseAndSparseAgreeOnGram) {
  const Gathered dn = small_batch(true);
  const Gathered sp = small_batch(false);
  Workspace ws_dn, ws_sp;
  const std::vector<double> g1 = packed_gram(dn.view(ws_dn));
  const std::vector<double> g2 = packed_gram(sp.view(ws_sp));
  ASSERT_EQ(g1.size(), g2.size());
  for (std::size_t i = 0; i < g1.size(); ++i)
    EXPECT_LT(std::abs(g1[i] - g2[i]), 1e-15);
  // Diagonal: ‖v_0‖² = 5, ‖v_1‖² = 10, ‖v_2‖² = 4; entries are the
  // pairwise dots.
  EXPECT_DOUBLE_EQ(g2[packed_upper_index(0, 0, 3)], 5.0);
  EXPECT_DOUBLE_EQ(g2[packed_upper_index(1, 1, 3)], 10.0);
  EXPECT_DOUBLE_EQ(g2[packed_upper_index(2, 2, 3)], 4.0);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = i; j < 3; ++j)
      EXPECT_DOUBLE_EQ(g1[packed_upper_index(i, j, 3)],
                       dot(dn.rows.row(i), dn.rows.row(j)));
}

TEST(BatchView, DotsAgreeAcrossStorageKinds) {
  const std::vector<double> x{1.0, -1.0, 0.5, 2.0};
  const Gathered dn = small_batch(true);
  const Gathered sp = small_batch(false);
  Workspace ws_dn, ws_sp;
  std::vector<double> d1(3), d2(3);
  batch_dots(dn.view(ws_dn), x, d1);
  batch_dots(sp.view(ws_sp), x, d2);
  for (std::size_t i = 0; i < d1.size(); ++i) EXPECT_DOUBLE_EQ(d1[i], d2[i]);
  EXPECT_DOUBLE_EQ(d1[0], 2.0);   // 1·1 + 2·0.5
  EXPECT_DOUBLE_EQ(d1[1], -1.0);  // 3·(−1) + 1·2
}

TEST(BatchView, AddScaledToScatters) {
  const Gathered sp = small_batch(false);
  Workspace ws;
  std::vector<double> target(4, 1.0);
  sp.view(ws).add_scaled_to(0, 2.0, target);
  EXPECT_DOUBLE_EQ(target[0], 3.0);
  EXPECT_DOUBLE_EQ(target[1], 1.0);
  EXPECT_DOUBLE_EQ(target[2], 5.0);
  EXPECT_DOUBLE_EQ(target[3], 1.0);
}

TEST(BatchView, MemberNnzReflectsStorage) {
  const Gathered dn = small_batch(true);
  const Gathered sp = small_batch(false);
  Workspace ws_dn, ws_sp;
  EXPECT_EQ(dn.view(ws_dn).member_nnz(0), 4u);  // dense: dim
  EXPECT_EQ(sp.view(ws_sp).member_nnz(0), 2u);  // sparse: nnz
}

TEST(BatchView, GramFlopsPositiveAndLargerForDense) {
  const Gathered dn = small_batch(true);
  const Gathered sp = small_batch(false);
  Workspace ws_dn, ws_sp;
  EXPECT_GT(dn.view(ws_dn).gram_flops(), sp.view(ws_sp).gram_flops());
  EXPECT_GT(sp.view(ws_sp).gram_flops(), 0u);
}

TEST(BatchView, EmptyBatchGramIsEmpty) {
  const Gathered empty{false, 10, {}, {}};
  Workspace ws;
  const BatchView v = empty.view(ws);
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(packed_gram(v).empty());
}

// ---------------------------------------------------------------------
// Dense aliasing.  Members that share a row pointer (the same column
// drawn twice in one round) are computed once and copied to their
// repeats.  On every ISA and thread count, every dense kernel must give
// the same bits on such a view as on the same members copied into
// private rows, where no two members share a pointer.
// ---------------------------------------------------------------------

/// Restores the entry ISA and OpenMP thread count on scope exit.
class KernelSettingsGuard {
 public:
  KernelSettingsGuard() : isa_(simd::active_isa()) {
#ifdef _OPENMP
    threads_ = omp_get_max_threads();
#endif
  }
  ~KernelSettingsGuard() {
    simd::set_kernel_isa(isa_);
#ifdef _OPENMP
    omp_set_num_threads(threads_);
#endif
  }

 private:
  simd::Isa isa_;
  int threads_ = 1;
};

std::vector<simd::Isa> available_isas() {
  std::vector<simd::Isa> out;
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2})
    if (simd::isa_available(isa)) out.push_back(isa);
  return out;
}

std::vector<int> thread_counts() {
#ifdef _OPENMP
  return {1, std::max(2, omp_get_max_threads())};
#else
  return {1};
#endif
}

/// Which pool rows the k members are: all distinct; s independent draws
/// of µ distinct rows from n (a round's draw, with heavy repeats once s·µ
/// nears n); or one row k times.
enum class Draw { kDistinct, kSampled, kAllEqual };

std::vector<std::size_t> draw_members(Draw draw, std::size_t k) {
  std::vector<std::size_t> rows(k);
  switch (draw) {
    case Draw::kDistinct:
      for (std::size_t i = 0; i < k; ++i) rows[i] = (i * 37 + 5) % 128;
      break;
    case Draw::kSampled: {
      // (µ, n): the lasso-dense-p1 round (s = 16 draws of µ = 8 from
      // n = 100) at k = 128, and the same s·µ ≥ n regime at small k.
      const std::size_t mu = k == 128 ? 8 : 2;
      const std::size_t n = k == 128 ? 100 : k / 2;
      data::CoordinateSampler sampler(n, mu, 3 * k + 1);
      for (std::size_t t = 0; t < k / mu; ++t)
        sampler.next_into(std::span<std::size_t>(rows).subspan(t * mu, mu));
      break;
    }
    case Draw::kAllEqual:
      std::fill(rows.begin(), rows.end(), std::size_t{17});
      break;
  }
  return rows;
}

const char* draw_name(Draw draw) {
  switch (draw) {
    case Draw::kDistinct:
      return "distinct";
    case Draw::kSampled:
      return "sampled";
    case Draw::kAllEqual:
      return "all-equal";
  }
  return "?";
}

/// Every dense kernel's output on one view, concatenated: the chunk-major
/// Gram and dot sections on each grid (gap words included), the fused
/// kernel, and batch_dots.
std::vector<double> dense_kernel_outputs(
    const BatchView& view, std::span<const std::span<const double>> xs,
    std::span<const std::vector<std::size_t>> grids) {
  const std::size_t k = view.size();
  const std::size_t tri = k * (k + 1) / 2;
  const std::size_t stride = tri + xs.size() * k + 3;  // gap of 3
  std::vector<double> all;
  for (const std::vector<std::size_t>& bounds : grids) {
    std::vector<double> wire((bounds.size() - 1) * stride, 7.0);
    sampled_gram_chunks(view, bounds, stride, wire);
    sampled_dots_chunks(view, xs, bounds, stride,
                        std::span<double>(wire).subspan(tri));
    all.insert(all.end(), wire.begin(), wire.end());
  }
  std::vector<double> fused(fused_buffer_size(k, xs.size()), 7.0);
  sampled_gram_and_dots(view, xs, fused);
  all.insert(all.end(), fused.begin(), fused.end());
  std::vector<double> dots(k, 7.0);
  batch_dots(view, xs[0], dots);
  all.insert(all.end(), dots.begin(), dots.end());
  return all;
}

DenseMatrix random_pool(std::size_t rows, std::size_t dim,
                        std::uint64_t seed) {
  DenseMatrix pool(rows, dim);
  data::SplitMix64 rng(seed);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < dim; ++j) pool(i, j) = rng.next_normal();
  return pool;
}

TEST(DenseAliasing, AliasedViewsBitIdenticalToPrivateCopies) {
  KernelSettingsGuard guard;
  // An odd dimension (rows of both matrices at mixed alignments) over
  // two depth slices of the tile walker, and a grid with empty chunks.
  const std::size_t dim = 523;
  const std::vector<std::vector<std::size_t>> grids{
      {0, dim}, {0, 0, 100, 100, 517, 518, dim, dim}};
  const DenseMatrix pool = random_pool(128, dim, 77);
  const std::vector<double> x1 = random_vector(dim, 78);
  const std::vector<double> x2 = random_vector(dim, 79);
  const std::array<std::span<const double>, 2> xs{std::span<const double>(x1),
                                                  std::span<const double>(x2)};

  for (const simd::Isa isa : available_isas()) {
    ASSERT_TRUE(simd::set_kernel_isa(isa));
    for (const int threads : thread_counts()) {
#ifdef _OPENMP
      omp_set_num_threads(threads);
#endif
      // k = 10 is not a multiple of 4, so its Gram keeps the full walk.
      for (const std::size_t k : {std::size_t{4}, std::size_t{8},
                                  std::size_t{10}, std::size_t{128}}) {
        for (const Draw draw :
             {Draw::kDistinct, Draw::kSampled, Draw::kAllEqual}) {
          const std::vector<std::size_t> rows = draw_members(draw, k);
          const std::size_t distinct =
              std::set<std::size_t>(rows.begin(), rows.end()).size();
          ASSERT_EQ(distinct == k, draw == Draw::kDistinct);
          Workspace ws_aliased, ws_copies;
          const BatchView aliased = BatchView::of_rows(pool, rows, ws_aliased);
          DenseMatrix copies(k, dim);
          for (std::size_t i = 0; i < k; ++i)
            for (std::size_t j = 0; j < dim; ++j)
              copies(i, j) = pool(rows[i], j);
          const BatchView unaliased = BatchView::of(copies, ws_copies);

          const std::vector<double> got =
              dense_kernel_outputs(aliased, xs, grids);
          const std::vector<double> want =
              dense_kernel_outputs(unaliased, xs, grids);
          ASSERT_EQ(got.size(), want.size());
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(double)),
                    0)
              << "isa " << simd::to_cstring(isa) << " threads " << threads
              << " k " << k << " " << draw_name(draw) << " (" << distinct
              << " distinct)";
        }
      }
    }
  }
}

TEST(DenseAliasing, SecondRoundAllocatesNothing) {
  KernelSettingsGuard guard;
  const std::size_t dim = 600;
  const DenseMatrix pool = random_pool(100, dim, 81);
  const std::vector<double> x = random_vector(dim, 82);
  const std::array<std::span<const double>, 1> xs{std::span<const double>(x)};
  const std::vector<std::size_t> bounds{0, 0, 150, 300, 450, dim};
  const std::size_t k = 128;
  const std::size_t stride = fused_buffer_size(k, 1);
  std::vector<double> wire((bounds.size() - 1) * stride);
  std::vector<double> fused(fused_buffer_size(k, 1));
  std::vector<std::size_t> rows(k);
  Workspace ws;
  for (const int threads : thread_counts()) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    // Each round is a fresh draw of s = 16 blocks of µ = 8 from n = 100,
    // so the two rounds have different distinct counts.
    data::CoordinateSampler sampler(100, 8, 5);
    std::vector<std::size_t> distinct;
    auto run_round = [&] {
      for (std::size_t t = 0; t < k / 8; ++t)
        sampler.next_into(std::span<std::size_t>(rows).subspan(t * 8, 8));
      const BatchView view = BatchView::of_rows(pool, rows, ws);
      sampled_gram_chunks(view, bounds, stride, wire);
      sampled_dots_chunks(view, xs, bounds, stride,
                          std::span<double>(wire).subspan(k * (k + 1) / 2));
      sampled_gram_and_dots(view, xs, fused);
      batch_dots(view, x, std::span<double>(fused).subspan(0, k));
    };
    run_round();
    distinct.push_back(std::set<std::size_t>(rows.begin(), rows.end()).size());
    common::reset_steady_state_violations();
    common::arm_allocation_guard(true);
    const std::size_t before = g_alloc_count.load();
    run_round();
    const std::size_t allocations = g_alloc_count.load() - before;
    common::arm_allocation_guard(false);
    distinct.push_back(std::set<std::size_t>(rows.begin(), rows.end()).size());
    EXPECT_LT(distinct[0], k);
    EXPECT_NE(distinct[0], distinct[1]);
    EXPECT_EQ(allocations, 0u) << "threads " << threads;
    EXPECT_EQ(common::steady_state_violations(), 0u) << "threads " << threads;
  }
}

// ---------------------------------------------------------------------
// Chunk teams.  With fewer chunks than threads the chunk-major kernels
// share each chunk's work items with the team instead of handing whole
// chunks to threads.  The bits must equal a one-thread run, and a second
// call must allocate nothing on any thread.
// ---------------------------------------------------------------------

/// k sparse members over dim rows, each row a nonzero with probability
/// `density`, in owning storage a BatchView can alias.
struct OwnedSparse {
  std::vector<std::vector<std::size_t>> idx;
  std::vector<std::vector<double>> val;
  std::vector<std::span<const std::size_t>> idx_spans;
  std::vector<std::span<const double>> val_spans;

  OwnedSparse(std::size_t k, std::size_t dim, double density,
              std::uint64_t seed)
      : idx(k), val(k) {
    data::SplitMix64 rng(seed);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t r = 0; r < dim; ++r) {
        if (rng.next_double() >= density) continue;
        idx[i].push_back(r);
        val[i].push_back(rng.next_normal());
      }
      idx_spans.emplace_back(idx[i]);
      val_spans.emplace_back(val[i]);
    }
  }
};

TEST(ChunkTeams, FewerChunksThanThreadsBitIdenticalToOneThread) {
#ifndef _OPENMP
  GTEST_SKIP() << "built without OpenMP";
#else
  KernelSettingsGuard guard;
  constexpr int kTeam = 4;
  const std::size_t k = 128;
  // Both views clear the parallel-work threshold for the Gram and for the
  // two dot sections, so a team of kTeam threads shares every chunk.
  const std::size_t sparse_dim = 4000;
  const OwnedSparse members(k, sparse_dim, 0.35, 91);
  const BatchView sparse = BatchView::sparse(
      members.idx_spans, members.val_spans, sparse_dim);
  const std::size_t dense_dim = 1200;
  const DenseMatrix pool = random_pool(100, dense_dim, 92);
  Workspace ws;
  const BatchView dense =
      BatchView::of_rows(pool, draw_members(Draw::kSampled, k), ws);

  for (const BatchView* view : {&sparse, &dense}) {
    const std::size_t dim = view->dim();
    const std::vector<double> x1 = random_vector(dim, 93);
    const std::vector<double> x2 = random_vector(dim, 94);
    const std::array<std::span<const double>, 2> xs{
        std::span<const double>(x1), std::span<const double>(x2)};
    const std::size_t tri = k * (k + 1) / 2;
    const std::size_t stride = tri + 2 * k + 3;  // gap of 3
    // One chunk, and three chunks with an empty one.
    const std::vector<std::vector<std::size_t>> grids{
        {0, dim}, {0, 0, 2 * dim / 5, dim}};
    for (const std::vector<std::size_t>& bounds : grids) {
      const std::size_t nc = bounds.size() - 1;
      const std::string where =
          std::string(view->is_dense() ? "dense" : "sparse") + " nc " +
          std::to_string(nc);
      auto pack = [&](std::vector<double>& wire) {
        sampled_gram_chunks(*view, bounds, stride, wire);
        sampled_dots_chunks(*view, xs, bounds, stride,
                            std::span<double>(wire).subspan(tri));
      };
      std::vector<double> want(nc * stride, 7.0);
      omp_set_num_threads(1);
      pack(want);
      std::vector<double> got(nc * stride, 7.0);
      omp_set_num_threads(kTeam);
      pack(got);
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << where;

      std::fill(got.begin(), got.end(), 7.0);
      common::reset_steady_state_violations();
      common::arm_allocation_guard(true);
      const std::size_t before = g_alloc_count.load();
      pack(got);
      const std::size_t allocations = g_alloc_count.load() - before;
      common::arm_allocation_guard(false);
      EXPECT_EQ(allocations, 0u) << where;
      EXPECT_EQ(common::steady_state_violations(), 0u) << where;
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << where;
    }
  }
#endif
}

}  // namespace
}  // namespace sa::la
