// Kernel microbenchmarks (google-benchmark).
//
// These quantify the two hardware effects the paper leans on:
//   * the BLAS-3 effect: one s-column Gram (matrix-matrix) is more
//     cache-efficient than s separate dot products (BLAS-1) — the source
//     of the paper's "computation speedups" in Figure 4 (e–h);
//   * collective cost growth with rank count and payload;
// plus the replicated µ×µ block eigensolve Table I prices at O(µ³).
#include <benchmark/benchmark.h>

#include <array>
#include <span>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/local_data.hpp"
#include "core/prox.hpp"
#include "data/partition.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "la/batch_view.hpp"
#include "la/csr.hpp"
#include "la/dense.hpp"
#include "la/eigen.hpp"
#include "la/simd/simd.hpp"
#include "la/vector_ops.hpp"
#include "la/workspace.hpp"

namespace {

sa::la::DenseMatrix random_dense(std::size_t rows, std::size_t cols,
                                 std::uint64_t seed) {
  sa::data::SplitMix64 rng(seed);
  sa::la::DenseMatrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng.next_normal();
  return a;
}

/// BLAS-1 path: s separate dot products of length-m vectors.
void BM_SeparateDots(benchmark::State& state) {
  const std::size_t s = state.range(0);
  const std::size_t m = 4096;
  const sa::la::DenseMatrix a = random_dense(s, m, 1);
  std::vector<double> x(m, 1.0);
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < s; ++i) acc += sa::la::dot(a.row(i), x);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * s * m);
}
BENCHMARK(BM_SeparateDots)->Arg(8)->Arg(32)->Arg(128);

/// Naive pairwise-dot Gram — the pre-kernel-engine implementation, kept
/// as the baseline the blocked SYRK kernel is measured against.
void BM_NaiveGram(benchmark::State& state) {
  const std::size_t s = state.range(0);
  const std::size_t m = 4096;
  const sa::la::DenseMatrix a = random_dense(s, m, 1);
  for (auto _ : state) {
    sa::la::DenseMatrix g(s, s);
    for (std::size_t i = 0; i < s; ++i)
      for (std::size_t j = i; j < s; ++j)
        g(i, j) = sa::la::dot(a.row(i), a.row(j));
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() * s * (s + 1) / 2 * m);
}
BENCHMARK(BM_NaiveGram)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

/// BLAS-3 path: the packed s×s Gram of the same vectors in one call
/// (tiled SYRK with the 4×4 register micro-kernel).
void BM_BatchedGram(benchmark::State& state) {
  const std::size_t s = state.range(0);
  const std::size_t m = 4096;
  const sa::la::DenseMatrix a = random_dense(s, m, 1);
  sa::la::Workspace ws;
  const sa::la::BatchView view = sa::la::BatchView::of(a, ws);
  std::vector<double> packed(sa::la::fused_buffer_size(s, 0));
  for (auto _ : state) {
    sa::la::sampled_gram_and_dots(view, {}, packed);
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetItemsProcessed(state.iterations() * s * (s + 1) / 2 * m);
}
BENCHMARK(BM_BatchedGram)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

/// batch_dots OpenMP scaling: one large batch, swept over thread counts.
void BM_DotAllThreads(benchmark::State& state) {
#ifdef _OPENMP
  omp_set_num_threads(static_cast<int>(state.range(0)));
#endif
  const std::size_t k = 256;
  const std::size_t m = 8192;  // 2·k·m crosses the parallel threshold
  const sa::la::DenseMatrix a = random_dense(k, m, 2);
  sa::la::Workspace ws;
  const sa::la::BatchView view = sa::la::BatchView::of(a, ws);
  std::vector<double> x(m, 1.0);
  std::vector<double> dots(k);
  for (auto _ : state) {
    sa::la::batch_dots(view, x, dots);
    benchmark::DoNotOptimize(dots.data());
  }
  state.SetItemsProcessed(state.iterations() * k * m);
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
}
BENCHMARK(BM_DotAllThreads)->Arg(1)->Arg(2)->Arg(4);

/// Sparse SpMV throughput at news20-like density.
void BM_CsrSpmv(benchmark::State& state) {
  sa::data::RegressionConfig cfg;
  cfg.num_points = state.range(0);
  cfg.num_features = 2048;
  cfg.density = 0.002;
  cfg.support_size = 16;
  const sa::data::Dataset d = sa::data::make_regression(cfg).dataset;
  std::vector<double> x(d.num_features(), 1.0);
  std::vector<double> y(d.num_points());
  for (auto _ : state) {
    d.a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * d.nnz());
}
BENCHMARK(BM_CsrSpmv)->Arg(1024)->Arg(8192);

/// Gram of sampled sparse columns (the per-iteration SA kernel).
void BM_SparseColumnGram(benchmark::State& state) {
  const std::size_t k = state.range(0);
  sa::data::RegressionConfig cfg;
  cfg.num_points = 4096;
  cfg.num_features = 4096;
  cfg.density = 0.01;
  cfg.support_size = 16;
  const sa::data::Dataset d = sa::data::make_regression(cfg).dataset;
  const sa::core::RowBlock block(
      d, sa::data::Partition::block(d.num_points(), 1), 0);
  std::vector<std::size_t> cols(k);
  for (std::size_t j = 0; j < k; ++j) cols[j] = (j * 37) % d.num_features();
  sa::la::Workspace ws;
  const sa::la::BatchView view = block.view_columns(cols, ws);
  std::vector<double> packed(sa::la::fused_buffer_size(k, 0));
  for (auto _ : state) {
    sa::la::sampled_gram_and_dots(view, {}, packed);
    benchmark::DoNotOptimize(packed.data());
  }
}
BENCHMARK(BM_SparseColumnGram)->Arg(8)->Arg(64)->Arg(256);

/// Chunk-major sparse Gram at the lasso-sparse-p2 shape: one rank's
/// 20000-row block, k = 128 sampled columns at density 0.005, cut into
/// Arg equal chunks.  Each chunk gathers only the pairs that share a row,
/// so the cost should stay near the single-chunk one as the grid grows.
void BM_SparseGramChunks(benchmark::State& state) {
  const std::size_t nc = state.range(0);
  const std::size_t k = 128;
  sa::data::RegressionConfig cfg;
  cfg.num_points = 20000;
  cfg.num_features = 2000;
  cfg.density = 0.005;
  cfg.support_size = 16;
  const sa::data::Dataset d = sa::data::make_regression(cfg).dataset;
  const sa::core::RowBlock block(
      d, sa::data::Partition::block(d.num_points(), 1), 0);
  std::vector<std::size_t> cols(k);
  for (std::size_t j = 0; j < k; ++j) cols[j] = (j * 37) % d.num_features();
  sa::la::Workspace ws;
  const sa::la::BatchView view = block.view_columns(cols, ws);
  std::vector<std::size_t> bounds(nc + 1);
  for (std::size_t c = 0; c <= nc; ++c) bounds[c] = c * view.dim() / nc;
  const std::size_t tri = k * (k + 1) / 2;
  std::vector<double> out(nc * tri);
  for (auto _ : state) {
    sa::la::sampled_gram_chunks(view, bounds, tri, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SparseGramChunks)->Arg(1)->Arg(32);

/// Chunk-major dense Gram at the lasso-dense-p1 shape: a 20000-row block,
/// k = 128 members (s = 16 draws of µ = 8 columns), 64 chunks.  Drawn
/// from n = 2000 columns the members are nearly all distinct; drawn from
/// n = 100, as on the epsilon twin, about 74 of them are, and each
/// repeat's Gram entries are copied instead of computed.  Only the drawn
/// columns are materialised, one pool row per distinct column.
void BM_DenseGramChunks(benchmark::State& state, std::size_t n) {
  const std::size_t k = 128;
  const std::size_t mu = 8;
  const std::size_t dim = 20000;
  const std::size_t nc = 64;
  std::vector<std::size_t> cols(k);
  sa::data::CoordinateSampler sampler(n, mu, 2);
  for (std::size_t t = 0; t < k / mu; ++t)
    sampler.next_into(std::span<std::size_t>(cols).subspan(t * mu, mu));
  std::vector<std::size_t> pool_of(n, k);  // column → pool row (k: none)
  std::vector<std::size_t> rows(k);
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (pool_of[cols[i]] == k) pool_of[cols[i]] = distinct++;
    rows[i] = pool_of[cols[i]];
  }
  const sa::la::DenseMatrix pool = random_dense(distinct, dim, 3);
  sa::la::Workspace ws;
  const sa::la::BatchView view = sa::la::BatchView::of_rows(pool, rows, ws);
  std::vector<std::size_t> bounds(nc + 1);
  for (std::size_t c = 0; c <= nc; ++c) bounds[c] = c * dim / nc;
  const std::size_t tri = k * (k + 1) / 2;
  std::vector<double> out(nc * tri);
  for (auto _ : state) {
    sa::la::sampled_gram_chunks(view, bounds, tri, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["distinct"] = static_cast<double>(distinct);
}
BENCHMARK_CAPTURE(BM_DenseGramChunks, distinct, std::size_t{2000});
BENCHMARK_CAPTURE(BM_DenseGramChunks, sampled, std::size_t{100});

// ---------------------------------------------------------------------------
// The per-outer-iteration Gram+dots stage of the s-step solvers at
// solver-realistic shapes (s blocks of µ sampled columns, one residual dot
// section — the plain-mode wire format [upper(G) | Yᵀr̃]):
// view_columns + sampled_gram_and_dots.
// ---------------------------------------------------------------------------

sa::data::Dataset pipeline_dataset(double density) {
  sa::data::RegressionConfig cfg;
  cfg.num_points = 4096;
  cfg.num_features = 4096;
  cfg.density = density;
  cfg.support_size = 16;
  return sa::data::make_regression(cfg).dataset;
}

void bench_gram_dots_view(benchmark::State& state, double density) {
  const std::size_t s = state.range(0);
  const std::size_t mu = state.range(1);
  const sa::data::Dataset d = pipeline_dataset(density);
  const sa::core::RowBlock block(
      d, sa::data::Partition::block(d.num_points(), 1), 0);
  sa::data::CoordinateSampler sampler(d.num_features(), mu, 3);
  std::vector<double> res(block.local_rows(), 1.0);
  const std::array<std::span<const double>, 1> rhs{
      std::span<const double>(res)};
  sa::la::Workspace ws;
  for (auto _ : state) {
    const std::span<std::size_t> idx = ws.indices(0, s * mu);
    for (std::size_t t = 0; t < s; ++t)
      sampler.next_into(idx.subspan(t * mu, mu));
    const sa::la::BatchView big = block.view_columns(idx, ws);
    const std::span<double> buffer =
        ws.doubles(0, sa::la::fused_buffer_size(s * mu, 1));
    sa::la::sampled_gram_and_dots(big, rhs, buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetItemsProcessed(state.iterations() * s * mu);
}

// news20-like density: the regime where the paper's SA solvers live.
void BM_SparseGramDotsView(benchmark::State& state) {
  bench_gram_dots_view(state, 0.002);
}
void BM_DenseGramDotsView(benchmark::State& state) {
  bench_gram_dots_view(state, 0.5);
}
BENCHMARK(BM_SparseGramDotsView)
    ->Args({1, 8})->Args({4, 8})->Args({16, 8})
    ->Args({1, 64})->Args({4, 64})->Args({16, 64});
BENCHMARK(BM_DenseGramDotsView)
    ->Args({1, 8})->Args({4, 8})->Args({16, 8})
    ->Args({1, 64})->Args({4, 64})->Args({16, 64});

// ---------------------------------------------------------------------------
// Per-ISA kernel matrix: the fused sampled_gram_and_dots hot path at every
// dispatchable ISA level (scalar / sse2 / avx2) × {sparse, dense} ×
// s ∈ {1, 4, 16}, single-thread, with a GFLOP/s counter.  This is the
// committed-speedup evidence for the SIMD plane (BENCH_kernels.json at the
// repo root and the README table): avx2 vs scalar on the same config is
// the dispatch win, scalar matches the pre-dispatch numbers.
// ---------------------------------------------------------------------------

void bench_kernel_isa_gram_dots(benchmark::State& state,
                                sa::la::simd::Isa isa, double density) {
  if (!sa::la::simd::isa_available(isa)) {
    state.SkipWithError("ISA level not available on this build/machine");
    return;
  }
  const sa::la::simd::Isa entry = sa::la::simd::active_isa();
  sa::la::simd::set_kernel_isa(isa);

  const std::size_t s = state.range(0);
  const std::size_t mu = 64;
  const sa::data::Dataset d = pipeline_dataset(density);
  const sa::core::RowBlock block(
      d, sa::data::Partition::block(d.num_points(), 1), 0);
  sa::data::CoordinateSampler sampler(d.num_features(), mu, 3);
  std::vector<double> res(block.local_rows(), 1.0);
  const std::array<std::span<const double>, 1> rhs{
      std::span<const double>(res)};
  sa::la::Workspace ws;
  double flops = 0.0;
  for (auto _ : state) {
    const std::span<std::size_t> idx = ws.indices(0, s * mu);
    for (std::size_t t = 0; t < s; ++t)
      sampler.next_into(idx.subspan(t * mu, mu));
    const sa::la::BatchView big = block.view_columns(idx, ws);
    const std::span<double> buffer =
        ws.doubles(0, sa::la::fused_buffer_size(s * mu, 1));
    sa::la::sampled_gram_and_dots(big, rhs, buffer);
    benchmark::DoNotOptimize(buffer.data());
    flops += static_cast<double>(big.gram_flops() + big.dot_all_flops());
  }
  state.counters["GFLOP/s"] =
      benchmark::Counter(flops * 1e-9, benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * s * mu);

  sa::la::simd::set_kernel_isa(entry);
}

#define SA_KERNEL_ISA_BENCH(name, isa, density)                      \
  void name(benchmark::State& state) {                               \
    bench_kernel_isa_gram_dots(state, sa::la::simd::Isa::isa,        \
                               density);                             \
  }                                                                  \
  BENCHMARK(name)->Arg(1)->Arg(4)->Arg(16)

SA_KERNEL_ISA_BENCH(BM_KernelGramDots_scalar_sparse, kScalar, 0.02);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_sse2_sparse, kSse2, 0.02);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_avx2_sparse, kAvx2, 0.02);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_scalar_dense, kScalar, 0.5);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_sse2_dense, kSse2, 0.5);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_avx2_dense, kAvx2, 0.5);

#undef SA_KERNEL_ISA_BENCH

/// Block Lipschitz constant: largest_eigenvalue_psd on µ×µ block Grams
/// A_Jᵀ·A_J of µ sampled columns of the lasso-sparse-p2 data (40000×2000,
/// density 0.005, seed 1).  200 blocks are built once, outside the timed
/// loop, and solved in turn through one pre-sized scratch.
void BM_BlockEigen(benchmark::State& state) {
  const std::size_t mu = state.range(0);
  static const sa::data::Dataset d = [] {
    sa::data::RegressionConfig cfg;
    cfg.num_points = 40000;
    cfg.num_features = 2000;
    cfg.density = 0.005;
    cfg.seed = 1;
    return sa::data::make_regression(cfg).dataset;
  }();
  const sa::core::RowBlock block(
      d, sa::data::Partition::block(d.num_points(), 1), 0);
  sa::data::CoordinateSampler sampler(d.num_features(), mu, 1);
  sa::la::Workspace ws;
  std::vector<double> packed(sa::la::fused_buffer_size(mu, 0));
  std::vector<sa::la::DenseMatrix> grams(200, sa::la::DenseMatrix(mu, mu));
  for (sa::la::DenseMatrix& g : grams) {
    const std::vector<std::size_t> cols = sampler.next();
    sa::la::sampled_gram_and_dots(block.view_columns(cols, ws), {}, packed);
    for (std::size_t i = 0; i < mu; ++i)
      for (std::size_t j = i; j < mu; ++j)
        g(i, j) = g(j, i) = packed[sa::la::packed_upper_index(i, j, mu)];
  }
  sa::la::EigenScratch scratch;
  scratch.reserve(mu);
  std::size_t next = 0;
  for (auto _ : state) {
    double v = sa::la::largest_eigenvalue_psd(grams[next], scratch);
    benchmark::DoNotOptimize(v);
    next = next + 1 == grams.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_BlockEigen)->Arg(8)->Arg(16)->Arg(32);

/// Thread-team allreduce cost vs rank count and payload.
void BM_Allreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t words = state.range(1);
  for (auto _ : state) {
    sa::dist::ThreadTeam team(ranks);
    team.run([&](sa::dist::ThreadComm& comm) {
      std::vector<double> data(words, 1.0);
      for (int round = 0; round < 8; ++round) comm.allreduce_sum(data);
    });
  }
  state.SetItemsProcessed(state.iterations() * 8 * words);
}
BENCHMARK(BM_Allreduce)
    ->Args({2, 64})
    ->Args({4, 64})
    ->Args({8, 64})
    ->Args({4, 4096});

/// Soft-threshold throughput (the prox inner loop).
void BM_SoftThreshold(benchmark::State& state) {
  std::vector<double> x(state.range(0));
  sa::data::SplitMix64 rng(3);
  for (double& v : x) v = rng.next_normal();
  std::vector<double> work = x;
  for (auto _ : state) {
    work = x;
    sa::core::soft_threshold(work, 0.5);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_SoftThreshold)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
