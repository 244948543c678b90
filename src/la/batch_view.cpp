// The single home of the batched Gram / multi-dot kernels.
//
// Every solver family packs its rounds through the functions in this
// translation unit, so all of them execute literally the same machine
// code in the same accumulation order.
//
// Kernel design:
//
//   * Dense Gram — tiled upper-triangular SYRK.  The (i, j) space is cut
//     into 32×32 tiles, upper triangle only; inside a tile a 4×4 register
//     micro-kernel accumulates sixteen dot products per pass over the
//     shared dimension (eight row loads feed sixteen FMA chains, a 4× cut
//     in memory traffic over pairwise dots), and the shared dimension is
//     sliced into 512-double depth chunks so the eight active row
//     segments stay L1-resident.  Tiles are independent → OpenMP
//     schedule(dynamic) above the work threshold; each output entry is
//     written by exactly one thread in a fixed order (deterministic).
//   * Sparse Gram — accumulator kernel (SpGEMM row style).  Member i is
//     scattered once into a dense per-thread accumulator; every partner
//     dot v_i·v_j gathers through v_j's nonzeros only, and the fused dot
//     sections v_i·x ride on the same sweep of member i.  Partners that
//     share no row with member i are skipped: their entry is exactly +0.0
//     (see "Structural overlap" below).
//
// Output is the *packed* row-major upper triangle (plus optional dot
// sections), written straight into the caller's allreduce buffer.
#include "la/batch_view.hpp"

#include <algorithm>
#include <cstdint>

#include "common/annotate.hpp"
#include "common/check.hpp"
#include "la/simd/simd.hpp"
#include "la/vector_ops.hpp"

namespace sa::la {

namespace {

constexpr std::size_t kGramTile = 32;  // tile edge, multiple of the 4×4 micro
// kParallelFlopThreshold (vector_ops.hpp) gates OpenMP use throughout.
//
// The dense tile walker and its register micro-kernel now live in the
// runtime-dispatched kernel table (la/simd): the scalar entry is the
// legacy 4×4 walker verbatim, the AVX2 entry widens it to an 8×8 FMA
// tile.  Tile calls stay independent (each packed entry belongs to
// exactly one tile), so the OpenMP schedule below is unchanged.

// ---------------------------------------------------------------------------
// Sparse kernels: grow-only, all-zero scratch for the accumulator.  Each
// row pass restores the zeros it scatters, so the workspace stays all-zero
// between calls and only needs zero-filling when it grows — gram() on
// ultra-sparse high-dimensional batches (the url/news20 twins) costs
// O(nnz) per call instead of O(dim).  thread_local gives each OpenMP
// worker its own copy, reused across parallel regions.
// ---------------------------------------------------------------------------

std::vector<double>& sparse_gram_workspace(std::size_t dim) {
  thread_local std::vector<double> acc;
  // Grow-only thread-local scratch: sized on the first call at each
  // dimension, reused allocation-free thereafter.
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (acc.size() < dim) acc.resize(dim, 0.0);
  return acc;
}

/// Member j's nonzeros, or the part of them inside one chunk.
struct Segment {
  const std::size_t* idx;
  const double* val;
  std::size_t n;
};

// ---------------------------------------------------------------------------
// Structural overlap.  Inside one chunk, a pair (i, j) whose segments share
// no row gathers only val·(+0.0) products through the all-zero accumulator,
// and those sum to exactly +0.0 on every kernel table (for finite values).
// So the sparse Gram runs gather_dot2 only on the pairs that share a row
// and writes +0.0 for the rest: the same bits as gathering every pair.
//
// The pairs come from per-row member lists.  head[r] is 1 + the link of the
// highest member with a nonzero at row r, and each link names its member
// and the next lower one at the same row.  head is grow-only, all-zero
// scratch like the accumulator: unlink_rows restores the zeros it set, so
// finding a chunk's pairs costs O(nnz in the chunk + pairs).  The link
// table holds kLinksPerMember links per member, a size fixed by k alone,
// so later rounds never grow it (steady-state rounds allocate nothing).
// A chunk with more nonzeros than that gathers every pair instead.
// ---------------------------------------------------------------------------

constexpr std::size_t kLinksPerMember = 32;

struct RowLink {
  std::uint32_t member;
  std::uint32_t next;  // 1 + the next lower member's link; 0 ends the list
};

struct RowLinks {
  std::span<std::uint32_t> head;  // one entry per row of the view
  std::span<RowLink> links;
  bool linked = false;  // false: gather every pair
};

/// The calling thread's row lists, sized for y; shared with the team
/// through the spans (only the preparing thread writes them).
RowLinks row_links(const BatchView& y) {
  thread_local std::vector<std::uint32_t> head;
  thread_local std::vector<RowLink> links;
  const std::size_t cap = kLinksPerMember * y.size();
  SA_CHECK(cap < (std::size_t{1} << 32), "sparse Gram: batch too large");
  // Grow-only thread-local scratch; head stays all-zero between chunks.
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (head.size() < y.dim()) head.resize(y.dim(), 0);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (links.size() < cap) links.resize(cap);
  return {std::span<std::uint32_t>(head.data(), y.dim()),
          std::span<RowLink>(links.data(), cap), false};
}

/// Links the nonzeros of `segs` into per-row member lists.  Leaves them
/// unlinked (every pair gathered) for a single member, whose only pair is
/// the diagonal, and when the nonzeros overflow the link table.
void link_rows(std::span<const Segment> segs, RowLinks& rl) {
  rl.linked = false;
  if (segs.size() < 2) return;
  std::size_t n = 0;
  for (const Segment& s : segs) n += s.n;
  if (n > rl.links.size()) return;
  std::uint32_t e = 0;
  for (std::size_t j = 0; j < segs.size(); ++j) {
    for (std::size_t p = 0; p < segs[j].n; ++p) {
      std::uint32_t& h = rl.head[segs[j].idx[p]];
      rl.links[e] = {static_cast<std::uint32_t>(j), h};
      h = ++e;
    }
  }
  rl.linked = true;
}

/// Restores the head entries link_rows set for the same `segs`.
void unlink_rows(std::span<const Segment> segs, RowLinks& rl) {
  if (!rl.linked) return;
  for (const Segment& s : segs)
    for (std::size_t p = 0; p < s.n; ++p) rl.head[s.idx[p]] = 0;
  rl.linked = false;
}

/// Per-thread partner list of one Gram row: marks[j] flags a partner
/// already listed (all-zero between rows).
struct Partners {
  std::vector<std::uint8_t> marks;
  std::vector<std::uint32_t> list;
};

Partners& partner_workspace(std::size_t k) {
  thread_local Partners p;
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (p.marks.size() < k) p.marks.resize(k, 0);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (p.list.size() < k) p.list.resize(k);
  return p;
}

/// Packed Gram row of member i (entries (i, j ≥ i), contiguous in the
/// packed layout, starting at `row`): scatters segs[i] into the all-zero
/// accumulator, gathers the partners segs[j] through it, and restores the
/// zeros.  With `rl` linked, only the partners that share a row with
/// member i are gathered and the other entries are +0.0.  Partner dots use
/// the two-accumulator legacy order at the scalar level and vector gathers
/// above it.
void sparse_gram_row(std::span<const Segment> segs, const RowLinks& rl,
                     std::size_t i, std::vector<double>& acc, double* row,
                     const simd::KernelTable& kt) {
  const std::size_t k = segs.size();
  const Segment si = segs[i];
  for (std::size_t p = 0; p < si.n; ++p) acc[si.idx[p]] = si.val[p];
  if (!rl.linked) {
    for (std::size_t j = i; j < k; ++j) {
      const Segment sj = segs[j];
      row[j - i] = kt.gather_dot2(sj.val, sj.idx, sj.n, acc.data());
    }
  } else {
    std::fill_n(row, k - i, 0.0);
    if (si.n > 0) {
      row[0] = kt.gather_dot2(si.val, si.idx, si.n, acc.data());
      // Members above i sharing a row with it: each row's list runs from
      // the highest member down, so the walk stops at i.
      Partners& pt = partner_workspace(k);
      std::size_t np = 0;
      for (std::size_t p = 0; p < si.n; ++p) {
        for (std::uint32_t e = rl.head[si.idx[p]]; e != 0;) {
          const RowLink link = rl.links[e - 1];
          if (link.member <= i) break;
          if (pt.marks[link.member] == 0) {
            pt.marks[link.member] = 1;
            pt.list[np++] = link.member;
          }
          e = link.next;
        }
      }
      for (std::size_t q = 0; q < np; ++q) {
        const std::size_t j = pt.list[q];
        const Segment sj = segs[j];
        row[j - i] = kt.gather_dot2(sj.val, sj.idx, sj.n, acc.data());
        pt.marks[j] = 0;
      }
    }
  }
  for (std::size_t p = 0; p < si.n; ++p) acc[si.idx[p]] = 0.0;
}

/// Moves segs[i] — member i's nonzeros in the previous chunk — on to
/// member i's nonzeros in [begin, end), the next chunk.  Nonzeros before
/// `begin` are skipped, so a call that starts from empty segments at each
/// member's first nonzero also seeks past any slice before the first
/// chunk.  Over a whole pack call this is one linear walk per member.
void advance_segments(const BatchView& y, std::size_t begin,
                      std::size_t end, std::span<Segment> segs) {
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const std::span<const std::size_t> idx = y.member_indices(i);
    auto p = static_cast<std::size_t>(segs[i].idx + segs[i].n - idx.data());
    while (p < idx.size() && idx[p] < begin) ++p;
    std::size_t e = p;
    while (e < idx.size() && idx[e] < end) ++e;
    segs[i] = {idx.data() + p, y.member_values(i).data() + p, e - p};
  }
}

/// Runs prepare(c), then body(c, t) for every t in [0, n), chunk by
/// chunk in order c = 0 … nc−1.  prepare fills per-chunk scratch that all
/// of that chunk's body calls read; body calls write disjoint outputs.
/// With `parallel` set and more than one thread available, everything
/// runs inside ONE OpenMP region — one thread prepares each chunk, the
/// team shares its n work items, and barriers keep the chunks apart — and
/// otherwise as plain loops, so the results are identical either way.
template <typename Prepare, typename Body>
void for_each_chunk(std::size_t nc, std::size_t n, bool parallel,
                    Prepare&& prepare, Body&& body) {
#ifdef _OPENMP
  if (parallel && omp_get_max_threads() > 1) {
#pragma omp parallel
    for (std::size_t c = 0; c < nc; ++c) {
#pragma omp single
      prepare(c);
#pragma omp for schedule(dynamic)
      for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(n); ++t)
        body(c, static_cast<std::size_t>(t));
    }
    return;
  }
#endif
  (void)parallel;
  for (std::size_t c = 0; c < nc; ++c) {
    prepare(c);
    for (std::size_t t = 0; t < n; ++t) body(c, t);
  }
}

/// Per-chunk scratch of the chunk-major kernels: k segments (sparse) or k
/// shifted row pointers (dense).  Grow-only thread-local storage, sized
/// by the first (largest) round; the calling thread's copy is shared with
/// the team through the spans handed out.
template <typename T>
std::span<T> chunk_scratch(std::size_t k) {
  thread_local std::vector<T> scratch;
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (scratch.size() < k) scratch.resize(k);
  return std::span<T>(scratch.data(), k);
}

/// Empty segments at each sparse member's first nonzero, for
/// advance_segments to walk from.
std::span<Segment> start_segments(const BatchView& y) {
  const std::span<Segment> segs = chunk_scratch<Segment>(y.size());
  for (std::size_t i = 0; i < segs.size(); ++i)
    segs[i] = {y.member_indices(i).data(), y.member_values(i).data(), 0};
  return segs;
}

/// Tile pair t of the packed upper triangle `g` (zeroed by the caller),
/// by flat index over `tiles` tile rows: inverts the index with a short
/// scan for the tile row, then runs the dispatched tile walker on
/// rows[·][0, d).  Each packed entry belongs to exactly one tile pair, so
/// tile pairs are independent.
void dense_tile(const double* const* rows, std::size_t d, std::size_t k,
                std::size_t tiles, std::size_t t, double* g,
                const simd::KernelTable& kt) {
  std::size_t ti = 0;
  std::size_t row_start = 0;
  while (row_start + (tiles - ti) <= t) {
    row_start += tiles - ti;
    ++ti;
  }
  const std::size_t tj = ti + (t - row_start);
  const std::size_t ib = ti * kGramTile;
  const std::size_t jb = tj * kGramTile;
  kt.gram_tile(rows, d, k, g, ib, std::min(ib + kGramTile, k), jb,
               std::min(jb + kGramTile, k));
}

/// Shared argument checks of the chunk-major kernels: `bounds` is a
/// non-empty, non-decreasing list inside [0, dim], and `out` holds nc
/// sections of `words` entries spaced `stride` apart.
void check_chunk_args(const BatchView& y,
                      std::span<const std::size_t> bounds,
                      std::size_t stride, std::size_t words,
                      std::size_t out_size) {
  SA_CHECK(!bounds.empty(), "chunk kernels: bounds need nc + 1 entries");
  for (std::size_t c = 0; c + 1 < bounds.size(); ++c)
    SA_CHECK(bounds[c] <= bounds[c + 1], "chunk kernels: bounds decrease");
  SA_CHECK(bounds.back() <= y.dim(), "chunk kernels: bounds exceed dim");
  const std::size_t nc = bounds.size() - 1;
  SA_CHECK(nc <= 1 || stride >= words,
           "chunk kernels: stride shorter than a section");
  SA_CHECK(nc == 0 || out_size >= (nc - 1) * stride + words,
           "chunk kernels: output too short for the chunk run");
}

}  // namespace

BatchView BatchView::dense(std::span<const double* const> rows,
                           std::size_t dim) {
  BatchView v;
  v.storage_ = Storage::kDense;
  v.rows_ = rows;
  v.dim_ = dim;
  return v;
}

BatchView BatchView::sparse(
    std::span<const std::span<const std::size_t>> indices,
    std::span<const std::span<const double>> values, std::size_t dim) {
  SA_CHECK(indices.size() == values.size(),
           "BatchView::sparse: indices/values member count mismatch");
  BatchView v;
  v.storage_ = Storage::kSparse;
  v.idx_ = indices;
  v.val_ = values;
  v.dim_ = dim;
  return v;
}

BatchView BatchView::of(const DenseMatrix& rows_as_vectors, Workspace& ws) {
  const std::size_t k = rows_as_vectors.rows();
  std::span<const double*> rows = ws.member_rows(k);
  for (std::size_t i = 0; i < k; ++i)
    rows[i] = rows_as_vectors.row(i).data();
  return dense(rows, rows_as_vectors.cols());
}

BatchView BatchView::of_rows(const DenseMatrix& m,
                             std::span<const std::size_t> rows,
                             Workspace& ws) {
  std::span<const double*> ptrs = ws.member_rows(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SA_CHECK(rows[i] < m.rows(), "BatchView::of_rows: row out of range");
    ptrs[i] = m.row(rows[i]).data();
  }
  return dense(ptrs, m.cols());
}

std::size_t BatchView::nnz() const {
  if (is_dense()) return size() * dim_;
  std::size_t total = 0;
  for (const auto& m : idx_) total += m.size();
  return total;
}

void BatchView::add_scaled_to(std::size_t i, double alpha,
                              std::span<double> target) const {
  SA_CHECK(i < size(), "BatchView::add_scaled_to: index out of range");
  SA_CHECK(target.size() == dim_,
           "BatchView::add_scaled_to: length mismatch");
  if (is_dense()) {
    axpy(alpha, dense_row(i), target);
    return;
  }
  const std::span<const std::size_t> idx = idx_[i];
  const std::span<const double> val = val_[i];
  for (std::size_t p = 0; p < idx.size(); ++p)
    target[idx[p]] += alpha * val[p];
}

std::size_t BatchView::gram_flops() const {
  const std::size_t k = size();
  if (is_dense()) return k * (k + 1) * dim_;
  // Accumulator kernel: the pair (i, j) gathers through v_j's nonzeros
  // (one multiply + one add each), so the cost is Σ_j 2·(j+1)·nnz_j.
  std::size_t flops = 0;
  for (std::size_t j = 0; j < k; ++j) flops += 2 * (j + 1) * idx_[j].size();
  return flops;
}

std::size_t BatchView::dot_all_flops() const { return 2 * nnz(); }

std::size_t fused_buffer_size(std::size_t k, std::size_t sections) {
  return k * (k + 1) / 2 + sections * k;
}

void sampled_gram_and_dots(const BatchView& y,
                           std::span<const std::span<const double>> xs,
                           std::span<double> out) {
  SA_STEADY_STATE;
  const std::size_t k = y.size();
  const std::size_t d = y.dim();
  SA_CHECK(out.size() == fused_buffer_size(k, xs.size()),
           "sampled_gram_and_dots: buffer size mismatch");
  for (const std::span<const double>& x : xs)
    SA_CHECK(x.size() == d, "sampled_gram_and_dots: rhs length mismatch");
  if (k == 0) return;
  const std::size_t tri = k * (k + 1) / 2;
  double* g = out.data();
  double* dots = out.data() + tri;

  const simd::KernelTable& kt = simd::active();
  if (y.is_dense()) {
    // Gram: upper-triangle tile pairs, iterated by flat index (no
    // materialised pair list — this runs once per outer iteration and must
    // not allocate).  Tiles are independent, so the visiting order does
    // not affect any output value.
    std::fill(out.begin(), out.begin() + tri, 0.0);
    const std::size_t tiles = (k + kGramTile - 1) / kGramTile;
    const std::size_t tile_pairs = tiles * (tiles + 1) / 2;
    const bool parallel = k * (k + 1) * d / 2 >= kParallelFlopThreshold;
    parallel_for(tile_pairs, parallel, [&](std::size_t t) {
      dense_tile(y.row_pointers().data(), d, k, tiles, t, g, kt);
    });
    // Dot sections: the batch_dots kernel, one call per section.
    for (std::size_t sct = 0; sct < xs.size(); ++sct)
      batch_dots(y, xs[sct], std::span<double>(dots + sct * k, k));
    return;
  }

  // Sparse: one fused sweep per member — Gram row + dot entries together.
  const bool parallel = k * y.nnz() >= kParallelFlopThreshold && k > 1;
  const std::span<Segment> segs = chunk_scratch<Segment>(k);
  for (std::size_t j = 0; j < k; ++j)
    segs[j] = {y.member_indices(j).data(), y.member_values(j).data(),
               y.member_nnz(j)};
  RowLinks rl = row_links(y);
  link_rows(segs, rl);
  parallel_for(k, parallel, [&](std::size_t i) {
    sparse_gram_row(segs, rl, i, sparse_gram_workspace(d),
                    g + packed_upper_index(i, i, k), kt);
    // Fused dot sections: v_i · x, in the same gather order as the
    // sparse-dense dot kernel (sparse_vector.cpp) — bit-identical to a
    // separate batch_dots pass.
    const Segment si = segs[i];
    for (std::size_t sct = 0; sct < xs.size(); ++sct)
      dots[sct * k + i] = kt.gather_dot(si.val, si.idx, si.n, xs[sct].data());
  });
  unlink_rows(segs, rl);
}

void sampled_gram_chunks(const BatchView& y,
                         std::span<const std::size_t> bounds,
                         std::size_t stride, std::span<double> out) {
  SA_STEADY_STATE;
  const std::size_t k = y.size();
  const std::size_t tri = k * (k + 1) / 2;
  check_chunk_args(y, bounds, stride, tri, out.size());
  const std::size_t nc = bounds.size() - 1;
  if (k == 0 || nc == 0) return;
  const simd::KernelTable& kt = simd::active();
  if (y.is_dense()) {
    // The full-range tile walker per chunk, on row pointers shifted to
    // the chunk.
    const std::span<const double*> rows = chunk_scratch<const double*>(k);
    const std::size_t tiles = (k + kGramTile - 1) / kGramTile;
    const std::size_t tile_pairs = tiles * (tiles + 1) / 2;
    const bool parallel = k * (k + 1) * (bounds.back() - bounds.front()) /
                              2 >=
                          kParallelFlopThreshold;
    for_each_chunk(
        nc, tile_pairs, parallel,
        [&](std::size_t c) {
          for (std::size_t i = 0; i < k; ++i)
            rows[i] = y.row_pointers()[i] + bounds[c];
          std::fill_n(out.data() + c * stride, tri, 0.0);
        },
        [&](std::size_t c, std::size_t t) {
          dense_tile(rows.data(), bounds[c + 1] - bounds[c], k, tiles, t,
                     out.data() + c * stride, kt);
        });
    return;
  }
  // Sparse: per member the same scatter + partner gathers as the
  // full-range row, over the members' segments in the chunk.  Preparing a
  // chunk unlinks the previous chunk's rows, then links its own.
  const std::span<Segment> segs = start_segments(y);
  RowLinks rl = row_links(y);
  const bool parallel = k * y.nnz() >= kParallelFlopThreshold && k > 1;
  for_each_chunk(
      nc, k, parallel,
      [&](std::size_t c) {
        unlink_rows(segs, rl);
        advance_segments(y, bounds[c], bounds[c + 1], segs);
        link_rows(segs, rl);
      },
      [&](std::size_t c, std::size_t i) {
        sparse_gram_row(segs, rl, i, sparse_gram_workspace(y.dim()),
                        out.data() + c * stride + packed_upper_index(i, i, k),
                        kt);
      });
  unlink_rows(segs, rl);
}

void sampled_dots_chunks(const BatchView& y,
                         std::span<const std::span<const double>> xs,
                         std::span<const std::size_t> bounds,
                         std::size_t stride, std::span<double> out) {
  SA_STEADY_STATE;
  const std::size_t k = y.size();
  check_chunk_args(y, bounds, stride, xs.size() * k, out.size());
  for (const std::span<const double>& x : xs)
    SA_CHECK(x.size() == y.dim(), "sampled_dots_chunks: rhs length mismatch");
  const std::size_t nc = bounds.size() - 1;
  if (k == 0 || nc == 0 || xs.empty()) return;
  const simd::KernelTable& kt = simd::active();
  const std::size_t ns = xs.size();
  const bool parallel =
      2 * ns * y.nnz() >= kParallelFlopThreshold && ns * k > 1;
  // Work item t = sct·k + i of a chunk is entry t of its dot sections:
  // one section at a time over all members, the order of batch_dots.
  if (y.is_dense()) {
    for_each_chunk(
        nc, ns * k, parallel, [](std::size_t) {},
        [&](std::size_t c, std::size_t t) {
          const std::size_t sct = t / k;
          const std::size_t b = bounds[c];
          out[c * stride + t] = kt.dot(y.row_pointers()[t - sct * k] + b,
                                       xs[sct].data() + b, bounds[c + 1] - b);
        });
    return;
  }
  const std::span<Segment> segs = start_segments(y);
  for_each_chunk(
      nc, ns * k, parallel,
      [&](std::size_t c) {
        advance_segments(y, bounds[c], bounds[c + 1], segs);
      },
      [&](std::size_t c, std::size_t t) {
        const std::size_t sct = t / k;
        const Segment si = segs[t - sct * k];
        // Same gather order as dot(SparseVector, span), through the FULL
        // right-hand sides (the members keep their absolute indices).
        out[c * stride + t] =
            kt.gather_dot(si.val, si.idx, si.n, xs[sct].data());
      });
}

void batch_dots(const BatchView& y, std::span<const double> x,
                std::span<double> out) {
  SA_STEADY_STATE;
  SA_CHECK(x.size() == y.dim(), "batch_dots: length mismatch");
  SA_CHECK(out.size() == y.size(), "batch_dots: output length mismatch");
  const std::size_t k = y.size();
  const bool parallel = 2 * y.nnz() >= kParallelFlopThreshold && k > 1;
  const simd::KernelTable& kt = simd::active();
  if (y.is_dense()) {
    parallel_for(k, parallel, [&](std::size_t i) {
      const std::span<const double> row = y.dense_row(i);
      out[i] = kt.dot(row.data(), x.data(), row.size());
    });
    return;
  }
  parallel_for(k, parallel, [&](std::size_t i) {
    // Same gather order as dot(SparseVector, span).
    const std::span<const std::size_t> idx = y.member_indices(i);
    const std::span<const double> val = y.member_values(i);
    out[i] = kt.gather_dot(val.data(), idx.data(), idx.size(), x.data());
  });
}

}  // namespace sa::la
