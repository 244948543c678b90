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
//     schedule(guided) above the work threshold; each output entry is
//     written by exactly one thread in a fixed order (deterministic).
//     Members that share a row pointer are walked once (see "Dense
//     aliasing" below).
//   * Sparse Gram — accumulator kernel (SpGEMM row style).  Member i is
//     scattered once into a dense per-thread accumulator; every partner
//     dot v_i·v_j gathers through v_j's nonzeros only, and the fused dot
//     sections v_i·x ride on the same sweep of member i.  Partners that
//     share no row with member i are skipped: their entry is exactly +0.0
//     (see "Structural overlap" below).
//
// Output is the *packed* row-major upper triangle (plus optional dot
// sections), written straight into the caller's allreduce buffer.  The
// chunk-major entry points hand whole chunks to threads, or share each
// chunk's work with the team when there are fewer chunks than threads.
#include "la/batch_view.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

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

/// Moves segs[i] on to member i's nonzeros in [begin, end).  With `walk`
/// set, segs holds the nonzeros of the chunk just before (or empty
/// segments at each member's first nonzero) and each member walks on from
/// there, skipping nonzeros before `begin`; otherwise each member seeks its
/// first nonzero at or after `begin` by binary search.  So a thread that
/// packs a contiguous run of chunks makes one linear walk per member, from
/// wherever its run starts.
void seek_segments(const BatchView& y, std::size_t begin, std::size_t end,
                   bool walk, std::span<Segment> segs) {
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const std::span<const std::size_t> idx = y.member_indices(i);
    std::size_t p = 0;
    if (walk) {
      p = static_cast<std::size_t>(segs[i].idx + segs[i].n - idx.data());
      while (p < idx.size() && idx[p] < begin) ++p;
    } else {
      p = static_cast<std::size_t>(
          std::lower_bound(idx.begin(), idx.end(), begin) - idx.begin());
    }
    std::size_t e = p;
    while (e < idx.size() && idx[e] < end) ++e;
    segs[i] = {idx.data() + p, y.member_values(i).data() + p, e - p};
  }
}

/// Packs chunks c < nc, each in three steps on one thread's scratch:
/// prepare(scratch, c), then item(scratch, c, t) for every t < n, then
/// wrap_up(scratch, c).  A chunk's items write disjoint outputs and may read
/// what prepare left in the scratch.  setup(owner) returns the running
/// thread's scratch; `owner` is false on a thread that only runs items of
/// chunks prepared on another thread's scratch.  With `parallel` set and
/// more than one thread, ONE OpenMP region packs the chunks:
///
///   * at least as many chunks as threads: each thread packs a contiguous
///     run of whole chunks (static schedule) on its own scratch, with no
///     barrier between chunks;
///   * fewer chunks than threads: the chunks go in order on the first
///     thread's scratch; one thread prepares a chunk (and wraps up the one
///     before) and the team shares its items, so no thread idles for want
///     of a chunk.
///
/// Otherwise plain loops on the calling thread.  Every thread of the region
/// calls setup() once per call, so its grow-only scratch is sized by the
/// first call and no later call allocates.  Each output entry is written by
/// one thread in a fixed order, so the bits do not depend on the thread
/// count.
template <typename Setup, typename Prepare, typename Item, typename WrapUp>
void for_each_chunk(std::size_t nc, std::size_t n, bool parallel,
                    Setup&& setup, Prepare&& prepare, Item&& item,
                    WrapUp&& wrap_up) {
  const auto whole = [&](auto& scratch, std::size_t c) {
    prepare(scratch, c);
    for (std::size_t t = 0; t < n; ++t) item(scratch, c, t);
    wrap_up(scratch, c);
  };
#ifdef _OPENMP
  const auto threads = static_cast<std::size_t>(omp_get_max_threads());
  if (parallel && threads > 1 && nc >= threads) {
#pragma omp parallel
    {
      auto scratch = setup(true);
#pragma omp for schedule(static)
      for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(nc); ++c)
        whole(scratch, static_cast<std::size_t>(c));
    }
    return;
  }
  if (parallel && threads > 1 && nc > 0) {
    using Scratch = decltype(setup(true));
    Scratch* shared = nullptr;
#pragma omp parallel
    {
      const bool owner = omp_get_thread_num() == 0;
      Scratch scratch = setup(owner);
      if (owner) shared = &scratch;
#pragma omp barrier
      for (std::size_t c = 0; c < nc; ++c) {
#pragma omp single
        {
          if (c > 0) wrap_up(*shared, c - 1);
          prepare(*shared, c);
        }
#pragma omp for schedule(dynamic)
        for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(n); ++t)
          item(*shared, c, static_cast<std::size_t>(t));
      }
#pragma omp single
      wrap_up(*shared, nc - 1);
    }
    return;
  }
#endif
  (void)parallel;
  auto scratch = setup(true);
  for (std::size_t c = 0; c < nc; ++c) whole(scratch, c);
}

/// Grow-only thread-local scratch of n entries of T, one vector per T and
/// thread.  Sized by the first (largest) round.
template <typename T>
std::span<T> chunk_scratch(std::size_t n) {
  thread_local std::vector<T> scratch;
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (scratch.size() < n) scratch.resize(n);
  return std::span<T>(scratch.data(), n);
}

/// A thread's sparse chunk scratch: the members' segments in its current
/// chunk, its row lists, and the chunk after the last one it packed (the
/// one its segments can walk on to).
struct SparseChunkScratch {
  std::span<Segment> segs;
  RowLinks rl;
  std::size_t next = 0;
};

/// The running thread's sparse chunk scratch for y, sized for it, with
/// empty segments at each member's first nonzero (chunk 0 walks from
/// there).  `links` asks for the Gram's row lists, accumulator and partner
/// scratch.
SparseChunkScratch sparse_chunk_scratch(const BatchView& y, bool links) {
  SparseChunkScratch s;
  s.segs = chunk_scratch<Segment>(y.size());
  for (std::size_t i = 0; i < s.segs.size(); ++i)
    s.segs[i] = {y.member_indices(i).data(), y.member_values(i).data(), 0};
  if (links) {
    s.rl = row_links(y);
    sparse_gram_workspace(y.dim());
    partner_workspace(y.size());
  }
  return s;
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

// ---------------------------------------------------------------------------
// Dense aliasing.  A round's s·µ members are s independent draws of µ
// columns, so once s·µ nears n many of them repeat.  Two dense members
// alias when they share a row pointer: RowBlock::view_columns and
// ColBlock::view_rows hand out one pointer per column (row), so aliasing
// follows from the index drawn and is the same on every rank.  The dense
// kernels compute each distinct member's entries once and copy them to its
// repeats, bit for bit:
//
//   * dots — kt.dot reads only its member's row, whichever member asks;
//   * Gram — with k a multiple of 4 every entry comes out of the 4×4
//     micro-kernel, which gives each entry its own accumulation chain, and
//     x·y = y·x (fused or not), so an entry's bits do not depend on where
//     its members sit in the tile.  The distinct members are padded to a
//     multiple of 4 with a repeated pointer, so each entry they need comes
//     out of the micro-kernel too.  Other k keep the full walk: their
//     ragged entries come from the edge dot's order.
// ---------------------------------------------------------------------------

struct DenseAliases {
  std::span<const std::uint32_t> slot;      // member → distinct slot
  std::span<const std::uint32_t> first;     // slot → its first member
  std::span<const double* const> distinct;  // slot → row pointer
  std::size_t padded = 0;  // slots the Gram walks; 0: walk all k members
};

/// The alias map of dense view y, in O(k log k): members sorted by row
/// pointer, one slot per run of equal pointers (with no repeats, one slot
/// per member).  Grow-only thread-local scratch sized for k members, so no
/// steady-state call allocates.
DenseAliases dense_aliases(const BatchView& y) {
  using Member = std::pair<const double*, std::uint32_t>;
  const std::size_t k = y.size();
  SA_CHECK(k < (std::size_t{1} << 32), "dense Gram: batch too large");
  const std::span<Member> order = chunk_scratch<Member>(k);
  thread_local std::vector<std::uint32_t> slot, first;
  thread_local std::vector<const double*> distinct;
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (slot.size() < k) slot.resize(k);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (first.size() < k) first.resize(k);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (distinct.size() < k) distinct.resize(k);
  for (std::size_t i = 0; i < k; ++i)
    order[i] = {y.row_pointers()[i], static_cast<std::uint32_t>(i)};
  std::sort(order.begin(), order.end(), [](const Member& a, const Member& b) {
    if (a.first != b.first) return std::less<const double*>()(a.first, b.first);
    return a.second < b.second;
  });
  std::size_t m = 0;
  for (std::size_t q = 0; q < k; ++q) {
    if (q == 0 || order[q].first != order[q - 1].first) {
      distinct[m] = order[q].first;
      first[m] = order[q].second;  // the smallest member of its run
      ++m;
    }
    slot[order[q].second] = static_cast<std::uint32_t>(m - 1);
  }
  DenseAliases al;
  const std::size_t padded = (m + 3) / 4 * 4;
  if (k % 4 == 0 && padded < k) {
    for (std::size_t u = m; u < padded; ++u) distinct[u] = distinct[m - 1];
    al.padded = padded;
  }
  al.slot = std::span<const std::uint32_t>(slot.data(), k);
  al.first = std::span<const std::uint32_t>(first.data(), m);
  al.distinct = std::span<const double* const>(distinct.data(), k);
  return al;
}

/// Copies the distinct members' packed triangle `tri` (al.padded slots)
/// into the k-member packed triangle `g`.
void expand_aliased(const DenseAliases& al, std::size_t k, const double* tri,
                    double* g) {
  const std::size_t n = al.padded;
  for (std::size_t p = 0; p < k; ++p) {
    const std::size_t u = al.slot[p];
    for (std::size_t q = p; q < k; ++q, ++g) {
      const std::size_t v = al.slot[q];
      *g = u <= v ? tri[packed_upper_index(u, v, n)]
                  : tri[packed_upper_index(v, u, n)];
    }
  }
}

/// A thread's dense chunk scratch: the shifted row pointers of the
/// members the Gram walks, and room for the distinct members' triangle
/// when k is a multiple of 4 (the only k that walks distinct members).
/// The triangle is sized for k whatever this round's distinct count, so a
/// later round with other repeats never makes it grow.
struct DenseScratch {
  std::span<const double*> rows;
  std::span<double> tri;
};

DenseScratch dense_scratch(std::size_t k) {
  return {chunk_scratch<const double*>(k),
          chunk_scratch<double>(k % 4 == 0 ? k * (k + 1) / 2 : 0)};
}

/// Packed Gram partial of dense y on each chunk of `bounds` (see
/// sampled_gram_chunks): the tile walker on row pointers shifted to the
/// chunk, over all k members, or over the distinct ones into the scratch
/// triangle, expanded into the chunk's section when its items are done.
void dense_gram_chunks(const BatchView& y, const DenseAliases& al,
                       std::span<const std::size_t> bounds,
                       std::size_t stride, double* out, bool parallel,
                       const simd::KernelTable& kt) {
  const std::size_t k = y.size();
  const std::size_t n = al.padded == 0 ? k : al.padded;
  const double* const* members =
      al.padded == 0 ? y.row_pointers().data() : al.distinct.data();
  const std::size_t tiles = (n + kGramTile - 1) / kGramTile;
  // The triangle the tile walker fills: the chunk's section, or scratch.
  const auto target = [&](const DenseScratch& s, std::size_t c) {
    return al.padded == 0 ? out + c * stride : s.tri.data();
  };
  for_each_chunk(
      bounds.size() - 1, tiles * (tiles + 1) / 2, parallel,
      [&](bool owner) { return dense_scratch(owner ? k : 0); },
      [&](DenseScratch& s, std::size_t c) {
        for (std::size_t u = 0; u < n; ++u) s.rows[u] = members[u] + bounds[c];
        std::fill_n(target(s, c), n * (n + 1) / 2, 0.0);
      },
      [&](const DenseScratch& s, std::size_t c, std::size_t t) {
        dense_tile(s.rows.data(), bounds[c + 1] - bounds[c], n, tiles, t,
                   target(s, c), kt);
      },
      [&](const DenseScratch& s, std::size_t c) {
        if (al.padded != 0)
          expand_aliased(al, k, s.tri.data(), out + c * stride);
      });
}

/// Dot-section partials of dense y on each chunk of `bounds` (see
/// sampled_dots_chunks): one section at a time over all members, the order
/// of batch_dots.  A repeated member's dot is computed once, at its first
/// member, and copied when the chunk's items are done.
void dense_dots_chunks(const BatchView& y, const DenseAliases& al,
                       std::span<const std::span<const double>> xs,
                       std::span<const std::size_t> bounds,
                       std::size_t stride, double* out, bool parallel,
                       const simd::KernelTable& kt) {
  const std::size_t k = y.size();
  const std::size_t m = al.first.size();
  for_each_chunk(
      bounds.size() - 1, xs.size() * m, parallel, [](bool) { return 0; },
      [](int, std::size_t) {},
      [&](int, std::size_t c, std::size_t t) {
        const std::size_t sct = t / m;
        const std::size_t u = t - sct * m;
        const std::size_t b = bounds[c];
        out[c * stride + sct * k + al.first[u]] =
            kt.dot(al.distinct[u] + b, xs[sct].data() + b, bounds[c + 1] - b);
      },
      [&](int, std::size_t c) {
        for (std::size_t sct = 0; sct < xs.size(); ++sct) {
          double* section = out + c * stride + sct * k;
          for (std::size_t i = 0; i < k; ++i)
            section[i] = section[al.first[al.slot[i]]];
        }
      });
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
    const std::size_t whole[] = {0, d};
    const DenseAliases al = dense_aliases(y);
    dense_gram_chunks(y, al, whole, tri, g,
                      k * (k + 1) * d / 2 >= kParallelFlopThreshold, kt);
    dense_dots_chunks(
        y, al, xs, whole, xs.size() * k, dots,
        2 * xs.size() * y.nnz() >= kParallelFlopThreshold && k > 1, kt);
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
    dense_gram_chunks(y, dense_aliases(y), bounds, stride, out.data(),
                      k * (k + 1) * (bounds.back() - bounds.front()) / 2 >=
                          kParallelFlopThreshold,
                      kt);
    return;
  }
  // Sparse: per member the same scatter + partner gathers as the
  // full-range row, over the members' segments in the chunk, which are
  // linked into row lists for the chunk and unlinked after it.  Each row
  // gathers through its thread's own accumulator.
  for_each_chunk(
      nc, k, k * y.nnz() >= kParallelFlopThreshold && k > 1,
      [&](bool) { return sparse_chunk_scratch(y, true); },
      [&](SparseChunkScratch& s, std::size_t c) {
        seek_segments(y, bounds[c], bounds[c + 1], c == s.next, s.segs);
        s.next = c + 1;
        link_rows(s.segs, s.rl);
      },
      [&](const SparseChunkScratch& s, std::size_t c, std::size_t i) {
        sparse_gram_row(s.segs, s.rl, i, sparse_gram_workspace(y.dim()),
                        out.data() + c * stride + packed_upper_index(i, i, k),
                        kt);
      },
      [](SparseChunkScratch& s, std::size_t) { unlink_rows(s.segs, s.rl); });
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
  if (y.is_dense()) {
    dense_dots_chunks(y, dense_aliases(y), xs, bounds, stride, out.data(),
                      parallel, kt);
    return;
  }
  // Item t = sct·k + i of a chunk is entry t of its dot sections: one
  // section at a time over all members, the order of batch_dots.
  for_each_chunk(
      nc, ns * k, parallel,
      [&](bool) { return sparse_chunk_scratch(y, false); },
      [&](SparseChunkScratch& s, std::size_t c) {
        seek_segments(y, bounds[c], bounds[c + 1], c == s.next, s.segs);
        s.next = c + 1;
      },
      [&](const SparseChunkScratch& s, std::size_t c, std::size_t t) {
        const std::size_t sct = t / k;
        const Segment si = s.segs[t - sct * k];
        // Same gather order as dot(SparseVector, span), through the FULL
        // right-hand sides (the members keep their absolute indices).
        out[c * stride + t] =
            kt.gather_dot(si.val, si.idx, si.n, xs[sct].data());
      },
      [](SparseChunkScratch&, std::size_t) {});
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
    const std::span<const double> xs[] = {x};
    const std::size_t whole[] = {0, y.dim()};
    dense_dots_chunks(y, dense_aliases(y), xs, whole, k, out.data(), parallel,
                      kt);
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
