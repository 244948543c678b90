// Non-owning view over a batch of sampled vectors + the fused Gram kernel.
//
// A BatchView describes the s·µ sampled columns (or s sampled rows) of
// one outer iteration in place, without copying them: sparse members as
// (indices, values) span pairs aliasing the already-materialised CSC/CSR
// arrays, dense members as row pointers (into a DenseMatrix or a block's
// persistent staged copy).  The descriptor arrays themselves live
// in a la::Workspace, so building a view performs no heap allocation in
// steady state.
//
// sampled_gram_and_dots() is the reference kernel of one outer
// iteration: it computes the packed upper-triangular Gram of the view AND
// the dot sections Yᵀx for each right-hand side directly into the
// allreduce buffer, wire format
//
//   [ upper(G) | Yᵀx₀ | Yᵀx₁ | … ]
//
// (row-major upper triangle, then one length-k section per right-hand
// side).  For sparse views the dots are fused into the same sweep that
// forms the Gram rows.  The solvers pack the same values chunk by chunk,
// one call per section (sampled_gram_chunks / sampled_dots_chunks below).
//
// The kernels here are the *only* implementation of the batched Gram/dot
// arithmetic (same code, same accumulation order, one translation unit).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "la/dense.hpp"
#include "la/sparse_vector.hpp"
#include "la/workspace.hpp"

namespace sa::la {

/// Non-owning batch of k vectors, each of logical length dim().
class BatchView {
 public:
  BatchView() = default;

  /// Dense members: rows[i] points at a contiguous length-dim vector.
  static BatchView dense(std::span<const double* const> rows,
                         std::size_t dim);

  /// Sparse members: (indices[i], values[i]) describe member i; indices
  /// are strictly increasing positions in [0, dim).
  static BatchView sparse(std::span<const std::span<const std::size_t>> indices,
                          std::span<const std::span<const double>> values,
                          std::size_t dim);

  /// View over all rows of a dense matrix (descriptors from `ws`).
  static BatchView of(const DenseMatrix& rows_as_vectors, Workspace& ws);

  /// View over selected rows of a dense matrix (descriptors from `ws`).
  static BatchView of_rows(const DenseMatrix& m,
                           std::span<const std::size_t> rows, Workspace& ws);

  std::size_t size() const {
    return is_dense() ? rows_.size() : idx_.size();
  }
  std::size_t dim() const { return dim_; }
  bool is_dense() const { return storage_ == Storage::kDense; }

  /// Total nonzeros across the batch (k·dim for dense views).
  std::size_t nnz() const;

  /// Member i as a contiguous span (requires is_dense()).
  std::span<const double> dense_row(std::size_t i) const {
    return std::span<const double>(rows_[i], dim_);
  }
  /// All dense member row pointers (requires is_dense()).
  std::span<const double* const> row_pointers() const { return rows_; }
  std::span<const std::size_t> member_indices(std::size_t i) const {
    return idx_[i];
  }
  std::span<const double> member_values(std::size_t i) const {
    return val_[i];
  }

  /// Nonzeros of member i (dim() for dense views).  O(1).
  std::size_t member_nnz(std::size_t i) const {
    return is_dense() ? dim_ : idx_[i].size();
  }

  /// target := target + alpha · v_i  (same accumulation order as the
  /// la::axpy / SparseVector axpy kernels — bit-identical updates).
  void add_scaled_to(std::size_t i, double alpha,
                     std::span<double> target) const;

  /// Flops of the packed Gram kernel on this view, as a model formula:
  /// dense k(k+1)·dim (2·dim per pair over the upper triangle); sparse
  /// Σ_j 2(j+1)·nnz_j (a gather through v_j's nonzeros for every pair
  /// (i ≤ j, j)).  The kernels do at most this much work: the sparse ones
  /// skip the pairs that share no row, and the dense ones compute the
  /// entries of aliased members (one row pointer drawn twice) once.  The
  /// formula counts every member all the same.  Deterministic, used by
  /// the cost model.
  std::size_t gram_flops() const;

  /// Flops of one dot section (2·nnz).
  std::size_t dot_all_flops() const;

 private:
  enum class Storage { kDense, kSparse };
  Storage storage_ = Storage::kDense;

  std::span<const double* const> rows_;                    // dense members
  std::span<const std::span<const std::size_t>> idx_;      // sparse members
  std::span<const std::span<const double>> val_;
  std::size_t dim_ = 0;
};

/// Index of entry (i, j), j ≥ i, in the row-major packed upper triangle
/// of a k×k symmetric matrix — the wire format the fused kernel writes
/// and the solvers read back (row i starts at i·k − i(i−1)/2).  The one
/// definition of the packed layout; keep every reader on it.
inline std::size_t packed_upper_index(std::size_t i, std::size_t j,
                                      std::size_t k) {
  return i * k - i * (i + 1) / 2 + j;
}

/// Size of the fused buffer for k members and `sections` right-hand sides:
/// k(k+1)/2 packed Gram entries plus sections·k dot entries.
std::size_t fused_buffer_size(std::size_t k, std::size_t sections);

/// The fused kernel: writes [upper(G) | Yᵀxs[0] | Yᵀxs[1] | …] into `out`.
/// Each xs[i] must have length dim(); out must have exactly
/// fused_buffer_size(size(), xs.size()) entries.  Deterministic: every
/// output entry is produced by exactly one thread in a fixed accumulation
/// order.  With xs empty this is a packed-Gram kernel.
void sampled_gram_and_dots(const BatchView& y,
                           std::span<const std::span<const double>> xs,
                           std::span<double> out);

/// Dot section only:  out[i] = v_i · x.
void batch_dots(const BatchView& y, std::span<const double> x,
                std::span<double> out);

// Chunk-major entry points for the fixed reduction grouping
// (common/grouping.hpp): one call writes the partials of every global
// chunk a rank owns.  They are also the split pack path of the
// double-buffered round pipeline (core/engine.hpp): a round's Gram
// triangle depends only on the data and the coordinate draw, so it can be
// packed for round k+1 while round k's reduction is in flight; the dot
// sections read residuals that round k's apply updates, so they are
// packed afterwards.  `bounds` holds the owned chunks' boundaries in the
// view's coordinates (nc + 1 non-decreasing entries within [0, dim()]):
// chunk c covers [bounds[c], bounds[c + 1]).  The partials go to a strided
// run of wire slots: chunk c's section starts at out[c · stride], which is
// how RoundMessage::chunk_section lays the chunk bodies side by side.
//
// Bit contract: chunk c's partial depends only on the member entries
// inside its range, their order, and the kernels in this translation unit
// — it equals sampled_gram_and_dots on a view of just those entries
// (sparse members narrowed to their in-range nonzeros with absolute
// indices; dense members shifted to the range) — so any two ranks, or
// rank counts, that own the same global chunk produce identical bits.
// Dense members that alias (share a row pointer: the same column or row
// drawn twice) have their Gram entries and dots computed once and copied
// to the repeats; the bits equal those of private copies of each member,
// so aliasing is invisible in the output.  The thread count is invisible
// too: each output entry is computed by one thread in a fixed order.  With
// at least as many chunks as threads, each chunk is packed whole by one
// thread in one OpenMP region; with fewer, the team shares each chunk's
// work items.  Steady-state calls allocate nothing (grow-only thread-local
// scratch, sized for k members by the first, largest round).

/// Packed Gram partial of each chunk: out[c·stride, c·stride + k(k+1)/2)
/// for c < nc.  Entries between the chunk sections are left untouched.
void sampled_gram_chunks(const BatchView& y,
                         std::span<const std::size_t> bounds,
                         std::size_t stride, std::span<double> out);

/// Dot-section partials of each chunk: out[c·stride + sct·k + i] =
/// (member i restricted to chunk c) · xs[sct].  Every xs[sct] has length
/// dim(); dense members read the same range of it, sparse members gather
/// through it with their absolute indices.
void sampled_dots_chunks(const BatchView& y,
                         std::span<const std::span<const double>> xs,
                         std::span<const std::size_t> bounds,
                         std::size_t stride, std::span<double> out);

}  // namespace sa::la
