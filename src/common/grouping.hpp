// Fixed global reduction grouping: the schema that makes cross-rank sums
// rank-count invariant.
//
// Floating-point addition does not associate, so a reduction whose partial
// sums follow the rank partition produces different bits at different rank
// counts.  ReduceGrouping replaces the per-rank partial with a fixed grid
// of global chunks over the reduction axis (rows for the Lasso families,
// features for SVM), and ReduceTree sums the chunks over a fixed pairwise
// tree whose shape depends only on the chunk count G:
//
//   node (l, i) covers chunks [i·2^l, min((i+1)·2^l, G)), and its value is
//   node (l−1, 2i) + node (l−1, 2i+1), or node (l−1, 2i) alone when the
//   right child starts past G.  Leaves are the chunk partials.
//
// Each rank computes the partials of the chunks it owns and sums the
// largest complete subtrees inside its owned range locally.  The wire
// carries one slot per such subtree node.  The slot set is the canonical
// decomposition (maximal tree nodes) of each interval between consecutive
// cut points, where the cut points are 0, G, and every chunk index at which
// some rank's owned range starts or ends.  Every rank writes its own slots,
// foreign slots contribute +0.0 to the elementwise sum over ranks, and
// after the collective every rank evaluates the top of the tree from the
// slots.  Every node is therefore the same sum of the same two children on
// any rank count, so serial and P-rank totals are bitwise identical
// whenever the rank partition is chunk-aligned
// (data::Partition::block_aligned).  The one difference is the sign of a
// zero: a -0.0 slot becomes +0.0 in a multi-rank sum, so the folded total
// is canonicalised with +0.0.  A chunk that a non-aligned partition
// splits between ranks is its own slot, and its owners' partials add in
// the collective.  Two aligned ranks of a G = 64 grid send 2 slots, not 64.
//
// The grid is part of the reproducibility contract: io::snapshot records
// kReduceGroupingVersion and the chunk size, and SnapshotReader rejects a
// mismatched grid descriptively rather than resuming into different bits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace sa::common {

/// Version of the grouping schema recorded in snapshots.  Bump when the
/// chunk-grid policy or the fold order changes incompatibly.  Version 1
/// folded the chunks left to right; version 2 sums them over ReduceTree.
inline constexpr std::uint64_t kReduceGroupingVersion = 2;

/// Target chunk count for the automatic policy: enough chunks that block
/// partitions up to ~64 ranks stay chunk-aligned.  The wire does not grow
/// with G: it carries ReduceTree slots, at most about 2·log2(G) per rank.
inline constexpr std::size_t kReduceGroupingTargetChunks = 64;

/// The fixed global chunk grid: `extent` elements split into chunks of
/// `chunk` elements each (the last chunk may be short).
struct ReduceGrouping {
  std::size_t extent = 0;  ///< global size of the reduction axis
  std::size_t chunk = 1;   ///< elements per chunk

  /// Builds the grid for `extent` elements.  A non-zero `chunk_override`
  /// (SolverSpec::reduction_chunk) pins the chunk size; otherwise the
  /// automatic policy targets kReduceGroupingTargetChunks chunks.
  static ReduceGrouping make(std::size_t extent,
                             std::size_t chunk_override = 0) {
    ReduceGrouping g;
    g.extent = extent;
    if (chunk_override != 0) {
      g.chunk = chunk_override;
    } else {
      const std::size_t target =
          std::max<std::size_t>(1, std::min(extent, kReduceGroupingTargetChunks));
      g.chunk = (extent + target - 1) / target;  // 0 extent → chunk 1
      if (g.chunk == 0) g.chunk = 1;
    }
    return g;
  }

  std::size_t num_chunks() const {
    if (extent == 0) return 1;
    return (extent + chunk - 1) / chunk;
  }
  std::size_t begin(std::size_t c) const {
    return std::min(c * chunk, extent);
  }
  std::size_t end(std::size_t c) const {
    return std::min((c + 1) * chunk, extent);
  }
};

/// The fixed pairwise reduction tree over a grid's chunks, and the wire
/// slots one rank partition sends (see the file comment).  Built once per
/// solve; reduce_owned and fold allocate nothing.
class ReduceTree {
 public:
  /// One chunk owned by this rank: a single slot, the serial G = 1 wire.
  ReduceTree();

  /// The tree over `grid` for the rank partition `rank_offsets` (P + 1
  /// non-decreasing boundaries from 0 to grid.extent), as seen by `rank`.
  ReduceTree(const ReduceGrouping& grid,
             std::span<const std::size_t> rank_offsets, std::size_t rank);

  std::size_t num_chunks() const { return chunks_; }
  std::size_t num_slots() const { return slots_.size(); }
  /// This rank's owned chunks: owned_chunks() global chunks from
  /// first_owned().
  std::size_t first_owned() const { return first_owned_; }
  std::size_t owned_chunks() const { return owned_; }
  /// This rank's slots: own_slots() wire slots from first_slot().
  std::size_t first_slot() const { return first_slot_; }
  std::size_t own_slots() const { return own_slots_; }

  /// The local half of the sum.  `partials` holds owned_chunks() runs
  /// `stride` words apart, one per owned chunk; `wire` holds num_slots()
  /// runs `stride` apart.  For words [offset, offset + words) of each run,
  /// writes every own slot's subtree sum of the partials into its wire run.
  /// Clobbers those words of `partials`; touches nothing else.
  void reduce_owned(std::span<double> partials, std::span<double> wire,
                    std::size_t stride, std::size_t offset,
                    std::size_t words) const;

  /// The global half, after the wire was summed over ranks: evaluates the
  /// top of the tree from the slots into words [offset, offset + words) of
  /// slot 0, canonicalising -0.0 to +0.0.  Clobbers the same words of the
  /// other slots.
  void fold(std::span<double> wire, std::size_t stride, std::size_t offset,
            std::size_t words) const;

 private:
  /// A tree node picked as a wire slot: chunks [begin, end), at the
  /// highest level whose node has that range.
  struct Slot {
    std::size_t begin;
    std::size_t end;
    std::size_t level;
  };
  std::size_t chunks_ = 1;
  std::vector<Slot> slots_;
  // Top of the tree, bottom-up: slot `first` += slot `second`.
  std::vector<std::pair<std::size_t, std::size_t>> folds_;
  std::size_t first_owned_ = 0;
  std::size_t owned_ = 1;
  std::size_t first_slot_ = 0;
  std::size_t own_slots_ = 1;
};

/// Wire slots of the rank partition `rank_offsets` over `grid`: the
/// num_slots() of its ReduceTree, for the cost model.
std::size_t wire_slot_count(const ReduceGrouping& grid,
                            std::span<const std::size_t> rank_offsets);

}  // namespace sa::common
