#include "common/grouping.hpp"

#include "common/check.hpp"

namespace sa::common {

namespace {

/// Adds words [0, n) of `src` into `dst` (elementwise, so any
/// vectorisation keeps the bits).
void add_into(double* dst, const double* src, std::size_t n) {
  for (std::size_t w = 0; w < n; ++w) dst[w] += src[w];
}

}  // namespace

ReduceTree::ReduceTree() : slots_{{0, 1, 0}} {}

ReduceTree::ReduceTree(const ReduceGrouping& grid,
                       std::span<const std::size_t> rank_offsets,
                       std::size_t rank)
    : chunks_(grid.num_chunks()) {
  SA_CHECK(rank_offsets.size() >= 2 && rank + 1 < rank_offsets.size(),
           "ReduceTree: rank outside the partition");
  SA_CHECK(rank_offsets.front() == 0 && rank_offsets.back() == grid.extent,
           "ReduceTree: partition does not cover the grid's extent");
  const std::size_t g = chunks_;
  // Owned chunk range [first, end) of each rank; empty slices own none.
  const auto owned = [&](std::size_t r) {
    const std::size_t b = rank_offsets[r];
    const std::size_t e = rank_offsets[r + 1];
    SA_CHECK(b <= e, "ReduceTree: partition offsets decrease");
    if (b >= e) return std::pair<std::size_t, std::size_t>{0, 0};
    return std::pair<std::size_t, std::size_t>{
        b / grid.chunk, (e + grid.chunk - 1) / grid.chunk};
  };
  std::vector<std::size_t> cuts{0, g};
  for (std::size_t r = 0; r + 1 < rank_offsets.size(); ++r) {
    const auto [first, end] = owned(r);
    if (first == end) continue;
    cuts.push_back(first);
    cuts.push_back(end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::size_t top = 0;
  while ((std::size_t{1} << top) < g) ++top;
  // The canonical decomposition of each interval between cuts: at each
  // position, the highest tree node that starts there and stays inside.
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    for (std::size_t p = cuts[c]; p < cuts[c + 1];) {
      std::size_t l = 0;
      while (l < top && p % (std::size_t{2} << l) == 0 &&
             std::min(p + (std::size_t{2} << l), g) <= cuts[c + 1])
        ++l;
      const std::size_t end = std::min(p + (std::size_t{1} << l), g);
      slots_.push_back({p, end, l});
      p = end;
    }
  }

  // The slot covering each chunk, then the folds of every tree node that
  // lies above the slots, level by level (a node inside a slot was summed
  // by its owner; a node without a right child passes its left one up).
  std::vector<std::size_t> slot_of(g);
  for (std::size_t s = 0; s < slots_.size(); ++s)
    for (std::size_t c = slots_[s].begin; c < slots_[s].end; ++c)
      slot_of[c] = s;
  for (std::size_t l = 0; l < top; ++l) {
    const std::size_t h = std::size_t{1} << l;
    for (std::size_t j = 0; j + h < g; j += 2 * h) {
      if (slots_[slot_of[j]].level > l) continue;
      folds_.emplace_back(slot_of[j], slot_of[j + h]);
    }
  }

  const auto [first, end] = owned(rank);
  first_owned_ = first;
  owned_ = end - first;
  first_slot_ = 0;
  own_slots_ = 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].begin < first || slots_[s].end > end) continue;
    if (own_slots_ == 0) first_slot_ = s;
    ++own_slots_;
  }
}

void ReduceTree::reduce_owned(std::span<double> partials,
                              std::span<double> wire, std::size_t stride,
                              std::size_t offset, std::size_t words) const {
  if (words == 0 || own_slots_ == 0) return;
  SA_CHECK(offset + words <= stride &&
               partials.size() >= (owned_ - 1) * stride + offset + words &&
               wire.size() >= (slots_.size() - 1) * stride + offset + words,
           "ReduceTree::reduce_owned: spans too short");
  double* const part = partials.data() + offset;
  for (std::size_t s = first_slot_; s < first_slot_ + own_slots_; ++s) {
    double* const base = part + (slots_[s].begin - first_owned_) * stride;
    const std::size_t n = slots_[s].end - slots_[s].begin;
    // In-place pairwise sum: after step h, run j (a multiple of 2h) holds
    // its level-log2(2h) node.  The slot starts on a multiple of its
    // width, so local and global alignment agree.
    for (std::size_t h = 1; h < n; h *= 2)
      for (std::size_t j = 0; j + h < n; j += 2 * h)
        add_into(base + j * stride, base + (j + h) * stride, words);
    std::copy_n(base, words, wire.data() + s * stride + offset);
  }
}

void ReduceTree::fold(std::span<double> wire, std::size_t stride,
                      std::size_t offset, std::size_t words) const {
  if (words == 0) return;
  SA_CHECK(offset + words <= stride &&
               wire.size() >= (slots_.size() - 1) * stride + offset + words,
           "ReduceTree::fold: wire too short");
  double* const base = wire.data() + offset;
  for (const auto& [dst, src] : folds_)
    add_into(base + dst * stride, base + src * stride, words);
  // A -0.0 total stays -0.0 serially but sums to +0.0 over ranks.
  for (std::size_t w = 0; w < words; ++w) base[w] += 0.0;
}

std::size_t wire_slot_count(const ReduceGrouping& grid,
                            std::span<const std::size_t> rank_offsets) {
  return ReduceTree(grid, rank_offsets, 0).num_slots();
}

}  // namespace sa::common
