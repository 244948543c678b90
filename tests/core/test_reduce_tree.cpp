// The tree wire (common/grouping.hpp, dist/round_message.hpp): rank-count
// invariance and size.
//
//   * ReduceTree alone: over P ∈ {1, 2, 3, 4, 5, 8} × G ∈ {1, 7, 64}, the
//     tree sum of per-chunk partials through the thread communicator equals
//     an independent recursive tree sum — bitwise on chunk-aligned
//     partitions (with -0.0 chunk totals among the inputs), and exactly on
//     non-aligned ones, where split chunks add their owners' partials.
//   * RoundMessage: the same through the round plane, with the metered
//     words equal to slots × (stride + objective words) + trailer.
//   * Solvers: sa-lasso, svm and sa-group-lasso on P ranks match the
//     serial run bitwise on aligned partitions, and meter one body and one
//     objective run per slot; two aligned ranks of a 64-chunk grid send
//     exactly 2 slots.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/grouping.hpp"
#include "core/detail.hpp"
#include "core/registry.hpp"
#include "data/partition.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "dist/round_message.hpp"
#include "dist/thread_comm.hpp"
#include "la/workspace.hpp"

namespace sa::core {
namespace {

constexpr std::size_t kChunk = 10;  // rows per chunk in the tree tests
const std::vector<int> kRanks{1, 2, 3, 4, 5, 8};
const std::vector<std::size_t> kChunkCounts{1, 7, 64};

/// Node (l, i) of the g-chunk tree, summed recursively from the leaves —
/// the reference every tree evaluation must reproduce bitwise.
double tree_sum(const std::vector<double>& leaves, std::size_t l,
                std::size_t i) {
  if (l == 0) return leaves[i];
  const std::size_t right = 2 * i + 1;
  const double left = tree_sum(leaves, l - 1, 2 * i);
  if (right << (l - 1) >= leaves.size()) return left;
  return left + tree_sum(leaves, l - 1, right);
}

double tree_total(const std::vector<double>& leaves) {
  std::size_t top = 0;
  while ((std::size_t{1} << top) < leaves.size()) ++top;
  return tree_sum(leaves, top, 0) + 0.0;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Per-row values of `width` words: row r, word w.  `integers` draws small
/// integers (every summation order is exact); otherwise normals, with
/// word 0 all -0.0 (a -0.0 total) and every 5th row's values -0.0 (-0.0
/// chunk partials).
std::vector<double> row_values(std::size_t rows, std::size_t width,
                               bool integers, std::uint64_t seed) {
  data::SplitMix64 rng(seed);
  std::vector<double> v(rows * width);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t w = 0; w < width; ++w) {
      double& x = v[r * width + w];
      if (integers)
        x = static_cast<double>(rng.next_below(41)) - 20.0;
      else
        x = (w == 0 || r % 5 == 0) ? -0.0 : rng.next_normal();
    }
  }
  return v;
}

/// Partial of rows [b, e) ∩ [lo, hi), word w: summed from -0.0, so an
/// all -0.0 range stays -0.0 (the chunk partial the kernels never make,
/// but the tree must still handle).
double range_sum(const std::vector<double>& v, std::size_t width,
                 std::size_t w, std::size_t b, std::size_t e) {
  double s = -0.0;
  for (std::size_t r = b; r < e; ++r) s += v[r * width + w];
  return s;
}

std::vector<data::Partition> partitions_for(std::size_t extent, int p) {
  return {data::Partition::block_aligned(extent, p, kChunk),
          data::Partition::block(extent, p)};
}

TEST(ReduceTree, SlotCountsFollowTheCuts) {
  const auto grid = common::ReduceGrouping::make(640, kChunk);
  ASSERT_EQ(grid.num_chunks(), 64u);
  const auto slots = [&](const data::Partition& part) {
    return common::wire_slot_count(grid, part.offsets());
  };
  EXPECT_EQ(slots(data::Partition::block_aligned(640, 1, kChunk)), 1u);
  EXPECT_EQ(slots(data::Partition::block_aligned(640, 2, kChunk)), 2u);
  EXPECT_EQ(slots(data::Partition::block_aligned(640, 4, kChunk)), 4u);
  // Owned chunks [0, 22), [22, 43), [43, 64): the canonical decompositions
  // are 16 + 4 + 2, 2 + 8 + 8 + 2 + 1 and 1 + 4 + 16 chunks.
  ASSERT_EQ(data::Partition::block_aligned(640, 3, kChunk).offsets(),
            (std::vector<std::size_t>{0, 220, 430, 640}));
  EXPECT_EQ(slots(data::Partition::block_aligned(640, 3, kChunk)), 11u);
  // A non-aligned split of chunk 31 makes it its own slot: [0, 31) is
  // 16 + 8 + 4 + 2 + 1 chunks, then [31, 32) and [32, 64).
  EXPECT_EQ(slots(data::Partition({0, 315, 640})), 7u);
  // Ranks beyond the chunks own nothing and add no slot.
  const auto one = common::ReduceGrouping::make(10, kChunk);
  EXPECT_EQ(common::wire_slot_count(
                one, data::Partition::block_aligned(10, 8, kChunk).offsets()),
            1u);
}

TEST(ReduceTree, TreeSumIsRankCountInvariant) {
  const std::size_t width = 3;
  for (const std::size_t g : kChunkCounts) {
    const std::size_t extent = g * kChunk - (g > 1 ? 4 : 0);  // short tail
    const auto grid = common::ReduceGrouping::make(extent, kChunk);
    ASSERT_EQ(grid.num_chunks(), g);
    for (const bool integers : {false, true}) {
      const std::vector<double> v = row_values(extent, width, integers, g);
      // Reference: the recursive tree over whole-chunk partials.
      std::vector<double> want(width);
      for (std::size_t w = 0; w < width; ++w) {
        std::vector<double> leaves(g);
        for (std::size_t c = 0; c < g; ++c)
          leaves[c] = range_sum(v, width, w, grid.begin(c), grid.end(c));
        want[w] = tree_total(leaves);
      }
      for (const int p : kRanks) {
        for (const data::Partition& part : partitions_for(extent, p)) {
          const bool aligned =
              part.offsets() ==
              data::Partition::block_aligned(extent, p, kChunk).offsets();
          // Floating-point partials only promise bits on aligned splits.
          if (!aligned && !integers) continue;
          std::vector<std::vector<double>> got(p);
          dist::run_distributed(p, [&](dist::Communicator& comm) {
            const auto r = static_cast<std::size_t>(comm.rank());
            const common::ReduceTree tree(grid, part.offsets(), r);
            std::vector<double> partials(tree.owned_chunks() * width);
            const std::size_t pb = part.begin(comm.rank());
            const std::size_t pe = part.end(comm.rank());
            for (std::size_t j = 0; j < tree.owned_chunks(); ++j) {
              const std::size_t c = tree.first_owned() + j;
              const std::size_t b = std::max(grid.begin(c), pb);
              const std::size_t e = std::min(grid.end(c), pe);
              for (std::size_t w = 0; w < width; ++w)
                partials[j * width + w] = range_sum(v, width, w, b, e);
            }
            std::vector<double> wire(tree.num_slots() * width, 0.0);
            tree.reduce_owned(partials, wire, width, 0, width);
            comm.allreduce_sum(wire);
            tree.fold(wire, width, 0, width);
            got[r].assign(wire.begin(), wire.begin() + width);
          });
          for (int r = 0; r < p; ++r)
            for (std::size_t w = 0; w < width; ++w)
              EXPECT_EQ(bits(got[r][w]), bits(want[w]))
                  << "G " << g << " P " << p << (aligned ? " aligned" : "")
                  << (integers ? " integers" : "") << " rank " << r
                  << " word " << w << ": " << got[r][w] << " vs "
                  << want[w];
        }
      }
    }
  }
}

TEST(ReduceTree, RoundMessageSumsAndMetersTheSlots) {
  // Body [gram 3 | dots1 2], one objective word, one stop-flag word.
  const std::size_t gram = 3, dots = 2, stride = gram + dots;
  for (const std::size_t g : kChunkCounts) {
    const std::size_t extent = g * kChunk;
    const auto grid = common::ReduceGrouping::make(extent, kChunk);
    const std::vector<double> v = row_values(extent, stride + 1, false, 7 + g);
    std::vector<double> want(stride + 1);
    for (std::size_t w = 0; w <= stride; ++w) {
      std::vector<double> leaves(g);
      for (std::size_t c = 0; c < g; ++c)
        leaves[c] = range_sum(v, stride + 1, w, grid.begin(c), grid.end(c));
      want[w] = tree_total(leaves);
    }
    for (const int p : kRanks) {
      const data::Partition part =
          data::Partition::block_aligned(extent, p, kChunk);
      const std::size_t slots = common::wire_slot_count(grid, part.offsets());
      std::vector<std::vector<double>> got(p);
      const std::vector<dist::CommStats> stats =
          dist::run_distributed(p, [&](dist::Communicator& comm) {
            const auto r = static_cast<std::size_t>(comm.rank());
            const common::ReduceTree tree(grid, part.offsets(), r);
            la::Workspace ws;
            dist::RoundMessage msg(ws);
            msg.set_tree(tree);
            msg.set_trailer_sizes(1, 1);
            msg.layout(gram, dots, 0);
            const std::span<double> body =
                msg.chunk_section(dist::RoundSection::kGram);
            const std::span<double> dot_run = msg.chunk_dots();
            const std::span<double> objective = msg.objective_chunks();
            for (std::size_t j = 0; j < tree.owned_chunks(); ++j) {
              const std::size_t c = tree.first_owned() + j;
              for (std::size_t w = 0; w < gram; ++w)
                body[j * stride + w] = range_sum(v, stride + 1, w,
                                                 grid.begin(c), grid.end(c));
              for (std::size_t w = 0; w < dots; ++w)
                dot_run[j * stride + w] = range_sum(
                    v, stride + 1, gram + w, grid.begin(c), grid.end(c));
              objective[j] = range_sum(v, stride + 1, stride, grid.begin(c),
                                       grid.end(c));
            }
            msg.reduce_chunks(dist::RoundSection::kGram);
            msg.reduce_chunks(dist::RoundSection::kDots1);
            msg.reduce_chunks(dist::RoundSection::kObjective);
            msg.section(dist::RoundSection::kStopFlags)[0] = r == 0 ? 9.0 : 0.0;
            msg.reduce(comm);
            std::vector<double>& out = got[r];
            for (const auto s :
                 {dist::RoundSection::kGram, dist::RoundSection::kDots1,
                  dist::RoundSection::kObjective})
              for (const double x : msg.section(s)) out.push_back(x);
            EXPECT_EQ(msg.section(dist::RoundSection::kStopFlags)[0], 9.0);
          });
      for (int r = 0; r < p; ++r) {
        EXPECT_TRUE(same_bits(got[r], want))
            << "G " << g << " P " << p << " rank " << r;
      }
      const std::size_t wire = slots * (stride + 1) + 1;
      EXPECT_EQ(stats[0].words, wire * dist::collective_rounds(p))
          << "G " << g << " P " << p << ": " << slots << " slots";
    }
  }
}

// ---------------------------------------------------------------------
// Solvers on the tree wire.
// ---------------------------------------------------------------------

const data::Dataset& regression() {
  static const data::Dataset d = [] {
    data::RegressionConfig cfg;
    cfg.num_points = 128;
    cfg.num_features = 24;
    cfg.density = 0.4;
    cfg.support_size = 5;
    cfg.seed = 61;
    return data::make_regression(cfg).dataset;
  }();
  return d;
}

const data::Dataset& classification() {
  static const data::Dataset d = [] {
    data::ClassificationConfig cfg;
    cfg.num_points = 40;
    cfg.num_features = 128;
    cfg.density = 0.4;
    cfg.seed = 62;
    return data::make_classification(cfg);
  }();
  return d;
}

SolverSpec tree_spec(const std::string& id, std::size_t chunks) {
  SolverSpec spec = SolverSpec::make(id);
  spec.max_iterations = 48;
  spec.trace_every = 12;
  spec.seed = 5;
  spec.s = 4;
  spec.objective_tolerance = 1e-300;
  spec.wall_clock_budget = 1e9;
  switch (spec.family()) {
    case SolverFamily::kLasso:
      spec.lambda = 0.05;
      spec.block_size = 2;
      spec.accelerated = true;
      break;
    case SolverFamily::kGroupLasso:
      spec.lambda = 0.1;
      spec.groups = GroupStructure::uniform(regression().num_features(), 4);
      break;
    case SolverFamily::kSvm:
      spec.lambda = 1.0;
      spec.loss = SvmLoss::kL2;
      break;
    case SolverFamily::kUnknown:
      break;
  }
  spec.reduction_chunk = (128 + chunks - 1) / chunks;  // 128-long axis
  return spec;
}

/// Words per round of each body/objective section: k members →
/// [upper(k) | dots…], one objective word for the regression families.
struct SectionWords {
  std::size_t gram, dots1, dots2, objective;
};

SectionWords section_words(const SolverSpec& spec) {
  switch (spec.family()) {
    case SolverFamily::kLasso: {
      const std::size_t k = spec.unroll_depth() * spec.block_size;
      return {detail::triangle_size(k), k, k, 1};
    }
    case SolverFamily::kGroupLasso: {
      const std::size_t k = spec.unroll_depth() * 4;
      return {detail::triangle_size(k), k, 0, 1};
    }
    default:
      return {1, 1, 0, 0};  // classical svm: one sampled row
  }
}

TEST(ReduceTree, SolversMatchSerialBitwiseAndMeterOneRunPerSlot) {
  for (const std::string id : {"sa-lasso", "svm", "sa-group-lasso"}) {
    for (const std::size_t g : kChunkCounts) {
      const SolverSpec spec = tree_spec(id, g);
      const data::Dataset& d =
          spec.family() == SolverFamily::kSvm ? classification() : regression();
      const auto grid = common::ReduceGrouping::make(128, spec.reduction_chunk);
      ASSERT_EQ(grid.num_chunks(), g);
      dist::SerialComm serial_comm;
      const SolveResult serial =
          make_solver(serial_comm, d, partition_for_ranks(d, spec, 1), spec)
              ->run();
      const SectionWords sw = section_words(spec);
      for (const int p : kRanks) {
        const std::vector<data::Partition> parts{
            partition_for_ranks(d, spec, p), data::Partition::block(128, p)};
        for (std::size_t a = 0; a < parts.size(); ++a) {
          const data::Partition& part = parts[a];
          const std::string where = id + " G " + std::to_string(g) + " P " +
                                    std::to_string(p) +
                                    (a == 0 ? " aligned" : " block");
          SolveResult result;
          dist::CommStats stats;
          std::mutex lock;
          dist::run_distributed(p, [&](dist::Communicator& comm) {
            SolveResult r = make_solver(comm, d, part, spec)->run();
            if (comm.rank() == 0) {
              std::scoped_lock guard(lock);
              result = std::move(r);
              stats = comm.stats();
            }
          });
          ASSERT_EQ(result.x.size(), serial.x.size()) << where;
          ASSERT_EQ(result.trace.points.size(), serial.trace.points.size());
          if (a == 0) {
            EXPECT_TRUE(same_bits(result.x, serial.x)) << where << ": x";
            EXPECT_TRUE(same_bits(result.alpha, serial.alpha))
                << where << ": alpha";
            for (std::size_t i = 0; i < serial.trace.points.size(); ++i)
              EXPECT_EQ(bits(result.trace.points[i].objective),
                        bits(serial.trace.points[i].objective))
                  << where << " trace point " << i;
          } else {
            for (std::size_t i = 0; i < serial.x.size(); ++i)
              EXPECT_NEAR(result.x[i], serial.x[i],
                          1e-9 * (1.0 + std::abs(serial.x[i])))
                  << where << " x[" << i << "]";
          }
          const std::size_t slots =
              common::wire_slot_count(grid, part.offsets());
          if (p == 2 && g == 64 && a == 0) {
            EXPECT_EQ(slots, 2u) << where;
          }
          const auto& gram = stats.section(dist::RoundSection::kGram);
          const std::size_t per = gram.collectives * dist::collective_rounds(p);
          EXPECT_EQ(gram.words, per * slots * sw.gram) << where;
          EXPECT_EQ(stats.section(dist::RoundSection::kDots1).words,
                    per * slots * sw.dots1)
              << where;
          EXPECT_EQ(stats.section(dist::RoundSection::kDots2).words,
                    per * slots * sw.dots2)
              << where;
          EXPECT_EQ(stats.section(dist::RoundSection::kObjective).words,
                    per * slots * sw.objective)
              << where;
          EXPECT_EQ(stats.section(dist::RoundSection::kStopFlags).words, per)
              << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sa::core
