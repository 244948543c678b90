// Tests for the analytic strong-scaling / speedup model — the engine
// behind the Figure 3–4 and Table V reproductions.
#include "perf/model.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace sa::perf {
namespace {

BcdParams latency_bound_problem() {
  // Tiny per-iteration message (µ = 1) on many processors: the regime
  // where the paper's SA methods shine.
  BcdParams p;
  p.iterations = 1000;
  p.block_size = 1;
  p.density = 0.01;
  p.rows = 1 << 20;
  p.cols = 1 << 15;
  p.processors = 4096;
  return p;
}

TEST(SpeedupSweep, RisesThenFallsWithS) {
  const auto sweep =
      speedup_sweep(latency_bound_problem(),
                    {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096},
                    MachineParams::cray_xc30());
  ASSERT_EQ(sweep.size(), 11u);
  // Some prefix must speed up (latency win)…
  EXPECT_GT(sweep[2].total, 1.0);
  // …and the curve must not be monotone: the bandwidth/compute penalty
  // eventually erodes the win (paper Figure 4 e–h).
  double best = 0.0;
  for (const SpeedupBreakdown& b : sweep) best = std::max(best, b.total);
  EXPECT_GT(best, sweep.back().total);
}

TEST(SpeedupSweep, CommunicationSpeedupExceedsTotal) {
  // Communication-only speedup is the pure latency win; total is diluted
  // by the flop increase — the ordering visible in Figure 4 (e–h).
  const auto sweep = speedup_sweep(latency_bound_problem(), {8, 32},
                                   MachineParams::cray_xc30());
  for (const SpeedupBreakdown& b : sweep) {
    EXPECT_GE(b.communication, b.total * 0.99);
  }
}

TEST(SpeedupSweep, ComputationRatioBelowOne) {
  // SA does strictly more flops (s× Gram work), so the computation
  // "speedup" is ≤ 1 in the analytic model.
  const auto sweep = speedup_sweep(latency_bound_problem(), {16},
                                   MachineParams::cray_xc30());
  EXPECT_LE(sweep[0].computation, 1.0 + 1e-12);
}

TEST(SpeedupSweep, HighLatencyMachineBenefitsMore) {
  const BcdParams p = latency_bound_problem();
  const auto cray = speedup_sweep(p, {64}, MachineParams::cray_xc30());
  const auto eth = speedup_sweep(p, {64}, MachineParams::ethernet_cluster());
  // The paper's concluding remark: higher-latency frameworks (Spark-like)
  // gain more from synchronization avoidance.
  EXPECT_GT(eth[0].total, cray[0].total);
}

TEST(SpeedupSweep, SharedMemoryMachineBarelyBenefits) {
  const auto sm = speedup_sweep(latency_bound_problem(), {64},
                                MachineParams::shared_memory());
  EXPECT_LT(sm[0].total, 3.0);
}

TEST(BestS, PicksInteriorOptimum) {
  const std::vector<std::size_t> candidates{1, 2, 4, 8,   16,  32,
                                            64, 128, 256, 512, 1024};
  const std::size_t best = best_s(latency_bound_problem(), candidates,
                                  MachineParams::cray_xc30());
  EXPECT_GT(best, 1u);
  EXPECT_LT(best, 1024u);
}

TEST(BestS, SingleProcessorPrefersNoUnrolling) {
  BcdParams p = latency_bound_problem();
  p.processors = 1;
  const std::size_t best = best_s(p, {1, 2, 4, 8}, MachineParams::cray_xc30());
  EXPECT_EQ(best, 1u);  // no communication to avoid, only extra flops
}

TEST(StrongScaling, SaFasterEverywhereAndGapGrowsWithP) {
  const auto series = bcd_strong_scaling(
      latency_bound_problem(), {192, 768, 3072, 12288},
      {1, 2, 4, 8, 16, 32, 64, 128, 256}, MachineParams::cray_xc30());
  ASSERT_EQ(series.size(), 4u);
  double prev_gap = 0.0;
  for (const ScalingPoint& pt : series) {
    EXPECT_LE(pt.seconds_sa, pt.seconds_non_sa) << "P=" << pt.processors;
    const double gap = pt.seconds_non_sa / pt.seconds_sa;
    EXPECT_GE(gap, prev_gap * 0.9);  // paper: gap widens with P
    prev_gap = gap;
  }
  // At the paper's largest scale the speedup must be material (>1.2×).
  EXPECT_GT(series.back().seconds_non_sa / series.back().seconds_sa, 1.2);
}

TEST(StrongScaling, NonSaTimeDecreasesWithPUntilLatencyFloor) {
  // A compute-bound configuration (large µ, large m, few processors):
  // time must fall with P while compute dominates, then flatten once the
  // latency floor takes over at large P (classic strong-scaling shape).
  BcdParams p;
  p.iterations = 1000;
  p.block_size = 16;
  p.density = 0.01;
  p.rows = 1 << 22;
  p.cols = 1 << 15;
  const auto series =
      bcd_strong_scaling(p, {4, 16, 64, 16384}, {1, 2, 4, 8, 16, 32},
                         MachineParams::cray_xc30());
  EXPECT_LT(series[1].seconds_non_sa, series[0].seconds_non_sa);
  EXPECT_LT(series[2].seconds_non_sa, series[1].seconds_non_sa);
  // At extreme P latency has flattened the curve: no 4× win from 64→16384.
  EXPECT_GT(series[3].seconds_non_sa, series[2].seconds_non_sa / 4.0);
}

TEST(SvmSweep, SpeedupInPaperRangeAtPaperScale) {
  // gisette-like: dense 6000×5000, P = 3072, best s = 128 → ~4× (Table V).
  SvmParams p;
  p.iterations = 100000;
  p.density = 0.99;
  p.rows = 6000;
  p.cols = 5000;
  p.processors = 3072;
  const auto sweep =
      speedup_sweep(p, {16, 64, 128, 256}, MachineParams::cray_xc30());
  double best = 0.0;
  for (const SpeedupBreakdown& b : sweep) best = std::max(best, b.total);
  EXPECT_GT(best, 1.4);   // at least the worst Table V entry
  EXPECT_LT(best, 40.0);  // sanity upper bound
}

TEST(BestS, RejectsEmptyCandidates) {
  EXPECT_THROW(best_s(latency_bound_problem(), {}, MachineParams::cray_xc30()),
               sa::PreconditionError);
}

}  // namespace
}  // namespace sa::perf
