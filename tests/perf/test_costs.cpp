// Tests for the Table I cost formulas and their SVM analogue.
#include "perf/model.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace sa::perf {
namespace {

BcdParams base_bcd() {
  BcdParams p;
  p.iterations = 1000;
  p.block_size = 8;
  p.s = 1;
  p.density = 0.1;
  p.rows = 100000;
  p.cols = 5000;
  p.processors = 64;
  return p;
}

TEST(TableOne, SaLatencyIsNonSaOverS) {
  BcdParams p = base_bcd();
  const Costs ref = costs(p);
  p.s = 10;
  const Costs sa = costs(p);
  EXPECT_DOUBLE_EQ(sa.latency, ref.latency / 10.0);
}

TEST(TableOne, SaBandwidthIsNonSaTimesS) {
  BcdParams p = base_bcd();
  const Costs ref = costs(p);
  p.s = 10;
  const Costs sa = costs(p);
  EXPECT_DOUBLE_EQ(sa.bandwidth, ref.bandwidth * 10.0);
}

TEST(TableOne, SaGramFlopsScaleWithS) {
  BcdParams p = base_bcd();
  const Costs ref = costs(p);
  p.s = 10;
  const Costs sa = costs(p);
  // The Gram term (first summand) scales by s; the µ³ subproblem term does
  // not, so the ratio is below s but above 1.
  EXPECT_GT(sa.flops, ref.flops);
  EXPECT_LT(sa.flops, ref.flops * 10.0 + 1.0);
}

TEST(TableOne, SEqualsOneReproducesNonSaExactly) {
  // At s = 1 the SA formulas are Table I row 1 (accBCD): every factor of
  // s is an exact multiplication or division by 1.
  const BcdParams p = base_bcd();
  const double h = 1000.0, mu = 8.0, f = 0.1, m = 100000.0, n = 5000.0;
  const double pr = 64.0, logp = 6.0;  // ceil(log2 64)
  const Costs c = costs(p);
  EXPECT_DOUBLE_EQ(c.flops, h * mu * mu * f * m / pr + h * mu * mu * mu);
  EXPECT_DOUBLE_EQ(c.memory, f * m * n / pr + m / pr + mu * mu + n);
  EXPECT_DOUBLE_EQ(c.latency, h * logp);
  EXPECT_DOUBLE_EQ(c.bandwidth, h * mu * mu * logp);
}

TEST(TableOne, MemoryGrowsQuadraticallyInS) {
  BcdParams p = base_bcd();
  p.s = 4;
  const double m4 = costs(p).memory;
  p.s = 8;
  const double m8 = costs(p).memory;
  const double mu_sq = static_cast<double>(p.block_size * p.block_size);
  EXPECT_DOUBLE_EQ(m8 - m4, mu_sq * (64.0 - 16.0));
}

TEST(TableOne, FlopsScaleInverselyWithProcessors) {
  BcdParams p = base_bcd();
  const double f64 = costs(p).flops;
  p.processors = 128;
  const double f128 = costs(p).flops;
  // Only the data-dependent term shrinks; µ³ term is replicated.
  EXPECT_LT(f128, f64);
  EXPECT_GT(f128, f64 / 2.0 - 1.0);
}

TEST(TableOne, LatencyGrowsLogarithmicallyWithP) {
  BcdParams p = base_bcd();
  p.processors = 1;
  EXPECT_DOUBLE_EQ(costs(p).latency, 0.0);
  p.processors = 2;
  const double l2 = costs(p).latency;
  p.processors = 1024;
  const double l1024 = costs(p).latency;
  EXPECT_DOUBLE_EQ(l1024, 10.0 * l2);
}

TEST(TableOne, RejectsInvalidParameters) {
  BcdParams p = base_bcd();
  p.processors = 0;
  EXPECT_THROW(costs(p), sa::PreconditionError);
  p = base_bcd();
  p.s = 0;
  EXPECT_THROW(costs(p), sa::PreconditionError);
}

SvmParams base_svm() {
  SvmParams p;
  p.iterations = 10000;
  p.s = 1;
  p.density = 0.05;
  p.rows = 50000;
  p.cols = 20000;
  p.processors = 256;
  return p;
}

TEST(SvmCosts, SaLatencyReducedByS) {
  SvmParams p = base_svm();
  const Costs ref = costs(p);
  p.s = 64;
  const Costs sa = costs(p);
  EXPECT_DOUBLE_EQ(sa.latency, ref.latency / 64.0);
}

TEST(SvmCosts, SaFlopsAndBandwidthGrowWithS) {
  SvmParams p = base_svm();
  const Costs ref = costs(p);
  p.s = 64;
  const Costs sa = costs(p);
  EXPECT_DOUBLE_EQ(sa.flops, ref.flops * 64.0);
  EXPECT_GT(sa.bandwidth, ref.bandwidth);
}

TEST(SvmCosts, MemoryIncludesGramBuffer) {
  SvmParams p = base_svm();
  const Costs ref = costs(p);
  p.s = 100;
  const Costs sa = costs(p);
  EXPECT_DOUBLE_EQ(sa.memory - ref.memory, 100.0 * 100.0);
}

}  // namespace
}  // namespace sa::perf
