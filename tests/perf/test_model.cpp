// Tests for the α-β-γ pricing of cost tuples and metered counters, and for
// the rescaling of counters metered on a few ranks to the paper's P.
#include "perf/model.hpp"

#include <gtest/gtest.h>

namespace sa::perf {
namespace {

TEST(CostModel, PricesCountersLinearly) {
  dist::CommStats s;
  s.flops = 50;
  s.replicated_flops = 50;  // replicated work sits on the critical path too
  s.words = 1000;
  s.messages = 10;
  const MachineParams m{"unit", 1.0, 2.0, 3.0};
  const CostBreakdown b = price(costs(s), m);
  EXPECT_DOUBLE_EQ(b.compute_seconds, 300.0);
  EXPECT_DOUBLE_EQ(b.bandwidth_seconds, 2000.0);
  EXPECT_DOUBLE_EQ(b.latency_seconds, 10.0);
  EXPECT_DOUBLE_EQ(b.communication_seconds(), 2010.0);
  EXPECT_DOUBLE_EQ(b.total_seconds(), 2310.0);

  // A formula cost tuple goes through the same call.
  Costs c;
  c.flops = 1e9;
  c.latency = 1e4;
  c.bandwidth = 1e6;
  const CostBreakdown t = price(c, {"t", 1e-6, 1e-9, 1e-10});
  EXPECT_DOUBLE_EQ(t.compute_seconds, 0.1);
  EXPECT_DOUBLE_EQ(t.latency_seconds, 0.01);
  EXPECT_DOUBLE_EQ(t.bandwidth_seconds, 0.001);
}

TEST(CostModel, PresetLatencyLadder) {
  // The three presets must order by latency: shared memory < HPC < cloud.
  const double sm = MachineParams::shared_memory().alpha;
  const double cray = MachineParams::cray_xc30().alpha;
  const double eth = MachineParams::ethernet_cluster().alpha;
  EXPECT_LT(sm, cray);
  EXPECT_LT(cray, eth);
}

dist::CommStats metered_on_two_ranks() {
  dist::CommStats s;
  s.flops = 1000003;
  s.replicated_flops = 4242;
  s.messages = 77;
  s.words = 12345;
  s.collectives = 77;
  return s;
}

TEST(Rescale, MessagesAndWordsFollowTreeDepth) {
  // ceil(log2 576) = 10 tree rounds against ceil(log2 2) = 1.
  const dist::CommStats s = metered_on_two_ranks();
  const dist::CommStats r = rescale(s, 2, 576);
  EXPECT_EQ(r.messages, 10 * s.messages);
  EXPECT_EQ(r.words, 10 * s.words);
  EXPECT_EQ(r.collectives, s.collectives);
}

TEST(Rescale, DataParallelFlopsScaleByRankRatio) {
  const dist::CommStats s = metered_on_two_ranks();
  const dist::CommStats r = rescale(s, 2, 576);
  // 1000003 · 2/576 = 3472.23…, truncated like a metered counter.
  EXPECT_EQ(r.flops, 3472u);
  EXPECT_EQ(r.flops, static_cast<std::size_t>(
                         static_cast<double>(s.flops) * (2.0 / 576.0)));
}

TEST(Rescale, ReplicatedFlopsUnchanged) {
  const dist::CommStats s = metered_on_two_ranks();
  EXPECT_EQ(rescale(s, 2, 576).replicated_flops, s.replicated_flops);
  EXPECT_EQ(rescale(s, 2, 3072).replicated_flops, s.replicated_flops);
}

TEST(Rescale, MeasuredRanksIsIdentity) {
  const dist::CommStats s = metered_on_two_ranks();
  for (int p : {2, 8, 576}) {
    const dist::CommStats r = rescale(s, p, p);
    EXPECT_EQ(r.flops, s.flops) << "P=" << p;
    EXPECT_EQ(r.replicated_flops, s.replicated_flops) << "P=" << p;
    EXPECT_EQ(r.messages, s.messages) << "P=" << p;
    EXPECT_EQ(r.words, s.words) << "P=" << p;
  }
}

}  // namespace
}  // namespace sa::perf
