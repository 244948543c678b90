// SA-Group-Lasso equivalence tests — the extension module must reproduce
// the group-lasso iterate sequence to floating-point tolerance, the
// same invariant the paper establishes for Algorithms 2 and 4.
#include "core/registry.hpp"

#include <mutex>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {
namespace {

data::Dataset make_problem(std::uint64_t seed = 42) {
  data::RegressionConfig cfg;
  cfg.num_points = 60;
  cfg.num_features = 24;
  cfg.density = 0.5;
  cfg.support_size = 6;
  cfg.noise_sigma = 0.02;
  cfg.seed = seed;
  return data::make_regression(cfg).dataset;
}

SolverSpec base_options(const data::Dataset& d, std::size_t group_size) {
  SolverSpec opt = SolverSpec::make("group-lasso");
  opt.lambda = 0.2;
  opt.groups = GroupStructure::uniform(d.num_features(), group_size);
  opt.max_iterations = 200;
  opt.seed = 9;
  return opt;
}

struct GroupCase {
  std::size_t group_size;
  std::size_t s;
};

class SaGroupLassoSweep : public ::testing::TestWithParam<GroupCase> {};

TEST_P(SaGroupLassoSweep, MatchesNonSaIterates) {
  const GroupCase c = GetParam();
  const data::Dataset d = make_problem();
  const SolverSpec base = base_options(d, c.group_size);

  const SolveResult ref = solve(d, base);
  SolverSpec sa = base;
  sa.algorithm = "sa-group-lasso";
  sa.s = c.s;
  const SolveResult got = solve(d, sa);
  EXPECT_LT(la::max_rel_diff(ref.x, got.x), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SaGroupLassoSweep,
    ::testing::Values(GroupCase{1, 4}, GroupCase{3, 2}, GroupCase{3, 16},
                      GroupCase{4, 8}, GroupCase{8, 32}, GroupCase{5, 500},
                      GroupCase{24, 8}));  // one group repeatedly resampled

TEST(SaGroupLasso, RepeatedGroupWithinWindowHandled) {
  // Few groups + deep unrolling: the same group is updated several times
  // per window, exercising the deferred-state overlap path.
  const data::Dataset d = make_problem(7);
  SolverSpec base = base_options(d, 12);  // only 2 groups
  const SolveResult ref = solve(d, base);
  SolverSpec sa = base;
  sa.algorithm = "sa-group-lasso";
  sa.s = 64;
  const SolveResult got = solve(d, sa);
  EXPECT_LT(la::max_rel_diff(ref.x, got.x), 1e-9);
}

TEST(SaGroupLasso, ObjectiveDescends) {
  const data::Dataset d = make_problem();
  SolverSpec sa = base_options(d, 4);
  sa.algorithm = "sa-group-lasso";
  sa.trace_every = 50;
  sa.s = 10;
  const SolveResult r = solve(d, sa);
  ASSERT_GE(r.trace.points.size(), 2u);
  EXPECT_LT(r.trace.points.back().objective,
            r.trace.points.front().objective);
}

TEST(SaGroupLasso, DistributedMatchesSerial) {
  const data::Dataset d = make_problem(3);
  SolverSpec sa = base_options(d, 4);
  sa.algorithm = "sa-group-lasso";
  sa.s = 8;
  const SolveResult serial = solve(d, sa);

  const int ranks = 4;
  const data::Partition rows = data::Partition::block(d.num_points(), ranks);
  std::vector<std::vector<double>> per_rank(ranks);
  std::mutex lock;
  dist::run_distributed(ranks, [&](dist::Communicator& comm) {
    const SolveResult r = make_solver(comm, d, rows, sa)->run();
    std::scoped_lock guard(lock);
    per_rank[comm.rank()] = r.x;
  });
  for (int r = 0; r < ranks; ++r)
    EXPECT_LT(la::max_rel_diff(serial.x, per_rank[r]), 1e-10) << "rank " << r;
}

TEST(SaGroupLasso, CommunicationReducedByS) {
  const data::Dataset d = make_problem(5);
  SolverSpec base = base_options(d, 4);
  base.max_iterations = 64;

  const int ranks = 2;
  const data::Partition rows = data::Partition::block(d.num_points(), ranks);
  dist::CommStats ref_stats, sa_stats;
  std::mutex lock;
  dist::run_distributed(ranks, [&](dist::Communicator& comm) {
    make_solver(comm, d, rows, base)->run();
    if (comm.rank() == 0) {
      std::scoped_lock guard(lock);
      ref_stats = comm.stats();
    }
  });
  dist::run_distributed(ranks, [&](dist::Communicator& comm) {
    SolverSpec sa = base;
    sa.algorithm = "sa-group-lasso";
    sa.s = 8;
    make_solver(comm, d, rows, sa)->run();
    if (comm.rank() == 0) {
      std::scoped_lock guard(lock);
      sa_stats = comm.stats();
    }
  });
  EXPECT_EQ(ref_stats.collectives, 64u);
  EXPECT_EQ(sa_stats.collectives, 8u);
  EXPECT_GT(sa_stats.words, ref_stats.words);
}

TEST(SaGroupLasso, RejectsInvalidOptions) {
  const data::Dataset d = make_problem();
  SolverSpec sa = base_options(d, 4);
  sa.algorithm = "sa-group-lasso";
  sa.s = 0;
  EXPECT_THROW(solve(d, sa), sa::PreconditionError);
  sa.s = 4;
  sa.groups = GroupStructure::uniform(d.num_features() - 1, 4);
  EXPECT_THROW(solve(d, sa), sa::PreconditionError);
}

}  // namespace
}  // namespace sa::core
