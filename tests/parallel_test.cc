#include <gtest/gtest.h>

#include "core/drivers.h"
#include "parallel/bsp_engine.h"
#include "tests/test_util.h"

namespace her {
namespace {

using testutil::ContextHarness;
using testutil::ItemRoots;
using testutil::RandomEntityGraphs;

SimulationParams TestParams() { return {.sigma = 0.99, .delta = 0.9, .k = 4}; }

TEST(BspAllMatchTest, SingleWorkerMatchesSequential) {
  auto [g1, g2] = RandomEntityGraphs(101, 6);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);

  MatchEngine seq(h.ctx);
  const auto expected = AllParaMatch(seq, roots);

  BspAllMatch bsp(h.ctx, {.num_workers = 1});
  const auto result = bsp.Run(roots);
  EXPECT_EQ(result.matches, expected);
  EXPECT_GE(result.supersteps, 1u);
  EXPECT_EQ(result.messages, 0u);  // one fragment, nothing to exchange
}

/// Parallel Pi must equal sequential Pi for every (seed, workers) combo —
/// the Theorem 3 correctness property.
class BspEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(BspEquivalenceTest, ParallelEqualsSequential) {
  const auto [seed, workers] = GetParam();
  auto [g1, g2] = RandomEntityGraphs(seed, 8);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);

  MatchEngine seq(h.ctx);
  const auto expected = AllParaMatch(seq, roots);

  BspAllMatch bsp(h.ctx, {.num_workers = workers});
  const auto result = bsp.Run(roots);
  EXPECT_EQ(result.matches, expected)
      << "seed=" << seed << " workers=" << workers;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByWorkers, BspEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
                       ::testing::Values(2u, 3u, 4u, 8u)));

TEST(BspAllMatchTest, RangePartitionAlsoCorrect) {
  auto [g1, g2] = RandomEntityGraphs(55, 8);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  MatchEngine seq(h.ctx);
  const auto expected = AllParaMatch(seq, roots);
  BspAllMatch bsp(h.ctx,
                  {.num_workers = 4, .strategy = PartitionStrategy::kRange});
  EXPECT_EQ(bsp.Run(roots).matches, expected);
}

TEST(BspAllMatchTest, VPairMatchesSequentialVPair) {
  auto [g1, g2] = RandomEntityGraphs(77, 6);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  ASSERT_FALSE(roots.empty());
  const VertexId u_t = roots[0];

  MatchEngine seq(h.ctx);
  const auto expected = VParaMatch(seq, u_t);

  BspAllMatch bsp(h.ctx, {.num_workers = 4});
  const VertexId one_root[] = {u_t};
  const auto result = bsp.Run(one_root);
  std::vector<VertexId> got;
  for (const auto& [u, v] : result.matches) {
    EXPECT_EQ(u, u_t);
    got.push_back(v);
  }
  EXPECT_EQ(got, expected);
}

TEST(BspAllMatchTest, CrossFragmentAssumptionsExchangeMessages) {
  // A long FK chain forces recursion across fragments under range
  // partitioning, so border assumptions (and messages) must occur.
  GraphBuilder b1;
  GraphBuilder b2;
  const int n = 8;
  std::vector<VertexId> us, vs;
  for (int i = 0; i < n; ++i) {
    us.push_back(b1.AddVertex("item"));
    vs.push_back(b2.AddVertex("item"));
  }
  for (int i = 0; i < n; ++i) {
    const std::string val = (i == n - 1) ? "tailA" : "x";
    const std::string val2 = (i == n - 1) ? "tailB" : "x";  // mismatch at end
    const VertexId c1 = b1.AddVertex(val);
    b1.AddEdge(us[i], c1, "attr");
    const VertexId c2 = b2.AddVertex(val2);
    b2.AddEdge(vs[i], c2, "attr");
    if (i + 1 < n) {
      b1.AddEdge(us[i], us[i + 1], "ref");
      b2.AddEdge(vs[i], vs[i + 1], "ref");
    }
  }
  ContextHarness h(std::move(b1).Build(), std::move(b2).Build(),
                   {.sigma = 0.99, .delta = 0.7, .k = 4});
  const auto roots = ItemRoots(h.g1);
  MatchEngine seq(h.ctx);
  const auto expected = AllParaMatch(seq, roots);
  BspAllMatch bsp(h.ctx,
                  {.num_workers = 4, .strategy = PartitionStrategy::kRange});
  const auto result = bsp.Run(roots);
  EXPECT_EQ(result.matches, expected);
  EXPECT_GT(result.messages, 0u);
  EXPECT_GE(result.supersteps, 2u);
}

TEST(BspAllMatchTest, EmptyCandidateSetTerminatesImmediately) {
  GraphBuilder b1;
  b1.AddVertex("alpha");
  GraphBuilder b2;
  b2.AddVertex("omega");
  ContextHarness h(std::move(b1).Build(), std::move(b2).Build(), TestParams());
  BspAllMatch bsp(h.ctx, {.num_workers = 4});
  const std::vector<VertexId> roots = {0};
  const auto result = bsp.Run(roots);
  EXPECT_TRUE(result.matches.empty());
  EXPECT_EQ(result.supersteps, 1u);
}

TEST(BspAllMatchTest, StatsCarrySharedScorerSnapshots) {
  // The h_v / M_rho / h_r scorers are shared by every worker: their
  // counters are global, so the aggregate carries them (assigned, never
  // summed).
  auto [g1, g2] = RandomEntityGraphs(31, 8);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  BspAllMatch bsp(h.ctx, {.num_workers = 4});
  const auto result = bsp.Run(ItemRoots(h.g1));
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.stats.hv_batch_calls, 0u);
  EXPECT_EQ(result.stats.hv_batch_calls, h.ctx.hv->BatchCalls());
  EXPECT_EQ(result.stats.hrho_batch_calls, h.ctx.mrho->BatchCalls());
  EXPECT_EQ(result.stats.hr_batch_calls, h.ctx.hr->BatchCalls());
}

TEST(BspAllMatchTest, RunReportsCandidateScan) {
  // Run scans once, outside the workers, and reports that scan; a caller
  // of RunOnCandidates did its own blocking, so no scan is reported.
  auto [g1, g2] = RandomEntityGraphs(31, 8);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  BspAllMatch bsp(h.ctx, {.num_workers = 4});
  const auto scanned = bsp.Run(roots);
  ASSERT_TRUE(scanned.status.ok());
  EXPECT_EQ(scanned.stats.candidate_gen_runs, 1u);
  EXPECT_GE(scanned.stats.candidate_gen_seconds, 0.0);

  const auto given = bsp.RunOnCandidates(
      GenerateCandidates(h.ctx, roots, /*index=*/nullptr));
  ASSERT_TRUE(given.status.ok());
  EXPECT_EQ(given.stats.candidate_gen_runs, 0u);
  EXPECT_EQ(given.stats.candidate_gen_seconds, 0.0);
  EXPECT_EQ(given.matches, scanned.matches);
}

TEST(BspAllMatchTest, MoreWorkersThanVerticesStillCorrect) {
  auto [g1, g2] = RandomEntityGraphs(91, 2);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  MatchEngine seq(h.ctx);
  const auto expected = AllParaMatch(seq, roots);
  BspAllMatch bsp(h.ctx, {.num_workers = 16});
  EXPECT_EQ(bsp.Run(roots).matches, expected);
}

}  // namespace
}  // namespace her
