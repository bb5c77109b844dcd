// The BSP engine (BspAllMatch::Run), with each tuple's proof placed on one
// fragment, must be a drop-in replacement for the serial driver:
// byte-identical match sets for every worker count, with and without
// inverted-index blocking, and GenerateCandidates must be invariant in its
// thread count. Run under TSan by tools/run_tier1.sh
// (cmake -DHER_SANITIZE=thread) to certify the shared context, including
// the lazy PropertyTable a run's fragments fill together.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>

#include "core/drivers.h"
#include "core/match_engine.h"
#include "ml/text_embedder.h"
#include "parallel/bsp_engine.h"
#include "tests/test_util.h"

namespace her {
namespace {

using testutil::RandomGraphPair;

/// Full MatchContext over two graphs with the deterministic test scorers,
/// mirroring the core_test harness.
struct Harness {
  Harness(Graph a, Graph b, SimulationParams params)
      : g1(std::move(a)), g2(std::move(b)) {
    hv = std::make_unique<JaccardVertexScorer>(g1, g2);
    vocab = std::make_unique<JointVocab>(g1, g2);
    mrho = std::make_unique<TokenOverlapPathScorer>(vocab.get());
    hr = std::make_unique<PraRanker>(g1, g2);
    ctx.gd = &g1;
    ctx.g = &g2;
    ctx.hv = hv.get();
    ctx.mrho = mrho.get();
    ctx.hr = hr.get();
    ctx.vocab = vocab.get();
    ctx.params = params;
    engine = std::make_unique<MatchEngine>(ctx);
  }

  Graph g1, g2;
  std::unique_ptr<JaccardVertexScorer> hv;
  std::unique_ptr<JointVocab> vocab;
  std::unique_ptr<TokenOverlapPathScorer> mrho;
  std::unique_ptr<PraRanker> hr;
  MatchContext ctx;
  std::unique_ptr<MatchEngine> engine;
};

std::vector<VertexId> ItemRoots(const Graph& g) {
  std::vector<VertexId> roots;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (g.label(u) == "item") roots.push_back(u);
  }
  return roots;
}

/// A BSP run of APair over `roots` with `workers` fragments, placed the
/// way HerSystem::APairParallel places them (testutil::TupleColocation).
ParallelResult Bsp(const MatchContext& ctx, std::span<const VertexId> roots,
                   uint32_t workers, const InvertedIndex* index = nullptr) {
  ParallelConfig config;
  config.num_workers = workers;
  config.pair_owner = testutil::TupleColocation(*ctx.gd, roots, workers);
  BspAllMatch bsp(ctx, config);
  ParallelResult result = bsp.Run(roots, index);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  return result;
}

class ParallelDriverTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDriverTest, ByteIdenticalToSerialForAllWorkerCounts) {
  auto [g1, g2] = RandomGraphPair(GetParam(), /*roots=*/6);
  const SimulationParams params{.sigma = 0.99, .delta = 0.9, .k = 4};
  Harness h(std::move(g1), std::move(g2), params);
  const auto roots = ItemRoots(h.g1);

  const auto serial = AllParaMatch(*h.engine, roots);
  for (const uint32_t workers : {1u, 2u, 8u}) {
    const ParallelResult parallel = Bsp(h.ctx, roots, workers);
    EXPECT_EQ(parallel.matches, serial) << "workers=" << workers;
    EXPECT_GT(parallel.stats.para_match_calls, 0u);
  }
}

TEST_P(ParallelDriverTest, BlockedVariantAgreesAcrossWorkerCounts) {
  auto [g1, g2] = RandomGraphPair(GetParam() + 1000, /*roots=*/5);
  const SimulationParams params{.sigma = 0.99, .delta = 0.9, .k = 4};
  Harness h(std::move(g1), std::move(g2), params);
  const auto roots = ItemRoots(h.g1);
  const InvertedIndex index(h.g2);

  const auto serial = AllParaMatch(*h.engine, roots, &index);
  for (const uint32_t workers : {1u, 2u, 8u}) {
    EXPECT_EQ(Bsp(h.ctx, roots, workers, &index).matches, serial)
        << "workers=" << workers;
  }
}

TEST_P(ParallelDriverTest, GenerateCandidatesThreadInvariant) {
  auto [g1, g2] = RandomGraphPair(GetParam() + 2000, /*roots=*/8);
  const SimulationParams params{.sigma = 0.99, .delta = 0.9, .k = 4};
  Harness h(std::move(g1), std::move(g2), params);
  const auto roots = ItemRoots(h.g1);

  const auto one = GenerateCandidates(h.ctx, roots, nullptr, 1);
  for (const size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(GenerateCandidates(h.ctx, roots, nullptr, threads), one)
        << "threads=" << threads;
  }
  const InvertedIndex index(h.g2);
  const auto blocked_one = GenerateCandidates(h.ctx, roots, &index, 1);
  for (const size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(GenerateCandidates(h.ctx, roots, &index, threads), blocked_one)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDriverTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

TEST(ParallelDriverTest, EmbeddingScorerDeterminismAcrossWorkers) {
  // The trained-path scorer (one contiguous-matrix kernel shared by every
  // worker) must also be safe and deterministic across BSP workers.
  auto [g1, g2] = RandomGraphPair(777, /*roots=*/6);
  const SimulationParams params{.sigma = 0.9, .delta = 0.5, .k = 4};
  Harness h(std::move(g1), std::move(g2), params);
  const HashedTextEmbedder embedder;
  const EmbeddingVertexScorer emb_hv(h.g1, h.g2, embedder);
  h.ctx.hv = &emb_hv;
  const auto roots = ItemRoots(h.g1);

  MatchEngine serial_engine(h.ctx);
  const auto serial = AllParaMatch(serial_engine, roots);
  for (const uint32_t workers : {1u, 2u, 8u}) {
    EXPECT_EQ(Bsp(h.ctx, roots, workers).matches, serial)
        << "workers=" << workers;
  }
  EXPECT_GT(serial_engine.stats().hv_batch_calls, 0u);
}

/// h_r that records how often each vertex is ranked, then defers to
/// `inner`. Thread-safe.
class RecordingRanker : public DescendantRanker {
 public:
  explicit RecordingRanker(const DescendantRanker& inner) : inner_(inner) {}

  std::vector<RankedProperty> TopK(int graph, VertexId v,
                                   int k) const override {
    return inner_.TopK(graph, v, k);
  }

  std::vector<std::vector<RankedProperty>> TopKBatch(
      int graph, std::span<const VertexId> vs, int k) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const VertexId v : vs) ++times_[{graph, v}];
    }
    return inner_.TopKBatch(graph, vs, k);
  }

  /// The rows ranked since the last call, and the most times one of them
  /// was ranked; clears the record.
  std::pair<size_t, int> TakeRecord() {
    std::lock_guard<std::mutex> lock(mu_);
    int most = 0;
    for (const auto& [row, n] : times_) most = std::max(most, n);
    const std::pair<size_t, int> out{times_.size(), most};
    times_.clear();
    return out;
  }

 private:
  const DescendantRanker& inner_;
  mutable std::mutex mu_;
  mutable std::map<std::pair<int, VertexId>, int> times_;
};

/// Without a PropertyTable in the context, a BSP run's fragments share one
/// lazy table, so each row is ranked once per run at every worker count
/// and partitioner: the ranker's TopKBatch count equals the rows the run
/// published (the distinct vertices ranked), no vertex reaches the ranker
/// twice, and Pi equals serial APair. Which rows a run reads can depend on
/// placement, since a border assumption changes the evaluation order.
TEST(ParallelDriverTest, LazyTableRanksEachRowOncePerRun) {
  for (const uint64_t seed : {3u, 8u}) {
    auto [g1, g2] = testutil::RandomEntityGraphs(seed, /*roots=*/10);
    testutil::ContextHarness h(std::move(g1), std::move(g2),
                               {.sigma = 0.99, .delta = 0.9, .k = 4});
    RecordingRanker recorder(*h.hr);
    h.ctx.hr = &recorder;
    ASSERT_EQ(h.ctx.properties, nullptr);
    const auto roots = ItemRoots(h.g1);
    MatchEngine serial_engine(h.ctx);
    const auto serial = AllParaMatch(serial_engine, roots);
    recorder.TakeRecord();
    for (const PartitionStrategy strategy :
         {PartitionStrategy::kHash, PartitionStrategy::kEdgeCut}) {
      for (const uint32_t workers : {1u, 2u, 4u}) {
        BspAllMatch bsp(h.ctx,
                        {.num_workers = workers, .strategy = strategy});
        const size_t before = h.hr->BatchCalls();
        const ParallelResult result = bsp.Run(roots);
        const size_t ranked = h.hr->BatchCalls() - before;
        const auto [rows, most] = recorder.TakeRecord();
        const auto where = ::testing::Message()
                           << "seed=" << seed << " workers=" << workers
                           << " strategy=" << static_cast<int>(strategy);
        EXPECT_EQ(result.matches, serial) << where;
        EXPECT_EQ(most, 1) << where;
        EXPECT_EQ(ranked, rows) << where;
        EXPECT_GT(ranked, 0u) << where;
      }
    }
  }
}

TEST(ParallelDriverTest, EmptyTupleSetYieldsEmptyResult) {
  auto [g1, g2] = RandomGraphPair(5, /*roots=*/2);
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 0.99, .delta = 0.9, .k = 4});
  EXPECT_TRUE(Bsp(h.ctx, {}, 4).matches.empty());
}

}  // namespace
}  // namespace her
