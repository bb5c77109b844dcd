// The BSP engine (BspAllMatch::Run), with each tuple's proof placed on one
// fragment, must be a drop-in replacement for the serial driver:
// byte-identical match sets for every worker count, with and without
// inverted-index blocking, and GenerateCandidates must be invariant in its
// thread count. Run under TSan by tools/run_tier1.sh
// (cmake -DHER_SANITIZE=thread) to certify the shared read-only context.

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "core/drivers.h"
#include "core/match_engine.h"
#include "graph/traversal.h"
#include "ml/text_embedder.h"
#include "parallel/bsp_engine.h"

namespace her {
namespace {

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

/// Random attribute-graph pair (as in core_test's order-independence
/// suite) with `roots` item vertices per side.
std::pair<Graph, Graph> RandomGraphPair(uint64_t seed, int roots) {
  Rng rng(seed);
  const char* values[] = {"red", "white", "blue", "foam", "wool", "500"};
  const char* edges[] = {"color", "material", "qty", "kind"};
  GraphBuilder b1;
  GraphBuilder b2;
  for (int r = 0; r < roots; ++r) {
    const VertexId u = b1.AddVertex("item");
    const VertexId v = b2.AddVertex("item");
    const int attrs = 2 + static_cast<int>(rng.Below(3));
    for (int a = 0; a < attrs; ++a) {
      const char* e = edges[rng.Below(4)];
      const char* val1 = values[rng.Below(6)];
      const char* val2 = rng.Chance(0.7) ? val1 : values[rng.Below(6)];
      const VertexId c1 = b1.AddVertex(val1);
      b1.AddEdge(u, c1, e);
      const VertexId c2 = b2.AddVertex(val2);
      b2.AddEdge(v, c2, e);
      if (rng.Chance(0.3)) {
        const VertexId d1 = b1.AddVertex(values[rng.Below(6)]);
        b1.AddEdge(c1, d1, edges[rng.Below(4)]);
      }
    }
  }
  return {std::move(b1).Build(), std::move(b2).Build()};
}

std::vector<VertexId> ItemRoots(const Graph& g) {
  std::vector<VertexId> roots;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (g.label(u) == "item") roots.push_back(u);
  }
  return roots;
}

/// A BSP run of APair over `roots` with `workers` fragments, placed the
/// way HerSystem::APairParallel places them: the i-th tuple vertex and
/// every G_D vertex below it go to fragment i % workers, so each tuple's
/// candidates and their proofs are verified on one fragment.
ParallelResult Bsp(const MatchContext& ctx, std::span<const VertexId> roots,
                   uint32_t workers, const InvertedIndex* index = nullptr) {
  auto fragment_of = std::make_shared<std::vector<uint32_t>>(
      ctx.gd->num_vertices(), 0);
  for (size_t i = 0; i < roots.size(); ++i) {
    const uint32_t f = static_cast<uint32_t>(i % workers);
    (*fragment_of)[roots[i]] = f;
    for (const VertexId d : ReachableFrom(*ctx.gd, roots[i])) {
      (*fragment_of)[d] = f;
    }
  }
  ParallelConfig config;
  config.num_workers = workers;
  config.pair_owner = [fragment_of](const MatchPair& p) {
    return (*fragment_of)[p.first];
  };
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

  const auto serial = AllParaMatch(*h.engine, roots, index);
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

TEST(ParallelDriverTest, EmptyTupleSetYieldsEmptyResult) {
  auto [g1, g2] = RandomGraphPair(5, /*roots=*/2);
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 0.99, .delta = 0.9, .k = 4});
  EXPECT_TRUE(Bsp(h.ctx, {}, 4).matches.empty());
}

}  // namespace
}  // namespace her
