#include <gtest/gtest.h>

#include <algorithm>

#include "core/incremental.h"
#include "core/match_engine.h"
#include "datagen/dataset.h"
#include "learn/her_system.h"
#include "learn/metrics.h"
#include "tests/test_util.h"

namespace her {
namespace {

using testutil::ContextHarness;

Graph Chain(int n) {
  GraphBuilder b;
  VertexId prev = b.AddVertex("n0");
  for (int i = 1; i < n; ++i) {
    const VertexId cur =
        b.AddVertex(std::string("n").append(std::to_string(i)));
    b.AddEdge(prev, cur, "e");
    prev = cur;
  }
  return std::move(b).Build();
}

TEST(ChangedOutVerticesTest, DetectsEdgeRemoval) {
  const Graph before = Chain(4);
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) {
    b.AddVertex(std::string("n").append(std::to_string(i)));
  }
  b.AddEdge(0, 1, "e");
  b.AddEdge(1, 2, "e");  // edge 2->3 removed
  const Graph after = std::move(b).Build();
  EXPECT_EQ(ChangedOutVertices(before, after), (std::vector<VertexId>{2}));
}

TEST(ChangedOutVerticesTest, DetectsLabelChange) {
  GraphBuilder b1;
  b1.AddVertex("a");
  b1.AddVertex("b");
  b1.AddEdge(0, 1, "x");
  GraphBuilder b2;
  b2.AddVertex("a");
  b2.AddVertex("b");
  b2.AddEdge(0, 1, "y");
  EXPECT_EQ(ChangedOutVertices(std::move(b1).Build(), std::move(b2).Build()),
            (std::vector<VertexId>{0}));
}

TEST(ChangedOutVerticesTest, IdenticalGraphsChangeNothing) {
  EXPECT_TRUE(ChangedOutVertices(Chain(5), Chain(5)).empty());
}

TEST(ReverseReachTest, WalksAncestors) {
  const Graph g = Chain(5);  // 0 -> 1 -> 2 -> 3 -> 4
  const std::vector<VertexId> sources = {3};
  EXPECT_EQ(ReverseReach(g, sources, 1), (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(ReverseReach(g, sources, 10),
            (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(ReverseReachTest, MultipleSourcesDeduplicated) {
  const Graph g = Chain(4);
  const std::vector<VertexId> sources = {1, 2};
  EXPECT_EQ(ReverseReach(g, sources, 1), (std::vector<VertexId>{0, 1, 2}));
}

TEST(InvalidateForUpdateTest, DropsAffectedAndDependents) {
  // Star pair: match cached, then invalidate the v-side attribute vertex.
  GraphBuilder b1;
  const VertexId u = b1.AddVertex("item");
  const VertexId uc = b1.AddVertex("white");
  b1.AddEdge(u, uc, "color");
  GraphBuilder b2;
  const VertexId v = b2.AddVertex("item");
  const VertexId vc = b2.AddVertex("white");
  b2.AddEdge(v, vc, "color");
  ContextHarness h(std::move(b1).Build(), std::move(b2).Build(),
                   {.sigma = 1.0, .delta = 0.4, .k = 5});
  MatchEngine engine(h.ctx);
  ASSERT_TRUE(engine.Match(u, v));
  ASSERT_NE(engine.Lookup(u, v), nullptr);
  ASSERT_NE(engine.Lookup(uc, vc), nullptr);
  // Invalidating the leaf pair must drop its dependent (u, v) too.
  const std::vector<VertexId> affected = {vc};
  engine.InvalidateForUpdate({}, affected);
  EXPECT_EQ(engine.Lookup(uc, vc), nullptr);
  EXPECT_EQ(engine.Lookup(u, v), nullptr);
  // Re-evaluation still works.
  EXPECT_TRUE(engine.Match(u, v));
}

TEST(InvalidateForUpdateTest, UnrelatedVerdictsSurvive) {
  GraphBuilder b1;
  const VertexId u0 = b1.AddVertex("item");
  b1.AddEdge(u0, b1.AddVertex("white"), "color");
  const VertexId u1 = b1.AddVertex("item");
  b1.AddEdge(u1, b1.AddVertex("red"), "color");
  GraphBuilder b2;
  const VertexId v0 = b2.AddVertex("item");
  const VertexId v0c = b2.AddVertex("white");
  b2.AddEdge(v0, v0c, "color");
  const VertexId v1 = b2.AddVertex("item");
  b2.AddEdge(v1, b2.AddVertex("red"), "color");
  ContextHarness h(std::move(b1).Build(), std::move(b2).Build(),
                   {.sigma = 1.0, .delta = 0.4, .k = 5});
  MatchEngine engine(h.ctx);
  ASSERT_TRUE(engine.Match(u0, v0));
  ASSERT_TRUE(engine.Match(u1, v1));
  const std::vector<VertexId> affected = {v0c, v0};
  engine.InvalidateForUpdate({}, affected);
  EXPECT_EQ(engine.Lookup(u0, v0), nullptr);
  ASSERT_NE(engine.Lookup(u1, v1), nullptr);  // untouched pair survives
  EXPECT_TRUE(engine.Lookup(u1, v1)->valid);
}

/// End-to-end: updated G, incremental verdicts == from-scratch verdicts.
class IncrementalSystemTest : public ::testing::Test {
 protected:
  static Graph RemoveOneEdge(const Graph& g, VertexId src, size_t edge_idx) {
    GraphBuilder b;
    for (VertexId v = 0; v < g.num_vertices(); ++v) b.AddVertex(g.label(v));
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto edges = g.OutEdges(v);
      for (size_t i = 0; i < edges.size(); ++i) {
        if (v == src && i == edge_idx) continue;
        b.AddEdge(v, edges[i].dst, g.EdgeLabelName(edges[i].label));
      }
    }
    return std::move(b).Build();
  }
};

TEST_F(IncrementalSystemTest, UpdateGraphMatchesFreshRetrain) {
  DatasetSpec spec = UkgovSpec(83);
  spec.num_entities = 60;
  spec.annotations_per_class = 50;
  const GeneratedDataset data = Generate(spec);
  const AnnotationSplit split = SplitAnnotations(data.annotations);

  HerConfig cfg;
  cfg.learn.train_lstm = false;  // PRA ranker: deterministic across rebinds
  HerSystem sys(data.canonical, data.g, cfg);
  sys.Train(data.path_pairs, split.validation);

  // Warm the cache on the test pairs BEFORE the update: stale verdicts
  // must be retracted by UpdateGraph, surviving ones reused.
  for (const Annotation& a : split.test) sys.SPairVertex(a.u, a.v);

  // Drop one attribute edge of a matched entity vertex.
  const VertexId victim = data.true_matches.front().second;
  ASSERT_GT(data.g.OutDegree(victim), 0u);
  const Graph updated = RemoveOneEdge(data.g, victim, 0);

  sys.UpdateGraph(updated);

  // Reference: an identically trained system (same models, deterministic
  // training) that takes the update with a COLD verdict cache, so every
  // pair is evaluated from scratch against the updated graph.
  HerSystem fresh(data.canonical, data.g, cfg);
  fresh.Train(data.path_pairs, split.validation);
  fresh.UpdateGraph(updated);
  fresh.SetParams(sys.params());  // drops all cached verdicts

  for (const Annotation& a : split.test) {
    EXPECT_EQ(sys.SPairVertex(a.u, a.v), fresh.SPairVertex(a.u, a.v))
        << "pair (" << a.u << ", " << a.v << ")";
  }
}

TEST_F(IncrementalSystemTest, ExpiredUpdateLeavesConsistentResumableState) {
  DatasetSpec spec = UkgovSpec(84);
  spec.num_entities = 60;
  spec.annotations_per_class = 50;
  const GeneratedDataset data = Generate(spec);
  const AnnotationSplit split = SplitAnnotations(data.annotations);

  HerConfig cfg;
  cfg.learn.train_lstm = false;
  HerSystem sys(data.canonical, data.g, cfg);
  sys.Train(data.path_pairs, split.validation);
  for (const Annotation& a : split.test) sys.SPairVertex(a.u, a.v);
  ASSERT_TRUE(sys.UpdateComplete());

  const VertexId victim = data.true_matches.front().second;
  ASSERT_GT(data.g.OutDegree(victim), 0u);
  const Graph updated = RemoveOneEdge(data.g, victim, 0);

  // An already-expired deadline: the affected verdicts must STILL be
  // retracted (no stale verdict may survive the graph switch), but no
  // property row can be re-ranked — they all stay pending.
  RunOptions expired;
  expired.deadline = RunOptions::Clock::now() - std::chrono::seconds(1);
  sys.UpdateGraph(updated, expired);
  EXPECT_FALSE(sys.UpdateComplete());

  // Retraction check: the victim's own pair has no cached verdict.
  MatchEngine& engine = sys.engine();
  for (const auto& [t, v] : data.true_matches) {
    if (v == victim) {
      EXPECT_EQ(engine.Lookup(sys.canonical().VertexOf(t), v), nullptr);
    }
  }

  // Resuming under another expired budget keeps the pending set (progress
  // is monotone, never lost) and reports the shortfall.
  const Status parked = sys.CompleteUpdate(expired);
  EXPECT_FALSE(parked.ok());
  EXPECT_EQ(parked.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(sys.UpdateComplete());

  // An unbounded completion finishes the parked work...
  ASSERT_TRUE(sys.CompleteUpdate({}).ok());
  EXPECT_TRUE(sys.UpdateComplete());

  // ...and the verdicts equal a system that took the update in one
  // uninterrupted pass.
  HerSystem fresh(data.canonical, data.g, cfg);
  fresh.Train(data.path_pairs, split.validation);
  fresh.UpdateGraph(updated);
  fresh.SetParams(sys.params());
  for (const Annotation& a : split.test) {
    EXPECT_EQ(sys.SPairVertex(a.u, a.v), fresh.SPairVertex(a.u, a.v))
        << "pair (" << a.u << ", " << a.v << ")";
  }
}

TEST_F(IncrementalSystemTest, EdgeInsertionCanCreateMatch) {
  // u(item) with two attributes; v initially has one -> below delta; after
  // inserting the second attribute edge the pair matches.
  GraphBuilder b1;
  const VertexId u = b1.AddVertex("item");
  b1.AddEdge(u, b1.AddVertex("white"), "color");
  b1.AddEdge(u, b1.AddVertex("foam"), "material");
  Graph g1 = std::move(b1).Build();

  GraphBuilder b2a;
  const VertexId v = b2a.AddVertex("item");
  b2a.AddVertex("foam");  // vertex exists but is not yet connected
  b2a.AddEdge(v, b2a.AddVertex("white"), "color");
  // The update model requires a stable edge-label space: pre-intern the
  // label the later insertion uses.
  b2a.InternEdgeLabel("material");
  Graph g2_before = std::move(b2a).Build();

  GraphBuilder b2b;
  b2b.AddVertex("item");
  b2b.AddVertex("foam");
  b2b.AddEdge(0, b2b.AddVertex("white"), "color");
  b2b.AddEdge(0, 1, "material");
  Graph g2_after = std::move(b2b).Build();

  ContextHarness h(std::move(g1), Graph(g2_before),
                   {.sigma = 1.0, .delta = 0.9, .k = 5});
  MatchEngine engine(h.ctx);
  EXPECT_FALSE(engine.Match(u, v));

  // Apply the update at the engine level (harness keeps the old graph;
  // swap the context's G and rebind the ranker as HerSystem does).
  const auto changed = ChangedOutVertices(h.g2, g2_after);
  const auto affected = ReverseReach(g2_after, changed, 4);
  h.g2 = std::move(g2_after);
  h.hr = std::make_unique<PraRanker>(h.g1, h.g2);  // rebind
  h.ctx.hr = h.hr.get();
  engine.InvalidateForUpdate({}, affected);
  EXPECT_TRUE(engine.Match(u, v));
}

}  // namespace
}  // namespace her
