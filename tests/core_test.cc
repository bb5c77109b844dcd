#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>

#include "common/rng.h"
#include "core/drivers.h"
#include "core/match_engine.h"
#include "core/schema_match.h"
#include "ml/mlp.h"
#include "ml/sgns.h"
#include "sim/scores.h"
#include "tests/test_util.h"

namespace her {

/// Reads MatchEngine's candidate lists of one run: lists[r][i] is list
/// (r, i) as (v2, h_rho) pairs.
class MatchEnginePeer {
 public:
  using List = std::vector<std::pair<VertexId, double>>;
  static std::vector<std::vector<List>> Lists(
      MatchEngine& engine, std::span<const Property> pu,
      std::span<const std::span<const Property>> pvs) {
    const MatchEngine::CandidateLists lists =
        engine.CandidateListsFor(pu, pvs);
    std::vector<std::vector<List>> out(pvs.size(),
                                       std::vector<List>(pu.size()));
    for (size_t r = 0; r < pvs.size(); ++r) {
      for (size_t i = 0; i < pu.size(); ++i) {
        for (const auto& c : lists.List(r, i)) {
          out[r][i].emplace_back(c.v2, c.hrho);
        }
      }
    }
    return out;
  }
};

namespace {

/// Owns a full MatchContext over two graphs with the deterministic test
/// scorers (token Jaccard h_v, token-overlap M_rho, PRA-only h_r).
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

/// u("item") with attribute children; labels given as (edge, value) pairs.
Graph Star(const std::vector<std::pair<std::string, std::string>>& attrs,
           const std::string& root_label = "item") {
  GraphBuilder b;
  const VertexId root = b.AddVertex(root_label);
  for (const auto& [edge, value] : attrs) {
    const VertexId c = b.AddVertex(value);
    b.AddEdge(root, c, edge);
  }
  return std::move(b).Build();
}

TEST(ParaMatchTest, LeafPairMatchesOnLabel) {
  GraphBuilder b1;
  b1.AddVertex("white");
  GraphBuilder b2;
  b2.AddVertex("white");
  Harness h(std::move(b1).Build(), std::move(b2).Build(),
            {.sigma = 1.0, .delta = 2.0, .k = 5});
  EXPECT_TRUE(h.engine->Match(0, 0));
  const auto* e = h.engine->Lookup(0, 0);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->valid);
  EXPECT_TRUE(e->witnesses.empty());
}

TEST(ParaMatchTest, LeafPairFailsOnLabelMismatch) {
  GraphBuilder b1;
  b1.AddVertex("white");
  GraphBuilder b2;
  b2.AddVertex("red");
  Harness h(std::move(b1).Build(), std::move(b2).Build(),
            {.sigma = 0.5, .delta = 2.0, .k = 5});
  EXPECT_FALSE(h.engine->Match(0, 0));
}

TEST(ParaMatchTest, TwoMatchingAttributesReachDelta) {
  Graph g1 = Star({{"color", "white"}, {"material", "foam"}});
  Graph g2 = Star({{"color", "white"}, {"material", "foam"}});
  // Each attribute pair: M_rho = 1, h_rho = 1/2; total 1.0.
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.9, .k = 5});
  EXPECT_TRUE(h.engine->Match(0, 0));
}

TEST(ParaMatchTest, DeltaAboveReachableSumFails) {
  Graph g1 = Star({{"color", "white"}, {"material", "foam"}});
  Graph g2 = Star({{"color", "white"}, {"material", "foam"}});
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 1.1, .k = 5});
  EXPECT_FALSE(h.engine->Match(0, 0));
}

TEST(ParaMatchTest, NotAllPropertiesNeedAMatch) {
  // qty has no counterpart in G (paper Example 4 note).
  Graph g1 = Star({{"color", "white"}, {"material", "foam"}, {"qty", "500"}});
  Graph g2 = Star({{"color", "white"}, {"material", "foam"}});
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.9, .k = 5});
  EXPECT_TRUE(h.engine->Match(0, 0));
}

TEST(ParaMatchTest, AttributeEdgeMapsToPath) {
  // G_D: u -made_in-> "VN".   G: v -made-> f -in-> "VN".
  Graph g1 = Star({{"made_in", "VN"}});
  GraphBuilder b2;
  const VertexId v = b2.AddVertex("item");
  const VertexId f = b2.AddVertex("factory");
  const VertexId c = b2.AddVertex("VN");
  b2.AddEdge(v, f, "made");
  b2.AddEdge(f, c, "in");
  Graph g2 = std::move(b2).Build();
  // M_rho({made,in}, {made,in}) = 1; h_rho = 1/(1+2) = 1/3.
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.3, .k = 5});
  EXPECT_TRUE(h.engine->Match(0, 0));
  // And with delta just above 1/3 it fails.
  Harness h2(Star({{"made_in", "VN"}}), Graph(h.g2),
             {.sigma = 1.0, .delta = 0.34, .k = 5});
  EXPECT_FALSE(h2.engine->Match(0, 0));
}

TEST(ParaMatchTest, SigmaGatesRootPair) {
  Graph g1 = Star({{"color", "white"}}, "item");
  Graph g2 = Star({{"color", "white"}}, "product");
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 0.5, .delta = 0.4, .k = 5});
  EXPECT_FALSE(h.engine->Match(0, 0));  // Jaccard(item, product) = 0 < 0.5
}

TEST(ParaMatchTest, LineageMappingIsInjective) {
  // Two u-children labeled "x" via edge "a", but only one matching v-child:
  // without injectivity the single v-child would be counted twice.
  GraphBuilder b1;
  const VertexId u = b1.AddVertex("item");
  const VertexId u1 = b1.AddVertex("x");
  const VertexId u2 = b1.AddVertex("x");
  b1.AddEdge(u, u1, "a");
  b1.AddEdge(u, u2, "a");
  Graph g1 = std::move(b1).Build();
  Graph g2 = Star({{"a", "x"}});
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.8, .k = 5});
  // Max injective aggregate is 0.5 < 0.8.
  EXPECT_FALSE(h.engine->Match(0, 0));
  // A single shared child is enough at delta 0.5.
  Harness h2(Graph(h.g1), Graph(h.g2), {.sigma = 1.0, .delta = 0.5, .k = 5});
  EXPECT_TRUE(h2.engine->Match(0, 0));
}

/// Builds the interdependent-candidates scenario of Appendix C (Fig. 7):
/// u -e1-> u1, u1 -e2-> u2, u2 -e3-> u1 (SCC), u1 -e4-> u3 (decisive
/// subtree whose children zz/zw decide the match), u2 -e5-> u4 (supporting
/// leaf); mirrored in G. `u3_matches` controls whether u3's children agree
/// — the failure is only discoverable by recursion, so the early
/// termination bound cannot prune it and the cleanup stage must fire.
struct CycleGraphs {
  Graph g1, g2;
};
CycleGraphs MakeCycleGraphs(bool u3_matches) {
  GraphBuilder b1;
  const VertexId u = b1.AddVertex("item");
  const VertexId u1 = b1.AddVertex("n");
  const VertexId u2 = b1.AddVertex("m");
  const VertexId u3 = b1.AddVertex("z");
  const VertexId u4 = b1.AddVertex("w");
  const VertexId uz1 = b1.AddVertex("zz");
  const VertexId uz2 = b1.AddVertex("zw");
  b1.AddEdge(u, u1, "e1");
  b1.AddEdge(u1, u2, "e2");
  b1.AddEdge(u2, u1, "e3");
  b1.AddEdge(u1, u3, "e4");
  b1.AddEdge(u2, u4, "e5");
  b1.AddEdge(u3, uz1, "e6");
  b1.AddEdge(u3, uz2, "e7");
  GraphBuilder b2;
  const VertexId v = b2.AddVertex("item");
  const VertexId v1 = b2.AddVertex("n");
  const VertexId v2 = b2.AddVertex("m");
  const VertexId v3 = b2.AddVertex("z");
  const VertexId v4 = b2.AddVertex("w");
  const VertexId vz1 = b2.AddVertex(u3_matches ? "zz" : "qq");
  const VertexId vz2 = b2.AddVertex(u3_matches ? "zw" : "qw");
  b2.AddEdge(v, v1, "e1");
  b2.AddEdge(v1, v2, "e2");
  b2.AddEdge(v2, v1, "e3");
  b2.AddEdge(v1, v3, "e4");
  b2.AddEdge(v2, v4, "e5");
  b2.AddEdge(v3, vz1, "e6");
  b2.AddEdge(v3, vz2, "e7");
  return {std::move(b1).Build(), std::move(b2).Build()};
}

TEST(ParaMatchTest, InterdependentCandidatesMatchWhenConsistent) {
  CycleGraphs cg = MakeCycleGraphs(/*u3_matches=*/true);
  Harness h(std::move(cg.g1), std::move(cg.g2),
            {.sigma = 1.0, .delta = 0.9, .k = 5});
  EXPECT_TRUE(h.engine->Match(0, 0));
  // The SCC pairs are all valid.
  EXPECT_TRUE(h.engine->Lookup(1, 1)->valid);  // (u1, v1)
  EXPECT_TRUE(h.engine->Lookup(2, 2)->valid);  // (u2, v2)
  EXPECT_TRUE(h.engine->Lookup(3, 3)->valid);  // (u3, v3)
}

TEST(ParaMatchTest, CleanupInvalidatesDependentsInCycle) {
  CycleGraphs cg = MakeCycleGraphs(/*u3_matches=*/false);
  Harness h(std::move(cg.g1), std::move(cg.g2),
            {.sigma = 1.0, .delta = 0.9, .k = 5});
  EXPECT_FALSE(h.engine->Match(0, 0));
  // (u2, v2) was optimistically validated through (u1, v1) and must have
  // been cleaned up when (u1, v1) failed on the decisive subtree u3.
  const auto* e21 = h.engine->Lookup(1, 1);
  const auto* e22 = h.engine->Lookup(2, 2);
  ASSERT_NE(e21, nullptr);
  ASSERT_NE(e22, nullptr);
  EXPECT_FALSE(e21->valid);
  EXPECT_FALSE(e22->valid);
  // The supporting leaves still match.
  EXPECT_TRUE(h.engine->Lookup(4, 4)->valid);
  EXPECT_GE(h.engine->stats().cleanup_reruns, 1u);
}

TEST(ParaMatchTest, WitnessContainsTransitiveLineage) {
  CycleGraphs cg = MakeCycleGraphs(true);
  Harness h(std::move(cg.g1), std::move(cg.g2),
            {.sigma = 1.0, .delta = 0.9, .k = 5});
  ASSERT_TRUE(h.engine->Match(0, 0));
  const auto pi = h.engine->Witness(0, 0);
  // Pi contains (u, v) itself and reaches into the SCC.
  EXPECT_TRUE(std::find(pi.begin(), pi.end(), MatchPair{0, 0}) != pi.end());
  EXPECT_TRUE(std::find(pi.begin(), pi.end(), MatchPair{1, 1}) != pi.end());
  EXPECT_GE(pi.size(), 3u);
}

TEST(ParaMatchTest, WitnessEmptyForNonMatch) {
  CycleGraphs cg = MakeCycleGraphs(false);
  Harness h(std::move(cg.g1), std::move(cg.g2),
            {.sigma = 1.0, .delta = 0.9, .k = 5});
  EXPECT_FALSE(h.engine->Match(0, 0));
  EXPECT_TRUE(h.engine->Witness(0, 0).empty());
}

TEST(ParaMatchTest, SecondCallHitsCache) {
  Graph g1 = Star({{"color", "white"}});
  Graph g2 = Star({{"color", "white"}});
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.4, .k = 5});
  EXPECT_TRUE(h.engine->Match(0, 0));
  const size_t calls = h.engine->stats().para_match_calls;
  EXPECT_TRUE(h.engine->Match(0, 0));
  EXPECT_EQ(h.engine->stats().para_match_calls, calls);
  EXPECT_GE(h.engine->stats().cache_hits, 1u);
}

TEST(ParaMatchTest, ClearPairCacheForcesReevaluation) {
  Graph g1 = Star({{"color", "white"}});
  Graph g2 = Star({{"color", "white"}});
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.4, .k = 5});
  EXPECT_TRUE(h.engine->Match(0, 0));
  h.engine->ClearPairCache();
  EXPECT_EQ(h.engine->Lookup(0, 0), nullptr);
  EXPECT_TRUE(h.engine->Match(0, 0));
}

TEST(ParaMatchTest, PropertiesOfRespectsK) {
  Graph g1 = Star({{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}});
  Graph g2 = Star({{"a", "1"}});
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.4, .k = 2});
  EXPECT_EQ(h.engine->PropertiesOf(0, 0).size(), 2u);
}

TEST(ParaMatchTest, VacuousDeltaMatchesOnLabelAlone) {
  Graph g1 = Star({{"a", "1"}});
  Graph g2 = Star({{"b", "2"}});
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.0, .k = 5});
  EXPECT_TRUE(h.engine->Match(0, 0));
}

TEST(VParaMatchTest, FindsAllMatchingVertices) {
  Graph g1 = Star({{"color", "white"}, {"material", "foam"}});
  // G holds two items: one matching, one with different attributes, plus an
  // unrelated vertex.
  GraphBuilder b2;
  const VertexId v1 = b2.AddVertex("item");
  const VertexId c1 = b2.AddVertex("white");
  const VertexId m1 = b2.AddVertex("foam");
  b2.AddEdge(v1, c1, "color");
  b2.AddEdge(v1, m1, "material");
  const VertexId v2 = b2.AddVertex("item");
  const VertexId c2 = b2.AddVertex("red");
  const VertexId m2 = b2.AddVertex("leather");
  b2.AddEdge(v2, c2, "color");
  b2.AddEdge(v2, m2, "material");
  b2.AddVertex("unrelated");
  Graph g2 = std::move(b2).Build();
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.9, .k = 5});
  const auto matches = VParaMatch(*h.engine, 0);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], v1);
}

TEST(VParaMatchTest, BlockedVariantAgreesWithExhaustive) {
  Graph g1 = Star({{"color", "white"}});
  GraphBuilder b2;
  const VertexId v1 = b2.AddVertex("item");
  const VertexId c1 = b2.AddVertex("white");
  b2.AddEdge(v1, c1, "color");
  b2.AddVertex("noise");
  Graph g2 = std::move(b2).Build();
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.4, .k = 5});
  const InvertedIndex index(h.g2);
  const auto blocked = VParaMatch(*h.engine, 0, &index);
  Harness h2(Graph(h.g1), Graph(h.g2), h.ctx.params);
  const auto full = VParaMatch(*h2.engine, 0);
  EXPECT_EQ(blocked, full);
}

TEST(InvertedIndexTest, BlocksOnLabelAndChildLabels) {
  // G: three items, each with one attribute value.
  GraphBuilder b2;
  for (const char* value : {"white", "red", "blue"}) {
    const VertexId item = b2.AddVertex("item");
    b2.AddEdge(item, b2.AddVertex(value), "color");
  }
  const Graph g = std::move(b2).Build();  // items 0, 2, 4; values 1, 3, 5
  // G_D: a bare item, and an item whose only child is "white".
  GraphBuilder b1;
  const VertexId bare = b1.AddVertex("item");
  const VertexId white_item = b1.AddVertex("item");
  b1.AddEdge(white_item, b1.AddVertex("white"), "color");
  const Graph gd = std::move(b1).Build();

  // Results are ascending and unique: item 0 shares both "item" and
  // "white" with the query and is listed once.
  const InvertedIndex all(g);
  EXPECT_EQ(all.Lookup(gd, bare), (std::vector<VertexId>{0, 2, 4}));
  EXPECT_EQ(all.Lookup(gd, white_item), (std::vector<VertexId>{0, 1, 2, 4}));

  // "item" posts 3 vertices, over the cap of 2, and is dropped; the query
  // still reaches item 0 and its value through the child label "white".
  const InvertedIndex capped(g, /*max_posting=*/2);
  EXPECT_TRUE(capped.Lookup(gd, bare).empty());
  EXPECT_EQ(capped.Lookup(gd, white_item), (std::vector<VertexId>{0, 1}));
}

TEST(AllParaMatchTest, ComputesCrossProductMatches) {
  // Two u-items, two v-items; u0 matches v0 only, u1 matches v1 only.
  GraphBuilder b1;
  const VertexId u0 = b1.AddVertex("item");
  const VertexId a0 = b1.AddVertex("white");
  b1.AddEdge(u0, a0, "color");
  const VertexId u1 = b1.AddVertex("item");
  const VertexId a1 = b1.AddVertex("red");
  b1.AddEdge(u1, a1, "color");
  Graph g1 = std::move(b1).Build();
  GraphBuilder b2;
  const VertexId v0 = b2.AddVertex("item");
  const VertexId c0 = b2.AddVertex("white");
  b2.AddEdge(v0, c0, "color");
  const VertexId v1 = b2.AddVertex("item");
  const VertexId c1 = b2.AddVertex("red");
  b2.AddEdge(v1, c1, "color");
  Graph g2 = std::move(b2).Build();
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.4, .k = 5});
  const std::vector<VertexId> tuples = {u0, u1};
  const auto pi = AllParaMatch(*h.engine, tuples);
  EXPECT_EQ(pi, (std::vector<MatchPair>{{u0, v0}, {u1, v1}}));
}

/// Only a fragment engine (one with a locality filter) records true->false
/// flips for the BSP drain: a serial engine keeps none, however many of
/// its verdicts flipped during AllParaMatch.
TEST(AllParaMatchTest, SerialEngineRecordsNoFlips) {
  auto [g1, g2] = testutil::RandomEntityGraphs(3, 8);
  testutil::ContextHarness h(std::move(g1), std::move(g2),
                             {.sigma = 0.99, .delta = 0.9, .k = 4});
  const auto tuples = testutil::ItemRoots(h.g1);
  MatchEngine fragment(h.ctx);
  fragment.SetLocalityFilter([](VertexId, VertexId) { return true; });
  MatchEngine serial(h.ctx);
  EXPECT_EQ(AllParaMatch(serial, tuples), AllParaMatch(fragment, tuples));
  EXPECT_FALSE(fragment.DrainNewlyInvalidated().empty());  // the run flipped
  EXPECT_TRUE(serial.DrainNewlyInvalidated().empty());
}

TEST(SchemaMatchTest, MapsAttributeEdgeToBestPrefix) {
  // u -made_in-> "VN";  v -made-> f -in-> "VN" plus a direct color.
  GraphBuilder b1;
  const VertexId u = b1.AddVertex("item");
  const VertexId uc = b1.AddVertex("white");
  const VertexId um = b1.AddVertex("VN");
  b1.AddEdge(u, uc, "color");
  b1.AddEdge(u, um, "made_in");
  Graph g1 = std::move(b1).Build();
  GraphBuilder b2;
  const VertexId v = b2.AddVertex("item");
  const VertexId vc = b2.AddVertex("white");
  const VertexId f = b2.AddVertex("factory");
  const VertexId vm = b2.AddVertex("VN");
  b2.AddEdge(v, vc, "color");
  b2.AddEdge(v, f, "made");
  b2.AddEdge(f, vm, "in");
  Graph g2 = std::move(b2).Build();
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.8, .k = 5});
  ASSERT_TRUE(h.engine->Match(0, 0));
  const auto gamma = ComputeSchemaMatches(*h.engine, 0, 0);
  ASSERT_EQ(gamma.size(), 2u);  // color and made_in
  EXPECT_EQ(gamma[0].attribute, "color");
  EXPECT_EQ(gamma[0].g_path.size(), 1u);
  EXPECT_EQ(gamma[1].attribute, "made_in");
  EXPECT_EQ(gamma[1].g_path.size(), 2u);  // full (made, in) prefix wins
  EXPECT_GT(gamma[1].score, 0.9);
}

TEST(SchemaMatchTest, EmptyForNonMatch) {
  Graph g1 = Star({{"a", "x"}});
  Graph g2 = Star({{"b", "y"}});
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.4, .k = 5});
  EXPECT_FALSE(h.engine->Match(0, 0));
  EXPECT_TRUE(ComputeSchemaMatches(*h.engine, 0, 0).empty());
}

TEST(ExplainTest, RendersWitnessAndScores) {
  Graph g1 = Star({{"color", "white"}});
  Graph g2 = Star({{"color", "white"}});
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.4, .k = 5});
  ASSERT_TRUE(h.engine->Match(0, 0));
  const std::string text = ExplainMatch(*h.engine, 0, 0);
  EXPECT_NE(text.find("MATCH"), std::string::npos);
  EXPECT_NE(text.find("white"), std::string::npos);
  EXPECT_NE(text.find("h_rho"), std::string::npos);
}

TEST(ExplainTest, ReportsNonMatch) {
  Graph g1 = Star({{"a", "x"}});
  Graph g2 = Star({{"a", "y"}});
  Harness h(std::move(g1), std::move(g2),
            {.sigma = 1.0, .delta = 0.6, .k = 5});
  EXPECT_FALSE(h.engine->Match(0, 0));
  EXPECT_NE(ExplainMatch(*h.engine, 0, 0).find("NOT a match"),
            std::string::npos);
}

TEST(ParaMatchTest, CleanupRerunAgreesWithColdEngine) {
  // MakeCycleGraphs(false): (u1, v1) is optimistically consumed as a
  // witness and invalidated mid-evaluation of the root pair; the cleanup
  // stage re-runs EvalOnce on its dependents.
  CycleGraphs cg = MakeCycleGraphs(/*u3_matches=*/false);
  Harness h(std::move(cg.g1), std::move(cg.g2),
            {.sigma = 1.0, .delta = 0.9, .k = 5});
  EXPECT_FALSE(h.engine->Match(0, 0));
  const auto& s = h.engine->stats();
  EXPECT_GE(s.cleanup_reruns, 1u);
  EXPECT_GE(s.hrho_batch_calls, 1u);
  // The rerun-heavy warm state must agree with a cold engine pairwise.
  Harness cold(Graph(h.g1), Graph(h.g2), h.ctx.params);
  for (VertexId u = 0; u < h.g1.num_vertices(); ++u) {
    for (VertexId v = 0; v < h.g2.num_vertices(); ++v) {
      const auto* e = h.engine->Lookup(u, v);
      if (e == nullptr) continue;
      EXPECT_EQ(e->valid, cold.engine->Match(u, v))
          << "pair (" << u << ", " << v << ")";
    }
  }
}

/// h_v scorer that injects an external invalidation (ForceInvalid, the
/// message a BSP peer would send) into the engine the first time a chosen
/// pair is scored — i.e. mid-evaluation of that pair's parent, after the
/// parent consumed its first witness. This drives EvalOnce's stale-restart
/// branch deterministically, which a serial cold-cache run cannot reach on
/// its own (consumed witnesses only depend on live ancestors, so they
/// cannot flip before the verification pass).
class InvalidatingVertexScorer : public VertexScorer {
 public:
  InvalidatingVertexScorer(const Graph& g1, const Graph& g2,
                           VertexId trigger_u, VertexId trigger_v,
                           MatchPair victim)
      : inner_(g1, g2),
        trigger_u_(trigger_u),
        trigger_v_(trigger_v),
        victim_(victim) {}

  void set_engine(MatchEngine* engine) { engine_ = engine; }
  bool fired() const { return fired_; }

  double Score(VertexId u, VertexId v) const override {
    if (!fired_ && u == trigger_u_ && v == trigger_v_ && engine_ != nullptr) {
      fired_ = true;
      engine_->ForceInvalid(victim_.first, victim_.second);
    }
    return inner_.Score(u, v);
  }

  // Batched scoring (candidate-list construction) must not trigger: the
  // injection models an invalidation arriving during the matching stage.
  void ScoreBatch(VertexId u, std::span<const VertexId> vs,
                  std::span<double> out) const override {
    batch_calls_.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0; i < vs.size(); ++i) out[i] = inner_.Score(u, vs[i]);
  }

 private:
  JaccardVertexScorer inner_;
  VertexId trigger_u_, trigger_v_;
  MatchPair victim_;
  mutable MatchEngine* engine_ = nullptr;
  mutable bool fired_ = false;
};

TEST(ParaMatchTest, StaleRestartConvergesToColdVerdict) {
  // u("item") needs both attribute children (h_rho 1/2 each, delta 0.9).
  // The scorer invalidates the already-consumed witness (1, 1) when the
  // second child pair (2, 2) enters its initial stage, so the verification
  // pass at sum >= delta sees a dead witness and must restart EvalOnce.
  Graph g1 = Star({{"color", "white"}, {"material", "foam"}});
  Graph g2 = Star({{"color", "white"}, {"material", "foam"}});
  const JointVocab vocab(g1, g2);
  const TokenOverlapPathScorer mrho(&vocab);
  const PraRanker hr(g1, g2);
  InvalidatingVertexScorer hv(g1, g2, /*trigger_u=*/2, /*trigger_v=*/2,
                              /*victim=*/MatchPair{1, 1});
  MatchContext ctx;
  ctx.gd = &g1;
  ctx.g = &g2;
  ctx.hv = &hv;
  ctx.mrho = &mrho;
  ctx.hr = &hr;
  ctx.vocab = &vocab;
  ctx.params = {.sigma = 1.0, .delta = 0.9, .k = 5};
  MatchEngine engine(ctx);
  hv.set_engine(&engine);

  const bool verdict = engine.Match(0, 0);
  EXPECT_TRUE(hv.fired());
  const auto& s = engine.stats();
  EXPECT_GE(s.stale_restarts, 1u);

  // A cold engine that learns of the invalidation up front agrees.
  Harness cold(Graph(g1), Graph(g2), ctx.params);
  cold.engine->ForceInvalid(1, 1);
  EXPECT_EQ(verdict, cold.engine->Match(0, 0));
}

/// Forwards M_rho Score but hides the batch/embedding interface: the
/// default ScoreBatch loops over Score (re-embedding per pair) and
/// EmbedPath returns empty — exactly the pre-kernel scalar path.
class ScalarOnlyPathScorer : public PathScorer {
 public:
  explicit ScalarOnlyPathScorer(const PathScorer* inner) : inner_(inner) {}
  double Score(std::span<const int> p1,
               std::span<const int> p2) const override {
    return inner_->Score(p1, p2);
  }

 private:
  const PathScorer* inner_;
};

/// Harness with the paper's metric M_rho (SGNS + MLP) so the batched
/// kernel's float arithmetic is actually exercised; `scalar_only` swaps in
/// the pre-kernel per-pair scoring path over the same models.
struct MetricHarness {
  MetricHarness(Graph a, Graph b, SimulationParams params, bool scalar_only)
      : g1(std::move(a)), g2(std::move(b)) {
    hv = std::make_unique<JaccardVertexScorer>(g1, g2);
    vocab = std::make_unique<JointVocab>(g1, g2);
    sgns = std::make_unique<SgnsModel>();
    sgns->InitRandom(vocab->size_with_eos(), 8, 99);
    metric = std::make_unique<Mlp>(std::vector<size_t>{32, 16, 1}, 7);
    metric_scorer =
        std::make_unique<MetricPathScorer>(sgns.get(), metric.get());
    scalar = std::make_unique<ScalarOnlyPathScorer>(metric_scorer.get());
    hr = std::make_unique<PraRanker>(g1, g2);
    ctx.gd = &g1;
    ctx.g = &g2;
    ctx.hv = hv.get();
    ctx.mrho = scalar_only ? static_cast<const PathScorer*>(scalar.get())
                           : metric_scorer.get();
    ctx.hr = hr.get();
    ctx.vocab = vocab.get();
    ctx.params = params;
    engine = std::make_unique<MatchEngine>(ctx);
  }

  Graph g1, g2;
  std::unique_ptr<JaccardVertexScorer> hv;
  std::unique_ptr<JointVocab> vocab;
  std::unique_ptr<SgnsModel> sgns;
  std::unique_ptr<Mlp> metric;
  std::unique_ptr<MetricPathScorer> metric_scorer;
  std::unique_ptr<ScalarOnlyPathScorer> scalar;
  std::unique_ptr<PraRanker> hr;
  MatchContext ctx;
  std::unique_ptr<MatchEngine> engine;
};

/// Property test: warm-cache evaluation order must not change verdicts.
/// Random attribute-graph pairs; every pair's verdict from a shared engine
/// (evaluated in APair order) must equal a fresh engine's verdict.
class OrderIndependenceTest : public ::testing::TestWithParam<uint64_t> {};

std::pair<Graph, Graph> RandomGraphPair(uint64_t seed) {
  Rng rng(seed);
  const char* values[] = {"red", "white", "blue", "foam", "wool", "500"};
  const char* edges[] = {"color", "material", "qty", "kind"};
  GraphBuilder b1;
  GraphBuilder b2;
  const int roots = 3;
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
      if (rng.Chance(0.3)) {  // occasional second level
        const VertexId d1 = b1.AddVertex(values[rng.Below(6)]);
        b1.AddEdge(c1, d1, edges[rng.Below(4)]);
      }
    }
  }
  return {std::move(b1).Build(), std::move(b2).Build()};
}

TEST_P(OrderIndependenceTest, SharedCacheAgreesWithFreshEngines) {
  auto [g1, g2] = RandomGraphPair(GetParam());
  const SimulationParams params{.sigma = 0.99, .delta = 0.9, .k = 4};
  Harness shared(Graph(g1), Graph(g2), params);

  std::vector<VertexId> roots1;
  for (VertexId u = 0; u < shared.g1.num_vertices(); ++u) {
    if (shared.g1.label(u) == "item") roots1.push_back(u);
  }
  const auto pi = AllParaMatch(*shared.engine, roots1);

  for (const VertexId u : roots1) {
    for (VertexId v = 0; v < shared.g2.num_vertices(); ++v) {
      if (shared.g2.label(v) != "item") continue;
      Harness fresh(Graph(g1), Graph(g2), params);
      const bool expected = fresh.engine->Match(u, v);
      const bool in_pi =
          std::find(pi.begin(), pi.end(), MatchPair{u, v}) != pi.end();
      EXPECT_EQ(in_pi, expected) << "pair (" << u << ", " << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderIndependenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

TEST(BatchedHRhoTest, BatchedAndScalarEnginesAgreeBitForBit) {
  // The batched h_rho kernel (precomputed path embeddings + PredictBatch)
  // must leave verdicts AND witness sets untouched relative to the
  // pre-kernel per-pair scoring path over the same SGNS + MLP models.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto [g1, g2] = RandomGraphPair(seed);
    const SimulationParams params{.sigma = 0.99, .delta = 0.4, .k = 4};
    MetricHarness batched(Graph(g1), Graph(g2), params,
                          /*scalar_only=*/false);
    MetricHarness scalar(Graph(g1), Graph(g2), params, /*scalar_only=*/true);
    for (VertexId u = 0; u < batched.g1.num_vertices(); ++u) {
      if (batched.g1.label(u) != "item") continue;
      for (VertexId v = 0; v < batched.g2.num_vertices(); ++v) {
        if (batched.g2.label(v) != "item") continue;
        EXPECT_EQ(batched.engine->Match(u, v), scalar.engine->Match(u, v))
            << "seed " << seed << " pair (" << u << ", " << v << ")";
      }
    }
    for (VertexId u = 0; u < batched.g1.num_vertices(); ++u) {
      for (VertexId v = 0; v < batched.g2.num_vertices(); ++v) {
        const auto* eb = batched.engine->Lookup(u, v);
        const auto* es = scalar.engine->Lookup(u, v);
        ASSERT_EQ(eb == nullptr, es == nullptr)
            << "seed " << seed << " pair (" << u << ", " << v << ")";
        if (eb == nullptr) continue;
        EXPECT_EQ(eb->valid, es->valid)
            << "seed " << seed << " pair (" << u << ", " << v << ")";
        EXPECT_EQ(eb->witnesses, es->witnesses)
            << "seed " << seed << " pair (" << u << ", " << v << ")";
      }
    }
    const auto& bs = batched.engine->stats();
    EXPECT_EQ(scalar.engine->stats().hrho_embed_reuse, 0u);
    if (bs.hrho_evaluations > 0) {
      EXPECT_GT(bs.hrho_batch_calls, 0u);
      EXPECT_GT(bs.hrho_embed_reuse, 0u);
    }
  }
}

// --- MatchRoots: one list batch per run of roots sharing u ---------------

using testutil::FirstLevelBound;

/// MatchRoots over GenerateCandidates' order against a fresh engine that
/// calls Match per candidate in the same order: equal verdicts, cache
/// entries, witness sets and evaluation counters. Returns the number of
/// roots MatchRoots decided from its batch's first-level bound.
size_t ExpectRootsMatchPerPair(const MatchContext& ctx,
                               std::span<const VertexId> tuples,
                               const std::string& where) {
  const auto candidates = GenerateCandidates(ctx, tuples, nullptr);
  // All-local filters: both engines act as fragment engines, so they
  // record their true->false flips for the comparison below.
  const auto all_local = [](VertexId, VertexId) { return true; };
  MatchEngine per_pair(ctx);
  per_pair.SetLocalityFilter(all_local);
  const size_t hv_before = ctx.hv->BatchCalls();
  std::vector<bool> expected;
  for (const MatchPair& c : candidates) {
    expected.push_back(per_pair.Match(c.first, c.second));
  }
  const size_t hv_per_pair = ctx.hv->BatchCalls() - hv_before;
  MatchEngine batched(ctx);
  batched.SetLocalityFilter(all_local);
  EXPECT_EQ(batched.MatchRoots(candidates), expected) << where;
  const size_t hv_batched = ctx.hv->BatchCalls() - hv_before - hv_per_pair;
  EXPECT_LE(hv_batched, hv_per_pair) << where;

  for (VertexId u = 0; u < ctx.gd->num_vertices(); ++u) {
    for (VertexId v = 0; v < ctx.g->num_vertices(); ++v) {
      const auto* eb = batched.Lookup(u, v);
      const auto* ep = per_pair.Lookup(u, v);
      EXPECT_EQ(eb == nullptr, ep == nullptr)
          << where << " pair (" << u << ", " << v << ")";
      if (eb == nullptr || ep == nullptr) continue;
      EXPECT_EQ(eb->valid, ep->valid)
          << where << " pair (" << u << ", " << v << ")";
      EXPECT_EQ(batched.Witness(u, v), per_pair.Witness(u, v))
          << where << " pair (" << u << ", " << v << ")";
    }
  }
  const auto& sb = batched.stats();
  const auto& sp = per_pair.stats();
  EXPECT_EQ(sb.para_match_calls, sp.para_match_calls) << where;
  EXPECT_EQ(sb.cache_hits, sp.cache_hits) << where;
  EXPECT_EQ(sb.cleanup_reruns, sp.cleanup_reruns) << where;
  EXPECT_EQ(sb.stale_restarts, sp.stale_restarts) << where;

  // A root decided by the bound is stored false with no optimistic
  // placeholder, so it is exactly a true->false flip the per-pair engine
  // records and the batched one does not. Each must miss delta by the
  // independent bound, which pins both the comparison and the sum order.
  const auto flipped = per_pair.DrainNewlyInvalidated();
  const auto batch_flipped = batched.DrainNewlyInvalidated();
  EXPECT_TRUE(std::includes(flipped.begin(), flipped.end(),
                            batch_flipped.begin(), batch_flipped.end()))
      << where;
  std::vector<MatchPair> decided;
  std::set_difference(flipped.begin(), flipped.end(), batch_flipped.begin(),
                      batch_flipped.end(), std::back_inserter(decided));
  std::vector<MatchPair> sorted = candidates;
  std::sort(sorted.begin(), sorted.end());
  MatchEngine probe(ctx);
  for (const MatchPair& p : decided) {
    EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(), p))
        << where << " pair (" << p.first << ", " << p.second << ")";
    EXPECT_LT(FirstLevelBound(probe, p.first, p.second), ctx.params.delta)
        << where << " pair (" << p.first << ", " << p.second << ")";
  }
  return decided.size();
}

/// The deltas each instance runs under: the default, plus thresholds equal
/// to candidates' own first-level bounds, where `<` and `<=` (or two
/// summation orders) disagree.
std::vector<double> TieDeltas(const MatchContext& ctx,
                              std::span<const VertexId> tuples) {
  std::vector<double> bounds;
  MatchEngine probe(ctx);
  for (const MatchPair& c : GenerateCandidates(ctx, tuples, nullptr)) {
    const double b = FirstLevelBound(probe, c.first, c.second);
    if (b > 0.0) bounds.push_back(b);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  std::vector<double> deltas = {ctx.params.delta};
  for (size_t q = 1; q <= 3 && !bounds.empty(); ++q) {
    deltas.push_back(bounds[q * (bounds.size() - 1) / 3]);
  }
  return deltas;
}

/// The reverse dependency index against its definition after runs with
/// cleanup reruns (which re-store entries) and after an incremental
/// invalidation (which unsets pairs in no particular order), so dependents
/// leave their witnesses' lists from any position.
TEST(ParaMatchTest, DependencyIndexMatchesWitnesses) {
  size_t reruns = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto [g1, g2] = testutil::RandomEntityGraphs(seed, 8);
    testutil::ContextHarness h(std::move(g1), std::move(g2),
                               {.sigma = 0.99, .delta = 0.9, .k = 4});
    const auto tuples = testutil::ItemRoots(h.g1);
    std::vector<VertexId> affected;  // every third vertex of G
    for (VertexId v = 0; v < h.g2.num_vertices(); v += 3) {
      affected.push_back(v);
    }
    for (const double delta : TieDeltas(h.ctx, tuples)) {
      h.ctx.params.delta = delta;
      const std::string where =
          "seed " + std::to_string(seed) + " delta " + std::to_string(delta);
      MatchEngine engine(h.ctx);
      const auto candidates = GenerateCandidates(h.ctx, tuples, nullptr);
      for (const MatchPair& c : candidates) engine.Match(c.first, c.second);
      EXPECT_TRUE(engine.DependentsMatchWitnesses()) << where;
      reruns += engine.stats().cleanup_reruns;
      engine.InvalidateForUpdate({}, affected);
      EXPECT_TRUE(engine.DependentsMatchWitnesses()) << where << " update";
      for (const MatchPair& c : candidates) engine.Match(c.first, c.second);
      EXPECT_TRUE(engine.DependentsMatchWitnesses()) << where << " rerun";
    }
  }
  EXPECT_GT(reruns, 0u);
}

TEST(MatchRootsTest, EqualsPerPairMatchWithJaccardScorers) {
  size_t decided = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto [g1, g2] = testutil::RandomEntityGraphs(seed, 8);
    testutil::ContextHarness h(std::move(g1), std::move(g2),
                               {.sigma = 0.99, .delta = 0.9, .k = 4});
    const auto tuples = testutil::ItemRoots(h.g1);
    for (const double delta : TieDeltas(h.ctx, tuples)) {
      h.ctx.params.delta = delta;
      decided += ExpectRootsMatchPerPair(
          h.ctx, tuples,
          "seed " + std::to_string(seed) + " delta " + std::to_string(delta));
    }
    // No bound decisions without early termination: the run batch only
    // hands its lists to ParaMatch.
    h.ctx.enable_early_termination = false;
    EXPECT_EQ(ExpectRootsMatchPerPair(h.ctx, tuples,
                                      "seed " + std::to_string(seed) +
                                          " no early termination"),
              0u);
  }
  EXPECT_GT(decided, 0u);
}

TEST(MatchRootsTest, EqualsPerPairMatchWithMetricScorers) {
  size_t decided = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto [g1, g2] = testutil::RandomEntityGraphs(seed, 8);
    MetricHarness h(std::move(g1), std::move(g2),
                    {.sigma = 0.99, .delta = 0.4, .k = 4},
                    /*scalar_only=*/false);
    const auto tuples = testutil::ItemRoots(h.g1);
    for (const double delta : TieDeltas(h.ctx, tuples)) {
      h.ctx.params.delta = delta;
      decided += ExpectRootsMatchPerPair(
          h.ctx, tuples,
          "seed " + std::to_string(seed) + " delta " + std::to_string(delta));
    }
  }
  EXPECT_GT(decided, 0u);
}

TEST(MatchRootsTest, EqualsPerPairMatchWithEmbeddingScorers) {
  // The h_v of apair-learned and serve: label embeddings, scored by the
  // packed panel kernel in the run batch and by scalar Score per pair.
  const HashedTextEmbedder embedder;
  size_t decided = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto [g1, g2] = testutil::RandomEntityGraphs(seed, 8);
    testutil::ContextHarness h(std::move(g1), std::move(g2),
                               {.sigma = 0.5, .delta = 0.9, .k = 4});
    const EmbeddingVertexScorer hv(h.g1, h.g2, embedder);
    h.ctx.hv = &hv;
    const auto tuples = testutil::ItemRoots(h.g1);
    for (const double delta : TieDeltas(h.ctx, tuples)) {
      h.ctx.params.delta = delta;
      decided += ExpectRootsMatchPerPair(
          h.ctx, tuples,
          "seed " + std::to_string(seed) + " delta " + std::to_string(delta));
    }
  }
  EXPECT_GT(decided, 0u);
}

// --- Candidate lists against Fig. 4 lines 6-11 ---------------------------

/// The lists of the run (u, vs[r]) against their definition, one pair at a
/// time: list (r, i) holds exactly the descendants d of v_r's properties
/// with h_v(u_i, d) >= sigma, each with h_rho computed as HRho does,
/// ordered by (h_rho desc, v2 asc), and the run moves the h_rho counters
/// by exactly its pairs. Returns the number of list entries.
size_t ExpectListsMatchDefinition(const MatchContext& ctx, VertexId u,
                                  std::span<const VertexId> vs,
                                  const std::string& where) {
  MatchEngine engine(ctx);
  MatchEngine probe(ctx);
  const std::span<const Property> pu = engine.PropertiesOf(0, u);
  std::vector<std::span<const Property>> pvs;
  for (const VertexId v : vs) pvs.push_back(engine.PropertiesOf(1, v));
  const size_t evaluations = engine.stats().hrho_evaluations;
  const size_t reuse = engine.stats().hrho_embed_reuse;
  const auto lists = MatchEnginePeer::Lists(engine, pu, pvs);
  size_t want_evaluations = 0;
  size_t want_reuse = 0;
  for (size_t r = 0; r < pvs.size(); ++r) {
    for (size_t i = 0; i < pu.size(); ++i) {
      MatchEnginePeer::List want;
      for (const Property& p : pvs[r]) {
        if (ctx.hv->Score(pu[i].descendant, p.descendant) < ctx.params.sigma) {
          continue;
        }
        want.emplace_back(p.descendant, probe.HRho(pu[i], p));
        want_reuse += !pu[i].embedding.empty();
        want_reuse += !p.embedding.empty();
      }
      std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
        return a.second != b.second ? a.second > b.second : a.first < b.first;
      });
      want_evaluations += want.size();
      EXPECT_EQ(lists[r][i], want) << where << " row " << r << " i " << i;
    }
  }
  EXPECT_EQ(engine.stats().hrho_evaluations - evaluations, want_evaluations)
      << where;
  EXPECT_EQ(engine.stats().hrho_embed_reuse - reuse, want_reuse) << where;
  return want_evaluations;
}

/// Whether two rows of the run share a descendant (one column, two rows).
bool RowsShareDescendant(MatchEngine& engine, std::span<const VertexId> vs) {
  std::vector<std::pair<VertexId, size_t>> seen;  // (descendant, row)
  for (size_t r = 0; r < vs.size(); ++r) {
    for (const Property& p : engine.PropertiesOf(1, vs[r])) {
      seen.emplace_back(p.descendant, r);
    }
  }
  std::sort(seen.begin(), seen.end());
  for (size_t n = 1; n < seen.size(); ++n) {
    if (seen[n].first == seen[n - 1].first &&
        seen[n].second != seen[n - 1].second) {
      return true;
    }
  }
  return false;
}

/// Label "w<n>".
std::string Word(int n) {
  std::string word = "w";
  word += std::to_string(n);
  return word;
}

/// A hub of 70 children in G_D against three items of G whose children
/// repeat its labels, the third sharing children with the first two: with
/// k = 70 the hub has more properties than one 64-bit mask holds, and the
/// three rows have more distinct descendants (80) than the column table's
/// first 128 slots take at half load, so it grows mid-call.
std::pair<Graph, Graph> HubGraphs() {
  const char* edges[] = {"color", "material", "qty", "kind", "brand"};
  GraphBuilder b1;
  GraphBuilder b2;
  const VertexId hub = b1.AddVertex("item");
  for (int c = 0; c < 70; ++c) {
    b1.AddEdge(hub, b1.AddVertex(Word(c % 30)), edges[c % 5]);
  }
  std::vector<VertexId> items;
  std::vector<VertexId> children;
  for (int r = 0; r < 2; ++r) {
    items.push_back(b2.AddVertex("item"));
    for (int c = 0; c < 40; ++c) {
      children.push_back(b2.AddVertex(Word((7 * c + r) % 40)));
      b2.AddEdge(items.back(), children.back(), edges[(c + r) % 5]);
    }
  }
  const VertexId shared = b2.AddVertex("item");
  for (size_t c = 0; c < children.size(); c += 3) {
    b2.AddEdge(shared, children[c], edges[c % 5]);
  }
  return {std::move(b1).Build(), std::move(b2).Build()};
}

TEST(CandidateListsTest, EqualDefinitionPerPair) {
  const HashedTextEmbedder embedder;
  size_t entries = 0;
  size_t reused = 0;
  size_t sharing = 0;  // seeds where two distinct items share a descendant
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto [g1, g2] = testutil::RandomEntityGraphs(seed, 8);
    testutil::ContextHarness h(std::move(g1), std::move(g2),
                               {.sigma = 0.99, .delta = 0.9, .k = 4});
    // An M_rho with path embeddings, so the reuse counter moves.
    h.mrho = std::make_unique<testutil::EmbeddingOverlapScorer>(h.vocab.get());
    h.ctx.mrho = h.mrho.get();
    const EmbeddingVertexScorer embedding(h.g1, h.g2, embedder);
    // Every item of G, then the first two again: repeated rows share all
    // their descendants, and FK links make distinct items share some.
    std::vector<VertexId> vs = testutil::ItemRoots(h.g2);
    vs.push_back(vs[0]);
    vs.push_back(vs[1]);
    MatchEngine rows(h.ctx);
    sharing += RowsShareDescendant(rows, std::span(vs).first(vs.size() - 2));
    for (const VertexScorer* hv :
         {static_cast<const VertexScorer*>(h.hv.get()),
          static_cast<const VertexScorer*>(&embedding)}) {
      h.ctx.hv = hv;
      h.ctx.params.sigma = hv == &embedding ? 0.5 : 0.99;
      const std::string where =
          "seed " + std::to_string(seed) +
          (hv == &embedding ? " embedding" : " jaccard");
      for (VertexId u = 0; u < h.g1.num_vertices(); ++u) {
        if (h.g1.IsLeaf(u)) continue;
        entries += ExpectListsMatchDefinition(
            h.ctx, u, vs, where + " u " + std::to_string(u));
        // The recursion's one-row run.
        entries += ExpectListsMatchDefinition(
            h.ctx, u, std::span(vs).first(1),
            where + " one row u " + std::to_string(u));
      }
    }
    // Properties carry path embeddings, so the reuse counts checked above
    // are not all zero.
    reused += MatchEngine(h.ctx).PropertiesOf(0, 0).front().embedding.size();
  }
  EXPECT_GT(entries, 0u);
  EXPECT_GT(reused, 0u);
  EXPECT_GT(sharing, 0u);
}

TEST(CandidateListsTest, HubPastOneMaskBlockEqualsDefinition) {
  const HashedTextEmbedder embedder;
  auto [g1, g2] = HubGraphs();
  testutil::ContextHarness h(std::move(g1), std::move(g2),
                             {.sigma = 0.99, .delta = 0.9, .k = 70});
  const EmbeddingVertexScorer embedding(h.g1, h.g2, embedder);
  const std::vector<VertexId> vs = {0, 41, 82, 0};
  for (const VertexId v : vs) ASSERT_EQ(h.g2.label(v), "item");
  MatchEngine rows(h.ctx);
  ASSERT_EQ(rows.PropertiesOf(0, 0).size(), 70u);
  EXPECT_TRUE(RowsShareDescendant(rows, std::span(vs).first(3)));
  std::vector<VertexId> columns;
  for (const VertexId v : vs) {
    for (const Property& p : rows.PropertiesOf(1, v)) {
      columns.push_back(p.descendant);
    }
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  EXPECT_EQ(columns.size(), 80u);
  for (const VertexScorer* hv :
       {static_cast<const VertexScorer*>(h.hv.get()),
        static_cast<const VertexScorer*>(&embedding)}) {
    h.ctx.hv = hv;
    // Equal labels score exactly 1 under Jaccard: a sigma those pairs meet
    // with equality, not by a margin.
    h.ctx.params.sigma = hv == &embedding ? 0.5 : 1.0;
    const std::string where = hv == &embedding ? "embedding" : "jaccard";
    EXPECT_GT(ExpectListsMatchDefinition(h.ctx, 0, vs, where), 0u) << where;
    // A one-row run on the same thread right after the table grew.
    ExpectListsMatchDefinition(h.ctx, 0, std::span(vs).last(1),
                               where + " one row");
    size_t past_block = 0;  // pairs of properties 64-69 that clear sigma
    const auto pu = rows.PropertiesOf(0, 0);
    for (size_t i = 64; i < pu.size(); ++i) {
      for (const VertexId v : vs) {
        for (const Property& p : rows.PropertiesOf(1, v)) {
          past_block += !(hv->Score(pu[i].descendant, p.descendant) <
                          h.ctx.params.sigma);
        }
      }
    }
    EXPECT_GT(past_block, 0u) << where;
  }
}

}  // namespace
}  // namespace her
