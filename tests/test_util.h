#ifndef HER_TESTS_TEST_UTIL_H_
#define HER_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/match_context.h"
#include "core/match_engine.h"
#include "graph/traversal.h"

namespace her::testutil {

/// Token-overlap M_rho with a deterministic per-token path embedding, so
/// ranked rows fill all three arena pools (tokens, floats, rows).
class EmbeddingOverlapScorer : public TokenOverlapPathScorer {
 public:
  using TokenOverlapPathScorer::TokenOverlapPathScorer;
  Vec EmbedPath(std::span<const int> p) const override {
    Vec out;
    for (const int t : p) out.push_back(0.5f * static_cast<float>(t) + 0.25f);
    return out;
  }
};

/// Owns a MatchContext over two graphs with the deterministic test scorers
/// (token-Jaccard h_v, token-overlap M_rho, PRA-only h_r).
struct ContextHarness {
  ContextHarness(Graph a, Graph b, SimulationParams params)
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
  }

  Graph g1, g2;
  std::unique_ptr<JaccardVertexScorer> hv;
  std::unique_ptr<JointVocab> vocab;
  std::unique_ptr<TokenOverlapPathScorer> mrho;
  std::unique_ptr<PraRanker> hr;
  MatchContext ctx;
};

/// Random "entity" graph pair: `roots` item vertices with noisy attribute
/// subtrees, plus FK-style links between roots so recursion crosses
/// fragments in the parallel tests. Roots are vertices labeled "item" in
/// g1 / "item" in g2 with matching construction order.
inline std::pair<Graph, Graph> RandomEntityGraphs(uint64_t seed, int roots) {
  Rng rng(seed);
  const char* values[] = {"red",  "white", "blue", "foam",
                          "wool", "500",   "acme", "zenith"};
  const char* edges[] = {"color", "material", "qty", "kind", "brand"};
  GraphBuilder b1;
  GraphBuilder b2;
  std::vector<VertexId> roots1;
  std::vector<VertexId> roots2;
  for (int r = 0; r < roots; ++r) {
    roots1.push_back(b1.AddVertex("item"));
    roots2.push_back(b2.AddVertex("item"));
  }
  for (int r = 0; r < roots; ++r) {
    const int attrs = 2 + static_cast<int>(rng.Below(3));
    for (int a = 0; a < attrs; ++a) {
      const char* e = edges[rng.Below(5)];
      const char* val1 = values[rng.Below(8)];
      const char* val2 = rng.Chance(0.7) ? val1 : values[rng.Below(8)];
      const VertexId c1 = b1.AddVertex(val1);
      b1.AddEdge(roots1[r], c1, e);
      const VertexId c2 = b2.AddVertex(val2);
      b2.AddEdge(roots2[r], c2, e);
      if (rng.Chance(0.35)) {
        const char* dv = values[rng.Below(8)];
        const char* dv2 = rng.Chance(0.7) ? dv : values[rng.Below(8)];
        const char* de = edges[rng.Below(5)];
        b1.AddEdge(c1, b1.AddVertex(dv), de);
        b2.AddEdge(c2, b2.AddVertex(dv2), de);
      }
    }
    // FK-style links between roots (possible cycles across entities).
    if (r > 0 && rng.Chance(0.6)) {
      const int target = static_cast<int>(rng.Below(static_cast<uint64_t>(r)));
      b1.AddEdge(roots1[r], roots1[target], "ref");
      b2.AddEdge(roots2[r], roots2[target], "ref");
      if (rng.Chance(0.4)) {  // back edge: SCC between entities
        b1.AddEdge(roots1[target], roots1[r], "backref");
        b2.AddEdge(roots2[target], roots2[r], "backref");
      }
    }
  }
  return {std::move(b1).Build(), std::move(b2).Build()};
}

/// Random attribute-graph pair without links between roots: `roots` item
/// vertices per side, each with 2-4 attribute children (a third of them
/// with one grandchild on the G_D side only).
inline std::pair<Graph, Graph> RandomGraphPair(uint64_t seed, int roots) {
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

/// The placement HerSystem::APairParallel uses: the i-th tuple vertex and
/// every G_D vertex below it go to fragment i % workers, so each tuple's
/// candidates and the pairs their proofs recurse into share a fragment.
inline std::function<uint32_t(const MatchPair&)> TupleColocation(
    const Graph& gd, std::span<const VertexId> roots, uint32_t workers) {
  auto fragment_of =
      std::make_shared<std::vector<uint32_t>>(gd.num_vertices(), 0);
  for (size_t i = 0; i < roots.size(); ++i) {
    const uint32_t f = static_cast<uint32_t>(i % workers);
    (*fragment_of)[roots[i]] = f;
    for (const VertexId d : ReachableFrom(gd, roots[i])) {
      (*fragment_of)[d] = f;
    }
  }
  return [fragment_of](const MatchPair& p) { return (*fragment_of)[p.first]; };
}

/// Root vertices (labeled "item") of a graph built by RandomEntityGraphs.
inline std::vector<VertexId> ItemRoots(const Graph& g) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.label(v) == "item") out.push_back(v);
  }
  return out;
}

/// Fig. 4's first-level bound of (u, v), computed apart from the engine's
/// batched lists: per property of u, in order, the best h_rho over the
/// properties of v whose descendants pass sigma, one scalar h_v and M_rho
/// at a time. `probe` only supplies PropertiesOf/HRho (its counters move).
inline double FirstLevelBound(MatchEngine& probe, VertexId u, VertexId v) {
  const MatchContext& ctx = probe.context();
  double bound = 0.0;
  for (const Property& a : probe.PropertiesOf(0, u)) {
    double best = -1.0;
    for (const Property& b : probe.PropertiesOf(1, v)) {
      if (ctx.hv->Score(a.descendant, b.descendant) >= ctx.params.sigma) {
        best = std::max(best, probe.HRho(a, b));
      }
    }
    if (best >= 0.0) bound += best;
  }
  return bound;
}

}  // namespace her::testutil

#endif  // HER_TESTS_TEST_UTIL_H_
