#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/traversal.h"

namespace her {
namespace {

Graph Diamond() {
  // a -> b -> d, a -> c -> d
  GraphBuilder b;
  const VertexId a = b.AddVertex("a");
  const VertexId v_b = b.AddVertex("b");
  const VertexId c = b.AddVertex("c");
  const VertexId d = b.AddVertex("d");
  b.AddEdge(a, v_b, "ab");
  b.AddEdge(a, c, "ac");
  b.AddEdge(v_b, d, "bd");
  b.AddEdge(c, d, "cd");
  return std::move(b).Build();
}

TEST(LabelDictTest, InternIsIdempotent) {
  LabelDict d;
  const LabelId x = d.Intern("foo");
  EXPECT_EQ(d.Intern("foo"), x);
  EXPECT_NE(d.Intern("bar"), x);
  EXPECT_EQ(d.Name(x), "foo");
  EXPECT_EQ(d.size(), 2u);
}

TEST(LabelDictTest, FindMissingReturnsInvalid) {
  LabelDict d;
  EXPECT_EQ(d.Find("nope"), kInvalidLabel);
  d.Intern("yes");
  EXPECT_NE(d.Find("yes"), kInvalidLabel);
}

TEST(GraphBuilderTest, BuildsCsr) {
  const Graph g = Diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(3), 0u);
  EXPECT_TRUE(g.IsLeaf(3));
  EXPECT_FALSE(g.IsLeaf(0));
  EXPECT_EQ(g.InDegree(3), 2u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.label(2), "c");
}

TEST(GraphBuilderTest, AdjacencySortedByLabelThenDst) {
  GraphBuilder b;
  const VertexId a = b.AddVertex("a");
  const VertexId x = b.AddVertex("x");
  const VertexId y = b.AddVertex("y");
  // Insert out of order; labels "m" < "z" after interning order z, m.
  const LabelId lz = b.InternEdgeLabel("z");
  const LabelId lm = b.InternEdgeLabel("m");
  b.AddEdge(a, y, lz);
  b.AddEdge(a, x, lm);
  b.AddEdge(a, x, lz);
  const Graph g = std::move(b).Build();
  const auto edges = g.OutEdges(a);
  ASSERT_EQ(edges.size(), 3u);
  // Sorted by LabelId (interning order: z=0, m=1), then dst.
  EXPECT_EQ(edges[0].label, lz);
  EXPECT_EQ(edges[0].dst, x);
  EXPECT_EQ(edges[1].label, lz);
  EXPECT_EQ(edges[1].dst, y);
  EXPECT_EQ(edges[2].label, lm);
}

TEST(TraversalTest, ReachableFromDiamond) {
  const Graph g = Diamond();
  const auto r = ReachableFrom(g, 0);
  std::set<VertexId> s(r.begin(), r.end());
  EXPECT_EQ(s, (std::set<VertexId>{1, 2, 3}));
}

TEST(TraversalTest, ReachableRespectsDepth) {
  const Graph g = Diamond();
  const auto r = ReachableFrom(g, 0, 1);
  std::set<VertexId> s(r.begin(), r.end());
  EXPECT_EQ(s, (std::set<VertexId>{1, 2}));
}

TEST(TraversalTest, PraScoreProduct) {
  EXPECT_DOUBLE_EQ(PraScore({2, 4}), 0.125);
  EXPECT_DOUBLE_EQ(PraScore({}), 1.0);
}

TEST(TraversalTest, MaxPraPathsDiamond) {
  const Graph g = Diamond();
  const auto paths = MaxPraPaths(g, 0, 4);
  ASSERT_EQ(paths.size(), 3u);
  // Children b, c have PRA 1/2; d has PRA 1/2 * 1 = 1/2 via either branch.
  for (const auto& p : paths) EXPECT_DOUBLE_EQ(p.pra, 0.5);
  // Endpoint d must have a 2-edge path.
  const auto it = std::find_if(paths.begin(), paths.end(), [](const PraPath& p) {
    return p.path.endpoint == 3;
  });
  ASSERT_NE(it, paths.end());
  EXPECT_EQ(it->path.labels.size(), 2u);
}

TEST(TraversalTest, MaxPraPrefersLessBranchyRoute) {
  // root -> hub (deg 3) -> t ; root -> quiet (deg 1) -> t
  GraphBuilder b;
  const VertexId root = b.AddVertex("root");
  const VertexId hub = b.AddVertex("hub");
  const VertexId quiet = b.AddVertex("quiet");
  const VertexId t = b.AddVertex("t");
  const VertexId x1 = b.AddVertex("x1");
  const VertexId x2 = b.AddVertex("x2");
  b.AddEdge(root, hub, "e");
  b.AddEdge(root, quiet, "f");
  b.AddEdge(hub, t, "g");
  b.AddEdge(hub, x1, "g1");
  b.AddEdge(hub, x2, "g2");
  b.AddEdge(quiet, t, "h");
  const Graph g = std::move(b).Build();
  const auto paths = MaxPraPaths(g, root, 4);
  const auto it = std::find_if(paths.begin(), paths.end(), [&](const PraPath& p) {
    return p.path.endpoint == t;
  });
  ASSERT_NE(it, paths.end());
  // Through quiet: 1/2 * 1/1 = 1/2 beats through hub: 1/2 * 1/3.
  EXPECT_DOUBLE_EQ(it->pra, 0.5);
  EXPECT_EQ(g.EdgeLabelName(it->path.labels[0]), "f");
  EXPECT_EQ(g.EdgeLabelName(it->path.labels[1]), "h");
}

TEST(TraversalTest, MaxPraPathsRespectMaxLen) {
  // chain a->b->c->d
  GraphBuilder b;
  VertexId prev = b.AddVertex("n0");
  for (int i = 1; i < 4; ++i) {
    const VertexId cur =
        b.AddVertex(std::string("n").append(std::to_string(i)));
    b.AddEdge(prev, cur, "e");
    prev = cur;
  }
  const Graph g = std::move(b).Build();
  EXPECT_EQ(MaxPraPaths(g, 0, 2).size(), 2u);
  EXPECT_EQ(MaxPraPaths(g, 0, 3).size(), 3u);
}

TEST(TraversalTest, CycleBackToRootIgnored) {
  GraphBuilder b;
  const VertexId a = b.AddVertex("a");
  const VertexId v_b = b.AddVertex("b");
  b.AddEdge(a, v_b, "e");
  b.AddEdge(v_b, a, "f");
  const Graph g = std::move(b).Build();
  const auto paths = MaxPraPaths(g, a, 4);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].path.endpoint, v_b);
}

TEST(TraversalTest, MaxPraPathLabelsFollowTheWinningLayer) {
  // Vertex 2's best path grows from 0->5->2 (layer 2, PRA 1/4) to
  // 0->3->1->2 (layer 3, PRA 1/2) after vertex 4 was relaxed through it,
  // so 4's labels must come from the path 2 had at layer 2, not its final
  // one.
  GraphBuilder b;
  for (int i = 0; i < 6; ++i) {
    b.AddVertex(std::string("n").append(std::to_string(i)));
  }
  for (const auto& [src, dst] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 3}, {0, 5}, {1, 2}, {2, 4}, {3, 1}, {4, 3}, {5, 2}, {5, 3}}) {
    b.AddEdge(src, dst, std::to_string(src) + std::to_string(dst));
  }
  const Graph g = std::move(b).Build();
  const auto labels_of = [&](const std::vector<PraPath>& paths, VertexId v) {
    std::vector<std::string> names;
    for (const PraPath& p : paths) {
      if (p.path.endpoint != v) continue;
      for (const LabelId l : p.path.labels) {
        names.push_back(g.EdgeLabelName(l));
      }
    }
    return names;
  };
  using Labels = std::vector<std::string>;
  const auto len3 = MaxPraPaths(g, 0, 3);
  ASSERT_EQ(len3.size(), 5u);
  EXPECT_EQ(labels_of(len3, 3), Labels({"03"}));
  EXPECT_EQ(labels_of(len3, 5), Labels({"05"}));
  EXPECT_EQ(labels_of(len3, 1), Labels({"03", "31"}));
  EXPECT_EQ(labels_of(len3, 2), Labels({"03", "31", "12"}));
  EXPECT_EQ(labels_of(len3, 4), Labels({"05", "52", "24"}));
  for (const PraPath& p : len3) {
    EXPECT_DOUBLE_EQ(p.pra, p.path.endpoint == 4 ? 0.25 : 0.5);
  }
  const auto len4 = MaxPraPaths(g, 0, 4);
  ASSERT_EQ(len4.size(), 5u);
  EXPECT_EQ(labels_of(len4, 2), Labels({"03", "31", "12"}));
  EXPECT_EQ(labels_of(len4, 4), Labels({"03", "31", "12", "24"}));
  for (const PraPath& p : len4) EXPECT_DOUBLE_EQ(p.pra, 0.5);
}

TEST(TraversalTest, HasCycleDetects) {
  EXPECT_FALSE(HasCycle(Diamond()));
  GraphBuilder b;
  const VertexId a = b.AddVertex("a");
  const VertexId v_b = b.AddVertex("b");
  b.AddEdge(a, v_b, "e");
  b.AddEdge(v_b, a, "f");
  EXPECT_TRUE(HasCycle(std::move(b).Build()));
}

TEST(PartitionTest, HashPartitionCoversAllVertices) {
  const Graph g = Diamond();
  const auto part = PartitionVertices(g, 2, PartitionStrategy::kHash);
  EXPECT_EQ(part.num_fragments, 2u);
  size_t total = 0;
  for (const auto& frag : part.owned) total += frag.size();
  EXPECT_EQ(total, g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const uint32_t f = part.owner[v];
    EXPECT_TRUE(std::find(part.owned[f].begin(), part.owned[f].end(), v) !=
                part.owned[f].end());
  }
}

TEST(PartitionTest, BorderNodesAreCrossEdgeTargets) {
  const Graph g = Diamond();
  for (const auto strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
    const auto part = PartitionVertices(g, 2, strategy);
    for (uint32_t f = 0; f < 2; ++f) {
      // Every border node is not owned and has an in-edge from fragment f.
      for (const VertexId v : part.border[f]) {
        EXPECT_NE(part.owner[v], f);
      }
      // Every cross-fragment edge target appears in the border set.
      for (const VertexId u : part.owned[f]) {
        for (const Edge& e : g.OutEdges(u)) {
          if (part.owner[e.dst] != f) {
            EXPECT_TRUE(std::find(part.border[f].begin(),
                                  part.border[f].end(),
                                  e.dst) != part.border[f].end());
          }
        }
      }
    }
  }
}

TEST(PartitionTest, SingleFragmentHasNoBorder) {
  const Graph g = Diamond();
  const auto part = PartitionVertices(g, 1, PartitionStrategy::kRange);
  EXPECT_TRUE(part.border[0].empty());
  EXPECT_EQ(part.owned[0].size(), g.num_vertices());
}

TEST(PathRefTest, ToStringRendersLabels) {
  GraphBuilder b;
  const VertexId a = b.AddVertex("a");
  const VertexId v_b = b.AddVertex("b");
  const VertexId c = b.AddVertex("c");
  b.AddEdge(a, v_b, "factorySite");
  b.AddEdge(v_b, c, "isIn");
  const Graph g = std::move(b).Build();
  PathRef p;
  p.endpoint = c;
  p.labels = {g.edge_labels().Find("factorySite"), g.edge_labels().Find("isIn")};
  EXPECT_EQ(PathLabelsToString(g, p), "(factorySite, isIn)");
}

}  // namespace
}  // namespace her
