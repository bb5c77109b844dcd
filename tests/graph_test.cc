#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/partition.h"
#include "graph/traversal.h"
#include "persist/fingerprint.h"
#include "test_util.h"

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

// Labels around std::string's 15-byte inline buffer, an empty one, a long
// one, ones that graph_io must escape and one with outer spaces.
std::vector<std::string> OddLabels() {
  return {"",           "a",          std::string(15, 'p'),
          std::string(16, 'q'),       std::string(200, 'r'),
          "tab\there",  "two\nlines", "back\\slash",
          "cr\r",       " spaced "};
}

// One vertex per OddLabels() entry, chained 0 -> 1 -> ... by edge "next".
Graph OddLabelGraph() {
  GraphBuilder b;
  const std::vector<std::string> labels = OddLabels();
  for (const std::string& l : labels) b.AddVertex(l);
  for (VertexId v = 0; v + 1 < labels.size(); ++v) b.AddEdge(v, v + 1, "next");
  return std::move(b).Build();
}

TEST(GraphBuilderTest, LabelsKeepTheirBytes) {
  const std::vector<std::string> labels = OddLabels();
  const Graph g = OddLabelGraph();
  ASSERT_EQ(g.num_vertices(), labels.size());
  EXPECT_EQ(g.num_edges(), labels.size() - 1);
  for (VertexId v = 0; v < labels.size(); ++v) {
    EXPECT_EQ(g.label(v), labels[v]) << "vertex " << v;
  }
  EXPECT_EQ(Graph().num_vertices(), 0u);
  EXPECT_EQ(GraphBuilder().num_vertices(), 0u);
}

TEST(GraphBuilderTest, LabelsRoundTripThroughTextByteIdentically) {
  // OddLabelGraph plus three edges from the last vertex whose labels a
  // trimmed parse would change or refuse: empty, "x " and " y".
  GraphBuilder b;
  const std::vector<std::string> labels = OddLabels();
  for (const std::string& l : labels) b.AddVertex(l);
  for (VertexId v = 0; v + 1 < labels.size(); ++v) b.AddEdge(v, v + 1, "next");
  const VertexId last = static_cast<VertexId>(labels.size() - 1);
  b.AddEdge(last, 0, "");
  b.AddEdge(last, 1, "x ");
  b.AddEdge(last, 2, " y");
  const Graph g = std::move(b).Build();
  std::string expected = "her-graph v1\nV \nV a\nV " + std::string(15, 'p') +
                         "\nV " + std::string(16, 'q') + "\nV " +
                         std::string(200, 'r') +
                         "\nV tab\\there\nV two\\nlines\nV back\\\\slash"
                         "\nV cr\\r\nV  spaced \n";
  for (VertexId v = 0; v < last; ++v) {
    expected += "E " + std::to_string(v) + " " + std::to_string(v + 1) +
                " next\n";
  }
  const std::string from_last = "E " + std::to_string(last) + " ";
  expected += from_last + "0 \n" + from_last + "1 x \n" + from_last + "2  y\n";
  const std::string text = GraphToText(g);
  EXPECT_EQ(text, expected);
  const Result<Graph> parsed = GraphFromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_vertices(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(parsed->label(v), g.label(v));
    const auto want = g.OutEdges(v);
    const auto got = parsed->OutEdges(v);
    ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(parsed->EdgeLabelName(got[i].label),
                g.EdgeLabelName(want[i].label))
          << "vertex " << v << " edge " << i;
    }
  }
  EXPECT_EQ(GraphToText(*parsed), text);
}

TEST(GraphBuilderTest, FingerprintMatchesGolden) {
  // The value std::string-per-vertex storage produced for this graph: the
  // fingerprint (and so every snapshot and checkpoint keyed by it) must
  // not depend on how labels are stored.
  EXPECT_EQ(FingerprintGraph(OddLabelGraph()), 0x59b6ca3011b40907ULL);
}

TEST(GraphBuilderTest, LabelViewSurvivesGraphMove) {
  // Labels totalling under 16 bytes: a std::string pool would keep them in
  // its inline buffer, which a move copies, leaving earlier views pointing
  // into the moved-from object.
  GraphBuilder b;
  for (const char* l : {"a", "bc", "", "def"}) b.AddVertex(l);
  auto source = std::make_unique<Graph>(std::move(b).Build());
  std::vector<std::string_view> views;
  for (VertexId v = 0; v < source->num_vertices(); ++v) {
    views.push_back(source->label(v));
  }
  const Graph moved = std::move(*source);
  source.reset();  // the moved-from graph's storage is gone
  ASSERT_EQ(moved.num_vertices(), 4u);
  EXPECT_EQ(views, (std::vector<std::string_view>{"a", "bc", "", "def"}));
  for (VertexId v = 0; v < moved.num_vertices(); ++v) {
    EXPECT_EQ(views[v].data(), moved.label(v).data());
  }
}

TEST(GraphBuilderTest, SameVertexLabelsComparesEveryLabel) {
  const Graph g = OddLabelGraph();
  EXPECT_TRUE(g.SameVertexLabels(Graph(g)));
  EXPECT_FALSE(g.SameVertexLabels(Diamond()));
  // Same bytes, split differently: "" + "a" vs "a" + "".
  GraphBuilder b1;
  b1.AddVertex("");
  b1.AddVertex("a");
  GraphBuilder b2;
  b2.AddVertex("a");
  b2.AddVertex("");
  EXPECT_FALSE(std::move(b1).Build().SameVertexLabels(std::move(b2).Build()));
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

// MaxPraPaths as first written, on a std::unordered_map, kept as the
// reference the scratch kernel must reproduce: every path, sorted by
// (pra desc, endpoint asc).
std::vector<PraPath> ReferenceMaxPraPaths(const Graph& g, VertexId root,
                                          size_t max_len) {
  constexpr size_t kNone = static_cast<size_t>(-1);
  struct Hop {
    size_t parent;
    LabelId label;
    double pra;
  };
  struct Best {
    Hop last;
    size_t hop = kNone;
  };
  std::vector<Hop> hops;
  std::unordered_map<VertexId, Best> best;
  std::vector<std::pair<VertexId, size_t>> frontier = {{root, kNone}};
  std::vector<VertexId> improved;
  for (size_t len = 1; len <= max_len && !frontier.empty(); ++len) {
    improved.clear();
    for (const auto& [v, from] : frontier) {
      const size_t deg = g.OutDegree(v);
      if (deg == 0) continue;
      const double child_pra = (from == kNone ? 1.0 : hops[from].pra) /
                               static_cast<double>(deg);
      for (const Edge& e : g.OutEdges(v)) {
        if (e.dst == root) continue;
        auto [it, fresh] = best.try_emplace(e.dst);
        if (!fresh && child_pra <= it->second.last.pra) continue;
        if (fresh || it->second.hop != kNone) improved.push_back(e.dst);
        it->second = Best{Hop{from, e.label, child_pra}, kNone};
      }
    }
    frontier.clear();
    for (const VertexId v : improved) {
      Best& b = best.at(v);
      b.hop = hops.size();
      hops.push_back(b.last);
      frontier.emplace_back(v, b.hop);
    }
    std::sort(frontier.begin(), frontier.end());
  }
  std::vector<PraPath> out;
  for (const auto& [v, b] : best) {
    PraPath p;
    p.pra = b.last.pra;
    p.path.endpoint = v;
    for (size_t h = b.hop; h != kNone; h = hops[h].parent) {
      p.path.labels.push_back(hops[h].label);
    }
    std::reverse(p.path.labels.begin(), p.path.labels.end());
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(), [](const PraPath& a, const PraPath& b) {
    if (a.pra != b.pra) return a.pra > b.pra;
    return a.path.endpoint < b.path.endpoint;
  });
  return out;
}

// MaxPraPaths(g, root, max_len, limit) is the first `limit` reference
// paths: same endpoints, bitwise-equal pra, same labels.
void ExpectReferencePrefix(const Graph& g, VertexId root, size_t max_len,
                           size_t limit) {
  SCOPED_TRACE(testing::Message() << "root " << root << " max_len "
                                  << max_len << " limit " << limit);
  const std::vector<PraPath> ref = ReferenceMaxPraPaths(g, root, max_len);
  const std::vector<PraPath> got = MaxPraPaths(g, root, max_len, limit);
  ASSERT_EQ(got.size(), std::min(limit, ref.size()));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].path.endpoint, ref[i].path.endpoint) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].pra),
              std::bit_cast<uint64_t>(ref[i].pra))
        << i;
    EXPECT_EQ(got[i].path.labels, ref[i].path.labels) << i;
  }
}

TEST(TraversalTest, MaxPraPathsEqualsReference) {
  constexpr size_t kLimits[] = {0, 1, 3, 6, kAllPraPaths};
  const auto check_all = [&](const Graph& g) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (size_t max_len = 1; max_len <= 4; ++max_len) {
        for (const size_t limit : kLimits) {
          ExpectReferencePrefix(g, v, max_len, limit);
        }
      }
    }
  };
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    for (const int roots : {6, 10}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " roots "
                                      << roots);
      const auto [g1, g2] = testutil::RandomEntityGraphs(seed, roots);
      check_all(g1);
      check_all(g2);
      if (HasFailure()) return;
    }
  }

  // A hub with 300 descendants grows the per-thread vertex table mid-call
  // (past 64 nodes, then again); the small calls after it on the same
  // thread must still see a clean table.
  GraphBuilder b;
  const VertexId hub = b.AddVertex("hub");
  std::vector<VertexId> level1;
  for (int i = 0; i < 100; ++i) {
    level1.push_back(b.AddVertex(std::string("a").append(std::to_string(i))));
    b.AddEdge(hub, level1.back(), i % 2 == 0 ? "even" : "odd");
  }
  std::vector<VertexId> level2;
  for (int i = 0; i < 200; ++i) {
    level2.push_back(b.AddVertex(std::string("b").append(std::to_string(i))));
    b.AddEdge(level1[static_cast<size_t>(i / 2)], level2.back(), "down");
    // Cross links: several routes of unequal PRA to one vertex.
    b.AddEdge(level1[static_cast<size_t>((i * 7) % 100)], level2.back(),
              "cross");
  }
  for (int i = 0; i < 200; i += 3) {
    b.AddEdge(level2[static_cast<size_t>(i)],
              level1[static_cast<size_t>((i * 13) % 100)], "up");
  }
  const Graph hub_graph = std::move(b).Build();
  const Graph diamond = Diamond();
  for (size_t max_len = 1; max_len <= 4; ++max_len) {
    for (const size_t limit : kLimits) {
      ExpectReferencePrefix(hub_graph, hub, max_len, limit);
      ExpectReferencePrefix(diamond, 0, max_len, limit);
      ExpectReferencePrefix(hub_graph, level1[3], max_len, limit);
    }
  }
  check_all(hub_graph);
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
  ASSERT_EQ(part.owner.size(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LT(part.owner[v], 2u);
    EXPECT_TRUE(part.Owns(part.owner[v], v));
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
      for (VertexId u = 0; u < g.num_vertices(); ++u) {
        if (part.owner[u] != f) continue;
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
  EXPECT_EQ(part.owner, std::vector<uint32_t>(g.num_vertices(), 0));
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
