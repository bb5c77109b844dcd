#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <latch>
#include <set>
#include <span>
#include <thread>
#include <unordered_set>

#include "core/drivers.h"
#include "core/match_engine.h"
#include "tests/test_util.h"

namespace her {
namespace {

using testutil::ContextHarness;
using testutil::EmbeddingOverlapScorer;
using testutil::ItemRoots;
using testutil::RandomEntityGraphs;

/// Re-validates the parametric-simulation definition (Section III) against
/// a computed witness: every pair in Pi must satisfy (a) h_v >= sigma and
/// (b) — when u is not a leaf — carry an injective lineage set drawn from
/// V_u^k x V_v^k whose members are all in Pi and whose aggregate h_rho
/// reaches delta.
::testing::AssertionResult WitnessSatisfiesDefinition(MatchEngine& engine,
                                                      VertexId u0,
                                                      VertexId v0) {
  const MatchContext& ctx = engine.context();
  const auto pi = engine.Witness(u0, v0);
  if (pi.empty()) {
    return ::testing::AssertionFailure() << "empty witness";
  }
  const std::set<MatchPair> members(pi.begin(), pi.end());
  if (members.count({u0, v0}) == 0) {
    return ::testing::AssertionFailure() << "(u0,v0) not in Pi";
  }
  for (const MatchPair& p : pi) {
    const auto [u, v] = p;
    if (ctx.hv->Score(u, v) < ctx.params.sigma) {
      return ::testing::AssertionFailure()
             << "h_v below sigma for (" << u << "," << v << ")";
    }
    if (ctx.gd->IsLeaf(u)) continue;
    const auto* entry = engine.Lookup(u, v);
    if (entry == nullptr || !entry->valid) {
      return ::testing::AssertionFailure()
             << "Pi member (" << u << "," << v << ") not cached valid";
    }
    // Lineage members must come from the selected top-k properties.
    const auto pu = engine.PropertiesOf(0, u);
    const auto pv = engine.PropertiesOf(1, v);
    auto find_u = [&](VertexId d) -> const Property* {
      for (const Property& q : pu) {
        if (q.descendant == d) return &q;
      }
      return nullptr;
    };
    auto find_v = [&](VertexId d) -> const Property* {
      for (const Property& q : pv) {
        if (q.descendant == d) return &q;
      }
      return nullptr;
    };
    double sum = 0.0;
    std::unordered_set<VertexId> used_u;
    std::unordered_set<VertexId> used_v;
    for (const MatchPair& w : entry->witnesses) {
      const Property* a = find_u(w.first);
      const Property* b = find_v(w.second);
      if (a == nullptr || b == nullptr) {
        return ::testing::AssertionFailure()
               << "lineage member outside V_u^k x V_v^k";
      }
      if (!used_u.insert(w.first).second ||
          !used_v.insert(w.second).second) {
        return ::testing::AssertionFailure() << "lineage not injective";
      }
      if (members.count(w) == 0) {
        return ::testing::AssertionFailure()
               << "lineage member not itself in Pi";
      }
      sum += engine.HRho(*a, *b);
    }
    if (sum + 1e-9 < ctx.params.delta) {
      return ::testing::AssertionFailure()
             << "aggregate " << sum << " below delta " << ctx.params.delta
             << " for (" << u << "," << v << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

class WitnessValidityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WitnessValidityTest, EveryMatchHasDefinitionCompliantWitness) {
  auto [g1, g2] = RandomEntityGraphs(GetParam(), 8);
  ContextHarness h(std::move(g1), std::move(g2),
                   {.sigma = 0.99, .delta = 0.9, .k = 4});
  MatchEngine engine(h.ctx);
  const auto roots = ItemRoots(h.g1);
  const auto pi = AllParaMatch(engine, roots);
  for (const MatchPair& m : pi) {
    EXPECT_TRUE(WitnessSatisfiesDefinition(engine, m.first, m.second))
        << "root pair (" << m.first << "," << m.second << ")";
  }
}

TEST(WitnessValidityTest, SeedWithMatchesProducesWitnesses) {
  // Seed 21 is known to produce matches under these thresholds; guards
  // against the sweep silently validating nothing.
  auto [g1, g2] = RandomEntityGraphs(21, 8);
  ContextHarness h(std::move(g1), std::move(g2),
                   {.sigma = 0.99, .delta = 0.9, .k = 4});
  MatchEngine engine(h.ctx);
  const auto pi = AllParaMatch(engine, ItemRoots(h.g1));
  EXPECT_GT(pi.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WitnessValidityTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

/// Monotonicity: the match set grows as delta shrinks, and as sigma
/// shrinks (weaker thresholds admit supersets — the greatest-fixpoint
/// semantics is monotone in both).
class MonotonicityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MonotonicityTest, MatchSetShrinksWithDelta) {
  auto [g1, g2] = RandomEntityGraphs(GetParam(), 8);
  std::set<MatchPair> prev;
  bool first = true;
  for (const double delta : {0.5, 0.8, 1.1, 1.4}) {
    ContextHarness h(Graph(g1), Graph(g2),
                     {.sigma = 0.99, .delta = delta, .k = 4});
    MatchEngine engine(h.ctx);
    const auto roots = ItemRoots(h.g1);
    const auto pi = AllParaMatch(engine, roots);
    const std::set<MatchPair> cur(pi.begin(), pi.end());
    if (!first) {
      for (const MatchPair& m : cur) {
        EXPECT_TRUE(prev.count(m))
            << "match appeared when delta increased: (" << m.first << ","
            << m.second << ") at delta=" << delta;
      }
    }
    prev = cur;
    first = false;
  }
}

TEST_P(MonotonicityTest, MatchSetShrinksWithSigma) {
  auto [g1, g2] = RandomEntityGraphs(GetParam() ^ 0xabc, 8);
  std::set<MatchPair> prev;
  bool first = true;
  for (const double sigma : {0.5, 0.8, 0.99}) {
    ContextHarness h(Graph(g1), Graph(g2),
                     {.sigma = sigma, .delta = 0.9, .k = 4});
    MatchEngine engine(h.ctx);
    const auto roots = ItemRoots(h.g1);
    const auto pi = AllParaMatch(engine, roots);
    const std::set<MatchPair> cur(pi.begin(), pi.end());
    if (!first) {
      for (const MatchPair& m : cur) {
        EXPECT_TRUE(prev.count(m))
            << "match appeared when sigma increased at sigma=" << sigma;
      }
    }
    prev = cur;
    first = false;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityTest,
                         ::testing::Values(31, 32, 33, 34, 35, 36));

/// Total ParaMatch invocations stay within the quadratic envelope
/// |V_D| x |V| x (k^2 + 1): a pair is evaluated once, plus once per flip
/// of one of its at most k^2 candidate pairs, and a pair flips at most once.
class EvaluationEnvelopeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvaluationEnvelopeTest, QuadraticEnvelope) {
  auto [g1, g2] = RandomEntityGraphs(GetParam(), 10);
  ContextHarness h(std::move(g1), std::move(g2),
                   {.sigma = 0.99, .delta = 0.9, .k = 4});
  MatchEngine engine(h.ctx);
  const auto roots = ItemRoots(h.g1);
  AllParaMatch(engine, roots);
  const size_t k = static_cast<size_t>(h.ctx.params.k);
  const size_t envelope =
      h.g1.num_vertices() * h.g2.num_vertices() * (k * k + 1);
  EXPECT_LE(engine.stats().para_match_calls, envelope);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluationEnvelopeTest,
                         ::testing::Values(41, 42, 43, 44, 45, 46));

/// Uniqueness (Proposition 4): re-running the same query yields the same
/// witness, and two engines over the same context agree on Pi and on every
/// witness set size.
TEST(UniquenessTest, IndependentEnginesAgree) {
  auto [g1, g2] = RandomEntityGraphs(55, 8);
  ContextHarness h(std::move(g1), std::move(g2),
                   {.sigma = 0.99, .delta = 0.9, .k = 4});
  MatchEngine e1(h.ctx);
  MatchEngine e2(h.ctx);
  const auto roots = ItemRoots(h.g1);
  const auto pi1 = AllParaMatch(e1, roots);
  const auto pi2 = AllParaMatch(e2, roots);
  EXPECT_EQ(pi1, pi2);
  for (const MatchPair& m : pi1) {
    EXPECT_EQ(e1.Witness(m.first, m.second), e2.Witness(m.first, m.second));
  }
}

/// The PropertyTable build must be a pure function of the graphs and the
/// ranker: any threads/block_size combination yields byte-identical
/// contents (ISSUE: 1-thread vs 8-thread builds byte-equal).
TEST(PropertyTableTest, BuildIsDeterministicAcrossThreadsAndBlocks) {
  auto [g1, g2] = RandomEntityGraphs(77, 10);
  const JointVocab vocab(g1, g2);
  // Small LM over the joint label tokens so the build runs the lockstep
  // LSTM kernel (what the walks prefer is irrelevant to determinism).
  std::vector<std::vector<int>> corpus;
  for (LabelId l = 0; l < g1.edge_labels().size(); ++l) {
    for (int rep = 0; rep < 5; ++rep) {
      corpus.push_back({vocab.TokenOf(0, l), vocab.eos()});
    }
  }
  LstmLm lm;
  LstmConfig cfg;
  cfg.epochs = 3;
  lm.Train(corpus, vocab.size_with_eos(), cfg);
  const LstmPraRanker hr(g1, g2, &vocab, &lm);
  const TokenOverlapPathScorer mrho(&vocab);

  const PropertyTable base =
      PropertyTable::Build(g1, g2, hr, vocab, /*threads=*/1, &mrho,
                           /*block_size=*/1);
  const PropertyTable eight =
      PropertyTable::Build(g1, g2, hr, vocab, /*threads=*/8, &mrho);
  const PropertyTable odd_blocks =
      PropertyTable::Build(g1, g2, hr, vocab, /*threads=*/3, &mrho,
                           /*block_size=*/7);
  EXPECT_TRUE(base == eight);
  EXPECT_TRUE(base == odd_blocks);
  EXPECT_GT(base.build_seconds(), 0.0);

  // Spot-check the table is non-trivial: every item root has properties.
  for (const VertexId r : ItemRoots(g1)) {
    EXPECT_FALSE(base.Get(0, r, 4).empty()) << "root " << r;
  }
}

/// Get must tolerate out-of-range vertices (e.g. ids minted by a newer
/// graph version) by returning an empty span instead of indexing out of
/// bounds.
TEST(PropertyTableTest, GetOutOfRangeReturnsEmpty) {
  auto [g1, g2] = RandomEntityGraphs(13, 4);
  const JointVocab vocab(g1, g2);
  const PraRanker hr(g1, g2);
  const PropertyTable table = PropertyTable::Build(g1, g2, hr, vocab);
  EXPECT_FALSE(table.Get(0, ItemRoots(g1).front(), 4).empty());
  EXPECT_TRUE(
      table.Get(0, static_cast<VertexId>(g1.num_vertices()), 4).empty());
  EXPECT_TRUE(table.Get(1, static_cast<VertexId>(1u << 30), 4).empty());
}

// --- property-row arena --------------------------------------------------

/// The harness context with the embedding scorer as M_rho, so lazy rows
/// carry path embeddings.
struct EmbeddingContext {
  explicit EmbeddingContext(ContextHarness& h) : mrho(h.vocab.get()) {
    ctx = h.ctx;
    ctx.mrho = &mrho;
  }
  EmbeddingOverlapScorer mrho;
  MatchContext ctx;
};

/// A span a lazy table's Get handed out stays valid and unchanged while
/// thousands of later reads rank rows into its arena.
TEST(PropertyArenaTest, SpanSurvivesLazyTableGrowth) {
  auto [g1, g2] = RandomEntityGraphs(5, 400);
  ContextHarness h(std::move(g1), std::move(g2),
                   {.sigma = 0.99, .delta = 0.9, .k = 4});
  EmbeddingContext ec(h);
  const PropertyTable table(ec.ctx);
  const VertexId root = ItemRoots(h.g1).front();
  const PropertyRow first = table.Get(0, root, 4);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(first.front().embedding.empty());
  PropertyArena keep;
  const PropertyRow copy = keep.Add(first);
  size_t calls = 0;
  for (int graph = 0; graph < 2; ++graph) {
    const Graph& g = graph == 0 ? h.g1 : h.g2;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      table.Get(graph, v, 4);
      ++calls;
    }
  }
  EXPECT_GT(calls, 2000u);
  EXPECT_TRUE(std::ranges::equal(first, copy));
  EXPECT_EQ(table.Get(0, root, 4).data(), first.data());
}

/// A lazy table and a built one rank through one kernel into one arena
/// layout: for the same k their rows are equal, whether read from the
/// table or through an engine that owns it.
TEST(PropertyTableTest, LazyRowsEqualBuiltRows) {
  auto [g1, g2] = RandomEntityGraphs(9, 40);
  ContextHarness h(std::move(g1), std::move(g2),
                   {.sigma = 0.99, .delta = 0.9, .k = 3});
  EmbeddingContext ec(h);
  const PropertyTable lazy(ec.ctx);
  MatchEngine engine(ec.ctx);
  const PropertyTable built = PropertyTable::Build(
      h.g1, h.g2, *h.hr, *h.vocab, /*threads=*/2, &ec.mrho);
  size_t compared = 0;
  for (int graph = 0; graph < 2; ++graph) {
    const Graph& g = graph == 0 ? h.g1 : h.g2;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const PropertyRow want = built.Get(graph, v, 3);
      EXPECT_TRUE(std::ranges::equal(lazy.Get(graph, v, 3), want))
          << "graph " << graph << " vertex " << v;
      EXPECT_TRUE(std::ranges::equal(engine.PropertiesOf(graph, v), want))
          << "graph " << graph << " vertex " << v;
      compared += want.size();
    }
  }
  EXPECT_GT(compared, 100u);
}

/// Four threads read overlapping vertex windows of one fresh lazy table:
/// every row equals the built table's top-k, and each row is ranked once
/// (one TopKBatch call per row published, i.e. per vertex read), however
/// the reads race.
TEST(PropertyTableTest, ConcurrentLazyFillRanksEachRowOnce) {
  auto [g1, g2] = RandomEntityGraphs(17, 200);
  constexpr int kK = 4;
  ContextHarness h(std::move(g1), std::move(g2),
                   {.sigma = 0.99, .delta = 0.9, .k = kK});
  EmbeddingContext ec(h);
  const PropertyTable built = PropertyTable::Build(
      h.g1, h.g2, *h.hr, *h.vocab, /*threads=*/1, &ec.mrho);
  const Graph* graphs[2] = {&h.g1, &h.g2};
  constexpr size_t kThreads = 4;
  for (int round = 0; round < 3; ++round) {
    const PropertyTable lazy(ec.ctx);
    const size_t calls_before = h.hr->BatchCalls();
    // Even threads read the first three quarters of each graph, odd ones
    // the last three, all starting together: two threads want each vertex
    // at the same moment, and the middle half is wanted by all four.
    std::vector<size_t> mismatches(kThreads, 0);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (int graph = 0; graph < 2; ++graph) {
          const size_t n = graphs[graph]->num_vertices();
          const size_t begin = t % 2 == 0 ? 0 : n / 4;
          const size_t end = t % 2 == 0 ? 3 * n / 4 : n;
          for (size_t v = begin; v < end; ++v) {
            const auto id = static_cast<VertexId>(v);
            if (!std::ranges::equal(lazy.Get(graph, id, kK),
                                    built.Get(graph, id, kK))) {
              ++mismatches[t];
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0u) << "round " << round << " thread " << t;
    }
    // The windows cover every vertex of both graphs.
    const size_t published = h.g1.num_vertices() + h.g2.num_vertices();
    EXPECT_EQ(h.hr->BatchCalls() - calls_before, published)
        << "round " << round;
  }
}

/// `g` with `extra` more edges from internal vertices to later vertices
/// (existing labels, so the joint vocabulary is unchanged).
Graph WithExtraEdges(const Graph& g, size_t extra) {
  GraphBuilder b;
  for (LabelId l = 0; l < g.edge_labels().size(); ++l) {
    b.InternEdgeLabel(g.EdgeLabelName(l));
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) b.AddVertex(g.label(v));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Edge& e : g.OutEdges(v)) b.AddEdge(v, e.dst, e.label);
  }
  const auto n = static_cast<VertexId>(g.num_vertices());
  for (size_t i = 0; i < extra; ++i) {
    const auto src = static_cast<VertexId>((i * 7) % n);
    if (g.IsLeaf(src)) continue;
    b.AddEdge(src, static_cast<VertexId>((src + 1 + i) % n),
              static_cast<LabelId>(i % g.edge_labels().size()));
  }
  return std::move(b).Build();
}

/// Refreshing the same vertices again and again against updated graphs
/// keeps the table equal to a fresh build and compacts the replaced rows:
/// after every Refresh the dead bytes stay within the live ones.
TEST(PropertyArenaTest, RepeatedRefreshEqualsFreshBuildAndCompacts) {
  auto [g1, g2] = RandomEntityGraphs(21, 12);
  const JointVocab vocab(g1, g2);
  const EmbeddingOverlapScorer mrho(&vocab);
  const PraRanker hr0(g1, g2);
  PropertyTable table =
      PropertyTable::Build(g1, g2, hr0, vocab, /*threads=*/1, &mrho);
  std::vector<VertexId> all;
  for (VertexId v = 0; v < g2.num_vertices(); ++v) all.push_back(v);
  bool compacted = false;
  for (size_t round = 1; round <= 8; ++round) {
    const Graph updated = WithExtraEdges(g2, 3 * round);
    ASSERT_EQ(updated.num_vertices(), g2.num_vertices());
    const PraRanker hr(g1, updated);
    const size_t dead_before = table.arena().DeadBytes();
    table.Refresh(1, updated, all, hr, vocab, &mrho);
    if (table.arena().DeadBytes() < dead_before) compacted = true;
    const PropertyTable fresh =
        PropertyTable::Build(g1, updated, hr, vocab, /*threads=*/1, &mrho);
    EXPECT_TRUE(table == fresh) << "round " << round;
    EXPECT_EQ(table.arena().LiveBytes(), fresh.arena().LiveBytes());
    EXPECT_LE(table.arena().DeadBytes(), table.arena().LiveBytes())
        << "round " << round;
  }
  EXPECT_TRUE(compacted);
}

/// Pins the PropertyTable snapshot format: a small hand-built table's
/// SaveState bytes (rows with labels, joint tokens, embeddings and PRA,
/// plus a pending vertex) equal the bytes the vector-of-rows layout wrote,
/// so every existing model.snap still warm-starts.
TEST(PropertyArenaTest, SaveStateBytesMatchGolden) {
  GraphBuilder b1;
  const VertexId item1 = b1.AddVertex("item");
  const VertexId chair = b1.AddVertex("chair");
  b1.AddEdge(item1, b1.AddVertex("red"), "color");
  b1.AddEdge(item1, chair, "kind");
  b1.AddEdge(chair, b1.AddVertex("acme"), "brand");
  GraphBuilder b2;
  const VertexId item2 = b2.AddVertex("item");
  b2.AddEdge(item2, b2.AddVertex("red"), "color");
  b2.AddEdge(item2, b2.AddVertex("acme"), "brand");
  const Graph g1 = std::move(b1).Build();
  const Graph g2 = std::move(b2).Build();
  const JointVocab vocab(g1, g2);
  const EmbeddingOverlapScorer mrho(&vocab);
  const PraRanker hr(g1, g2);
  PropertyTable table = PropertyTable::Build(g1, g2, hr, vocab, 1, &mrho);
  const VertexId pending[] = {item2};
  table.Refresh(1, g2, pending, hr, vocab, &mrho,
                RunOptions::WithTimeout(std::chrono::seconds(0)));
  ByteWriter w;
  table.SaveState(&w);
  static const char kHex[] = "0123456789abcdef";
  std::string hex;
  for (const char c : w.data()) {
    hex += kHex[static_cast<unsigned char>(c) >> 4];
    hex += kHex[static_cast<unsigned char>(c) & 15];
  }
  EXPECT_EQ(hex,
            "04030101010101010000403f000000000000e03f0201000100010000803e0000"
            "00000000e03f03020102020102020000403f0000a03f000000000000e03f0103"
            "01020102010000a03f000000000000f03f00000003020101000100010000803e"
            "000000000000e03f0201010102010000a03f000000000000e03f00000100");
}

}  // namespace
}  // namespace her
