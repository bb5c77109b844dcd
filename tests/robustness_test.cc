#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "core/drivers.h"
#include "core/match_engine.h"
#include "graph/graph_io.h"
#include "rdb2rdf/json2graph.h"
#include "relational/csv.h"
#include "tests/test_util.h"

namespace her {
namespace {

using testutil::ContextHarness;
using testutil::ItemRoots;
using testutil::RandomEntityGraphs;

/// The Section V strategies are pure optimizations: switching them off
/// must never change Pi.
class StrategyInvarianceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategyInvarianceTest, EarlyTerminationDoesNotChangeResults) {
  auto [g1, g2] = RandomEntityGraphs(GetParam(), 8);
  ContextHarness a(Graph(g1), Graph(g2), {.sigma = 0.99, .delta = 0.9, .k = 4});
  ContextHarness b(Graph(g1), Graph(g2), {.sigma = 0.99, .delta = 0.9, .k = 4});
  b.ctx.enable_early_termination = false;
  MatchEngine ea(a.ctx);
  MatchEngine eb(b.ctx);
  const auto roots_a = ItemRoots(a.g1);
  EXPECT_EQ(AllParaMatch(ea, roots_a), AllParaMatch(eb, roots_a));
}

TEST_P(StrategyInvarianceTest, DegreeSortDoesNotChangeResults) {
  auto [g1, g2] = RandomEntityGraphs(GetParam() ^ 0x5a5a, 8);
  ContextHarness a(Graph(g1), Graph(g2), {.sigma = 0.99, .delta = 0.9, .k = 4});
  ContextHarness b(Graph(g1), Graph(g2), {.sigma = 0.99, .delta = 0.9, .k = 4});
  b.ctx.enable_degree_sort = false;
  MatchEngine ea(a.ctx);
  MatchEngine eb(b.ctx);
  const auto roots_a = ItemRoots(a.g1);
  // The switch is live: the same candidates reach the engine in another
  // order, and Pi does not change.
  auto sorted = GenerateCandidates(a.ctx, roots_a, nullptr);
  const auto unsorted = GenerateCandidates(b.ctx, roots_a, nullptr);
  EXPECT_NE(sorted, unsorted);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, unsorted);
  EXPECT_EQ(AllParaMatch(ea, roots_a), AllParaMatch(eb, roots_a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyInvarianceTest,
                         ::testing::Values(61, 62, 63, 64, 65, 66));

/// Parsers must reject or accept random garbage without crashing.
class FuzzSmokeTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static std::string RandomBytes(Rng& rng, size_t max_len) {
    std::string s;
    const size_t n = rng.Below(max_len + 1);
    for (size_t i = 0; i < n; ++i) {
      s += static_cast<char>(rng.Below(96) + 32);  // printable-ish
    }
    return s;
  }

  static std::string RandomStructured(Rng& rng, size_t max_len) {
    // Garbage biased toward structural characters to reach deep parser
    // states.
    const char* pool = "{}[]\",:\\ntrue false0123456789.eE+-VE ";
    std::string s;
    const size_t n = rng.Below(max_len + 1);
    const size_t pool_len = std::char_traits<char>::length(pool);
    for (size_t i = 0; i < n; ++i) {
      s += pool[rng.Below(pool_len)];
    }
    return s;
  }
};

TEST_P(FuzzSmokeTest, JsonParserNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    (void)ParseJson(RandomBytes(rng, 64));
    (void)ParseJson(RandomStructured(rng, 64));
  }
  SUCCEED();
}

TEST_P(FuzzSmokeTest, CsvParserNeverCrashes) {
  Rng rng(GetParam() ^ 0xc5);
  for (int i = 0; i < 400; ++i) {
    (void)ParseCsvLine(RandomBytes(rng, 96));
  }
  SUCCEED();
}

TEST_P(FuzzSmokeTest, GraphLoaderNeverCrashes) {
  Rng rng(GetParam() ^ 0x61);
  for (int i = 0; i < 200; ++i) {
    (void)GraphFromText(RandomBytes(rng, 128));
    (void)GraphFromText("her-graph v1\n" + RandomStructured(rng, 128));
  }
  SUCCEED();
}

TEST_P(FuzzSmokeTest, LabelUnescapeNeverCrashes) {
  Rng rng(GetParam() ^ 0x13);
  for (int i = 0; i < 400; ++i) {
    (void)UnescapeLabel(RandomBytes(rng, 48));
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSmokeTest, ::testing::Values(1, 2, 3, 4));

/// Adversarial payloads (not random — crafted to hit resource limits):
/// the loaders must return InvalidArgument, not overflow the stack or
/// balloon memory.
TEST(AdversarialInputTest, DeeplyNestedArrayRejectedNotStackOverflow) {
  // 100k opening brackets: a recursive-descent parser without a depth
  // guard turns this into 100k native stack frames.
  const std::string deep(100'000, '[');
  const auto r = ParseJson(deep);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(AdversarialInputTest, DeeplyNestedObjectRejected) {
  std::string deep;
  for (int i = 0; i < 50'000; ++i) deep += "{\"a\":";
  const auto r = ParseJson(deep);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(AdversarialInputTest, NestingJustBelowTheLimitParses) {
  std::string doc(128, '[');
  doc += std::string(128, ']');
  const auto r = ParseJson(doc);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->is_array());
}

TEST(AdversarialInputTest, HugeNumberTokensDoNotCrash) {
  const std::string huge = "1e999999999";
  (void)ParseJson(huge);  // inf or error, never a crash
  const std::string minus_huge = "-1e999999999";
  (void)ParseJson(minus_huge);
  const std::string nonsense = "--++..eeEE";
  EXPECT_FALSE(ParseJson(nonsense).ok());
  SUCCEED();
}

TEST(AdversarialInputTest, GiantCsvLineRejected) {
  Relation rel(RelationSchema{"r", {{"a"}}});
  std::string csv = "key,a\n";
  csv += "k1,";
  csv += std::string(kMaxCsvLineBytes + 10, 'x');
  csv += "\n";
  const Status s = LoadRelationFromCsv(csv, &rel);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(AdversarialInputTest, ExcessiveCsvFieldFanOutRejected) {
  Relation rel(RelationSchema{"r", {{"a"}}});
  std::string csv = "key,a\nk1";
  for (size_t i = 0; i < kMaxCsvFields + 8; ++i) csv += ",";
  csv += "\n";
  const Status s = LoadRelationFromCsv(csv, &rel);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(AdversarialInputTest, DuplicateCsvHeaderColumnsRejected) {
  // Duplicate column names make every later row ambiguous; the loader
  // must name the offending column, not fall through to a confusing
  // schema mismatch.
  Relation rel(RelationSchema{"r", {{"a"}, {"a"}}});
  const Status s = LoadRelationFromCsv("key,a,a\nk1,x,y\n", &rel);
  ASSERT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("duplicate"), std::string::npos)
      << s.ToString();
  // Even a duplicated "key" column is caught.
  Relation rel2(RelationSchema{"r", {{"key"}}});
  const Status s2 = LoadRelationFromCsv("key,key\nk1,x\n", &rel2);
  EXPECT_EQ(s2.code(), StatusCode::kInvalidArgument) << s2.ToString();
}

TEST(AdversarialInputTest, CrlfAndBareCrCsvParseIdenticallyToLf) {
  const std::string lf = "key,a,b\nk1,x,y\nk2,,z\n";
  std::string crlf;
  std::string cr;
  for (const char c : lf) {
    if (c == '\n') {
      crlf += "\r\n";
      cr += '\r';
    } else {
      crlf += c;
      cr += c;
    }
  }
  const RelationSchema schema{"r", {{"a"}, {"b"}}};
  Relation want(schema);
  ASSERT_TRUE(LoadRelationFromCsv(lf, &want).ok());
  for (const std::string& variant : {crlf, cr}) {
    Relation got(schema);
    ASSERT_TRUE(LoadRelationFromCsv(variant, &got).ok());
    ASSERT_EQ(got.tuples().size(), want.tuples().size());
    for (size_t i = 0; i < want.tuples().size(); ++i) {
      EXPECT_EQ(got.tuples()[i].key, want.tuples()[i].key);
      EXPECT_EQ(got.tuples()[i].values, want.tuples()[i].values);
    }
  }
}

TEST(AdversarialInputTest, ValueBombRejectedByTotalCap) {
  // A flat array with more values than kMaxJsonValues would allocate a
  // JsonValue per element; the cap fails fast instead. (Kept well under
  // the cap here to stay quick: verify the guard via a small synthetic
  // limit is not possible without recompiling, so just confirm a large
  // but sub-cap document still parses and a crafted unterminated one
  // errors cleanly.)
  std::string many = "[";
  for (int i = 0; i < 10'000; ++i) many += "0,";
  many += "0]";
  EXPECT_TRUE(ParseJson(many).ok());
  std::string unterminated = "[";
  for (int i = 0; i < 10'000; ++i) unterminated += "0,";
  EXPECT_FALSE(ParseJson(unterminated).ok());
}

/// Engine edge cases.
TEST(EngineEdgeCaseTest, KLargerThanPropertyCount) {
  GraphBuilder b1;
  const VertexId u = b1.AddVertex("item");
  b1.AddEdge(u, b1.AddVertex("white"), "color");
  GraphBuilder b2;
  const VertexId v = b2.AddVertex("item");
  b2.AddEdge(v, b2.AddVertex("white"), "color");
  ContextHarness h(std::move(b1).Build(), std::move(b2).Build(),
                   {.sigma = 1.0, .delta = 0.4, .k = 1000});
  MatchEngine e(h.ctx);
  EXPECT_TRUE(e.Match(u, v));
}

TEST(EngineEdgeCaseTest, SelfLoopDoesNotHang) {
  GraphBuilder b1;
  const VertexId u = b1.AddVertex("item");
  b1.AddEdge(u, u, "self");
  b1.AddEdge(u, b1.AddVertex("white"), "color");
  GraphBuilder b2;
  const VertexId v = b2.AddVertex("item");
  b2.AddEdge(v, v, "self");
  b2.AddEdge(v, b2.AddVertex("white"), "color");
  ContextHarness h(std::move(b1).Build(), std::move(b2).Build(),
                   {.sigma = 1.0, .delta = 0.4, .k = 5});
  MatchEngine e(h.ctx);
  EXPECT_TRUE(e.Match(u, v));
}

TEST(EngineEdgeCaseTest, SigmaZeroAdmitsEverythingButDeltaStillGates) {
  GraphBuilder b1;
  const VertexId u = b1.AddVertex("a");
  b1.AddEdge(u, b1.AddVertex("x"), "e");
  GraphBuilder b2;
  const VertexId v = b2.AddVertex("b");
  b2.AddEdge(v, b2.AddVertex("y"), "f");
  ContextHarness h(std::move(b1).Build(), std::move(b2).Build(),
                   {.sigma = 0.0, .delta = 10.0, .k = 5});
  MatchEngine e(h.ctx);
  // sigma admits (a, b) but delta 10 is unreachable.
  EXPECT_FALSE(e.Match(u, v));
}

TEST(EngineEdgeCaseTest, LeafUAgainstNonLeafVMatchesOnLabel) {
  GraphBuilder b1;
  const VertexId u = b1.AddVertex("item");  // leaf in G_D
  GraphBuilder b2;
  const VertexId v = b2.AddVertex("item");
  b2.AddEdge(v, b2.AddVertex("white"), "color");
  ContextHarness h(std::move(b1).Build(), std::move(b2).Build(),
                   {.sigma = 1.0, .delta = 5.0, .k = 5});
  MatchEngine e(h.ctx);
  // Condition (b) applies only when u is not a leaf.
  EXPECT_TRUE(e.Match(u, v));
}

TEST(EngineEdgeCaseTest, VParaMatchWithoutSigmaSurvivorsIsEmpty) {
  GraphBuilder b1;
  const VertexId u = b1.AddVertex("item");
  GraphBuilder b2;
  b2.AddVertex("noise");
  ContextHarness h(std::move(b1).Build(), std::move(b2).Build(),
                   {.sigma = 1.0, .delta = 0.4, .k = 5});
  MatchEngine e(h.ctx);
  EXPECT_TRUE(VParaMatch(e, u).empty());
  EXPECT_EQ(e.stats().para_match_calls, 0u);
}

}  // namespace
}  // namespace her
