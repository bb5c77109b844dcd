#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "sim/joint_vocab.h"
#include "sim/params.h"
#include "sim/scores.h"
#include "sim/token_rows.h"

namespace her {
namespace {

struct TwoGraphs {
  Graph g1;
  Graph g2;
};

TwoGraphs MakeGraphs() {
  GraphBuilder b1;
  const VertexId u0 = b1.AddVertex("item");
  const VertexId u1 = b1.AddVertex("Germany");
  const VertexId u2 = b1.AddVertex("white");
  b1.AddEdge(u0, u1, "country");
  b1.AddEdge(u0, u2, "color");

  GraphBuilder b2;
  const VertexId v0 = b2.AddVertex("item");
  const VertexId v1 = b2.AddVertex("Germany");
  const VertexId v2 = b2.AddVertex("White");
  b2.AddEdge(v0, v1, "brandCountry");
  b2.AddEdge(v0, v2, "hasColor");
  b2.AddEdge(v1, v2, "country");  // shared label with g1

  return {std::move(b1).Build(), std::move(b2).Build()};
}

TEST(JointVocabTest, SharedLabelsGetOneToken) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const LabelId c1 = tg.g1.edge_labels().Find("country");
  const LabelId c2 = tg.g2.edge_labels().Find("country");
  EXPECT_EQ(vocab.TokenOf(0, c1), vocab.TokenOf(1, c2));
  // 5 distinct labels: country, color, brandCountry, hasColor (+ country shared).
  EXPECT_EQ(vocab.size(), 4u);
  EXPECT_EQ(vocab.eos(), 4);
  EXPECT_EQ(vocab.size_with_eos(), 5u);
}

TEST(JointVocabTest, MapPathTranslatesLabels) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const LabelId c = tg.g1.edge_labels().Find("country");
  const LabelId col = tg.g1.edge_labels().Find("color");
  const auto mapped = vocab.MapPath(0, std::vector<LabelId>{c, col});
  ASSERT_EQ(mapped.size(), 2u);
  EXPECT_EQ(vocab.Name(mapped[0]), "country");
  EXPECT_EQ(vocab.Name(mapped[1]), "color");
}

TEST(JaccardVertexScorerTest, ExactAndPartial) {
  const TwoGraphs tg = MakeGraphs();
  const JaccardVertexScorer hv(tg.g1, tg.g2);
  EXPECT_DOUBLE_EQ(hv.Score(0, 0), 1.0);  // item ~ item
  EXPECT_DOUBLE_EQ(hv.Score(1, 1), 1.0);  // Germany ~ Germany
  EXPECT_DOUBLE_EQ(hv.Score(2, 2), 1.0);  // white ~ White (case-insensitive)
  EXPECT_DOUBLE_EQ(hv.Score(1, 2), 0.0);
}

TEST(EmbeddingVertexScorerTest, AgreesWithEmbedderOnIdentity) {
  const TwoGraphs tg = MakeGraphs();
  const HashedTextEmbedder emb;
  const EmbeddingVertexScorer hv(tg.g1, tg.g2, emb);
  EXPECT_NEAR(hv.Score(0, 0), 1.0, 1e-6);
  EXPECT_LT(hv.Score(1, 2), 0.5);
}

/// Two graphs with enough label variety to exercise the batch kernel's
/// 4-wide main loop plus its scalar tail.
TwoGraphs MakeWideGraphs(int n) {
  GraphBuilder b1;
  GraphBuilder b2;
  for (int i = 0; i < n; ++i) {
    b1.AddVertex("label one " + std::to_string(i % 7));
    b2.AddVertex("label two " + std::to_string(i % 5));
  }
  return {std::move(b1).Build(), std::move(b2).Build()};
}

TEST(EmbeddingVertexScorerTest, ScoreBatchBitIdenticalToScore) {
  const TwoGraphs tg = MakeWideGraphs(37);
  const HashedTextEmbedder emb;
  const EmbeddingVertexScorer hv(tg.g1, tg.g2, emb);
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId u = static_cast<VertexId>(rng.Below(37));
    std::vector<VertexId> vs;
    const size_t len = rng.Below(37) + 1;  // covers tail sizes 1..3 too
    for (size_t i = 0; i < len; ++i) {
      vs.push_back(static_cast<VertexId>(rng.Below(37)));
    }
    std::vector<double> batch(vs.size());
    hv.ScoreBatch(u, vs, batch);
    for (size_t i = 0; i < vs.size(); ++i) {
      EXPECT_EQ(batch[i], hv.Score(u, vs[i]))
          << "u=" << u << " v=" << vs[i] << " i=" << i;
    }
  }
  EXPECT_EQ(hv.BatchCalls(), 20u);
}

TEST(VertexScorerTest, DefaultScoreBatchLoopsOverScore) {
  // A scorer that keeps the default ScoreBatch.
  struct SumScorer : VertexScorer {
    double Score(VertexId u, VertexId v) const override {
      return 0.25 * u + 0.125 * v;
    }
  };
  const SumScorer hv;
  const std::vector<VertexId> vs = {0, 1, 2};
  std::vector<double> out(vs.size());
  hv.ScoreBatch(1, vs, out);
  for (size_t i = 0; i < vs.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], hv.Score(1, vs[i]));
  }
  EXPECT_EQ(hv.BatchCalls(), 1u);
}

TEST(JaccardVertexScorerTest, BatchEqualsScalar) {
  const int n = 37;
  const TwoGraphs tg = MakeWideGraphs(n);
  const JaccardVertexScorer hv(tg.g1, tg.g2);
  std::vector<VertexId> vs(n);
  for (int v = 0; v < n; ++v) vs[v] = static_cast<VertexId>(v);
  std::vector<double> out(vs.size());
  for (int u = 0; u < n; ++u) {
    const size_t calls = hv.BatchCalls();
    hv.ScoreBatch(static_cast<VertexId>(u), vs, out);
    EXPECT_EQ(hv.BatchCalls(), calls + 1);
    for (size_t i = 0; i < vs.size(); ++i) {
      EXPECT_EQ(out[i], hv.Score(static_cast<VertexId>(u), vs[i]))
          << "u=" << u << " v=" << vs[i];
    }
  }
  hv.ScoreBatch(0, {}, {});
  EXPECT_EQ(hv.BatchCalls(), static_cast<size_t>(n) + 1);
}

/// A label drawn from words that reach the token kernel's edge cases: empty
/// and separator-only labels, camelCase and digit boundaries, mixed case,
/// tokens longer than 8 bytes that share their first 8, and (with `long_run`)
/// more than WordTokenSet::kInline distinct tokens.
std::string TokenEdgeLabel(Rng& rng) {
  static const char* const kWords[] = {
      "item",        "Item",       "ITEM",       "factorySite", "FactorySITE",
      "gen7X",       "made_in",    "abcdefgh",   "abcdefghij",  "ABCDEFGHIK",
      "abcdefghIJ",  "x",          "7",          "_-",          "brandCountry",
      "country",     "internationalization",     "INTERNATIONALIZE"};
  const size_t words = rng.Below(4) == 0 ? 20 + rng.Below(20) : rng.Below(5);
  std::string s;
  for (size_t w = 0; w < words; ++w) {
    if (w > 0) s += rng.Below(3) == 0 ? "_" : " ";
    if (rng.Below(3) == 0) {
      s += 'w';  // distinct filler tokens
      s += std::to_string(rng.Below(40));
    } else {
      s += kWords[rng.Below(std::size(kWords))];
    }
  }
  return s;
}

TwoGraphs MakeTokenEdgeGraphs(uint64_t seed, int n) {
  Rng rng(seed);
  GraphBuilder b1;
  GraphBuilder b2;
  b1.AddVertex("");
  b2.AddVertex("");
  b1.AddVertex(" _-. ");
  b2.AddVertex("abcdefghXY abcdefghxz");
  for (int i = 2; i < n; ++i) {
    b1.AddVertex(TokenEdgeLabel(rng));
    b2.AddVertex(TokenEdgeLabel(rng));
  }
  return {std::move(b1).Build(), std::move(b2).Build()};
}

TEST(JaccardVertexScorerTest, ScoreMatrixEqualsScoreBatchEqualsScore) {
  const int n = 64;
  const TwoGraphs tg = MakeTokenEdgeGraphs(17, n);
  const JaccardVertexScorer hv(tg.g1, tg.g2);
  size_t spilled = 0;
  for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
    if (WordTokenSet(tg.g2.label(v)).size() > WordTokenSet::kInline) {
      ++spilled;
    }
  }
  EXPECT_GT(spilled, 3u);  // the inputs reach the inline buffer's spill
  Rng rng(5);
  size_t partial = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<VertexId> us(rng.Below(8));
    std::vector<VertexId> vs(rng.Below(40));
    for (VertexId& u : us) u = static_cast<VertexId>(rng.Below(n));
    for (VertexId& v : vs) v = static_cast<VertexId>(rng.Below(n));
    if (trial == 0) {  // the empty label and a label without tokens
      us = {0, 1};
      vs = {0, 1};
    }
    std::vector<double> matrix(us.size() * vs.size());
    std::vector<double> batch(vs.size());
    const size_t calls = hv.BatchCalls();
    hv.ScoreMatrix(us, vs, matrix);
    EXPECT_EQ(hv.BatchCalls(), calls + 1);
    for (size_t i = 0; i < us.size(); ++i) {
      hv.ScoreBatch(us[i], vs, batch);
      for (size_t j = 0; j < vs.size(); ++j) {
        const double want =
            TokenJaccard(tg.g1.label(us[i]), tg.g2.label(vs[j]));
        EXPECT_EQ(hv.Score(us[i], vs[j]), want)
            << "u=" << us[i] << " v=" << vs[j];
        EXPECT_EQ(batch[j], want) << "u=" << us[i] << " v=" << vs[j];
        EXPECT_EQ(matrix[i * vs.size() + j], want)
            << "u=" << us[i] << " v=" << vs[j];
        if (want > 0.0 && want < 1.0) ++partial;
      }
    }
  }
  EXPECT_GT(partial, 100u);
  EXPECT_EQ(hv.Score(0, 0), 1.0);  // two labels without tokens
  EXPECT_EQ(hv.Score(1, 0), 1.0);
  EXPECT_EQ(hv.Score(0, 1), 0.0);
}

/// Up to ~200 bytes of words (case variants, tokens longer than 8 bytes
/// that share their first 8, camel and digit boundaries) and single
/// characters from letters, digits, '_', space, punctuation and bytes
/// >= 0x80, after four fixed labels: the empty label, one without tokens,
/// shared 8-byte prefixes and camel/mixed case.
TwoGraphs MakeInternEdgeGraphs(uint64_t seed, int n) {
  static const char* const kWords[] = {
      "item",        "Item",          "ITEM",
      "country",     "brandCountry",  "gen7X",
      "7",           "a",             "made_in",
      "factorySite", "abcdefgh",      "abcdefghi",
      "ABCDEFGHIJ",  "internationalization", "INTERNATIONALIZE",
      "x"};
  static const std::string kChars =
      "ABCXYZabcxyz0189_ .,-/()!\x80\xc3\xa9\xff";
  static const char* const kFixed[] = {"", "_-. ,",
                                       "abcdefghi ABCDEFGHJ abcdefgh",
                                       "factorySite FactorySITE gen7X"};
  Rng rng(seed);
  GraphBuilder b[2];
  for (GraphBuilder& builder : b) {
    for (const char* label : kFixed) builder.AddVertex(label);
    for (int i = static_cast<int>(std::size(kFixed)); i < n; ++i) {
      const size_t target = rng.Below(201);
      std::string s;
      while (s.size() < target) {
        if (rng.Below(2) == 0) {
          s += kWords[rng.Below(std::size(kWords))];
        } else {
          s += kChars[rng.Below(kChars.size())];
        }
      }
      builder.AddVertex(std::move(s));
    }
  }
  return {std::move(b[0]).Build(), std::move(b[1]).Build()};
}

TEST(JaccardVertexScorerTest, InternedRowsEqualTokenJaccard) {
  const int n = 60;
  const TwoGraphs tg = MakeInternEdgeGraphs(31, n);
  std::vector<VertexId> all(n);
  for (int v = 0; v < n; ++v) all[v] = static_cast<VertexId>(v);
  const auto want = [&](VertexId u, VertexId v) {
    return TokenJaccard(tg.g1.label(u), tg.g2.label(v));
  };
  size_t spilled = 0;
  size_t partial = 0;
  for (const VertexId v : all) {
    for (const Graph* g : {&tg.g1, &tg.g2}) {
      if (WordTokenSet(g->label(v)).size() > WordTokenSet::kInline) ++spilled;
    }
    for (const VertexId u : all) {
      const double w = want(u, v);
      if (w > 0.0 && w < 1.0) ++partial;
    }
  }
  // The inputs reach more than 16 tokens a label and non-trivial overlaps.
  EXPECT_GT(spilled, 20u);
  EXPECT_GT(partial, 1000u);

  // Each entry point on a fresh scorer, so each fills the rows itself.
  {
    const JaccardVertexScorer hv(tg.g1, tg.g2);
    for (const VertexId u : all) {
      for (const VertexId v : all) {
        EXPECT_EQ(hv.Score(u, v), want(u, v)) << u << " | " << v;
      }
    }
    EXPECT_EQ(hv.RowsPublished(), 2u * n);
  }
  {
    const JaccardVertexScorer hv(tg.g1, tg.g2);
    std::vector<double> out(all.size());
    for (const VertexId u : all) {
      hv.ScoreBatch(u, all, out);
      for (const VertexId v : all) {
        EXPECT_EQ(out[v], want(u, v)) << u << " | " << v;
      }
    }
  }
  {
    const JaccardVertexScorer hv(tg.g1, tg.g2);
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<VertexId> us(rng.Below(8));
      std::vector<VertexId> vs(rng.Below(2 * n));
      for (VertexId& u : us) u = static_cast<VertexId>(rng.Below(n));
      for (VertexId& v : vs) v = static_cast<VertexId>(rng.Below(n));
      std::vector<double> out(us.size() * vs.size());
      hv.ScoreMatrix(us, vs, out);
      for (size_t i = 0; i < us.size(); ++i) {
        for (size_t j = 0; j < vs.size(); ++j) {
          EXPECT_EQ(out[i * vs.size() + j], want(us[i], vs[j]))
              << us[i] << " | " << vs[j];
        }
      }
    }
    std::vector<double> out(all.size() * all.size());
    hv.ScoreMatrix(all, all, out);
    for (const VertexId u : all) {
      for (const VertexId v : all) {
        EXPECT_EQ(out[u * all.size() + v], want(u, v)) << u << " | " << v;
      }
    }
  }
}

TEST(JaccardVertexScorerTest, TokensThatShareAPrefixStayDistinct) {
  // 40,000 distinct 12-byte tokens with one 8-byte prefix, where only the
  // bytes after the prefix tell them apart. Any two merged into one id
  // would change the union count, so every score below would move.
  const int n = 40000;
  std::string all, upper, most, half;
  for (int i = 0; i < n; ++i) {
    std::string tok = "abcdefgh";
    for (int x = i, d = 0; d < 4; ++d, x /= 36) {
      tok += "0123456789abcdefghijklmnopqrstuvwxyz"[x % 36];
    }
    all += tok + " ";
    // Upper-case the prefix only: an upper-case letter after a digit would
    // start a new token.
    upper += "ABCDEFGH" + tok.substr(8) + " ";
    if (i + 1 < n) most += tok + " ";
    if (i < n / 2) half += tok + " ";
  }
  GraphBuilder b1;
  GraphBuilder b2;
  b1.AddVertex(all);
  for (const std::string& label : {upper, most, half}) b2.AddVertex(label);
  const TwoGraphs tg{std::move(b1).Build(), std::move(b2).Build()};
  const JaccardVertexScorer hv(tg.g1, tg.g2);
  const std::vector<VertexId> vs = {0, 1, 2};
  std::vector<double> out(vs.size());
  hv.ScoreBatch(0, vs, out);
  for (const VertexId v : vs) {
    const double want = TokenJaccard(tg.g1.label(0), tg.g2.label(v));
    EXPECT_EQ(out[v], want) << v;
    EXPECT_EQ(hv.Score(0, v), want) << v;
  }
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[2], 0.5);
}

TEST(JaccardVertexScorerTest, ConcurrentFillPublishesEachRowOnce) {
  const int n = 240;
  const int kThreads = 4;
  const TwoGraphs tg = MakeInternEdgeGraphs(43, n);
  const JaccardVertexScorer hv(tg.g1, tg.g2);
  // Thread t scores u in [t * n / 8, t * n / 8 + n / 2) against v in the
  // window shifted by n / 4: neighbouring threads share half their rows,
  // and the top eighth of each side is never touched.
  const int span = n / 2;
  const auto window = [&](int t, int shift) {
    std::vector<VertexId> xs;
    for (int i = 0; i < span; ++i) {
      xs.push_back(
          static_cast<VertexId>((t * n / 8 + shift + i) % (7 * n / 8)));
    }
    return xs;
  };
  std::atomic<int> ready{0};
  std::vector<size_t> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<VertexId> us = window(t, 0);
      const std::vector<VertexId> vs = window(t, n / 4);
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      const auto check = [&](VertexId u, VertexId v, double got) {
        if (got != TokenJaccard(tg.g1.label(u), tg.g2.label(v))) ++wrong[t];
      };
      // Each thread starts with a different entry point.
      for (int pass = 0; pass < 3; ++pass) {
        switch ((t + pass) % 3) {
          case 0:
            for (const VertexId u : us) {
              for (const VertexId v : vs) check(u, v, hv.Score(u, v));
            }
            break;
          case 1: {
            std::vector<double> out(vs.size());
            for (const VertexId u : us) {
              hv.ScoreBatch(u, vs, out);
              for (size_t j = 0; j < vs.size(); ++j) check(u, vs[j], out[j]);
            }
            break;
          }
          default: {
            std::vector<double> out(us.size() * vs.size());
            hv.ScoreMatrix(us, vs, out);
            for (size_t i = 0; i < us.size(); ++i) {
              for (size_t j = 0; j < vs.size(); ++j) {
                check(us[i], vs[j], out[i * vs.size() + j]);
              }
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0u) << "thread " << t;
  std::set<VertexId> touched_u, touched_v;
  for (int t = 0; t < kThreads; ++t) {
    for (const VertexId u : window(t, 0)) touched_u.insert(u);
    for (const VertexId v : window(t, n / 4)) touched_v.insert(v);
  }
  ASSERT_LT(touched_u.size(), static_cast<size_t>(n));
  // One publication per touched vertex, however many threads raced for it.
  const size_t rows = touched_u.size() + touched_v.size();
  EXPECT_EQ(hv.RowsPublished(), rows);
  std::vector<double> out(touched_v.size());
  const std::vector<VertexId> vs(touched_v.begin(), touched_v.end());
  for (const VertexId u : touched_u) hv.ScoreBatch(u, vs, out);
  EXPECT_EQ(hv.RowsPublished(), rows);
}

TEST(JaccardVertexScorerTest, ConcurrentFillOfOneShardEqualsTokenJaccard) {
  // 3,000 distinct tokens that all hash into dictionary shard 0, so four
  // threads filling a fresh scorer's rows insert into one shard at once,
  // and its table grows while they do.
  const int kTokens = 3000;
  const int kThreads = 4;
  std::vector<std::string> tokens;
  for (int i = 0; static_cast<int>(tokens.size()) < kTokens; ++i) {
    std::string tok = std::string("w").append(std::to_string(i));
    if (i % 3 == 0) tok += "longerThanEightBytes";
    if (TokenRowStore::ShardOf(tok) == 0) tokens.push_back(std::move(tok));
  }
  // Vertex v's label draws 30 tokens from a window of 200 that starts at
  // 15 v, so neighbouring labels overlap and the windows span all 3,000.
  const int n = 200;
  Rng rng(59);
  GraphBuilder b[2];
  for (GraphBuilder& builder : b) {
    for (int v = 0; v < n; ++v) {
      std::string label;
      for (int i = 0; i < 30; ++i) {
        label += tokens[(15 * v + rng.Below(200)) % kTokens];
        label += rng.Below(4) == 0 ? " / " : " ";
      }
      builder.AddVertex(std::move(label));
    }
  }
  const TwoGraphs tg{std::move(b[0]).Build(), std::move(b[1]).Build()};
  const JaccardVertexScorer hv(tg.g1, tg.g2);
  std::atomic<int> ready{0};
  std::vector<size_t> wrong(kThreads, 0);
  std::vector<size_t> partial(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread scores every pair, each starting at its own offset.
      std::vector<VertexId> us(8);
      std::vector<VertexId> vs(n);
      for (int j = 0; j < n; ++j) {
        vs[j] = static_cast<VertexId>((j + t * n / kThreads + n / 8) % n);
      }
      std::vector<double> out(us.size() * vs.size());
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int first = 0; first < n; first += static_cast<int>(us.size())) {
        for (size_t i = 0; i < us.size(); ++i) {
          us[i] = static_cast<VertexId>((first + i + t * n / kThreads) % n);
        }
        hv.ScoreMatrix(us, vs, out);
        for (size_t i = 0; i < us.size(); ++i) {
          for (size_t j = 0; j < vs.size(); ++j) {
            const double want =
                TokenJaccard(tg.g1.label(us[i]), tg.g2.label(vs[j]));
            if (out[i * vs.size() + j] != want) ++wrong[t];
            if (want > 0.0) ++partial[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[t], 0u) << "thread " << t;
    EXPECT_GT(partial[t], 2000u) << "thread " << t;
  }
  EXPECT_EQ(hv.RowsPublished(), 2u * n);
}

TEST(EmbeddingVertexScorerTest, ScoreMatrixEqualsScoreBatchEqualsScore) {
  const int n = 37;
  const TwoGraphs tg = MakeWideGraphs(n);
  const HashedTextEmbedder emb;
  const EmbeddingVertexScorer hv(tg.g1, tg.g2, emb);
  Rng rng(7);
  // |us| covers no tile, a short tile and whole four-row tiles with every
  // remainder; |vs| every short last panel. Ids drawn from 37 repeat.
  for (const size_t nu : {0, 1, 3, 4, 5, 8, 11, 25}) {
    for (const size_t nv : {0, 1, 3, 4, 5, 13, 67}) {
      std::vector<VertexId> us(nu);
      std::vector<VertexId> vs(nv);
      for (VertexId& u : us) u = static_cast<VertexId>(rng.Below(n));
      for (VertexId& v : vs) v = static_cast<VertexId>(rng.Below(n));
      if (nv >= 3) vs[nv - 1] = vs[0];  // a repeated column in the last panel
      std::vector<double> matrix(nu * nv);
      std::vector<double> batch(nv);
      const size_t calls = hv.BatchCalls();
      hv.ScoreMatrix(us, vs, matrix);
      EXPECT_EQ(hv.BatchCalls(), calls + 1);
      for (size_t i = 0; i < nu; ++i) {
        hv.ScoreBatch(us[i], vs, batch);
        for (size_t j = 0; j < nv; ++j) {
          const double want = hv.Score(us[i], vs[j]);
          EXPECT_EQ(batch[j], want) << "u=" << us[i] << " v=" << vs[j];
          EXPECT_EQ(matrix[i * nv + j], want)
              << "|us|=" << nu << " |vs|=" << nv << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(VertexScorerTest, DefaultScoreMatrixMakesOneScoreBatchPerU) {
  struct SumScorer : VertexScorer {
    double Score(VertexId u, VertexId v) const override {
      return 0.25 * u + 0.125 * v;
    }
  };
  const SumScorer hv;
  const std::vector<VertexId> us = {3, 1, 4};
  const std::vector<VertexId> vs = {0, 1, 2, 5, 9};
  std::vector<double> out(us.size() * vs.size());
  hv.ScoreMatrix(us, vs, out);
  for (size_t i = 0; i < us.size(); ++i) {
    for (size_t j = 0; j < vs.size(); ++j) {
      EXPECT_EQ(out[i * vs.size() + j], hv.Score(us[i], vs[j]));
    }
  }
  EXPECT_EQ(hv.BatchCalls(), us.size());
}

// CachingVertexScorer is kept only because perfbench's apair-learned workload
// reads it.
TEST(CachingVertexScorerTest, CachesAgreesAndCountsHits) {
  const TwoGraphs tg = MakeGraphs();
  const JaccardVertexScorer inner(tg.g1, tg.g2);
  const CachingVertexScorer cached(&inner);
  EXPECT_DOUBLE_EQ(cached.Score(0, 0), inner.Score(0, 0));
  EXPECT_EQ(cached.CacheSize(), 1u);
  EXPECT_EQ(cached.CacheHits(), 0u);
  EXPECT_DOUBLE_EQ(cached.Score(0, 0), inner.Score(0, 0));
  EXPECT_EQ(cached.CacheHits(), 1u);
  EXPECT_EQ(cached.CacheSize(), 1u);
}

TEST(CachingVertexScorerTest, ScoreBatchSharesTheMemoWithScore) {
  const TwoGraphs tg = MakeGraphs();
  const JaccardVertexScorer inner(tg.g1, tg.g2);
  const CachingVertexScorer cached(&inner);
  // Seed one entry via the scalar path; the batch must serve it as a hit
  // and insert the two misses.
  cached.Score(0, 1);
  const std::vector<VertexId> vs = {0, 1, 2};
  std::vector<double> out(vs.size());
  cached.ScoreBatch(0, vs, out);
  EXPECT_EQ(cached.CacheSize(), 3u);
  EXPECT_EQ(cached.CacheHits(), 1u);
  EXPECT_EQ(cached.BatchCalls(), 1u);
  for (size_t i = 0; i < vs.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], inner.Score(0, vs[i]));
  }
  // A scalar probe after the batch hits the batch-inserted entry, and a
  // second batch is answered fully from the memo.
  EXPECT_DOUBLE_EQ(cached.Score(0, 2), inner.Score(0, 2));
  EXPECT_EQ(cached.CacheHits(), 2u);
  cached.ScoreBatch(0, vs, out);
  EXPECT_EQ(cached.CacheHits(), 5u);
  EXPECT_EQ(cached.CacheSize(), 3u);
  for (size_t i = 0; i < vs.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], inner.Score(0, vs[i]));
  }
}

TEST(CachingVertexScorerTest, ScoreBatchEvictsAtTheShardCap) {
  const TwoGraphs tg = MakeWideGraphs(32);
  const JaccardVertexScorer inner(tg.g1, tg.g2);
  const CachingVertexScorer cached(&inner, /*shard_cap=*/1);
  std::vector<VertexId> vs(32);
  for (VertexId v = 0; v < 32; ++v) vs[v] = v;
  std::vector<double> out(vs.size());
  for (VertexId u = 0; u < 32; ++u) cached.ScoreBatch(u, vs, out);
  EXPECT_GE(cached.CacheEvictions(), 1u);
  EXPECT_LE(cached.CacheSize(), 16u);  // <= shard_cap per shard
  EXPECT_DOUBLE_EQ(cached.Score(3, 4), inner.Score(3, 4));
}

TEST(CachingVertexScorerTest, ShardCapResetsAndCountsEvictions) {
  const TwoGraphs tg = MakeWideGraphs(32);
  const JaccardVertexScorer inner(tg.g1, tg.g2);
  const CachingVertexScorer cached(&inner, /*shard_cap=*/1);
  for (VertexId u = 0; u < 32; ++u) {
    for (VertexId v = 0; v < 32; ++v) cached.Score(u, v);
  }
  EXPECT_GE(cached.CacheEvictions(), 1u);
  // Every shard holds at most shard_cap entries after the resets.
  EXPECT_LE(cached.CacheSize(), 16u);
  // Values stay correct after evictions.
  EXPECT_DOUBLE_EQ(cached.Score(3, 4), inner.Score(3, 4));
}

TEST(TokenOverlapPathScorerTest, PaperExamplePaths) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const TokenOverlapPathScorer mrho(&vocab);
  const auto p1 = vocab.MapPath(
      0, std::vector<LabelId>{tg.g1.edge_labels().Find("country")});
  const auto p2 = vocab.MapPath(
      1, std::vector<LabelId>{tg.g2.edge_labels().Find("brandCountry")});
  // tokens {country} vs {brand, country}: jaccard 1/2.
  EXPECT_DOUBLE_EQ(mrho.Score(p1, p2), 0.5);
}

/// The string-set definition TokenOverlapPathScorer::Score had before its
/// tokens were interned: Jaccard of the word-token sets of the path names.
double StringSetOverlap(const JointVocab& vocab, std::span<const int> p1,
                        std::span<const int> p2) {
  auto tokens_of = [&](std::span<const int> path) {
    std::unordered_set<std::string> toks;
    for (const int t : path) {
      for (auto& w : WordTokens(vocab.Name(t))) toks.insert(std::move(w));
    }
    return toks;
  };
  const auto ta = tokens_of(p1);
  const auto tb = tokens_of(p2);
  if (ta.empty() && tb.empty()) return 1.0;
  size_t inter = 0;
  for (const auto& t : ta) inter += tb.count(t);
  const size_t uni = ta.size() + tb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

TEST(TokenOverlapPathScorerTest, InternedScoreEqualsStringSetDefinition) {
  // Edge-label names share tokens across labels ("brandCountry",
  // "country_of", "Country"), repeat them inside one name ("isIn isIn"),
  // and some have no token at all.
  static const char* const kParts[] = {
      "country", "Country", "brand", "isIn",  "made", "in", "factory",
      "Site",    "hasColor", "color", "x7Y",  "__",   "-",  "of"};
  Rng rng(23);
  GraphBuilder b1;
  GraphBuilder b2;
  const VertexId a = b1.AddVertex("a");
  const VertexId b = b2.AddVertex("b");
  for (int e = 0; e < 60; ++e) {
    std::string name = kParts[rng.Below(std::size(kParts))];
    const size_t parts = rng.Below(3);
    for (size_t p = 0; p < parts; ++p) {
      if (rng.Below(2) == 0) name += rng.Below(2) == 0 ? '_' : ' ';
      name += kParts[rng.Below(std::size(kParts))];
    }
    if (e % 2 == 0) {
      b1.AddEdge(a, a, name);
    } else {
      b2.AddEdge(b, b, name);
    }
  }
  b1.AddEdge(a, a, "isIn isIn");
  b2.AddEdge(b, b, "_ .");
  const Graph g1 = std::move(b1).Build();
  const Graph g2 = std::move(b2).Build();
  const JointVocab vocab(g1, g2);
  ASSERT_GT(vocab.size(), 30u);
  const TokenOverlapPathScorer mrho(&vocab);
  size_t partial = 0;
  size_t empty = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<int> p1(rng.Below(5));
    std::vector<int> p2(rng.Below(5));
    for (int& t : p1) t = static_cast<int>(rng.Below(vocab.size()));
    for (int& t : p2) t = static_cast<int>(rng.Below(vocab.size()));
    const double want = StringSetOverlap(vocab, p1, p2);
    EXPECT_EQ(mrho.Score(p1, p2), want);
    if (want > 0.0 && want < 1.0) ++partial;
    if (p1.empty() || p2.empty()) ++empty;
  }
  EXPECT_GT(partial, 500u);
  EXPECT_GT(empty, 500u);
  const int none = vocab.FindToken("_ .");
  ASSERT_GE(none, 0);
  const std::vector<int> no_tokens = {none, none};
  EXPECT_EQ(mrho.Score(no_tokens, std::vector<int>{}), 1.0);
  const std::vector<int> is_in = {vocab.FindToken("isIn isIn")};
  EXPECT_EQ(mrho.Score(no_tokens, is_in), 0.0);
}

TEST(CachingPathScorerTest, CachesAndAgrees) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const TokenOverlapPathScorer inner(&vocab);
  const CachingPathScorer cached(&inner);
  const auto p1 = vocab.MapPath(
      0, std::vector<LabelId>{tg.g1.edge_labels().Find("country")});
  const auto p2 = vocab.MapPath(
      1, std::vector<LabelId>{tg.g2.edge_labels().Find("hasColor")});
  const double a = cached.Score(p1, p2);
  const double b = cached.Score(p1, p2);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_DOUBLE_EQ(a, inner.Score(p1, p2));
  EXPECT_EQ(cached.CacheSize(), 1u);
}

TEST(CachingPathScorerTest, ShardCapResetsAndCountsEvictions) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const TokenOverlapPathScorer inner(&vocab);
  const CachingPathScorer cached(&inner, /*shard_cap=*/1);
  // Distinct path pairs scatter over the shards; with a cap of one entry
  // per shard, repeats within a shard force a reset.
  for (int a = 0; a < static_cast<int>(vocab.size()); ++a) {
    for (int b = 0; b < static_cast<int>(vocab.size()); ++b) {
      const std::vector<int> p1 = {a};
      const std::vector<int> p2 = {b};
      for (int len = 1; len <= 3; ++len) {
        const std::vector<int> p3(static_cast<size_t>(len), b);
        cached.Score(p1, p3);
      }
      cached.Score(p1, p2);
    }
  }
  EXPECT_GE(cached.CacheEvictions(), 1u);
  EXPECT_LE(cached.CacheSize(), 16u);  // <= shard_cap per shard
  const std::vector<int> q1 = {0};
  const std::vector<int> q2 = {1};
  EXPECT_DOUBLE_EQ(cached.Score(q1, q2), inner.Score(q1, q2));
}

/// CachingPathScorer with every pair hashed to one bucket: all distinct
/// pairs alias, so each probe exercises the key-verification path.
class CollidingPathScorer : public CachingPathScorer {
 public:
  using CachingPathScorer::CachingPathScorer;

 protected:
  uint64_t HashPair(std::span<const int>, std::span<const int>) const override {
    return 0x1234;
  }
};

TEST(CachingPathScorerTest, VerifiesKeysAndCountsHashRejects) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const TokenOverlapPathScorer inner(&vocab);
  const CollidingPathScorer cached(&inner);
  const std::vector<int> p1 = {0};
  const std::vector<int> p2 = {1};
  const std::vector<int> p3 = {2};
  EXPECT_DOUBLE_EQ(cached.Score(p1, p2), inner.Score(p1, p2));
  EXPECT_EQ(cached.HashRejects(), 0u);
  // Same 64-bit key, different pair: without verification this would
  // silently return the (p1, p2) score. It must detect the collision,
  // recompute, and replace the entry.
  EXPECT_DOUBLE_EQ(cached.Score(p1, p3), inner.Score(p1, p3));
  EXPECT_EQ(cached.HashRejects(), 1u);
  EXPECT_EQ(cached.CacheHits(), 0u);
  // The fresher pair now owns the bucket and verifies as a real hit.
  EXPECT_DOUBLE_EQ(cached.Score(p1, p3), inner.Score(p1, p3));
  EXPECT_EQ(cached.CacheHits(), 1u);
  EXPECT_EQ(cached.HashRejects(), 1u);
  EXPECT_EQ(cached.CacheSize(), 1u);  // aliased pairs replace, never pile up
}

TEST(CachingPathScorerTest, ScoreBatchSharesTheMemoWithScore) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const TokenOverlapPathScorer inner(&vocab);
  const CachingPathScorer cached(&inner);
  const std::vector<int> pa = {0};
  const std::vector<int> pb = {1};
  const std::vector<int> pc = {0, 1};
  cached.Score(pa, pb);  // seed one entry via the scalar path
  const std::vector<EmbeddedPath> p1s = {{pa, {}}, {pa, {}}};
  const std::vector<EmbeddedPath> p2s = {{pb, {}}, {pc, {}}};
  std::vector<double> out(2);
  cached.ScoreBatch(p1s, p2s, out);
  EXPECT_EQ(cached.CacheHits(), 1u);   // (pa, pb) served from the memo
  EXPECT_EQ(cached.CacheSize(), 2u);   // (pa, pc) inserted by the batch
  EXPECT_EQ(cached.BatchCalls(), 1u);
  EXPECT_DOUBLE_EQ(out[0], inner.Score(pa, pb));
  EXPECT_DOUBLE_EQ(out[1], inner.Score(pa, pc));
  // The batch-inserted entry serves the scalar path.
  EXPECT_DOUBLE_EQ(cached.Score(pa, pc), inner.Score(pa, pc));
  EXPECT_EQ(cached.CacheHits(), 2u);
}

TEST(MetricPathScorerTest, OutputsInUnitInterval) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  SgnsModel sgns;
  sgns.InitRandom(vocab.size_with_eos(), 8, 99);
  Mlp metric({32, 16, 1}, 7);
  const MetricPathScorer mrho(&sgns, &metric);
  const std::vector<int> p1 = {0};
  const std::vector<int> p2 = {1, 2};
  const double s = mrho.Score(p1, p2);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
}

TEST(MetricPathScorerTest, ScoreBatchBitIdenticalToScore) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  SgnsModel sgns;
  sgns.InitRandom(vocab.size_with_eos(), 8, 99);
  Mlp metric({32, 16, 1}, 7);
  const MetricPathScorer mrho(&sgns, &metric);

  // Enough pairs to cover the 4-wide PredictBatch main loop and its tail.
  Rng rng(17);
  std::vector<std::vector<int>> paths;
  for (int i = 0; i < 11; ++i) {
    std::vector<int> p(rng.Below(3) + 1);
    for (int& t : p) t = static_cast<int>(rng.Below(vocab.size_with_eos()));
    paths.push_back(std::move(p));
  }
  std::vector<EmbeddedPath> p1s, p2s;
  std::vector<Vec> embeddings;  // stable storage for the spans
  embeddings.reserve(2 * paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    const auto& a = paths[i];
    const auto& b = paths[(i + 3) % paths.size()];
    // Alternate between precomputed-embedding operands and token-only
    // ones; both must reproduce the scalar Score exactly.
    if (i % 2 == 0) {
      embeddings.push_back(mrho.EmbedPath(a));
      p1s.push_back(EmbeddedPath{a, embeddings.back()});
      p2s.push_back(EmbeddedPath{b, {}});
    } else {
      embeddings.push_back(mrho.EmbedPath(b));
      p1s.push_back(EmbeddedPath{a, {}});
      p2s.push_back(EmbeddedPath{b, embeddings.back()});
    }
  }
  std::vector<double> batch(paths.size());
  mrho.ScoreBatch(p1s, p2s, batch);
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(batch[i], mrho.Score(p1s[i].tokens, p2s[i].tokens)) << "i=" << i;
  }
  EXPECT_EQ(mrho.BatchCalls(), 1u);
}

TEST(PathScorerTest, DefaultScoreBatchLoopsOverScore) {
  const TwoGraphs tg = MakeGraphs();
  const JointVocab vocab(tg.g1, tg.g2);
  const TokenOverlapPathScorer mrho(&vocab);
  EXPECT_TRUE(mrho.EmbedPath(std::vector<int>{0}).empty());
  const std::vector<int> pa = {0};
  const std::vector<int> pb = {1};
  const std::vector<EmbeddedPath> p1s = {{pa, {}}};
  const std::vector<EmbeddedPath> p2s = {{pb, {}}};
  std::vector<double> out(1);
  mrho.ScoreBatch(p1s, p2s, out);
  EXPECT_DOUBLE_EQ(out[0], mrho.Score(pa, pb));
  EXPECT_EQ(mrho.BatchCalls(), 1u);
}

TEST(PraRankerTest, RanksByPraAndRespectsK) {
  // root with children a (leaf), b -> c.
  GraphBuilder b1;
  const VertexId root = b1.AddVertex("root");
  const VertexId a = b1.AddVertex("a");
  const VertexId v_b = b1.AddVertex("b");
  const VertexId c = b1.AddVertex("c");
  b1.AddEdge(root, a, "ea");
  b1.AddEdge(root, v_b, "eb");
  b1.AddEdge(v_b, c, "ec");
  const Graph g1 = std::move(b1).Build();
  GraphBuilder b2;
  b2.AddVertex("x");
  const Graph g2 = std::move(b2).Build();

  const PraRanker hr(g1, g2);
  const auto top2 = hr.TopK(0, root, 2);
  ASSERT_EQ(top2.size(), 2u);
  // Children have PRA 1/2; c has 1/2*1/1 = 1/2; tie-break by endpoint id
  // keeps a and b first.
  std::set<VertexId> ids = {top2[0].descendant, top2[1].descendant};
  EXPECT_EQ(ids, (std::set<VertexId>{a, v_b}));
  const auto top3 = hr.TopK(0, root, 3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[2].descendant, c);
  EXPECT_EQ(top3[2].path.labels.size(), 2u);
}

TEST(PraRankerTest, LeafHasNoProperties) {
  GraphBuilder b1;
  b1.AddVertex("leaf");
  const Graph g1 = std::move(b1).Build();
  GraphBuilder b2;
  b2.AddVertex("x");
  const Graph g2 = std::move(b2).Build();
  const PraRanker hr(g1, g2);
  EXPECT_TRUE(hr.TopK(0, 0, 5).empty());
}

TEST(LstmPraRankerTest, StopsAtEosAndRanksByPra) {
  // g: v -brandName-> n -follows-> deep. Train the LM so that after
  // "brandName" it prefers <eos>, so the walk stops at n.
  GraphBuilder b;
  const VertexId v = b.AddVertex("item");
  const VertexId n = b.AddVertex("Acme");
  const VertexId deep = b.AddVertex("deep");
  b.AddEdge(v, n, "brandName");
  b.AddEdge(n, deep, "follows");
  const Graph g = std::move(b).Build();
  GraphBuilder b2;
  b2.AddVertex("x");
  const Graph g2 = std::move(b2).Build();

  const JointVocab vocab(g, g2);
  const int brand_tok = vocab.TokenOf(0, g.edge_labels().Find("brandName"));
  // Training corpus: brandName <eos> (the paper's Example 6 behaviour).
  std::vector<std::vector<int>> corpus(
      50, std::vector<int>{brand_tok, vocab.eos()});
  LstmLm lm;
  LstmConfig cfg;
  cfg.epochs = 20;
  lm.Train(corpus, vocab.size_with_eos(), cfg);

  const LstmPraRanker hr(g, g2, &vocab, &lm);
  const auto props = hr.TopK(0, v, 5);
  // The LM stopped at n (1-edge path); "deep" still competes as a
  // descendant through its max-PRA path (h_r ranks descendants).
  const auto it = std::find_if(props.begin(), props.end(),
                               [&](const RankedProperty& p) {
                                 return p.descendant == n;
                               });
  ASSERT_NE(it, props.end());
  EXPECT_EQ(it->path.labels.size(), 1u);
  // With k=1 only the best-PRA descendant survives: n (pra 1) beats deep.
  const auto top1 = hr.TopK(0, v, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].descendant, n);
}

TEST(LstmPraRankerTest, ContinuesWhenModelPrefersContinuation) {
  // g: v -factorySite-> f -isIn-> country. Train LM on (factorySite, isIn,
  // <eos>) so the walk extends one hop.
  GraphBuilder b;
  const VertexId v = b.AddVertex("brand");
  const VertexId f = b.AddVertex("Can Duoc");
  const VertexId country = b.AddVertex("VN");
  b.AddEdge(v, f, "factorySite");
  b.AddEdge(f, country, "isIn");
  const Graph g = std::move(b).Build();
  GraphBuilder b2;
  b2.AddVertex("x");
  const Graph g2 = std::move(b2).Build();

  const JointVocab vocab(g, g2);
  const int fs = vocab.TokenOf(0, g.edge_labels().Find("factorySite"));
  const int isin = vocab.TokenOf(0, g.edge_labels().Find("isIn"));
  std::vector<std::vector<int>> corpus(
      50, std::vector<int>{fs, isin, vocab.eos()});
  LstmLm lm;
  LstmConfig cfg;
  cfg.epochs = 20;
  lm.Train(corpus, vocab.size_with_eos(), cfg);

  const LstmPraRanker hr(g, g2, &vocab, &lm);
  const auto props = hr.TopK(0, v, 5);
  // The walk continued through f to country; f itself is still ranked as
  // a descendant via its own (1-edge) path.
  const auto it = std::find_if(props.begin(), props.end(),
                               [&](const RankedProperty& p) {
                                 return p.descendant == country;
                               });
  ASSERT_NE(it, props.end());
  EXPECT_EQ(it->path.labels.size(), 2u);
}

TEST(LstmPraRankerTest, TopKBatchMatchesTopK) {
  // Synthetic graph with mixed fan-out, shared labels, cycles and leaves:
  // walks retire at different rounds (eos, dead ends, cycle blocks,
  // max_len), exercising the lockstep kernel's retirement paths.
  GraphBuilder b;
  constexpr size_t kN = 40;
  std::vector<VertexId> vs;
  vs.reserve(kN);
  for (size_t i = 0; i < kN; ++i) {
    vs.push_back(b.AddVertex(std::string("v").append(std::to_string(i))));
  }
  const char* labels[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  Rng rng(321);
  for (size_t i = 0; i < kN; ++i) {
    const size_t deg = rng.Below(4);  // 0..3 out-edges (0 = leaf)
    for (size_t e = 0; e < deg; ++e) {
      b.AddEdge(vs[i], vs[rng.Below(kN)], labels[rng.Below(5)]);
    }
  }
  const Graph g = std::move(b).Build();
  GraphBuilder b2;
  b2.AddVertex("x");
  const Graph g2 = std::move(b2).Build();

  const JointVocab vocab(g, g2);
  // Corpus with varied lengths so the LM's eos preference differs by
  // prefix (some walks stop early, others run to max_len).
  std::vector<std::vector<int>> corpus;
  for (int i = 0; i < 30; ++i) {
    for (size_t l0 = 0; l0 < 5; ++l0) {
      std::vector<int> seq;
      const size_t len = 1 + (i + l0) % 3;
      for (size_t s = 0; s < len; ++s) {
        seq.push_back(vocab.TokenOf(0, g.edge_labels().Find(
                                           labels[(l0 + s) % 5])));
      }
      seq.push_back(vocab.eos());
      corpus.push_back(std::move(seq));
    }
  }
  LstmLm lm;
  LstmConfig cfg;
  cfg.epochs = 4;
  lm.Train(corpus, vocab.size_with_eos(), cfg);

  const LstmPraRanker hr(g, g2, &vocab, &lm);
  for (const int k : {1, 3, 1 << 20}) {
    const auto batched = hr.TopKBatch(0, vs, k);
    ASSERT_EQ(batched.size(), vs.size());
    for (size_t i = 0; i < vs.size(); ++i) {
      const auto scalar = hr.TopK(0, vs[i], k);
      ASSERT_EQ(batched[i].size(), scalar.size())
          << "k=" << k << " v=" << vs[i];
      for (size_t j = 0; j < scalar.size(); ++j) {
        EXPECT_EQ(batched[i][j].descendant, scalar[j].descendant)
            << "k=" << k << " v=" << vs[i] << " j=" << j;
        EXPECT_EQ(batched[i][j].path.endpoint, scalar[j].path.endpoint);
        EXPECT_EQ(batched[i][j].path.labels, scalar[j].path.labels);
        EXPECT_EQ(batched[i][j].pra, scalar[j].pra);  // bit-exact
      }
    }
  }
  EXPECT_GT(hr.LstmBatchCalls(), 0u);
  EXPECT_GE(hr.LstmBatchLanes(), hr.LstmBatchCalls());
  EXPECT_EQ(hr.WalkRounds(), hr.LstmBatchCalls());
  EXPECT_EQ(hr.BatchCalls(), 3u);
}

TEST(SimulationParamsTest, PaperDefaults) {
  const SimulationParams p;
  EXPECT_DOUBLE_EQ(p.sigma, 0.8);
  EXPECT_DOUBLE_EQ(p.delta, 2.1);
  EXPECT_EQ(p.k, 20);
}

}  // namespace
}  // namespace her
