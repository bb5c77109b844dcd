#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace her {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Status Passthrough(Status s) {
  HER_RETURN_NOT_OK(s);
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacro) {
  EXPECT_TRUE(Passthrough(Status::OK()).ok());
  EXPECT_FALSE(Passthrough(Status::Internal("x")).ok());
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(17), 17u);
}

TEST(RngTest, NormalHasReasonableMoments) {
  Rng rng(5);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(6);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  rng.Shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 7u);
}

TEST(HashTest, StableAcrossCalls) {
  EXPECT_EQ(HashString("hello"), HashString("hello"));
  EXPECT_NE(HashString("hello"), HashString("hellp"));
}

TEST(HashTest, PairHashDistinguishesOrder) {
  PairHash h;
  EXPECT_NE(h(std::make_pair(1u, 2u)), h(std::make_pair(2u, 1u)));
}

TEST(StringTest, ToLower) { EXPECT_EQ(ToLower("AbC9"), "abc9"); }

TEST(StringTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
}

TEST(StringTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringTest, WordTokensSplitSnakeCase) {
  const auto toks = WordTokens("made_in");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0], "made");
  EXPECT_EQ(toks[1], "in");
}

TEST(StringTest, WordTokensSplitCamelCase) {
  const auto toks = WordTokens("factorySite");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0], "factory");
  EXPECT_EQ(toks[1], "site");
}

TEST(StringTest, WordTokensKeepAlnumRuns) {
  const auto toks = WordTokens("Dame 7");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0], "dame");
  EXPECT_EQ(toks[1], "7");
}

TEST(StringTest, CharNgramsPadWithHash) {
  const auto grams = CharNgrams("ab", 3);
  // "#ab#" -> "#ab", "ab#"
  ASSERT_EQ(grams.size(), 2u);
  EXPECT_EQ(grams[0], "#ab");
  EXPECT_EQ(grams[1], "ab#");
}

TEST(StringTest, EditDistanceBasics) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
}

TEST(StringTest, NormalizedEditSimilarity) {
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("abc", "abc"), 1.0);
  EXPECT_NEAR(NormalizedEditSimilarity("abc", "abd"), 2.0 / 3.0, 1e-12);
}

TEST(StringTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(TokenJaccard("country", "brandCountry"), 0.5);
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "a b"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("x", "y"), 0.0);
}

// The token-boundary rule written directly against <cctype> (the C
// locale), independent of ForEachWordToken.
std::vector<std::string> CctypeWordTokens(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  unsigned char prev = 0;
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      if (std::isupper(c) && (std::islower(prev) || std::isdigit(prev)) &&
          !cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
      cur += static_cast<char>(std::tolower(c));
    } else if (!cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
    prev = c;
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// Jaccard by the set definition over WordTokens.
double SetJaccard(const std::string& a, const std::string& b) {
  const auto wa = WordTokens(a);
  const auto wb = WordTokens(b);
  const std::set<std::string> sa(wa.begin(), wa.end());
  const std::set<std::string> sb(wb.begin(), wb.end());
  if (sa.empty() && sb.empty()) return 1.0;
  size_t inter = 0;
  for (const auto& t : sa) inter += sb.count(t);
  const size_t uni = sa.size() + sb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

// Up to ~200 bytes of words (case variants, shared 8-byte prefixes, camel
// and digit boundaries) and single characters from an alphabet of letters,
// digits, '_', space, punctuation and bytes >= 0x80.
std::string RandomLabel(Rng& rng) {
  static const char* const kWords[] = {
      "item",        "Item",          "ITEM",
      "country",     "brandCountry",  "gen7X",
      "7",           "a",             "made_in",
      "factorySite", "abcdefgh",      "abcdefghi",
      "ABCDEFGHIJ",  "internationalization", "INTERNATIONALIZE",
      "x"};
  static const std::string kChars =
      "ABCXYZabcxyz0189_ .,-/()!\x80\xc3\xa9\xff";
  const size_t target = rng.Below(201);
  std::string s;
  while (s.size() < target) {
    if (rng.Below(2) == 0) {
      s += kWords[rng.Below(std::size(kWords))];
    } else {
      s += kChars[rng.Below(kChars.size())];
    }
  }
  return s;
}

TEST(StringTest, WordTokensMatchCctypeRule) {
  EXPECT_EQ(WordTokens("gen7X factorySite made_in"),
            (std::vector<std::string>{"gen7", "x", "factory", "site", "made",
                                      "in"}));
  Rng rng(18);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string s = RandomLabel(rng);
    EXPECT_EQ(WordTokens(s), CctypeWordTokens(s)) << s;
  }
}

TEST(StringTest, TokenJaccardMatchesSetDefinition) {
  const std::pair<std::string, std::string> fixed[] = {
      {"", ""},
      {"", "a"},
      {"a a A", "a"},
      {"a a A", "A b"},
      {"gen7X", "gen7 x"},
      {"gen7X", "gen 7x"},
      {"factorySite", "factory site"},
      {"factorySite", "FactorySITE"},
      {"_-. ,", "\xc3\xa9 !"},
      {"_-. ,", "a"},
      {"abcdefghi", "ABCDEFGHI abcdefgh"},
  };
  for (const auto& [a, b] : fixed) {
    EXPECT_EQ(TokenJaccard(a, b), SetJaccard(a, b)) << a << " | " << b;
    EXPECT_EQ(TokenJaccard(b, a), SetJaccard(a, b)) << a << " | " << b;
  }
  EXPECT_EQ(TokenJaccard("", ""), 1.0);
  EXPECT_EQ(TokenJaccard("_-. ,", "\xc3\xa9 !"), 1.0);
  EXPECT_EQ(TokenJaccard("a a A", "a"), 1.0);

  Rng rng(29);
  size_t spilled = 0;
  size_t partial = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string a = RandomLabel(rng);
    const std::string b = RandomLabel(rng);
    const double want = SetJaccard(a, b);
    EXPECT_EQ(TokenJaccard(a, b), want) << a << " | " << b;
    if (WordTokenSet(a).size() > WordTokenSet::kInline) ++spilled;
    if (want > 0.0 && want < 1.0) ++partial;
  }
  // The random inputs reach the heap spill and non-trivial overlaps.
  EXPECT_GT(spilled, 100u);
  EXPECT_GT(partial, 1000u);
}

TEST(StringTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" 42 ", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(ParallelForTest, CoversRangeOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 8, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SingleThreadInline) {
  int sum = 0;
  ParallelFor(10, 1, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

}  // namespace
}  // namespace her
