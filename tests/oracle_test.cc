// Differential tests against the definition-level oracle (tests/oracle.h).
// Every matching path must report a subset of the maximum match relation
// on every seed: SPair, VPair and APair; BSP at {1, 2, 4} workers x {hash,
// edge-cut} partitions, with and without tuple co-location; and APair in
// ANN mode. Greedy first-fit lineage matching is not maximal, so a path
// may miss oracle pairs: misses are counted per path and each run that
// misses prints a one-line replay, but they do not fail the test.
//
// The serial runs also check ParaMatch's termination argument: a verdict
// only moves from true to false, and every re-evaluation of a pair is
// caused by a new flip, so no pair is evaluated more than 1 + (the run's
// true->false flips) times.
//
// HER_STRESS_SEED shifts the sweep to a fresh seed window
// (tools/run_stress.sh runs several windows under TSan).

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>

#include "ann/ivf_index.h"
#include "core/drivers.h"
#include "core/match_engine.h"
#include "ml/text_embedder.h"
#include "parallel/bsp_engine.h"
#include "tests/oracle.h"
#include "tests/test_util.h"

namespace her {
namespace {

using oracle::MatchOracle;
using testutil::ContextHarness;
using testutil::ItemRoots;
using testutil::RandomEntityGraphs;

constexpr SimulationParams kParams[] = {{.sigma = 0.99, .delta = 0.9, .k = 4},
                                        {.sigma = 0.9, .delta = 0.5, .k = 4},
                                        {.sigma = 0.8, .delta = 0.7, .k = 3}};
constexpr uint64_t kSeeds = 150;  // per root count; x {6, 10} roots x kParams

/// h_v that counts its per-pair Score calls (EvalOnce makes exactly one
/// per evaluation of a pair) and defers everything to `inner`. It can also
/// cancel a token while one pair is scored, which stops a run inside that
/// pair's evaluation. Thread-safe.
class CountingVertexScorer : public VertexScorer {
 public:
  explicit CountingVertexScorer(const VertexScorer& inner) : inner_(inner) {}

  double Score(VertexId u, VertexId v) const override {
    std::lock_guard<std::mutex> lock(mu_);
    ++evaluations_[MatchPair{u, v}];
    if (cancel_ != nullptr && cancel_at_ == MatchPair{u, v}) cancel_->Cancel();
    return inner_.Score(u, v);
  }
  void ScoreBatch(VertexId u, std::span<const VertexId> vs,
                  std::span<double> out) const override {
    inner_.ScoreBatch(u, vs, out);
  }
  void ScoreMatrix(std::span<const VertexId> us, std::span<const VertexId> vs,
                   std::span<double> out) const override {
    inner_.ScoreMatrix(us, vs, out);
  }

  /// Evaluations per pair since the last call; clears the record.
  std::map<MatchPair, size_t> TakeEvaluations() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(evaluations_, {});
  }

  /// Cancels `token` whenever `p` is scored; a null token stops that.
  void CancelAt(const MatchPair& p, CancelToken* token) {
    std::lock_guard<std::mutex> lock(mu_);
    cancel_at_ = p;
    cancel_ = token;
  }

 private:
  const VertexScorer& inner_;
  mutable std::mutex mu_;
  mutable std::map<MatchPair, size_t> evaluations_;
  MatchPair cancel_at_{};
  CancelToken* cancel_ = nullptr;
};

/// A serial engine that records its true->false flips: the always-true
/// locality filter makes it keep them for DrainNewlyInvalidated, and
/// changes nothing else.
std::unique_ptr<MatchEngine> FlipRecordingEngine(const MatchContext& ctx) {
  auto engine = std::make_unique<MatchEngine>(ctx);
  engine->SetLocalityFilter([](VertexId, VertexId) { return true; });
  return engine;
}

/// Asserts evaluations(P) <= 1 + flips for every pair the run evaluated.
void ExpectEvaluationBound(const std::map<MatchPair, size_t>& evaluations,
                           size_t flips, const std::string& replay) {
  for (const auto& [p, n] : evaluations) {
    EXPECT_LE(n, 1 + flips) << replay << " pair=(" << p.first << ", "
                            << p.second << ")";
  }
}

uint64_t StressOffset() {
  const char* env = std::getenv("HER_STRESS_SEED");
  return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

/// Maximality misses of one path, summed over the sweep.
struct Tally {
  size_t runs = 0;
  size_t runs_missing = 0;
  size_t missed = 0;
  size_t oracle_pairs = 0;
};

/// One instance of the sweep and the checks every path's Pi goes through.
struct Instance {
  uint64_t seed;
  int roots;
  SimulationParams params;
  std::map<std::string, Tally>* tally;

  std::string Replay(const std::string& path) const {
    std::ostringstream out;
    out << "replay: seed=" << seed << " roots=" << roots
        << " sigma=" << params.sigma << " delta=" << params.delta
        << " k=" << params.k << " " << path;
    return out.str();
  }

  /// `pi` must be a subset of `oracle`; what it misses is counted and, if
  /// anything, printed as one replay line.
  void Check(const std::string& path, const std::vector<MatchPair>& pi,
             const std::vector<MatchPair>& oracle) const {
    std::vector<MatchPair> extra;
    std::set_difference(pi.begin(), pi.end(), oracle.begin(), oracle.end(),
                        std::back_inserter(extra));
    EXPECT_TRUE(extra.empty())
        << Replay(path) << " reports (" << extra[0].first << ", "
        << extra[0].second << ") outside the maximum relation";
    const size_t missed = oracle.size() - (pi.size() - extra.size());
    Tally& t = (*tally)[path];
    ++t.runs;
    t.missed += missed;
    t.oracle_pairs += oracle.size();
    if (missed > 0) {
      ++t.runs_missing;
      std::cout << Replay(path) << " misses=" << missed << "\n";
    }
  }
};

std::vector<MatchPair> Sorted(std::vector<MatchPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// SPair, VPair and APair on fresh flip-recording engines, each checked
/// against the oracle and against the evaluation bound.
void CheckSerialPaths(const Instance& in, const MatchContext& ctx,
                      CountingVertexScorer& counting,
                      std::span<const VertexId> tuples,
                      const std::vector<MatchPair>& expected) {
  const auto candidates = GenerateCandidates(ctx, tuples, nullptr);
  const auto run = [&](const std::string& path, const auto& body) {
    counting.TakeEvaluations();
    const auto engine = FlipRecordingEngine(ctx);
    const std::vector<MatchPair> pi = Sorted(body(*engine));
    const std::string where = "path=" + path + " workers=1 mode=exact";
    ExpectEvaluationBound(counting.TakeEvaluations(),
                          engine->DrainNewlyInvalidated().size(),
                          in.Replay(where));
    in.Check(where, pi, expected);
  };
  run("spair", [&](MatchEngine& engine) {
    std::vector<MatchPair> pi;  // reverse order: not the drivers' order
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      if (engine.Match(it->first, it->second)) pi.push_back(*it);
    }
    return pi;
  });
  run("vpair", [&](MatchEngine& engine) {
    std::vector<MatchPair> pi;
    for (const VertexId u : tuples) {
      for (const VertexId v : VParaMatch(engine, u)) pi.emplace_back(u, v);
    }
    return pi;
  });
  run("apair", [&](MatchEngine& engine) {
    return AllParaMatch(engine, tuples);
  });
}

void CheckBspPaths(const Instance& in, const MatchContext& ctx,
                   std::span<const VertexId> tuples,
                   const std::vector<MatchPair>& expected) {
  for (const uint32_t workers : {1u, 2u, 4u}) {
    for (const PartitionStrategy strategy :
         {PartitionStrategy::kHash, PartitionStrategy::kEdgeCut}) {
      for (const bool colocate : {false, true}) {
        ParallelConfig config{.num_workers = workers, .strategy = strategy};
        if (colocate) {
          config.pair_owner =
              testutil::TupleColocation(*ctx.gd, tuples, workers);
        }
        const ParallelResult r = BspAllMatch(ctx, config).Run(tuples);
        std::ostringstream where;
        where << "path=bsp workers=" << workers << " placement="
              << (strategy == PartitionStrategy::kHash ? "hash" : "edgecut")
              << " colocate=" << colocate << " mode=exact";
        ASSERT_TRUE(r.status.ok()) << in.Replay(where.str());
        in.Check(where.str(), r.matches, expected);
      }
    }
  }
}

/// APair in ANN mode over the embedding h_v the IVF index is built on,
/// against the oracle of that h_v. Two probed lists and no recall floor,
/// so the probe alone decides the candidate pool.
void CheckAnnPath(const Instance& in, const ContextHarness& h,
                  std::span<const VertexId> tuples) {
  const HashedTextEmbedder embedder;
  const EmbeddingVertexScorer hv(h.g1, h.g2, embedder);
  const IvfIndex index = IvfIndex::Build(hv, {.seed = in.seed});
  MatchContext ctx = h.ctx;
  ctx.hv = &hv;
  const auto expected = MatchOracle(ctx).Pi(tuples);
  ctx.ann = &index;
  ctx.candidate_gen = {.mode = CandidateMode::kAnn, .nprobe = 2,
                       .min_recall = 0.0};
  MatchEngine engine(ctx);
  in.Check("path=apair workers=1 mode=ann", AllParaMatch(engine, tuples),
           expected);
}

TEST(OracleTest, EveryPathIsASubsetOfTheMaximumRelation) {
  const uint64_t first = 1 + StressOffset() * kSeeds;
  std::map<std::string, Tally> tally;
  for (uint64_t seed = first; seed < first + kSeeds; ++seed) {
    for (const int roots : {6, 10}) {
      for (const SimulationParams& params : kParams) {
        const Instance in{seed, roots, params, &tally};
        auto [g1, g2] = RandomEntityGraphs(seed, roots);
        ContextHarness h(std::move(g1), std::move(g2), params);
        const auto tuples = ItemRoots(h.g1);
        const auto expected = MatchOracle(h.ctx).Pi(tuples);
        CountingVertexScorer counting(*h.hv);
        MatchContext ctx = h.ctx;
        ctx.hv = &counting;
        CheckSerialPaths(in, ctx, counting, tuples, expected);
        CheckBspPaths(in, h.ctx, tuples, expected);
        CheckAnnPath(in, h, tuples);
      }
    }
  }
  for (const auto& [path, t] : tally) {
    std::cout << "oracle sweep: " << path << " runs=" << t.runs
              << " runs_missing=" << t.runs_missing << " missed=" << t.missed
              << " of " << t.oracle_pairs << " oracle pairs\n";
  }
}

/// Two cases where runs of the greedy engine land on different fixpoints;
/// the oracle says which pairs the maximum relation holds.
TEST(OracleTest, PinnedFixpointsAgainstTheMaximumRelation) {
  using Pairs = std::vector<MatchPair>;
  {
    // parallel_driver_test's RandomGraphPair(26, 6): serial APair (and BSP
    // with tuple co-location) keeps (0, 0), which BSP under hash placement
    // loses at 3 and 4 workers. The oracle holds (0, 0), so the serial
    // fixpoint is the larger one; it also holds (9, 7), which both miss.
    auto [g1, g2] = testutil::RandomGraphPair(26, 6);
    ContextHarness h(std::move(g1), std::move(g2), kParams[0]);
    const auto tuples = ItemRoots(h.g1);
    MatchEngine serial(h.ctx);
    EXPECT_EQ(MatchOracle(h.ctx).Pi(tuples),
              (Pairs{{0, 0}, {9, 7}, {14, 12}, {23, 20}}));
    EXPECT_EQ(AllParaMatch(serial, tuples),
              (Pairs{{0, 0}, {14, 12}, {23, 20}}));
    for (const uint32_t workers : {3u, 4u}) {
      EXPECT_EQ(BspAllMatch(h.ctx, {.num_workers = workers}).Run(tuples).matches,
                (Pairs{{14, 12}, {23, 20}}))
          << "workers=" << workers;
    }
  }
  {
    // KillResumeTest.LostFragmentSectionResumeEqualsUninterrupted's seed
    // 20 at 3 hash-placed workers: a cold fragment beside restored peers
    // found (8, 8), which the uninterrupted run does not. The oracle holds
    // (8, 8) (serial APair finds it too), so the cold-started fixpoint was
    // the larger one; neither holds (0, 0) or (3, 3).
    auto [g1, g2] = RandomEntityGraphs(20, 10);
    ContextHarness h(std::move(g1), std::move(g2), kParams[0]);
    const auto tuples = ItemRoots(h.g1);
    MatchEngine serial(h.ctx);
    EXPECT_EQ(MatchOracle(h.ctx).Pi(tuples),
              (Pairs{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6},
                     {8, 8}, {9, 9}}));
    EXPECT_EQ(BspAllMatch(h.ctx, {.num_workers = 3}).Run(tuples).matches,
              (Pairs{{1, 1}, {2, 2}, {4, 4}, {5, 5}, {6, 6}, {9, 9}}));
    EXPECT_EQ(AllParaMatch(serial, tuples),
              (Pairs{{1, 1}, {2, 2}, {4, 4}, {5, 5}, {6, 6}, {8, 8}, {9, 9}}));
  }
}

/// G_D: u -p-> a -q-> b. G: v -p-> a_j -q-> x_j for j = 1..6, where x_6
/// is "b" and the other x_j are "c". Only (a, a_6) matches, and the six
/// (a, a_j) tie on h_rho, so they reach u's list in order a_1..a_6. Paths
/// are one hop long, so u's single property is a and v has six.
struct BorderFlipInstance {
  BorderFlipInstance() : h(BuildGd(), BuildG(), {.sigma = 0.9, .delta = 0.5,
                                                 .k = 6}) {
    h.hr = std::make_unique<PraRanker>(h.g1, h.g2, /*max_len=*/1);
    h.ctx.hr = h.hr.get();
  }

  static Graph BuildGd() {
    GraphBuilder b;
    const VertexId u = b.AddVertex("item");
    const VertexId a = b.AddVertex("a");
    b.AddEdge(u, a, "p");
    b.AddEdge(a, b.AddVertex("b"), "q");
    return std::move(b).Build();
  }
  static Graph BuildG() {
    GraphBuilder b;
    const VertexId v = b.AddVertex("item");
    for (int j = 1; j <= 6; ++j) {
      const VertexId a = b.AddVertex("a");
      b.AddEdge(v, a, "p");
      b.AddEdge(a, b.AddVertex(j == 6 ? "b" : "c"), "q");
    }
    return std::move(b).Build();
  }

  ContextHarness h;
  static constexpr MatchPair kRoot{0, 0};
};

/// The root's fragment owns only the root; every (a, a_j) is a border pair
/// owned by the other fragment, which disproves a_1..a_5 one request at a
/// time and proves a_6. The root is re-evaluated once per flip, never
/// stored false by a cap on re-evaluations, and BSP, serial APair and the
/// oracle agree that it matches.
TEST(RefinementTest, BorderFlipsReachTheOraclesVerdict) {
  BorderFlipInstance in;
  CountingVertexScorer counting(*in.h.hv);
  MatchContext ctx = in.h.ctx;
  ctx.hv = &counting;
  const VertexId tuple[] = {0};
  const std::vector<MatchPair> expected{BorderFlipInstance::kRoot};
  EXPECT_EQ(MatchOracle(in.h.ctx).Pi(tuple), expected);

  ParallelConfig config{.num_workers = 2};
  config.pair_owner = [](const MatchPair& p) { return p.first == 0 ? 0u : 1u; };
  counting.TakeEvaluations();
  const ParallelResult bsp = BspAllMatch(ctx, config).Run(tuple);
  ASSERT_TRUE(bsp.status.ok());
  EXPECT_EQ(bsp.matches, expected);
  // Evaluated once, then once per disproved border candidate.
  EXPECT_EQ(counting.TakeEvaluations()[BorderFlipInstance::kRoot], 1u + 5u);
  EXPECT_EQ(bsp.stats.border_assumptions, 6u);

  const auto engine = FlipRecordingEngine(ctx);
  EXPECT_EQ(AllParaMatch(*engine, tuple), expected);
  ExpectEvaluationBound(counting.TakeEvaluations(),
                        engine->DrainNewlyInvalidated().size(),
                        "border-flip serial");
}

/// A read cut short inside a pair's evaluation leaves that pair open, so
/// the next read decides it afresh; however often that happens, an
/// unbounded read reaches the oracle's verdict. (With k = 1, a cap of
/// k^2 + 4 evaluations per pair would store it false on the sixth read.)
TEST(RefinementTest, EvaluationsCutByADeadlineLeaveThePairOpen) {
  auto gd = [] {
    GraphBuilder b;
    const VertexId u = b.AddVertex("item");
    b.AddEdge(u, b.AddVertex("a"), "p");
    return std::move(b).Build();
  };
  ContextHarness h(gd(), gd(), {.sigma = 0.9, .delta = 0.5, .k = 1});
  ASSERT_TRUE(MatchOracle(h.ctx).Contains({0, 0}));
  CountingVertexScorer counting(*h.hv);
  MatchContext ctx = h.ctx;
  ctx.hv = &counting;
  MatchEngine engine(ctx);
  for (int read = 0; read < 8; ++read) {
    CancelToken token;
    counting.CancelAt({0, 0}, &token);
    engine.SetRunOptions({.cancel = &token});
    EXPECT_FALSE(engine.Match(0, 0)) << "read " << read;
    EXPECT_TRUE(engine.Stopped()) << "read " << read;
    EXPECT_EQ(engine.Lookup(0, 0), nullptr) << "read " << read;
  }
  counting.CancelAt({}, nullptr);
  engine.SetRunOptions({});
  EXPECT_TRUE(engine.Match(0, 0));
  const MatchPair root{0, 0};
  EXPECT_EQ(counting.TakeEvaluations()[root], 9u);
}

}  // namespace
}  // namespace her
