// Fault-tolerance tests of the parallel engine (see DESIGN.md, "Fault
// tolerance & degradation"): the injected-fault matrix must recover to a
// Pi bit-identical to the fault-free run, and deadline/cancellation must
// degrade gracefully — partial but sound Pi, accounted unresolved pairs,
// and convergence on re-run.
//
// The matrix seeds rotate in CI: HER_STRESS_SEED offsets every graph seed
// so nightly runs cover fresh deterministic schedules (tools/run_stress.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "core/drivers.h"
#include "parallel/bsp_engine.h"
#include "parallel/fault_injection.h"
#include "tests/test_util.h"

namespace her {
namespace {

using testutil::ContextHarness;
using testutil::ItemRoots;
using testutil::RandomEntityGraphs;

SimulationParams TestParams() { return {.sigma = 0.99, .delta = 0.9, .k = 4}; }

/// CI rotates the stress seeds via HER_STRESS_SEED (see tools/run_stress.sh);
/// locally the offset is 0 and runs are fully reproducible.
uint64_t SeedOffset() {
  const char* env = std::getenv("HER_STRESS_SEED");
  return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

std::vector<MatchPair> FaultFreePi(const ContextHarness& h,
                                   const std::vector<VertexId>& roots) {
  MatchEngine seq(h.ctx);
  return AllParaMatch(seq, roots);
}

/// Fault-free baseline of the *same* parallel configuration. The injected
/// runs must be bit-identical to this, for any seed — serial equivalence
/// (Theorem 3) is parallel_test's concern, on its own seed set.
ParallelResult FaultFreeParallelRun(const ContextHarness& h,
                                    const std::vector<VertexId>& roots,
                                    uint32_t workers) {
  BspAllMatch clean(h.ctx, {.num_workers = workers});
  return clean.Run(roots);
}

enum class FaultKind { kCrash, kDuplicate };

const char* Name(FaultKind k) {
  return k == FaultKind::kCrash ? "crash" : "duplicate";
}

FaultPlan PlanFor(FaultKind kind, uint64_t seed, uint32_t workers) {
  FaultPlan plan;
  plan.seed = seed;
  if (kind == FaultKind::kCrash) {
    plan.crash = CrashFault{.worker = static_cast<uint32_t>(seed % workers),
                            .superstep = 1};
  } else {
    plan.dup_prob = 0.5;
  }
  return plan;
}

/// The acceptance matrix: >= 6 seeds x {crash, duplicate} x {2, 4, 8}
/// workers, every cell recovering to the fault-free Pi bit for bit.
class FaultMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, FaultKind, uint32_t>> {};

TEST_P(FaultMatrixTest, RecoversToFaultFreePi) {
  const auto [base_seed, kind, workers] = GetParam();
  const uint64_t seed = base_seed + SeedOffset();
  auto [g1, g2] = RandomEntityGraphs(seed, 8);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  const ParallelResult fault_free = FaultFreeParallelRun(h, roots, workers);

  FaultInjector injector(PlanFor(kind, seed, workers));
  BspAllMatch bsp(h.ctx, {.num_workers = workers, .faults = &injector});
  const auto result = bsp.Run(roots);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.matches, fault_free.matches)
      << "seed=" << seed << " fault=" << Name(kind) << " workers=" << workers;
  EXPECT_EQ(result.unresolved_pairs, 0u);
  // Every root candidate is decisively proved or disproved.
  for (const auto& [pair, outcome] : result.outcomes) {
    EXPECT_NE(outcome, PairOutcome::kUnresolved);
  }
  if (kind == FaultKind::kCrash) {
    // The crash only fires when the run reaches superstep 1; single-round
    // fixpoints legitimately see no recovery.
    if (result.supersteps > 1) {
      EXPECT_EQ(result.stats.recoveries, 1u);
      EXPECT_GT(result.stats.faults_injected, 0u);
    }
    EXPECT_GT(result.stats.checkpoints, 0u);
  } else {
    // Duplicates change the trajectory in no way: every extra copy reaches
    // an inbox (one more message each) and is absorbed by its dedupe.
    EXPECT_EQ(result.supersteps, fault_free.supersteps);
    EXPECT_EQ(result.stats.para_match_calls,
              fault_free.stats.para_match_calls);
    EXPECT_EQ(result.messages,
              fault_free.messages + result.stats.faults_injected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByFaultByWorkers, FaultMatrixTest,
    ::testing::Combine(
        ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u),
        ::testing::Values(FaultKind::kCrash, FaultKind::kDuplicate),
        ::testing::Values(2u, 4u, 8u)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             Name(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param));
    });

TEST(FaultInjectionTest, DecisionsAreDeterministic) {
  FaultPlan plan;
  plan.seed = 99;
  plan.crash = CrashFault{.worker = 1, .superstep = 2};
  plan.dup_prob = 0.25;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (uint32_t u = 0; u < 16; ++u) {
    for (uint32_t v = 0; v < 16; ++v) {
      const MatchPair p{u, v};
      EXPECT_EQ(a.DuplicateMessage(FaultChannel::kRequest, p, 0, 1),
                b.DuplicateMessage(FaultChannel::kRequest, p, 0, 1));
      EXPECT_EQ(a.DuplicateMessage(FaultChannel::kInvalidation, p, 1, 0),
                b.DuplicateMessage(FaultChannel::kInvalidation, p, 1, 0));
    }
  }
  EXPECT_GT(a.injected(), 0u);
  EXPECT_EQ(a.injected(), b.injected());
}

/// A crashed fragment is restored in place from its boundary capture, so
/// a crash plan needs no second worker: a lone fragment crashing before
/// its first superstep still lands on the fault-free Pi.
TEST(FaultInjectionTest, OneWorkerCrashRecoversInPlace) {
  for (const uint64_t base_seed : {11u, 22u, 33u, 44u, 55u, 66u}) {
    const uint64_t seed = base_seed + SeedOffset();
    auto [g1, g2] = RandomEntityGraphs(seed, 8);
    ContextHarness h(std::move(g1), std::move(g2), TestParams());
    const auto roots = ItemRoots(h.g1);
    const ParallelResult fault_free = FaultFreeParallelRun(h, roots, 1);

    FaultPlan plan;
    plan.seed = seed;
    plan.crash = CrashFault{.worker = 0, .superstep = 0};
    FaultInjector injector(plan);
    BspAllMatch bsp(h.ctx, {.num_workers = 1, .faults = &injector});
    const auto result = bsp.Run(roots);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.stats.recoveries, 1u) << "seed=" << seed;
    EXPECT_EQ(result.matches, fault_free.matches) << "seed=" << seed;
    EXPECT_EQ(result.supersteps, fault_free.supersteps) << "seed=" << seed;
    EXPECT_EQ(result.unresolved_pairs, 0u) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Configuration validation (satellite: fail fast with Status, never UB).

TEST(ValidationTest, ZeroWorkersRejected) {
  auto [g1, g2] = RandomEntityGraphs(3, 4);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  BspAllMatch bsp(h.ctx, {.num_workers = 0});
  const auto result = bsp.Run(ItemRoots(h.g1));
  EXPECT_TRUE(result.status.code() == StatusCode::kInvalidArgument) << result.status.ToString();
  EXPECT_TRUE(result.matches.empty());
  EXPECT_EQ(result.supersteps, 0u);
}

TEST(ValidationTest, OutOfRangeCandidateRejected) {
  auto [g1, g2] = RandomEntityGraphs(3, 4);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  BspAllMatch bsp(h.ctx, {.num_workers = 2});
  const VertexId bogus = static_cast<VertexId>(h.g2.num_vertices() + 7);
  const auto result = bsp.RunOnCandidates({MatchPair{0, bogus}});
  EXPECT_TRUE(result.status.code() == StatusCode::kInvalidArgument) << result.status.ToString();
  const auto result2 = bsp.RunOnCandidates(
      {MatchPair{static_cast<VertexId>(h.g1.num_vertices()), 0}});
  EXPECT_TRUE(result2.status.code() == StatusCode::kInvalidArgument) << result2.status.ToString();
}

TEST(ValidationTest, PairOwnerOutOfRangeRejected) {
  auto [g1, g2] = RandomEntityGraphs(3, 4);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  ParallelConfig cfg;
  cfg.num_workers = 2;
  cfg.pair_owner = [](const MatchPair&) -> uint32_t { return 9; };
  BspAllMatch bsp(h.ctx, cfg);
  const auto result = bsp.Run(ItemRoots(h.g1));
  EXPECT_TRUE(result.status.code() == StatusCode::kInvalidArgument) << result.status.ToString();
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation (tentpole: graceful degradation).

TEST(DeadlineTest, AlreadyExpiredDeadlineDegradesBsp) {
  auto [g1, g2] = RandomEntityGraphs(13, 8);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  const auto expected = FaultFreePi(h, roots);

  BspAllMatch bsp(h.ctx, {.num_workers = 4});
  RunOptions options;
  options.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  const auto result = bsp.Run(roots, nullptr, options);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.stats.deadline_expired, 1u);
  // Soundness: whatever survived is a subset of the fault-free Pi.
  for (const MatchPair& p : result.matches) {
    EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(), p));
  }
  // Accounting: every root candidate is classified, and the unresolved
  // count matches the outcome list.
  size_t unresolved = 0;
  for (const auto& [pair, outcome] : result.outcomes) {
    if (outcome == PairOutcome::kUnresolved) ++unresolved;
  }
  EXPECT_EQ(unresolved, result.unresolved_pairs);
  EXPECT_GT(result.unresolved_pairs, 0u);
  // Convergence: the same engine re-run without a deadline completes.
  const auto rerun = bsp.Run(roots);
  EXPECT_FALSE(rerun.degraded);
  EXPECT_EQ(rerun.matches, expected);
}

TEST(DeadlineTest, CancellationMidRunDegradesBsp) {
  auto [g1, g2] = RandomEntityGraphs(29, 10);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  const auto expected = FaultFreePi(h, roots);

  BspAllMatch bsp(h.ctx, {.num_workers = 4});
  CancelToken cancel;
  RunOptions options;
  options.cancel = &cancel;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    cancel.Cancel();
  });
  const auto result = bsp.Run(roots, nullptr, options);
  canceller.join();
  ASSERT_TRUE(result.status.ok());
  // The run may or may not have finished before the cancel landed; either
  // way the result must be sound and fully accounted.
  for (const MatchPair& p : result.matches) {
    EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(), p));
  }
  if (!result.degraded) {
    EXPECT_EQ(result.matches, expected);
    EXPECT_EQ(result.unresolved_pairs, 0u);
  }
  size_t unresolved = 0;
  for (const auto& [pair, outcome] : result.outcomes) {
    if (outcome == PairOutcome::kUnresolved) ++unresolved;
  }
  EXPECT_EQ(unresolved, result.unresolved_pairs);
}

TEST(DeadlineTest, GenerousDeadlineCompletesUndegraded) {
  auto [g1, g2] = RandomEntityGraphs(41, 6);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  const auto expected = FaultFreePi(h, roots);
  BspAllMatch bsp(h.ctx, {.num_workers = 4});
  const auto result =
      bsp.Run(roots, nullptr, RunOptions::WithTimeout(std::chrono::minutes(5)));
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.matches, expected);
  EXPECT_EQ(result.unresolved_pairs, 0u);
}

// Serial drivers honor the same options (tentpole: threading through
// MatchEngine::ParaMatch).
TEST(DeadlineTest, SerialDriverDegradesAndReRunConverges) {
  auto [g1, g2] = RandomEntityGraphs(59, 8);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  const auto expected = FaultFreePi(h, roots);

  MatchEngine engine(h.ctx);
  RunOptions options;
  options.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  const auto degraded = AllParaMatch(engine, roots, nullptr, &options);
  for (const MatchPair& p : degraded) {
    EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(), p));
  }
  EXPECT_GT(engine.stats().unresolved_pairs, 0u);
  // Fresh options without a deadline: the same engine converges.
  const RunOptions unbounded;
  const auto rerun = AllParaMatch(engine, roots, nullptr, &unbounded);
  EXPECT_EQ(rerun, expected);
}

// A stop inside MatchRoots: the cancel lands at a chosen M_rho batch, so it
// falls inside a run's list build or the recursion under its survivors.

/// Forwards M_rho and cancels `token` as its `fire_at`-th batch starts.
class CancellingPathScorer : public PathScorer {
 public:
  CancellingPathScorer(const PathScorer* inner, CancelToken* token,
                       size_t fire_at)
      : inner_(inner), token_(token), fire_at_(fire_at) {}
  double Score(std::span<const int> p1,
               std::span<const int> p2) const override {
    return inner_->Score(p1, p2);
  }
  void ScoreBatch(std::span<const EmbeddedPath> p1s,
                  std::span<const EmbeddedPath> p2s,
                  std::span<double> out) const override {
    if (calls_.fetch_add(1) + 1 == fire_at_) token_->Cancel();
    inner_->ScoreBatch(p1s, p2s, out);
  }

 private:
  const PathScorer* inner_;
  CancelToken* token_;
  size_t fire_at_;
  mutable std::atomic<size_t> calls_{0};
};

/// True when the root (u, v) misses delta at Fig. 4's first-level bound.
bool FailsFirstLevelBound(MatchEngine& probe, const MatchPair& p) {
  const MatchContext& ctx = probe.context();
  return !ctx.gd->IsLeaf(p.first) &&
         testutil::FirstLevelBound(probe, p.first, p.second) <
             ctx.params.delta;
}

/// Checks a run cut short inside MatchRoots: no root that fails the bound
/// is proved, each one reached is disproved, and Pi stays inside
/// `expected`. Returns how many bound-failing roots after the first
/// unresolved one were still disproved (decided from a batch after the
/// stop).
size_t ExpectBoundRootsDisproved(const ContextHarness& h,
                                 std::span<const MatchPair> candidates,
                                 std::span<const PairOutcome> outcomes,
                                 const std::vector<MatchPair>& pi,
                                 const std::vector<MatchPair>& expected) {
  for (const MatchPair& p : pi) {
    EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(), p));
  }
  MatchEngine probe(h.ctx);
  bool seen_unresolved = false;
  size_t after_stop = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (outcomes[i] == PairOutcome::kUnresolved) seen_unresolved = true;
    if (!FailsFirstLevelBound(probe, candidates[i])) continue;
    EXPECT_NE(outcomes[i], PairOutcome::kProved);
    if (seen_unresolved && outcomes[i] == PairOutcome::kDisproved) {
      ++after_stop;
    }
  }
  return after_stop;
}

TEST(DeadlineTest, CancelInsideMatchRootsSerial) {
  size_t after_stop = 0;
  for (const uint64_t seed : {59, 61, 67}) {
    auto [g1, g2] = RandomEntityGraphs(seed, 10);
    ContextHarness h(std::move(g1), std::move(g2), TestParams());
    const auto roots = ItemRoots(h.g1);
    const size_t batches_before = h.mrho->BatchCalls();
    const auto expected = FaultFreePi(h, roots);
    const size_t batches = h.mrho->BatchCalls() - batches_before;
    const auto candidates = GenerateCandidates(h.ctx, roots, nullptr);
    for (size_t q = 1; q <= 3; ++q) {
      CancelToken token;
      CancellingPathScorer cancelling(h.mrho.get(), &token,
                                      q * batches / 4 + 1);
      MatchContext ctx = h.ctx;
      ctx.mrho = &cancelling;
      MatchEngine engine(ctx);
      RunOptions options;
      options.cancel = &token;
      const auto degraded = AllParaMatch(engine, roots, nullptr, &options);
      ASSERT_TRUE(engine.Stopped()) << "seed " << seed << " q " << q;
      const auto outcomes = ResolveOutcomes(
          candidates, /*stopped=*/true, [&](const MatchPair& p) {
            return engine.Lookup(p.first, p.second);
          });
      after_stop += ExpectBoundRootsDisproved(h, candidates, outcomes,
                                              degraded, expected);
      // The same engine, re-run without the token, converges.
      const RunOptions unbounded;
      EXPECT_EQ(AllParaMatch(engine, roots, nullptr, &unbounded), expected)
          << "seed " << seed << " q " << q;
    }
  }
  EXPECT_GT(after_stop, 0u);
}

TEST(DeadlineTest, CancelInsideMatchRootsBsp) {
  for (const uint64_t seed : {13, 29}) {
    auto [g1, g2] = RandomEntityGraphs(seed, 10);
    ContextHarness h(std::move(g1), std::move(g2), TestParams());
    const auto roots = ItemRoots(h.g1);
    const auto expected = FaultFreePi(h, roots);
    const size_t batches_before = h.mrho->BatchCalls();
    BspAllMatch reference(h.ctx, {.num_workers = 4});
    ASSERT_EQ(reference.Run(roots).matches, expected) << "seed " << seed;
    const size_t batches = h.mrho->BatchCalls() - batches_before;
    for (size_t q = 1; q <= 3; ++q) {
      CancelToken token;
      CancellingPathScorer cancelling(h.mrho.get(), &token,
                                      q * batches / 4 + 1);
      MatchContext ctx = h.ctx;
      ctx.mrho = &cancelling;
      BspAllMatch bsp(ctx, {.num_workers = 4});
      RunOptions options;
      options.cancel = &token;
      const auto result = bsp.Run(roots, nullptr, options);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_TRUE(result.degraded) << "seed " << seed << " q " << q;
      std::vector<MatchPair> candidates;
      std::vector<PairOutcome> outcomes;
      for (const auto& [pair, outcome] : result.outcomes) {
        candidates.push_back(pair);
        outcomes.push_back(outcome);
      }
      ExpectBoundRootsDisproved(h, candidates, outcomes, result.matches,
                                expected);
      const auto rerun = bsp.Run(roots);
      EXPECT_FALSE(rerun.degraded);
      EXPECT_EQ(rerun.matches, expected) << "seed " << seed << " q " << q;
    }
  }
}

}  // namespace
}  // namespace her
