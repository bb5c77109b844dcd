#ifndef HER_PARALLEL_FAULT_INJECTION_H_
#define HER_PARALLEL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <optional>

#include "common/rng.h"
#include "common/status.h"
#include "core/match_engine.h"
#include "sim/scores.h"

namespace her {

/// Kill worker `worker` at the start of superstep `superstep`; the BSP
/// loop restores its fragment from the last superstep checkpoint.
struct CrashFault {
  uint32_t worker = 0;
  size_t superstep = 1;
};

/// Deterministic fault schedule of one parallel run. Every decision is a
/// pure function of `seed` and the message/call content — never of timing
/// or thread interleaving — so a plan reproduces the same faults on every
/// run and machine, which is what makes the crash-vs-fault-free bit
/// equality matrix testable.
struct FaultPlan {
  uint64_t seed = 0;
  /// Worker crash (at most one per run; GRAPE recovers them one at a time).
  std::optional<CrashFault> crash;
  /// Per-message probability of a transient channel loss in the routing
  /// phase. The sender detects the loss (acknowledged channel) and
  /// retransmits, so the message still arrives — counted as an injected
  /// fault plus a retry. Durable loss of in-flight messages is modeled by
  /// `crash`, which wipes a whole host including its inboxes.
  double drop_prob = 0.0;
  /// Per-message probability of delivering it twice (duplication; the
  /// engine's once-per-flip dedup and idempotent ForceInvalid absorb it).
  double dup_prob = 0.0;
};

/// Message classes a drop/duplication fault can hit; mixed into the
/// decision hash so the same pair faults independently per channel.
enum class FaultChannel : uint64_t {
  kRequest = 1,       // border-assumption request to the owner
  kInvalidation = 2,  // true->false flip broadcast to subscribers
  kDirectReply = 3,   // already-false reply to a late requester
};

/// Stateless-decision fault injector shared by all workers of one run.
/// Thread-safe: decisions are pure hashing, the only state is the atomic
/// injection counter.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  /// True when this message's first transmission is lost (the caller
  /// retransmits and delivers it anyway). Counts the injection.
  bool DropMessage(FaultChannel channel, const MatchPair& pair, uint32_t from,
                   uint32_t to);

  /// True when this message must be delivered twice. Counts the injection.
  bool DuplicateMessage(FaultChannel channel, const MatchPair& pair,
                        uint32_t from, uint32_t to);

  /// Records one injected fault (used by the crash path, whose decision
  /// the engine takes itself from plan().crash).
  void CountInjection() {
    injected_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Total faults fired so far (telemetry -> Stats::faults_injected).
  size_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  /// Uniform [0, 1) draw keyed by (seed, channel, salt, message content).
  double Draw(FaultChannel channel, const MatchPair& pair, uint32_t from,
              uint32_t to, uint64_t salt) const;

  FaultPlan plan_;
  std::atomic<size_t> injected_{0};
};

/// h_v decorator simulating transient scorer failures (a flaky model
/// server): deterministically selected calls "fail" up to `max_failures`
/// times and are retried internally with bounded exponential backoff plus
/// seeded jitter, so every call still returns the inner scorer's exact
/// value — the fault is fully masked, Pi is unchanged, and the retries
/// surface as telemetry (Stats::fault_retries). The jitter decorrelates
/// workers that would otherwise back off in lockstep, yet is a pure
/// function of (seed, call content, attempt), so runs stay reproducible.
/// With `exhaust_prob` > 0 a selected call may fail permanently: the
/// Status-aware TryScore surfaces that as a distinct
/// StatusCode::kResourceExhausted (never a generic failure), while the
/// plain VertexScorer interface — which has no error channel — masks it
/// after max_failures retries and counts it in Exhausted().
/// Thread-safe; failure counts are keyed by call content, never timing.
class FlakyVertexScorer : public VertexScorer {
 public:
  /// `fail_prob` selects which calls fail; a selected call fails
  /// 1..max_failures times before succeeding. `backoff_micros` is the base
  /// retry sleep (doubling per attempt, half of it jittered; 0 disables
  /// sleeping in tests). `exhaust_prob` is the conditional probability
  /// that a selected call is permanently down (fails more than
  /// max_failures times).
  FlakyVertexScorer(const VertexScorer* inner, uint64_t seed,
                    double fail_prob, int max_failures = 3,
                    size_t backoff_micros = 0, double exhaust_prob = 0.0)
      : inner_(inner),
        seed_(seed),
        fail_prob_(fail_prob),
        max_failures_(max_failures < 1 ? 1 : max_failures),
        backoff_micros_(backoff_micros),
        exhaust_prob_(exhaust_prob) {}

  double Score(VertexId u, VertexId v) const override;
  void ScoreBatch(VertexId u, std::span<const VertexId> vs,
                  std::span<double> out) const override;

  /// Status-aware variant of Score: when the call's planned failures
  /// exceed the retry budget, returns StatusCode::kResourceExhausted
  /// (deterministic by seed) instead of a value.
  Result<double> TryScore(VertexId u, VertexId v) const;

  /// Transient failures retried so far (-> Stats::fault_retries).
  size_t Retries() const { return retries_.load(std::memory_order_relaxed); }
  /// Calls that failed at least once (-> counted into faults_injected).
  size_t FaultedCalls() const {
    return faulted_calls_.load(std::memory_order_relaxed);
  }
  /// Calls whose retry budget ran out (exhaust_prob > 0 only).
  size_t Exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

 private:
  /// Planned failure count of a call identified by `key` (0 = healthy;
  /// > max_failures = permanently down).
  int PlannedFailures(uint64_t key) const;
  /// Runs the retry loop for one call: up to max_failures transient
  /// errors, each retried after a bounded, doubling, seeded-jitter
  /// backoff sleep. Returns false when `failures` exceeds the budget
  /// (retry exhaustion).
  bool RetryLoop(uint64_t key, int failures) const;

  const VertexScorer* inner_;
  uint64_t seed_;
  double fail_prob_;
  int max_failures_;
  size_t backoff_micros_;
  double exhaust_prob_;
  mutable std::atomic<size_t> retries_{0};
  mutable std::atomic<size_t> faulted_calls_{0};
  mutable std::atomic<size_t> exhausted_{0};
};

}  // namespace her

#endif  // HER_PARALLEL_FAULT_INJECTION_H_
