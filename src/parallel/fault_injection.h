#ifndef HER_PARALLEL_FAULT_INJECTION_H_
#define HER_PARALLEL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <optional>

#include "core/match_engine.h"

namespace her {

/// Kill worker `worker` at the start of superstep `superstep`; the BSP
/// loop restores its fragment from the last superstep checkpoint.
struct CrashFault {
  uint32_t worker = 0;
  size_t superstep = 1;
};

/// Deterministic fault schedule of one parallel run. Every decision is a
/// pure function of `seed` and the message content — never of timing
/// or thread interleaving — so a plan reproduces the same faults on every
/// run and machine, which is what makes the crash-vs-fault-free bit
/// equality matrix testable.
struct FaultPlan {
  uint64_t seed = 0;
  /// Worker crash (at most one per run; GRAPE recovers them one at a time).
  std::optional<CrashFault> crash;
  /// Per-message probability of delivering it twice (duplication; the
  /// engine's once-per-flip dedup and idempotent ForceInvalid absorb it).
  double dup_prob = 0.0;
};

/// Message classes a duplication fault can hit; mixed into the
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
  FaultPlan plan_;
  std::atomic<size_t> injected_{0};
};

}  // namespace her

#endif  // HER_PARALLEL_FAULT_INJECTION_H_
