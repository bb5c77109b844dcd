#ifndef HER_PARALLEL_BSP_ENGINE_H_
#define HER_PARALLEL_BSP_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/run_options.h"
#include "common/status.h"
#include "core/candidates.h"
#include "core/drivers.h"
#include "core/match_engine.h"
#include "graph/partition.h"
#include "parallel/fault_injection.h"

namespace her {

/// Durable BSP progress checkpoints (see DESIGN.md "Durable checkpoints").
/// When `dir` is non-empty the BSP loop writes one checksummed snapshot
/// file, `<dir>/bsp.ckpt`, every `every_supersteps` rounds: a `bsp_meta`
/// section (round, worker count, roots digest, run counters) plus one
/// `bsp_frag<f>` section per fragment, the same boundary capture crash
/// recovery restores from. The file is installed atomically (tmp + fsync
/// + rename), so a crash mid-write leaves the previous checkpoint. With
/// `resume` set, a run adopts every fragment from that file or starts
/// cold on any failure — missing or corrupt file, stale fingerprint,
/// changed worker count or candidate set, a section that fails to open or
/// decode (see DESIGN.md "Fragments vs hosts" for why a lone cold
/// fragment beside restored peers is not sound). Never a crash, never a
/// silently wrong Pi.
struct CheckpointOptions {
  std::string dir;
  /// Checkpoint cadence in supersteps; 0 disables periodic writes (a
  /// final checkpoint is still never written — completed runs delete
  /// nothing and need nothing).
  size_t every_supersteps = 1;
  bool resume = false;
  /// Binds the checkpoint to the exact (G, D, params, seed) setup; a
  /// mismatch on resume is rejected as stale. 0 skips the binding.
  uint64_t fingerprint = 0;
  /// Test/CI hook: stop the run right after this many supersteps have
  /// completed (and been checkpointed), returning with `halted` set. The
  /// kill-and-resume harness uses this as a deterministic SIGKILL point.
  /// 0 disables.
  size_t halt_after_supersteps = 0;
  /// Filesystem the checkpoint file goes through. Null =
  /// Env::Default(); the chaos harness passes a FaultFsEnv. Borrowed.
  Env* env = nullptr;
};

/// Configuration of the shared-nothing BSP runtime (Section VI-B). One
/// worker = one thread with a private MatchEngine over its fragment.
struct ParallelConfig {
  uint32_t num_workers = 4;
  PartitionStrategy strategy = PartitionStrategy::kHash;
  /// Assigns every candidate pair (including pairs reached recursively) to
  /// a fragment. When empty, pairs are owned by the G-side edge-cut
  /// fragment of v. The paper co-locates all candidates of a G_D vertex on
  /// one fragment via inverted indices; HerSystem passes an owner keyed by
  /// the root tuple of u, which reproduces that placement (and is what
  /// makes APair scale: each u's ecache is computed on one worker only).
  std::function<uint32_t(const MatchPair&)> pair_owner{};
  /// Fault-injection schedule for this run (borrowed, may be null; null
  /// costs the run one pointer check per probe).
  FaultInjector* faults = nullptr;
  /// Durable on-disk checkpoint/resume policy.
  CheckpointOptions checkpoint{};
  /// Per-worker memory budget in bytes; 0 = unlimited. Caps the pairs
  /// per encoded wire frame (a soft cap on message batches, not a hard
  /// allocator limit). Exceeding it costs an extra frame, never
  /// correctness.
  size_t worker_mem_budget_bytes = 0;
};

/// Outcome of a parallel run, with the fixpoint-iteration telemetry the
/// scalability experiments report.
struct ParallelResult {
  /// Non-OK when the run was refused up front: invalid configuration
  /// (num_workers == 0, a candidate vertex out of range, pair_owner
  /// returning a fragment >= num_workers) or an unsupported fault plan.
  /// All other fields are empty/zero in that case.
  Status status;
  std::vector<MatchPair> matches;  // Pi, sorted
  /// True when a deadline/cancellation stopped the run before the
  /// fixpoint: `matches` then holds the partial Pi whose proofs fully
  /// survived the stop (always a subset of the fault-free Pi), and
  /// `outcomes`/`unresolved_pairs` account for the rest.
  bool degraded = false;
  /// Root candidates without a trustworthy verdict (degraded runs only).
  size_t unresolved_pairs = 0;
  /// Per root-candidate classification, sorted by pair (deduplicated). In
  /// a completed run every pair is proved or disproved; degraded runs also
  /// report unresolved pairs.
  struct PairVerdict {
    MatchPair pair;
    PairOutcome outcome = PairOutcome::kUnresolved;
  };
  std::vector<PairVerdict> outcomes;
  size_t supersteps = 0;           // BSP rounds until fixpoint
  size_t messages = 0;             // cross-worker messages exchanged
  /// Bytes the raw struct exchange would have shipped for those messages
  /// (12 B/request, 8 B/invalidation) vs the varint-delta wire frames
  /// actually encoded in the BSP sync phase.
  size_t message_bytes_raw = 0;
  size_t message_bytes_wire = 0;
  /// Partition quality of the G fragmentation this run used (edge-cut
  /// count/fraction, sum of border sets |O_i|, fragment size imbalance).
  struct PartitionStats {
    size_t edge_cut_edges = 0;
    double edge_cut_fraction = 0.0;
    size_t border_vertices = 0;
    double max_fragment_imbalance = 0.0;
  };
  PartitionStats partition;
  /// Process-wide peak RSS (VmHWM) sampled at the end of the run; 0 where
  /// unsupported. A process-level watermark, not a per-run delta.
  size_t peak_rss_bytes = 0;
  MatchEngine::Stats stats;        // summed over all workers (shared-scorer
                                   // snapshot fields assigned, not summed)
  size_t max_worker_calls = 0;     // ParaMatch calls of the busiest worker
  /// True when CheckpointOptions::halt_after_supersteps stopped the run
  /// early (test/CI hook): `matches` is empty, the on-disk checkpoint
  /// holds the progress, and a `resume` run picks up from it.
  bool halted = false;
  /// True when this run restored its state from an on-disk checkpoint
  /// instead of starting cold (telemetry for the resume harness).
  bool resumed_from_checkpoint = false;
  /// Simulated cluster makespan: sum over supersteps of the slowest
  /// worker's thread-CPU time, plus the synchronization phases. This is
  /// what an n-machine cluster's wall clock would approximate; on hosts
  /// with fewer cores than workers it is the meaningful scalability
  /// number (wall time only measures oversubscription).
  double simulated_seconds = 0.0;
  /// Wall seconds spent freeing the fragments once results were collected
  /// (one thread per fragment; telemetry).
  double teardown_seconds = 0.0;
};

/// PAllMatch: parallel AllParaMatch under the BSP fixpoint model of GRAPE.
///
/// Graph G is edge-cut partitioned into `num_workers` fragments; candidate
/// pair (u, v) is owned by the fragment owning v (the paper co-locates
/// candidates with inverted indices; with one process simulating the
/// cluster, G_D is effectively replicated, which plays the same role).
///
/// Superstep 0 (PPSim): every worker runs MatchEngine::MatchRoots over its
/// owned candidates, optimistically assuming border pairs valid. Each following
/// superstep (IncPSim): workers exchange (a) assumption requests, routed to
/// the owner for authoritative evaluation, and (b) invalidation messages
/// (true -> false flips), which trigger the cleanup stage on dependents.
/// The loop ends at the fixpoint: no new assumptions, no new invalidations.
///
/// Fault tolerance (see DESIGN.md "Fault tolerance & degradation"): all
/// Run* methods take RunOptions whose deadline/cancellation is checked at
/// superstep barriers and per-pair evaluations; expiry returns a
/// `degraded` result instead of hanging. Under an injected
/// FaultPlan the BSP loop captures each fragment's state at superstep
/// boundaries (the bytes a durable checkpoint writes), rebuilds a crashed
/// fragment in place from its last capture, re-derives the messages lost
/// with it through an assumption audit, and absorbs duplicated messages in
/// the receiver's inbox dedupe, so faulted runs still converge to the
/// fault-free Pi bit for bit.
class BspAllMatch {
 public:
  BspAllMatch(const MatchContext& ctx, ParallelConfig config)
      : ctx_(ctx), config_(config) {}

  /// APair over `tuple_vertices` (VPair with a single one): one
  /// GenerateCandidates scan, outside every worker, over all of G or
  /// `blocking`'s pool, then RunOnCandidates.
  ParallelResult Run(std::span<const VertexId> tuple_vertices,
                     const InvertedIndex* blocking = nullptr,
                     const RunOptions& options = {});

  /// Runs on an explicit candidate-pair set (Run's second half; benches
  /// pass a fixed candidate set here).
  ParallelResult RunOnCandidates(std::vector<MatchPair> candidates,
                                 const RunOptions& options = {});

 private:
  /// Rejects invalid configurations/candidates before any worker state is
  /// built (see ParallelResult::status).
  Status Validate(std::span<const MatchPair> candidates) const;

  const MatchContext& ctx_;
  ParallelConfig config_;
};

}  // namespace her

#endif  // HER_PARALLEL_BSP_ENGINE_H_
