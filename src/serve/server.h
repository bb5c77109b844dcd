#ifndef HER_SERVE_SERVER_H_
#define HER_SERVE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/hash.h"
#include "common/status.h"
#include "datagen/dataset.h"
#include "learn/her_system.h"
#include "serve/wal.h"

namespace her {

/// Lifecycle phases of a resident server, in the shape of an exchange
/// matching engine's trading phases: Open() runs in kStarting (warm-start
/// + recovery), Submit() is only admitted in kServing, Drain() moves
/// through kDraining (flush, final checkpoint) to kStopped.
enum class ServePhase : uint8_t {
  kStarting = 0,
  kServing = 1,
  kDraining = 2,
  kStopped = 3,
};

const char* ServePhaseName(ServePhase phase);

/// Operation kinds. Writes (graph edge Insert/Delete and feedback-verdict
/// Upsert/Erase — the serving layer's Insert/Modify/Delete entry points)
/// are WAL-logged before they take effect; reads never touch the log.
enum class OpKind : uint8_t {
  kEdgeInsert = 1,
  kEdgeDelete = 2,
  kFeedbackUpsert = 3,
  kFeedbackErase = 4,
  kSPair = 16,
  kVPair = 17,
};

inline bool IsWriteOp(OpKind kind) {
  return static_cast<uint8_t>(kind) < 16;
}

/// One request. `seq` is the client's strictly increasing operation id —
/// the replay/idempotence key: recovery reports the highest durably
/// logged seq, and a resuming driver skips everything at or below it.
/// `deadline` is the per-request latency contract (0 = none): admission
/// rejects or degrades work that cannot meet it instead of silently
/// overrunning.
struct ServeOp {
  uint64_t seq = 0;
  OpKind kind = OpKind::kSPair;
  VertexId u = kInvalidVertex;  // edge src / G_D tuple vertex
  VertexId v = kInvalidVertex;  // edge dst / G entity vertex
  std::string label;            // edge label (graph writes only)
  bool is_match = false;        // feedback verdict (kFeedbackUpsert)
  std::chrono::milliseconds deadline{0};
};

/// Per-op disposition. Every submitted op lands in exactly one bucket —
/// the zero-silent-drops accounting contract:
///   kAccepted — writes: durably logged and (eventually) applied;
///               reads: answered fresh, within deadline.
///   kRejected — refused up front with a reason (admission gate, validation,
///               wrong phase). Nothing was logged or changed.
///   kDegraded — reads only: answered from the current (stale) engine state
///               without waiting for queued writes, `staleness` > 0 or the
///               answer arrived past its deadline; never silently dropped.
enum class OpOutcome : uint8_t {
  kAccepted = 0,
  kRejected = 1,
  kDegraded = 2,
};

const char* OpOutcomeName(OpOutcome outcome);

struct OpResult {
  OpOutcome outcome = OpOutcome::kRejected;
  /// Reject reason (OK for accepted/degraded results).
  Status status;
  /// SPair verdict / VPair match set (reads).
  bool match = false;
  std::vector<VertexId> matches;
  /// Degraded reads: accepted writes not yet visible in the answer (queue
  /// lag), plus one when a parked maintenance pass is still pending.
  uint64_t staleness = 0;
  /// Wall-clock service time of this op.
  double service_seconds = 0.0;
};

/// Serving knobs. Admission is an explicit two-tier load-shedding gate on
/// top of per-op deadline math:
///   tier 1 (queue_soft_limit or deadline shortfall): reject WRITES —
///     cheapest to refuse, client can retry;
///   tier 2 (queue_hard_limit): degrade ALL reads to stale answers with a
///     staleness marker — reads keep flowing, never fail on load.
struct ServeConfig {
  /// Directory holding model.snap (warm start), serve.wal and serve.state.
  std::string dir;
  HerConfig her;
  /// Queued writes per incremental-apply batch (UpdateGraph call).
  size_t apply_batch = 8;
  size_t queue_soft_limit = 64;
  size_t queue_hard_limit = 256;
  /// Budget of one maintenance pass (0 = unbounded). Expiry parks the
  /// pass; a pass no read waits on then finishes unbounded, so it is
  /// never abandoned.
  std::chrono::milliseconds maintenance_deadline{0};
  /// Applied mutations per automatic snapshot + WAL truncation (0 = only
  /// at Drain/Checkpoint).
  size_t checkpoint_every = 0;
  /// Deterministic poison plan (inert while poison_prob is 0, test-only):
  /// each accepted mutation takes one draw keyed by (fault_seed, seq); a
  /// poisoned op is logged but quarantined instead of applied, so it
  /// cannot wedge the queue.
  uint64_t fault_seed = 0;
  double poison_prob = 0.0;
  /// Filesystem every durable byte goes through — model.snap, serve.state,
  /// serve.wal, tmp sweeps. Null = Env::Default(); tests and the chaos
  /// harness pass a FaultFsEnv here. Borrowed; must outlive the server.
  Env* env = nullptr;
};

struct ServeStats {
  uint64_t accepted_writes = 0;
  uint64_t rejected_writes = 0;
  uint64_t accepted_reads = 0;
  uint64_t degraded_reads = 0;
  uint64_t rejected_reads = 0;
  uint64_t applied_mutations = 0;
  uint64_t apply_batches = 0;
  uint64_t apply_parked = 0;  // applies that returned with the pass parked
  uint64_t quarantined = 0;       // poisoned ops set aside
  uint64_t wal_records_replayed = 0;
  uint64_t wal_bytes_discarded = 0;  // damaged WAL tail dropped at recovery
  uint64_t checkpoints = 0;
  uint64_t checkpoint_failures = 0;   // snapshot/truncate/reopen failures
  uint64_t wal_append_failures = 0;   // writes refused at the durability point
  uint64_t durability_degraded = 0;   // times the server entered degraded mode
  uint64_t durability_repairs = 0;    // degraded episodes ended by a repair
  uint64_t tmp_files_swept = 0;       // stale *.tmp debris removed at Open
  bool recovered = false;  // state came from snapshot/WAL, not cold start
};

/// A resident HER matching service over one dataset: warm-starts from the
/// persist snapshot, accepts a stream of mutations + match queries against
/// the shared read-mostly engine, and survives SIGKILL at any point —
/// accepted writes are CRC-framed and fsync'd to the WAL before they are
/// applied through HerSystem::UpdateGraph, so Open() replays snapshot +
/// WAL back to the exact acknowledged state.
///
/// Storage failures follow the degraded-durability contract: a checkpoint
/// or WAL-append failure (ENOSPC, EIO, failed fsync) never corrupts the
/// on-disk pair — the previous snapshot + WAL stay replayable — and flips
/// the server into degraded mode: reads keep being served, writes are
/// rejected with ResourceExhausted (nothing unlogged is ever acknowledged),
/// and each write submission retries the checkpoint repair under op-count
/// exponential backoff until one succeeds.
///
/// Ops are admitted and served in submission order under one mutex (the
/// BSP engine underneath parallelizes within a query), which is what makes
/// the kill-replay bit-equality matrix testable; Submit/Checkpoint/Drain
/// are safe to call from concurrent threads.
class HerServer {
 public:
  /// Warm-starts (TrainOrLoad), then recovers: state snapshot first, then
  /// the WAL suffix beyond it — re-running every replayed mutation through
  /// the same quarantine decision, a pure function of
  /// (fault_seed, seq), so a recovered server reaches the exact state of
  /// one that never crashed. `data` is borrowed and must outlive the
  /// server. Fails only on unusable inputs (unreadable WAL header, alien
  /// fingerprint); a damaged WAL tail or stale snapshot degrades to the
  /// longest trustworthy prefix instead.
  static Result<std::unique_ptr<HerServer>> Open(ServeConfig config,
                                                 const GeneratedDataset& data);

  /// Admits, logs and serves one op; see OpOutcome for the disposition
  /// taxonomy. Never blocks indefinitely: maintenance work triggered by a
  /// read is bounded by the op's deadline.
  OpResult Submit(const ServeOp& op);

  /// Flushes queued writes (unbounded), finishes any parked maintenance,
  /// writes a final state snapshot and truncates the WAL. Idempotent.
  Status Drain();

  /// Snapshot + WAL truncation at the current applied frontier (flushes
  /// the queue first so the snapshot covers a clean prefix).
  Status Checkpoint();

  ServePhase phase() const { return phase_; }
  /// Stats are mutated under the server mutex; read them quiesced (no
  /// concurrent Submit/Checkpoint in flight).
  const ServeStats& stats() const { return stats_; }
  HerSystem& system() { return *system_; }

  /// True while storage failures have writes rejected (see class comment).
  bool durability_degraded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return degraded_;
  }

  /// Highest op seq durably recovered at Open (0 on a cold start); a
  /// resuming driver skips everything at or below it.
  uint64_t recovered_max_seq() const { return recovered_max_seq_; }

  /// Accepted writes not yet applied to the engine.
  size_t queue_depth() const { return pending_.size(); }

  /// Seqs of quarantined (poisoned) ops, in quarantine order.
  const std::vector<uint64_t>& quarantined_seqs() const {
    return quarantined_;
  }

 private:
  struct Mutation {
    uint64_t seq = 0;
    OpKind kind = OpKind::kEdgeInsert;
    VertexId u = kInvalidVertex;
    VertexId v = kInvalidVertex;
    LabelId label = kInvalidLabel;
    bool is_match = false;
  };

  HerServer(ServeConfig config, const GeneratedDataset& data);

  Status Recover();
  Status LoadStateSnapshot(bool* loaded);
  Status ReplayWalRecords(const std::vector<std::string>& records);
  Status WriteStateSnapshot() const;

  /// Checkpoint body; caller holds mu_. On failure the previous on-disk
  /// snapshot + WAL stay usable and the server enters degraded mode.
  Status CheckpointLocked();
  /// Flips into degraded-durability mode (idempotent; keeps the backoff
  /// schedule of an ongoing episode, refreshes the reason).
  void EnterDegraded(const Status& why);
  /// Degraded-mode repair gate, called per write submission: attempts
  /// CheckpointLocked() under op-count exponential backoff (first attempt
  /// immediate). Returns true when the server is (back) in good standing.
  bool MaybeRepairLocked();

  /// Validation against the logical edge state (applied + queued).
  Status ValidateMutation(const Mutation& m) const;
  /// Mutates the logical edge/feedback state (no engine work).
  void ApplyToState(const Mutation& m);
  /// Drains the queue through one UpdateGraph pass, and continues a
  /// parked pass, all under one deadline: `read_deadline` when a fresh
  /// read is waiting, else the maintenance deadline (0 = unbounded). A
  /// pass no read waits on always finishes.
  void ApplyPending(std::chrono::milliseconds read_deadline);

  /// True when the poison plan quarantines mutation `seq`.
  bool Poisoned(uint64_t seq) const;

  OpResult ServeRead(const ServeOp& op);
  OpResult ServeWrite(const ServeOp& op);

  std::string EncodeMutation(const Mutation& m) const;
  Status DecodeMutation(std::string_view payload, Mutation* out) const;

  Graph BuildCurrentGraph() const;
  double BacklogSeconds() const;

  ServeConfig config_;
  const GeneratedDataset* data_;
  Env* env_ = nullptr;
  std::unique_ptr<HerSystem> system_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t fingerprint_ = 0;
  ServePhase phase_ = ServePhase::kStarting;

  /// Serializes Submit/Checkpoint/Drain (and guards everything below).
  mutable std::mutex mu_;

  /// Degraded-durability episode state (see class comment).
  bool degraded_ = false;
  Status degraded_reason_;
  int repair_attempts_ = 0;
  uint64_t writes_until_repair_ = 0;

  /// Logical graph state: per-src adjacency of (dst, label) with labels
  /// interned in the base graph's dictionary — the stable label space
  /// every rebuilt Graph re-interns in the same order.
  std::vector<std::vector<std::pair<VertexId, LabelId>>> edges_;
  std::unordered_map<MatchPair, bool, PairHash> feedback_;
  /// The engine's current graph (null while still on the base graph).
  std::unique_ptr<Graph> graph_;

  std::vector<Mutation> pending_;  // accepted, logged, not yet applied
  std::vector<uint64_t> quarantined_;
  uint64_t last_seq_ = 0;          // highest seq ever admitted/recovered
  uint64_t applied_seq_ = 0;       // highest seq applied or quarantined
  uint64_t recovered_max_seq_ = 0;
  uint64_t applied_since_checkpoint_ = 0;

  /// EWMA cost model feeding the admission estimate.
  double ewma_apply_seconds_ = 0.0;
  double ewma_read_seconds_ = 0.0;

  ServeStats stats_;
};

}  // namespace her

#endif  // HER_SERVE_SERVER_H_
