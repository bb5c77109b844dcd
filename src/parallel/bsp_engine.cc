#include "parallel/bsp_engine.h"

#include <algorithm>
#include <deque>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.h"
#include "common/check.h"
#include "common/file_util.h"
#include "common/proc_stats.h"
#include "common/timer.h"
#include "parallel/wire_format.h"
#include "persist/snapshot.h"

namespace her {

namespace {

/// Per-fragment state: a private engine plus this superstep's inboxes.
///
/// A Worker is one logical FRAGMENT of the computation, not a host: crash
/// recovery never merges fragments (the greedy lineage matching is not
/// confluent, so merging would change which fixpoint the run lands on).
/// Instead a crashed host's fragment is rebuilt from its checkpoint — the
/// SaveWorker bytes of the durable shard format — and carried on by a
/// surviving host with its state, locality and routing unchanged.
struct Worker {
  explicit Worker(const MatchContext& ctx) : engine(ctx) {}
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  MatchEngine engine;
  std::vector<MatchPair> owned_candidates;  // root candidates to verify
  // Assumption requests to answer, tagged with the requesting fragment.
  std::vector<std::pair<MatchPair, uint32_t>> request_inbox;
  std::vector<MatchPair> invalid_inbox;     // remote invalidations to apply
  // Outboxes filled during a superstep, routed between supersteps.
  std::vector<MatchPair> assumptions_out;
  std::vector<MatchPair> invalidations_out;
  // For each owned pair that remote fragments assumed: who to notify when
  // its verdict is (or becomes) false. This replaces broadcasting — the
  // GRAPE messages follow the cross edges that created the assumption.
  std::unordered_map<MatchPair, std::vector<uint32_t>, PairHash> subscribers;
  // Replies owed to specific requesters whose pair is already false.
  std::vector<std::pair<MatchPair, uint32_t>> direct_replies;
  // Pairs whose true->false FLIP was already broadcast to subscribers; a
  // pair flips at most once, so one broadcast suffices. Requesters that
  // arrive later are answered directly at request time instead.
  std::unordered_set<MatchPair, PairHash> notified_false;
  // Every border pair this fragment has optimistically assumed (requester
  // side, never drained). The fault-recovery audit re-derives lost
  // messages from these sets: each believed-true assumption is checked
  // against its owner's authoritative verdict.
  std::unordered_set<MatchPair, PairHash> assumed;
};

/// Registers `origin` as a subscriber of `p` at worker `w`, once
/// (duplicated/re-sent requests must not grow the list unboundedly).
void Subscribe(Worker& w, const MatchPair& p, uint32_t origin) {
  auto& subs = w.subscribers[p];
  if (std::find(subs.begin(), subs.end(), origin) == subs.end()) {
    subs.push_back(origin);
  }
}

/// Pair -> fragment ownership of one run: the configured pair_owner when
/// set, otherwise the G-side partition owner of v.
struct PairOwner {
  const std::function<uint32_t(const MatchPair&)>& pair_owner;
  const VertexPartition& part;

  uint32_t operator()(const MatchPair& p) const {
    return pair_owner ? pair_owner(p) : part.owner[p.second];
  }
};

/// Copies the shared-scorer/table snapshot fields of one worker's stats
/// into the aggregate. Every engine snapshots the same shared objects, so
/// these are assigned (any worker's copy is the global value), never
/// summed like the per-engine counters.
void AssignSharedSnapshots(const MatchEngine::Stats& s,
                           MatchEngine::Stats* agg) {
  agg->hv_batch_calls = s.hv_batch_calls;
  agg->hrho_batch_calls = s.hrho_batch_calls;
  agg->hrho_hash_rejects = s.hrho_hash_rejects;
  agg->hr_batch_calls = s.hr_batch_calls;
  agg->hr_lstm_batch_calls = s.hr_lstm_batch_calls;
  agg->hr_lstm_lanes = s.hr_lstm_lanes;
  agg->hr_walk_rounds = s.hr_walk_rounds;
  agg->ptable_build_seconds = s.ptable_build_seconds;
  agg->ann_probes = s.ann_probes;
  agg->ann_lists_scanned = s.ann_lists_scanned;
  agg->ann_points_scanned = s.ann_points_scanned;
  agg->ann_fallbacks = s.ann_fallbacks;
  agg->ann_recall = s.ann_recall;
  agg->ann_build_seconds = s.ann_build_seconds;
  agg->memo_probe_batches = s.memo_probe_batches;
  agg->memo_probe_len = s.memo_probe_len;
  agg->hrho_memo_load_factor = s.hrho_memo_load_factor;
}

/// Sums one worker's per-engine counters into the aggregate.
void SumWorkerStats(const MatchEngine::Stats& s, MatchEngine::Stats* agg) {
  agg->para_match_calls += s.para_match_calls;
  agg->cache_hits += s.cache_hits;
  agg->cleanup_reruns += s.cleanup_reruns;
  agg->stale_restarts += s.stale_restarts;
  agg->budget_exhausted += s.budget_exhausted;
  agg->hrho_evaluations += s.hrho_evaluations;
  agg->border_assumptions += s.border_assumptions;
  agg->hrho_embed_reuse += s.hrho_embed_reuse;
  // Load factors are occupancies, not counts: the busiest worker's table is
  // the meaningful fleet-level number.
  agg->engine_cache_load_factor =
      std::max(agg->engine_cache_load_factor, s.engine_cache_load_factor);
  AssignSharedSnapshots(s, agg);
}

/// Fills matches/outcomes/unresolved_pairs from the workers' verdicts for
/// the (sorted, deduplicated) root candidates.
///
/// Completed runs: the owner's cached verdict is the fixpoint answer.
///
/// Degraded runs (deadline/cancellation): only owner-side (authoritative)
/// verdicts are trusted — a worker's own border assumptions may never have
/// been confirmed — and a pair counts proved only when its whole witness
/// closure across all fragments is proved. Valid verdicts are demoted to
/// unresolved until that greatest fixpoint is reached (the cross-worker
/// analogue of MatchEngine::ResolveOutcomes), which keeps the degraded Pi
/// a subset of the fault-free Pi.
void CollectResults(const std::vector<std::unique_ptr<Worker>>& workers,
                    const PairOwner& owner_of,
                    const std::vector<MatchPair>& roots,
                    ParallelResult* result) {
  result->outcomes.reserve(roots.size());
  if (!result->degraded) {
    for (const MatchPair& c : roots) {
      const auto* e =
          workers[owner_of(c)]->engine.Lookup(c.first, c.second);
      PairOutcome o = e == nullptr
                          ? PairOutcome::kUnresolved
                          : (e->valid ? PairOutcome::kProved
                                      : PairOutcome::kDisproved);
      if (o == PairOutcome::kProved) result->matches.push_back(c);
      if (o == PairOutcome::kUnresolved) ++result->unresolved_pairs;
      result->outcomes.push_back({c, o});
    }
    result->stats.unresolved_pairs = result->unresolved_pairs;
    return;
  }
  // Authoritative global verdict map: each fragment contributes its
  // locality-filtered entries (assumption replicas about remote pairs are
  // excluded by the snapshot's filter).
  std::vector<MatchEngine::Snapshot> snaps;
  snaps.reserve(workers.size());
  for (size_t i = 0; i < workers.size(); ++i) {
    snaps.push_back(workers[i]->engine.SnapshotLocalState());
  }
  const auto key_of = [](const MatchPair& p) {
    return PairKey(p.first, p.second);
  };
  // TryEmplace keeps the first contribution per pair — the emplace
  // semantics the unordered_map merge had.
  FlatTable<const MatchEngine::CacheEntry*> global;
  for (const auto& snap : snaps) {
    for (const auto& [p, e] : snap.verdicts) global.TryEmplace(key_of(p), &e);
  }
  // Demotion to the greatest fixpoint is monotone (kProved ->
  // kUnresolved only), so the result is iteration-order independent.
  FlatTable<PairOutcome> value;
  std::deque<MatchPair> queue(roots.begin(), roots.end());
  while (!queue.empty()) {
    const MatchPair p = queue.front();
    queue.pop_front();
    if (value.Find(key_of(p)) != nullptr) continue;
    const auto* const* entry = global.Find(key_of(p));
    if (entry == nullptr) {
      value.TryEmplace(key_of(p), PairOutcome::kUnresolved);
      continue;
    }
    value.TryEmplace(key_of(p), (*entry)->valid ? PairOutcome::kProved
                                                : PairOutcome::kDisproved);
    if ((*entry)->valid) {
      for (const MatchPair& w : (*entry)->witnesses) queue.push_back(w);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    value.ForEach([&](uint64_t packed, PairOutcome& val) {
      if (val != PairOutcome::kProved) return;
      for (const MatchPair& w : (*global.Find(packed))->witnesses) {
        if (*value.Find(key_of(w)) != PairOutcome::kProved) {
          val = PairOutcome::kUnresolved;
          changed = true;
          break;
        }
      }
    });
  }
  for (const MatchPair& c : roots) {
    const PairOutcome o = *value.Find(key_of(c));
    if (o == PairOutcome::kProved) result->matches.push_back(c);
    if (o == PairOutcome::kUnresolved) ++result->unresolved_pairs;
    result->outcomes.push_back({c, o});
  }
  result->stats.unresolved_pairs = result->unresolved_pairs;
  result->stats.deadline_expired = 1;
}

std::vector<MatchPair> SortedUnique(std::span<const MatchPair> candidates) {
  std::vector<MatchPair> roots(candidates.begin(), candidates.end());
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return roots;
}

// --- durable checkpoint (de)serialization ------------------------------
//
// A BSP disk checkpoint is SHARDED: one `bsp.ckpt.meta` snapshot (resume
// round, worker count, candidate digest, run counters, per-shard epochs)
// plus one `bsp.ckpt.fragN` snapshot per fragment. Only fragments dirty
// since the previous write are rewritten — checkpoint cost is O(changed
// fragments) — and the meta is installed last, so the on-disk set is
// always a consistent boundary (shards newer than the meta fail the
// epoch check and cold-start, never mix rounds silently). Checkpoints
// are taken at the superstep boundary where inboxes are full (routed,
// audit-repaired) and outboxes are empty, so a resumed run entering the
// stored round re-executes exactly the computation the interrupted run
// would have — the greedy lineage matching is not confluent, so any
// weaker capture could land on a different fixpoint.

void PutPair(ByteWriter* w, const MatchPair& p) {
  w->PutVarint(p.first);
  w->PutVarint(p.second);
}

Status GetPair(ByteReader* r, MatchPair* p) {
  uint64_t a = 0;
  uint64_t b = 0;
  HER_RETURN_NOT_OK(r->GetVarint(&a));
  HER_RETURN_NOT_OK(r->GetVarint(&b));
  p->first = static_cast<VertexId>(a);
  p->second = static_cast<VertexId>(b);
  return Status::OK();
}

void PutPairs(ByteWriter* w, const std::vector<MatchPair>& ps) {
  w->PutVarint(ps.size());
  for (const MatchPair& p : ps) PutPair(w, p);
}

Status GetPairs(ByteReader* r, std::vector<MatchPair>* out) {
  uint64_t n = 0;
  HER_RETURN_NOT_OK(r->GetCount(&n, /*min_bytes_each=*/2));
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    MatchPair p;
    HER_RETURN_NOT_OK(GetPair(r, &p));
    out->push_back(p);
  }
  return Status::OK();
}

/// Serializes a hash set of pairs in sorted order (canonical bytes: the
/// same fragment state always produces the same checkpoint file).
void PutPairSet(ByteWriter* w,
                const std::unordered_set<MatchPair, PairHash>& s) {
  std::vector<MatchPair> v(s.begin(), s.end());
  std::sort(v.begin(), v.end());
  PutPairs(w, v);
}

void PutTaggedPairs(
    ByteWriter* w, const std::vector<std::pair<MatchPair, uint32_t>>& ps) {
  w->PutVarint(ps.size());
  for (const auto& [p, tag] : ps) {
    PutPair(w, p);
    w->PutVarint(tag);
  }
}

Status GetTaggedPairs(ByteReader* r,
                      std::vector<std::pair<MatchPair, uint32_t>>* out) {
  uint64_t n = 0;
  HER_RETURN_NOT_OK(r->GetCount(&n, /*min_bytes_each=*/3));
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    MatchPair p;
    uint64_t tag = 0;
    HER_RETURN_NOT_OK(GetPair(r, &p));
    HER_RETURN_NOT_OK(r->GetVarint(&tag));
    out->emplace_back(p, static_cast<uint32_t>(tag));
  }
  return Status::OK();
}

void SaveWorker(const Worker& w, ByteWriter* out) {
  PutPairs(out, w.owned_candidates);
  PutTaggedPairs(out, w.request_inbox);
  PutPairs(out, w.invalid_inbox);
  // Outboxes (assumptions_out/invalidations_out/direct_replies) are empty
  // at the checkpoint boundary — routing just drained them — so they are
  // not stored; LoadWorker leaves them default-empty.
  std::vector<MatchPair> keys;
  keys.reserve(w.subscribers.size());
  for (const auto& [p, subs] : w.subscribers) keys.push_back(p);
  std::sort(keys.begin(), keys.end());
  out->PutVarint(keys.size());
  for (const MatchPair& p : keys) {
    PutPair(out, p);
    out->PutIntVec(w.subscribers.at(p));
  }
  PutPairSet(out, w.notified_false);
  PutPairSet(out, w.assumed);
  w.engine.SaveEngineState(out);
}

Status LoadWorker(ByteReader* r, Worker* w) {
  HER_RETURN_NOT_OK(GetPairs(r, &w->owned_candidates));
  HER_RETURN_NOT_OK(GetTaggedPairs(r, &w->request_inbox));
  HER_RETURN_NOT_OK(GetPairs(r, &w->invalid_inbox));
  uint64_t n_subs = 0;
  HER_RETURN_NOT_OK(r->GetCount(&n_subs, /*min_bytes_each=*/3));
  w->subscribers.clear();
  for (uint64_t i = 0; i < n_subs; ++i) {
    MatchPair p;
    HER_RETURN_NOT_OK(GetPair(r, &p));
    std::vector<uint32_t> subs;
    HER_RETURN_NOT_OK(r->GetIntVec(&subs));
    w->subscribers.emplace(p, std::move(subs));
  }
  std::vector<MatchPair> pairs;
  HER_RETURN_NOT_OK(GetPairs(r, &pairs));
  w->notified_false.clear();
  w->notified_false.insert(pairs.begin(), pairs.end());
  HER_RETURN_NOT_OK(GetPairs(r, &pairs));
  w->assumed.clear();
  w->assumed.insert(pairs.begin(), pairs.end());
  HER_RETURN_NOT_OK(w->engine.LoadEngineState(r));
  if (!r->AtEnd()) {
    return Status::IOError("bsp checkpoint: trailing bytes after worker");
  }
  return Status::OK();
}

/// Order-sensitive digest of the deduplicated root candidates: a resumed
/// run must be solving the same job, or the checkpoint is stale.
uint64_t RootsDigest(const std::vector<MatchPair>& roots) {
  uint64_t h = Mix64(roots.size() + 0x517cc1b727220a95ULL);
  for (const MatchPair& p : roots) {
    h = Mix64(h ^ static_cast<uint64_t>(p.first));
    h = Mix64(h ^ (static_cast<uint64_t>(p.second) +
                   0x9e3779b97f4a7c15ULL));
  }
  return h;
}

std::string MetaPath(const CheckpointOptions& ckpt) {
  return ckpt.dir + "/bsp.ckpt.meta";
}

std::string ShardPath(const CheckpointOptions& ckpt, size_t fragment) {
  return ckpt.dir + "/bsp.ckpt.frag" + std::to_string(fragment);
}

constexpr char kBspMetaSection[] = "bsp_meta";
constexpr char kBspShardSection[] = "bsp_frag";

/// Writes the sharded checkpoint: every DIRTY fragment's shard first
/// (recording its new epoch in `shard_epochs`), the meta last. Clean
/// fragments' files already hold their current state under the epoch the
/// meta names, so the write is O(changed fragments), not O(total state).
/// A crash between a shard write and the meta install leaves shards newer
/// than the meta: their epoch check fails on resume and only those
/// fragments cold-start — never a silently mixed-round checkpoint.
Status WriteBspCheckpoint(const CheckpointOptions& ckpt, size_t next_round,
                          uint64_t roots_digest, const ParallelResult& result,
                          const std::vector<std::unique_ptr<Worker>>& workers,
                          const std::vector<uint8_t>& dirty,
                          std::vector<uint64_t>* shard_epochs) {
  for (size_t f = 0; f < workers.size(); ++f) {
    if (dirty[f] == 0) continue;
    SnapshotWriter shard(ckpt.fingerprint);
    ByteWriter* w = shard.AddSection(kBspShardSection);
    w->PutVarint(f);
    w->PutVarint(next_round);  // this shard's epoch
    w->PutU64(roots_digest);
    SaveWorker(*workers[f], w);
    HER_RETURN_NOT_OK(shard.WriteToFile(ShardPath(ckpt, f), ckpt.env));
    (*shard_epochs)[f] = next_round;
  }
  SnapshotWriter snap(ckpt.fingerprint);
  ByteWriter* meta = snap.AddSection(kBspMetaSection);
  meta->PutVarint(next_round);
  meta->PutVarint(workers.size());
  meta->PutU64(roots_digest);
  meta->PutVarint(result.messages);
  meta->PutVarint(result.message_bytes_raw);
  meta->PutVarint(result.message_bytes_wire);
  meta->PutDouble(result.simulated_seconds);
  meta->PutVarint(shard_epochs->size());
  for (const uint64_t e : *shard_epochs) meta->PutVarint(e);
  return snap.WriteToFile(MetaPath(ckpt), ckpt.env);
}

/// Progress counters restored alongside the worker state, so a resumed
/// run's telemetry keeps accounting for the supersteps already executed.
struct RestoredProgress {
  size_t next_round = 0;
  size_t messages = 0;
  size_t message_bytes_raw = 0;
  size_t message_bytes_wire = 0;
  double simulated_seconds = 0.0;
  std::vector<uint64_t> shard_epochs;
};

/// Restores the checkpoint meta (round, counters, per-shard epochs). Any
/// failure — missing file, corruption, stale fingerprint, changed worker
/// count or candidate set — is returned as a Status and costs a FULL cold
/// start: without a trustworthy meta no shard can be validated.
Status TryRestoreBspMeta(const CheckpointOptions& ckpt, uint64_t roots_digest,
                         size_t num_workers, RestoredProgress* out) {
  const uint64_t expected = ckpt.fingerprint == 0
                                ? SnapshotReader::kAnyFingerprint
                                : ckpt.fingerprint;
  HER_ASSIGN_OR_RETURN(SnapshotReader snap,
                       SnapshotReader::Open(MetaPath(ckpt), expected,
                                            ckpt.env));
  HER_ASSIGN_OR_RETURN(ByteReader meta, snap.Section(kBspMetaSection));
  uint64_t next_round = 0;
  uint64_t stored_workers = 0;
  uint64_t digest = 0;
  uint64_t messages = 0;
  uint64_t bytes_raw = 0;
  uint64_t bytes_wire = 0;
  double simulated = 0.0;
  HER_RETURN_NOT_OK(meta.GetVarint(&next_round));
  HER_RETURN_NOT_OK(meta.GetVarint(&stored_workers));
  HER_RETURN_NOT_OK(meta.GetU64(&digest));
  HER_RETURN_NOT_OK(meta.GetVarint(&messages));
  HER_RETURN_NOT_OK(meta.GetVarint(&bytes_raw));
  HER_RETURN_NOT_OK(meta.GetVarint(&bytes_wire));
  HER_RETURN_NOT_OK(meta.GetDouble(&simulated));
  if (stored_workers != num_workers) {
    return Status::FailedPrecondition(
        "bsp checkpoint was taken with " + std::to_string(stored_workers) +
        " workers, this run has " + std::to_string(num_workers));
  }
  if (digest != roots_digest) {
    return Status::FailedPrecondition(
        "bsp checkpoint candidate set differs from this run's");
  }
  if (next_round == 0) {
    return Status::IOError("bsp checkpoint: resume round must be > 0");
  }
  uint64_t n_epochs = 0;
  HER_RETURN_NOT_OK(meta.GetCount(&n_epochs, /*min_bytes_each=*/1));
  if (n_epochs != num_workers) {
    return Status::IOError(
        "bsp checkpoint meta: " + std::to_string(n_epochs) +
        " shard epochs for " + std::to_string(num_workers) + " workers");
  }
  out->shard_epochs.resize(n_epochs);
  for (uint64_t i = 0; i < n_epochs; ++i) {
    HER_RETURN_NOT_OK(meta.GetVarint(&out->shard_epochs[i]));
  }
  out->next_round = next_round;
  out->messages = messages;
  out->message_bytes_raw = bytes_raw;
  out->message_bytes_wire = bytes_wire;
  out->simulated_seconds = simulated;
  return Status::OK();
}

/// Restores one fragment's shard in place, validated independently: file
/// CRC/fingerprint (SnapshotReader), fragment id, epoch against the
/// meta's record (a shard newer or older than the meta's view is stale),
/// and candidate digest. A failure costs only THIS fragment a cold start.
Status TryRestoreShard(const CheckpointOptions& ckpt, uint32_t fragment,
                       uint64_t expected_epoch, uint64_t roots_digest,
                       Worker* w) {
  const uint64_t expected = ckpt.fingerprint == 0
                                ? SnapshotReader::kAnyFingerprint
                                : ckpt.fingerprint;
  HER_ASSIGN_OR_RETURN(
      SnapshotReader snap,
      SnapshotReader::Open(ShardPath(ckpt, fragment), expected, ckpt.env));
  HER_ASSIGN_OR_RETURN(ByteReader r, snap.Section(kBspShardSection));
  uint64_t frag = 0;
  uint64_t epoch = 0;
  uint64_t digest = 0;
  HER_RETURN_NOT_OK(r.GetVarint(&frag));
  HER_RETURN_NOT_OK(r.GetVarint(&epoch));
  HER_RETURN_NOT_OK(r.GetU64(&digest));
  if (frag != fragment) {
    return Status::FailedPrecondition(
        "shard file holds fragment " + std::to_string(frag) +
        ", expected " + std::to_string(fragment));
  }
  if (epoch != expected_epoch) {
    return Status::FailedPrecondition(
        "stale shard: epoch " + std::to_string(epoch) +
        ", checkpoint meta expects " + std::to_string(expected_epoch));
  }
  if (digest != roots_digest) {
    return Status::FailedPrecondition(
        "shard candidate set differs from this run's");
  }
  return LoadWorker(&r, w);
}

/// Pairs per encoded wire frame under the budget: oversized outboxes ship
/// as several frames so the encode/decode staging stays within bounds.
/// Effectively unbounded (one frame per link) when unbudgeted.
size_t FramePairCapForBudget(size_t budget_bytes) {
  if (budget_bytes == 0) return std::numeric_limits<size_t>::max();
  return std::max<size_t>(1024, budget_bytes / 2 / sizeof(MatchPair));
}

/// One run's job input and settings: what every fragment is built from —
/// cold start, partial rebuild or crash restore — and what the finished
/// workers are summarized against.
struct RunSetup {
  const MatchContext& ctx;
  const VertexPartition& part;
  PairOwner owner_of;
  const std::vector<MatchPair>& candidates;  // job input, arrival order
  const RunOptions& options;
  FaultInjector* injector;

  static RunSetup For(const MatchContext& ctx, const ParallelConfig& config,
                      const VertexPartition& part,
                      const std::vector<MatchPair>& candidates,
                      const RunOptions& options) {
    return {.ctx = ctx,
            .part = part,
            .owner_of = {config.pair_owner, part},
            .candidates = candidates,
            .options = options,
            .injector = config.faults};
  }

  /// A fragment without state: locality filter and run options applied.
  /// The filter borrows this setup, which outlives the run's workers.
  std::unique_ptr<Worker> Empty(uint32_t frag) const {
    auto w = std::make_unique<Worker>(ctx);
    w->engine.SetLocalityFilter([this, frag](VertexId u, VertexId v) {
      return owner_of(MatchPair{u, v}) == frag;
    });
    w->engine.SetRunOptions(options);
    return w;
  }

  /// Replaces every fragment f with cold[f] set by a fresh one holding
  /// its job input: the root candidates it owns, in arrival order.
  void ColdStart(const std::vector<uint8_t>& cold,
                 std::vector<std::unique_ptr<Worker>>* workers) const {
    for (uint32_t f = 0; f < workers->size(); ++f) {
      if (cold[f] != 0) (*workers)[f] = Empty(f);
    }
    for (const MatchPair& c : candidates) {
      const uint32_t f = owner_of(c);
      if (cold[f] != 0) (*workers)[f]->owned_candidates.push_back(c);
    }
  }

  /// Fragment `frag` restored from its crash checkpoint through
  /// LoadWorker, the disk-resume serializer. Its inboxes are cleared:
  /// in-flight messages die with the host; the audit re-derives them.
  std::unique_ptr<Worker> Restore(uint32_t frag,
                                  const ByteWriter& checkpoint) const {
    auto w = Empty(frag);
    ByteReader r(checkpoint.data());
    const Status st = LoadWorker(&r, w.get());
    HER_CHECK(st.ok());  // a self-written checkpoint always decodes
    w->request_inbox.clear();
    w->invalid_inbox.clear();
    return w;
  }

  /// Fills the run-wide half of `result` once every worker has stopped:
  /// summed engine counters, the busiest worker, injected-fault and
  /// flaky-scorer counters, partition quality, peak RSS and — unless the
  /// run halted — Pi over the sorted, deduplicated `roots`.
  void Finish(const std::vector<std::unique_ptr<Worker>>& workers,
              const std::vector<MatchPair>& roots,
              ParallelResult* result) const {
    for (const auto& w : workers) {
      const MatchEngine::Stats& s = w->engine.stats();
      SumWorkerStats(s, &result->stats);
      result->max_worker_calls =
          std::max(result->max_worker_calls, s.para_match_calls);
    }
    if (injector != nullptr) {
      result->stats.faults_injected = injector->injected();
    }
    if (const auto* flaky = dynamic_cast<const FlakyVertexScorer*>(ctx.hv)) {
      result->stats.fault_retries += flaky->Retries();
      result->stats.faults_injected += flaky->FaultedCalls();
    }
    result->partition.edge_cut_edges = part.edge_cut_edges;
    result->partition.edge_cut_fraction = part.EdgeCutFraction(*ctx.g);
    result->partition.border_vertices = part.border_vertices;
    result->partition.max_fragment_imbalance = part.max_fragment_imbalance;
    result->peak_rss_bytes = PeakRssBytes();
    // Pi = union of owned partial results (Section VI-B, termination).
    // Every fragment exists and is authoritative for its owned pairs —
    // crashed hosts' fragments were rebuilt on survivors. A halted run
    // reports no Pi: its verdicts live in the on-disk checkpoint.
    if (!result->halted) CollectResults(workers, owner_of, roots, result);
  }
};

}  // namespace

Status BspAllMatch::Validate(std::span<const MatchPair> candidates) const {
  if (config_.num_workers == 0) {
    return Status::InvalidArgument("ParallelConfig.num_workers must be > 0");
  }
  if (config_.faults != nullptr && config_.faults->plan().crash) {
    const CrashFault& crash = *config_.faults->plan().crash;
    if (config_.num_workers < 2) {
      return Status::InvalidArgument(
          "crash fault plans need at least 2 workers: a lone host has "
          "no survivor to recover its fragment on");
    }
    if (crash.worker >= config_.num_workers) {
      return Status::InvalidArgument(
          "crash fault plan names worker " + std::to_string(crash.worker) +
          " but num_workers is " + std::to_string(config_.num_workers));
    }
  }
  const size_t nu = ctx_.gd->num_vertices();
  const size_t nv = ctx_.g->num_vertices();
  for (const MatchPair& p : candidates) {
    if (static_cast<size_t>(p.first) >= nu ||
        static_cast<size_t>(p.second) >= nv) {
      return Status::InvalidArgument(
          "candidate pair (" + std::to_string(p.first) + ", " +
          std::to_string(p.second) + ") out of range: |V(G_D)| = " +
          std::to_string(nu) + ", |V(G)| = " + std::to_string(nv));
    }
    if (config_.pair_owner) {
      const uint32_t owner = config_.pair_owner(p);
      if (owner >= config_.num_workers) {
        return Status::InvalidArgument(
            "pair_owner returned fragment " + std::to_string(owner) +
            " for pair (" + std::to_string(p.first) + ", " +
            std::to_string(p.second) + ") but num_workers is " +
            std::to_string(config_.num_workers));
      }
    }
  }
  return Status::OK();
}

ParallelResult BspAllMatch::RunOnCandidates(std::vector<MatchPair> candidates,
                                            const RunOptions& options) {
  ParallelResult result;
  result.status = Validate(candidates);
  if (!result.status.ok()) return result;

  const uint32_t n = config_.num_workers;
  const VertexPartition part =
      PartitionVertices(*ctx_.g, n, config_.strategy);
  const RunSetup run =
      RunSetup::For(ctx_, config_, part, candidates, options);
  const PairOwner& owner_of = run.owner_of;
  FaultInjector* const injector = run.injector;
  // Fragment -> host. Identity until a crash: the dead host's fragments
  // migrate to a survivor, which then processes several fragments per
  // superstep. Ownership, locality and routing stay FRAGMENT-based, so
  // recovery re-executes exactly the computation the dead host would have
  // run — bit-identical Pi by construction (the greedy lineage matching is
  // not confluent, so any other recovery could land on a different
  // fixpoint). `host_of` is mutated only between supersteps.
  std::vector<uint32_t> host_of(n);
  for (uint32_t i = 0; i < n; ++i) host_of[i] = i;

  std::vector<std::unique_ptr<Worker>> workers(n);
  run.ColdStart(std::vector<uint8_t>(n, 1), &workers);
  const std::vector<MatchPair> roots = SortedUnique(candidates);

  std::vector<bool> alive(n, true);  // hosts, not fragments
  // Crash-recovery checkpoints, kept only under a fault plan: each
  // fragment's SaveWorker bytes (the durable shard format) at the last
  // superstep boundary, or its job input before round 0. Restoring them
  // puts a fragment back on the exact fault-free trajectory.
  std::vector<ByteWriter> checkpoints(n);
  const auto take_checkpoints = [&] {
    for (uint32_t f = 0; f < n; ++f) {
      checkpoints[f] = ByteWriter();
      SaveWorker(*workers[f], &checkpoints[f]);
    }
  };

  // --- durable checkpoint/resume (crash-restart recovery) ---
  const CheckpointOptions& ckpt = config_.checkpoint;
  const bool ckpt_enabled = !ckpt.dir.empty();
  const uint64_t roots_digest = ckpt_enabled ? RootsDigest(roots) : 0;
  size_t start_round = 0;
  // Shard dirty tracking for O(fragment) durable checkpoints: a
  // fragment's on-disk shard is rewritten only when its state may have
  // changed since the last write. Everything is dirty on a cold start.
  std::vector<uint8_t> dirty(n, 1);
  std::vector<uint64_t> shard_epochs(n, 0);
  // Fragments cold-started by a PARTIAL rebuild (their shard was missing,
  // corrupt or stale on resume while the meta was fine): they re-run
  // their owned candidates at the resumed round — PPSim for them, IncPSim
  // for everyone else — and the assumption audit re-derives the messages
  // the lost shard state exchanged with the rest.
  std::vector<uint8_t> bootstrap(n, 0);
  bool any_bootstrap = false;
  if (ckpt_enabled && ckpt.resume) {
    // A crash mid-install leaves orphaned *.tmp files next to the shards;
    // sweep them before restore so debris never accumulates across runs.
    auto swept = SweepStaleTmpFiles(ckpt.env != nullptr ? ckpt.env
                                                        : Env::Default(),
                                    ckpt.dir);
    if (swept.ok() && *swept > 0) {
      std::cerr << "her: swept " << *swept
                << " stale checkpoint tmp file(s) in " << ckpt.dir
                << std::endl;
    }
    RestoredProgress progress;
    const Status st = TryRestoreBspMeta(ckpt, roots_digest, n, &progress);
    if (st.ok()) {
      result.resumed_from_checkpoint = true;
      start_round = progress.next_round;
      result.supersteps = progress.next_round;
      result.messages = progress.messages;
      result.message_bytes_raw = progress.message_bytes_raw;
      result.message_bytes_wire = progress.message_bytes_wire;
      result.simulated_seconds = progress.simulated_seconds;
      shard_epochs = progress.shard_epochs;
      for (uint32_t f = 0; f < n; ++f) {
        const Status ss = TryRestoreShard(ckpt, f, shard_epochs[f],
                                          roots_digest, workers[f].get());
        if (ss.ok()) {
          dirty[f] = 0;
          continue;
        }
        // Partial rebuild: only this fragment cold-starts.
        std::cerr << "her: checkpoint shard " << f << " invalid ("
                  << ss.ToString() << "); cold-starting fragment " << f
                  << std::endl;
        bootstrap[f] = 1;
        any_bootstrap = true;
      }
      // A failed shard restore may have partially overwritten its
      // fragment, so those fragments are rebuilt from the job input.
      if (any_bootstrap) run.ColdStart(bootstrap, &workers);
    } else {
      // Graceful degradation: a missing/corrupt/stale meta costs the warm
      // start, never correctness. No shard was read, so the fragments are
      // still the cold start's.
      std::cerr << "her: checkpoint resume failed ("
                << st.ToString() << "); starting cold" << std::endl;
    }
  }
  // The first crash checkpoint: the boundary this run starts from (job
  // input, or the resumed state), so a crash plan firing in the first
  // superstep recovers onto the same trajectory.
  if (injector != nullptr) take_checkpoints();

  // Superstep body: PPSim on round 0, IncPSim afterwards. A fragment
  // cold-started by a partial rebuild (`boot`) re-runs its owned
  // candidates at the resumed round — its PPSim — before consuming the
  // inboxes the audit re-derived for it.
  auto superstep = [&](Worker& w, size_t round, bool boot) {
    if (round == 0 || boot) {
      for (const MatchPair& c : w.owned_candidates) {
        w.engine.Match(c.first, c.second);
      }
    }
    if (round != 0) {
      // Inboxes are processed in sorted, deduplicated order so the
      // superstep is invariant to arrival order: duplicated messages,
      // retransmissions and audit-reconstructed deliveries then leave the
      // trajectory bit-identical to the fault-free run.
      std::sort(w.invalid_inbox.begin(), w.invalid_inbox.end());
      w.invalid_inbox.erase(
          std::unique(w.invalid_inbox.begin(), w.invalid_inbox.end()),
          w.invalid_inbox.end());
      std::sort(w.request_inbox.begin(), w.request_inbox.end());
      w.request_inbox.erase(
          std::unique(w.request_inbox.begin(), w.request_inbox.end()),
          w.request_inbox.end());
      // IncPSim step (a)+(b): apply remote invalidations as updates and
      // rerun the cleanup stage on everything depending on them.
      for (const MatchPair& p : w.invalid_inbox) {
        const auto* e = w.engine.Lookup(p.first, p.second);
        if (e == nullptr || e->valid) {
          w.engine.ForceInvalid(p.first, p.second);
        }
      }
      w.invalid_inbox.clear();
      // Answer assumption requests authoritatively (this pair is owned
      // here); remember the subscriber for any later true->false flip and
      // reply immediately when the verdict is already false.
      for (const auto& [p, origin] : w.request_inbox) {
        Subscribe(w, p, origin);
        if (!w.engine.Match(p.first, p.second)) {
          w.direct_replies.emplace_back(p, origin);
        }
      }
      w.request_inbox.clear();
    }
    // Owned pairs that are (now) false and have subscribers become
    // messages; fresh assumptions become requests to their owners.
    for (const MatchPair& p : w.engine.DrainNewlyInvalidated()) {
      w.invalidations_out.push_back(p);
    }
    for (const MatchPair& p : w.engine.DrainNewAssumptions()) {
      w.assumptions_out.push_back(p);
      w.assumed.insert(p);
    }
  };

  // Reliable control-channel sweep: re-derives in-flight messages lost
  // with a crashed host's inboxes from the requester-side assumption
  // sets. Run immediately after a recovery (so the restored fragment's
  // superstep sees exactly the inbox the fault-free run would have
  // delivered) and again at quiescence as a safety net. For every
  // believed-true assumption p of fragment i:
  //
  //  - owner already answered or broadcast false (i is subscribed): the
  //    reply/invalidation itself was lost in flight -> re-deliver the
  //    invalidation, arriving this superstep, exactly when the lost
  //    message would have.
  //  - otherwise the REQUEST never reached (or was never processed by)
  //    the owner -> re-deliver the request; the normal flow answers it
  //    and any false verdict travels back one superstep later, exactly
  //    as it would have fault-free.
  //  - owner confirms the pair valid and the subscription exists: the
  //    state is consistent; nothing to deliver.
  //
  // Deliveries bypass the injector — this models the acknowledged channel
  // a real deployment reserves for control traffic — so every sweep makes
  // progress.
  auto audit = [&]() -> size_t {
    size_t delivered = 0;
    for (uint32_t i = 0; i < n; ++i) {
      Worker& w = *workers[i];
      std::vector<MatchPair> assumed(w.assumed.begin(), w.assumed.end());
      std::sort(assumed.begin(), assumed.end());
      for (const MatchPair& p : assumed) {
        const auto* mine = w.engine.Lookup(p.first, p.second);
        if (mine != nullptr && !mine->valid) continue;  // already repaired
        const uint32_t owner = owner_of(p);
        HER_DCHECK(owner != i);
        Worker& ow = *workers[owner];
        const auto* theirs = ow.engine.Lookup(p.first, p.second);
        const auto subs = ow.subscribers.find(p);
        const bool subscribed =
            subs != ow.subscribers.end() &&
            std::find(subs->second.begin(), subs->second.end(), i) !=
                subs->second.end();
        if (theirs != nullptr && !theirs->valid && subscribed) {
          w.invalid_inbox.push_back(p);
          dirty[i] = 1;
          ++delivered;
        } else if (theirs == nullptr || !subscribed) {
          ow.request_inbox.emplace_back(p, i);
          dirty[owner] = 1;
          ++delivered;
        }
      }
    }
    return delivered;
  };

  if (any_bootstrap) {
    // Partial rebuild: the cold fragments' inboxes died with their shard
    // state. Re-derive every message owed to or by them before the first
    // resumed superstep, exactly as crash recovery does.
    result.messages += audit();
  }

  std::vector<double> busy(n, 0.0);
  for (size_t round = start_round;; ++round) {
    // --- fault hook: host crash at the start of this superstep ---
    if (injector != nullptr && injector->plan().crash.has_value()) {
      const CrashFault crash = *injector->plan().crash;
      if (crash.superstep == round && alive[crash.worker]) {
        // The host dies with everything it held in memory: its fragment's
        // state and the messages routed into its inboxes at the end of the
        // previous superstep.
        const uint32_t victim = crash.worker;
        alive[victim] = false;
        injector->CountInjection();
        ++result.stats.recoveries;
        uint32_t sv = 0;
        while (!alive[sv]) ++sv;
        for (uint32_t f = 0; f < n; ++f) {
          if (host_of[f] == victim) host_of[f] = sv;
        }
        // GRAPE-style data-parallel recovery: rebuild the lost fragment
        // from its last superstep-boundary checkpoint, so the survivor
        // re-executes exactly the computation the dead host would have
        // run.
        workers[victim] = run.Restore(victim, checkpoints[victim]);
        dirty[victim] = 1;  // in-memory state diverged from its shard
        // The in-flight messages that died in the victim's inboxes are
        // re-derived from the surviving assumption sets before the
        // superstep proceeds, so the restored fragment sees the same
        // deliveries the fault-free run would have.
        audit();
      }
    }

    // Parallel phase: one thread per live HOST (shared-nothing: each
    // fragment's engine is touched only by the host carrying it; the
    // graphs and scorers are immutable). A host that inherited a dead
    // peer's fragments runs them sequentially — slower, but on the exact
    // fault-free trajectory. Each host's busy time is taken from its
    // thread CPU clock so the simulated makespan is meaningful even on
    // machines with fewer cores than workers.
    // Fragments whose state this superstep will touch: everything on a
    // PPSim round (round 0 / bootstrap), plus every fragment with pending
    // inbox deliveries. Clean fragments' shards on disk stay valid and
    // the next checkpoint write skips them.
    for (uint32_t f = 0; f < n; ++f) {
      if (round == 0 || bootstrap[f] != 0 ||
          !workers[f]->request_inbox.empty() ||
          !workers[f]->invalid_inbox.empty()) {
        dirty[f] = 1;
      }
    }
    {
      std::vector<std::thread> threads;
      threads.reserve(n);
      for (uint32_t h = 0; h < n; ++h) {
        if (!alive[h]) continue;
        threads.emplace_back([&, h] {
          const double start = ThreadCpuSeconds();
          for (uint32_t f = 0; f < n; ++f) {
            if (host_of[f] == h) {
              superstep(*workers[f], round, bootstrap[f] != 0);
            }
          }
          busy[h] = ThreadCpuSeconds() - start;
        });
      }
      for (auto& t : threads) t.join();
    }
    if (any_bootstrap) {
      std::fill(bootstrap.begin(), bootstrap.end(), 0);
      any_bootstrap = false;
    }
    double round_max = 0.0;
    for (uint32_t h = 0; h < n; ++h) {
      if (alive[h]) round_max = std::max(round_max, busy[h]);
    }
    result.simulated_seconds += round_max;
    ++result.supersteps;

    // Barrier deadline/cancellation check: a stopped run returns within
    // one superstep of expiry, degraded, instead of iterating on.
    bool stopped = options.Expired();
    for (uint32_t i = 0; i < n && !stopped; ++i) {
      if (workers[i]->engine.Stopped()) stopped = true;
    }
    if (stopped) {
      result.degraded = true;
      break;
    }

    const double sync_start = ThreadCpuSeconds();

    // Synchronization phase: route outboxes between fragments, with
    // drop/duplication faults applied per message when a plan is
    // installed. A dropped message is a transient channel fault: the
    // sender retransmits within the sync phase until acknowledged, so the
    // message still arrives this superstep — counted as a fault plus a
    // retry, never a changed trajectory. (Losing a whole inbox for good
    // is the crash story, handled by checkpoint recovery + audit.)
    auto deliveries = [&](FaultChannel channel, const MatchPair& p,
                          uint32_t from, uint32_t to) -> int {
      if (injector == nullptr) return 1;
      if (injector->DropMessage(channel, p, from, to)) {
        ++result.stats.fault_retries;  // retransmitted, then delivered
        return 1;
      }
      return injector->DuplicateMessage(channel, p, from, to) ? 2 : 1;
    };
    bool any_message = false;
    // One frame per (sender, destination) link: outboxes are staged per
    // destination (fault copies applied at staging), sorted, encoded as a
    // varint-delta wire frame and decoded into the destination's inboxes.
    // The receiver consumes inboxes in sorted-deduplicated order, so the
    // compact encoding is invisible to the trajectory — Pi stays
    // bit-identical to the raw struct exchange — while message_bytes_wire
    // records what the wire actually carries vs the raw baseline.
    auto ship_frame = [&](uint32_t from, uint32_t to,
                          const std::vector<MatchPair>& reqs,
                          const std::vector<MatchPair>& invs) {
      ByteWriter frame;
      EncodeMessageFrame(reqs, invs, &frame);
      result.message_bytes_wire += frame.data().size();
      result.message_bytes_raw += RawFrameBytes(reqs.size(), invs.size());
      ByteReader r(frame.data());
      std::vector<MatchPair> dec_reqs;
      std::vector<MatchPair> dec_invs;
      const Status st = DecodeMessageFrame(&r, &dec_reqs, &dec_invs);
      HER_CHECK(st.ok());  // a self-encoded frame always decodes
      Worker& dest = *workers[to];
      for (const MatchPair& p : dec_reqs) {
        dest.request_inbox.emplace_back(p, from);
      }
      for (const MatchPair& p : dec_invs) dest.invalid_inbox.push_back(p);
      result.messages += dec_reqs.size() + dec_invs.size();
      if (!dec_reqs.empty() || !dec_invs.empty()) {
        any_message = true;
        dirty[to] = 1;
      }
    };
    const size_t frame_cap =
        FramePairCapForBudget(config_.worker_mem_budget_bytes);
    std::vector<std::vector<MatchPair>> req_stage(n);
    std::vector<std::vector<MatchPair>> inv_stage(n);
    for (uint32_t i = 0; i < n; ++i) {
      Worker& w = *workers[i];
      for (uint32_t d = 0; d < n; ++d) {
        req_stage[d].clear();
        inv_stage[d].clear();
      }
      for (const MatchPair& p : w.assumptions_out) {
        const uint32_t owner = owner_of(p);
        HER_DCHECK(owner != i);
        const int copies = deliveries(FaultChannel::kRequest, p, i, owner);
        for (int c = 0; c < copies; ++c) req_stage[owner].push_back(p);
      }
      w.assumptions_out.clear();
      // true->false flips broadcast to the subscribers known at flip time
      // (once per pair: the flip is final); requesters that arrived when
      // the verdict was already false got a direct reply instead.
      for (const MatchPair& p : w.invalidations_out) {
        auto it = w.subscribers.find(p);
        if (it == w.subscribers.end()) continue;
        if (!w.notified_false.insert(p).second) continue;
        for (const uint32_t j : it->second) {
          const int copies = deliveries(FaultChannel::kInvalidation, p, i, j);
          for (int c = 0; c < copies; ++c) inv_stage[j].push_back(p);
        }
      }
      w.invalidations_out.clear();
      for (const auto& [p, origin] : w.direct_replies) {
        const int copies =
            deliveries(FaultChannel::kDirectReply, p, i, origin);
        for (int c = 0; c < copies; ++c) inv_stage[origin].push_back(p);
      }
      w.direct_replies.clear();
      for (uint32_t d = 0; d < n; ++d) {
        auto& reqs = req_stage[d];
        auto& invs = inv_stage[d];
        if (reqs.empty() && invs.empty()) continue;
        // Sorted with duplicates preserved: injected duplicate deliveries
        // ride the frame as zero-delta pairs and still reach the inbox
        // twice, keeping the fault accounting identical to raw routing.
        std::sort(reqs.begin(), reqs.end());
        std::sort(invs.begin(), invs.end());
        if (reqs.size() + invs.size() <= frame_cap) {
          ship_frame(i, d, reqs, invs);
        } else {
          // Budgeted batching: oversized links ship as several frames.
          // Each chunk is itself sorted, and the receiver's
          // consumption-time sort+dedupe makes frame boundaries invisible
          // to the trajectory.
          std::vector<MatchPair> chunk;
          const std::vector<MatchPair> none;
          for (size_t off = 0; off < reqs.size(); off += frame_cap) {
            chunk.assign(
                reqs.begin() + off,
                reqs.begin() + std::min(reqs.size(), off + frame_cap));
            ship_frame(i, d, chunk, none);
          }
          for (size_t off = 0; off < invs.size(); off += frame_cap) {
            chunk.assign(
                invs.begin() + off,
                invs.begin() + std::min(invs.size(), off + frame_cap));
            ship_frame(i, d, none, chunk);
          }
        }
      }
    }

    // Superstep-boundary crash checkpoints (only under a fault plan:
    // production runs without an injector pay nothing).
    if (injector != nullptr) {
      take_checkpoints();
      result.stats.checkpoints += n;
    }
    result.simulated_seconds += ThreadCpuSeconds() - sync_start;

    bool fixpoint = false;
    if (!any_message) {
      // Fixpoint candidate: under faults, audit the assumptions before
      // accepting it — repairs count as (reliable) messages and force
      // another superstep.
      size_t repaired = 0;
      if (injector != nullptr) repaired = audit();
      if (repaired == 0) {
        fixpoint = true;  // fixpoint: R_i^{r*} == R_i^{r*+1}
      } else {
        result.messages += repaired;
      }
    }

    // Durable checkpoint: written after routing and audit repair — the
    // boundary where inboxes hold exactly the deliveries the next
    // superstep consumes and every outbox is empty — so a resumed run
    // entering round + 1 is bit-identical to this run continuing.
    // Skipped at the fixpoint: the run is finishing, nothing to save. A
    // failed write is logged and costs only durability, never progress.
    const bool halting = ckpt.halt_after_supersteps > 0 &&
                         result.supersteps >= ckpt.halt_after_supersteps;
    if (ckpt_enabled && !fixpoint &&
        (halting || (ckpt.every_supersteps > 0 &&
                     result.supersteps % ckpt.every_supersteps == 0))) {
      const Status st = WriteBspCheckpoint(ckpt, round + 1, roots_digest,
                                           result, workers, dirty,
                                           &shard_epochs);
      if (st.ok()) {
        ++result.stats.disk_checkpoints;
        std::fill(dirty.begin(), dirty.end(), 0);
      } else {
        std::cerr << "her: checkpoint write failed: " << st.ToString()
                  << std::endl;
      }
    }
    if (halting && !fixpoint) {
      // Test/CI kill point: progress is on disk, the caller aborts here.
      result.halted = true;
      break;
    }
    if (fixpoint) break;
  }

  run.Finish(workers, roots, &result);
  return result;
}

ParallelResult BspAllMatch::Run(std::span<const VertexId> tuple_vertices,
                                const InvertedIndex* index,
                                const RunOptions& options) {
  WallTimer gen_timer;
  std::vector<MatchPair> candidates =
      GenerateCandidates(ScanContext(), tuple_vertices, index);
  const double gen_seconds = gen_timer.Seconds();
  ParallelResult result = RunOnCandidates(std::move(candidates), options);
  if (result.status.ok()) {
    // One scan for the whole run, outside every worker's engine.
    result.stats.candidate_gen_seconds = gen_seconds;
    result.stats.candidate_gen_runs = 1;
  }
  return result;
}

ParallelResult BspAllMatch::RunVPair(VertexId u_t, const InvertedIndex* index,
                                     const RunOptions& options) {
  const VertexId roots[] = {u_t};
  return Run(roots, index, options);
}

MatchContext BspAllMatch::ScanContext() const {
  // Shallow copy (borrowed pointers + the shared vertex-pool handle) with
  // the run's candidate-generation override applied, if any.
  MatchContext scan = ctx_;
  if (config_.candidate_gen.has_value()) {
    scan.candidate_gen = *config_.candidate_gen;
  }
  return scan;
}

}  // namespace her
