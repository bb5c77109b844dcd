#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <mutex>

#include "common/bytes.h"
#include "common/check.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "learn/metrics.h"
#include "persist/snapshot.h"

namespace her {
namespace {

constexpr char kStateEdgesSection[] = "serve_edges";
constexpr char kStateFeedbackSection[] = "serve_feedback";
constexpr char kStateMetaSection[] = "serve_meta";

/// EWMA blend weight for the admission cost model: heavy enough to adapt
/// to phase changes, light enough that one outlier does not whipsaw the
/// gate.
constexpr double kEwmaAlpha = 0.25;

double SecondsOf(std::chrono::milliseconds ms) {
  return std::chrono::duration<double>(ms).count();
}

}  // namespace

const char* ServePhaseName(ServePhase phase) {
  switch (phase) {
    case ServePhase::kStarting: return "starting";
    case ServePhase::kServing: return "serving";
    case ServePhase::kDraining: return "draining";
    case ServePhase::kStopped: return "stopped";
  }
  return "?";
}

const char* OpOutcomeName(OpOutcome outcome) {
  switch (outcome) {
    case OpOutcome::kAccepted: return "accepted";
    case OpOutcome::kRejected: return "rejected";
    case OpOutcome::kDegraded: return "degraded";
  }
  return "?";
}

HerServer::HerServer(ServeConfig config, const GeneratedDataset& data)
    : config_(std::move(config)),
      data_(&data),
      env_(config_.env != nullptr ? config_.env : Env::Default()) {
  // Logical edge state starts as the base graph, with its label dictionary
  // as the stable label space every rebuilt Graph re-interns in id order.
  edges_.resize(data.g.num_vertices());
  for (VertexId v = 0; v < data.g.num_vertices(); ++v) {
    for (const Edge& e : data.g.OutEdges(v)) {
      edges_[v].emplace_back(e.dst, e.label);
    }
  }
}

Result<std::unique_ptr<HerServer>> HerServer::Open(
    ServeConfig config, const GeneratedDataset& data) {
  if (config.dir.empty()) {
    return Status::InvalidArgument("serve: config.dir is required");
  }
  std::error_code ec;
  std::filesystem::create_directories(config.dir, ec);
  if (ec) {
    return Status::IOError("serve: cannot create dir '" + config.dir +
                           "': " + ec.message());
  }
  std::unique_ptr<HerServer> server(new HerServer(std::move(config), data));
  // A crash between "write tmp" and "rename into place" leaves orphaned
  // *.tmp debris no live process will ever clean up; sweep it before any
  // recovery read can get confused by it.
  HER_ASSIGN_OR_RETURN(const size_t swept,
                       SweepStaleTmpFiles(server->env_, server->config_.dir));
  server->stats_.tmp_files_swept = swept;
  HER_RETURN_NOT_OK(server->Recover());
  return server;
}

Status HerServer::Recover() {
  const AnnotationSplit split = SplitAnnotations(data_->annotations);
  system_ = std::make_unique<HerSystem>(data_->canonical, data_->g,
                                        config_.her);
  system_->TrainOrLoad(config_.dir + "/model.snap", data_->path_pairs,
                       split.validation, env_);
  // The binding key of serve.state and serve.wal: the fingerprint of the
  // BASE setup (graphs, thresholds, seed), captured before any mutation.
  fingerprint_ = system_->Fingerprint();

  bool snapshot_loaded = false;
  HER_RETURN_NOT_OK(LoadStateSnapshot(&snapshot_loaded));
  if (snapshot_loaded) {
    stats_.recovered = true;
    // Re-point the engine at the snapshot's edge state; a snapshot equal
    // to the base state diffs to an empty change set and costs nothing.
    auto next = std::make_unique<Graph>(BuildCurrentGraph());
    system_->UpdateGraph(*next);
    graph_ = std::move(next);
    for (const auto& [pair, verdict] : feedback_) {
      system_->AddFeedbackOverride(pair.first, pair.second, verdict);
    }
  }

  const std::string wal_path = config_.dir + "/serve.wal";
  size_t wal_valid_bytes = 0;
  auto replay = ReadWal(wal_path, env_);
  if (replay.ok()) {
    if (replay->fingerprint != fingerprint_) {
      return Status::FailedPrecondition(
          "serve: WAL belongs to a different serving setup (fingerprint "
          "mismatch)");
    }
    wal_valid_bytes = replay->valid_bytes;
    stats_.wal_bytes_discarded = replay->discarded_bytes;
    HER_RETURN_NOT_OK(ReplayWalRecords(replay->records));
  } else if (replay.status().code() != StatusCode::kNotFound) {
    // An unreadable header is not a torn tail: nothing in the log can be
    // trusted, and silently starting fresh would drop acknowledged
    // writes. Surface it to the operator instead.
    return replay.status();
  }

  HER_ASSIGN_OR_RETURN(wal_, WalWriter::Open(wal_path, fingerprint_,
                                             wal_valid_bytes, env_));
  recovered_max_seq_ = last_seq_;
  phase_ = ServePhase::kServing;
  return Status::OK();
}

Status HerServer::LoadStateSnapshot(bool* loaded) {
  *loaded = false;
  const std::string path = config_.dir + "/serve.state";
  auto reader = SnapshotReader::Open(path, fingerprint_, env_);
  if (!reader.ok()) {
    // Missing, damaged or stale snapshots degrade to the base state (the
    // WAL still replays on top); only programming errors would make this
    // fatal.
    return Status::OK();
  }
  auto meta = reader->Section(kStateMetaSection);
  auto edges = reader->Section(kStateEdgesSection);
  auto feedback = reader->Section(kStateFeedbackSection);
  if (!meta.ok() || !edges.ok() || !feedback.ok()) return Status::OK();

  uint64_t applied = 0;
  uint64_t last = 0;
  std::vector<uint64_t> quarantined;
  HER_RETURN_NOT_OK(meta->GetVarint(&applied));
  HER_RETURN_NOT_OK(meta->GetVarint(&last));
  HER_RETURN_NOT_OK(meta->GetIntVec(&quarantined));

  uint64_t num_vertices = 0;
  HER_RETURN_NOT_OK(edges->GetCount(&num_vertices));
  if (num_vertices != data_->g.num_vertices()) {
    return Status::OK();  // alien snapshot; fingerprint should prevent this
  }
  std::vector<std::vector<std::pair<VertexId, LabelId>>> state(num_vertices);
  const size_t num_labels = data_->g.edge_labels().size();
  for (uint64_t v = 0; v < num_vertices; ++v) {
    uint64_t count = 0;
    HER_RETURN_NOT_OK(edges->GetCount(&count, 2));
    state[v].reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t dst = 0;
      uint64_t label = 0;
      HER_RETURN_NOT_OK(edges->GetVarint(&dst));
      HER_RETURN_NOT_OK(edges->GetVarint(&label));
      if (dst >= num_vertices || label >= num_labels) {
        return Status::OK();  // out-of-range ids: distrust the snapshot
      }
      state[v].emplace_back(static_cast<VertexId>(dst),
                            static_cast<LabelId>(label));
    }
  }

  uint64_t overrides = 0;
  HER_RETURN_NOT_OK(feedback->GetCount(&overrides, 3));
  std::unordered_map<MatchPair, bool, PairHash> fb;
  for (uint64_t i = 0; i < overrides; ++i) {
    uint64_t u = 0;
    uint64_t v = 0;
    uint8_t verdict = 0;
    HER_RETURN_NOT_OK(feedback->GetVarint(&u));
    HER_RETURN_NOT_OK(feedback->GetVarint(&v));
    HER_RETURN_NOT_OK(feedback->GetU8(&verdict));
    fb[MatchPair{static_cast<VertexId>(u), static_cast<VertexId>(v)}] =
        verdict != 0;
  }

  edges_ = std::move(state);
  feedback_ = std::move(fb);
  applied_seq_ = applied;
  last_seq_ = std::max(last_seq_, last);
  quarantined_ = std::move(quarantined);
  *loaded = true;
  return Status::OK();
}

Status HerServer::ReplayWalRecords(const std::vector<std::string>& records) {
  size_t replayed = 0;
  for (const std::string& payload : records) {
    Mutation m;
    HER_RETURN_NOT_OK(DecodeMutation(payload, &m));
    if (m.seq <= applied_seq_) continue;  // already covered by the snapshot
    last_seq_ = std::max(last_seq_, m.seq);
    ++replayed;
    // The SAME quarantine decision the live server took: a pure
    // function of (fault_seed, seq), so replay converges on the exact
    // pre-crash state, poisoned ops included.
    if (Poisoned(m.seq)) {
      quarantined_.push_back(m.seq);
      ++stats_.quarantined;
      continue;
    }
    if (!ValidateMutation(m).ok()) {
      // A logged record its own prefix no longer supports (should not
      // happen; quarantine rather than wedge recovery).
      quarantined_.push_back(m.seq);
      ++stats_.quarantined;
      continue;
    }
    ApplyToState(m);
    if (m.kind == OpKind::kEdgeInsert || m.kind == OpKind::kEdgeDelete) {
      pending_.push_back(m);
    }
  }
  stats_.wal_records_replayed = replayed;
  if (replayed > 0) stats_.recovered = true;
  ApplyPending(std::chrono::milliseconds{0});
  return Status::OK();
}

std::string HerServer::EncodeMutation(const Mutation& m) const {
  ByteWriter w;
  w.PutVarint(m.seq);
  w.PutU8(static_cast<uint8_t>(m.kind));
  w.PutVarint(m.u);
  w.PutVarint(m.v);
  w.PutU8(m.is_match ? 1 : 0);
  // Label by NAME: the log stays readable without the base graph's
  // dictionary, and decode re-interns against it.
  w.PutString(m.label == kInvalidLabel ? ""
                                       : data_->g.EdgeLabelName(m.label));
  return w.data();
}

Status HerServer::DecodeMutation(std::string_view payload,
                                 Mutation* out) const {
  ByteReader r(payload);
  uint64_t seq = 0;
  uint8_t kind = 0;
  uint64_t u = 0;
  uint64_t v = 0;
  uint8_t is_match = 0;
  std::string label;
  HER_RETURN_NOT_OK(r.GetVarint(&seq));
  HER_RETURN_NOT_OK(r.GetU8(&kind));
  HER_RETURN_NOT_OK(r.GetVarint(&u));
  HER_RETURN_NOT_OK(r.GetVarint(&v));
  HER_RETURN_NOT_OK(r.GetU8(&is_match));
  HER_RETURN_NOT_OK(r.GetString(&label));
  out->seq = seq;
  out->kind = static_cast<OpKind>(kind);
  out->u = static_cast<VertexId>(u);
  out->v = static_cast<VertexId>(v);
  out->is_match = is_match != 0;
  out->label =
      label.empty() ? kInvalidLabel : data_->g.edge_labels().Find(label);
  switch (out->kind) {
    case OpKind::kEdgeInsert:
    case OpKind::kEdgeDelete:
    case OpKind::kFeedbackUpsert:
    case OpKind::kFeedbackErase:
      return Status::OK();
    default:
      return Status::IOError("serve: WAL record with unknown op kind " +
                             std::to_string(kind));
  }
}

Status HerServer::ValidateMutation(const Mutation& m) const {
  const size_t num_g = data_->g.num_vertices();
  const size_t num_gd = data_->canonical.graph().num_vertices();
  switch (m.kind) {
    case OpKind::kEdgeInsert:
    case OpKind::kEdgeDelete: {
      if (m.u >= num_g || m.v >= num_g) {
        return Status::OutOfRange("serve: edge endpoint out of range");
      }
      if (m.label == kInvalidLabel) {
        // The trained vocabulary has no token for a label the base graph
        // never interned; admitting it would silently change the models'
        // input space.
        return Status::InvalidArgument(
            "serve: unknown edge label (not in the trained label space)");
      }
      const auto& adj = edges_[m.u];
      const bool present =
          std::find(adj.begin(), adj.end(),
                    std::make_pair(m.v, m.label)) != adj.end();
      if (m.kind == OpKind::kEdgeInsert && present) {
        return Status::AlreadyExists("serve: edge already present");
      }
      if (m.kind == OpKind::kEdgeDelete && !present) {
        return Status::NotFound("serve: edge not present");
      }
      return Status::OK();
    }
    case OpKind::kFeedbackUpsert:
    case OpKind::kFeedbackErase: {
      if (m.u >= num_gd || m.v >= num_g) {
        return Status::OutOfRange("serve: feedback pair out of range");
      }
      if (m.kind == OpKind::kFeedbackErase &&
          feedback_.find(MatchPair{m.u, m.v}) == feedback_.end()) {
        return Status::NotFound("serve: no feedback override for pair");
      }
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("serve: not a mutation kind");
  }
}

void HerServer::ApplyToState(const Mutation& m) {
  switch (m.kind) {
    case OpKind::kEdgeInsert:
      edges_[m.u].emplace_back(m.v, m.label);
      break;
    case OpKind::kEdgeDelete: {
      auto& adj = edges_[m.u];
      const auto it =
          std::find(adj.begin(), adj.end(), std::make_pair(m.v, m.label));
      HER_DCHECK(it != adj.end());
      if (it != adj.end()) adj.erase(it);
      break;
    }
    case OpKind::kFeedbackUpsert:
      feedback_[MatchPair{m.u, m.v}] = m.is_match;
      system_->AddFeedbackOverride(m.u, m.v, m.is_match);
      break;
    case OpKind::kFeedbackErase:
      feedback_.erase(MatchPair{m.u, m.v});
      system_->RemoveFeedbackOverride(m.u, m.v);
      break;
    default:
      break;
  }
}

Graph HerServer::BuildCurrentGraph() const {
  const Graph& base = data_->g;
  GraphBuilder b;
  size_t num_edges = 0;
  for (const auto& adj : edges_) num_edges += adj.size();
  b.Reserve(base.num_vertices(), num_edges);
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    b.AddVertex(base.label(v));
  }
  // Stable label space: every rebuild interns the full base dictionary in
  // id order, so LabelIds coincide across versions and an insertion that
  // uses a label no current edge carries still resolves.
  for (LabelId id = 0; id < base.edge_labels().size(); ++id) {
    b.InternEdgeLabel(base.edge_labels().Name(id));
  }
  for (VertexId src = 0; src < edges_.size(); ++src) {
    for (const auto& [dst, label] : edges_[src]) {
      b.AddEdge(src, dst, label);
    }
  }
  return std::move(b).Build();
}

bool HerServer::Poisoned(uint64_t seq) const {
  return HashToUniform(Mix64(config_.fault_seed ^ Mix64(seq ^ 0x901500af))) <
         config_.poison_prob;
}

void HerServer::ApplyPending(std::chrono::milliseconds read_deadline) {
  // One deadline for the whole pass: the UpdateGraph call and the one
  // CompleteUpdate of a parked pass share it.
  const bool bounded = read_deadline.count() > 0;
  const auto budget = bounded ? read_deadline : config_.maintenance_deadline;
  const RunOptions pass =
      budget.count() > 0 ? RunOptions::WithTimeout(budget) : RunOptions{};

  if (!pending_.empty()) {
    WallTimer timer;
    auto next = std::make_unique<Graph>(BuildCurrentGraph());
    system_->UpdateGraph(*next, pass);
    graph_ = std::move(next);
    const double elapsed = timer.Seconds();
    const double per_op = elapsed / static_cast<double>(pending_.size());
    ewma_apply_seconds_ = ewma_apply_seconds_ <= 0.0
                              ? per_op
                              : (1.0 - kEwmaAlpha) * ewma_apply_seconds_ +
                                    kEwmaAlpha * per_op;
    stats_.applied_mutations += pending_.size();
    stats_.apply_batches += 1;
    applied_since_checkpoint_ += pending_.size();
    pending_.clear();
  }

  // A parked pass (this one, or one an earlier read's deadline parked)
  // continues under the same deadline. Progress is monotone (re-ranked
  // rows never repeat). With a read waiting we stop at its deadline and
  // serve it degraded; otherwise the pass finishes unbounded —
  // correctness over latency. Only a call that returns with the pass
  // unfinished counts it as parked; the call that finishes it does not.
  if (!system_->UpdateComplete()) {
    (void)system_->CompleteUpdate(pass);
    if (!system_->UpdateComplete() && !bounded) {
      HER_CHECK(system_->CompleteUpdate({}).ok());
    }
  }
  if (!system_->UpdateComplete()) ++stats_.apply_parked;
}

double HerServer::BacklogSeconds() const {
  double backlog =
      static_cast<double>(pending_.size()) * ewma_apply_seconds_;
  if (!system_->UpdateComplete()) backlog += ewma_apply_seconds_;
  return backlog;
}

OpResult HerServer::Submit(const ServeOp& op) {
  std::lock_guard<std::mutex> lock(mu_);
  OpResult result;
  WallTimer timer;
  const bool is_write = IsWriteOp(op.kind);
  const auto reject = [&](Status status) {
    result.outcome = OpOutcome::kRejected;
    result.status = std::move(status);
    result.service_seconds = timer.Seconds();
    if (is_write) {
      ++stats_.rejected_writes;
    } else {
      ++stats_.rejected_reads;
    }
    return result;
  };

  if (phase_ != ServePhase::kServing) {
    return reject(Status::FailedPrecondition(
        std::string("serve: not serving (phase ") + ServePhaseName(phase_) +
        ")"));
  }
  if (op.seq <= last_seq_ && is_write) {
    return reject(Status::InvalidArgument(
        "serve: non-monotonic op seq " + std::to_string(op.seq) +
        " (last " + std::to_string(last_seq_) + ")"));
  }
  return is_write ? ServeWrite(op) : ServeRead(op);
}

OpResult HerServer::ServeWrite(const ServeOp& op) {
  OpResult result;
  WallTimer timer;
  const auto reject = [&](Status status) {
    result.outcome = OpOutcome::kRejected;
    result.status = std::move(status);
    result.service_seconds = timer.Seconds();
    ++stats_.rejected_writes;
    return result;
  };

  // Degraded durability: every write submission first gives the repair a
  // (backoff-gated) chance; if the server is still degraded the write is
  // refused — nothing that cannot be durably logged gets acknowledged.
  if (!MaybeRepairLocked()) {
    return reject(Status::ResourceExhausted(
        "serve: durability degraded (" + degraded_reason_.ToString() +
        "); write refused until checkpoint repair succeeds"));
  }

  Mutation m;
  m.seq = op.seq;
  m.kind = op.kind;
  m.u = op.u;
  m.v = op.v;
  m.is_match = op.is_match;
  m.label = op.label.empty() ? kInvalidLabel
                             : data_->g.edge_labels().Find(op.label);
  Status valid = ValidateMutation(m);
  if (!valid.ok()) return reject(std::move(valid));

  // Admission tier 1: writes are the first load to shed — an explicit
  // reject the client can retry, never a silent drop.
  if (pending_.size() >= config_.queue_soft_limit) {
    return reject(Status::ResourceExhausted(
        "serve: overloaded (write queue at soft limit " +
        std::to_string(config_.queue_soft_limit) + ")"));
  }
  if (op.deadline.count() > 0 &&
      BacklogSeconds() + ewma_apply_seconds_ > SecondsOf(op.deadline)) {
    return reject(Status::ResourceExhausted(
        "serve: estimated apply backlog exceeds the op deadline"));
  }

  // Durability point: the mutation is CRC-framed and fsync'd BEFORE any
  // state changes — an acknowledged write survives SIGKILL from here on.
  // A failed append (ENOSPC, EIO, failed fsync) must never acknowledge:
  // the op is rejected, last_seq_ stays (the client may retry the seq),
  // and the server degrades — the log tail is indeterminate until a
  // checkpoint repair replaces the file.
  const Status logged =
      wal_ != nullptr ? wal_->Append(EncodeMutation(m))
                      : Status::IOError("serve: WAL writer unavailable");
  if (!logged.ok()) {
    ++stats_.wal_append_failures;
    EnterDegraded(logged);
    return reject(logged);
  }
  last_seq_ = op.seq;

  if (Poisoned(m.seq)) {
    // Poisoned op: durably logged but permanently failing to apply.
    // Quarantine it — deterministically, so recovery re-reaches the same
    // decision — instead of letting it wedge every later mutation.
    quarantined_.push_back(m.seq);
    ++stats_.quarantined;
  } else {
    ApplyToState(m);
    if (m.kind == OpKind::kEdgeInsert || m.kind == OpKind::kEdgeDelete) {
      pending_.push_back(m);
      if (pending_.size() >= config_.apply_batch) {
        ApplyPending(std::chrono::milliseconds{0});
      }
    }
    // Checkpoint cadence is counted in APPLIED mutations, wherever the
    // apply happened — reads flush the queue too, so gating this on a
    // full write batch would let a read-heavy workload starve the
    // snapshot cadence indefinitely.
    if (config_.checkpoint_every > 0 &&
        applied_since_checkpoint_ >= config_.checkpoint_every) {
      // Snapshot compaction failing is not a request failure — this op
      // is already durably logged; the failure degrades durability for
      // FUTURE writes instead (handled inside).
      (void)CheckpointLocked();
    }
  }

  ++stats_.accepted_writes;
  result.outcome = OpOutcome::kAccepted;
  result.service_seconds = timer.Seconds();
  return result;
}

OpResult HerServer::ServeRead(const ServeOp& op) {
  OpResult result;
  WallTimer timer;
  const auto reject = [&](Status status) {
    result.outcome = OpOutcome::kRejected;
    result.status = std::move(status);
    result.service_seconds = timer.Seconds();
    ++stats_.rejected_reads;
    return result;
  };

  const size_t num_gd = data_->canonical.graph().num_vertices();
  const size_t num_g = data_->g.num_vertices();
  if (op.u >= num_gd || (op.kind == OpKind::kSPair && op.v >= num_g)) {
    return reject(Status::OutOfRange("serve: read pair out of range"));
  }

  const double deadline_s = SecondsOf(op.deadline);
  // Admission tier 2: under hard-limit pressure, or when the estimated
  // catch-up work cannot fit the deadline, reads degrade to the current
  // (stale) engine state with an explicit staleness marker — they keep
  // being answered, never failed, never silently dropped.
  bool fresh = true;
  if (pending_.size() >= config_.queue_hard_limit) {
    fresh = false;
  } else if (op.deadline.count() > 0 &&
             BacklogSeconds() + ewma_read_seconds_ > deadline_s) {
    fresh = false;
  }
  if (fresh && (!pending_.empty() || !system_->UpdateComplete())) {
    ApplyPending(op.deadline);
  }
  const uint64_t staleness =
      pending_.size() + (system_->UpdateComplete() ? 0 : 1);

  // Bound the evaluation itself by the op deadline; an expiring engine
  // aborts without caching partial verdicts (RunOptions contract).
  MatchEngine& engine = system_->engine();
  RunOptions eval_options;
  if (op.deadline.count() > 0) {
    const double remaining = std::max(deadline_s - timer.Seconds(), 0.001);
    eval_options = RunOptions::WithTimeout(std::chrono::microseconds(
        static_cast<int64_t>(remaining * 1e6)));
  }
  engine.SetRunOptions(eval_options);
  if (op.kind == OpKind::kSPair) {
    result.match = system_->SPairVertex(op.u, op.v);
  } else {
    result.matches = system_->VPairVertex(op.u);
  }
  const bool eval_stopped = engine.Stopped();
  engine.SetRunOptions({});

  result.service_seconds = timer.Seconds();
  result.staleness = staleness;
  const bool late = op.deadline.count() > 0 &&
                    result.service_seconds > deadline_s;
  if (staleness > 0 || eval_stopped || late) {
    // Late fresh answers count as degraded too: the deadline contract of
    // an ACCEPTED read is that it finished inside its deadline.
    result.outcome = OpOutcome::kDegraded;
    ++stats_.degraded_reads;
  } else {
    result.outcome = OpOutcome::kAccepted;
    ++stats_.accepted_reads;
    ewma_read_seconds_ = ewma_read_seconds_ <= 0.0
                             ? result.service_seconds
                             : (1.0 - kEwmaAlpha) * ewma_read_seconds_ +
                                   kEwmaAlpha * result.service_seconds;
  }
  return result;
}

Status HerServer::WriteStateSnapshot() const {
  SnapshotWriter writer(fingerprint_);
  ByteWriter* meta = writer.AddSection(kStateMetaSection);
  meta->PutVarint(applied_seq_);
  meta->PutVarint(last_seq_);
  meta->PutIntVec(quarantined_);

  ByteWriter* edges = writer.AddSection(kStateEdgesSection);
  edges->PutVarint(edges_.size());
  for (const auto& adj : edges_) {
    edges->PutVarint(adj.size());
    for (const auto& [dst, label] : adj) {
      edges->PutVarint(dst);
      edges->PutVarint(label);
    }
  }

  ByteWriter* feedback = writer.AddSection(kStateFeedbackSection);
  // Deterministic section bytes: the override map is unordered.
  std::vector<std::pair<MatchPair, bool>> sorted(feedback_.begin(),
                                                 feedback_.end());
  std::sort(sorted.begin(), sorted.end());
  feedback->PutVarint(sorted.size());
  for (const auto& [pair, verdict] : sorted) {
    feedback->PutVarint(pair.first);
    feedback->PutVarint(pair.second);
    feedback->PutU8(verdict ? 1 : 0);
  }
  return writer.WriteToFile(config_.dir + "/serve.state", env_);
}

Status HerServer::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

Status HerServer::CheckpointLocked() {
  // Flush so the snapshot covers a clean prefix: every admitted op is
  // either applied or quarantined when the state file is cut.
  ApplyPending(std::chrono::milliseconds{0});
  const uint64_t prev_applied = applied_seq_;
  applied_seq_ = last_seq_;
  Status st = WriteStateSnapshot();
  if (!st.ok()) {
    // Atomic install failed closed: the previous serve.state is untouched
    // and still pairs with the full WAL. Roll the in-memory frontier back
    // to match the disk that actually exists.
    applied_seq_ = prev_applied;
    ++stats_.checkpoint_failures;
    EnterDegraded(st);
    return st;
  }
  // Truncation replaces the log file (rename); reopen the writer on the
  // new inode. Crash between the two leaves snapshot + full WAL — replay
  // skips everything at or below the snapshot's applied seq.
  st = TruncateWal(config_.dir + "/serve.wal", fingerprint_, env_);
  if (!st.ok()) {
    ++stats_.checkpoint_failures;
    EnterDegraded(st);
    return st;
  }
  auto writer = WalWriter::Open(config_.dir + "/serve.wal", fingerprint_, 0,
                                env_);
  if (!writer.ok()) {
    // The old handle appends to the renamed-over inode; frames written
    // there would vanish. Drop it — degraded mode keeps writes out until
    // a repair reopens the log.
    wal_.reset();
    ++stats_.checkpoint_failures;
    EnterDegraded(writer.status());
    return writer.status();
  }
  wal_ = std::move(writer).value();
  applied_since_checkpoint_ = 0;
  ++stats_.checkpoints;
  if (degraded_) {
    degraded_ = false;
    degraded_reason_ = Status::OK();
    ++stats_.durability_repairs;
    std::cerr << "serve: durability repaired (checkpoint succeeded); "
                 "accepting writes again" << std::endl;
  }
  return Status::OK();
}

void HerServer::EnterDegraded(const Status& why) {
  degraded_reason_ = why;
  if (degraded_) return;  // ongoing episode keeps its backoff schedule
  degraded_ = true;
  ++stats_.durability_degraded;
  repair_attempts_ = 0;
  writes_until_repair_ = 0;  // first repair attempt is immediate
  std::cerr << "serve: durability degraded (" << why.ToString()
            << "); rejecting writes, serving reads, retrying checkpoint "
               "with backoff" << std::endl;
}

bool HerServer::MaybeRepairLocked() {
  if (!degraded_) return true;
  if (writes_until_repair_ > 0) {
    --writes_until_repair_;
    return false;
  }
  if (CheckpointLocked().ok()) return true;  // success clears degraded_
  // Exponential op-count backoff: the k-th failed repair waits 2^k write
  // submissions (capped) before the next attempt, so a persistently full
  // disk is not hammered with a snapshot write per rejected op.
  ++repair_attempts_;
  writes_until_repair_ = 1ull << std::min(repair_attempts_, 8);
  return false;
}

Status HerServer::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ == ServePhase::kStopped) return Status::OK();
  phase_ = ServePhase::kDraining;
  const Status st = CheckpointLocked();
  phase_ = ServePhase::kStopped;
  return st;
}

}  // namespace her
