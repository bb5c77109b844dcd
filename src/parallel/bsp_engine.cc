#include "parallel/bsp_engine.h"

#include <algorithm>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "common/bytes.h"
#include "common/check.h"
#include "common/file_util.h"
#include "common/proc_stats.h"
#include "common/timer.h"
#include "parallel/fragment.h"
#include "parallel/wire_format.h"
#include "persist/snapshot.h"

namespace her {

namespace {

/// Runs fn(f) for every fragment f, one thread each, and joins them all.
/// Shared-nothing: each thread touches only fragment f's state.
template <typename Fn>
void OnFragmentThreads(uint32_t n, const Fn& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (uint32_t f = 0; f < n; ++f) threads.emplace_back([&fn, f] { fn(f); });
  for (auto& t : threads) t.join();
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

/// Sums one worker's per-engine counters into the aggregate.
void SumWorkerStats(const MatchEngine::Stats& s, MatchEngine::Stats* agg) {
  agg->para_match_calls += s.para_match_calls;
  agg->cache_hits += s.cache_hits;
  agg->cleanup_reruns += s.cleanup_reruns;
  agg->stale_restarts += s.stale_restarts;
  agg->hrho_evaluations += s.hrho_evaluations;
  agg->border_assumptions += s.border_assumptions;
  agg->hrho_embed_reuse += s.hrho_embed_reuse;
}

/// Fills matches/outcomes/unresolved_pairs from the workers' verdicts for
/// the (sorted, deduplicated) root candidates, through ResolveOutcomes.
/// Only owner-side (authoritative) verdicts are consulted — a worker's own
/// border assumptions may never have been confirmed — so in a degraded run
/// (deadline/cancellation) a pair counts proved only when its whole
/// witness closure across all fragments is proved by its owners.
void CollectResults(const std::vector<std::unique_ptr<Worker>>& workers,
                    const PairOwner& owner_of,
                    const std::vector<MatchPair>& roots,
                    ParallelResult* result) {
  const std::vector<PairOutcome> outcomes = ResolveOutcomes(
      roots, result->degraded, [&](const MatchPair& p) {
        return workers[owner_of(p)]->engine.Lookup(p.first, p.second);
      });
  result->outcomes.reserve(roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    if (outcomes[i] == PairOutcome::kProved) {
      result->matches.push_back(roots[i]);
    }
    if (outcomes[i] == PairOutcome::kUnresolved) ++result->unresolved_pairs;
    result->outcomes.push_back({roots[i], outcomes[i]});
  }
  result->stats.unresolved_pairs = result->unresolved_pairs;
  if (result->degraded) result->stats.deadline_expired = 1;
}

std::vector<MatchPair> SortedUnique(std::span<const MatchPair> candidates) {
  std::vector<MatchPair> roots(candidates.begin(), candidates.end());
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return roots;
}

// --- checkpoints --------------------------------------------------------
//
// One capture per superstep boundary (SaveWorker, parallel/fragment.h)
// feeds both recovery paths: a crashed fragment is restored from it in
// memory, and a durable checkpoint writes the same bytes to disk as one
// file, `<dir>/bsp.ckpt`. The capture is
// taken after routing and the audit — inboxes hold exactly the deliveries
// the next superstep consumes and every outbox is empty — so a fragment
// restored from it re-executes exactly the computation the interrupted
// run would have. The greedy lineage matching is not confluent, so any
// weaker capture could land on a different fixpoint.

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

std::string CheckpointPath(const CheckpointOptions& ckpt) {
  return ckpt.dir + "/bsp.ckpt";
}

constexpr char kBspMetaSection[] = "bsp_meta";

std::string FragmentSection(size_t fragment) {
  return "bsp_frag" + std::to_string(fragment);
}

/// Installs the durable checkpoint: one snapshot file holding the run's
/// progress (`bsp_meta`) and every fragment's boundary capture
/// (`bsp_frag<f>`). The install is atomic, so a crash mid-write leaves
/// the previous checkpoint intact.
Status WriteBspCheckpoint(const CheckpointOptions& ckpt, size_t next_round,
                          uint64_t roots_digest, const ParallelResult& result,
                          const std::vector<ByteWriter>& captures) {
  SnapshotWriter snap(ckpt.fingerprint);
  ByteWriter* meta = snap.AddSection(kBspMetaSection);
  meta->PutVarint(next_round);
  meta->PutVarint(captures.size());
  meta->PutU64(roots_digest);
  meta->PutVarint(result.messages);
  meta->PutVarint(result.message_bytes_raw);
  meta->PutVarint(result.message_bytes_wire);
  meta->PutDouble(result.simulated_seconds);
  for (size_t f = 0; f < captures.size(); ++f) {
    const std::string& bytes = captures[f].data();
    snap.AddSection(FragmentSection(f))->PutBytes(bytes.data(), bytes.size());
  }
  return snap.WriteToFile(CheckpointPath(ckpt), ckpt.env);
}

/// Progress counters restored alongside the worker state, so a resumed
/// run's telemetry keeps accounting for the supersteps already executed.
struct RestoredProgress {
  size_t next_round = 0;
  size_t messages = 0;
  size_t message_bytes_raw = 0;
  size_t message_bytes_wire = 0;
  double simulated_seconds = 0.0;
};

/// Reads the checkpoint's `bsp_meta` section and checks it against this
/// run: same worker count, same candidate set, a round past 0.
Result<RestoredProgress> ReadBspMeta(const SnapshotReader& snap,
                                     uint64_t roots_digest,
                                     size_t num_workers) {
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
  return RestoredProgress{.next_round = next_round,
                          .messages = messages,
                          .message_bytes_raw = bytes_raw,
                          .message_bytes_wire = bytes_wire,
                          .simulated_seconds = simulated};
}

/// Pairs per encoded wire frame under the budget: oversized outboxes ship
/// as several frames so the encode/decode staging stays within bounds.
/// Effectively unbounded (one frame per link) when unbudgeted.
size_t FramePairCapForBudget(size_t budget_bytes) {
  if (budget_bytes == 0) return std::numeric_limits<size_t>::max();
  return std::max<size_t>(1024, budget_bytes / 2 / sizeof(MatchPair));
}

/// One run's job input and settings: what every fragment is built from —
/// cold start, disk resume or crash restore — and what the finished
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

  /// Replaces every fragment with a fresh one holding its job input: the
  /// root candidates it owns, in arrival order.
  void ColdStart(std::vector<std::unique_ptr<Worker>>* workers) const {
    for (uint32_t f = 0; f < workers->size(); ++f) (*workers)[f] = Empty(f);
    for (const MatchPair& c : candidates) {
      (*workers)[owner_of(c)]->owned_candidates.push_back(c);
    }
  }

  /// Fragment `frag` restored from its last boundary capture after a
  /// crash. Its inboxes are cleared: in-flight messages die with the
  /// fragment; the audit re-derives them.
  std::unique_ptr<Worker> Restore(uint32_t frag,
                                  const ByteWriter& capture) const {
    auto w = Empty(frag);
    ByteReader r(capture.data());
    const Status st = LoadWorker(&r, w.get());
    HER_CHECK(st.ok());  // a self-written capture always decodes
    w->request_inbox.clear();
    w->invalid_inbox.clear();
    return w;
  }

  /// Every fragment restored from the durable checkpoint, adopted into
  /// `workers` only if all of them load. Any failure — missing or corrupt
  /// file, stale fingerprint, changed worker count or candidate set, a
  /// fragment section that fails to open or decode — leaves `workers`
  /// untouched and costs the whole warm start: the greedy lineage
  /// matching is not confluent, so a cold fragment beside restored peers
  /// could land on a different fixpoint.
  Result<RestoredProgress> Resume(
      const CheckpointOptions& ckpt, uint64_t roots_digest,
      std::vector<std::unique_ptr<Worker>>* workers) const {
    const uint64_t expected = ckpt.fingerprint == 0
                                  ? SnapshotReader::kAnyFingerprint
                                  : ckpt.fingerprint;
    HER_ASSIGN_OR_RETURN(
        SnapshotReader snap,
        SnapshotReader::Open(CheckpointPath(ckpt), expected, ckpt.env));
    HER_ASSIGN_OR_RETURN(RestoredProgress progress,
                         ReadBspMeta(snap, roots_digest, workers->size()));
    std::vector<std::unique_ptr<Worker>> restored(workers->size());
    for (uint32_t f = 0; f < restored.size(); ++f) {
      restored[f] = Empty(f);
      auto section = snap.Section(FragmentSection(f));
      const Status st = section.ok()
                            ? LoadWorker(&section.value(), restored[f].get())
                            : section.status();
      if (!st.ok()) {
        return Status(st.code(), FragmentSection(f) + ": " + st.message());
      }
    }
    *workers = std::move(restored);
    return progress;
  }

  /// Fills the run-wide half of `result` once every worker has stopped:
  /// summed engine counters, the shared scorers' snapshot counters, the
  /// busiest worker, injected faults, partition quality, peak RSS and —
  /// unless the run halted — Pi over the sorted, deduplicated `roots`.
  void Finish(const std::vector<std::unique_ptr<Worker>>& workers,
              const std::vector<MatchPair>& roots,
              ParallelResult* result) const {
    for (const auto& w : workers) {
      const MatchEngine::Stats& s = w->engine.stats();
      SumWorkerStats(s, &result->stats);
      result->max_worker_calls =
          std::max(result->max_worker_calls, s.para_match_calls);
    }
    // Every engine shares ctx's scorers: snapshot them once, never sum.
    SnapshotContextStats(ctx, &result->stats);
    if (injector != nullptr) {
      result->stats.faults_injected = injector->injected();
    }
    result->partition.edge_cut_edges = part.edge_cut_edges;
    result->partition.edge_cut_fraction = part.EdgeCutFraction(*ctx.g);
    result->partition.border_vertices = part.border_vertices;
    result->partition.max_fragment_imbalance = part.max_fragment_imbalance;
    result->peak_rss_bytes = PeakRssBytes();
    // Pi = union of owned partial results (Section VI-B, termination).
    // Every fragment exists and is authoritative for its owned pairs — a
    // crashed fragment was rebuilt from its capture. A halted run reports
    // no Pi: its verdicts live in the on-disk checkpoint.
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
  // On a context without a table, every fragment (cold, restored or
  // resumed) reads one lazy table through `ctx`, so each row is ranked
  // once per run; it is freed with the run.
  MatchContext ctx = ctx_;
  std::unique_ptr<PropertyTable> lazy_properties;
  if (ctx.properties == nullptr) {
    lazy_properties = std::make_unique<PropertyTable>(ctx);
    ctx.properties = lazy_properties.get();
  }
  const RunSetup run = RunSetup::For(ctx, config_, part, candidates, options);
  const PairOwner& owner_of = run.owner_of;
  FaultInjector* const injector = run.injector;
  std::vector<std::unique_ptr<Worker>> workers(n);
  run.ColdStart(&workers);
  const std::vector<MatchPair> roots = SortedUnique(candidates);

  // --- durable checkpoint/resume (crash-restart recovery) ---
  const CheckpointOptions& ckpt = config_.checkpoint;
  const bool ckpt_enabled = !ckpt.dir.empty();
  const uint64_t roots_digest = ckpt_enabled ? RootsDigest(roots) : 0;
  size_t start_round = 0;
  if (ckpt_enabled && ckpt.resume) {
    // A crash mid-install leaves an orphaned *.tmp file next to the
    // checkpoint; sweep it before restore so debris never accumulates.
    auto swept = SweepStaleTmpFiles(ckpt.env != nullptr ? ckpt.env
                                                        : Env::Default(),
                                    ckpt.dir);
    if (swept.ok() && *swept > 0) {
      std::cerr << "her: swept " << *swept
                << " stale checkpoint tmp file(s) in " << ckpt.dir
                << std::endl;
    }
    const Result<RestoredProgress> progress =
        run.Resume(ckpt, roots_digest, &workers);
    if (progress.ok()) {
      result.resumed_from_checkpoint = true;
      start_round = progress->next_round;
      result.supersteps = progress->next_round;
      result.messages = progress->messages;
      result.message_bytes_raw = progress->message_bytes_raw;
      result.message_bytes_wire = progress->message_bytes_wire;
      result.simulated_seconds = progress->simulated_seconds;
    } else {
      std::cerr << "her: checkpoint resume failed ("
                << progress.status().ToString() << "); starting cold"
                << std::endl;
    }
  }

  // Each fragment's SaveWorker bytes at the last captured superstep
  // boundary. A crashed fragment restarts from its capture, and a durable
  // checkpoint writes them all to disk.
  std::vector<ByteWriter> captures(n);
  const auto capture = [&] {
    for (uint32_t f = 0; f < n; ++f) {
      captures[f] = ByteWriter();
      SaveWorker(*workers[f], &captures[f]);
    }
    result.stats.checkpoints += n;
  };
  // Under a fault plan the first capture is the boundary this run starts
  // from (job input, or the resumed state), so a crash firing in the
  // first superstep recovers onto the same trajectory.
  if (injector != nullptr) capture();

  // Superstep body: PPSim on round 0, IncPSim afterwards.
  auto superstep = [&](Worker& w, size_t round) {
    if (round == 0) {
      w.engine.MatchRoots(w.owned_candidates);
    } else {
      // Inboxes are processed in sorted, deduplicated order so the
      // superstep is invariant to arrival order: duplicated messages and
      // audit-reconstructed deliveries then leave the trajectory
      // bit-identical to the fault-free run.
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
      w.assumed.TryEmplace(KeyOf(p));
    }
  };

  // Reliable control-channel sweep: re-derives in-flight messages lost
  // with a crashed fragment's inboxes from the requester-side assumption
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
      for (const MatchPair& p : SortedPairs(w.assumed)) {
        const auto* mine = w.engine.Lookup(p.first, p.second);
        if (mine != nullptr && !mine->valid) continue;  // already repaired
        const uint32_t owner = owner_of(p);
        HER_DCHECK(owner != i);
        Worker& ow = *workers[owner];
        const auto* theirs = ow.engine.Lookup(p.first, p.second);
        const auto* subs = ow.subscribers.Find(KeyOf(p));
        const bool subscribed =
            subs != nullptr &&
            std::find(subs->begin(), subs->end(), i) != subs->end();
        if (theirs != nullptr && !theirs->valid && subscribed) {
          w.invalid_inbox.push_back(p);
          ++delivered;
        } else if (theirs == nullptr || !subscribed) {
          ow.request_inbox.emplace_back(p, i);
          ++delivered;
        }
      }
    }
    return delivered;
  };

  std::vector<double> busy(n, 0.0);
  for (size_t round = start_round;; ++round) {
    // --- fault hook: fragment crash at the start of this superstep ---
    // Rounds only increase, so a plan fires at most once per run.
    if (injector != nullptr && injector->plan().crash.has_value() &&
        injector->plan().crash->superstep == round) {
      // The fragment dies with everything it held in memory: its state and
      // the messages routed into its inboxes at the end of the previous
      // superstep. GRAPE-style recovery rebuilds it from its last boundary
      // capture, in place, so it re-executes exactly the computation it
      // would have run; the audit then re-derives the lost deliveries from
      // the surviving assumption sets before the superstep proceeds.
      const uint32_t victim = injector->plan().crash->worker;
      injector->CountInjection();
      ++result.stats.recoveries;
      workers[victim] = run.Restore(victim, captures[victim]);
      audit();
    }

    // Parallel phase: one thread per fragment (shared-nothing: each
    // fragment's engine is touched only by its own thread; the graphs and
    // scorers are immutable). Each thread's busy time is taken from its
    // thread CPU clock so the simulated makespan is meaningful even on
    // machines with fewer cores than workers.
    OnFragmentThreads(n, [&](uint32_t f) {
      const double start = ThreadCpuSeconds();
      superstep(*workers[f], round);
      busy[f] = ThreadCpuSeconds() - start;
    });
    result.simulated_seconds += *std::max_element(busy.begin(), busy.end());
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
    // duplication faults applied per message when a plan is installed. A
    // duplicate reaches the destination's inbox twice and is absorbed by
    // its sort+dedupe. (Losing a whole inbox is the crash story, handled
    // by restoring the boundary capture + audit.)
    auto deliveries = [&](FaultChannel channel, const MatchPair& p,
                          uint32_t from, uint32_t to) -> int {
      if (injector == nullptr) return 1;
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
      if (!dec_reqs.empty() || !dec_invs.empty()) any_message = true;
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
        const auto* subs = w.subscribers.Find(KeyOf(p));
        if (subs == nullptr) continue;
        if (!w.notified_false.TryEmplace(KeyOf(p)).second) continue;
        for (const uint32_t j : *subs) {
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

    // Boundary capture, after routing and the audit — inboxes hold exactly
    // the deliveries the next superstep consumes and every outbox is
    // empty — and only when the run continues: under a fault plan (a
    // crash restores from it) or when a durable write is due (a resumed
    // run entering round + 1 is then bit-identical to this run
    // continuing). Runs with neither pay nothing.
    const bool halting = ckpt.halt_after_supersteps > 0 &&
                         result.supersteps >= ckpt.halt_after_supersteps;
    const bool write_due =
        ckpt_enabled && !fixpoint &&
        (halting || (ckpt.every_supersteps > 0 &&
                     result.supersteps % ckpt.every_supersteps == 0));
    if (!fixpoint && (injector != nullptr || write_due)) capture();
    result.simulated_seconds += ThreadCpuSeconds() - sync_start;
    if (fixpoint) break;

    // A failed write is logged and costs only durability, never progress.
    if (write_due) {
      const Status st =
          WriteBspCheckpoint(ckpt, round + 1, roots_digest, result, captures);
      if (st.ok()) {
        ++result.stats.disk_checkpoints;
      } else {
        std::cerr << "her: checkpoint write failed: " << st.ToString()
                  << std::endl;
      }
    }
    if (halting) {
      // Test/CI kill point: progress is on disk, the caller aborts here.
      result.halted = true;
      break;
    }
  }

  run.Finish(workers, roots, &result);

  // Per-fragment teardown: each fragment frees its own engine and tables
  // on its own thread, as in the superstep; then the run's lazy table goes.
  WallTimer teardown;
  OnFragmentThreads(n, [&](uint32_t f) { workers[f].reset(); });
  lazy_properties.reset();
  result.teardown_seconds = teardown.Seconds();
  return result;
}

ParallelResult BspAllMatch::Run(std::span<const VertexId> tuple_vertices,
                                const InvertedIndex* blocking,
                                const RunOptions& options) {
  WallTimer gen_timer;
  std::vector<MatchPair> candidates =
      GenerateCandidates(ctx_, tuple_vertices, blocking);
  const double gen_seconds = gen_timer.Seconds();
  ParallelResult result = RunOnCandidates(std::move(candidates), options);
  if (result.status.ok()) {
    // One scan for the whole run, outside every worker's engine.
    result.stats.candidate_gen_seconds = gen_seconds;
    result.stats.candidate_gen_runs = 1;
  }
  return result;
}

}  // namespace her
