#ifndef HER_CORE_MATCH_ENGINE_H_
#define HER_CORE_MATCH_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/flat_table.h"
#include "common/hash.h"
#include "common/run_options.h"
#include "core/match_context.h"
#include "core/property_arena.h"

namespace her {

/// A candidate match: u in G_D paired with v in G.
using MatchPair = std::pair<VertexId, VertexId>;

/// Flat-table key of a pair (PairKey), and its inverse.
inline uint64_t KeyOf(const MatchPair& p) { return PairKey(p.first, p.second); }
inline MatchPair PairOf(uint64_t key) {
  return MatchPair{static_cast<VertexId>(key >> 32),
                   static_cast<VertexId>(key & 0xffffffffu)};
}

/// The one byte codec of a pair (two varints), shared by the engine-state
/// snapshot and the fragment sections of the BSP checkpoint.
inline void PutPair(ByteWriter* w, const MatchPair& p) {
  w->PutVarint(p.first);
  w->PutVarint(p.second);
}

inline Status GetPair(ByteReader* r, MatchPair* p) {
  uint64_t u = 0;
  uint64_t v = 0;
  HER_RETURN_NOT_OK(r->GetVarint(&u));
  HER_RETURN_NOT_OK(r->GetVarint(&v));
  p->first = static_cast<VertexId>(u);
  p->second = static_cast<VertexId>(v);
  return Status::OK();
}

/// Verdict classification of a candidate pair at the end of a (possibly
/// degraded) run. In a completed run every pair is proved or disproved; a
/// run cut short by a deadline or cancellation additionally reports pairs
/// as unresolved — never evaluated, aborted mid-evaluation, or proved only
/// through a support chain that itself contains an unresolved pair.
enum class PairOutcome {
  kProved = 0,
  kDisproved = 1,
  kUnresolved = 2,
};

/// h_r output per vertex of both graphs, ranked by PRA: the one owner of
/// property rows. Section IV computes h_r per vertex as part of module
/// Learn; a table shared by every engine lets the shared-nothing workers
/// read a row like the (immutable) graphs instead of re-ranking shared
/// vertices per fragment. PropertiesOf slices the top-k for whatever k is
/// in force.
///
/// A table is either built (Build, or LoadState of a built table's bytes)
/// or lazy (constructed for a context): a lazy table starts empty and
/// ranks each row on its first Get, so it holds only the rows a run reads.
/// A built table never fills lazily; its deadline-skipped Pending() rows
/// read as empty until a Refresh.
class PropertyTable {
 public:
  /// Vertices per DescendantRanker::TopKBatch call during Build/Refresh:
  /// large enough that the lockstep LSTM kernel keeps many walk lanes
  /// live, small enough that the thread pool load-balances across blocks.
  static constexpr size_t kDefaultBuildBlock = 64;

  PropertyTable() = default;

  /// A lazy table over ctx's two graphs. The first Get of a vertex, from
  /// any thread, claims the row and ranks it outside any lock with one
  /// ctx.hr->TopKBatch capped at ctx.params.k (so Get must ask for no more
  /// than that k), then writes it into the table's arenas under a lock
  /// and publishes it; a Get that finds the row claimed waits for it. Once
  /// published, a row is read without a lock. ctx's graphs, ranker,
  /// vocabulary and M_rho must outlive the table. A lazy table is never
  /// refreshed or saved.
  explicit PropertyTable(const MatchContext& ctx);

  /// A fresh table plus Refresh of every vertex of gd (graph 0) and g
  /// (graph 1): ranked with `hr`, paths translated via `vocab` and, when
  /// `mrho` is given, embedded once (Property::embedding). The table is
  /// byte-identical for any threads/block_size combination
  /// (test-enforced). When `options` expires mid-build, the skipped
  /// vertices keep empty rows (degraded but valid, never a partial row)
  /// and are reported via Pending() so a later Refresh can complete the
  /// table.
  static PropertyTable Build(const Graph& gd, const Graph& g,
                             const DescendantRanker& hr,
                             const JointVocab& vocab, size_t threads = 1,
                             const PathScorer* mrho = nullptr,
                             size_t block_size = kDefaultBuildBlock,
                             const RunOptions& options = {});

  /// The top-k properties of vertex v of `graph`; a lazy table ranks the
  /// row first if no thread has. Thread-safe.
  std::span<const Property> Get(int graph, VertexId v, int k) const {
    HER_DCHECK(graph == 0 || graph == 1);
    const auto& rows = table_[graph];
    if (static_cast<size_t>(v) >= rows.size()) return {};
    HER_DCHECK(state_[graph] == nullptr || k <= ctx_.params.k);
    if (state_[graph] != nullptr) Fill(graph, v);
    const PropertyRow row = rows[static_cast<size_t>(v)];
    return row.first(std::min(row.size(), static_cast<size_t>(k)));
  }

  /// Re-ranks the listed vertices of a built table against an updated
  /// graph (incremental maintenance; `hr` must already be bound to the new
  /// graph version); out-of-range vertices are skipped. The one block loop
  /// of the table: vertex blocks of `block_size`, each ranked with one
  /// hr.TopKBatch call and written straight into the arena, over `threads`
  /// (Build's; other callers rank serially). Pass the same `mrho` as Build
  /// so refreshed rows keep their precomputed path embeddings.
  /// `options` is probed once per block: vertices not reached before expiry
  /// stay pending with their previous rows intact. Vertices re-ranked are
  /// removed from the pending set, so a Refresh over Pending() completes a
  /// deadline-degraded Build.
  /// Replaced rows stay in the arena as dead bytes until they outweigh the
  /// live ones; then the table compacts. Spans from Get() do not survive a
  /// Refresh.
  void Refresh(int graph, const Graph& g, std::span<const VertexId> vertices,
               const DescendantRanker& hr, const JointVocab& vocab,
               const PathScorer* mrho = nullptr,
               const RunOptions& options = {}, size_t threads = 1,
               size_t block_size = kDefaultBuildBlock);

  /// Vertices of `graph` whose rows were skipped because a Build/Refresh
  /// deadline expired (sorted). Empty for a completed table.
  std::span<const VertexId> Pending(int graph) const {
    HER_DCHECK(graph == 0 || graph == 1);
    return pending_[graph];
  }

  /// True when no rows were skipped on a deadline.
  bool Complete() const { return pending_[0].empty() && pending_[1].empty(); }

  /// Wall seconds the last Build/Refresh spent ranking (telemetry; surfaced
  /// as MatchEngine::Stats::ptable_build_seconds).
  double build_seconds() const { return build_seconds_; }

  /// Byte-level equality of the ranked contents (bench_hr's bit-identity
  /// check between scalar and batched builds).
  bool operator==(const PropertyTable& o) const {
    const auto same = [](const std::vector<PropertyRow>& a,
                         const std::vector<PropertyRow>& b) {
      return std::ranges::equal(a, b, [](PropertyRow x, PropertyRow y) {
        return std::ranges::equal(x, y);
      });
    };
    return same(table_[0], o.table_[0]) && same(table_[1], o.table_[1]);
  }

  /// The arena holding a built table's rows (its live and dead byte
  /// counts).
  const PropertyArena& arena() const { return writers_[0].arena; }

  /// Serializes the ranked rows (and the pending set) of a built table for
  /// the durable snapshot; LoadState restores them bit for bit, so a
  /// warm-started run skips the whole Build.
  void SaveState(ByteWriter* w) const;
  Status LoadState(ByteReader* r);

 private:
  // A lazy table's per-vertex state: kUnranked until a Get claims the row,
  // kReady once its claimer has published it with release.
  enum : uint8_t { kUnranked = 0, kClaimed = 1, kReady = 2 };

  /// Returns once row v of a lazy table is published: claims, ranks and
  /// publishes it, or waits for the thread that claimed it.
  void Fill(int graph, VertexId v) const;

  // Row storage, each arena written under its writer's lock. A built
  // table has one writer (Build, Refresh, LoadState). A lazy table has
  // kWriters, and a fill writes through the filling thread's one, so
  // threads filling rows at once rarely share a lock: with one lock, a
  // 4-worker apair-scale call ran ~20% slower than with per-fragment rows.
  // Chunks never move, so a published row is read without a lock.
  struct Writer {
    std::mutex mu;
    PropertyArena arena;
  };
  static constexpr size_t kWriters = 16;
  std::unique_ptr<Writer[]> writers_ = std::make_unique<Writer[]>(1);
  // mutable: a lazy table writes rows from the const Get.
  mutable std::vector<PropertyRow> table_[2];  // [graph][vertex]
  std::vector<VertexId> pending_[2];  // deadline-skipped vertices, sorted
  double build_seconds_ = 0.0;
  // A lazy table's context (what it ranks rows with) and per-vertex state
  // ([graph][vertex]); state_ is null for a built table.
  MatchContext ctx_;
  std::unique_ptr<std::atomic<uint8_t>[]> state_[2];
};

/// Implements algorithm ParaMatch of Section V (Fig. 4) plus the
/// VParaMatch / AllParaMatch drivers of Section VI-A.
///
/// The paper's two hashmaps: `ecache`, the top-k selected descendants per
/// vertex, is the context's PropertyTable (or, on a context without one,
/// a lazy table this engine owns), computed once per vertex and shared by
/// every engine on the context; `cache` is the engine's own: per candidate
/// pair, [valid?, W] where W is the lineage set the validity is conditioned
/// on, plus a reverse index so the cleanup stage can recheck dependents of
/// an invalidated pair.
///
/// Matches computed under the optimistic-then-invalidate discipline are
/// sound (every reported pair meets the definition), but the greedy
/// first-fit lineage matching (Fig. 4 lines 15-27) is not maximal: an
/// earlier property can consume the descendant a later one needed, so Pi
/// may miss pairs of the maximum match relation of Proposition 4 and can
/// depend on evaluation order and placement (tests/oracle_test.cc checks
/// every path against that relation).
///
/// Refinement needs no cap on re-evaluations: a cached verdict moves only
/// from true to false, at most once per cache lifetime, and each rerun or
/// stale restart of a pair follows a new flip of one of its candidates, so
/// a pair is evaluated at most 1 + (flips) times.
/// Not thread-safe; the parallel engine gives each worker its own instance.
class MatchEngine {
 public:
  struct CacheEntry {
    bool valid = false;
    std::vector<MatchPair> witnesses;  // W: valid iff all of these are
  };

  struct Stats {
    size_t para_match_calls = 0;   // recursive invocations
    size_t cache_hits = 0;         // candidate pairs answered from cache
    size_t cleanup_reruns = 0;     // dependents rechecked after invalidation
    size_t stale_restarts = 0;     // evaluations restarted on stale W
    size_t hrho_evaluations = 0;   // h_rho computations
    size_t border_assumptions = 0;  // pairs optimistically assumed (BSP)
    // --- h_v kernel telemetry (snapshots of the context's scorer, which
    // is shared: across engines these are global counters, not per-engine
    // deltas; SnapshotContextStats assigns them, never sums) ---
    size_t hv_batch_calls = 0;     // ScoreBatch/ScoreMatrix invocations
    // --- h_rho kernel telemetry. The first two are snapshots of the
    // shared PathScorer (same aggregation caveat as the h_v fields); the
    // rest are per-engine counters and sum across engines. ---
    size_t hrho_batch_calls = 0;   // PathScorer::ScoreBatch invocations
    size_t hrho_hash_rejects = 0;  // CachingPathScorer collisions caught
    size_t hrho_embed_reuse = 0;   // precomputed path embeddings consumed
    // Never written; kept because perfbench/apair.cc:210-211 reads it.
    size_t hrho_list_memo_hits = 0;
    // --- h_r kernel telemetry (snapshots of the context's shared
    // DescendantRanker / PropertyTable — same aggregation caveat as the
    // h_v fields: the BSP aggregation assigns, never sums, them) ---
    size_t hr_batch_calls = 0;       // TopKBatch invocations
    size_t hr_lstm_batch_calls = 0;  // StepProbBatch rounds (LstmPraRanker)
    size_t hr_lstm_lanes = 0;        // total lanes across those rounds
    size_t hr_walk_rounds = 0;       // lockstep frontier rounds
    double ptable_build_seconds = 0.0;  // last PropertyTable Build/Refresh
    // --- ANN candidate-generation telemetry (snapshots of the context's
    // shared IvfIndex — same aggregation caveat as the h_v fields: the BSP
    // aggregation assigns, never sums, them) ---
    size_t ann_probes = 0;         // IvfIndex::Probe calls
    size_t ann_lists_scanned = 0;  // inverted lists scanned across probes
    size_t ann_points_scanned = 0;  // candidate rows scored across probes
    size_t ann_fallbacks = 0;      // calls demoted to exact on low recall
    double ann_recall = 1.0;       // measured recall over sampled probes
    double ann_build_seconds = 0.0;  // IvfIndex::Build wall time
    // --- flat-table memo telemetry: snapshots of the context's shared
    // CachingPathScorer (same aggregation caveat as the h_v fields: the
    // BSP aggregation assigns, never sums, them) ---
    size_t memo_probe_batches = 0;  // batched probes into the M_rho memo
    size_t memo_probe_len = 0;      // total keys across those probes
    double hrho_memo_load_factor = 0.0;  // M_rho memo shard occupancy [0,1]
    // Wall seconds spent restoring state from a durable snapshot (0 on a
    // cold run); with ptable_build_seconds == 0 it is the observable proof
    // that a warm start skipped the build (bench_micro reports both).
    double snapshot_load_seconds = 0.0;
    // Wall time spent in GenerateCandidates by drivers running on this
    // engine (AllParaMatch records it here; BspAllMatch::Run reports its
    // one scan on ParallelResult::stats).
    double candidate_gen_seconds = 0.0;
    size_t candidate_gen_runs = 0;
    // --- fault-tolerance telemetry ---
    size_t deadline_expired = 0;   // 1 if this run stopped on deadline/cancel
    size_t unresolved_pairs = 0;   // pairs abandoned without a verdict
    // Filled by the parallel engine (per-engine they are always zero):
    size_t faults_injected = 0;    // crash/duplicate faults fired
    size_t checkpoints = 0;        // fragment captures at superstep boundaries
    size_t recoveries = 0;         // crashed fragments restored + replayed
    size_t disk_checkpoints = 0;   // durable snapshots written to disk
  };

  explicit MatchEngine(const MatchContext& ctx) : ctx_(ctx) {}

  const MatchContext& context() const { return ctx_; }

  /// Installs a deadline/cancellation contract for subsequent evaluations
  /// and resets any previous stop state. Expiry is checked cooperatively at
  /// every (recursive) pair evaluation: once it fires, no further pairs are
  /// evaluated, in-flight evaluations abort without caching a verdict, and
  /// the abandoned pairs are reported via UnresolvedPairs() and
  /// ResolveOutcomes().
  void SetRunOptions(const RunOptions& options) {
    run_options_ = options;
    stopped_ = false;
    unresolved_.clear();
    stats_.deadline_expired = 0;
  }

  /// True once a deadline/cancellation stopped this engine; verdicts
  /// produced afterwards are refusals (false without caching), and Pi must
  /// be recomputed through ResolveOutcomes.
  bool Stopped() const { return stopped_; }

  /// Pairs abandoned without a verdict because the run stopped.
  const std::unordered_set<MatchPair, PairHash>& UnresolvedPairs() const {
    return unresolved_;
  }

  /// Records a pair the caller classified as unresolved through
  /// ResolveOutcomes (a cached verdict demoted because its support chain
  /// broke), so UnresolvedPairs()/stats() account for it alongside the
  /// never-evaluated pairs the engine tracks itself.
  void NoteUnresolved(const MatchPair& key) { unresolved_.insert(key); }

  /// SPair: does (u, v) match by parametric simulation? Results (and all
  /// intermediate candidate verdicts) are cached across calls.
  bool Match(VertexId u, VertexId v);

  /// Match over every pair of `roots`, in order: the root loop of
  /// VParaMatch, AllParaMatch and BSP round 0. Returns each pair's verdict
  /// at its turn, and leaves verdicts, witnesses and every evaluation
  /// counter (not the h_v/M_rho telemetry) exactly as a Match call per pair
  /// would in a run that is not cut short. Consecutive pairs sharing u
  /// form a run whose candidate lists come from one CandidateListsFor
  /// call; a pair whose first-level MaxSco bound (Fig. 4 lines 12-14)
  /// misses delta is stored false straight from that batch, with no
  /// optimistic placeholder. The deadline is probed once per run, so
  /// bound-decided pairs of a run cut short still resolve as disproved.
  std::vector<bool> MatchRoots(std::span<const MatchPair> roots);

  /// Cached verdict for a pair, if any.
  const CacheEntry* Lookup(VertexId u, VertexId v) const;

  /// The witness Pi(u, v): every pair transitively referenced from (u, v)
  /// through lineage sets. Empty if (u, v) is not a cached valid match.
  std::vector<MatchPair> Witness(VertexId u, VertexId v) const;

  /// True when the reverse dependency index holds (w, key) exactly once
  /// per w in the W of each cached key: the invariant Store and Unset keep
  /// while editing it in place. For tests.
  bool DependentsMatchWitnesses() const;

  /// Top-k properties of a vertex (`graph` 0 = G_D, 1 = G): one read of
  /// the context's PropertyTable, or of the engine's own lazy table when
  /// the context has none. The span stays valid until InvalidateForUpdate
  /// (or a PropertyTable Refresh) runs.
  std::span<const Property> PropertiesOf(int graph, VertexId v);

  /// h_rho of Eq. 2 for two selected properties.
  double HRho(const Property& pu, const Property& pv);

  /// Forgets all pair verdicts; property rows are kept.
  void ClearPairCache();

  /// Incremental maintenance: drops every cached verdict involving an
  /// affected G_D vertex or G vertex — transitively through the
  /// dependency index, since a dependent's validity was conditioned on
  /// the dropped pair. Other verdicts survive; re-querying recomputes only
  /// what the update touched. The context's table is its owner's to
  /// Refresh; an owned lazy table is replaced, so its rows are re-ranked
  /// against the context's current graph and ranker on next read.
  void InvalidateForUpdate(std::span<const VertexId> affected_u,
                           std::span<const VertexId> affected_v);

  /// --- hooks for the parallel engine (Section VI-B) ---

  /// Installs an unconditional optimistic verdict (border-node assumption
  /// of PPSim). Overwrites any existing entry.
  void AssumeValid(VertexId u, VertexId v);

  /// Externally invalidates a pair (message from another worker) and
  /// reruns the cleanup stage on its dependents.
  void ForceInvalid(VertexId u, VertexId v);

  /// Pairs whose cached verdict flipped from true to false since the last
  /// drain; these become the BSP messages. Recorded only while a locality
  /// filter is installed (a fragment engine); a serial engine keeps none.
  std::vector<MatchPair> DrainNewlyInvalidated();

  /// Restricts this engine to a fragment: pairs failing the predicate are
  /// not evaluated but optimistically assumed valid (PPSim's border-node
  /// assumption) and recorded for the assumption drain, unless a verdict
  /// for them was already installed (e.g. via ForceInvalid).
  void SetLocalityFilter(std::function<bool(VertexId, VertexId)> is_local) {
    is_local_ = std::move(is_local);
  }

  /// Border pairs optimistically assumed valid since the last drain; the
  /// BSP driver routes them to their owner for authoritative evaluation.
  std::vector<MatchPair> DrainNewAssumptions();

  /// Engine counters, with the h_v scorer telemetry refreshed from the
  /// context's (shared) VertexScorer at call time.
  const Stats& stats() const;

  /// Records one GenerateCandidates run's wall time (called by the
  /// AllParaMatch drivers).
  void RecordCandidateGen(double seconds) {
    stats_.candidate_gen_seconds += seconds;
    ++stats_.candidate_gen_runs;
  }

  /// Records the wall time a durable-snapshot restore spent rebuilding
  /// this engine's state (-> Stats::snapshot_load_seconds).
  void RecordSnapshotLoad(double seconds) {
    stats_.snapshot_load_seconds = seconds;
  }

  /// --- durable snapshot hooks (src/persist) ---

  /// Serializes the pair-verdict state — cache entries with their witness
  /// lineage sets — in canonical (sorted) order, so save -> load -> save is
  /// byte-stable. The BSP message queues must be drained (they are at
  /// every superstep boundary) and are not stored.
  void SaveEngineState(ByteWriter* w) const;

  /// Exact inverse of SaveEngineState; the reverse dependency index is
  /// rebuilt from the witnesses (it is derived state). Replaces the
  /// current verdict state wholesale and empties the message queues.
  Status LoadEngineState(ByteReader* r);

 private:
  friend class MatchEnginePeer;  // reads CandidateListsFor in tests

  /// One candidate for a selected descendant u' of u: a descendant v' of v
  /// that passed the sigma filter, with its h_rho value.
  struct Cand {
    VertexId v2;
    double hrho;
  };
  /// The candidate lists of Fig. 4 lines 6-11 for a run of pairs (u, v_r)
  /// sharing u: list (r, i) holds the candidates of u's property i under
  /// v_r, sorted by descending h_rho (ties by v2).
  struct CandidateLists {
    size_t num_props = 0;          // |pu|
    size_t num_rows = 0;           // pairs in the run
    std::vector<Cand> cands;       // every list, concatenated (i, r) order
    std::vector<size_t> offsets;   // list (r, i) starts at [i*rows + r]

    std::span<const Cand> List(size_t r, size_t i) const {
      const size_t n = i * num_rows + r;
      return {cands.data() + offsets[n], offsets[n + 1] - offsets[n]};
    }
    /// MaxSco of Fig. 4 line 12 for pair r: list heads summed in property
    /// order, the same sum EvalOnce starts its matching stage from.
    double MaxSco(size_t r) const {
      double maxsco = 0.0;
      for (size_t i = 0; i < num_props; ++i) {
        const auto list = List(r, i);
        if (!list.empty()) maxsco += list.front().hrho;
      }
      return maxsco;
    }
  };
  /// Builds the candidate lists of u's properties `pu` under each row of
  /// `pvs` (the properties of v_r), every stage linear in its input: the
  /// rows' descendants are de-duplicated through a per-thread hashed
  /// column table, one hv->ScoreMatrix scores u's property descendants
  /// against those columns, a bitmask per column marks the properties that
  /// clear sigma, a counting pass and a fill pass lay the survivors out
  /// list by list, and one M_rho batch scores them before each list is
  /// sorted. Recursion passes one row.
  CandidateLists CandidateListsFor(
      std::span<const Property> pu,
      std::span<const std::span<const Property>> pvs);

  /// One attempt at evaluating (u, v). Returns the verdict; sets *stale if
  /// a witness consumed as true got invalidated mid-evaluation (in which
  /// case the verdict must be recomputed). `lists` row `row`, when given,
  /// holds the pair's candidate lists, built by MatchRoots' run batch.
  bool EvalOnce(VertexId u, VertexId v, bool* stale,
                const CandidateLists* lists, size_t row);

  /// Full ParaMatch with the stale-restart loop.
  bool ParaMatch(VertexId u, VertexId v,
                 const CandidateLists* lists = nullptr, size_t row = 0);

  /// Stores a verdict, maintaining the reverse dependency index, and on a
  /// true->false flip triggers the cleanup stage (lines 29-31 of Fig. 4).
  void Store(VertexId u, VertexId v, bool valid,
             std::vector<MatchPair> witnesses);

  /// Removes an entry (without recording an invalidation); used before a
  /// cleanup rerun.
  void Unset(const MatchPair& key);

  /// Drops `key` from the dependents of witness `w`: the last dependent
  /// moves into its slot.
  void RemoveDependent(const MatchPair& w, const MatchPair& key);

  /// Reruns ParaMatch on every cached pair whose W contains `key`.
  void RecheckDependents(const MatchPair& key);

  /// Cooperative stop probe: latches `stopped_` the first time the run
  /// options report expiry. Costs no clock read when no deadline is set.
  bool ShouldStop() {
    if (stopped_) return true;
    if (!run_options_.Expired()) return false;
    stopped_ = true;
    stats_.deadline_expired = 1;
    return true;
  }

  /// Records a pair abandoned without a cached verdict.
  void MarkUnresolved(const MatchPair& key) {
    if (cache_.Find(PairKey(key.first, key.second)) == nullptr) {
      unresolved_.insert(key);
    }
  }

  const MatchContext& ctx_;
  // mutable: stats() refreshes the h_v scorer snapshot fields on read.
  mutable Stats stats_;

  // Pair verdicts, keyed by PairKey(u, v) in a cache-line-bucketed flat
  // table: EvalOnce's Lookup loop is the hottest probe site in the engine
  // and prefetches list-head keys ahead of the matching stage.
  FlatTable<CacheEntry> cache_;
  // Reverse dependency index: PairKey(w) -> the entries whose W holds w,
  // in no order (RecheckDependents sorts).
  FlatTable<std::vector<MatchPair>> dependents_;
  std::vector<MatchPair> newly_invalidated_;
  std::vector<MatchPair> new_assumptions_;
  // Deadline/cancellation contract of the current run; default never fires.
  RunOptions run_options_;
  bool stopped_ = false;
  std::unordered_set<MatchPair, PairHash> unresolved_;
  // (u, v) -> is this pair owned by this fragment? empty = everything is.
  std::function<bool(VertexId, VertexId)> is_local_;

  // The lazy table PropertiesOf reads when the context has none; made on
  // the first read.
  std::unique_ptr<PropertyTable> owned_table_;
};

/// Copies the counters of `ctx`'s shared scorers, table and index (the
/// Stats fields marked "snapshots") into `stats`. Every engine on one
/// context sees the same values, so aggregates assign them, never sum.
void SnapshotContextStats(const MatchContext& ctx, MatchEngine::Stats* stats);

/// The authoritative cached verdict of a pair, or null when it has none.
using VerdictLookup =
    std::function<const MatchEngine::CacheEntry*(const MatchPair&)>;

/// The one outcome resolver of every APair/VPair driver, serial and BSP:
/// classifies each root pair as proved / disproved / unresolved from the
/// verdicts `lookup` returns. In a completed run (`stopped` false) this is
/// exactly the cached verdict. After a stop (deadline/cancellation), a
/// pair only counts as proved when its whole witness closure is still
/// cached valid: verdicts are demoted to unresolved when any pair in their
/// support chain is missing, was abandoned, or flipped false without the
/// cleanup stage having rerun — this keeps the degraded Pi a subset of the
/// fault-free Pi. Cycles of valid pairs count as proved (the optimistic
/// greatest-fixpoint semantics of Proposition 4).
std::vector<PairOutcome> ResolveOutcomes(std::span<const MatchPair> roots,
                                         bool stopped,
                                         const VerdictLookup& lookup);

}  // namespace her

#endif  // HER_CORE_MATCH_ENGINE_H_
