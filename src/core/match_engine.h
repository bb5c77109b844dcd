#ifndef HER_CORE_MATCH_ENGINE_H_
#define HER_CORE_MATCH_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
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

namespace her {

/// A candidate match: u in G_D paired with v in G.
using MatchPair = std::pair<VertexId, VertexId>;

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

/// One important property selected by h_r, with its path pre-mapped into
/// the joint token space so M_rho calls need no further translation.
struct Property {
  VertexId descendant = kInvalidVertex;
  std::vector<LabelId> labels;  // per-graph edge labels along the path
  std::vector<int> joint;       // same path in joint-vocab tokens
  /// Precomputed M_rho embedding of `joint` (PathScorer::EmbedPath), filled
  /// once when the property is ranked so the h_rho inner loop never
  /// re-embeds. Empty when the scorer has no embedding stage (token-overlap
  /// fallback) or none was supplied at build time; scorers then embed from
  /// `joint` on the fly.
  Vec embedding;
  double pra = 0.0;

  /// Field-wise equality (floats compared exactly); lets tests and benches
  /// assert bit-identical PropertyTable builds.
  bool operator==(const Property& o) const {
    return descendant == o.descendant && labels == o.labels &&
           joint == o.joint && embedding == o.embedding && pra == o.pra;
  }
};

/// Offline-precomputed h_r output for every vertex of both graphs, ranked
/// by PRA. Section IV computes h_r per vertex as part of module Learn;
/// materializing it once lets the shared-nothing workers read it like the
/// (immutable) graphs instead of re-ranking shared vertices per fragment.
/// PropertiesOf then slices the top-k for whatever k is in force.
class PropertyTable {
 public:
  /// Vertices per DescendantRanker::TopKBatch call during Build/Refresh:
  /// large enough that the lockstep LSTM kernel keeps many walk lanes
  /// live, small enough that the thread pool load-balances across blocks.
  static constexpr size_t kDefaultBuildBlock = 64;

  /// Ranks every vertex of gd (graph 0) and g (graph 1) with `hr`,
  /// translating paths via `vocab`. `threads` parallelizes the build over
  /// vertex blocks of `block_size`, each ranked with one hr.TopKBatch call;
  /// per-vertex results are independent, so the table is byte-identical
  /// for any threads/block_size combination (test-enforced). When `mrho`
  /// is given, each property's joint path is embedded once via
  /// PathScorer::EmbedPath and stored in Property::embedding.
  /// `options` carries the deadline/cancellation contract: when it expires
  /// mid-build, the remaining blocks are skipped — their vertices keep
  /// empty rows (degraded but valid, never a partial row; every row is
  /// either fully ranked or untouched) and are reported via Pending() so a
  /// later Refresh can complete the table.
  static PropertyTable Build(const Graph& gd, const Graph& g,
                             const DescendantRanker& hr,
                             const JointVocab& vocab, size_t threads = 1,
                             const PathScorer* mrho = nullptr,
                             size_t block_size = kDefaultBuildBlock,
                             const RunOptions& options = {});

  std::span<const Property> Get(int graph, VertexId v, int k) const {
    HER_DCHECK(graph == 0 || graph == 1);
    const auto& rows = table_[graph];
    if (static_cast<size_t>(v) >= rows.size()) return {};
    const auto& all = rows[static_cast<size_t>(v)];
    return {all.data(), std::min(all.size(), static_cast<size_t>(k))};
  }

  /// Re-ranks the listed vertices against an updated graph (incremental
  /// maintenance; `hr` must already be bound to the new graph version);
  /// out-of-range vertices are skipped. Runs the block through the same
  /// TopKBatch path as Build. Pass the same `mrho` as Build so refreshed
  /// rows keep their precomputed path embeddings.
  /// Like Build, `options` makes the refresh deadline-aware: vertices not
  /// reached before expiry stay pending with their previous rows intact.
  /// Vertices successfully re-ranked are removed from the pending set, so
  /// a Refresh over Pending() completes a deadline-degraded Build.
  void Refresh(int graph, const Graph& g, std::span<const VertexId> vertices,
               const DescendantRanker& hr, const JointVocab& vocab,
               const PathScorer* mrho = nullptr,
               const RunOptions& options = {});

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
    return table_[0] == o.table_[0] && table_[1] == o.table_[1];
  }

  /// Serializes the ranked rows (and the pending set) for the durable
  /// snapshot; LoadState restores them bit for bit, so a warm-started run
  /// skips the whole Build.
  void SaveState(ByteWriter* w) const;
  Status LoadState(ByteReader* r);

 private:
  std::vector<std::vector<Property>> table_[2];  // [graph][vertex]
  std::vector<VertexId> pending_[2];  // deadline-skipped vertices, sorted
  double build_seconds_ = 0.0;
};

/// Implements algorithm ParaMatch of Section V (Fig. 4) plus the
/// VParaMatch / AllParaMatch drivers of Section VI-A.
///
/// The engine owns the two hashmap structures of the paper:
///  - `ecache`: top-k selected descendants per vertex (computed once);
///  - `cache`: per candidate pair, [valid?, W] where W is the lineage set
///    the validity is conditioned on, plus a reverse index so the cleanup
///    stage can recheck dependents of an invalidated pair.
///
/// Matches computed under the optimistic-then-invalidate discipline yield
/// the unique maximum match relation (Proposition 4 of the paper).
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
    size_t budget_exhausted = 0;   // pairs conservatively failed at budget
    size_t hrho_evaluations = 0;   // h_rho computations
    size_t border_assumptions = 0;  // pairs optimistically assumed (BSP)
    // --- h_v kernel telemetry (snapshots of the context's scorer, which
    // is shared: across engines these are global counters, not per-engine
    // deltas, so the BSP aggregation does not sum them) ---
    size_t hv_batch_calls = 0;     // ScoreBatch invocations
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
    // --- flat-table memo telemetry. The probe counters and the M_rho
    // load factor are snapshots of the context's shared CachingPathScorer
    // (same aggregation caveat as the h_v fields: the BSP aggregation
    // assigns, never sums, them); engine_cache_load_factor is per-engine
    // and max-merges across workers (occupancies do not add). ---
    size_t memo_probe_batches = 0;  // batched probes into the M_rho memo
    size_t memo_probe_len = 0;      // total keys across those probes
    double hrho_memo_load_factor = 0.0;  // M_rho memo shard occupancy [0,1]
    double engine_cache_load_factor = 0.0;  // this engine's verdict table
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
    size_t faults_injected = 0;    // crash/drop/dup/scorer faults fired
    size_t fault_retries = 0;      // transient scorer failures retried
    size_t checkpoints = 0;        // superstep-boundary snapshots taken
    size_t recoveries = 0;         // crashed fragments reassigned + replayed
    size_t disk_checkpoints = 0;   // durable snapshots written to disk
  };

  explicit MatchEngine(const MatchContext& ctx) : ctx_(ctx) {}

  const MatchContext& context() const { return ctx_; }

  /// Installs a deadline/cancellation contract for subsequent evaluations
  /// and resets any previous stop state. Expiry is checked cooperatively at
  /// every (recursive) pair evaluation: once it fires, no further pairs are
  /// evaluated, in-flight evaluations abort without caching a verdict, and
  /// the abandoned pairs are reported via UnresolvedPairs()/OutcomeOf().
  void SetRunOptions(const RunOptions& options) {
    run_options_ = options;
    stopped_ = false;
    unresolved_.clear();
    stats_.deadline_expired = 0;
  }

  /// True once a deadline/cancellation stopped this engine; verdicts
  /// produced afterwards are refusals (false without caching), and Pi must
  /// be recomputed through ResolveOutcomes/OutcomeOf.
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

  /// VPair core loop: checks `candidates` (pairs (u, v_g)) in increasing
  /// order of deg(v_g) and returns the matching v_g. The candidate set is
  /// produced by the caller (typically via an inverted index + h_v filter).
  std::vector<VertexId> MatchCandidates(VertexId u,
                                        std::span<const VertexId> candidates);

  /// Cached verdict for a pair, if any.
  const CacheEntry* Lookup(VertexId u, VertexId v) const;

  /// The witness Pi(u, v): every pair transitively referenced from (u, v)
  /// through lineage sets. Empty if (u, v) is not a cached valid match.
  std::vector<MatchPair> Witness(VertexId u, VertexId v) const;

  /// Classifies each root pair as proved / disproved / unresolved. In a
  /// completed run this is exactly the cached verdict. After a stop
  /// (deadline/cancellation), a pair only counts as proved when its whole
  /// witness closure is still cached valid: verdicts are demoted to
  /// unresolved when any pair in their support chain is missing, was
  /// abandoned, or flipped false without the cleanup stage having rerun —
  /// this keeps the degraded Pi a subset of the fault-free Pi. Cycles of
  /// valid pairs count as proved (the optimistic greatest-fixpoint
  /// semantics of Proposition 4).
  std::vector<PairOutcome> ResolveOutcomes(
      std::span<const MatchPair> roots) const;

  /// Single-pair convenience wrapper around ResolveOutcomes.
  PairOutcome OutcomeOf(VertexId u, VertexId v) const;

  /// The authoritative local state of this fragment: its pair verdicts
  /// (locality-filtered when a filter is set — border assumptions about
  /// remote pairs are the owner's state, not this fragment's) plus the
  /// lazily-built ecache rows. The parallel engine collects these when a
  /// degraded run must assemble a trustworthy global verdict map.
  struct Snapshot {
    std::vector<std::pair<MatchPair, CacheEntry>> verdicts;
    std::vector<std::pair<VertexId, std::vector<Property>>> ecache[2];
  };

  /// Captures the local verdicts + ecache rows (see Snapshot).
  Snapshot SnapshotLocalState() const;

  /// Top-k properties of a vertex (`graph` 0 = G_D, 1 = G), from the
  /// context's precomputed PropertyTable when present, otherwise via the
  /// lazily-filled ecache.
  std::span<const Property> PropertiesOf(int graph, VertexId v);

  /// h_rho of Eq. 2 for two selected properties.
  double HRho(const Property& pu, const Property& pv);

  /// Forgets all pair verdicts (keeps ecache, whose contents are
  /// parameter-k dependent but graph-determined).
  void ClearPairCache();

  /// Incremental maintenance: drops every cached verdict involving an
  /// affected G_D vertex or G vertex — transitively through the
  /// dependency index, since a dependent's validity was conditioned on
  /// the dropped pair — and forgets their ecache rows. Other verdicts
  /// survive; re-querying recomputes only what the update touched.
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
  /// drain; these become the BSP messages.
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
  /// lineage sets, evaluation budgets and the un-drained message queues —
  /// in canonical (sorted) order, so save -> load -> save is byte-stable.
  void SaveEngineState(ByteWriter* w) const;

  /// Exact inverse of SaveEngineState; the reverse dependency index is
  /// rebuilt from the witnesses (it is derived state). Replaces the
  /// current verdict state wholesale.
  Status LoadEngineState(ByteReader* r);

  /// Serializes the graph/parameter-determined warm cache: the lazily
  /// filled ecache rows.
  void SaveWarmCaches(ByteWriter* w) const;

  /// Restores the ecache rows; contents are deterministic derivations of
  /// the inputs, so a corrupt section is safely skipped (cold caches).
  /// Bytes after the rows are ignored: older snapshots follow them with a
  /// candidate-list block.
  Status LoadWarmCaches(ByteReader* r);

 private:
  /// One candidate for a selected descendant u' of u: a descendant v' of v
  /// that passed the sigma filter, with its h_rho value.
  struct Cand {
    VertexId v2;
    double hrho;
  };
  /// Builds the per-property candidate lists of Fig. 4 lines 6-11 for a
  /// root pair with properties pu and pv, each sorted by descending h_rho:
  /// one hv->ScoreBatch per property and a single batched M_rho call over
  /// the sigma-surviving pairs.
  std::vector<std::vector<Cand>> CandidateListsFor(
      std::span<const Property> pu, std::span<const Property> pv);

  /// One attempt at evaluating (u, v). Returns the verdict; sets *stale if
  /// a witness consumed as true got invalidated mid-evaluation (in which
  /// case the verdict must be recomputed).
  bool EvalOnce(VertexId u, VertexId v, bool* stale);

  /// Full ParaMatch with the stale-restart loop and recheck budget.
  bool ParaMatch(VertexId u, VertexId v);

  /// Stores a verdict, maintaining the reverse dependency index, and on a
  /// true->false flip triggers the cleanup stage (lines 29-31 of Fig. 4).
  void Store(VertexId u, VertexId v, bool valid,
             std::vector<MatchPair> witnesses);

  /// Removes an entry (without recording an invalidation); used before a
  /// cleanup rerun.
  void Unset(const MatchPair& key);

  /// Reruns ParaMatch on every cached pair whose W contains `key`.
  void RecheckDependents(const MatchPair& key);

  /// Remaining evaluation budget for a pair; the paper bounds re-checks at
  /// k^2 + 1, which we enforce so termination holds by construction.
  bool ConsumeBudget(const MatchPair& key);

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
  std::unordered_map<MatchPair, std::unordered_set<MatchPair, PairHash>,
                     PairHash>
      dependents_;
  FlatTable<int> eval_count_;
  std::vector<MatchPair> newly_invalidated_;
  std::vector<MatchPair> new_assumptions_;
  // Deadline/cancellation contract of the current run; default never fires.
  RunOptions run_options_;
  bool stopped_ = false;
  std::unordered_set<MatchPair, PairHash> unresolved_;
  // (u, v) -> is this pair owned by this fragment? empty = everything is.
  std::function<bool(VertexId, VertexId)> is_local_;

  // ecache: [graph] vertex -> properties. Filled lazily via h_r. Rows are
  // vectors, so the spans PropertiesOf hands out stay valid across table
  // rehashes (the heap buffer moves with the vector object, not the slot).
  FlatTable<std::vector<Property>> ecache_[2];
};

}  // namespace her

#endif  // HER_CORE_MATCH_ENGINE_H_
