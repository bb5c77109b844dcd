#ifndef HER_LEARN_HER_SYSTEM_H_
#define HER_LEARN_HER_SYSTEM_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ann/ivf_index.h"
#include "common/env.h"
#include "core/candidates.h"
#include "core/drivers.h"
#include "core/match_engine.h"
#include "core/schema_match.h"
#include "learn/random_search.h"
#include "learn/trainer.h"
#include "parallel/bsp_engine.h"

namespace her {

/// Top-level HER configuration (Fig. 2: RDB2RDF + Learn + the three query
/// modes).
struct HerConfig {
  LearnConfig learn;
  /// Initial thresholds; replaced by random search when tune_params is on.
  SimulationParams params;
  bool tune_params = true;
  RandomSearchConfig search;
  /// Use the LSTM ranker (h_r per the paper); false falls back to PRA-only.
  bool use_lstm_ranker = true;
  size_t ranker_max_len = 4;
  /// Posting-list cap for the blocking index; 0 derives it from |V|.
  size_t blocking_max_posting = 0;
  /// How the APair drivers scan G for sigma-survivors (exact |T| x |V|
  /// sweep vs IVF probe over the h_v embeddings). ANN mode replaces label
  /// blocking as the pruning device: APair/APairParallel route through
  /// the unblocked driver, which probes the index.
  CandidateGenConfig candidate_gen;
  /// IVF build knobs (nlist/seed/iterations); nlist 0 derives from |V|.
  IvfBuildConfig ann_build;
  /// Section V strategy switches (ablation only; keep on in production).
  bool enable_early_termination = true;
  bool enable_degree_sort = true;
  /// How APairParallel fragments G across the BSP workers. kEdgeCut
  /// co-locates neighborhoods (streaming LDG) and cuts the cross-fragment
  /// recursion traffic; kHash is the balanced-in-expectation default.
  PartitionStrategy partition = PartitionStrategy::kHash;
  /// Per-BSP-worker memory budget in bytes; 0 = unlimited. Caps wire
  /// batches only (see ParallelConfig::worker_mem_budget_bytes).
  size_t worker_mem_budget_bytes = 0;
};

/// The HER system (Section II): wires the canonical graph G_D, graph G,
/// the learned parameter functions and the ParaMatch engine behind the
/// three query modes SPair / VPair / APair, plus schema matches,
/// explanations and feedback-driven refinement.
///
/// Borrows `canonical` and `g`; both must outlive the system.
class HerSystem {
 public:
  HerSystem(const CanonicalGraph& canonical, const Graph& g, HerConfig config);

  /// Trains the parameter functions (module Learn) and, when configured,
  /// tunes (sigma, delta, k) on the validation pairs by random search.
  void Train(std::span<const PathPairExample> path_pairs,
             std::span<const Annotation> validation);

  /// Train() with a durable warm start: restores trained models, tuned
  /// thresholds, the property table and the engine's warm caches from the
  /// snapshot at `snapshot_path` when they validate (magic, version, CRC,
  /// fingerprint); every section that does not validate is rebuilt cold
  /// with the reason logged — never a crash, never silently wrong — and
  /// the refreshed snapshot is written back atomically. Time spent
  /// restoring surfaces as Stats::snapshot_load_seconds; a fully warm
  /// start leaves Stats::ptable_build_seconds at zero.
  void TrainOrLoad(const std::string& snapshot_path,
                   std::span<const PathPairExample> path_pairs,
                   std::span<const Annotation> validation,
                   Env* env = nullptr);

  /// Saves trained models, tuned thresholds, the property table and the
  /// engine's warm caches to `path` (checksummed snapshot, atomically
  /// installed). Requires a trained system.
  Status SaveSnapshot(const std::string& path, Env* env = nullptr) const;

  /// Binds snapshots and BSP checkpoints to this exact setup: digests of
  /// G_D and G, the configured thresholds and the training seed.
  uint64_t Fingerprint() const;

  /// SPair: does tuple t match vertex v_g of G?
  bool SPair(TupleRef t, VertexId v_g);

  /// SPair addressed by the G_D vertex directly (evaluation uses this).
  bool SPairVertex(VertexId u_t, VertexId v_g);

  /// VPair: all vertices of G matching tuple t.
  std::vector<VertexId> VPair(TupleRef t, bool use_blocking = true);

  /// VPair addressed by the G_D tuple vertex directly (the serving
  /// layer's read entry point; feedback overrides apply like VPair).
  std::vector<VertexId> VPairVertex(VertexId u_t, bool use_blocking = true);

  /// APair: all matches across D and G (sequential).
  std::vector<MatchPair> APair(bool use_blocking = true);

  /// APair on the BSP runtime with n workers. `options` carries the
  /// deadline/cancellation budget; on expiry the result is flagged
  /// degraded with a partial (sound) Pi and per-pair outcomes.
  ParallelResult APairParallel(uint32_t workers, bool use_blocking = true,
                               const RunOptions& options = {});

  /// APairParallel with durable BSP progress checkpoints: `ckpt.dir`
  /// receives periodic crash-restart snapshots of the fixpoint loop, and
  /// `ckpt.resume` restarts from them. A zero `ckpt.fingerprint` is
  /// filled in from Fingerprint().
  ParallelResult APairParallel(uint32_t workers, bool use_blocking,
                               const RunOptions& options,
                               CheckpointOptions ckpt);

  /// Explainability: why did (t, v_g) (not) match?
  std::string Explain(TupleRef t, VertexId v_g);

  /// Schema matches Gamma pertaining to (t, v_g) (Appendix D).
  std::vector<SchemaMatch> SchemaMatchesOf(TupleRef t, VertexId v_g);

  /// Records a user-verified verdict for a pair (Interaction, Section IV).
  /// Applied on top of parametric simulation in SPair*.
  void AddFeedbackOverride(VertexId u_t, VertexId v_g, bool is_match);

  /// Withdraws a previously recorded override (no-op when absent); the
  /// pair falls back to parametric simulation. The serving layer's
  /// feedback Delete entry point.
  void RemoveFeedbackOverride(VertexId u_t, VertexId v_g);

  /// Fine-tunes M_rho from FP/FN path evidence and invalidates the pair
  /// cache so new scores take effect.
  void FineTune(std::span<const PathPairExample> fp_evidence,
                std::span<const PathPairExample> fn_evidence, int epochs = 3,
                double triplet_margin = 0.3);

  /// Path-pair evidence for feedback on (u_t, v_g): the aligned property
  /// paths of the two vertices (by h_v of their endpoints).
  std::vector<PathPairExample> CollectPathEvidence(VertexId u_t,
                                                   VertexId v_g);

  /// Replaces thresholds and resets the engine caches.
  void SetParams(const SimulationParams& params);

  /// Builds the IVF index over the h_v embeddings of G if ANN candidate
  /// generation is configured and the index is missing (APair does this
  /// lazily; benches call it up front to time the build separately).
  void EnsureAnnIndex();

  /// The IVF index, or null when ANN mode is off / not yet built.
  const IvfIndex* ann_index() const { return ann_.get(); }

  /// Incremental maintenance (Section VI remark (2)): switches to an
  /// updated version of G with the same vertex set and labels but
  /// possibly different edges. Re-ranks only the vertices whose property
  /// horizon touches a changed vertex and drops only the affected
  /// verdicts; everything else stays cached. `new_g` must outlive the
  /// system. Requires a trained system.
  ///
  /// `options` bounds the re-ranking work: affected verdicts are ALWAYS
  /// retracted (no stale verdict survives, regardless of expiry), but
  /// property rows not re-ranked before the deadline stay pending —
  /// UpdateComplete() turns false and CompleteUpdate() finishes the work
  /// later. The engine is consistent throughout: a pair either has no
  /// cached verdict or one whose support was fully re-derived.
  void UpdateGraph(const Graph& new_g, const RunOptions& options = {});

  /// True when no property rows are pending from a deadline-degraded
  /// Build/UpdateGraph; fresh verdicts are only trustworthy when true.
  bool UpdateComplete() const;

  /// Re-ranks the rows a deadline-degraded Build/UpdateGraph left
  /// pending. Returns OK once the table is complete; ResourceExhausted
  /// when `options` expired first (call again to resume — progress is
  /// kept, vertices already re-ranked never repeat).
  Status CompleteUpdate(const RunOptions& options = {});

  const SimulationParams& params() const { return ctx_.params; }
  const MatchContext& context() const { return ctx_; }
  MatchEngine& engine() { return *engine_; }
  const CanonicalGraph& canonical() const { return *canonical_; }
  bool trained() const { return trained_; }

 private:
  /// Replaces models_ with the snapshot's "models" section (cold-start
  /// embedder + vocab are rebuilt deterministically, not stored).
  Status LoadModelsFromSnapshot(ByteReader* r);
  void EnsureBlockingIndex();
  void EnsureRootOwners();
  void RebuildScorers();
  /// Blocked candidate pool of a tuple vertex filtered by h_v >= sigma
  /// (one ScoreBatch call). Requires the blocking index.
  std::vector<VertexId> BlockedSigmaCandidates(VertexId u_t);

  const CanonicalGraph* canonical_;
  const Graph* g_;
  HerConfig config_;
  bool trained_ = false;

  TrainedModels models_;
  std::unique_ptr<EmbeddingVertexScorer> hv_;
  std::unique_ptr<MetricPathScorer> mrho_inner_;
  std::unique_ptr<TokenOverlapPathScorer> mrho_fallback_;
  std::unique_ptr<CachingPathScorer> mrho_;
  std::unique_ptr<DescendantRanker> hr_;
  std::unique_ptr<PropertyTable> properties_;  // offline h_r (post-Train)
  std::unique_ptr<IvfIndex> ann_;  // IVF over hv_'s G rows (ANN mode)
  MatchContext ctx_;
  std::unique_ptr<MatchEngine> engine_;
  std::unique_ptr<InvertedIndex> blocking_;
  std::unordered_map<MatchPair, bool, PairHash> feedback_;
  // G_D vertex -> its root tuple vertex (for candidate co-location in the
  // parallel engine, mirroring the paper's inverted-index placement).
  std::vector<VertexId> gd_root_;
  // Original M_rho supervision, replayed during feedback fine-tuning so a
  // small noisy batch cannot wipe the learned alignment.
  std::vector<PathPairExample> training_pairs_;
};

}  // namespace her

#endif  // HER_LEARN_HER_SYSTEM_H_
