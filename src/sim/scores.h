#ifndef HER_SIM_SCORES_H_
#define HER_SIM_SCORES_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/flat_table.h"
#include "graph/graph.h"
#include "ml/lstm.h"
#include "ml/mlp.h"
#include "ml/sgns.h"
#include "ml/text_embedder.h"
#include "sim/joint_vocab.h"
#include "sim/token_rows.h"

namespace her {

/// h_v: closeness of a vertex u of G_1 and a vertex v of G_2, in [0, 1]
/// (Section III, Eq. 1). Implementations must be thread-safe.
class VertexScorer {
 public:
  virtual ~VertexScorer() = default;
  virtual double Score(VertexId u, VertexId v) const = 0;

  /// Batched h_v: out[i] = Score(u, vs[i]) with vs.size() == out.size().
  /// The candidate generators score one tuple vertex against a whole
  /// candidate pool per call; implementations may use a vectorized kernel.
  /// The default loops over Score.
  virtual void ScoreBatch(VertexId u, std::span<const VertexId> vs,
                          std::span<double> out) const;

  /// h_v over every pair of `us` x `vs`: out[i * vs.size() + j] =
  /// Score(us[i], vs[j]) bit for bit, with out.size() == us.size() *
  /// vs.size(). CandidateListsFor scores all of u's property descendants
  /// against a run's descendants in one call, so a kernel can prepare each
  /// vertex once per call. The default makes one ScoreBatch per u.
  virtual void ScoreMatrix(std::span<const VertexId> us,
                           std::span<const VertexId> vs,
                           std::span<double> out) const;

  /// Number of ScoreBatch and ScoreMatrix invocations on this scorer
  /// (telemetry; feeds MatchEngine::Stats::hv_batch_calls). A scorer that
  /// overrides ScoreMatrix counts one per call; the default counts its
  /// ScoreBatch calls.
  size_t BatchCalls() const {
    return batch_calls_.load(std::memory_order_relaxed);
  }

 protected:
  mutable std::atomic<size_t> batch_calls_{0};
};

/// M_v backed by precomputed label embeddings of every vertex of both
/// graphs (the Sentence-BERT substitute): (|cos| + cos)/2 of the label
/// embeddings.
///
/// Embeddings are stored L2-normalized in one contiguous row-major matrix
/// per graph, so Score is a single dot product (no norm re-derivation).
/// ScoreMatrix is a register-blocked kernel (four u rows by a packed panel
/// of four v rows per pass) and ScoreBatch is its one-row case.
class EmbeddingVertexScorer : public VertexScorer {
 public:
  EmbeddingVertexScorer(const Graph& g1, const Graph& g2,
                        const HashedTextEmbedder& embedder);

  /// Same precomputation with an arbitrary label encoder (e.g. the
  /// trained word embedder of Appendix I).
  EmbeddingVertexScorer(
      const Graph& g1, const Graph& g2,
      const std::function<Vec(std::string_view)>& embed_fn);

  double Score(VertexId u, VertexId v) const override;
  void ScoreBatch(VertexId u, std::span<const VertexId> vs,
                  std::span<double> out) const override;
  void ScoreMatrix(std::span<const VertexId> us, std::span<const VertexId> vs,
                   std::span<double> out) const override;

  /// L2-normalized embedding row of a vertex label; `graph` is 0 for g1,
  /// 1 for g2. Exposed so baselines can reuse the precomputed matrix.
  std::span<const float> EmbeddingOf(int graph, VertexId v) const {
    return {Row(graph, v), dim_};
  }

  size_t dim() const { return dim_; }

  /// Number of embedding rows held for `graph` (= that graph's vertex
  /// count); the ANN index sizes itself from this.
  size_t num_rows(int graph) const {
    return dim_ == 0 ? 0 : matrix_[graph].size() / dim_;
  }

 private:
  const float* Row(int graph, VertexId v) const {
    return matrix_[graph].data() + static_cast<size_t>(v) * dim_;
  }

  size_t dim_ = 0;
  // [graph]: num_vertices x dim_, row v = normalized embedding of label(v).
  std::vector<float> matrix_[2];
};

/// Kept only because perfbench's apair-learned workload casts ctx.hv to it.
/// Memoizing h_v decorator (mirrors CachingPathScorer); no production
/// wiring installs it. Backed by a ShardedFlatMemo (cache-line-bucketed
/// open addressing); safe to share across threads. Each shard resets
/// wholesale when it exceeds `shard_cap` entries (cheap bounded memory,
/// counted by CacheEvictions). ScoreBatch goes through the memo's
/// prefetch-pipelined FindBatch: cached entries are served directly, only
/// the misses reach inner_->ScoreBatch, and their results are inserted —
/// so the scalar and batch paths see one coherent cache and
/// CacheHits/CacheEvictions cover both.
class CachingVertexScorer : public VertexScorer {
 public:
  static constexpr size_t kDefaultShardCap = 1 << 16;

  explicit CachingVertexScorer(const VertexScorer* inner,
                               size_t shard_cap = kDefaultShardCap)
      : inner_(inner), memo_(shard_cap) {}

  double Score(VertexId u, VertexId v) const override;
  void ScoreBatch(VertexId u, std::span<const VertexId> vs,
                  std::span<double> out) const override;

  size_t CacheSize() const { return memo_.Size(); }
  size_t CacheHits() const { return memo_.Hits(); }
  size_t CacheEvictions() const { return memo_.Evictions(); }
  /// Batched-probe telemetry (feeds Stats::memo_probe_batches/_len).
  size_t ProbeBatches() const { return memo_.ProbeBatches(); }
  size_t ProbeLen() const { return memo_.ProbeLen(); }
  /// Mean live occupancy of the memo's shard tables, in [0, 1].
  double MemoLoadFactor() const { return memo_.LoadFactor(); }
  const VertexScorer* inner() const { return inner_; }

 private:
  const VertexScorer* inner_;
  mutable ShardedFlatMemo<double> memo_;
};

/// Deterministic, training-free h_v: word-token-set Jaccard of the two
/// labels (TokenJaccard; 1.0 for equal label strings). It is the h_v of the
/// perfbench apair-scale workload, bench_scale and the tests. It keeps one
/// TokenRowStore over both graphs: the first call that needs a vertex
/// interns its label into a sorted row of token ids, and every later call
/// (from any thread) merges the stored rows as integers. Score, ScoreBatch
/// and ScoreMatrix run that one merge, so each equals TokenJaccard of the
/// two labels bit for bit. Nothing is built at construction beyond one
/// zeroed index word per vertex.
class JaccardVertexScorer : public VertexScorer {
 public:
  JaccardVertexScorer(const Graph& g1, const Graph& g2) : rows_(g1, g2) {}
  double Score(VertexId u, VertexId v) const override;
  void ScoreBatch(VertexId u, std::span<const VertexId> vs,
                  std::span<double> out) const override;
  void ScoreMatrix(std::span<const VertexId> us, std::span<const VertexId> vs,
                   std::span<double> out) const override;

  /// Label rows interned so far, over both graphs (a scan of the index, for
  /// tests); each vertex's row is published once however many threads ask
  /// for it.
  size_t RowsPublished() const { return rows_.rows_published(); }

 private:
  mutable TokenRowStore rows_;
};

/// One M_rho operand for the batched kernel: the joint-vocab token path
/// plus an optional precomputed path embedding. An empty `embedding` span
/// means "not precomputed" — the scorer embeds `tokens` itself. Both spans
/// borrow; the backing storage (e.g. Property::joint / Property::embedding
/// in the PropertyTable) must outlive the ScoreBatch call.
struct EmbeddedPath {
  std::span<const int> tokens;
  std::span<const float> embedding;
};

/// M_rho: similarity in [0, 1] of two edge-label sequences, given as joint
/// vocabulary tokens (Section IV, "Edge model"). Thread-safe.
/// Note h_rho = Score / (len1 + len2) is applied by the caller (Eq. 2).
class PathScorer {
 public:
  virtual ~PathScorer() = default;
  virtual double Score(std::span<const int> p1,
                       std::span<const int> p2) const = 0;

  /// Batched M_rho over parallel pair arrays: out[i] =
  /// Score(p1s[i], p2s[i]) bit for bit. Implementations may honor the
  /// precomputed embeddings in the operands; the default loops over Score
  /// on the token spans (embeddings ignored).
  virtual void ScoreBatch(std::span<const EmbeddedPath> p1s,
                          std::span<const EmbeddedPath> p2s,
                          std::span<double> out) const;

  /// Embeds a token path exactly as Score would internally, so callers can
  /// precompute EmbeddedPath::embedding once per property. Returns an
  /// empty vector when this scorer has no embedding stage (e.g. the
  /// token-overlap fallback); such operands are scored from tokens.
  virtual Vec EmbedPath(std::span<const int> /*p*/) const { return {}; }

  /// Number of ScoreBatch invocations on this scorer (telemetry; feeds
  /// MatchEngine::Stats::hrho_batch_calls).
  size_t BatchCalls() const {
    return batch_calls_.load(std::memory_order_relaxed);
  }

 protected:
  mutable std::atomic<size_t> batch_calls_{0};
};

/// The paper's M_rho: SGNS path embeddings (BERT substitute) compared by a
/// metric-learning MLP over pair features. Both models are borrowed (not
/// owned) and must outlive the scorer.
class MetricPathScorer : public PathScorer {
 public:
  MetricPathScorer(const SgnsModel* sgns, const Mlp* metric)
      : sgns_(sgns), metric_(metric) {}

  double Score(std::span<const int> p1,
               std::span<const int> p2) const override;

  /// Builds one pair-feature row per pair (reusing precomputed embeddings,
  /// embedding the rest) and scores the whole matrix with one
  /// Mlp::PredictBatch call. Bit-identical to the scalar Score path.
  void ScoreBatch(std::span<const EmbeddedPath> p1s,
                  std::span<const EmbeddedPath> p2s,
                  std::span<double> out) const override;

  Vec EmbedPath(std::span<const int> p) const override {
    return sgns_->EmbedSequence(p);
  }

 private:
  const SgnsModel* sgns_;
  const Mlp* metric_;
};

/// Deterministic M_rho for unit tests and cold-start runs: word-token
/// Jaccard of the concatenated label names ("made_in" vs
/// "factorySite isIn isIn" share no tokens -> 0; "country" vs
/// "brandCountry" share "country" -> 0.5).
///
/// The constructor interns the WordTokens of every vocabulary name once
/// (token names are frozen with the vocabulary; RebindGraph only remaps
/// labels to them), so Score merges two sorted integer unions instead of
/// comparing strings.
class TokenOverlapPathScorer : public PathScorer {
 public:
  explicit TokenOverlapPathScorer(const JointVocab* vocab);
  double Score(std::span<const int> p1,
               std::span<const int> p2) const override;

 private:
  // Row t: the distinct interned word tokens of vocabulary name t, sorted;
  // row t = words_[offsets_[t], offsets_[t + 1]).
  std::vector<uint32_t> words_;
  std::vector<uint32_t> offsets_;
};

/// Memoizing decorator: M_rho is called with heavily repeated path pairs
/// (every candidate pair sharing predicates), so a cache pays off. The
/// cache is sharded by hash and lock-guarded; safe to share across threads,
/// and the BSP workers all share the context's one instance. Each shard is
/// capped at `shard_cap` entries and resets wholesale on overflow (cheap
/// bounded memory for long AllParaMatch runs), counted by CacheEvictions.
///
/// Entries keep the token-path pair as key material: a 64-bit combined
/// hash alone would silently alias distinct pairs, so every probe verifies
/// the stored paths against the operands and treats a mismatch as a miss
/// (counted by HashRejects; the colliding entry is replaced).
class CachingPathScorer : public PathScorer {
 public:
  static constexpr size_t kDefaultShardCap = 1 << 16;

  explicit CachingPathScorer(const PathScorer* inner,
                             size_t shard_cap = kDefaultShardCap)
      : inner_(inner), shard_cap_(shard_cap == 0 ? 1 : shard_cap) {}

  double Score(std::span<const int> p1,
               std::span<const int> p2) const override;

  /// Serves cached pairs, forwards only the misses (with their precomputed
  /// embeddings intact) to inner_->ScoreBatch, and inserts the results —
  /// the scalar and batch paths share one coherent memo.
  void ScoreBatch(std::span<const EmbeddedPath> p1s,
                  std::span<const EmbeddedPath> p2s,
                  std::span<double> out) const override;

  Vec EmbedPath(std::span<const int> p) const override {
    return inner_->EmbedPath(p);
  }

  size_t CacheSize() const;
  size_t CacheHits() const { return hits_.load(std::memory_order_relaxed); }
  size_t CacheEvictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Probes whose 64-bit hash matched a resident entry holding a
  /// *different* token-path pair (hash collision caught by verification).
  size_t HashRejects() const {
    return hash_rejects_.load(std::memory_order_relaxed);
  }
  /// Batched-probe telemetry (feeds Stats::memo_probe_batches/_len).
  size_t ProbeBatches() const {
    return probe_batches_.load(std::memory_order_relaxed);
  }
  size_t ProbeLen() const {
    return probe_len_.load(std::memory_order_relaxed);
  }
  /// Mean live occupancy of the memo's shard tables, in [0, 1].
  double MemoLoadFactor() const;
  const PathScorer* inner() const { return inner_; }

 protected:
  /// 64-bit key of a path pair. Virtual so tests can inject a colliding
  /// hash and exercise the verification/reject path deterministically.
  virtual uint64_t HashPair(std::span<const int> p1,
                            std::span<const int> p2) const;

 private:
  static constexpr size_t kShards = 16;
  struct Entry {
    std::vector<int> p1, p2;  // verification key material
    double score = 0.0;
  };
  struct Shard {
    mutable std::mutex mu;
    mutable FlatTable<Entry> table;
  };

  /// Probes one pair; returns true on a verified hit (score in *score).
  bool Probe(uint64_t key, std::span<const int> p1, std::span<const int> p2,
             double* score) const;
  void Insert(uint64_t key, std::span<const int> p1, std::span<const int> p2,
              double score) const;

  const PathScorer* inner_;
  size_t shard_cap_;
  mutable Shard shards_[kShards];
  mutable std::atomic<size_t> hits_{0};
  mutable std::atomic<size_t> evictions_{0};
  mutable std::atomic<size_t> hash_rejects_{0};
  mutable std::atomic<size_t> probe_batches_{0};
  mutable std::atomic<size_t> probe_len_{0};
};

/// One important property of a vertex, as selected by h_r: a descendant
/// plus the path to it and the path's PRA score.
struct RankedProperty {
  VertexId descendant = kInvalidVertex;
  PathRef path;  // labels are per-graph LabelIds
  double pra = 0.0;
};

/// h_r: selects the top-k important properties of a vertex (Section IV,
/// "Ranking function"). `graph` is 0 for G_1/G_D and 1 for G_2/G.
/// Implementations must be thread-safe.
class DescendantRanker {
 public:
  virtual ~DescendantRanker() = default;
  virtual std::vector<RankedProperty> TopK(int graph, VertexId v,
                                           int k) const = 0;

  /// Batched h_r over a block of vertices: out[i] == TopK(graph, vs[i], k)
  /// exactly (test-enforced). The PropertyTable build feeds vertex blocks
  /// through this; implementations may run the per-vertex work in lockstep
  /// (one model call per round across every live walk). The default loops
  /// over TopK.
  virtual std::vector<std::vector<RankedProperty>> TopKBatch(
      int graph, std::span<const VertexId> vs, int k) const;

  /// Number of TopKBatch invocations on this ranker (telemetry; feeds
  /// MatchEngine::Stats::hr_batch_calls).
  size_t BatchCalls() const {
    return batch_calls_.load(std::memory_order_relaxed);
  }

 protected:
  mutable std::atomic<size_t> batch_calls_{0};
};

/// PRA-only ranker: enumerates the maximum-PRA path to every descendant
/// within `max_len` hops and keeps the k best by PRA. This is the
/// deterministic fallback used before the LSTM is trained, and the ablation
/// point "h_r without the language model".
class PraRanker : public DescendantRanker {
 public:
  PraRanker(const Graph& g1, const Graph& g2, size_t max_len = 4)
      : graphs_{&g1, &g2}, max_len_(max_len) {}

  std::vector<RankedProperty> TopK(int graph, VertexId v,
                                   int k) const override;

 private:
  const Graph* graphs_[2];
  size_t max_len_;
};

/// The paper's h_r: for each out-edge of v, extend a path greedily with the
/// LSTM language model until it emits <eos>, dead-ends or would cycle; then
/// rank the collected paths by PRA and keep the top k.
class LstmPraRanker : public DescendantRanker {
 public:
  LstmPraRanker(const Graph& g1, const Graph& g2, const JointVocab* vocab,
                const LstmLm* lm, size_t max_len = 4)
      : graphs_{&g1, &g2}, vocab_(vocab), lm_(lm), max_len_(max_len) {}

  std::vector<RankedProperty> TopK(int graph, VertexId v,
                                   int k) const override;

  /// Lockstep kernel: runs the greedy walks of every vertex in `vs`
  /// simultaneously, one LstmLm::StepProbBatch call per frontier round
  /// across all live walks (per-lane cycle sets, eos/dead-end retirement),
  /// then applies the same max-PRA merge per vertex. Returns exactly what
  /// per-vertex TopK returns.
  std::vector<std::vector<RankedProperty>> TopKBatch(
      int graph, std::span<const VertexId> vs, int k) const override;

  /// LM-level telemetry of the lockstep kernel (all counts cumulative).
  size_t LstmBatchCalls() const {
    return lstm_batch_calls_.load(std::memory_order_relaxed);
  }
  size_t LstmBatchLanes() const {
    return lstm_batch_lanes_.load(std::memory_order_relaxed);
  }
  size_t WalkRounds() const {
    return walk_rounds_.load(std::memory_order_relaxed);
  }

 private:
  struct Walk;  // live lane of the lockstep kernel (scores.cc)

  /// Shared merge stage of TopK/TopKBatch: combines the LM-guided walk
  /// results of one vertex with its max-PRA descendants and keeps the k
  /// best (sort by PRA desc, descendant asc; dedup by descendant).
  std::vector<RankedProperty> Finalize(
      int graph, VertexId v, int k,
      std::vector<RankedProperty> lm_results) const;

  const Graph* graphs_[2];
  const JointVocab* vocab_;
  const LstmLm* lm_;
  size_t max_len_;
  mutable std::atomic<size_t> lstm_batch_calls_{0};
  mutable std::atomic<size_t> lstm_batch_lanes_{0};
  mutable std::atomic<size_t> walk_rounds_{0};
};

}  // namespace her

#endif  // HER_SIM_SCORES_H_
