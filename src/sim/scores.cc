#include "sim/scores.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "graph/traversal.h"
#include "ml/vector_ops.h"

namespace her {

namespace {

/// Rows are pre-normalized, so the dot product IS the cosine up to float
/// rounding; clamp like Cosine does, then map into [0, 1].
double UnitFromDot(double dot) {
  if (dot > 1.0) dot = 1.0;
  if (dot < -1.0) dot = -1.0;
  return CosineToUnit(dot);
}

/// One R x C tile of h_v over embedding rows: out[r * stride + c] for the
/// u rows `a` and the v rows `b`. Every pair keeps its own double
/// accumulator and adds its products in index order, exactly as DotRows
/// does, so each entry is bit-identical to the scalar Score.
template <size_t R, size_t C>
void DotTile(const float* const (&a)[R], const float* const (&b)[C],
             size_t dim, double* out, size_t stride) {
  double s[R][C] = {};
  for (size_t d = 0; d < dim; ++d) {
    for (size_t r = 0; r < R; ++r) {
      const double ad = a[r][d];
      for (size_t c = 0; c < C; ++c) s[r][c] += ad * b[c][d];
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t c = 0; c < C; ++c) out[r * stride + c] = UnitFromDot(s[r][c]);
  }
}

/// R u rows against every v row: four v rows per pass over the u rows, then
/// the tail one at a time.
template <size_t R>
void DotRowsTimesAll(const float* const (&a)[R], const float* m2, size_t dim,
                     std::span<const VertexId> vs, double* out) {
  const size_t nv = vs.size();
  auto row = [&](size_t j) { return m2 + static_cast<size_t>(vs[j]) * dim; };
  size_t j = 0;
  for (; j + 4 <= nv; j += 4) {
    const float* const b[4] = {row(j), row(j + 1), row(j + 2), row(j + 3)};
    DotTile<R, 4>(a, b, dim, out + j, nv);
  }
  for (; j < nv; ++j) {
    const float* const b[1] = {row(j)};
    DotTile<R, 1>(a, b, dim, out + j, nv);
  }
}

}  // namespace

void VertexScorer::ScoreBatch(VertexId u, std::span<const VertexId> vs,
                              std::span<double> out) const {
  HER_DCHECK(vs.size() == out.size());
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < vs.size(); ++i) out[i] = Score(u, vs[i]);
}

void VertexScorer::ScoreMatrix(std::span<const VertexId> us,
                               std::span<const VertexId> vs,
                               std::span<double> out) const {
  HER_DCHECK(out.size() == us.size() * vs.size());
  for (size_t i = 0; i < us.size(); ++i) {
    ScoreBatch(us[i], vs, out.subspan(i * vs.size(), vs.size()));
  }
}

EmbeddingVertexScorer::EmbeddingVertexScorer(
    const Graph& g1, const Graph& g2, const HashedTextEmbedder& embedder)
    : EmbeddingVertexScorer(g1, g2, [&embedder](std::string_view label) {
        return embedder.Embed(label);
      }) {}

EmbeddingVertexScorer::EmbeddingVertexScorer(
    const Graph& g1, const Graph& g2,
    const std::function<Vec(std::string_view)>& embed_fn) {
  const Graph* graphs[2] = {&g1, &g2};
  for (int gi = 0; gi < 2; ++gi) {
    const Graph& g = *graphs[gi];
    std::vector<float>& m = matrix_[gi];
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      Vec e = embed_fn(g.label(v));
      NormalizeL2(e);
      if (dim_ == 0) dim_ = e.size();
      HER_CHECK(e.size() == dim_);
      if (m.empty()) m.reserve(g.num_vertices() * dim_);
      m.insert(m.end(), e.begin(), e.end());
    }
  }
}

double EmbeddingVertexScorer::Score(VertexId u, VertexId v) const {
  return UnitFromDot(DotRows(Row(0, u), Row(1, v), dim_));
}

void EmbeddingVertexScorer::ScoreBatch(VertexId u,
                                       std::span<const VertexId> vs,
                                       std::span<double> out) const {
  ScoreMatrix({&u, 1}, vs, out);
}

void EmbeddingVertexScorer::ScoreMatrix(std::span<const VertexId> us,
                                        std::span<const VertexId> vs,
                                        std::span<double> out) const {
  HER_DCHECK(out.size() == us.size() * vs.size());
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  // Two u rows share each pass over four v rows: eight independent
  // accumulator chains, and every v row loaded once per u pair. Scores go
  // straight into `out`, so the kernel allocates nothing.
  const float* m2 = matrix_[1].data();
  size_t i = 0;
  for (; i + 2 <= us.size(); i += 2) {
    const float* const a[2] = {Row(0, us[i]), Row(0, us[i + 1])};
    DotRowsTimesAll<2>(a, m2, dim_, vs, out.data() + i * vs.size());
  }
  if (i < us.size()) {
    const float* const a[1] = {Row(0, us[i])};
    DotRowsTimesAll<1>(a, m2, dim_, vs, out.data() + i * vs.size());
  }
}

double CachingVertexScorer::Score(VertexId u, VertexId v) const {
  const uint64_t key = PairKey(u, v);
  double score = 0.0;
  if (memo_.Find(key, &score)) return score;
  score = inner_->Score(u, v);
  memo_.Insert(key, score);
  return score;
}

void CachingVertexScorer::ScoreBatch(VertexId u, std::span<const VertexId> vs,
                                     std::span<double> out) const {
  HER_DCHECK(vs.size() == out.size());
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  // One prefetch-pipelined memo probe for the whole candidate block, then
  // one inner ScoreBatch over just the misses. Scratch is thread_local so
  // a warm steady state allocates nothing per call.
  thread_local std::vector<uint64_t> keys;
  thread_local std::vector<uint8_t> found;
  keys.resize(vs.size());
  found.resize(vs.size());
  for (size_t i = 0; i < vs.size(); ++i) keys[i] = PairKey(u, vs[i]);
  memo_.FindBatch(keys, out.data(), found.data());
  std::vector<VertexId> miss_vs;
  std::vector<size_t> miss_idx;
  for (size_t i = 0; i < vs.size(); ++i) {
    if (found[i] == 0) {
      miss_vs.push_back(vs[i]);
      miss_idx.push_back(i);
    }
  }
  if (miss_vs.empty()) return;
  std::vector<double> miss_out(miss_vs.size());
  inner_->ScoreBatch(u, miss_vs, miss_out);
  for (size_t j = 0; j < miss_vs.size(); ++j) {
    out[miss_idx[j]] = miss_out[j];
    memo_.Insert(PairKey(u, miss_vs[j]), miss_out[j]);
  }
}

double JaccardVertexScorer::Score(VertexId u, VertexId v) const {
  return TokenJaccard(g1_->label(u), g2_->label(v));
}

void JaccardVertexScorer::ScoreBatch(VertexId u, std::span<const VertexId> vs,
                                     std::span<double> out) const {
  ScoreMatrix({&u, 1}, vs, out);
}

void JaccardVertexScorer::ScoreMatrix(std::span<const VertexId> us,
                                      std::span<const VertexId> vs,
                                      std::span<double> out) const {
  HER_DCHECK(out.size() == us.size() * vs.size());
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  // Rows [0, |us|) hold the u labels' tokens and rows |us| + j the label of
  // vs[j]; each label is tokenized and sorted once per call.
  thread_local WordTokenRows rows;
  rows.Clear();
  for (const VertexId u : us) rows.Add(g1_->label(u));
  for (const VertexId v : vs) rows.Add(g2_->label(v));
  for (size_t i = 0; i < us.size(); ++i) {
    rows.JaccardRow(i, us.size(), out.subspan(i * vs.size(), vs.size()));
  }
}

void PathScorer::ScoreBatch(std::span<const EmbeddedPath> p1s,
                            std::span<const EmbeddedPath> p2s,
                            std::span<double> out) const {
  HER_DCHECK(p1s.size() == out.size() && p2s.size() == out.size());
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = Score(p1s[i].tokens, p2s[i].tokens);
  }
}

double MetricPathScorer::Score(std::span<const int> p1,
                               std::span<const int> p2) const {
  const Vec e1 = sgns_->EmbedSequence(p1);
  const Vec e2 = sgns_->EmbedSequence(p2);
  return metric_->Predict(PairFeatures(e1, e2));
}

void MetricPathScorer::ScoreBatch(std::span<const EmbeddedPath> p1s,
                                  std::span<const EmbeddedPath> p2s,
                                  std::span<double> out) const {
  HER_DCHECK(p1s.size() == out.size() && p2s.size() == out.size());
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  if (out.empty()) return;
  const size_t dim = sgns_->dim();
  const size_t fdim = 4 * dim;
  HER_DCHECK(fdim == metric_->input_dim());
  std::vector<float> rows(out.size() * fdim);
  Vec e1, e2;  // scratch for operands without a precomputed embedding
  for (size_t i = 0; i < out.size(); ++i) {
    std::span<const float> a = p1s[i].embedding;
    if (a.empty()) {
      e1 = sgns_->EmbedSequence(p1s[i].tokens);
      a = e1;
    }
    std::span<const float> b = p2s[i].embedding;
    if (b.empty()) {
      e2 = sgns_->EmbedSequence(p2s[i].tokens);
      b = e2;
    }
    PairFeaturesInto(a, b,
                     std::span<float>(rows).subspan(i * fdim, fdim));
  }
  metric_->PredictBatch(rows, out);
}

TokenOverlapPathScorer::TokenOverlapPathScorer(const JointVocab* vocab) {
  std::unordered_map<std::string, uint32_t> ids;
  offsets_.reserve(vocab->size() + 1);
  offsets_.push_back(0);
  for (size_t t = 0; t < vocab->size(); ++t) {
    const size_t begin = words_.size();
    for (std::string& w : WordTokens(vocab->Name(static_cast<int>(t)))) {
      const uint32_t next = static_cast<uint32_t>(ids.size());
      words_.push_back(ids.try_emplace(std::move(w), next).first->second);
    }
    std::sort(words_.begin() + begin, words_.end());
    words_.erase(std::unique(words_.begin() + begin, words_.end()),
                 words_.end());
    offsets_.push_back(static_cast<uint32_t>(words_.size()));
  }
}

double TokenOverlapPathScorer::Score(std::span<const int> p1,
                                     std::span<const int> p2) const {
  // Each path's word set is the sorted, de-duplicated union of its names'
  // rows, built in per-thread scratch.
  thread_local std::vector<uint32_t> ta, tb;
  auto words_of = [&](std::span<const int> path, std::vector<uint32_t>& out) {
    out.clear();
    for (const int t : path) {
      HER_DCHECK(t >= 0 && static_cast<size_t>(t) + 1 < offsets_.size());
      out.insert(out.end(), words_.begin() + offsets_[t],
                 words_.begin() + offsets_[t + 1]);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  };
  words_of(p1, ta);
  words_of(p2, tb);
  if (ta.empty() && tb.empty()) return 1.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < ta.size() && j < tb.size()) {
    const uint32_t a = ta[i];
    const uint32_t b = tb[j];
    if (a <= b) ++i;
    if (a >= b) ++j;
    if (a == b) ++inter;
  }
  const size_t uni = ta.size() + tb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

namespace {

uint64_t HashTokenPath(std::span<const int> p) {
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (const int t : p) h = HashCombine(h, static_cast<uint64_t>(t) + 1);
  return h;
}

}  // namespace

namespace {

bool SamePath(const std::vector<int>& stored, std::span<const int> probe) {
  return stored.size() == probe.size() &&
         std::equal(stored.begin(), stored.end(), probe.begin());
}

}  // namespace

bool CachingPathScorer::Probe(uint64_t key, std::span<const int> p1,
                              std::span<const int> p2, double* score) const {
  Shard& shard = shards_[key % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  const Entry* e = shard.table.Find(key);
  if (e == nullptr) return false;
  if (!SamePath(e->p1, p1) || !SamePath(e->p2, p2)) {
    hash_rejects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  *score = e->score;
  return true;
}

void CachingPathScorer::Insert(uint64_t key, std::span<const int> p1,
                               std::span<const int> p2, double score) const {
  Shard& shard = shards_[key % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.table.Size() >= shard_cap_) {
    shard.table.Clear();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  // insert_or_assign so a hash-colliding resident entry is replaced by the
  // fresher pair instead of permanently shadowing it.
  shard.table.InsertOrAssign(
      key, Entry{std::vector<int>(p1.begin(), p1.end()),
                 std::vector<int>(p2.begin(), p2.end()), score});
}

uint64_t CachingPathScorer::HashPair(std::span<const int> p1,
                                     std::span<const int> p2) const {
  return HashCombine(HashTokenPath(p1), HashTokenPath(p2));
}

double CachingPathScorer::Score(std::span<const int> p1,
                                std::span<const int> p2) const {
  const uint64_t key = HashPair(p1, p2);
  double score = 0.0;
  if (Probe(key, p1, p2, &score)) return score;
  score = inner_->Score(p1, p2);
  Insert(key, p1, p2, score);
  return score;
}

void CachingPathScorer::ScoreBatch(std::span<const EmbeddedPath> p1s,
                                   std::span<const EmbeddedPath> p2s,
                                   std::span<double> out) const {
  HER_DCHECK(p1s.size() == out.size() && p2s.size() == out.size());
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  const size_t n = out.size();
  probe_batches_.fetch_add(1, std::memory_order_relaxed);
  probe_len_.fetch_add(n, std::memory_order_relaxed);
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = HashPair(p1s[i].tokens, p2s[i].tokens);
  }
  // Grouped, prefetch-pipelined probe: one lock acquisition per shard and
  // the home buckets of upcoming keys hinted ahead of each verified Find.
  // Hit/reject accounting is exactly the per-key Probe path's.
  static constexpr size_t kPrefetchWindow = 8;
  std::vector<uint8_t> probe_hit(n, 0);
  std::vector<size_t> sidx;
  size_t batch_hits = 0;
  size_t batch_rejects = 0;
  for (size_t s = 0; s < kShards; ++s) {
    sidx.clear();
    for (size_t i = 0; i < n; ++i) {
      if (keys[i] % kShards == s) sidx.push_back(i);
    }
    if (sidx.empty()) continue;
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    const size_t warm = sidx.size() < kPrefetchWindow ? sidx.size()
                                                      : kPrefetchWindow;
    for (size_t j = 0; j < warm; ++j) shard.table.PrefetchKey(keys[sidx[j]]);
    for (size_t j = 0; j < sidx.size(); ++j) {
      if (j + kPrefetchWindow < sidx.size()) {
        shard.table.PrefetchKey(keys[sidx[j + kPrefetchWindow]]);
      }
      const size_t i = sidx[j];
      const Entry* e = shard.table.Find(keys[i]);
      if (e == nullptr) continue;
      if (!SamePath(e->p1, p1s[i].tokens) || !SamePath(e->p2, p2s[i].tokens)) {
        ++batch_rejects;
        continue;
      }
      out[i] = e->score;
      probe_hit[i] = 1;
      ++batch_hits;
    }
  }
  if (batch_hits != 0) hits_.fetch_add(batch_hits, std::memory_order_relaxed);
  if (batch_rejects != 0) {
    hash_rejects_.fetch_add(batch_rejects, std::memory_order_relaxed);
  }
  std::vector<size_t> miss_idx;
  std::vector<EmbeddedPath> m1, m2;
  for (size_t i = 0; i < n; ++i) {
    if (probe_hit[i] == 0) {
      miss_idx.push_back(i);
      m1.push_back(p1s[i]);
      m2.push_back(p2s[i]);
    }
  }
  if (miss_idx.empty()) return;
  std::vector<double> miss_out(miss_idx.size());
  inner_->ScoreBatch(m1, m2, miss_out);
  for (size_t j = 0; j < miss_idx.size(); ++j) {
    const size_t i = miss_idx[j];
    out[i] = miss_out[j];
    Insert(keys[i], p1s[i].tokens, p2s[i].tokens, miss_out[j]);
  }
}

size_t CachingPathScorer::CacheSize() const {
  size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.table.Size();
  }
  return n;
}

double CachingPathScorer::MemoLoadFactor() const {
  double sum = 0.0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    sum += s.table.LoadFactor();
  }
  return sum / static_cast<double>(kShards);
}

std::vector<std::vector<RankedProperty>> DescendantRanker::TopKBatch(
    int graph, std::span<const VertexId> vs, int k) const {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::vector<RankedProperty>> out;
  out.reserve(vs.size());
  for (VertexId v : vs) out.push_back(TopK(graph, v, k));
  return out;
}

std::vector<RankedProperty> PraRanker::TopK(int graph, VertexId v,
                                            int k) const {
  const Graph& g = *graphs_[graph];
  auto paths = MaxPraPaths(g, v, max_len_);
  std::vector<RankedProperty> out;
  out.reserve(std::min<size_t>(paths.size(), static_cast<size_t>(k)));
  for (auto& p : paths) {
    if (static_cast<int>(out.size()) >= k) break;
    out.push_back(RankedProperty{p.path.endpoint, std::move(p.path), p.pra});
  }
  return out;
}

std::vector<RankedProperty> LstmPraRanker::Finalize(
    int graph, VertexId v, int k,
    std::vector<RankedProperty> collected) const {
  const Graph& g = *graphs_[graph];
  // The maximum-PRA traversal is the expensive part of ranking a vertex
  // during PropertyTable::Build; run it exactly once per (graph, v) and
  // reuse the result in the descendant merge below rather than
  // re-traversing there.
  auto max_pra_paths = MaxPraPaths(g, v, max_len_);

  // h_r ranks DESCENDANTS (Section IV): the LM picks the preferred path
  // per walk, but descendants it walked past (or stopped before) still
  // compete for the top-k through their maximum-PRA paths. LM-chosen
  // paths win ties for the same descendant.
  std::unordered_set<VertexId> lm_endpoints;
  for (const RankedProperty& p : collected) {
    lm_endpoints.insert(p.descendant);
  }
  for (auto& extra : max_pra_paths) {
    if (lm_endpoints.count(extra.path.endpoint) != 0) continue;
    RankedProperty prop;
    prop.descendant = extra.path.endpoint;
    prop.path = std::move(extra.path);
    prop.pra = extra.pra;
    collected.push_back(std::move(prop));
  }

  // Keep the best-PRA path per distinct descendant (V_u^k is a vertex set).
  std::sort(collected.begin(), collected.end(),
            [](const RankedProperty& a, const RankedProperty& b) {
              if (a.pra != b.pra) return a.pra > b.pra;
              return a.descendant < b.descendant;
            });
  std::vector<RankedProperty> out;
  std::unordered_set<VertexId> seen;
  for (auto& p : collected) {
    if (static_cast<int>(out.size()) >= k) break;
    if (!seen.insert(p.descendant).second) continue;
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<RankedProperty> LstmPraRanker::TopK(int graph, VertexId v,
                                                int k) const {
  const Graph& g = *graphs_[graph];
  std::vector<RankedProperty> collected;

  for (const Edge& first : g.OutEdges(v)) {
    RankedProperty prop;
    prop.path.labels.push_back(first.label);
    prop.descendant = first.dst;
    double pra = 1.0 / static_cast<double>(g.OutDegree(v));
    std::unordered_set<VertexId> visited = {v, first.dst};

    LstmLm::State state = lm_->InitialState();
    Vec probs = lm_->StepProb(state, vocab_->TokenOf(graph, first.label));

    while (prop.path.labels.size() < max_len_) {
      const VertexId cur = prop.descendant;
      // Candidate continuations, skipping edges that would form a cycle
      // (condition (c) of Section IV).
      const Edge* best_edge = nullptr;
      double best_p = -1.0;
      for (const Edge& e : g.OutEdges(cur)) {
        if (visited.count(e.dst) != 0) continue;
        const double p = probs[vocab_->TokenOf(graph, e.label)];
        if (p > best_p) {
          best_p = p;
          best_edge = &e;
        }
      }
      if (best_edge == nullptr) break;  // condition (b): no outward edge
      // Condition (a): the model prefers to stop (<eos> outranks all
      // feasible continuations).
      const double eos_p = probs[vocab_->eos()];
      if (eos_p >= best_p) break;

      pra /= static_cast<double>(g.OutDegree(cur));
      prop.path.labels.push_back(best_edge->label);
      prop.descendant = best_edge->dst;
      visited.insert(best_edge->dst);
      probs = lm_->StepProb(state, vocab_->TokenOf(graph, best_edge->label));
    }

    prop.path.endpoint = prop.descendant;
    prop.pra = pra;
    collected.push_back(std::move(prop));
  }

  return Finalize(graph, v, k, std::move(collected));
}

/// One live lane of the lockstep kernel: a greedy walk in flight, with the
/// same per-walk state the scalar loop keeps on its stack.
struct LstmPraRanker::Walk {
  size_t vertex_idx = 0;  // index into the TopKBatch vs block
  size_t slot = 0;        // out-edge ordinal of the root (creation order)
  RankedProperty prop;
  double pra = 0.0;
  std::unordered_set<VertexId> visited;
  LstmLm::State state;
  int next_token = -1;  // fed to the LM in the next lockstep round
};

std::vector<std::vector<RankedProperty>> LstmPraRanker::TopKBatch(
    int graph, std::span<const VertexId> vs, int k) const {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  const Graph& g = *graphs_[graph];
  const size_t n = vs.size();

  // Walk results land in creation order (root-by-root, out-edge-by-
  // out-edge) regardless of when each walk retires, so the sequence fed
  // to Finalize's sort is exactly the scalar TopK's `collected` — ties
  // between equal (pra, descendant) entries with different paths resolve
  // identically.
  std::vector<std::vector<RankedProperty>> collected(n);
  std::vector<Walk> live;
  for (size_t i = 0; i < n; ++i) {
    const VertexId v = vs[i];
    const auto edges = g.OutEdges(v);
    collected[i].resize(edges.size());
    size_t slot = 0;
    for (const Edge& first : edges) {
      Walk w;
      w.vertex_idx = i;
      w.slot = slot++;
      w.prop.path.labels.push_back(first.label);
      w.prop.descendant = first.dst;
      w.pra = 1.0 / static_cast<double>(g.OutDegree(v));
      w.visited = {v, first.dst};
      w.state = lm_->InitialState();
      w.next_token = vocab_->TokenOf(graph, first.label);
      // The scalar loop's final StepProb at max_len is discarded unused;
      // a length-capped walk retires without ever entering the frontier.
      if (w.prop.path.labels.size() >= max_len_) {
        w.prop.path.endpoint = w.prop.descendant;
        w.prop.pra = w.pra;
        collected[i][w.slot] = std::move(w.prop);
      } else {
        live.push_back(std::move(w));
      }
    }
  }

  // Lockstep frontier rounds: one batched LM call per round across every
  // live walk, then one scalar round of edge selection per lane.
  std::vector<LstmLm::State> states;
  std::vector<int> tokens;
  std::vector<Vec> probs;
  while (!live.empty()) {
    const size_t lanes = live.size();
    walk_rounds_.fetch_add(1, std::memory_order_relaxed);
    lstm_batch_calls_.fetch_add(1, std::memory_order_relaxed);
    lstm_batch_lanes_.fetch_add(lanes, std::memory_order_relaxed);

    // Gather lane states (cheap Vec moves), advance all lanes at once,
    // scatter back.
    states.resize(lanes);
    tokens.resize(lanes);
    probs.resize(lanes);
    for (size_t r = 0; r < lanes; ++r) {
      states[r] = std::move(live[r].state);
      tokens[r] = live[r].next_token;
    }
    lm_->StepProbBatch(states, tokens, probs);
    for (size_t r = 0; r < lanes; ++r) live[r].state = std::move(states[r]);

    size_t kept = 0;
    for (size_t r = 0; r < lanes; ++r) {
      Walk& w = live[r];
      const Vec& p_dist = probs[r];
      const VertexId cur = w.prop.descendant;
      // Candidate continuations, skipping edges that would form a cycle
      // (condition (c) of Section IV).
      const Edge* best_edge = nullptr;
      double best_p = -1.0;
      for (const Edge& e : g.OutEdges(cur)) {
        if (w.visited.count(e.dst) != 0) continue;
        const double p = p_dist[vocab_->TokenOf(graph, e.label)];
        if (p > best_p) {
          best_p = p;
          best_edge = &e;
        }
      }
      // Retirement: (b) dead end, (a) <eos> outranks every feasible
      // continuation, or the extension below hits max_len (whose LM step
      // the scalar path computes and discards).
      bool retired = best_edge == nullptr || p_dist[vocab_->eos()] >= best_p;
      if (!retired) {
        w.pra /= static_cast<double>(g.OutDegree(cur));
        w.prop.path.labels.push_back(best_edge->label);
        w.prop.descendant = best_edge->dst;
        w.visited.insert(best_edge->dst);
        w.next_token = vocab_->TokenOf(graph, best_edge->label);
        retired = w.prop.path.labels.size() >= max_len_;
      }
      if (retired) {
        w.prop.path.endpoint = w.prop.descendant;
        w.prop.pra = w.pra;
        collected[w.vertex_idx][w.slot] = std::move(w.prop);
      } else {
        if (kept != r) live[kept] = std::move(w);
        ++kept;
      }
    }
    live.resize(kept);
  }

  std::vector<std::vector<RankedProperty>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Finalize(graph, vs[i], k, std::move(collected[i])));
  }
  return out;
}

}  // namespace her
