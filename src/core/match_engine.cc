#include "core/match_engine.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <mutex>

#include "ann/ivf_index.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace her {

namespace {

std::vector<Property> ToProperties(const MatchContext& ctx, int graph,
                                   std::vector<RankedProperty> ranked) {
  std::vector<Property> props;
  props.reserve(ranked.size());
  for (auto& r : ranked) {
    Property p;
    p.descendant = r.descendant;
    p.labels = std::move(r.path.labels);
    p.joint = ctx.vocab->MapPath(graph, p.labels);
    // Embed the joint path once at ranking time; every later h_rho against
    // this property reuses the stored vector instead of re-running the
    // SGNS encoder (empty when the scorer has no embedding stage).
    if (ctx.mrho != nullptr) p.embedding = ctx.mrho->EmbedPath(p.joint);
    p.pra = r.pra;
    props.push_back(std::move(p));
  }
  return props;
}

std::vector<Property> RankProperties(const MatchContext& ctx, int graph,
                                     VertexId v, int k) {
  // Single-vertex block through the batch kernel: the scalar path shares
  // the lockstep code (and its telemetry) instead of a parallel TopK path.
  const VertexId vs[1] = {v};
  auto ranked = ctx.hr->TopKBatch(graph, vs, k);
  return ToProperties(ctx, graph, std::move(ranked.front()));
}

/// M_rho operand view of a ranked property.
EmbeddedPath OperandOf(const Property& p) {
  return EmbeddedPath{p.joint, p.embedding};
}

/// Flat-table key of a candidate pair.
uint64_t KeyOf(const MatchPair& p) { return PairKey(p.first, p.second); }

/// Inverse of KeyOf (flat-table iteration hands back packed keys).
MatchPair PairOf(uint64_t key) {
  return MatchPair{static_cast<VertexId>(key >> 32),
                   static_cast<VertexId>(key & 0xffffffffu)};
}

}  // namespace

PropertyTable PropertyTable::Build(const Graph& gd, const Graph& g,
                                   const DescendantRanker& hr,
                                   const JointVocab& vocab, size_t threads,
                                   const PathScorer* mrho, size_t block_size,
                                   const RunOptions& options) {
  PropertyTable table;
  WallTimer timer;
  MatchContext ctx;  // only hr + vocab + mrho are consulted below
  ctx.hr = &hr;
  ctx.vocab = &vocab;
  ctx.mrho = mrho;
  if (block_size == 0) block_size = 1;
  const Graph* graphs[2] = {&gd, &g};
  for (int gi = 0; gi < 2; ++gi) {
    auto& out = table.table_[gi];
    out.assign(graphs[gi]->num_vertices(), {});
    // Leaves have no properties; only internal vertices reach the ranker.
    std::vector<VertexId> work;
    work.reserve(out.size());
    for (size_t v = 0; v < out.size(); ++v) {
      if (!graphs[gi]->IsLeaf(static_cast<VertexId>(v))) {
        work.push_back(static_cast<VertexId>(v));
      }
    }
    // One TopKBatch call per vertex block: the lockstep kernel amortizes
    // the LSTM weights across every live walk of the block. Blocks are
    // independent (per-vertex results depend only on the graph), so the
    // table is identical for any threads/block_size combination.
    //
    // The deadline is probed once per block: an expired block is skipped
    // whole, its vertices recorded as pending with their rows untouched —
    // a row is only ever written after its block ranked completely, so
    // readers never observe a partially filled row.
    const size_t num_blocks = (work.size() + block_size - 1) / block_size;
    std::mutex pending_mu;
    ParallelFor(num_blocks, threads, [&](size_t b) {
      const size_t begin = b * block_size;
      const size_t end = std::min(begin + block_size, work.size());
      const std::span<const VertexId> block(work.data() + begin, end - begin);
      if (options.Expired()) {
        std::lock_guard<std::mutex> lock(pending_mu);
        table.pending_[gi].insert(table.pending_[gi].end(), block.begin(),
                                  block.end());
        return;
      }
      // Rank without a k cap; engines slice the top-k they need.
      auto ranked =
          ctx.hr->TopKBatch(gi, block, std::numeric_limits<int>::max());
      for (size_t i = 0; i < block.size(); ++i) {
        out[block[i]] = ToProperties(ctx, gi, std::move(ranked[i]));
      }
    });
    std::sort(table.pending_[gi].begin(), table.pending_[gi].end());
  }
  table.build_seconds_ = timer.Seconds();
  return table;
}

std::span<const Property> MatchEngine::PropertiesOf(int graph, VertexId v) {
  if (ctx_.properties != nullptr) {
    return ctx_.properties->Get(graph, v, ctx_.params.k);
  }
  auto& store = ecache_[graph];
  if (const std::vector<Property>* row = store.Find(v)) {
    return {row->data(), row->size()};
  }
  // The span points into the row vector's heap buffer, which stays put
  // when a later insertion rehashes the table (only the vector object
  // moves) — recursion relies on this, as it did on node stability before.
  auto [row, inserted] =
      store.TryEmplace(v, RankProperties(ctx_, graph, v, ctx_.params.k));
  return {row->data(), row->size()};
}

double MatchEngine::HRho(const Property& pu, const Property& pv) {
  ++stats_.hrho_evaluations;
  const double m = ctx_.mrho->Score(pu.joint, pv.joint);
  return m / static_cast<double>(pu.joint.size() + pv.joint.size());
}

const MatchEngine::CacheEntry* MatchEngine::Lookup(VertexId u,
                                                   VertexId v) const {
  return cache_.Find(PairKey(u, v));
}

const MatchEngine::Stats& MatchEngine::stats() const {
  if (ctx_.hv != nullptr) stats_.hv_batch_calls = ctx_.hv->BatchCalls();
  if (ctx_.mrho != nullptr) {
    stats_.hrho_batch_calls = ctx_.mrho->BatchCalls();
    if (const auto* caching =
            dynamic_cast<const CachingPathScorer*>(ctx_.mrho)) {
      stats_.hrho_hash_rejects = caching->HashRejects();
      stats_.hrho_memo_load_factor = caching->MemoLoadFactor();
      stats_.memo_probe_batches = caching->ProbeBatches();
      stats_.memo_probe_len = caching->ProbeLen();
    }
  }
  stats_.engine_cache_load_factor = cache_.LoadFactor();
  if (ctx_.hr != nullptr) {
    stats_.hr_batch_calls = ctx_.hr->BatchCalls();
    if (const auto* lstm = dynamic_cast<const LstmPraRanker*>(ctx_.hr)) {
      stats_.hr_lstm_batch_calls = lstm->LstmBatchCalls();
      stats_.hr_lstm_lanes = lstm->LstmBatchLanes();
      stats_.hr_walk_rounds = lstm->WalkRounds();
    }
  }
  if (ctx_.properties != nullptr) {
    stats_.ptable_build_seconds = ctx_.properties->build_seconds();
  }
  if (ctx_.ann != nullptr) {
    stats_.ann_probes = ctx_.ann->Probes();
    stats_.ann_lists_scanned = ctx_.ann->ListsScanned();
    stats_.ann_points_scanned = ctx_.ann->PointsScanned();
    stats_.ann_fallbacks = ctx_.ann->Fallbacks();
    stats_.ann_recall = ctx_.ann->MeasuredRecall();
    stats_.ann_build_seconds = ctx_.ann->build_seconds();
  }
  stats_.unresolved_pairs = unresolved_.size();
  return stats_;
}

bool MatchEngine::Match(VertexId u, VertexId v) {
  if (const CacheEntry* e = Lookup(u, v)) {
    ++stats_.cache_hits;
    return e->valid;
  }
  return ParaMatch(u, v);
}

std::vector<VertexId> MatchEngine::MatchCandidates(
    VertexId u, std::span<const VertexId> candidates) {
  // VParaMatch line 4: increasing degree order — low-degree vertices settle
  // candidate verdicts early and their cache entries get reused.
  std::vector<VertexId> order(candidates.begin(), candidates.end());
  if (ctx_.enable_degree_sort) {
    std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
      const size_t da = ctx_.g->Degree(a);
      const size_t db = ctx_.g->Degree(b);
      return da != db ? da < db : a < b;
    });
  } else {
    std::sort(order.begin(), order.end());
  }
  std::vector<VertexId> matches;
  for (const VertexId v : order) {
    if (Match(u, v)) matches.push_back(v);
  }
  std::sort(matches.begin(), matches.end());
  return matches;
}

bool MatchEngine::ConsumeBudget(const MatchPair& key) {
  // The paper bounds ParaMatch invocations per candidate at k^2 + 1
  // (Section V, analysis). We enforce the bound so the quadratic worst
  // case holds even under adversarial (inconsistent) score functions.
  const int limit = ctx_.params.k * ctx_.params.k + 4;
  return ++*eval_count_.TryEmplace(KeyOf(key), 0).first <= limit;
}

bool MatchEngine::ParaMatch(VertexId u, VertexId v) {
  const MatchPair key{u, v};
  if (ShouldStop()) {
    // Expired: refuse without caching a verdict — false is the sound
    // answer for Pi (it can only shrink the match set), and the missing
    // cache entry is what marks the pair unresolved for ResolveOutcomes.
    MarkUnresolved(key);
    return false;
  }
  if (is_local_ && !is_local_(u, v)) {
    // PPSim border assumption (Section VI-B): absent the data of v, assume
    // the pair valid; the owner's verdict arrives as a message.
    ++stats_.border_assumptions;
    AssumeValid(u, v);
    new_assumptions_.emplace_back(u, v);
    return true;
  }
  for (;;) {
    if (!ConsumeBudget(key)) {
      ++stats_.budget_exhausted;
      Store(u, v, false, {});
      return false;
    }
    bool stale = false;
    const bool result = EvalOnce(u, v, &stale);
    if (stopped_ && Lookup(u, v) == nullptr) {
      // EvalOnce aborted on expiry (it unsets its optimistic placeholder);
      // a completed evaluation would have left a cache entry.
      MarkUnresolved(key);
      return false;
    }
    if (!stale) return result;
    ++stats_.stale_restarts;
  }
}

std::vector<std::vector<MatchEngine::Cand>> MatchEngine::CandidateListsFor(
    std::span<const Property> pu, std::span<const Property> pv) {
  std::vector<std::vector<Cand>> lists(pu.size());
  const double sigma = ctx_.params.sigma;

  // Sigma filter (Fig. 4 line 8): one batched h_v evaluation per selected
  // descendant of u over ALL of v's descendants, replacing the
  // |P(u)| x |P(v)| scalar Score calls.
  std::vector<VertexId> vs(pv.size());
  for (size_t j = 0; j < pv.size(); ++j) vs[j] = pv[j].descendant;
  std::vector<double> hv(pv.size());
  std::vector<EmbeddedPath> p1s, p2s;
  std::vector<std::pair<size_t, size_t>> pair_ij;
  for (size_t i = 0; i < pu.size(); ++i) {
    if (!vs.empty()) ctx_.hv->ScoreBatch(pu[i].descendant, vs, hv);
    for (size_t j = 0; j < pv.size(); ++j) {
      if (hv[j] < sigma) continue;
      p1s.push_back(OperandOf(pu[i]));
      p2s.push_back(OperandOf(pv[j]));
      if (!pu[i].embedding.empty()) ++stats_.hrho_embed_reuse;
      if (!pv[j].embedding.empty()) ++stats_.hrho_embed_reuse;
      pair_ij.emplace_back(i, j);
    }
  }

  // One batched M_rho call for every surviving pair; h_rho's length
  // normalization (Eq. 2) is applied per pair exactly as HRho does, so
  // scores are bit-identical to the scalar path.
  if (!pair_ij.empty()) {
    std::vector<double> m(pair_ij.size());
    ctx_.mrho->ScoreBatch(p1s, p2s, m);
    stats_.hrho_evaluations += pair_ij.size();
    for (size_t n = 0; n < pair_ij.size(); ++n) {
      const auto [i, j] = pair_ij[n];
      const double hrho =
          m[n] / static_cast<double>(pu[i].joint.size() + pv[j].joint.size());
      lists[i].push_back(Cand{pv[j].descendant, hrho});
    }
  }
  for (auto& list : lists) {
    std::sort(list.begin(), list.end(), [](const Cand& a, const Cand& b) {
      return a.hrho != b.hrho ? a.hrho > b.hrho : a.v2 < b.v2;
    });
  }
  return lists;
}

bool MatchEngine::EvalOnce(VertexId u, VertexId v, bool* stale) {
  *stale = false;
  ++stats_.para_match_calls;
  const double sigma = ctx_.params.sigma;
  const double delta = ctx_.params.delta;

  // Initial stage (Fig. 4, lines 1-4).
  if (ctx_.hv->Score(u, v) < sigma) {
    Store(u, v, false, {});
    return false;
  }
  if (ctx_.gd->IsLeaf(u)) {
    Store(u, v, true, {});
    return true;
  }
  // Optimistic placeholder so interdependent candidates (cycles) terminate;
  // the cleanup stage rectifies it if this pair turns out invalid.
  Store(u, v, true, {});

  const auto& pu = PropertiesOf(0, u);
  const auto& pv = PropertiesOf(1, v);
  if (ShouldStop()) {
    // Abort without a verdict: drop the optimistic placeholder so the pair
    // (and anything that consumed the placeholder) resolves as unresolved.
    Unset(MatchPair{u, v});
    return false;
  }

  // Lines 6-11: per-descendant candidate lists sorted by descending h_rho,
  // built with the batched kernel.
  const auto lists = CandidateListsFor(pu, pv);
  std::vector<double> contrib(pu.size(), 0.0);  // current MaxSco share of u'
  double maxsco = 0.0;
  for (size_t i = 0; i < pu.size(); ++i) {
    if (!lists[i].empty()) {
      contrib[i] = lists[i][0].hrho;
      maxsco += contrib[i];
      // The matching stage's first verdict probe per property is its list
      // head; hint those cache lines now so the Lookups below overlap the
      // remaining MaxSco setup instead of serializing on memory.
      cache_.PrefetchKey(PairKey(pu[i].descendant, lists[i][0].v2));
    }
  }

  if (delta <= 0.0) {  // vacuous threshold: the empty lineage set suffices
    Store(u, v, true, {});
    return true;
  }
  // Lines 12-14: early termination on the optimistic upper bound.
  if (ctx_.enable_early_termination && maxsco < delta) {
    Store(u, v, false, {});
    return false;
  }

  // Matching stage (lines 15-27).
  double sum = 0.0;
  std::vector<MatchPair> witnesses;
  std::unordered_set<VertexId> used;  // lineage sets are injective mappings
  for (size_t i = 0; i < pu.size(); ++i) {
    const VertexId u2 = pu[i].descendant;
    const auto& list = lists[i];
    // Cursor for the next-unused lookup on a miss (line 25). `used` only
    // grows while this list is processed, so the cursor never has to move
    // backwards: the whole list is scanned O(L) total instead of O(L) per
    // miss.
    size_t scan = 0;
    for (size_t idx = 0; idx < list.size(); ++idx) {
      const Cand& cand = list[idx];
      if (used.count(cand.v2) != 0) continue;
      if (ShouldStop()) {
        Unset(MatchPair{u, v});
        return false;
      }
      bool m;
      if (const CacheEntry* e = Lookup(u2, cand.v2)) {
        ++stats_.cache_hits;
        m = e->valid;
      } else {
        m = ParaMatch(u2, cand.v2);
        if (stopped_) {  // recursion aborted: this evaluation is tainted
          Unset(MatchPair{u, v});
          return false;
        }
      }
      if (m) {
        sum += cand.hrho;
        witnesses.emplace_back(u2, cand.v2);
        used.insert(cand.v2);
        if (sum >= delta) {
          // Deep recursion may have invalidated a pair we consumed as true
          // before this entry registered as its dependent; verify, and
          // restart the evaluation if so (bounded by the eval budget).
          for (const MatchPair& w : witnesses) {
            const CacheEntry* e = Lookup(w.first, w.second);
            if (e == nullptr || !e->valid) {
              *stale = true;
              return false;
            }
          }
          Store(u, v, true, std::move(witnesses));
          return true;
        }
        break;  // u' found its best match; move to the next property
      }
      // Line 25: replace u's share of MaxSco with the next candidate's.
      if (scan < idx + 1) scan = idx + 1;
      while (scan < list.size() && used.count(list[scan].v2) != 0) ++scan;
      const double next_hrho = scan < list.size() ? list[scan].hrho : 0.0;
      maxsco += next_hrho - contrib[i];
      contrib[i] = next_hrho;
      if (ctx_.enable_early_termination && maxsco < delta) {  // lines 26-27
        Store(u, v, false, {});
        return false;
      }
    }
  }

  // All properties processed without reaching delta.
  Store(u, v, false, {});
  return false;
}

void MatchEngine::Store(VertexId u, VertexId v, bool valid,
                        std::vector<MatchPair> witnesses) {
  const MatchPair key{u, v};
  bool was_valid = false;
  // Single probe: TryEmplace finds a resident entry or installs a fresh
  // one; the returned slot is only used up to the dependents_ updates
  // (which never touch cache_), so no later insert can invalidate it.
  auto [entry, inserted] = cache_.TryEmplace(KeyOf(key));
  if (!inserted) {
    was_valid = entry->valid;
    for (const MatchPair& w : entry->witnesses) {
      auto dit = dependents_.find(w);
      if (dit != dependents_.end()) dit->second.erase(key);
    }
  }
  entry->valid = valid;
  entry->witnesses = std::move(witnesses);
  for (const MatchPair& w : entry->witnesses) dependents_[w].insert(key);
  if (was_valid && !valid) {
    newly_invalidated_.push_back(key);
    RecheckDependents(key);
  }
}

void MatchEngine::Unset(const MatchPair& key) {
  const CacheEntry* entry = cache_.Find(KeyOf(key));
  if (entry == nullptr) return;
  for (const MatchPair& w : entry->witnesses) {
    auto dit = dependents_.find(w);
    if (dit != dependents_.end()) dit->second.erase(key);
  }
  cache_.Erase(KeyOf(key));
}

void MatchEngine::RecheckDependents(const MatchPair& key) {
  auto dit = dependents_.find(key);
  if (dit == dependents_.end() || dit->second.empty()) return;
  // Copy: the rechecks mutate the dependency index. Sorted, because
  // matching is not confluent in recheck order and the set's iteration
  // order depends on its insertion history — which differs between an
  // organically built engine and one restored from a snapshot. The
  // canonical order makes resumed runs take the identical trajectory.
  std::vector<MatchPair> to_check(dit->second.begin(), dit->second.end());
  std::sort(to_check.begin(), to_check.end());
  for (const MatchPair& parent : to_check) {
    const CacheEntry* entry = cache_.Find(KeyOf(parent));
    if (entry == nullptr || !entry->valid) continue;
    ++stats_.cleanup_reruns;
    Unset(parent);
    ParaMatch(parent.first, parent.second);
  }
}

void PropertyTable::Refresh(int graph, const Graph& g,
                            std::span<const VertexId> vertices,
                            const DescendantRanker& hr,
                            const JointVocab& vocab,
                            const PathScorer* mrho,
                            const RunOptions& options) {
  WallTimer timer;
  MatchContext ctx;
  ctx.hr = &hr;
  ctx.vocab = &vocab;
  ctx.mrho = mrho;
  auto& out = table_[graph];
  HER_CHECK(out.size() == g.num_vertices());
  std::vector<VertexId> done;  // vertices whose rows are now current
  std::vector<VertexId> work;
  work.reserve(vertices.size());
  for (const VertexId v : vertices) {
    // Updates may reference vertices beyond the table (e.g. ids minted by
    // a graph version this table has not been rebuilt against yet); skip
    // them instead of indexing out of range.
    HER_DCHECK(static_cast<size_t>(v) < out.size());
    if (static_cast<size_t>(v) >= out.size()) continue;
    if (g.IsLeaf(v)) {
      out[v].clear();
      done.push_back(v);
    } else {
      work.push_back(v);
    }
  }
  // Blocked like Build so an expiring deadline loses at most one block of
  // progress; unprocessed vertices stay pending with their previous rows
  // intact (no partial rows). A Refresh over Pending() therefore completes
  // a deadline-degraded build.
  std::vector<VertexId> skipped;
  for (size_t begin = 0; begin < work.size(); begin += kDefaultBuildBlock) {
    const size_t end = std::min(begin + kDefaultBuildBlock, work.size());
    const std::span<const VertexId> block(work.data() + begin, end - begin);
    if (options.Expired()) {
      skipped.insert(skipped.end(), block.begin(), block.end());
      continue;
    }
    auto ranked = hr.TopKBatch(graph, block, std::numeric_limits<int>::max());
    for (size_t i = 0; i < block.size(); ++i) {
      out[block[i]] = ToProperties(ctx, graph, std::move(ranked[i]));
      done.push_back(block[i]);
    }
  }
  // pending := (pending \ done) ∪ skipped, kept sorted and unique.
  std::sort(done.begin(), done.end());
  auto& pending = pending_[graph];
  pending.erase(std::remove_if(pending.begin(), pending.end(),
                               [&](VertexId v) {
                                 return std::binary_search(done.begin(),
                                                           done.end(), v);
                               }),
                pending.end());
  pending.insert(pending.end(), skipped.begin(), skipped.end());
  std::sort(pending.begin(), pending.end());
  pending.erase(std::unique(pending.begin(), pending.end()), pending.end());
  build_seconds_ = timer.Seconds();
}

void MatchEngine::InvalidateForUpdate(std::span<const VertexId> affected_u,
                                      std::span<const VertexId> affected_v) {
  const std::unordered_set<VertexId> su(affected_u.begin(), affected_u.end());
  const std::unordered_set<VertexId> sv(affected_v.begin(), affected_v.end());
  std::deque<MatchPair> queue;
  std::unordered_set<MatchPair, PairHash> doomed;
  cache_.ForEach([&](uint64_t packed, const CacheEntry&) {
    const MatchPair key = PairOf(packed);
    if (su.count(key.first) != 0 || sv.count(key.second) != 0) {
      if (doomed.insert(key).second) queue.push_back(key);
    }
  });
  while (!queue.empty()) {
    const MatchPair p = queue.front();
    queue.pop_front();
    auto dit = dependents_.find(p);
    if (dit != dependents_.end()) {
      for (const MatchPair& dep : dit->second) {
        if (doomed.insert(dep).second) queue.push_back(dep);
      }
    }
  }
  for (const MatchPair& p : doomed) {
    Unset(p);
    dependents_.erase(p);
    eval_count_.Erase(KeyOf(p));  // fresh re-evaluation budget after update
  }
  for (const VertexId v : affected_u) ecache_[0].Erase(v);
  for (const VertexId v : affected_v) ecache_[1].Erase(v);
}

void MatchEngine::ClearPairCache() {
  cache_.Clear();
  dependents_.clear();
  eval_count_.Clear();
  newly_invalidated_.clear();
}

void MatchEngine::AssumeValid(VertexId u, VertexId v) {
  Store(u, v, true, {});
}

void MatchEngine::ForceInvalid(VertexId u, VertexId v) {
  Store(u, v, false, {});
}

std::vector<MatchPair> MatchEngine::DrainNewlyInvalidated() {
  std::vector<MatchPair> out;
  out.swap(newly_invalidated_);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<MatchPair> MatchEngine::DrainNewAssumptions() {
  std::vector<MatchPair> out;
  out.swap(new_assumptions_);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<MatchPair> MatchEngine::Witness(VertexId u, VertexId v) const {
  const CacheEntry* root = Lookup(u, v);
  if (root == nullptr || !root->valid) return {};
  std::vector<MatchPair> out;
  std::unordered_set<MatchPair, PairHash> seen;
  std::deque<MatchPair> queue;
  const MatchPair start{u, v};
  seen.insert(start);
  queue.push_back(start);
  while (!queue.empty()) {
    const MatchPair cur = queue.front();
    queue.pop_front();
    out.push_back(cur);
    const CacheEntry* entry = cache_.Find(KeyOf(cur));
    if (entry == nullptr) continue;
    for (const MatchPair& w : entry->witnesses) {
      if (seen.insert(w).second) queue.push_back(w);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PairOutcome> MatchEngine::ResolveOutcomes(
    std::span<const MatchPair> roots) const {
  std::vector<PairOutcome> out(roots.size(), PairOutcome::kUnresolved);
  if (!stopped_) {
    // Completed run: at the fixpoint every valid entry's witness closure is
    // valid by construction, so the cached bit is the outcome.
    for (size_t i = 0; i < roots.size(); ++i) {
      const CacheEntry* e = Lookup(roots[i].first, roots[i].second);
      if (e == nullptr) continue;
      out[i] = e->valid ? PairOutcome::kProved : PairOutcome::kDisproved;
    }
    return out;
  }
  // Stopped run: collect the witness closure of the roots, then demote
  // valid verdicts whose support chain contains a non-proved pair until the
  // greatest fixpoint is reached. Cycles of valid pairs survive (optimistic
  // semantics); anything resting on a missing/abandoned/false pair does not.
  // The demotion is monotone (kProved -> kUnresolved only), so the fixpoint
  // is unique regardless of the table's iteration order.
  FlatTable<PairOutcome> value;
  std::deque<MatchPair> queue(roots.begin(), roots.end());
  while (!queue.empty()) {
    const MatchPair p = queue.front();
    queue.pop_front();
    if (value.Find(KeyOf(p)) != nullptr) continue;
    const CacheEntry* e = Lookup(p.first, p.second);
    if (e == nullptr) {
      value.TryEmplace(KeyOf(p), PairOutcome::kUnresolved);
      continue;
    }
    value.TryEmplace(KeyOf(p), e->valid ? PairOutcome::kProved
                                        : PairOutcome::kDisproved);
    if (e->valid) {
      for (const MatchPair& w : e->witnesses) queue.push_back(w);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    value.ForEach([&](uint64_t packed, PairOutcome& val) {
      if (val != PairOutcome::kProved) return;
      const MatchPair p = PairOf(packed);
      const CacheEntry* e = Lookup(p.first, p.second);
      for (const MatchPair& w : e->witnesses) {
        if (*value.Find(KeyOf(w)) != PairOutcome::kProved) {
          val = PairOutcome::kUnresolved;
          changed = true;
          break;
        }
      }
    });
  }
  for (size_t i = 0; i < roots.size(); ++i) {
    out[i] = *value.Find(KeyOf(roots[i]));
  }
  return out;
}

PairOutcome MatchEngine::OutcomeOf(VertexId u, VertexId v) const {
  const MatchPair roots[] = {MatchPair{u, v}};
  return ResolveOutcomes(roots).front();
}

MatchEngine::Snapshot MatchEngine::SnapshotLocalState() const {
  Snapshot s;
  s.verdicts.reserve(cache_.Size());
  cache_.ForEach([&](uint64_t packed, const CacheEntry& entry) {
    const MatchPair key = PairOf(packed);
    // Border assumptions about remote pairs are the owner's to checkpoint.
    if (is_local_ && !is_local_(key.first, key.second)) return;
    s.verdicts.emplace_back(key, entry);
  });
  std::sort(s.verdicts.begin(), s.verdicts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (int g = 0; g < 2; ++g) {
    s.ecache[g].reserve(ecache_[g].Size());
    ecache_[g].ForEach([&](uint64_t v, const std::vector<Property>& props) {
      s.ecache[g].emplace_back(static_cast<VertexId>(v), props);
    });
    std::sort(s.ecache[g].begin(), s.ecache[g].end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  return s;
}


// --- durable snapshot serialization (src/persist consumes these) ---

namespace {

void PutPair(ByteWriter* w, const MatchPair& p) {
  w->PutVarint(p.first);
  w->PutVarint(p.second);
}

Status GetPair(ByteReader* r, MatchPair* p) {
  uint64_t u = 0, v = 0;
  HER_RETURN_NOT_OK(r->GetVarint(&u));
  HER_RETURN_NOT_OK(r->GetVarint(&v));
  p->first = static_cast<VertexId>(u);
  p->second = static_cast<VertexId>(v);
  return Status::OK();
}

void PutProperty(ByteWriter* w, const Property& p) {
  w->PutVarint(p.descendant);
  w->PutIntVec(p.labels);
  w->PutIntVec(p.joint);
  w->PutFloatVec(p.embedding);
  w->PutDouble(p.pra);
}

Status GetProperty(ByteReader* r, Property* p) {
  uint64_t descendant = 0;
  HER_RETURN_NOT_OK(r->GetVarint(&descendant));
  p->descendant = static_cast<VertexId>(descendant);
  HER_RETURN_NOT_OK(r->GetIntVec(&p->labels));
  HER_RETURN_NOT_OK(r->GetIntVec(&p->joint));
  HER_RETURN_NOT_OK(r->GetFloatVec(&p->embedding));
  return r->GetDouble(&p->pra);
}

void PutProperties(ByteWriter* w, const std::vector<Property>& ps) {
  w->PutVarint(ps.size());
  for (const Property& p : ps) PutProperty(w, p);
}

Status GetProperties(ByteReader* r, std::vector<Property>* ps) {
  uint64_t n = 0;
  HER_RETURN_NOT_OK(r->GetCount(&n));
  ps->clear();
  ps->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Property p;
    HER_RETURN_NOT_OK(GetProperty(r, &p));
    ps->push_back(std::move(p));
  }
  return Status::OK();
}

}  // namespace

void PropertyTable::SaveState(ByteWriter* w) const {
  for (int gi = 0; gi < 2; ++gi) {
    w->PutVarint(table_[gi].size());
    for (const auto& row : table_[gi]) PutProperties(w, row);
    w->PutIntVec(pending_[gi]);
  }
}

Status PropertyTable::LoadState(ByteReader* r) {
  PropertyTable fresh;
  for (int gi = 0; gi < 2; ++gi) {
    uint64_t rows = 0;
    HER_RETURN_NOT_OK(r->GetCount(&rows));
    fresh.table_[gi].resize(rows);
    for (uint64_t v = 0; v < rows; ++v) {
      HER_RETURN_NOT_OK(GetProperties(r, &fresh.table_[gi][v]));
    }
    HER_RETURN_NOT_OK(r->GetIntVec(&fresh.pending_[gi]));
    for (const VertexId v : fresh.pending_[gi]) {
      if (static_cast<size_t>(v) >= rows) {
        return Status::IOError("ptable: pending vertex out of range");
      }
    }
  }
  *this = std::move(fresh);
  return Status::OK();
}

void MatchEngine::SaveEngineState(ByteWriter* w) const {
  // Canonical (sorted) order everywhere: save -> load -> save must be
  // byte-stable, and the restored containers must drive the identical
  // evaluation trajectory regardless of the hashmaps' insertion history.
  std::vector<MatchPair> keys;
  keys.reserve(cache_.Size());
  cache_.ForEach(
      [&](uint64_t packed, const CacheEntry&) { keys.push_back(PairOf(packed)); });
  std::sort(keys.begin(), keys.end());
  w->PutVarint(keys.size());
  for (const MatchPair& key : keys) {
    const CacheEntry& entry = *cache_.Find(KeyOf(key));
    PutPair(w, key);
    w->PutU8(entry.valid ? 1 : 0);
    w->PutVarint(entry.witnesses.size());
    for (const MatchPair& wit : entry.witnesses) PutPair(w, wit);
  }
  keys.clear();
  eval_count_.ForEach(
      [&](uint64_t packed, const int&) { keys.push_back(PairOf(packed)); });
  std::sort(keys.begin(), keys.end());
  w->PutVarint(keys.size());
  for (const MatchPair& key : keys) {
    PutPair(w, key);
    w->PutVarint(static_cast<uint64_t>(*eval_count_.Find(KeyOf(key))));
  }
  // The un-drained message queues keep their order (they are drained
  // sorted+deduped anyway, but the checkpoint must not reorder state).
  w->PutVarint(newly_invalidated_.size());
  for (const MatchPair& p : newly_invalidated_) PutPair(w, p);
  w->PutVarint(new_assumptions_.size());
  for (const MatchPair& p : new_assumptions_) PutPair(w, p);
}

Status MatchEngine::LoadEngineState(ByteReader* r) {
  decltype(cache_) cache;
  decltype(eval_count_) eval_count;
  std::vector<MatchPair> newly_invalidated, new_assumptions;
  uint64_t n = 0;
  HER_RETURN_NOT_OK(r->GetCount(&n));
  for (uint64_t i = 0; i < n; ++i) {
    MatchPair key;
    CacheEntry entry;
    uint8_t valid = 0;
    HER_RETURN_NOT_OK(GetPair(r, &key));
    HER_RETURN_NOT_OK(r->GetU8(&valid));
    entry.valid = valid != 0;
    uint64_t wn = 0;
    HER_RETURN_NOT_OK(r->GetCount(&wn));
    entry.witnesses.resize(wn);
    for (uint64_t j = 0; j < wn; ++j) {
      HER_RETURN_NOT_OK(GetPair(r, &entry.witnesses[j]));
    }
    cache.TryEmplace(KeyOf(key), std::move(entry));
  }
  HER_RETURN_NOT_OK(r->GetCount(&n));
  for (uint64_t i = 0; i < n; ++i) {
    MatchPair key;
    uint64_t count = 0;
    HER_RETURN_NOT_OK(GetPair(r, &key));
    HER_RETURN_NOT_OK(r->GetVarint(&count));
    eval_count.TryEmplace(KeyOf(key), static_cast<int>(count));
  }
  HER_RETURN_NOT_OK(r->GetCount(&n));
  newly_invalidated.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    HER_RETURN_NOT_OK(GetPair(r, &newly_invalidated[i]));
  }
  HER_RETURN_NOT_OK(r->GetCount(&n));
  new_assumptions.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    HER_RETURN_NOT_OK(GetPair(r, &new_assumptions[i]));
  }
  cache_ = std::move(cache);
  eval_count_ = std::move(eval_count);
  newly_invalidated_ = std::move(newly_invalidated);
  new_assumptions_ = std::move(new_assumptions);
  // The reverse dependency index is exactly derivable from the witnesses.
  dependents_.clear();
  cache_.ForEach([&](uint64_t packed, const CacheEntry& entry) {
    const MatchPair key = PairOf(packed);
    for (const MatchPair& wit : entry.witnesses) dependents_[wit].insert(key);
  });
  return Status::OK();
}

void MatchEngine::SaveWarmCaches(ByteWriter* w) const {
  for (int gi = 0; gi < 2; ++gi) {
    std::vector<VertexId> vs;
    vs.reserve(ecache_[gi].Size());
    ecache_[gi].ForEach([&](uint64_t v, const std::vector<Property>&) {
      vs.push_back(static_cast<VertexId>(v));
    });
    std::sort(vs.begin(), vs.end());
    w->PutVarint(vs.size());
    for (const VertexId v : vs) {
      w->PutVarint(v);
      PutProperties(w, *ecache_[gi].Find(v));
    }
  }
}

Status MatchEngine::LoadWarmCaches(ByteReader* r) {
  FlatTable<std::vector<Property>> ecache[2];
  for (int gi = 0; gi < 2; ++gi) {
    uint64_t n = 0;
    HER_RETURN_NOT_OK(r->GetCount(&n));
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      HER_RETURN_NOT_OK(r->GetVarint(&v));
      std::vector<Property> props;
      HER_RETURN_NOT_OK(GetProperties(r, &props));
      ecache[gi].TryEmplace(v, std::move(props));
    }
  }
  ecache_[0] = std::move(ecache[0]);
  ecache_[1] = std::move(ecache[1]);
  return Status::OK();
}

}  // namespace her
