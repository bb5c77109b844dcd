#include "core/match_engine.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <mutex>
#include <numeric>

#include "ann/ivf_index.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace her {

namespace {

/// M_rho operand view of a ranked property.
EmbeddedPath OperandOf(const Property& p) {
  return EmbeddedPath{p.joint, p.embedding};
}

}  // namespace

PropertyTable PropertyTable::Build(const Graph& gd, const Graph& g,
                                   const DescendantRanker& hr,
                                   const JointVocab& vocab, size_t threads,
                                   const PathScorer* mrho, size_t block_size,
                                   const RunOptions& options) {
  PropertyTable table;
  WallTimer timer;
  for (int gi = 0; gi < 2; ++gi) {
    const Graph& graph = gi == 0 ? gd : g;
    std::vector<VertexId> all(graph.num_vertices());
    std::iota(all.begin(), all.end(), VertexId{0});
    table.table_[gi].resize(all.size());
    table.Refresh(gi, graph, all, hr, vocab, mrho, options, threads,
                  block_size);
  }
  table.build_seconds_ = timer.Seconds();
  return table;
}

std::span<const Property> MatchEngine::PropertiesOf(int graph, VertexId v) {
  if (ctx_.properties != nullptr) {
    return ctx_.properties->Get(graph, v, ctx_.params.k);
  }
  auto& store = ecache_[graph];
  if (const PropertyRow* row = store.Find(v)) return *row;
  // Single-vertex block through the batch kernel: the scalar path shares
  // the lockstep code (and its telemetry) instead of a parallel TopK path.
  // The row lives in the arena, whose chunks never move, so the span stays
  // valid when later insertions rehash `store` — recursion relies on it.
  const VertexId vs[1] = {v};
  const auto ranked = ctx_.hr->TopKBatch(graph, vs, ctx_.params.k);
  const PropertyRow row =
      arena_.Add(ranked.front(), graph, *ctx_.vocab, ctx_.mrho);
  store.TryEmplace(v, row);
  return row;
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

void SnapshotContextStats(const MatchContext& ctx, MatchEngine::Stats* stats) {
  if (ctx.hv != nullptr) stats->hv_batch_calls = ctx.hv->BatchCalls();
  if (ctx.mrho != nullptr) {
    stats->hrho_batch_calls = ctx.mrho->BatchCalls();
    if (const auto* caching =
            dynamic_cast<const CachingPathScorer*>(ctx.mrho)) {
      stats->hrho_hash_rejects = caching->HashRejects();
      stats->hrho_memo_load_factor = caching->MemoLoadFactor();
      stats->memo_probe_batches = caching->ProbeBatches();
      stats->memo_probe_len = caching->ProbeLen();
    }
  }
  if (ctx.hr != nullptr) {
    stats->hr_batch_calls = ctx.hr->BatchCalls();
    if (const auto* lstm = dynamic_cast<const LstmPraRanker*>(ctx.hr)) {
      stats->hr_lstm_batch_calls = lstm->LstmBatchCalls();
      stats->hr_lstm_lanes = lstm->LstmBatchLanes();
      stats->hr_walk_rounds = lstm->WalkRounds();
    }
  }
  if (ctx.properties != nullptr) {
    stats->ptable_build_seconds = ctx.properties->build_seconds();
  }
  if (ctx.ann != nullptr) {
    stats->ann_probes = ctx.ann->Probes();
    stats->ann_lists_scanned = ctx.ann->ListsScanned();
    stats->ann_points_scanned = ctx.ann->PointsScanned();
    stats->ann_fallbacks = ctx.ann->Fallbacks();
    stats->ann_recall = ctx.ann->MeasuredRecall();
    stats->ann_build_seconds = ctx.ann->build_seconds();
  }
}

const MatchEngine::Stats& MatchEngine::stats() const {
  SnapshotContextStats(ctx_, &stats_);
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

std::vector<bool> MatchEngine::MatchRoots(std::span<const MatchPair> roots) {
  // Roots per list batch: enough for a tuple's candidates to share their
  // descendants' h_v rows, few enough that a VPair over a large pool keeps
  // its lists small and cache-resident.
  constexpr size_t kMaxRun = 256;
  std::vector<bool> verdicts(roots.size(), false);
  std::vector<size_t> rows;  // positions in `roots` of the batched pairs
  std::vector<std::span<const Property>> pvs;
  for (size_t begin = 0, end = 0; begin < roots.size(); begin = end) {
    const VertexId u = roots[begin].first;
    end = begin + 1;
    while (end < roots.size() && end - begin < kMaxRun &&
           roots[end].first == u) {
      ++end;
    }
    // Batch the pairs that would reach Fig. 4's list stage: u internal, the
    // pair uncached and local. The rest take the per-pair path below.
    rows.clear();
    pvs.clear();
    CandidateLists lists;
    if (!ShouldStop() && !ctx_.gd->IsLeaf(u)) {
      for (size_t r = begin; r < end; ++r) {
        const VertexId v = roots[r].second;
        if (Lookup(u, v) != nullptr || (is_local_ && !is_local_(u, v))) {
          continue;
        }
        rows.push_back(r);
        pvs.push_back(PropertiesOf(1, v));
      }
      if (!rows.empty()) lists = CandidateListsFor(PropertiesOf(0, u), pvs);
    }
    const double delta = ctx_.params.delta;
    const bool bounded = ctx_.enable_early_termination && delta > 0.0;
    for (size_t r = begin, row = 0; r < end; ++r) {
      const VertexId v = roots[r].second;
      const bool batched = row < rows.size() && rows[row] == r;
      if (const CacheEntry* e = Lookup(u, v)) {  // maybe cached by recursion
        ++stats_.cache_hits;
        verdicts[r] = e->valid;
      } else if (!batched) {
        verdicts[r] = ParaMatch(u, v);
      } else if (bounded && lists.MaxSco(row) < delta) {
        // Lines 12-14 from the batch: the bound reads no verdict, so the
        // pair is false whatever is cached. The per-pair path's root sigma
        // test would say false too, so h_v(u, v) is not scored.
        if (!ConsumeBudget(MatchPair{u, v})) {
          ++stats_.budget_exhausted;
        } else {
          ++stats_.para_match_calls;
        }
        Store(u, v, false, {});
      } else {
        verdicts[r] = ParaMatch(u, v, &lists, row);
      }
      if (batched) ++row;
    }
  }
  return verdicts;
}

bool MatchEngine::ConsumeBudget(const MatchPair& key) {
  // The paper bounds ParaMatch invocations per candidate at k^2 + 1
  // (Section V, analysis). We enforce k^2 + 4 so the quadratic worst case
  // holds even under adversarial (inconsistent) score functions.
  const int limit = ctx_.params.k * ctx_.params.k + 4;
  return ++*eval_count_.TryEmplace(KeyOf(key), 0).first <= limit;
}

bool MatchEngine::ParaMatch(VertexId u, VertexId v,
                            const CandidateLists* lists, size_t row) {
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
    const bool result = EvalOnce(u, v, &stale, lists, row);
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

MatchEngine::CandidateLists MatchEngine::CandidateListsFor(
    std::span<const Property> pu,
    std::span<const std::span<const Property>> pvs) {
  CandidateLists out;
  out.num_props = pu.size();
  out.num_rows = pvs.size();
  const double sigma = ctx_.params.sigma;

  // The rows' descendants, de-duplicated (a tuple's candidates share
  // many), with `at` mapping each (row, j) to its column in `vs`.
  std::vector<VertexId> vs;
  for (const auto& pv : pvs) {
    for (const Property& p : pv) vs.push_back(p.descendant);
  }
  std::vector<uint32_t> at(vs.size());
  std::sort(vs.begin(), vs.end());
  vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
  size_t n = 0;
  for (const auto& pv : pvs) {
    for (const Property& p : pv) {
      at[n++] = static_cast<uint32_t>(
          std::lower_bound(vs.begin(), vs.end(), p.descendant) - vs.begin());
    }
  }

  // Sigma filter (Fig. 4 line 8): one h_v matrix of u's selected
  // descendants (row i) over the union (column). Survivors are appended in
  // (i, row, j) order, so list (row, i) is one contiguous segment of
  // `cands`.
  std::vector<VertexId> us(pu.size());
  for (size_t i = 0; i < pu.size(); ++i) us[i] = pu[i].descendant;
  std::vector<double> hv(us.size() * vs.size());
  if (!us.empty() && !vs.empty()) ctx_.hv->ScoreMatrix(us, vs, hv);
  std::vector<EmbeddedPath> p1s, p2s;
  out.offsets.reserve(pu.size() * pvs.size() + 1);
  out.offsets.push_back(0);
  for (size_t i = 0; i < pu.size(); ++i) {
    const double* hv_i = hv.data() + i * vs.size();
    size_t base = 0;  // first `at` entry of the current row
    for (const auto& pv : pvs) {
      for (size_t j = 0; j < pv.size(); ++j) {
        if (hv_i[at[base + j]] < sigma) continue;
        p1s.push_back(OperandOf(pu[i]));
        p2s.push_back(OperandOf(pv[j]));
        if (!pu[i].embedding.empty()) ++stats_.hrho_embed_reuse;
        if (!pv[j].embedding.empty()) ++stats_.hrho_embed_reuse;
        out.cands.push_back(Cand{pv[j].descendant, 0.0});
      }
      out.offsets.push_back(out.cands.size());
      base += pv.size();
    }
  }

  // One batched M_rho call for every survivor; h_rho's length
  // normalization (Eq. 2) is applied per pair exactly as HRho does, so
  // scores are bit-identical to the scalar path.
  if (!out.cands.empty()) {
    std::vector<double> m(out.cands.size());
    ctx_.mrho->ScoreBatch(p1s, p2s, m);
    stats_.hrho_evaluations += m.size();
    for (size_t c = 0; c < m.size(); ++c) {
      out.cands[c].hrho = m[c] / static_cast<double>(p1s[c].tokens.size() +
                                                     p2s[c].tokens.size());
    }
  }
  for (size_t l = 0; l + 1 < out.offsets.size(); ++l) {
    std::sort(out.cands.begin() + out.offsets[l],
              out.cands.begin() + out.offsets[l + 1],
              [](const Cand& a, const Cand& b) {
                return a.hrho != b.hrho ? a.hrho > b.hrho : a.v2 < b.v2;
              });
  }
  return out;
}

bool MatchEngine::EvalOnce(VertexId u, VertexId v, bool* stale,
                           const CandidateLists* lists, size_t row) {
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
  if (ShouldStop()) {
    // Abort without a verdict: drop the optimistic placeholder so the pair
    // (and anything that consumed the placeholder) resolves as unresolved.
    Unset(MatchPair{u, v});
    return false;
  }

  // Lines 6-11: per-descendant candidate lists sorted by descending h_rho,
  // built with the batched kernel unless MatchRoots already batched them.
  CandidateLists own;
  if (lists == nullptr) {
    const std::span<const Property> pv = PropertiesOf(1, v);
    own = CandidateListsFor(pu, {&pv, 1});
    lists = &own;
    row = 0;
  }
  std::vector<double> contrib(pu.size(), 0.0);  // current MaxSco share of u'
  double maxsco = lists->MaxSco(row);
  for (size_t i = 0; i < pu.size(); ++i) {
    const auto list = lists->List(row, i);
    if (!list.empty()) {
      contrib[i] = list.front().hrho;
      // The matching stage's first verdict probe per property is its list
      // head; hint those cache lines now so the Lookups below overlap the
      // remaining MaxSco setup instead of serializing on memory.
      cache_.PrefetchKey(PairKey(pu[i].descendant, list.front().v2));
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
    const auto list = lists->List(row, i);
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
      RemoveDependent(w, key);
    }
  }
  entry->valid = valid;
  entry->witnesses = std::move(witnesses);
  // key is in dependents_[w] exactly when w is in key's W, so the add
  // never duplicates.
  for (const MatchPair& w : entry->witnesses) {
    dependents_.TryEmplace(KeyOf(w)).first->push_back(key);
  }
  if (was_valid && !valid) {
    // Flips become BSP messages; only a fragment engine drains them.
    if (is_local_) newly_invalidated_.push_back(key);
    RecheckDependents(key);
  }
}

void MatchEngine::Unset(const MatchPair& key) {
  const CacheEntry* entry = cache_.Find(KeyOf(key));
  if (entry == nullptr) return;
  for (const MatchPair& w : entry->witnesses) {
    RemoveDependent(w, key);
  }
  cache_.Erase(KeyOf(key));
}

void MatchEngine::RemoveDependent(const MatchPair& w, const MatchPair& key) {
  std::vector<MatchPair>* deps = dependents_.Find(KeyOf(w));
  if (deps == nullptr) return;
  auto it = std::find(deps->begin(), deps->end(), key);
  if (it == deps->end()) return;
  *it = deps->back();
  deps->pop_back();
}

bool MatchEngine::DependentsMatchWitnesses() const {
  std::vector<std::pair<uint64_t, MatchPair>> want;
  std::vector<std::pair<uint64_t, MatchPair>> have;
  cache_.ForEach([&](uint64_t key, const CacheEntry& entry) {
    for (const MatchPair& w : entry.witnesses) {
      want.emplace_back(KeyOf(w), PairOf(key));
    }
  });
  dependents_.ForEach([&](uint64_t w, const std::vector<MatchPair>& deps) {
    for (const MatchPair& key : deps) have.emplace_back(w, key);
  });
  std::sort(want.begin(), want.end());
  std::sort(have.begin(), have.end());
  return want == have;
}

void MatchEngine::RecheckDependents(const MatchPair& key) {
  const std::vector<MatchPair>* deps = dependents_.Find(KeyOf(key));
  if (deps == nullptr || deps->empty()) return;
  // Copy: the rechecks mutate the dependency index. Sorted, because
  // matching is not confluent in recheck order and the list's order
  // depends on its insertion and removal history — which differs between
  // an organically built engine and one restored from a snapshot. The
  // canonical order makes resumed runs take the identical trajectory.
  std::vector<MatchPair> to_check = *deps;
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
                            const JointVocab& vocab, const PathScorer* mrho,
                            const RunOptions& options, size_t threads,
                            size_t block_size) {
  WallTimer timer;
  auto& rows = table_[graph];
  HER_CHECK(rows.size() == g.num_vertices());
  // Sorted and distinct: each vertex is ranked once, and the pending
  // update below searches the list.
  std::vector<VertexId> todo(vertices.begin(), vertices.end());
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  std::vector<VertexId> work;
  for (const VertexId v : todo) {
    // Updates may reference vertices beyond the table (e.g. ids minted by
    // a graph version this table has not been rebuilt against yet); skip
    // them instead of indexing out of range.
    HER_DCHECK(static_cast<size_t>(v) < rows.size());
    if (static_cast<size_t>(v) >= rows.size()) continue;
    if (!g.IsLeaf(v)) {
      work.push_back(v);
    } else {  // leaves have no properties
      arena_.Release(rows[v]);
      rows[v] = {};
    }
  }
  // Blocks rank in parallel; writing a block's rows into the arena is the
  // only step under the lock. An expired block is skipped whole, so no row
  // is ever partial.
  if (block_size == 0) block_size = 1;
  const size_t num_blocks = (work.size() + block_size - 1) / block_size;
  std::vector<VertexId> skipped;
  std::mutex mu;
  ParallelFor(num_blocks, threads, [&](size_t b) {
    const size_t begin = b * block_size;
    const std::span<const VertexId> block(
        work.data() + begin, std::min(block_size, work.size() - begin));
    if (options.Expired()) {
      std::lock_guard<std::mutex> lock(mu);
      skipped.insert(skipped.end(), block.begin(), block.end());
      return;
    }
    // Rank without a k cap; engines slice the top-k they need.
    const auto ranked =
        hr.TopKBatch(graph, block, std::numeric_limits<int>::max());
    std::lock_guard<std::mutex> lock(mu);
    for (size_t i = 0; i < block.size(); ++i) {
      arena_.Release(rows[block[i]]);
      rows[block[i]] = arena_.Add(ranked[i], graph, vocab, mrho);
    }
  });
  // The replaced rows are dead bytes (no span from Get is live across a
  // Refresh).
  arena_.Compact([&](const auto& repoint) {
    for (auto& table : table_) {
      for (PropertyRow& row : table) repoint(row);
    }
  });
  // pending := (pending \ todo) ∪ skipped, kept sorted; skipped ⊆ todo.
  auto& pending = pending_[graph];
  std::erase_if(pending, [&](VertexId v) {
    return std::binary_search(todo.begin(), todo.end(), v);
  });
  pending.insert(pending.end(), skipped.begin(), skipped.end());
  std::sort(pending.begin(), pending.end());
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
    if (const std::vector<MatchPair>* deps = dependents_.Find(KeyOf(p))) {
      for (const MatchPair& dep : *deps) {
        if (doomed.insert(dep).second) queue.push_back(dep);
      }
    }
  }
  for (const MatchPair& p : doomed) {
    Unset(p);
    dependents_.Erase(KeyOf(p));
    eval_count_.Erase(KeyOf(p));  // fresh re-evaluation budget after update
  }
  for (int graph = 0; graph < 2; ++graph) {
    for (const VertexId v : graph == 0 ? affected_u : affected_v) {
      if (const PropertyRow* row = ecache_[graph].Find(v)) {
        arena_.Release(*row);
        ecache_[graph].Erase(v);
      }
    }
  }
  // Forgotten rows are dead bytes (between evaluations: no span from
  // PropertiesOf is live here).
  arena_.Compact([&](const auto& repoint) {
    for (auto& store : ecache_) {
      store.ForEach([&](uint64_t, PropertyRow& row) { repoint(row); });
    }
  });
}

void MatchEngine::ClearPairCache() {
  cache_.Clear();
  dependents_.Clear();
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

std::vector<PairOutcome> ResolveOutcomes(std::span<const MatchPair> roots,
                                         bool stopped,
                                         const VerdictLookup& lookup) {
  std::vector<PairOutcome> out(roots.size(), PairOutcome::kUnresolved);
  if (!stopped) {
    // Completed run: at the fixpoint every valid entry's witness closure is
    // valid by construction, so the cached bit is the outcome.
    for (size_t i = 0; i < roots.size(); ++i) {
      const MatchEngine::CacheEntry* e = lookup(roots[i]);
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
  struct Node {
    PairOutcome outcome;
    const MatchEngine::CacheEntry* entry;
  };
  FlatTable<Node> value;
  std::deque<MatchPair> queue(roots.begin(), roots.end());
  while (!queue.empty()) {
    const MatchPair p = queue.front();
    queue.pop_front();
    if (value.Find(KeyOf(p)) != nullptr) continue;
    const MatchEngine::CacheEntry* e = lookup(p);
    if (e == nullptr) {
      value.TryEmplace(KeyOf(p), Node{PairOutcome::kUnresolved, nullptr});
      continue;
    }
    value.TryEmplace(KeyOf(p), Node{e->valid ? PairOutcome::kProved
                                             : PairOutcome::kDisproved,
                                    e});
    if (e->valid) {
      for (const MatchPair& w : e->witnesses) queue.push_back(w);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    value.ForEach([&](uint64_t, Node& node) {
      if (node.outcome != PairOutcome::kProved) return;
      for (const MatchPair& w : node.entry->witnesses) {
        if (value.Find(KeyOf(w))->outcome != PairOutcome::kProved) {
          node.outcome = PairOutcome::kUnresolved;
          changed = true;
          break;
        }
      }
    });
  }
  for (size_t i = 0; i < roots.size(); ++i) {
    out[i] = value.Find(KeyOf(roots[i]))->outcome;
  }
  return out;
}

// --- durable snapshot serialization (src/persist consumes these) ---

void PropertyTable::SaveState(ByteWriter* w) const {
  for (int gi = 0; gi < 2; ++gi) {
    w->PutVarint(table_[gi].size());
    for (const PropertyRow row : table_[gi]) PropertyArena::Write(w, row);
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
      HER_RETURN_NOT_OK(fresh.arena_.Read(r, &fresh.table_[gi][v]));
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
  // The message queues are not stored: a BSP superstep drains both
  // before its boundary capture, and only a fragment engine fills them.
  HER_DCHECK(newly_invalidated_.empty() && new_assumptions_.empty());
}

Status MatchEngine::LoadEngineState(ByteReader* r) {
  decltype(cache_) cache;
  decltype(eval_count_) eval_count;
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
  cache_ = std::move(cache);
  eval_count_ = std::move(eval_count);
  newly_invalidated_.clear();
  new_assumptions_.clear();
  // The reverse dependency index is exactly derivable from the witnesses.
  dependents_.Clear();
  cache_.ForEach([&](uint64_t packed, const CacheEntry& entry) {
    const MatchPair key = PairOf(packed);
    for (const MatchPair& wit : entry.witnesses) {
      dependents_.TryEmplace(KeyOf(wit)).first->push_back(key);
    }
  });
  return Status::OK();
}

}  // namespace her
