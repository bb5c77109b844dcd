#include "core/match_engine.h"

#include <algorithm>
#include <bit>
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

/// A number fixed per thread at its first call, in call order, so threads
/// that start filling a lazy table together get distinct writers.
size_t ThreadTicket() {
  static std::atomic<size_t> next{0};
  thread_local const size_t ticket = next.fetch_add(1);
  return ticket;
}

/// Per-thread working memory of MatchEngine::CandidateListsFor, reused
/// across calls.
struct ListScratch {
  FirstSeenIndex columns;       // descendant -> column, first-seen order
  std::vector<uint32_t> at;     // (row, j) entry -> column, row-major
  std::vector<VertexId> us;     // u's property descendants
  std::vector<double> hv;       // |us| x |columns| h_v, row-major
  std::vector<uint64_t> masks;  // per column: bit blocks of i clearing sigma
  std::vector<size_t> cursor;   // next write position of each list
  std::vector<EmbeddedPath> p1s, p2s;  // M_rho operands, one per survivor
  std::vector<double> m;               // M_rho, one per survivor
};

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

PropertyTable::PropertyTable(const MatchContext& ctx)
    : writers_(std::make_unique<Writer[]>(kWriters)), ctx_(ctx) {
  for (int gi = 0; gi < 2; ++gi) {
    const size_t n = (gi == 0 ? ctx.gd : ctx.g)->num_vertices();
    table_[gi].resize(n);
    state_[gi] = std::make_unique<std::atomic<uint8_t>[]>(n);
  }
}

void PropertyTable::Fill(int graph, VertexId v) const {
  std::atomic<uint8_t>& state = state_[graph][v];
  uint8_t seen = state.load(std::memory_order_acquire);
  if (seen == kUnranked &&
      state.compare_exchange_strong(seen, kClaimed,
                                    std::memory_order_acquire)) {
    // A one-vertex block through the batch kernel, so a lazy row equals
    // the built row's top-k and shares its telemetry.
    const auto ranked = ctx_.hr->TopKBatch(graph, {&v, 1}, ctx_.params.k);
    Writer& w = writers_[ThreadTicket() % kWriters];
    std::lock_guard<std::mutex> lock(w.mu);
    table_[graph][v] = w.arena.Add(ranked[0], graph, *ctx_.vocab, ctx_.mrho);
    state.store(kReady, std::memory_order_release);
    state.notify_all();
  } else if (seen == kClaimed) {
    // Returns once the claimer's release store is seen: kReady is final.
    state.wait(kClaimed, std::memory_order_acquire);
  }
}

std::span<const Property> MatchEngine::PropertiesOf(int graph, VertexId v) {
  const PropertyTable* table = ctx_.properties;
  if (table == nullptr) {
    if (!owned_table_) owned_table_ = std::make_unique<PropertyTable>(ctx_);
    table = owned_table_.get();
  }
  return table->Get(graph, v, ctx_.params.k);
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
        ++stats_.para_match_calls;
        Store(u, v, false, {});
      } else {
        verdicts[r] = ParaMatch(u, v, &lists, row);
      }
      if (batched) ++row;
    }
  }
  return verdicts;
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
  // Terminates without a cap: every restart follows a true->false flip of
  // a consumed witness, and a pair flips at most once (DESIGN.md "ParaMatch
  // termination").
  for (;;) {
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
  thread_local ListScratch scratch;
  ListScratch& s = scratch;

  // The rows' descendants, de-duplicated (a tuple's candidates share
  // many) in first-seen order, with `at` mapping each (row, j) to its
  // column. Lists are assembled from these per-entry lookups, so the
  // column order reaches no output.
  s.columns.Reset();
  s.at.clear();
  for (const auto& pv : pvs) {
    for (const Property& p : pv) {
      s.at.push_back(s.columns.FindOrInsert(p.descendant).first);
    }
  }
  const std::span<const VertexId> cols = s.columns.keys();
  const size_t nv = cols.size();

  // Sigma filter (Fig. 4 line 8): one h_v matrix of u's selected
  // descendants (row i) over the columns, folded into one bit per
  // (column, i) in 64-property blocks: bit i % 64 of masks[col * blocks +
  // i / 64] says column col clears sigma for property i.
  const size_t blocks = (pu.size() + 63) / 64;
  s.us.resize(pu.size());
  for (size_t i = 0; i < pu.size(); ++i) s.us[i] = pu[i].descendant;
  s.hv.resize(pu.size() * nv);
  if (!s.us.empty() && nv != 0) ctx_.hv->ScoreMatrix(s.us, cols, s.hv);
  s.masks.assign(nv * blocks, 0);
  for (size_t i = 0; i < pu.size(); ++i) {
    const double* hv_i = s.hv.data() + i * nv;
    uint64_t* mask = s.masks.data() + i / 64;
    const uint64_t bit = uint64_t{1} << (i % 64);
    for (size_t col = 0; col < nv; ++col) {
      if (!(hv_i[col] < sigma)) mask[col * blocks] |= bit;
    }
  }

  // Survivors go in (i, row, j) order, so list (row, i) is one contiguous
  // segment of `cands`. A counting pass sizes every list, then a fill pass
  // walks the entries in (row, j) order and writes each survivor at its
  // list's cursor, so each list keeps j order.
  const size_t rows = pvs.size();
  const auto for_each_survivor = [&](auto&& fn) {
    size_t e = 0;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < pvs[r].size(); ++j, ++e) {
        const uint64_t* mask = s.masks.data() + s.at[e] * blocks;
        for (size_t b = 0; b < blocks; ++b) {
          for (uint64_t m = mask[b]; m != 0; m &= m - 1) {
            fn(b * 64 + std::countr_zero(m), r, j);
          }
        }
      }
    }
  };
  out.offsets.assign(pu.size() * rows + 1, 0);
  for_each_survivor([&](size_t i, size_t r, size_t) {
    ++out.offsets[i * rows + r + 1];
  });
  for (size_t l = 1; l < out.offsets.size(); ++l) {
    out.offsets[l] += out.offsets[l - 1];
  }
  const size_t total = out.offsets.back();
  out.cands.resize(total);
  std::vector<EmbeddedPath>& p1s = s.p1s;
  std::vector<EmbeddedPath>& p2s = s.p2s;
  p1s.resize(total);
  p2s.resize(total);
  s.cursor.assign(out.offsets.begin(), out.offsets.end() - 1);
  for_each_survivor([&](size_t i, size_t r, size_t j) {
    const Property& pvj = pvs[r][j];
    const size_t c = s.cursor[i * rows + r]++;
    out.cands[c] = Cand{pvj.descendant, 0.0};
    p1s[c] = OperandOf(pu[i]);
    p2s[c] = OperandOf(pvj);
    if (!pu[i].embedding.empty()) ++stats_.hrho_embed_reuse;
    if (!pvj.embedding.empty()) ++stats_.hrho_embed_reuse;
  });

  // One batched M_rho call for every survivor; h_rho's length
  // normalization (Eq. 2) is applied per pair exactly as HRho does, so
  // scores are bit-identical to the scalar path.
  if (!out.cands.empty()) {
    std::vector<double>& m = s.m;
    m.resize(total);
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
          // restart the evaluation if so.
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
  HER_DCHECK(state_[0] == nullptr);
  WallTimer timer;
  auto& rows = table_[graph];
  HER_CHECK(rows.size() == g.num_vertices());
  auto& [mu, arena] = writers_[0];
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
      arena.Release(rows[v]);
      rows[v] = {};
    }
  }
  // Blocks rank in parallel; writing a block's rows into the arena is the
  // only step under the lock. An expired block is skipped whole, so no row
  // is ever partial.
  if (block_size == 0) block_size = 1;
  const size_t num_blocks = (work.size() + block_size - 1) / block_size;
  std::vector<VertexId> skipped;
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
      arena.Release(rows[block[i]]);
      rows[block[i]] = arena.Add(ranked[i], graph, vocab, mrho);
    }
  });
  // The replaced rows are dead bytes (no span from Get is live across a
  // Refresh).
  arena.Compact(table_);
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
  }
  owned_table_.reset();
}

void MatchEngine::ClearPairCache() {
  cache_.Clear();
  dependents_.Clear();
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
      HER_RETURN_NOT_OK(fresh.writers_[0].arena.Read(r, &fresh.table_[gi][v]));
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
  // The message queues are not stored: a BSP superstep drains both
  // before its boundary capture, and only a fragment engine fills them.
  HER_DCHECK(newly_invalidated_.empty() && new_assumptions_.empty());
}

Status MatchEngine::LoadEngineState(ByteReader* r) {
  decltype(cache_) cache;
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
  cache_ = std::move(cache);
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
