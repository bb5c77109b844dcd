#include "core/drivers.h"

#include <algorithm>

#include "ann/ivf_index.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace her {

std::vector<VertexId> AllVertices(const Graph& g) {
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  return all;
}

namespace {

/// Filters candidate vertices by h_v(u_t, .) >= sigma, one batch call.
std::vector<VertexId> FilterBySigma(MatchEngine& engine, VertexId u_t,
                                    std::span<const VertexId> candidates) {
  const MatchContext& ctx = engine.context();
  std::vector<double> scores(candidates.size());
  ctx.hv->ScoreBatch(u_t, candidates, scores);
  std::vector<VertexId> out;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (scores[i] >= ctx.params.sigma) out.push_back(candidates[i]);
  }
  return out;
}

}  // namespace

std::vector<VertexId> VParaMatch(MatchEngine& engine, VertexId u_t) {
  const MatchContext& ctx = engine.context();
  const auto all = ctx.all_vertices.Get(*ctx.g);
  return engine.MatchCandidates(u_t, FilterBySigma(engine, u_t, all));
}

std::vector<VertexId> VParaMatch(MatchEngine& engine, VertexId u_t,
                                 const InvertedIndex& index) {
  const auto blocked = index.Lookup(engine.context().gd->label(u_t));
  return engine.MatchCandidates(u_t, FilterBySigma(engine, u_t, blocked));
}

std::vector<MatchPair> GenerateCandidates(
    const MatchContext& ctx, std::span<const VertexId> tuple_vertices,
    const InvertedIndex* index, size_t num_threads) {
  // Fig. 8 lines 1-3: candidate set C across G_D and G. One ScoreBatch
  // per tuple vertex over its pool; tuple vertices fan out across the
  // ParallelFor workers into per-vertex buffers.
  struct Cand {
    VertexId u, v;
    size_t degree;  // of v, for the increasing-degree order (line 4)
  };
  const std::span<const VertexId> all = index == nullptr
                                            ? ctx.all_vertices.Get(*ctx.g)
                                            : std::span<const VertexId>{};
  std::vector<std::vector<Cand>> per_tuple(tuple_vertices.size());

  // Exhaustive sigma scan over the full pool for one tuple vertex. The
  // exact path, the ANN recall probes, and the ANN fallback all share it.
  const auto ExactSurvivors = [&](VertexId u, std::vector<Cand>& out) {
    std::vector<double> scores(all.size());
    ctx.hv->ScoreBatch(u, all, scores);
    for (size_t j = 0; j < all.size(); ++j) {
      if (scores[j] >= ctx.params.sigma) {
        out.push_back(Cand{u, all[j], ctx.g->Degree(all[j])});
      }
    }
  };

  // The ANN probe only ever prunes the pool: scanned vertices get scores
  // bit-identical to the exact kernel, so its sigma-survivors are a subset
  // of the exact ones. Blocked (InvertedIndex) calls keep the label pool.
  bool ann_active = index == nullptr && ctx.ann != nullptr &&
                    !ctx.ann->empty() &&
                    ctx.candidate_gen.mode == CandidateMode::kAnn;
  std::vector<char> validated(tuple_vertices.size(), 0);
  if (ann_active && ctx.candidate_gen.min_recall > 0 &&
      ctx.candidate_gen.recall_sample > 0 && !tuple_vertices.empty()) {
    // Deterministic evenly-spaced sample of tuple positions (depends only
    // on the tuple count, so the measured recall -- and any fallback
    // decision -- is identical for every num_threads). Sampled positions
    // are scanned exactly anyway, so their survivor lists are kept.
    const size_t n = tuple_vertices.size();
    const size_t k = std::min(ctx.candidate_gen.recall_sample, n);
    std::vector<size_t> sample(k);
    for (size_t s = 0; s < k; ++s) sample[s] = s * n / k;
    for (const size_t i : sample) validated[i] = 1;
    std::vector<size_t> exact_hits(k, 0), ann_hits(k, 0);
    ParallelFor(k, num_threads, [&](size_t s) {
      const size_t i = sample[s];
      const VertexId u = tuple_vertices[i];
      ExactSurvivors(u, per_tuple[i]);
      exact_hits[s] = per_tuple[i].size();
      static thread_local std::vector<AnnHit> hits;
      hits.clear();
      ctx.ann->Probe(u, ctx.candidate_gen.nprobe, &hits);
      size_t kept = 0;
      for (const AnnHit& h : hits) kept += h.score >= ctx.params.sigma;
      ann_hits[s] = kept;
    });
    size_t matched = 0, total = 0;
    for (size_t s = 0; s < k; ++s) {
      matched += ann_hits[s];
      total += exact_hits[s];
    }
    ctx.ann->NoteRecall(matched, total);
    if (total > 0 && static_cast<double>(matched) <
                         ctx.candidate_gen.min_recall *
                             static_cast<double>(total)) {
      // Sampled recall under the floor: distrust the index for this whole
      // call and rescan everything exactly.
      ann_active = false;
      ctx.ann->NoteFallback();
    }
  }

  ParallelFor(tuple_vertices.size(), num_threads, [&](size_t i) {
    if (validated[i]) return;  // already holds the exact survivor list
    const VertexId u = tuple_vertices[i];
    auto& out = per_tuple[i];
    if (ann_active) {
      // Probe returns hits sorted by vertex id, so `out` stays v-sorted
      // exactly as the counting-scatter merge below requires. The buffer
      // is per-thread scratch, reused across tuple vertices.
      static thread_local std::vector<AnnHit> hits;
      hits.clear();
      ctx.ann->Probe(u, ctx.candidate_gen.nprobe, &hits);
      out.reserve(hits.size());
      for (const AnnHit& h : hits) {
        if (h.score >= ctx.params.sigma) {
          out.push_back(Cand{u, h.v, ctx.g->Degree(h.v)});
        }
      }
      return;
    }
    if (index == nullptr) {
      ExactSurvivors(u, out);
      return;
    }
    const std::vector<VertexId> pool = index->Lookup(ctx.gd->label(u));
    std::vector<double> scores(pool.size());
    ctx.hv->ScoreBatch(u, pool, scores);
    for (size_t j = 0; j < pool.size(); ++j) {
      if (scores[j] >= ctx.params.sigma) {
        out.push_back(Cand{u, pool[j], ctx.g->Degree(pool[j])});
      }
    }
  });
  // Merge (Fig. 8 line 4): increasing degree, ties broken by (u, v).
  // Each per-tuple buffer holds one u and is already v-sorted, so a
  // stable counting scatter by degree -- visiting buffers in u-ascending
  // order -- yields exactly the (degree, u, v) sequence a comparison
  // sort would, in O(N + max_degree) instead of O(N log N). Buffers are
  // indexed by tuple position, never completion order, so the output is
  // byte-identical for every num_threads.
  std::vector<size_t> order(per_tuple.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (tuple_vertices[a] != tuple_vertices[b]) {
      return tuple_vertices[a] < tuple_vertices[b];
    }
    return a < b;
  });
  // The scatter runs in parallel: `order` splits into contiguous chunks,
  // each chunk histograms its buffers' degrees, a serial pass turns the
  // histograms into absolute write cursors (exclusive prefix in (degree,
  // chunk) order), and each chunk then scatters independently. Chunk t's
  // degree-d elements land exactly where the serial order-sequence
  // scatter would put them, so the output stays byte-identical for every
  // num_threads.
  const size_t nbuckets = ctx.g->MaxDegree() + 1;
  const size_t chunks =
      std::max<size_t>(1, std::min(num_threads, per_tuple.size()));
  const auto chunk_begin = [&](size_t t) { return t * order.size() / chunks; };
  std::vector<std::vector<size_t>> cursor(chunks,
                                          std::vector<size_t>(nbuckets, 0));
  ParallelFor(chunks, num_threads, [&](size_t t) {
    auto& hist = cursor[t];
    for (size_t k = chunk_begin(t); k < chunk_begin(t + 1); ++k) {
      for (const Cand& c : per_tuple[order[k]]) ++hist[c.degree];
    }
  });
  size_t total = 0;
  for (size_t d = 0; d < nbuckets; ++d) {
    for (size_t t = 0; t < chunks; ++t) {
      const size_t count = cursor[t][d];
      cursor[t][d] = total;
      total += count;
    }
  }
  std::vector<MatchPair> out(total);
  ParallelFor(chunks, num_threads, [&](size_t t) {
    auto& cur = cursor[t];
    for (size_t k = chunk_begin(t); k < chunk_begin(t + 1); ++k) {
      for (const Cand& c : per_tuple[order[k]]) {
        out[cur[c.degree]++] = MatchPair(c.u, c.v);
      }
    }
  });
  return out;
}

namespace {

std::vector<MatchPair> AllParaMatchImpl(
    MatchEngine& engine, std::span<const VertexId> tuple_vertices,
    const InvertedIndex* index, const RunOptions* options = nullptr) {
  if (options != nullptr) engine.SetRunOptions(*options);
  WallTimer gen_timer;
  const std::vector<MatchPair> candidates =
      GenerateCandidates(engine.context(), tuple_vertices, index);
  engine.RecordCandidateGen(gen_timer.Seconds());
  // Line 5 of Fig. 8: verify each candidate as in VParaMatch (cache-aware).
  // After a stop every Match call is a cheap refusal that records the pair
  // as unresolved, so the loop still terminates promptly.
  std::vector<MatchPair> result;
  for (const MatchPair& c : candidates) {
    if (engine.Match(c.first, c.second)) result.push_back(c);
  }
  if (engine.Stopped()) {
    // Degraded run: call-time verdicts are unreliable (a pair proved early
    // may rest on a witness later abandoned). Rebuild Pi from the
    // support-closure resolver and account every non-proved candidate as
    // unresolved or disproved explicitly.
    result.clear();
    const std::vector<PairOutcome> outcomes =
        engine.ResolveOutcomes(candidates);
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (outcomes[i] == PairOutcome::kProved) {
        result.push_back(candidates[i]);
      } else if (outcomes[i] == PairOutcome::kUnresolved) {
        engine.NoteUnresolved(candidates[i]);
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace

std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices) {
  return AllParaMatchImpl(engine, tuple_vertices, nullptr);
}

std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices,
                                    const InvertedIndex& index) {
  return AllParaMatchImpl(engine, tuple_vertices, &index);
}

std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices,
                                    const RunOptions& options) {
  return AllParaMatchImpl(engine, tuple_vertices, nullptr, &options);
}

std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices,
                                    const InvertedIndex& index,
                                    const RunOptions& options) {
  return AllParaMatchImpl(engine, tuple_vertices, &index, &options);
}

}  // namespace her
