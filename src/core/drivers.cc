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

std::vector<MatchPair> GenerateCandidates(
    const MatchContext& ctx, std::span<const VertexId> tuple_vertices,
    const InvertedIndex* blocking, size_t num_threads) {
  // Fig. 8 lines 1-3: candidate set C across G_D and G. One ScoreBatch
  // per tuple vertex over its pool; tuple vertices fan out across the
  // ParallelFor workers into per-vertex buffers.
  struct Cand {
    size_t degree;  // of v, for the increasing-degree order (line 4)
    VertexId v;
    bool operator<(const Cand& o) const {
      return degree != o.degree ? degree < o.degree : v < o.v;
    }
  };
  // With the degree order off every candidate gets key 0, and each
  // tuple's buffer stays in v order.
  const auto DegreeKey = [&](VertexId v) -> size_t {
    return ctx.enable_degree_sort ? ctx.g->Degree(v) : 0;
  };
  const std::span<const VertexId> all = blocking == nullptr
                                            ? ctx.all_vertices.Get(*ctx.g)
                                            : std::span<const VertexId>{};
  std::vector<std::vector<Cand>> per_tuple(tuple_vertices.size());

  // The sigma filter over one tuple vertex's pool. The exact path, the
  // blocked path, the ANN recall probes and the ANN fallback all share it.
  const auto SigmaSurvivors = [&](VertexId u, std::span<const VertexId> pool,
                                  std::vector<Cand>& out) {
    std::vector<double> scores(pool.size());
    ctx.hv->ScoreBatch(u, pool, scores);
    for (size_t j = 0; j < pool.size(); ++j) {
      if (scores[j] >= ctx.params.sigma) {
        out.push_back(Cand{DegreeKey(pool[j]), pool[j]});
      }
    }
  };

  // The ANN probe only ever prunes the pool: scanned vertices get scores
  // bit-identical to the exact kernel, so its sigma-survivors are a subset
  // of the exact ones. Blocked calls keep the index's pool.
  bool ann_active = blocking == nullptr && ctx.ann != nullptr &&
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
      SigmaSurvivors(u, all, per_tuple[i]);
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
    const VertexId u = tuple_vertices[i];
    auto& out = per_tuple[i];
    if (validated[i]) {
      // Already holds the exact survivor list.
    } else if (ann_active) {
      // The buffer is per-thread scratch, reused across tuple vertices.
      static thread_local std::vector<AnnHit> hits;
      hits.clear();
      ctx.ann->Probe(u, ctx.candidate_gen.nprobe, &hits);
      out.reserve(hits.size());
      for (const AnnHit& h : hits) {
        if (h.score >= ctx.params.sigma) {
          out.push_back(Cand{DegreeKey(h.v), h.v});
        }
      }
    } else if (blocking == nullptr) {
      SigmaSurvivors(u, all, out);
    } else {
      SigmaSurvivors(u, blocking->Lookup(*ctx.gd, u), out);
    }
    // Fig. 8 line 4 inside the tuple: increasing degree, ties by v.
    std::sort(out.begin(), out.end());
  });
  // Concatenate the tuples' buffers in increasing u (ties by tuple
  // position), so each u's candidates form one run for MatchRoots.
  // Buffers are indexed by tuple position, never completion order, so the
  // output is identical for every num_threads.
  std::vector<size_t> order(per_tuple.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (tuple_vertices[a] != tuple_vertices[b]) {
      return tuple_vertices[a] < tuple_vertices[b];
    }
    return a < b;
  });
  size_t total = 0;
  for (const auto& buffer : per_tuple) total += buffer.size();
  std::vector<MatchPair> out;
  out.reserve(total);
  for (const size_t i : order) {
    for (const Cand& c : per_tuple[i]) out.emplace_back(tuple_vertices[i], c.v);
  }
  return out;
}

std::vector<VertexId> VParaMatch(MatchEngine& engine, VertexId u_t,
                                 const InvertedIndex* blocking) {
  // Fig. 5 scans exactly: VPair never probes the IVF index.
  MatchContext scan = engine.context();
  scan.candidate_gen.mode = CandidateMode::kExact;
  const VertexId roots[] = {u_t};
  const std::vector<MatchPair> candidates =
      GenerateCandidates(scan, roots, blocking);
  const std::vector<bool> verdicts = engine.MatchRoots(candidates);
  std::vector<VertexId> matches;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (verdicts[i]) matches.push_back(candidates[i].second);
  }
  std::sort(matches.begin(), matches.end());
  return matches;
}

std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices,
                                    const InvertedIndex* blocking,
                                    const RunOptions* options) {
  if (options != nullptr) engine.SetRunOptions(*options);
  WallTimer gen_timer;
  const std::vector<MatchPair> candidates =
      GenerateCandidates(engine.context(), tuple_vertices, blocking);
  engine.RecordCandidateGen(gen_timer.Seconds());
  // Line 5 of Fig. 8: verify each candidate as in VParaMatch (cache-aware).
  // After a stop every later pair is a cheap refusal that records it as
  // unresolved, so the run still terminates promptly.
  const std::vector<bool> verdicts = engine.MatchRoots(candidates);
  std::vector<MatchPair> result;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (verdicts[i]) result.push_back(candidates[i]);
  }
  if (engine.Stopped()) {
    // Degraded run: call-time verdicts are unreliable (a pair proved early
    // may rest on a witness later abandoned). Rebuild Pi from the
    // support-closure resolver and account every non-proved candidate as
    // unresolved or disproved explicitly.
    result.clear();
    const std::vector<PairOutcome> outcomes = ResolveOutcomes(
        candidates, /*stopped=*/true, [&](const MatchPair& p) {
          return engine.Lookup(p.first, p.second);
        });
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

}  // namespace her
