// Candidate-generation benchmark (Fig. 8 lines 1-4) on the synthetic
// scalability workload of bench_fig6_scalability: the serial scalar
// baseline (per-pair cosine that re-derives both vector norms, the
// pre-kernel code path) against the batched h_v kernel (normalized
// contiguous rows, one ScoreBatch per tuple vertex) fanned across 1-8
// ParallelFor threads. Writes the before/after numbers to
// BENCH_candidates.json (path overridable via argv[1]).

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/drivers.h"
#include "ml/vector_ops.h"

namespace {

using namespace her;
using namespace her::bench;

/// The pre-kernel GenerateCandidates: one scalar h_v evaluation per
/// (tuple vertex, graph vertex) pair, each re-deriving both L2 norms the
/// way EmbeddingVertexScorer::Score did before the normalized-matrix
/// layout (dot + two norm passes + sqrt per pair).
std::vector<MatchPair> ScalarBaselineCandidates(
    const MatchContext& ctx, const EmbeddingVertexScorer& emb,
    std::span<const VertexId> tuple_vertices) {
  struct Cand {
    VertexId u, v;
    size_t degree;
  };
  const size_t dim = emb.dim();
  std::vector<Cand> cands;
  for (const VertexId u : tuple_vertices) {
    const float* a = emb.EmbeddingOf(0, u).data();
    for (VertexId v = 0; v < ctx.g->num_vertices(); ++v) {
      const float* b = emb.EmbeddingOf(1, v).data();
      const double na = std::sqrt(DotRows(a, a, dim));
      const double nb = std::sqrt(DotRows(b, b, dim));
      double c = (na < 1e-12 || nb < 1e-12) ? 0.0
                                            : DotRows(a, b, dim) / (na * nb);
      if (c > 1.0) c = 1.0;
      if (c < -1.0) c = -1.0;
      if (CosineToUnit(c) >= ctx.params.sigma) {
        cands.push_back(Cand{u, v, ctx.g->Degree(v)});
      }
    }
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.degree != b.degree) return a.degree < b.degree;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });
  std::vector<MatchPair> out;
  out.reserve(cands.size());
  for (const Cand& c : cands) out.emplace_back(c.u, c.v);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto [out_path, smoke] =
      ParseBenchArgs(argc, argv, "BENCH_candidates.json");
  const int reps = smoke ? 1 : 3;

  DatasetSpec spec = ScalingSpec(smoke ? 150 : 1200);
  spec.name = "synthetic";
  BenchSystem bs(spec);
  const MatchContext& ctx = bs.system->context();
  const auto tuples = bs.data.canonical.TupleVertices();

  // The baseline needs the normalized-matrix scorer for the row pointers.
  const auto* emb = dynamic_cast<const EmbeddingVertexScorer*>(ctx.hv);
  if (emb == nullptr) {
    std::fprintf(stderr, "unexpected h_v scorer wiring\n");
    return 1;
  }

  std::printf("workload: %s  |tuples|=%zu  |V(G)|=%zu  dim=%zu\n",
              spec.name.c_str(), tuples.size(), ctx.g->num_vertices(),
              emb->dim());

  std::vector<MatchPair> baseline_result;
  const double baseline_s = BestOf(reps, [&] {
    baseline_result = ScalarBaselineCandidates(ctx, *emb, tuples);
  });
  std::printf("serial scalar baseline: %8.4f s  (%zu candidates)\n",
              baseline_s, baseline_result.size());

  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  std::vector<double> batched_s;
  std::vector<MatchPair> batched_result;
  for (const size_t threads : thread_counts) {
    const double s = BestOf(reps, [&] {
      batched_result = GenerateCandidates(ctx, tuples, nullptr, threads);
    });
    batched_s.push_back(s);
    std::printf("batched kernel, %zu thread%s: %8.4f s  (speedup %5.2fx)\n",
                threads, threads == 1 ? " " : "s", s, baseline_s / s);
    if (batched_result.size() != baseline_result.size()) {
      std::printf("  note: candidate count %zu vs baseline %zu "
                  "(sigma-boundary rounding)\n",
                  batched_result.size(), baseline_result.size());
    }
  }

  const double speedup8 = baseline_s / batched_s.back();

  std::ofstream out(out_path);
  out << "{\n"
      << her::bench::JsonPeakRssField()
      << "  \"workload\": \"bench_fig6_scalability synthetic "
         "(ScalingSpec(1200))\",\n"
      << "  \"tuple_vertices\": " << tuples.size() << ",\n"
      << "  \"graph_vertices\": " << ctx.g->num_vertices() << ",\n"
      << "  \"embedding_dim\": " << emb->dim() << ",\n"
      << "  \"candidates\": " << batched_result.size() << ",\n"
      << "  \"before\": {\"serial_scalar_seconds\": " << baseline_s
      << "},\n"
      << "  \"after\": {\n";
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    out << "    \"batched_" << thread_counts[i]
        << "_threads_seconds\": " << batched_s[i]
        << (i + 1 < thread_counts.size() ? ",\n" : "\n");
  }
  out << "  },\n"
      << "  \"speedup_batched_1_thread\": " << baseline_s / batched_s[0]
      << ",\n"
      << "  \"speedup_batched_8_threads\": " << speedup8 << "\n"
      << "}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (8-thread speedup: %.2fx)\n", out_path.c_str(),
              speedup8);
  return speedup8 >= 3.0 ? 0 : 2;
}
