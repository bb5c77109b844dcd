// ANN candidate-generation benchmark: the exact |T| x |V| sigma scan
// (the batched-kernel GenerateCandidates baseline of bench_candidates)
// against the IVF-probed scan on the 10k-vertex scaling workload
// (ScalingSpec(1200)), sweeping nprobe. Every ANN run reports its true
// recall against the exact candidate set — the index only prunes the
// pool, so ANN candidates are always a subset and recall is exact-count
// over ann-count. Also certifies exact-fallback parity: with the index
// bound but mode=exact, candidate lists must be byte-identical to the
// baseline across {1, 4, 8} threads. Writes BENCH_ann.json (path
// overridable via argv[1]); --smoke shrinks the workload for CI.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ann/ivf_index.h"
#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/drivers.h"

using namespace her;
using namespace her::bench;

int main(int argc, char** argv) {
  const auto [out_path, smoke] = ParseBenchArgs(argc, argv, "BENCH_ann.json");
  const int reps = smoke ? 1 : 3;
  const size_t threads = 8;

  DatasetSpec spec = ScalingSpec(smoke ? 150 : 1200);
  spec.name = "synthetic";
  BenchSystem bs(spec);
  const auto tuples = bs.data.canonical.TupleVertices();

  const auto* emb =
      dynamic_cast<const EmbeddingVertexScorer*>(bs.system->context().hv);
  if (emb == nullptr) {
    std::fprintf(stderr, "unexpected h_v scorer wiring\n");
    return 1;
  }

  MatchContext ctx = bs.system->context();
  ctx.candidate_gen = CandidateGenConfig{};  // exact baseline
  std::printf("workload: %s  |tuples|=%zu  |V(G)|=%zu  dim=%zu  sigma=%.2f\n",
              spec.name.c_str(), tuples.size(), ctx.g->num_vertices(),
              emb->dim(), ctx.params.sigma);

  std::vector<MatchPair> exact_result;
  const double exact_s = BestOf(reps, [&] {
    exact_result = GenerateCandidates(ctx, tuples, nullptr, threads);
  });
  std::printf("exact scan, %zu threads: %8.4f s  (%zu candidates)\n",
              threads, exact_s, exact_result.size());

  // Finer lists than the sqrt(N) default: the sigma survivors of a tuple
  // vertex concentrate in the lists nearest its query direction, so more,
  // smaller lists waste fewer scanned rows per probed list.
  IvfBuildConfig bcfg;
  bcfg.nlist = static_cast<size_t>(
      4.0 * std::sqrt(static_cast<double>(ctx.g->num_vertices())));
  const IvfIndex index = IvfIndex::Build(*emb, bcfg);
  std::printf("ivf build: %zu lists over %zu points in %.4f s\n",
              index.num_lists(), index.num_points(), index.build_seconds());

  // Exact-fallback parity: index bound, mode exact — byte-identical
  // candidate lists for every thread count.
  bool parity = true;
  {
    MatchContext fb = ctx;
    fb.ann = &index;
    fb.candidate_gen.mode = CandidateMode::kExact;
    for (const size_t t : {1u, 4u, 8u}) {
      parity = parity && GenerateCandidates(fb, tuples, nullptr, t) ==
                             exact_result;
    }
    std::printf("exact-fallback parity across {1,4,8} threads: %s\n",
                parity ? "ok" : "MISMATCH");
  }

  struct Sweep {
    size_t nprobe;
    double seconds = 0.0;
    double recall = 0.0;
    size_t candidates = 0;
    size_t fallbacks = 0;
  };
  std::vector<Sweep> sweep;
  for (const size_t nprobe :
       {index.num_lists() / 64, index.num_lists() / 32, index.num_lists() / 16,
        index.num_lists() / 4}) {
    Sweep s{std::max<size_t>(1, nprobe)};
    MatchContext ann_ctx = ctx;
    ann_ctx.ann = &index;
    ann_ctx.candidate_gen.mode = CandidateMode::kAnn;
    ann_ctx.candidate_gen.nprobe = s.nprobe;
    const size_t fallbacks_before = index.Fallbacks();
    std::vector<MatchPair> ann_result;
    s.seconds = BestOf(reps, [&] {
      ann_result = GenerateCandidates(ann_ctx, tuples, nullptr, threads);
    });
    s.candidates = ann_result.size();
    s.fallbacks = index.Fallbacks() - fallbacks_before;
    // ANN only prunes: its candidate list is a subset of the exact one,
    // so true recall is the size ratio.
    s.recall = exact_result.empty()
                   ? 1.0
                   : static_cast<double>(ann_result.size()) /
                         static_cast<double>(exact_result.size());
    std::printf(
        "ann nprobe=%3zu/%zu: %8.4f s  (speedup %5.2fx, recall %.4f, "
        "%zu candidates, %zu fallback(s))\n",
        s.nprobe, index.num_lists(), s.seconds, exact_s / s.seconds,
        s.recall, s.candidates, s.fallbacks);
    sweep.push_back(s);
  }

  // Headline: the fastest sweep point that still clears 0.99 recall.
  const Sweep* best = nullptr;
  for (const Sweep& s : sweep) {
    if (s.recall >= 0.99 && (best == nullptr || s.seconds < best->seconds)) {
      best = &s;
    }
  }
  const double headline_speedup =
      best != nullptr ? exact_s / best->seconds : 0.0;
  const double headline_recall = best != nullptr ? best->recall : 0.0;

  std::ofstream out(out_path);
  out << "{\n"
      << JsonPeakRssField()
      << "  \"workload\": \"scaling generator (ScalingSpec("
      << (smoke ? 150 : 1200) << "))\",\n"
      << "  \"tuple_vertices\": " << tuples.size() << ",\n"
      << "  \"graph_vertices\": " << ctx.g->num_vertices() << ",\n"
      << "  \"embedding_dim\": " << emb->dim() << ",\n"
      << "  \"nlist\": " << index.num_lists() << ",\n"
      << "  \"ann_build_seconds\": " << index.build_seconds() << ",\n"
      << "  \"exact_candidates\": " << exact_result.size() << ",\n"
      << "  \"exact_fallback_parity\": " << (parity ? "true" : "false")
      << ",\n"
      << "  \"before\": {\"exact_scan_8_threads_seconds\": " << exact_s
      << "},\n"
      << "  \"after\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const Sweep& s = sweep[i];
    out << "    {\"nprobe\": " << s.nprobe
        << ", \"seconds\": " << s.seconds << ", \"recall\": " << s.recall
        << ", \"candidates\": " << s.candidates
        << ", \"fallbacks\": " << s.fallbacks << "}"
        << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  out << "  ],\n"
      << "  \"headline_speedup\": " << headline_speedup << ",\n"
      << "  \"headline_recall\": " << headline_recall << "\n"
      << "}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (headline: %.2fx at recall %.4f)\n", out_path.c_str(),
              headline_speedup, headline_recall);

  // Gates: parity always; the 3x-at-0.99-recall bar only on the full
  // workload (the smoke graph is too small for the index to pay off).
  if (!parity) return 2;
  if (!smoke && (headline_speedup < 3.0 || headline_recall < 0.99)) return 2;
  return 0;
}
