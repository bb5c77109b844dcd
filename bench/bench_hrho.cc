// h_rho kernel benchmark (the ParaMatch inner loop of Fig. 4) on the
// synthetic scalability workload: the pre-kernel scalar path (per-pair
// MetricPathScorer::Score, re-embedding both joint paths and running one
// MLP forward per pair) against the batched kernel (precomputed
// Property::embedding rows + one ScoreBatch / Mlp::PredictBatch call per
// candidate pair, the same granularity MatchEngine::CandidateListsFor
// uses). The two are bit-identical by construction; this binary asserts
// that before reporting. Writes before/after numbers to BENCH_hrho.json
// (path overridable via argv[1]); exit code 2 means the 2x speedup
// target was missed.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/drivers.h"
#include "sim/scores.h"

namespace {

using namespace her;
using namespace her::bench;

/// One candidate pair's slice of the workload: the top-k property lists
/// of both sides, exactly what EvalOnce hands to the kernel.
struct PairWork {
  std::span<const Property> pu, pv;
};

}  // namespace

int main(int argc, char** argv) {
  const auto [out_path, smoke] = ParseBenchArgs(argc, argv, "BENCH_hrho.json");
  const int reps = smoke ? 1 : 3;

  DatasetSpec spec = ScalingSpec(smoke ? 150 : 1200);
  spec.name = "synthetic";
  BenchSystem bs(spec);
  const MatchContext& ctx = bs.system->context();

  // The scalar baseline needs the raw metric scorer under the memoizing
  // decorator: a cache would answer repeated paths from the memo and
  // measure hashing instead of the kernel.
  const auto* caching = dynamic_cast<const CachingPathScorer*>(ctx.mrho);
  const auto* metric = dynamic_cast<const MetricPathScorer*>(
      caching != nullptr ? caching->inner() : ctx.mrho);
  if (metric == nullptr) {
    std::fprintf(stderr, "unexpected M_rho scorer wiring (no metric model)\n");
    return 1;
  }
  if (ctx.properties == nullptr) {
    std::fprintf(stderr, "property table not materialized\n");
    return 1;
  }

  // Workload: the candidate pairs AllParaMatch would seed, each paired
  // with its top-k property lists from the offline table.
  const auto tuples = bs.data.canonical.TupleVertices();
  const auto candidates = GenerateCandidates(ctx, tuples, nullptr, 1);
  constexpr size_t kMaxPairs = 4000;
  std::vector<PairWork> work;
  size_t hrho_pairs = 0;
  for (const auto& [u, v] : candidates) {
    if (work.size() >= kMaxPairs) break;
    PairWork w{ctx.properties->Get(0, u, ctx.params.k),
               ctx.properties->Get(1, v, ctx.params.k)};
    if (w.pu.empty() || w.pv.empty()) continue;
    hrho_pairs += w.pu.size() * w.pv.size();
    work.push_back(w);
  }
  size_t precomputed = 0, total_props = 0;
  for (const PairWork& w : work) {
    for (const Property& p : w.pu) {
      ++total_props;
      if (!p.embedding.empty()) ++precomputed;
    }
    for (const Property& p : w.pv) {
      ++total_props;
      if (!p.embedding.empty()) ++precomputed;
    }
  }
  std::printf(
      "workload: %s  candidate pairs=%zu  h_rho evaluations=%zu  "
      "embeddings precomputed=%zu/%zu\n",
      spec.name.c_str(), work.size(), hrho_pairs, precomputed, total_props);
  if (work.empty()) {
    std::fprintf(stderr, "empty workload\n");
    return 1;
  }

  // Before: scalar per-pair Score, re-embedding both paths every call.
  std::vector<double> scalar_out;
  const double scalar_s = BestOf(reps, [&] {
    scalar_out.clear();
    scalar_out.reserve(hrho_pairs);
    for (const PairWork& w : work) {
      for (const Property& a : w.pu) {
        for (const Property& b : w.pv) {
          const double m = metric->Score(a.joint, b.joint);
          scalar_out.push_back(m / static_cast<double>(a.joint.size() +
                                                       b.joint.size()));
        }
      }
    }
  });
  std::printf("scalar per-pair baseline: %8.4f s  (%.2f Mevals/s)\n",
              scalar_s, hrho_pairs / scalar_s / 1e6);

  // After: one ScoreBatch per candidate pair over precomputed embeddings
  // (the CandidateListsFor granularity).
  std::vector<double> batched_out;
  std::vector<EmbeddedPath> p1s, p2s;
  std::vector<double> m;
  const double batched_s = BestOf(reps, [&] {
    batched_out.clear();
    batched_out.reserve(hrho_pairs);
    for (const PairWork& w : work) {
      p1s.clear();
      p2s.clear();
      for (const Property& a : w.pu) {
        for (const Property& b : w.pv) {
          p1s.push_back(EmbeddedPath{a.joint, a.embedding});
          p2s.push_back(EmbeddedPath{b.joint, b.embedding});
        }
      }
      m.resize(p1s.size());
      metric->ScoreBatch(p1s, p2s, m);
      size_t n = 0;
      for (const Property& a : w.pu) {
        for (const Property& b : w.pv) {
          batched_out.push_back(m[n++] / static_cast<double>(
                                             a.joint.size() +
                                             b.joint.size()));
        }
      }
    }
  });
  const double speedup = scalar_s / batched_s;
  std::printf("batched kernel:           %8.4f s  (%.2f Mevals/s, "
              "speedup %5.2fx)\n",
              batched_s, hrho_pairs / batched_s / 1e6, speedup);

  // The kernel must be bit-identical to the scalar path, not just close.
  if (batched_out.size() != scalar_out.size()) {
    std::fprintf(stderr, "error: result count mismatch (%zu vs %zu)\n",
                 batched_out.size(), scalar_out.size());
    return 1;
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < scalar_out.size(); ++i) {
    if (batched_out[i] != scalar_out[i]) ++mismatches;
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "error: %zu of %zu h_rho values differ bitwise\n",
                 mismatches, scalar_out.size());
    return 1;
  }
  std::printf("bit-identity check: %zu/%zu values identical\n",
              scalar_out.size(), scalar_out.size());

  // Memoized path: the same workload through the CachingPathScorer's
  // sharded flat memo (one cold pass to populate, then warm passes
  // answered by the prefetch-pipelined batch probe). Reported as
  // telemetry, not as part of the kernel speedup above.
  double memo_warm_s = 0.0;
  size_t memo_batches = 0, memo_probe_len = 0, memo_hits = 0;
  double memo_hit_rate = 0.0, memo_load_factor = 0.0;
  if (caching != nullptr) {
    std::vector<double> memo_out;
    const auto memo_pass = [&] {
      memo_out.clear();
      memo_out.reserve(hrho_pairs);
      for (const PairWork& w : work) {
        p1s.clear();
        p2s.clear();
        for (const Property& a : w.pu) {
          for (const Property& b : w.pv) {
            p1s.push_back(EmbeddedPath{a.joint, a.embedding});
            p2s.push_back(EmbeddedPath{b.joint, b.embedding});
          }
        }
        m.resize(p1s.size());
        caching->ScoreBatch(p1s, p2s, m);
        memo_out.insert(memo_out.end(), m.begin(), m.end());
      }
    };
    memo_pass();  // cold: fills the memo
    const size_t hits0 = caching->CacheHits();
    const size_t batches0 = caching->ProbeBatches();
    const size_t len0 = caching->ProbeLen();
    memo_warm_s = BestOf(reps, memo_pass);
    memo_hits = caching->CacheHits() - hits0;
    memo_batches = caching->ProbeBatches() - batches0;
    memo_probe_len = caching->ProbeLen() - len0;
    memo_hit_rate = memo_probe_len == 0
                        ? 0.0
                        : static_cast<double>(memo_hits) /
                              static_cast<double>(memo_probe_len);
    memo_load_factor = caching->MemoLoadFactor();
    std::printf("memoized warm pass:       %8.4f s  (%.2f Mevals/s, "
                "hit rate %.3f over %zu batches, load factor %.2f)\n",
                memo_warm_s, hrho_pairs / memo_warm_s / 1e6, memo_hit_rate,
                memo_batches, memo_load_factor);
  }

  std::ofstream out(out_path);
  out << "{\n"
      << her::bench::JsonPeakRssField()
      << "  \"workload\": \"bench_fig6_scalability synthetic "
         "(ScalingSpec(1200))\",\n"
      << "  \"candidate_pairs\": " << work.size() << ",\n"
      << "  \"hrho_evaluations\": " << hrho_pairs << ",\n"
      << "  \"embeddings_precomputed\": " << precomputed << ",\n"
      << "  \"properties_total\": " << total_props << ",\n"
      << "  \"before\": {\"scalar_per_pair_seconds\": " << scalar_s << "},\n"
      << "  \"after\": {\"batched_kernel_seconds\": " << batched_s << "},\n"
      << "  \"hrho_memo\": {\n"
      << "    \"warm_pass_seconds\": " << memo_warm_s << ",\n"
      << "    \"probe_batches\": " << memo_batches << ",\n"
      << "    \"probe_len\": " << memo_probe_len << ",\n"
      << "    \"hits\": " << memo_hits << ",\n"
      << "    \"hit_rate\": " << memo_hit_rate << ",\n"
      << "    \"load_factor\": " << memo_load_factor << "\n"
      << "  },\n"
      << "  \"bit_identical\": true,\n"
      << "  \"speedup\": " << speedup << "\n"
      << "}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (speedup: %.2fx)\n", out_path.c_str(), speedup);
  return speedup >= 2.0 ? 0 : 2;
}
