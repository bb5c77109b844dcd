// h_r kernel benchmark (module Learn's dominant cost) on the synthetic
// scalability workload: PropertyTable::Build driven by the pre-kernel
// scalar path (per-vertex LstmPraRanker::TopK, one LstmLm::StepProb
// matrix-vector per walk edge) against the lockstep batched kernel
// (TopKBatch blocks, one StepProbBatch per frontier round across every
// live walk), each fanned across 1/4/8 ParallelFor threads. The two
// builds are bit-identical by construction; this binary asserts that
// before reporting. Writes before/after numbers to BENCH_hr.json (path
// overridable via argv[1]), whose header records the host (nproc, build
// type, git commit) the thread counts ran on; `--smoke` runs a reduced
// workload for CI.
// Exit code 2 means the 2x 8-thread speedup target was missed.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/match_engine.h"
#include "sim/scores.h"

namespace {

using namespace her;
using namespace her::bench;

/// The pre-kernel build path: forwards TopK and inherits the base class's
/// looped TopKBatch, so PropertyTable::Build ranks one vertex at a time
/// through the scalar walk exactly as it did before the lockstep kernel.
class ScalarizedRanker : public DescendantRanker {
 public:
  explicit ScalarizedRanker(const DescendantRanker* inner) : inner_(inner) {}
  std::vector<RankedProperty> TopK(int graph, VertexId v,
                                   int k) const override {
    return inner_->TopK(graph, v, k);
  }

 private:
  const DescendantRanker* inner_;
};

}  // namespace

int main(int argc, char** argv) {
  const auto [out_path, smoke] = ParseBenchArgs(argc, argv, "BENCH_hr.json");
  const int reps = smoke ? 1 : 3;

  DatasetSpec spec = ScalingSpec(smoke ? 150 : 1200);
  spec.name = "synthetic";
  BenchSystem bs(spec);
  const MatchContext& ctx = bs.system->context();
  const auto* lstm = dynamic_cast<const LstmPraRanker*>(ctx.hr);
  if (lstm == nullptr) {
    std::fprintf(stderr, "unexpected h_r wiring (no LSTM ranker)\n");
    return 1;
  }
  const ScalarizedRanker baseline(ctx.hr);

  std::printf("workload: %s  |V(G_D)|=%zu  |V(G)|=%zu\n", spec.name.c_str(),
              ctx.gd->num_vertices(), ctx.g->num_vertices());

  // Before: per-vertex scalar TopK (block size 1 reproduces the old
  // per-vertex ParallelFor granularity). After: lockstep TopKBatch blocks.
  const std::vector<size_t> thread_counts = {1, 4, 8};
  std::vector<double> scalar_s, batched_s;
  PropertyTable scalar_table, batched_table;
  for (const size_t threads : thread_counts) {
    scalar_s.push_back(BestOf(reps, [&] {
      scalar_table =
          PropertyTable::Build(*ctx.gd, *ctx.g, baseline, *ctx.vocab,
                               threads, ctx.mrho, /*block_size=*/1);
    }));
    std::printf("scalar TopK build,    %zu thread%s: %8.4f s\n", threads,
                threads == 1 ? " " : "s", scalar_s.back());
    batched_s.push_back(BestOf(reps, [&] {
      batched_table = PropertyTable::Build(*ctx.gd, *ctx.g, *ctx.hr,
                                           *ctx.vocab, threads, ctx.mrho);
    }));
    std::printf("lockstep batch build, %zu thread%s: %8.4f s  "
                "(speedup %5.2fx)\n",
                threads, threads == 1 ? " " : "s", batched_s.back(),
                scalar_s.back() / batched_s.back());
    // The kernel must produce the identical table, not just a close one.
    if (!(scalar_table == batched_table)) {
      std::fprintf(stderr,
                   "error: batched build differs from scalar build "
                   "at %zu threads\n",
                   threads);
      return 1;
    }
  }
  std::printf("bit-identity check: tables identical at every thread count\n");

  const double avg_lanes =
      lstm->LstmBatchCalls() == 0
          ? 0.0
          : static_cast<double>(lstm->LstmBatchLanes()) /
                static_cast<double>(lstm->LstmBatchCalls());
  const double speedup8 = scalar_s.back() / batched_s.back();

  std::ofstream out(out_path);
  out << "{\n"
      << her::bench::JsonPeakRssField() << her::bench::JsonHostFields()
      << "  \"workload\": \"bench_fig6_scalability synthetic (ScalingSpec("
      << (smoke ? 150 : 1200) << "))\",\n"
      << "  \"gd_vertices\": " << ctx.gd->num_vertices() << ",\n"
      << "  \"g_vertices\": " << ctx.g->num_vertices() << ",\n"
      << "  \"build_block_size\": " << PropertyTable::kDefaultBuildBlock
      << ",\n"
      << "  \"lstm_batch_calls\": " << lstm->LstmBatchCalls() << ",\n"
      << "  \"avg_lanes_per_batch\": " << avg_lanes << ",\n"
      << "  \"walk_rounds\": " << lstm->WalkRounds() << ",\n"
      << "  \"before\": {\n";
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    out << "    \"scalar_topk_" << thread_counts[i]
        << "_threads_seconds\": " << scalar_s[i]
        << (i + 1 < thread_counts.size() ? ",\n" : "\n");
  }
  out << "  },\n"
      << "  \"after\": {\n";
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    out << "    \"batched_" << thread_counts[i]
        << "_threads_seconds\": " << batched_s[i]
        << (i + 1 < thread_counts.size() ? ",\n" : "\n");
  }
  out << "  },\n"
      << "  \"bit_identical\": true,\n"
      << "  \"speedup_batched_1_thread\": " << scalar_s[0] / batched_s[0]
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
  return speedup8 >= 2.0 ? 0 : 2;
}
