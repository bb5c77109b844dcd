#ifndef HER_BENCH_BENCH_UTIL_H_
#define HER_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/baseline.h"
#include "baselines/bsim.h"
#include "baselines/deep_matcher.h"
#include "baselines/jedai.h"
#include "baselines/lexical.h"
#include "baselines/magellan.h"
#include "baselines/magnn.h"
#include "common/proc_stats.h"
#include "common/timer.h"
#include "datagen/dataset.h"
#include "learn/her_system.h"
#include "learn/metrics.h"

namespace her::bench {

/// Command line of the kernel benches: `--smoke` shrinks the workload for
/// CI; any other argument overrides the BENCH_*.json output path.
struct BenchArgs {
  std::string out_path;
  bool smoke = false;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv,
                                std::string default_out) {
  BenchArgs args{std::move(default_out)};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      args.smoke = true;
    } else {
      args.out_path = argv[i];
    }
  }
  return args;
}

/// Best-of-`reps` wall time of `fn` (seconds).
template <typename Fn>
double BestOf(int reps, const Fn& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.Seconds());
  }
  return best;
}

/// A generated dataset with a trained HER system over it.
struct BenchSystem {
  explicit BenchSystem(const DatasetSpec& spec, HerConfig cfg = {},
                       bool train = true)
      : data(Generate(spec)), split(SplitAnnotations(data.annotations)) {
    system = std::make_unique<HerSystem>(data.canonical, data.g, cfg);
    if (train) {
      // Thresholds tune on train + validation pairs (65%): HER's models
      // train on path pairs, so the annotated train split is otherwise
      // unused, and the 15% validation alone is high-variance at this
      // scale. The test split stays untouched.
      std::vector<Annotation> tuning = split.train;
      tuning.insert(tuning.end(), split.validation.begin(),
                    split.validation.end());
      system->Train(data.path_pairs, tuning);
    }
  }

  double TestF1() {
    return EvaluatePredictor(split.test,
                             [&](VertexId u, VertexId v) {
                               return system->SPairVertex(u, v);
                             })
        .F1();
  }

  GeneratedDataset data;
  AnnotationSplit split;
  std::unique_ptr<HerSystem> system;
};

/// The competitor set of Table V (top block).
inline std::vector<std::unique_ptr<Baseline>> MakeTableVBaselines() {
  std::vector<std::unique_ptr<Baseline>> out;
  out.push_back(std::make_unique<MagnnBaseline>());
  out.push_back(std::make_unique<BsimBaseline>());
  out.push_back(std::make_unique<JedaiBaseline>());
  out.push_back(std::make_unique<MagellanBaseline>());
  out.push_back(std::make_unique<DeepBaseline>());
  out.push_back(std::make_unique<LexmaBaseline>());
  return out;
}

/// Trains `b` on the dataset's train split and returns test F1, or -1 when
/// the baseline reports out-of-memory.
inline double BaselineTestF1(Baseline& b, const GeneratedDataset& data,
                             const AnnotationSplit& split) {
  b.Train({&data.canonical, &data.g}, split.train);
  if (b.out_of_memory()) return -1.0;
  return EvaluatePredictor(split.test,
                           [&](VertexId u, VertexId v) {
                             return b.Predict(u, v);
                           })
      .F1();
}

/// Prints "name  v1  v2 ..." with fixed column widths; -1 renders as "OM".
inline void PrintRow(const std::string& name,
                     const std::vector<double>& values) {
  std::printf("%-10s", name.c_str());
  for (const double v : values) {
    if (v < 0) {
      std::printf(" %9s", "OM");
    } else {
      std::printf(" %9.3f", v);
    }
  }
  std::printf("\n");
}

inline void PrintHeader(const std::string& first,
                        const std::vector<std::string>& columns) {
  std::printf("%-10s", first.c_str());
  for (const auto& c : columns) std::printf(" %9s", c.c_str());
  std::printf("\n");
}

/// The "peak_rss_bytes" field every BENCH_*.json carries: the process
/// high-water RSS (VmHWM) at JSON-write time, so each result records the
/// memory footprint of producing it. Renders 0 where /proc is missing.
inline std::string JsonPeakRssField() {
  return "  \"peak_rss_bytes\": " + std::to_string(PeakRssBytes()) + ",\n";
}

/// The host fields of a BENCH_*.json header: nproc, the CMake build type
/// and the git commit of the source tree the bench was built from ("-dirty"
/// when it has uncommitted changes; null outside a git checkout), so
/// thread-scaling numbers can be read against the host that made them.
inline std::string JsonHostFields() {
  std::string sha = "null";
  const std::string cmd = "git -C \"" HER_SOURCE_DIR
                          "\" describe --always --dirty --abbrev=12 "
                          "--exclude='*' 2>/dev/null";
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      std::string line(buf);
      while (!line.empty() && (line.back() == '\n' || line.back() == ' ')) {
        line.pop_back();
      }
      if (!line.empty()) sha = "\"" + line + "\"";
    }
    pclose(p);
  }
  return "  \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ",\n  \"build_type\": \"" HER_BUILD_TYPE "\",\n  \"git_sha\": " +
         sha + ",\n";
}

/// Item entity vertices of G (the v-side candidate pool for baselines).
inline std::vector<VertexId> ItemVertices(const Graph& g) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.label(v) == "item") out.push_back(v);
  }
  return out;
}

}  // namespace her::bench

#endif  // HER_BENCH_BENCH_UTIL_H_
