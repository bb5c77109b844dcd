// 100x-scale BSP benchmark: the Fig-6 scalability trajectory pushed to a
// million graph vertices. Three tiers of the scaling generator (targeting
// ~10k, ~100k and ~1M vertices of G, rendered by the parallel datagen so
// the 1M tier builds in seconds) are each run through BspAllMatch under
// the streaming edge-cut partitioner across {1, 4, 8} workers, plus one
// kHash run per tier for the partitioner comparison. Candidates are the
// ground-truth pairs plus an equal number of shifted (mismatching) pairs
// — linear in |G|, so the bench measures the BSP fixpoint, not the sigma
// scan. Deterministic test scorers (token-Jaccard h_v, token-overlap
// M_rho, PRA h_r) keep every run training-free and bit-reproducible.
//
// Each configuration runs 3 times (once in --smoke), and the JSON records
// the median and both quartiles of its wall, superstep-makespan and
// teardown seconds, so two commits' files compare spread, not one draw of
// host noise. Checks (exit 1): Pi is bit-identical across every worker
// count and both partition strategies at every tier, and every repeat of
// a configuration reports the same supersteps, messages, wire bytes and
// Pi. Gates (exit 2, full mode): the varint-delta wire format ships >= 2x
// fewer bytes than the raw struct exchange, and kEdgeCut exchanges no
// more cross-fragment messages than kHash. Writes BENCH_scale.json (path
// overridable via argv[1]), whose header records the host's nproc, the
// build type and the git commit (JsonHostFields) so worker-scaling numbers
// can be read against the host; --smoke runs only the 10k tier for CI.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "parallel/bsp_engine.h"
#include "sim/scores.h"

namespace {

using namespace her;
using namespace her::bench;

/// Lower quartile, median and upper quartile of a configuration's
/// repeats (linear interpolation between order statistics).
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;

  static Spread Of(std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    const auto at = [&](double q) {
      const double pos = q * static_cast<double>(xs.size() - 1);
      const size_t lo = static_cast<size_t>(pos);
      const size_t hi = std::min(lo + 1, xs.size() - 1);
      return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
    };
    return {at(0.25), at(0.5), at(0.75)};
  }
};

struct RunRecord {
  uint32_t workers = 0;
  const char* strategy = "";
  size_t supersteps = 0;
  size_t messages = 0;
  size_t bytes_raw = 0;
  size_t bytes_wire = 0;
  size_t matches = 0;
  Spread seconds;
  Spread simulated_seconds;
  Spread teardown_seconds;  // freeing the fragments, inside `seconds`
  double edge_cut_fraction = 0.0;
  size_t border_vertices = 0;
  double imbalance = 0.0;
};

struct TierRecord {
  size_t target_vertices = 0;
  int entities = 0;
  size_t gd_vertices = 0;
  size_t g_vertices = 0;
  size_t g_edges = 0;
  uint64_t dataset_digest = 0;
  double gen_seconds = 0.0;
  size_t candidates = 0;
  std::vector<RunRecord> runs;
  bool pi_identical = true;
  double wire_ratio = 0.0;   // raw/wire of the 8-worker edge-cut run
  double msg_ratio = 0.0;    // edgecut/hash messages at 8 workers
};

/// `, "<name>": median, "<name>_q1": q1, "<name>_q3": q3` of one run.
std::string SpreadFields(const std::string& name, const Spread& s) {
  return ", \"" + name + "\": " + std::to_string(s.median) + ", \"" + name +
         "_q1\": " + std::to_string(s.q1) + ", \"" + name +
         "_q3\": " + std::to_string(s.q3);
}

}  // namespace

int main(int argc, char** argv) {
  const auto [out_path, smoke] = ParseBenchArgs(argc, argv, "BENCH_scale.json");
  const int repeats = smoke ? 1 : 3;

  // Entity counts calibrated so the generated G clears each vertex
  // target (the generator renders ~8.6 G vertices per entity).
  struct Tier {
    size_t target;
    int entities;
  };
  std::vector<Tier> tiers = {{10'000, 1'200}};
  if (!smoke) {
    tiers.push_back({100'000, 11'800});
    tiers.push_back({1'000'000, 117'500});
  }
  const size_t kMemBudget = 64ull << 20;  // 64 MiB per worker
  const SimulationParams params{.sigma = 0.5, .delta = 0.25, .k = 6};

  std::vector<TierRecord> records;
  bool all_identical = true;
  bool wire_gate = true;
  bool partition_gate = true;

  for (const Tier& tier : tiers) {
    TierRecord rec;
    rec.target_vertices = tier.target;
    rec.entities = tier.entities;

    DatasetSpec spec = ScalingSpec(tier.entities, 29);
    spec.gen_threads = 8;
    WallTimer gen_timer;
    const GeneratedDataset data = Generate(spec);
    rec.gen_seconds = gen_timer.Seconds();
    rec.dataset_digest = DatasetDigest(data);
    rec.gd_vertices = data.canonical.graph().num_vertices();
    rec.g_vertices = data.g.num_vertices();
    rec.g_edges = data.g.num_edges();
    std::printf(
        "tier %zuk: %d entities -> |V(G)|=%zu |E(G)|=%zu |V(G_D)|=%zu, "
        "generated in %.2f s (digest %016llx)\n",
        tier.target / 1000, tier.entities, rec.g_vertices, rec.g_edges,
        rec.gd_vertices, rec.gen_seconds,
        static_cast<unsigned long long>(rec.dataset_digest));

    // Ground-truth pairs plus shifted mismatches: the true pairs drive
    // deep Match recursion, the shifted ones drive invalidation traffic.
    std::vector<MatchPair> candidates;
    candidates.reserve(2 * data.true_matches.size());
    std::vector<VertexId> vs;
    for (const auto& [t, v] : data.true_matches) {
      candidates.emplace_back(data.canonical.VertexOf(t), v);
      vs.push_back(v);
    }
    for (size_t i = 0; i + 1 < data.true_matches.size(); ++i) {
      candidates.emplace_back(
          data.canonical.VertexOf(data.true_matches[i].first), vs[i + 1]);
    }
    rec.candidates = candidates.size();

    // Deterministic test scorers: no training, bit-reproducible.
    const Graph& gd = data.canonical.graph();
    JaccardVertexScorer hv(gd, data.g);
    JointVocab vocab(gd, data.g);
    TokenOverlapPathScorer mrho(&vocab);
    PraRanker hr(gd, data.g);
    MatchContext ctx;
    ctx.gd = &gd;
    ctx.g = &data.g;
    ctx.hv = &hv;
    ctx.mrho = &mrho;
    ctx.hr = &hr;
    ctx.vocab = &vocab;
    ctx.params = params;

    // Leaves pair_owner unset: ownership follows the G-side partition, so
    // kEdgeCut vs kHash changes which recursion steps cross fragments.
    auto run = [&](uint32_t workers, PartitionStrategy strategy) {
      ParallelConfig cfg;
      cfg.num_workers = workers;
      cfg.strategy = strategy;
      cfg.worker_mem_budget_bytes = kMemBudget;
      RunRecord r;
      r.workers = workers;
      r.strategy =
          strategy == PartitionStrategy::kEdgeCut ? "edgecut" : "hash";
      std::vector<MatchPair> pi;
      std::vector<double> seconds, simulated, teardown;
      for (int rep = 0; rep < repeats; ++rep) {
        BspAllMatch bsp(ctx, cfg);
        WallTimer t;
        ParallelResult res = bsp.RunOnCandidates(candidates);
        seconds.push_back(t.Seconds());
        if (!res.status.ok()) {
          std::fprintf(stderr, "run failed: %s\n",
                       res.status.ToString().c_str());
          std::exit(1);
        }
        simulated.push_back(res.simulated_seconds);
        teardown.push_back(res.teardown_seconds);
        if (rep > 0 && (res.supersteps != r.supersteps ||
                        res.messages != r.messages ||
                        res.message_bytes_wire != r.bytes_wire ||
                        res.matches != pi)) {
          std::fprintf(stderr,
                       "%s w=%u: repeat %d differs from repeat 0 in "
                       "supersteps, messages, wire bytes or Pi\n",
                       r.strategy, workers, rep);
          std::exit(1);
        }
        r.supersteps = res.supersteps;
        r.messages = res.messages;
        r.bytes_raw = res.message_bytes_raw;
        r.bytes_wire = res.message_bytes_wire;
        r.matches = res.matches.size();
        r.edge_cut_fraction = res.partition.edge_cut_fraction;
        r.border_vertices = res.partition.border_vertices;
        r.imbalance = res.partition.max_fragment_imbalance;
        pi = std::move(res.matches);
      }
      r.seconds = Spread::Of(seconds);
      r.simulated_seconds = Spread::Of(simulated);
      r.teardown_seconds = Spread::Of(teardown);
      std::printf(
          "  %7s w=%u: %5.2f s [%5.2f, %5.2f] (simulated %5.2f s "
          "[%5.2f, %5.2f], teardown %5.3f s)  supersteps=%zu  "
          "messages=%zu  wire=%zu/%zu B  cut=%.3f  border=%zu  |Pi|=%zu\n",
          r.strategy, workers, r.seconds.median, r.seconds.q1, r.seconds.q3,
          r.simulated_seconds.median, r.simulated_seconds.q1,
          r.simulated_seconds.q3, r.teardown_seconds.median, r.supersteps,
          r.messages, r.bytes_wire, r.bytes_raw, r.edge_cut_fraction,
          r.border_vertices, r.matches);
      rec.runs.push_back(r);
      return pi;
    };

    const std::vector<MatchPair> pi = run(1, PartitionStrategy::kEdgeCut);
    for (const uint32_t w : {4u, 8u}) {
      rec.pi_identical =
          rec.pi_identical && run(w, PartitionStrategy::kEdgeCut) == pi;
    }
    rec.pi_identical =
        rec.pi_identical && run(8, PartitionStrategy::kHash) == pi;
    all_identical = all_identical && rec.pi_identical;

    const RunRecord& ec8 = rec.runs[2];   // edgecut, 8 workers
    const RunRecord& hash8 = rec.runs[3];  // hash, 8 workers
    rec.wire_ratio = ec8.bytes_wire == 0
                         ? 0.0
                         : static_cast<double>(ec8.bytes_raw) /
                               static_cast<double>(ec8.bytes_wire);
    rec.msg_ratio = hash8.messages == 0
                        ? 0.0
                        : static_cast<double>(ec8.messages) /
                              static_cast<double>(hash8.messages);
    std::printf(
        "  Pi bit-identical: %s   wire compaction %.2fx   edgecut/hash "
        "messages %.3f\n",
        rec.pi_identical ? "ok" : "MISMATCH", rec.wire_ratio, rec.msg_ratio);
    wire_gate = wire_gate && rec.wire_ratio >= 2.0;
    partition_gate = partition_gate && ec8.messages <= hash8.messages;
    records.push_back(std::move(rec));
  }

  std::ofstream out(out_path);
  out << "{\n"
      << JsonPeakRssField() << JsonHostFields()
      << "  \"repeats\": " << repeats << ",\n"
      << "  \"workload\": \"parallel datagen ScalingSpec tiers, "
         "ground-truth + shifted candidate pairs, deterministic scorers\",\n"
      << "  \"worker_mem_budget_bytes\": " << kMemBudget << ",\n"
      << "  \"tiers\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const TierRecord& rec = records[i];
    out << "    {\n"
        << "      \"target_vertices\": " << rec.target_vertices << ",\n"
        << "      \"entities\": " << rec.entities << ",\n"
        << "      \"gd_vertices\": " << rec.gd_vertices << ",\n"
        << "      \"graph_vertices\": " << rec.g_vertices << ",\n"
        << "      \"graph_edges\": " << rec.g_edges << ",\n"
        << "      \"dataset_digest\": " << rec.dataset_digest << ",\n"
        << "      \"gen_seconds\": " << rec.gen_seconds << ",\n"
        << "      \"candidates\": " << rec.candidates << ",\n"
        << "      \"pi_bit_identical\": "
        << (rec.pi_identical ? "true" : "false") << ",\n"
        << "      \"wire_compaction\": " << rec.wire_ratio << ",\n"
        << "      \"edgecut_vs_hash_messages\": " << rec.msg_ratio << ",\n"
        << "      \"runs\": [\n";
    for (size_t j = 0; j < rec.runs.size(); ++j) {
      const RunRecord& r = rec.runs[j];
      out << "        {\"workers\": " << r.workers << ", \"strategy\": \""
          << r.strategy << "\""
          << SpreadFields("seconds", r.seconds)
          << SpreadFields("simulated_seconds", r.simulated_seconds)
          << SpreadFields("teardown_seconds", r.teardown_seconds)
          << ", \"supersteps\": " << r.supersteps
          << ", \"messages\": " << r.messages
          << ", \"message_bytes_raw\": " << r.bytes_raw
          << ", \"message_bytes_wire\": " << r.bytes_wire
          << ", \"edge_cut_fraction\": " << r.edge_cut_fraction
          << ", \"border_vertices\": " << r.border_vertices
          << ", \"max_fragment_imbalance\": " << r.imbalance
          << ", \"matches\": " << r.matches << "}"
          << (j + 1 < rec.runs.size() ? ",\n" : "\n");
    }
    out << "      ]\n    }" << (i + 1 < records.size() ? ",\n" : "\n");
  }
  out << "  ],\n"
      << "  \"pi_bit_identical\": " << (all_identical ? "true" : "false")
      << ",\n"
      << "  \"wire_gate_2x\": " << (wire_gate ? "true" : "false") << ",\n"
      << "  \"partition_gate\": " << (partition_gate ? "true" : "false")
      << "\n}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!all_identical) return 1;
  if (!smoke && (!wire_gate || !partition_gate)) return 2;
  return 0;
}
