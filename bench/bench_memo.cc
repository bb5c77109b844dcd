// Memo-probe benchmark for the cache-conscious flat tables behind the
// HER memos (M_rho score cache, MatchEngine pair cache): the
// pre-flat-table std::unordered_map probed per key (node-based buckets,
// one dependent cache miss per probe) against the open-addressing
// FlatTable, scalar and prefetch-pipelined FindBatch. The probe stream
// mimics the candidate-generation regime (~50% hit rate over PairKeys).
//
// Two workload regimes:
//   - "memo": 64K resident entries, the scale the capped memo shards
//     actually run at — table fits the LLC.
//     This is the gated number.
//   - "dram": 4M resident entries (~128 MiB of buckets), the regime a
//     large uncapped run would reach, where probes are DRAM/TLB-bound.
//     Reported for context (full mode only).
//
// All three variants must agree hit-for-hit and bit-for-bit on the
// values delivered; this binary asserts that before reporting. Writes
// before/after numbers to BENCH_memo.json (path overridable via
// argv[1]); exit code 2 means the 1.3x speedup target (batched flat vs
// unordered_map, memo regime) was missed.

#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/flat_table.h"
#include "common/proc_stats.h"
#include "common/rng.h"
#include "common/timer.h"

namespace {

using namespace her;
using namespace her::bench;

struct RegimeResult {
  size_t entries = 0, probes = 0, hits = 0;
  double load_factor = 0.0;
  double umap_s = 0.0, flat_s = 0.0, batch_s = 0.0;
  bool ok = false;  // all variants agreed bit-for-bit
};

RegimeResult RunRegime(const char* name, size_t entries, size_t probes,
                       int reps) {
  RegimeResult r;
  r.entries = entries;
  r.probes = probes;

  // Resident set: PairKey(u, v) rows the way the memos key them. Probe
  // stream drawn from twice the resident key space => ~50% hits.
  std::vector<uint64_t> probe_keys;
  probe_keys.reserve(probes);
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (size_t i = 0; i < probes; ++i) {
    const uint64_t k = SplitMix64(state) % (entries * 2);
    probe_keys.push_back(
        PairKey(static_cast<uint32_t>(k % 64), static_cast<uint32_t>(k)));
  }

  std::unordered_map<uint64_t, double> umap;
  umap.reserve(entries);
  FlatTable<double> flat(entries);
  for (size_t i = 0; i < entries; ++i) {
    const uint64_t k =
        PairKey(static_cast<uint32_t>(i % 64), static_cast<uint32_t>(i));
    const double v = static_cast<double>(k & 0xffff) * 0.5;
    umap.emplace(k, v);
    flat.TryEmplace(k, v);
  }
  r.load_factor = flat.LoadFactor();
  std::printf("[%s] %zu resident PairKeys, %zu probes (~50%% hit), "
              "flat load factor %.2f\n",
              name, entries, probes, r.load_factor);

  // Before: per-key unordered_map::find, the old memo probe.
  std::vector<double> umap_out(probes, 0.0);
  std::vector<uint8_t> umap_found(probes, 0);
  r.umap_s = BestOf(reps, [&] {
    for (size_t i = 0; i < probes; ++i) {
      auto it = umap.find(probe_keys[i]);
      umap_found[i] = it != umap.end();
      if (umap_found[i]) umap_out[i] = it->second;
    }
  });
  std::printf("[%s] unordered_map scalar:  %8.4f s  (%.1f Mprobe/s)\n",
              name, r.umap_s, probes / r.umap_s / 1e6);

  // Flat table, still one Find per key.
  std::vector<double> flat_out(probes, 0.0);
  std::vector<uint8_t> flat_found(probes, 0);
  r.flat_s = BestOf(reps, [&] {
    for (size_t i = 0; i < probes; ++i) {
      const double* v = flat.Find(probe_keys[i]);
      flat_found[i] = v != nullptr;
      if (v != nullptr) flat_out[i] = *v;
    }
  });
  std::printf("[%s] flat scalar:           %8.4f s  (%.1f Mprobe/s, "
              "%.2fx)\n",
              name, r.flat_s, probes / r.flat_s / 1e6, r.umap_s / r.flat_s);

  // After: prefetch-pipelined FindBatch in memo-sized chunks (the
  // ScoreBatch granularity — a whole candidate list per call).
  constexpr size_t kChunk = 512;
  std::vector<double> batch_out(probes, 0.0);
  std::vector<uint8_t> batch_found(probes, 0);
  r.batch_s = BestOf(reps, [&] {
    for (size_t i = 0; i < probes; i += kChunk) {
      const size_t n = std::min(kChunk, probes - i);
      flat.FindBatch(std::span<const uint64_t>(&probe_keys[i], n),
                     &batch_out[i], &batch_found[i]);
    }
  });
  std::printf("[%s] flat batched:          %8.4f s  (%.1f Mprobe/s, "
              "%.2fx)\n",
              name, r.batch_s, probes / r.batch_s / 1e6,
              r.umap_s / r.batch_s);

  // All three probe paths must deliver identical hits and values.
  size_t mismatches = 0;
  for (size_t i = 0; i < probes; ++i) {
    if (umap_found[i] != flat_found[i] || umap_found[i] != batch_found[i]) {
      ++mismatches;
      continue;
    }
    if (umap_found[i]) {
      ++r.hits;
      if (umap_out[i] != flat_out[i] || umap_out[i] != batch_out[i]) {
        ++mismatches;
      }
    }
  }
  r.ok = mismatches == 0;
  if (!r.ok) {
    std::fprintf(stderr,
                 "[%s] error: %zu of %zu probes disagree across variants\n",
                 name, mismatches, probes);
  } else {
    std::printf("[%s] bit-identity check: %zu probes agree (%zu hits)\n",
                name, probes, r.hits);
  }
  return r;
}

void EmitRegime(std::ofstream& out, const char* name, const RegimeResult& r,
                bool last) {
  out << "  \"" << name << "\": {\n"
      << "    \"resident_entries\": " << r.entries << ",\n"
      << "    \"probes\": " << r.probes << ",\n"
      << "    \"hits\": " << r.hits << ",\n"
      << "    \"flat_load_factor\": " << r.load_factor << ",\n"
      << "    \"before\": {\"unordered_map_scalar_seconds\": " << r.umap_s
      << "},\n"
      << "    \"after\": {\n"
      << "      \"flat_scalar_seconds\": " << r.flat_s << ",\n"
      << "      \"flat_batched_seconds\": " << r.batch_s << "\n"
      << "    },\n"
      << "    \"speedup_flat_scalar\": " << r.umap_s / r.flat_s << ",\n"
      << "    \"speedup_flat_batched\": " << r.umap_s / r.batch_s << "\n"
      << "  }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto [out_path, smoke] = ParseBenchArgs(argc, argv, "BENCH_memo.json");
  const int reps = smoke ? 1 : 5;

  // The gated regime: capped-memo scale, LLC-resident.
  const RegimeResult memo = RunRegime(
      "memo", smoke ? (1u << 12) : (1u << 16), smoke ? (1u << 14) : (1u << 22),
      reps);
  if (!memo.ok) return 1;

  // Context regime (full mode only): DRAM-resident table.
  RegimeResult dram;
  if (!smoke) {
    dram = RunRegime("dram", 1u << 22, 1u << 22, reps);
    if (!dram.ok) return 1;
  }

  const double speedup = memo.umap_s / memo.batch_s;
  std::ofstream out(out_path);
  out << "{\n"
      << "  \"peak_rss_bytes\": " << PeakRssBytes() << ",\n"
      << "  \"workload\": \"memo probe over PairKeys, ~50% hit rate\",\n"
      << "  \"bit_identical\": true,\n"
      << "  \"speedup\": " << speedup << ",\n";
  EmitRegime(out, "memo_regime", memo, smoke);
  if (!smoke) EmitRegime(out, "dram_regime", dram, true);
  out << "}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (memo-regime batched speedup: %.2fx)\n",
              out_path.c_str(), speedup);
  return speedup >= 1.3 ? 0 : 2;
}
