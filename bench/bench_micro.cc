// Microbenchmarks (google-benchmark) of HER's hot primitives: h_v scoring,
// M_rho scoring (trained and memoized), h_r top-k selection (PRA and
// LSTM), and ParaMatch cold vs warm. Not a paper table; supports the
// complexity discussion in DESIGN.md.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ann/ivf_index.h"
#include "bench/bench_util.h"
#include "common/flat_table.h"
#include "common/rng.h"

namespace {

using namespace her;
using namespace her::bench;

/// One shared trained system (building costs seconds; benchmarks must not
/// pay it per iteration).
BenchSystem& Shared() {
  static BenchSystem* bs = [] {
    DatasetSpec spec = UkgovSpec(201);
    spec.num_entities = 150;
    return new BenchSystem(spec);
  }();
  return *bs;
}

void BM_VertexScore(benchmark::State& state) {
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const VertexId u = bs.data.canonical.TupleVertices().front();
  VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.hv->Score(u, v));
    v = (v + 1) % bs.data.g.num_vertices();
  }
}
BENCHMARK(BM_VertexScore);

void BM_VertexScoreBatch(benchmark::State& state) {
  // The batched h_v kernel: one ScoreBatch call over `range(0)` candidate
  // rows. Compare per-pair cost against BM_VertexScore.
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const VertexId u = bs.data.canonical.TupleVertices().front();
  const size_t n =
      std::min<size_t>(state.range(0), bs.data.g.num_vertices());
  std::vector<VertexId> vs(n);
  for (size_t i = 0; i < n; ++i) vs[i] = static_cast<VertexId>(i);
  std::vector<double> out(n);
  for (auto _ : state) {
    ctx.hv->ScoreBatch(u, vs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["hv_batch_calls"] =
      static_cast<double>(ctx.hv->BatchCalls());
}
BENCHMARK(BM_VertexScoreBatch)->Arg(64)->Arg(512);

void BM_VertexScoreMatrix(benchmark::State& state) {
  // The h_v matrix kernel at CandidateListsFor's shape: one ScoreMatrix
  // call of range(0) u vertices (a tuple's k property descendants) over
  // range(1) candidate descendants. range(2) picks the scorer: 0 is the
  // trained system's EmbeddingVertexScorer, 1 the JaccardVertexScorer of
  // apair-scale, whose rows are interned by the first iteration, so this
  // times the warm integer merge (BM_JaccardRowFill times the cold fill).
  // Compare per-pair cost against the 1-row case (one ScoreBatch) and
  // BM_VertexScore.
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const JaccardVertexScorer jaccard(*ctx.gd, *ctx.g);
  const VertexScorer* hv = state.range(2) == 0 ? ctx.hv : &jaccard;
  state.SetLabel(state.range(2) == 0 ? "embedding" : "jaccard");
  const size_t nu = static_cast<size_t>(state.range(0));
  const size_t nv =
      std::min<size_t>(state.range(1), bs.data.g.num_vertices());
  std::vector<VertexId> us(nu);
  std::vector<VertexId> vs(nv);
  for (size_t i = 0; i < nu; ++i) {
    us[i] = static_cast<VertexId>(i % ctx.gd->num_vertices());
  }
  for (size_t j = 0; j < nv; ++j) vs[j] = static_cast<VertexId>(j);
  std::vector<double> out(nu * nv);
  for (auto _ : state) {
    hv->ScoreMatrix(us, vs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * nu * nv);
}
BENCHMARK(BM_VertexScoreMatrix)
    ->Args({6, 64, 0})
    ->Args({6, 512, 0})
    ->Args({1, 512, 0})
    ->Args({11, 646, 0})  // apair-learned's mean list build
    ->Args({6, 64, 1})
    ->Args({6, 512, 1})
    ->Args({1, 512, 1});

void BM_JaccardRowFill(benchmark::State& state) {
  // The cold side of the interned Jaccard h_v: one ScoreBatch on a fresh
  // JaccardVertexScorer tokenizes and interns range(0) G labels (and one
  // G_D label) into rows, then merges each row once. items/s counts rows
  // filled, so its inverse is a cold vertex's cost, to set against the
  // warm per-pair cost of BM_VertexScoreMatrix jaccard.
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const size_t n =
      std::min<size_t>(state.range(0), bs.data.g.num_vertices());
  std::vector<VertexId> vs(n);
  for (size_t j = 0; j < n; ++j) vs[j] = static_cast<VertexId>(j);
  std::vector<double> out(n);
  for (auto _ : state) {
    state.PauseTiming();
    auto hv = std::make_unique<JaccardVertexScorer>(*ctx.gd, *ctx.g);
    state.ResumeTiming();
    hv->ScoreBatch(0, vs, out);
    benchmark::DoNotOptimize(out.data());
    state.PauseTiming();
    hv.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_JaccardRowFill)->Arg(256)->Arg(4096);

/// Shared memo-probe workload: `entries` resident PairKeys plus a probe
/// stream drawn from twice that key space (~50% hit rate).
struct MemoWorkload {
  std::vector<uint64_t> resident;
  std::vector<uint64_t> probes;
};

MemoWorkload MakeMemoWorkload(size_t entries, size_t probes) {
  MemoWorkload w;
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  w.resident.reserve(entries);
  for (size_t i = 0; i < entries; ++i) {
    w.resident.push_back(PairKey(static_cast<uint32_t>(i % 64),
                                 static_cast<uint32_t>(i)));
  }
  w.probes.reserve(probes);
  for (size_t i = 0; i < probes; ++i) {
    const uint64_t r = SplitMix64(state) % (entries * 2);
    w.probes.push_back(
        PairKey(static_cast<uint32_t>(r % 64), static_cast<uint32_t>(r)));
  }
  return w;
}

void BM_MemoProbeUnorderedMap(benchmark::State& state) {
  // The pre-flat-table memo: std::unordered_map probed one key at a time
  // (node-based buckets, one dependent cache miss per probe).
  const MemoWorkload w =
      MakeMemoWorkload(static_cast<size_t>(state.range(0)), 4096);
  std::unordered_map<uint64_t, double> memo;
  memo.reserve(w.resident.size());
  for (const uint64_t k : w.resident) {
    memo.emplace(k, static_cast<double>(k & 0xffff));
  }
  for (auto _ : state) {
    size_t hits = 0;
    for (const uint64_t k : w.probes) {
      auto it = memo.find(k);
      if (it != memo.end()) {
        benchmark::DoNotOptimize(it->second);
        ++hits;
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.probes.size()));
}
BENCHMARK(BM_MemoProbeUnorderedMap)->Arg(1 << 12)->Arg(1 << 16);

void BM_MemoProbeFlatScalar(benchmark::State& state) {
  // Open-addressing flat table, still one Find per key: tag-byte scan
  // inside one cache line, no pointer chase.
  const MemoWorkload w =
      MakeMemoWorkload(static_cast<size_t>(state.range(0)), 4096);
  FlatTable<double> memo(w.resident.size());
  for (const uint64_t k : w.resident) {
    memo.TryEmplace(k, static_cast<double>(k & 0xffff));
  }
  for (auto _ : state) {
    size_t hits = 0;
    for (const uint64_t k : w.probes) {
      if (const double* v = memo.Find(k)) {
        benchmark::DoNotOptimize(*v);
        ++hits;
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.probes.size()));
  state.counters["load_factor"] = memo.LoadFactor();
}
BENCHMARK(BM_MemoProbeFlatScalar)->Arg(1 << 12)->Arg(1 << 16);

void BM_MemoProbeFlatBatched(benchmark::State& state) {
  // The prefetch-pipelined FindBatch: bucket lines for key i+8 are
  // in flight while key i is probed, hiding the DRAM latency the scalar
  // variants eat per probe.
  const MemoWorkload w =
      MakeMemoWorkload(static_cast<size_t>(state.range(0)), 4096);
  FlatTable<double> memo(w.resident.size());
  for (const uint64_t k : w.resident) {
    memo.TryEmplace(k, static_cast<double>(k & 0xffff));
  }
  std::vector<double> out(w.probes.size());
  std::vector<uint8_t> found(w.probes.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        memo.FindBatch(w.probes, out.data(), found.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.probes.size()));
  state.counters["load_factor"] = memo.LoadFactor();
}
BENCHMARK(BM_MemoProbeFlatBatched)->Arg(1 << 12)->Arg(1 << 16);

void BM_GenerateCandidates(benchmark::State& state) {
  // Fig. 8 lines 1-4 over every tuple vertex, exhaustive scan of G,
  // fanned across range(0) threads.
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const auto tuples = bs.data.canonical.TupleVertices();
  const size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateCandidates(ctx, tuples, nullptr, threads));
  }
  BspAllMatch bsp(ctx, {.num_workers = static_cast<uint32_t>(threads)});
  const MatchEngine::Stats stats = bsp.Run(tuples).stats;
  state.counters["hv_batch_calls"] = static_cast<double>(stats.hv_batch_calls);
  state.counters["hrho_batch_calls"] =
      static_cast<double>(stats.hrho_batch_calls);
  state.counters["hrho_embed_reuse"] =
      static_cast<double>(stats.hrho_embed_reuse);
  state.counters["hrho_hash_rejects"] =
      static_cast<double>(stats.hrho_hash_rejects);
  state.counters["memo_probe_batches"] =
      static_cast<double>(stats.memo_probe_batches);
  state.counters["memo_probe_len"] =
      static_cast<double>(stats.memo_probe_len);
  state.counters["hrho_memo_load_factor"] = stats.hrho_memo_load_factor;
}
BENCHMARK(BM_GenerateCandidates)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_GenerateCandidatesAnn(benchmark::State& state) {
  // The same Fig. 8 scan routed through the IVF index (candidate-mode
  // ann): probe the top-nprobe lists per tuple vertex instead of scoring
  // all of G. Compare against BM_GenerateCandidates; the ann_* counters
  // surface the index telemetry.
  BenchSystem& bs = Shared();
  const auto* emb =
      dynamic_cast<const EmbeddingVertexScorer*>(bs.system->context().hv);
  if (emb == nullptr) {
    state.SkipWithError("unexpected h_v scorer wiring");
    return;
  }
  static const IvfIndex* index = new IvfIndex(IvfIndex::Build(*emb, {}));
  MatchContext ctx = bs.system->context();
  ctx.ann = index;
  ctx.candidate_gen.mode = CandidateMode::kAnn;
  ctx.candidate_gen.nprobe = static_cast<size_t>(state.range(1));
  const auto tuples = bs.data.canonical.TupleVertices();
  const size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateCandidates(ctx, tuples, nullptr, threads));
  }
  state.counters["ann_build_s"] = index->build_seconds();
  state.counters["ann_probes"] = static_cast<double>(index->Probes());
  state.counters["ann_lists_scanned"] =
      static_cast<double>(index->ListsScanned());
  state.counters["ann_points_scanned"] =
      static_cast<double>(index->PointsScanned());
  state.counters["ann_fallbacks"] = static_cast<double>(index->Fallbacks());
  state.counters["ann_recall"] = index->MeasuredRecall();
}
BENCHMARK(BM_GenerateCandidatesAnn)
    ->Args({1, 4})
    ->Args({8, 4})
    ->Args({8, 16})
    ->Unit(benchmark::kMicrosecond);

void BM_PathScoreTrained(benchmark::State& state) {
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const int a = ctx.vocab->FindToken("color");
  const int b = ctx.vocab->FindToken("hasColor");
  const std::vector<int> p1 = {a};
  const std::vector<int> p2 = {b};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.mrho->Score(p1, p2));
  }
}
BENCHMARK(BM_PathScoreTrained);

void BM_PathScoreBatchTrained(benchmark::State& state) {
  // The batched h_rho kernel at CandidateListsFor granularity: range(0)
  // path pairs per ScoreBatch call, operands carrying precomputed
  // embeddings the way PropertyTable stores them. Compare per-pair cost
  // against BM_PathScoreTrained.
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const int a = ctx.vocab->FindToken("color");
  const int b = ctx.vocab->FindToken("hasColor");
  const std::vector<int> p1 = {a};
  const std::vector<int> p2 = {b};
  const Vec e1 = ctx.mrho->EmbedPath(p1);
  const Vec e2 = ctx.mrho->EmbedPath(p2);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<EmbeddedPath> p1s(n, EmbeddedPath{p1, e1});
  std::vector<EmbeddedPath> p2s(n, EmbeddedPath{p2, e2});
  std::vector<double> out(n);
  for (auto _ : state) {
    ctx.mrho->ScoreBatch(p1s, p2s, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["hrho_batch_calls"] =
      static_cast<double>(ctx.mrho->BatchCalls());
}
BENCHMARK(BM_PathScoreBatchTrained)->Arg(16)->Arg(256);

void BM_PathScoreTokenOverlap(benchmark::State& state) {
  // The training-free M_rho of apair-scale over the trained system's joint
  // vocabulary: 256 fixed pairs of 1-4 token paths, scored in turn.
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const TokenOverlapPathScorer mrho(ctx.vocab);
  Rng rng(11);
  std::vector<std::vector<int>> p1s(256), p2s(256);
  for (size_t i = 0; i < p1s.size(); ++i) {
    for (auto* p : {&p1s[i], &p2s[i]}) {
      p->resize(1 + rng.Below(4));
      for (int& t : *p) t = static_cast<int>(rng.Below(ctx.vocab->size()));
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mrho.Score(p1s[i], p2s[i]));
    i = (i + 1) % p1s.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathScoreTokenOverlap);

void BM_RankerTopK(benchmark::State& state) {
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const auto items = ItemVertices(bs.data.g);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.hr->TopK(1, items[i % items.size()], ctx.params.k));
    ++i;
  }
}
BENCHMARK(BM_RankerTopK);

void BM_RankerTopKBatch(benchmark::State& state) {
  // The lockstep h_r kernel: one TopKBatch call over a block of range(0)
  // vertices (every greedy walk advanced by shared StepProbBatch rounds).
  // Compare per-vertex cost against BM_RankerTopK.
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const auto items = ItemVertices(bs.data.g);
  const size_t n = std::min<size_t>(state.range(0), items.size());
  const std::vector<VertexId> block(items.begin(),
                                    items.begin() + static_cast<long>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.hr->TopKBatch(1, block, ctx.params.k));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["hr_batch_calls"] =
      static_cast<double>(ctx.hr->BatchCalls());
  if (const auto* lstm = dynamic_cast<const LstmPraRanker*>(ctx.hr)) {
    state.counters["hr_lstm_batch_calls"] =
        static_cast<double>(lstm->LstmBatchCalls());
    state.counters["hr_walk_rounds"] =
        static_cast<double>(lstm->WalkRounds());
    state.counters["hr_lanes_per_batch"] =
        lstm->LstmBatchCalls() == 0
            ? 0.0
            : static_cast<double>(lstm->LstmBatchLanes()) /
                  static_cast<double>(lstm->LstmBatchCalls());
  }
}
BENCHMARK(BM_RankerTopKBatch)->Arg(16)->Arg(64);

void BM_PropertyTableBuild(benchmark::State& state) {
  // Full blocked parallel build over both graphs with range(0) threads;
  // this is the dominant cost of module Learn and worker cold start.
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const size_t threads = static_cast<size_t>(state.range(0));
  double build_seconds = 0.0;
  for (auto _ : state) {
    const PropertyTable table = PropertyTable::Build(
        *ctx.gd, *ctx.g, *ctx.hr, *ctx.vocab, threads, ctx.mrho);
    benchmark::DoNotOptimize(&table);
    build_seconds = table.build_seconds();
  }
  state.counters["ptable_build_s"] = build_seconds;
}
BENCHMARK(BM_PropertyTableBuild)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SPairWarm(benchmark::State& state) {
  BenchSystem& bs = Shared();
  const auto& test = bs.split.test;
  // Warm every pair once.
  for (const Annotation& a : test) bs.system->SPairVertex(a.u, a.v);
  size_t i = 0;
  for (auto _ : state) {
    const Annotation& a = test[i % test.size()];
    benchmark::DoNotOptimize(bs.system->SPairVertex(a.u, a.v));
    ++i;
  }
}
BENCHMARK(BM_SPairWarm);

void BM_SPairCold(benchmark::State& state) {
  BenchSystem& bs = Shared();
  const auto& test = bs.split.test;
  size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    bs.system->SetParams(bs.system->params());  // drop pair caches
    state.ResumeTiming();
    const Annotation& a = test[i % test.size()];
    benchmark::DoNotOptimize(bs.system->SPairVertex(a.u, a.v));
    ++i;
  }
}
BENCHMARK(BM_SPairCold)->Unit(benchmark::kMicrosecond);

void BM_BspAllMatch(benchmark::State& state) {
  // The parallel engine end to end over range(0) workers, surfacing the
  // fault-tolerance telemetry (all zero here: no injector installed, so
  // the checkpoint/recovery machinery is fully bypassed).
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const auto tuples = bs.data.canonical.TupleVertices();
  const uint32_t workers = static_cast<uint32_t>(state.range(0));
  ParallelResult last;
  for (auto _ : state) {
    BspAllMatch bsp(ctx, {.num_workers = workers});
    last = bsp.Run(tuples);
    benchmark::DoNotOptimize(&last);
  }
  state.counters["supersteps"] = static_cast<double>(last.supersteps);
  state.counters["messages"] = static_cast<double>(last.messages);
  state.counters["checkpoints"] = static_cast<double>(last.stats.checkpoints);
  state.counters["recoveries"] = static_cast<double>(last.stats.recoveries);
  state.counters["faults_injected"] =
      static_cast<double>(last.stats.faults_injected);
  state.counters["deadline_expired"] =
      static_cast<double>(last.stats.deadline_expired);
  state.counters["unresolved_pairs"] =
      static_cast<double>(last.unresolved_pairs);
  state.counters["message_bytes_raw"] =
      static_cast<double>(last.message_bytes_raw);
  state.counters["message_bytes_wire"] =
      static_cast<double>(last.message_bytes_wire);
  state.counters["edge_cut_edges"] =
      static_cast<double>(last.partition.edge_cut_edges);
  state.counters["edge_cut_fraction"] = last.partition.edge_cut_fraction;
  state.counters["border_vertices"] =
      static_cast<double>(last.partition.border_vertices);
  state.counters["fragment_imbalance"] =
      last.partition.max_fragment_imbalance;
  state.counters["sim_s"] = last.simulated_seconds;
}
BENCHMARK(BM_BspAllMatch)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_BspAllMatchFaulted(benchmark::State& state) {
  // Same run under an injected fault plan (crash at superstep 1 plus 10%
  // duplication): measures the checkpoint + recovery + audit + inbox
  // dedupe overhead relative to BM_BspAllMatch.
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const auto tuples = bs.data.canonical.TupleVertices();
  const uint32_t workers = static_cast<uint32_t>(state.range(0));
  ParallelResult last;
  for (auto _ : state) {
    FaultPlan plan;
    plan.seed = 7;
    plan.crash = CrashFault{.worker = 1, .superstep = 1};
    plan.dup_prob = 0.1;
    FaultInjector injector(plan);
    BspAllMatch bsp(ctx, {.num_workers = workers, .faults = &injector});
    last = bsp.Run(tuples);
    benchmark::DoNotOptimize(&last);
  }
  state.counters["supersteps"] = static_cast<double>(last.supersteps);
  state.counters["messages"] = static_cast<double>(last.messages);
  state.counters["checkpoints"] = static_cast<double>(last.stats.checkpoints);
  state.counters["recoveries"] = static_cast<double>(last.stats.recoveries);
  state.counters["faults_injected"] =
      static_cast<double>(last.stats.faults_injected);
  state.counters["sim_s"] = last.simulated_seconds;
}
BENCHMARK(BM_BspAllMatchFaulted)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_WarmStartSnapshot(benchmark::State& state) {
  // Durable-snapshot restart path: TrainOrLoad from a primed model
  // snapshot instead of retraining. The counters expose the telemetry the
  // resume harness keys on — snap_load_s is the full restore cost and
  // ptable_build_s stays 0 on a warm start (the build was skipped).
  BenchSystem& bs = Shared();
  const std::string snap =
      (std::filesystem::temp_directory_path() / "her_bench_model.snap")
          .string();
  std::vector<Annotation> tuning = bs.split.train;
  tuning.insert(tuning.end(), bs.split.validation.begin(),
                bs.split.validation.end());
  // Prime once (cold: trains and writes the snapshot).
  static bool primed = [&] {
    std::filesystem::remove(snap);
    HerSystem sys(bs.data.canonical, bs.data.g, HerConfig{});
    sys.TrainOrLoad(snap, bs.data.path_pairs, tuning);
    return true;
  }();
  (void)primed;
  double load_s = 0;
  double build_s = 0;
  for (auto _ : state) {
    HerSystem sys(bs.data.canonical, bs.data.g, HerConfig{});
    sys.TrainOrLoad(snap, bs.data.path_pairs, tuning);
    load_s = sys.engine().stats().snapshot_load_seconds;
    build_s = sys.engine().stats().ptable_build_seconds;
    benchmark::DoNotOptimize(&sys);
  }
  state.counters["snap_load_s"] = load_s;
  state.counters["ptable_build_s"] = build_s;
}
BENCHMARK(BM_WarmStartSnapshot)->Unit(benchmark::kMillisecond);

void BM_BspCheckpointedRun(benchmark::State& state) {
  // Overhead of writing a durable BSP checkpoint every superstep versus
  // BM_BspAllMatch: serialization + CRC + atomic install, on the
  // superstep barrier.
  BenchSystem& bs = Shared();
  const auto& ctx = bs.system->context();
  const auto tuples = bs.data.canonical.TupleVertices();
  const uint32_t workers = static_cast<uint32_t>(state.range(0));
  const std::string dir =
      (std::filesystem::temp_directory_path() / "her_bench_ckpt").string();
  std::filesystem::create_directories(dir);
  ParallelResult last;
  for (auto _ : state) {
    ParallelConfig cfg{.num_workers = workers};
    cfg.checkpoint = {.dir = dir, .every_supersteps = 1, .fingerprint = 1};
    BspAllMatch bsp(ctx, cfg);
    last = bsp.Run(tuples);
    benchmark::DoNotOptimize(&last);
  }
  state.counters["supersteps"] = static_cast<double>(last.supersteps);
  state.counters["disk_checkpoints"] =
      static_cast<double>(last.stats.disk_checkpoints);
}
BENCHMARK(BM_BspCheckpointedRun)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_VPairBlocked(benchmark::State& state) {
  BenchSystem& bs = Shared();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [t, v] = bs.data.true_matches[i % bs.data.true_matches.size()];
    benchmark::DoNotOptimize(bs.system->VPair(t));
    ++i;
    (void)v;
  }
}
BENCHMARK(BM_VPairBlocked)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
