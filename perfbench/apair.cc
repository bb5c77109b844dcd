// The two APair workloads.
//
// apair-scale: the 1M-vertex tier of bench_scale — BspAllMatch over
// ground-truth plus shifted candidate pairs with the deterministic
// Jaccard / token-overlap / PRA scorers, edge-cut partitioned, 4 workers.
// The bench owns the scorers, so the traced run wraps them in decorators.
//
// apair-learned: a trained HerSystem over ScalingSpec(1200), warm-started
// from a snapshot prepared once per build, running APairParallel(4) with
// blocking. HerSystem owns its scorers; the traced run reads their
// counters through the public stats and context accessors.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/proc_stats.h"
#include "common/rng.h"
#include "datagen/dataset.h"
#include "graph/partition.h"
#include "learn/her_system.h"
#include "learn/metrics.h"
#include "parallel/bsp_engine.h"
#include "perfbench/bench_common.h"
#include "perfbench/perfbench.h"
#include "perfbench/trace.h"
#include "sim/scores.h"

namespace perfbench {
namespace {

using namespace her;

constexpr uint32_t kWorkers = 4;
constexpr int kScaleEntities = 117'500;  // ~1M vertices of G
constexpr int kLearnedEntities = 1'200;  // ~10k vertices of G
constexpr int kGenThreads = 4;
constexpr size_t kScaleMemBudget = 64ull << 20;  // per worker, as bench_scale

DatasetSpec ScaleSpec(int entities, uint64_t seed) {
  DatasetSpec spec = ScalingSpec(entities, seed);
  spec.gen_threads = kGenThreads;
  return spec;
}

/// Everything an apair-scale call needs, built by one set-up.
struct ScaleSetup {
  ScaleSetup(uint64_t dataset_seed, std::optional<uint64_t> order_seed) {
    const double t0 = NowSeconds();
    data = Generate(ScaleSpec(kScaleEntities, dataset_seed));
    gen_seconds = NowSeconds() - t0;
    // Ground-truth pairs drive deep Match recursion; the shifted pairs
    // drive invalidation traffic (the same candidates as bench_scale).
    std::vector<VertexId> vs;
    for (const auto& [t, v] : data.true_matches) {
      candidates.emplace_back(data.canonical.VertexOf(t), v);
      vs.push_back(v);
    }
    for (size_t i = 0; i + 1 < data.true_matches.size(); ++i) {
      candidates.emplace_back(
          data.canonical.VertexOf(data.true_matches[i].first), vs[i + 1]);
    }
    // The run's seed picks the order the candidates reach the engine; by
    // Prop. 4 Pi must not depend on it.
    if (order_seed.has_value()) Rng(*order_seed).Shuffle(candidates);
    const Graph& gd = data.canonical.graph();
    hv = std::make_unique<JaccardVertexScorer>(gd, data.g);
    vocab = std::make_unique<JointVocab>(gd, data.g);
    mrho = std::make_unique<TokenOverlapPathScorer>(vocab.get());
    hr = std::make_unique<PraRanker>(gd, data.g);
    ctx.gd = &gd;
    ctx.g = &data.g;
    ctx.hv = hv.get();
    ctx.mrho = mrho.get();
    ctx.hr = hr.get();
    ctx.vocab = vocab.get();
    ctx.params = SimulationParams{.sigma = 0.5, .delta = 0.25, .k = 6};
  }

  GeneratedDataset data;
  double gen_seconds = 0.0;
  std::vector<MatchPair> candidates;
  std::unique_ptr<JaccardVertexScorer> hv;
  std::unique_ptr<JointVocab> vocab;
  std::unique_ptr<TokenOverlapPathScorer> mrho;
  std::unique_ptr<PraRanker> hr;
  MatchContext ctx;
};

ParallelResult RunScale(const ScaleSetup& s, const MatchContext& ctx,
                        uint32_t workers) {
  ParallelConfig cfg;
  cfg.num_workers = workers;
  cfg.strategy = PartitionStrategy::kEdgeCut;
  cfg.worker_mem_budget_bytes = kScaleMemBudget;
  BspAllMatch bsp(ctx, cfg);
  return bsp.RunOnCandidates(s.candidates);
}

/// One timed call: wall, process CPU, resource usage and host steal share
/// around `fn`.
struct CallTimes {
  double wall = 0.0;
  double cpu = 0.0;
  Usage usage;
  double steal = 0.0;
};

template <typename Fn>
auto Timed(Fn&& fn, CallTimes* t) {
  const HostTicks h0 = ReadHostTicks();
  const Usage u0 = ReadUsage();
  const double c0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  auto out = fn();
  t->wall = NowSeconds() - t0;
  t->cpu = ProcessCpuSeconds() - c0;
  t->usage = ReadUsage() - u0;
  t->steal = StealFraction(h0, ReadHostTicks());
  return out;
}

/// The timed calls of a run, in order.
struct Samples {
  void Add(const CallTimes& t) {
    wall.push_back(t.wall);
    cpu.push_back(t.cpu);
    steal.push_back(t.steal);
  }
  void Print(Report* out) const {
    out->List("latency_s", wall);
    out->List("cpu_s", cpu);
    out->List("steal_frac", steal);
  }
  std::vector<double> wall, cpu, steal;
};

/// When a run has timed enough calls (run.py sets the policy): the budget
/// is spent and `min_quiet` calls ran while the hypervisor stole at most
/// `steal_limit` of host CPU, or `max_overtime` budgets are spent.
struct StopRule {
  explicit StopRule(const Args& args)
      : budget(args.Double("seconds")),
        steal_limit(args.Double("steal-limit")),
        min_quiet(args.U64("min-quiet")),
        max_overtime(args.Double("max-overtime")) {}

  bool Enough(const Samples& s, double elapsed) const {
    const auto quiet = static_cast<size_t>(
        std::count_if(s.steal.begin(), s.steal.end(),
                      [&](double x) { return x <= steal_limit; }));
    if (s.wall.size() < min_quiet) return false;
    return (quiet >= min_quiet && elapsed >= budget) ||
           elapsed >= max_overtime * budget;
  }

  double budget;
  double steal_limit;
  size_t min_quiet;
  double max_overtime;
};

/// Median seconds of PartitionVertices on `g` with the run's n and
/// strategy, timed alone.
double PartitionSeconds(const Graph& g, PartitionStrategy strategy) {
  std::vector<double> secs;
  for (int i = 0; i < 3; ++i) {
    const double t0 = NowSeconds();
    const VertexPartition p = PartitionVertices(g, kWorkers, strategy);
    secs.push_back(NowSeconds() - t0);
  }
  return Median(secs);
}

/// Per-call counters shared by both APair workloads.
void ReportParallel(const ParallelResult& r, const CallTimes& t,
                    Report* out) {
  const double wall = t.wall;
  const MatchEngine::Stats& st = r.stats;
  out->Num("parallel.simulated_s", r.simulated_seconds);
  out->Num("parallel.offstep_s", wall - r.simulated_seconds);
  out->Num("parallel.supersteps", static_cast<double>(r.supersteps));
  out->Num("parallel.messages", static_cast<double>(r.messages));
  out->Num("parallel.wire_bytes", static_cast<double>(r.message_bytes_wire));
  out->Num("parallel.worker_skew",
           Ratio(static_cast<double>(r.max_worker_calls) * kWorkers,
                 static_cast<double>(st.para_match_calls)));
  out->Num("parallel.cpu_util", Ratio(t.cpu, wall * kWorkers));
  out->Num("process.sys_frac", Ratio(t.usage.sys_s, t.cpu));
  out->Num("process.minor_faults", t.usage.minor_faults);
  out->Num("process.vol_switches", t.usage.vol_switches);
  out->Num("graph.edge_cut_fraction", r.partition.edge_cut_fraction);
  out->Num("graph.border_vertices",
           static_cast<double>(r.partition.border_vertices));
  out->Num("core.para_match_calls", static_cast<double>(st.para_match_calls));
  out->Num("core.cache_hit_rate",
           Ratio(static_cast<double>(st.cache_hits),
                 static_cast<double>(st.cache_hits + st.para_match_calls)));
  out->Num("core.cleanup_reruns", static_cast<double>(st.cleanup_reruns));
  out->Num("core.border_assumptions",
           static_cast<double>(st.border_assumptions));
  out->Num("core.candidates", static_cast<double>(r.outcomes.size()));
  out->Num("core.match_yield",
           Ratio(static_cast<double>(r.matches.size()),
                 static_cast<double>(r.outcomes.size())));
  out->Num("sim.hrho_evaluations", static_cast<double>(st.hrho_evaluations));
  out->Num("sim.hrho_list_memo_hit_rate",
           Ratio(static_cast<double>(st.hrho_list_memo_hits),
                 static_cast<double>(st.para_match_calls)));
  out->Num("sim.ptable_build_s", st.ptable_build_seconds);
}

}  // namespace

int PrepareScale(const Args& args) {
  const ScaleSetup s(args.U64("dataset-seed"), std::nullopt);
  CallTimes t;
  const ParallelResult ref = Timed([&] { return RunScale(s, s.ctx, 1); }, &t);
  if (!ref.status.ok()) {
    std::fprintf(stderr, "reference run failed: %s\n",
                 ref.status.ToString().c_str());
    return 1;
  }
  Report out;
  out.Str("pi_digest", Hex(PiDigest(ref.matches)));
  out.Num("pi_size", static_cast<double>(ref.matches.size()));
  out.Num("candidates", static_cast<double>(s.candidates.size()));
  out.Num("g_vertices", static_cast<double>(s.data.g.num_vertices()));
  out.Num("g_edges", static_cast<double>(s.data.g.num_edges()));
  out.Num("gd_vertices",
          static_cast<double>(s.data.canonical.graph().num_vertices()));
  out.Str("dataset_digest", Hex(DatasetDigest(s.data)));
  out.Num("reference_1worker_s", t.wall);
  out.Print();
  return 0;
}

int RunScaleWorkload(const Args& args) {
  const uint64_t seed = args.U64("dataset-seed");
  const bool trace = args.U64("trace") != 0;
  const StopRule stop(args);
  const std::string expect = args.Str("expect-pi");
  Report out;

  // Set-up, repeated so setup_s is a median; only the last is kept.
  std::vector<double> setup_s, gen_s;
  std::unique_ptr<ScaleSetup> s;
  for (uint64_t i = 0; i < args.U64("setups"); ++i) {
    s.reset();
    const double t0 = NowSeconds();
    s = std::make_unique<ScaleSetup>(seed, args.U64("order-seed"));
    setup_s.push_back(NowSeconds() - t0);
    gen_s.push_back(s->gen_seconds);
  }
  out.List("setup_s", setup_s);

  // Untimed warm-up: allocator arenas, page cache and worker threads. The
  // bench's scorers hold no memo, so nothing else carries over.
  CallTimes t;
  size_t verified = 0, attempted = 0;
  const auto check = [&](const ParallelResult& r) {
    ++attempted;
    if (r.status.ok() && !r.degraded && Hex(PiDigest(r.matches)) == expect) {
      ++verified;
    }
  };
  check(Timed([&] { return RunScale(*s, s->ctx, kWorkers); }, &t));

  // Traced iterations run the same call through decorated scorers,
  // alternating with untraced ones so both see the same host drift.
  TracedVertexScorer thv(s->hv.get());
  TracedPathScorer tmrho(s->mrho.get());
  TracedRanker thr(s->hr.get());
  MatchContext traced_ctx = s->ctx;
  traced_ctx.hv = &thv;
  traced_ctx.mrho = &tmrho;
  traced_ctx.hr = &thr;

  Samples plain;
  std::vector<double> traced_lat, hv_s, hrho_s, hr_s;
  ParallelResult last;  // last untraced call
  CallTimes last_t;
  const int per_round = trace ? 2 : 1;
  const double start = NowSeconds();
  for (int i = 0;; ++i) {
    const bool traced_iter = trace && i % 2 == 1;
    const TraceRegistry::Totals before = TraceRegistry::Get().Sum();
    ParallelResult r = Timed(
        [&] {
          return RunScale(*s, traced_iter ? traced_ctx : s->ctx, kWorkers);
        },
        &t);
    check(r);
    if (traced_iter) {
      const TraceRegistry::Totals after = TraceRegistry::Get().Sum();
      traced_lat.push_back(t.wall);
      hv_s.push_back(after.seconds[kHv] - before.seconds[kHv]);
      hrho_s.push_back(after.seconds[kHrho] - before.seconds[kHrho]);
      hr_s.push_back(after.seconds[kHr] - before.seconds[kHr]);
    } else {
      plain.Add(t);
      last = std::move(r);
      last_t = t;
    }
    if ((i + 1) % per_round == 0 &&
        stop.Enough(plain, NowSeconds() - start)) {
      break;
    }
  }
  plain.Print(&out);
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("verified", static_cast<double>(verified));
  out.Num("pi_size", static_cast<double>(last.matches.size()));

  if (trace) {
    ReportParallel(last, last_t, &out);
    const double traced = Median(traced_lat);
    out.Num("datagen.gen_s", Median(gen_s));
    const double part_s =
        PartitionSeconds(s->data.g, PartitionStrategy::kEdgeCut);
    out.Num("graph.partition_s", part_s);
    out.Num("sim.hv_s", Median(hv_s));
    out.Num("sim.hrho_s", Median(hrho_s));
    out.Num("sim.hr_s", Median(hr_s));
    const double n = static_cast<double>(traced_lat.size());
    out.Num("sim.hv_batch_calls", static_cast<double>(thv.BatchCalls()) / n);
    out.Num("sim.hr_batch_calls", static_cast<double>(thr.BatchCalls()) / n);
    out.Num("trace.overhead_frac", Ratio(traced, Median(plain.wall)) - 1.0);
    // Kernel self-times are summed over the worker threads; dividing by
    // the worker count puts them on the wall-clock axis of one call.
    out.Num("trace.coverage",
            Ratio(part_s + (Median(hv_s) + Median(hrho_s) + Median(hr_s)) /
                               kWorkers,
                  traced));
  }
  out.Num("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
  out.Print();
  return 0;
}

namespace {

/// A HerSystem over ScalingSpec(1200), trained or warm-started.
struct LearnedSetup {
  LearnedSetup(uint64_t seed, const std::string& snapshot) {
    const double t0 = NowSeconds();
    data = Generate(ScaleSpec(kLearnedEntities, seed));
    gen_seconds = NowSeconds() - t0;
    split = SplitAnnotations(data.annotations);
    // Thresholds tune on train + validation, as the bench harness does.
    std::vector<Annotation> tuning = split.train;
    tuning.insert(tuning.end(), split.validation.begin(),
                  split.validation.end());
    system = std::make_unique<HerSystem>(data.canonical, data.g, HerConfig{});
    const double t1 = NowSeconds();
    system->TrainOrLoad(snapshot, data.path_pairs, tuning);
    warm_start_seconds = NowSeconds() - t1;
    snapshot_load_seconds = system->engine().stats().snapshot_load_seconds;
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
  double gen_seconds = 0.0;
  double warm_start_seconds = 0.0;
  double snapshot_load_seconds = 0.0;
};

/// Cumulative counters of the shared scorers behind a HerSystem. The BSP
/// aggregate in ParallelResult::stats leaves the h_v / M_rho batch-call
/// and memo-hit snapshots at zero, so they are read from the system's own
/// engine (same shared scorers) and diffed around each call.
struct ScorerCounters {
  explicit ScorerCounters(HerSystem& sys) {
    const MatchEngine::Stats& st = sys.engine().stats();
    hv_batch_calls = st.hv_batch_calls;
    hr_batch_calls = st.hr_batch_calls;
    hr_lstm_lanes = st.hr_lstm_lanes;
    if (const auto* memo =
            dynamic_cast<const CachingVertexScorer*>(sys.context().hv)) {
      hv_hits = memo->CacheHits();
      hv_batched_keys = memo->ProbeLen();
    }
  }
  size_t hv_batch_calls = 0, hr_batch_calls = 0, hr_lstm_lanes = 0;
  size_t hv_hits = 0, hv_batched_keys = 0;
};

}  // namespace

int PrepareLearned(const Args& args) {
  const std::string snapshot = args.Str("snapshot");
  std::filesystem::remove(snapshot);
  const double t0 = NowSeconds();
  LearnedSetup s(args.U64("dataset-seed"), snapshot);
  const double train_s = NowSeconds() - t0;
  const ParallelResult r = s.system->APairParallel(kWorkers, true);
  if (!r.status.ok() || r.degraded) return 1;
  Report out;
  out.Str("pi_digest", Hex(PiDigest(r.matches)));
  out.Num("pi_size", static_cast<double>(r.matches.size()));
  out.Num("test_f1", s.TestF1());
  out.Num("train_s", train_s);
  out.Num("g_vertices", static_cast<double>(s.data.g.num_vertices()));
  out.Num("tuples", static_cast<double>(s.data.db.TotalTuples()));
  out.Print();
  return 0;
}

int RunLearnedWorkload(const Args& args) {
  const uint64_t seed = args.U64("dataset-seed");
  const bool trace = args.U64("trace") != 0;
  const StopRule stop(args);
  const std::string expect = args.Str("expect-pi");
  const std::string cached = args.Str("snapshot");
  const std::string work = args.Str("work") + "/model.snap";
  Report out;

  std::vector<double> setup_s, warm_s, load_s;
  std::unique_ptr<LearnedSetup> s;
  for (uint64_t i = 0; i < args.U64("setups"); ++i) {
    s.reset();
    // A fresh copy per set-up: a warm start never sees what an earlier
    // one wrote back.
    std::filesystem::copy_file(
        cached, work, std::filesystem::copy_options::overwrite_existing);
    const double t0 = NowSeconds();
    s = std::make_unique<LearnedSetup>(seed, work);
    setup_s.push_back(NowSeconds() - t0);
    warm_s.push_back(s->warm_start_seconds);
    load_s.push_back(s->snapshot_load_seconds);
  }
  out.List("setup_s", setup_s);

  size_t verified = 0, attempted = 0;
  const auto check = [&](const ParallelResult& r) {
    ++attempted;
    if (r.status.ok() && !r.degraded && Hex(PiDigest(r.matches)) == expect) {
      ++verified;
    }
  };
  // Untimed warm-up: fills the shared h_v and M_rho memos, so every timed
  // call starts with them warm.
  CallTimes t;
  check(Timed([&] { return s->system->APairParallel(kWorkers, true); }, &t));

  Samples plain;
  ParallelResult last;
  ScorerCounters before(*s->system), after(*s->system);
  const double start = NowSeconds();
  while (!stop.Enough(plain, NowSeconds() - start)) {
    before = ScorerCounters(*s->system);
    ParallelResult r = Timed(
        [&] { return s->system->APairParallel(kWorkers, true); }, &t);
    after = ScorerCounters(*s->system);
    check(r);
    plain.Add(t);
    last = std::move(r);
  }
  // Test-split F1 must not fall below the value recorded at prepare time.
  ++attempted;
  const double f1 = s->TestF1();
  if (f1 >= args.Double("expect-f1")) ++verified;
  plain.Print(&out);
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("verified", static_cast<double>(verified));
  out.Num("pi_size", static_cast<double>(last.matches.size()));
  out.Num("test_f1", f1);

  if (trace) {
    ReportParallel(last, t, &out);
    out.Num("learn.warm_start_s", Median(warm_s));
    out.Num("persist.snapshot_load_s", Median(load_s));
    const double part_s = PartitionSeconds(s->data.g, HerConfig{}.partition);
    out.Num("graph.partition_s", part_s);
    out.Num("sim.hv_batch_calls",
            static_cast<double>(after.hv_batch_calls - before.hv_batch_calls));
    out.Num("sim.hr_batch_calls",
            static_cast<double>(after.hr_batch_calls - before.hr_batch_calls));
    out.Num("sim.hr_lstm_lanes",
            static_cast<double>(after.hr_lstm_lanes - before.hr_lstm_lanes));
    // Scalar h_v probes are not counted by the memo; one per ParaMatch
    // evaluation (its initial-stage Score) stands in for them.
    const double hits = static_cast<double>(after.hv_hits - before.hv_hits);
    out.Num("sim.hv_memo_hit_rate",
            Ratio(hits, static_cast<double>(after.hv_batched_keys -
                                            before.hv_batched_keys +
                                            last.stats.para_match_calls)));
    // Nothing inside APairParallel is timed from outside except the
    // partitioner, re-run alone, and no instrument sits inside the timed
    // call, so tracing adds nothing to it.
    out.Num("trace.coverage", Ratio(part_s, Median(plain.wall)));
    out.Num("trace.overhead_frac", 0.0);
  }
  out.Num("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
  out.Print();
  return 0;
}

}  // namespace perfbench
