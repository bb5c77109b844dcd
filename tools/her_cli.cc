// her_cli — command-line front end for HER.
//
//   her_cli generate <profile> <dir> [entities] [seed]
//       Generates a dataset (profiles: ukgov dbpedia dblp imdb fbwiki 2t
//       scaling) and saves it as CSV relations + a graph file + annotated
//       pairs under <dir>.
//
//   her_cli evaluate <dir> [workers] [deadline-ms] [flags]
//       Loads <dir>, trains HER, reports held-out F-measure, then runs
//       APair on the parallel engine. With a deadline the run degrades
//       gracefully: it returns a partial (sound) Pi plus the count of
//       unresolved candidates instead of overrunning the budget.
//       Durability flags:
//         --checkpoint-dir=DIR   write durable snapshots (trained model to
//                                DIR/model.snap, BSP progress to one
//                                file, DIR/bsp.ckpt)
//         --checkpoint-every-supersteps=N   BSP checkpoint cadence
//                                           (default 1)
//         --resume               restart from DIR's snapshots; invalid or
//                                stale snapshots fall back to a cold start
//         --pi-out=FILE          write Pi as "u v" lines (atomic install)
//         --kill-at-superstep=N  CI crash hook: SIGKILL the process after
//                                N supersteps (checkpoint already on disk)
//       Candidate generation:
//         --candidate-mode=MODE  exact (default) scans every |T| x |V|
//                                pair; ann probes the IVF index over the
//                                h_v embeddings (sampled recall below the
//                                floor falls back to exact per call)
//         --nprobe=N             inverted lists scanned per ANN probe
//                                (default 8)
//       Scale:
//         --partition=hash|edgecut  how G is fragmented across workers
//                                   (edgecut = streaming LDG, cuts
//                                   cross-fragment messages; default hash)
//         --mem-budget-mb=N      per-worker memory budget (soft cap on
//                                the wire batches; 0 = unlimited)
//
//   her_cli spair <dir> <relation> <tuple-key> <vertex-id>
//       Single-pair check with explanation.
//
//   her_cli vpair <dir> <relation> <tuple-key>
//       All graph vertices matching the tuple.
//
//   her_cli serve <dataset-dir> <serve-dir> [flags]
//       Closed-loop driver over the resident HerServer: replays a seeded
//       mixed read/write workload at a target QPS against a server rooted
//       at <serve-dir> (model.snap / serve.wal / serve.state), reports
//       accept/reject/degraded counts and read-latency percentiles, and
//       survives SIGKILL: a restart with the same arguments recovers from
//       snapshot + WAL and resumes the workload past the recovered seq.
//       Flags:
//         --ops=N --qps=Q --write-ratio=R --deadline-ms=D --seed=S
//         --apply-batch=N --queue-soft-limit=N --queue-hard-limit=N
//         --maintenance-deadline-ms=N --checkpoint-every=N
//         --fault-seed=S --poison-prob=P
//         --kill-at-op=N         raise SIGKILL after submitting N ops
//         --bench-out=FILE       write the run report as JSON
//         --verdicts-out=FILE    write post-drain SPair verdicts over the
//                                annotation pairs (recovery-diff artifact)
//
// SIGINT/SIGTERM drain cleanly: serve stops admitting, flushes the queue,
// writes a final checkpoint and exits 0; evaluate cancels the parallel
// run cooperatively and reports the partial (sound) result.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/env.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datagen/dataset.h"
#include "datagen/dataset_io.h"
#include "learn/her_system.h"
#include "learn/metrics.h"
#include "serve/server.h"

namespace her {
namespace {

/// Set by the SIGINT/SIGTERM handler; long-running commands poll it and
/// drain instead of dying mid-write. The token feeds RunOptions::cancel so
/// parallel runs stop at their next cooperative check.
std::atomic<int> g_signal{0};
CancelToken g_cancel;

void HandleSignal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  g_cancel.Cancel();
}

void InstallSignalHandlers() {
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  her_cli generate <profile> <dir> [entities] [seed]\n"
               "  her_cli evaluate <dir> [workers] [deadline-ms]\n"
               "      [--checkpoint-dir=DIR] [--checkpoint-every-supersteps=N]\n"
               "      [--resume] [--pi-out=FILE] [--kill-at-superstep=N]\n"
               "      [--candidate-mode=exact|ann] [--nprobe=N]\n"
               "      [--partition=hash|edgecut] [--mem-budget-mb=N]\n"
               "  her_cli spair <dir> <relation> <tuple-key> <vertex-id>\n"
               "  her_cli vpair <dir> <relation> <tuple-key>\n"
               "  her_cli serve <dataset-dir> <serve-dir>\n"
               "      [--ops=N] [--qps=Q] [--write-ratio=R] [--deadline-ms=D]\n"
               "      [--seed=S] [--apply-batch=N] [--queue-soft-limit=N]\n"
               "      [--queue-hard-limit=N] [--maintenance-deadline-ms=N]\n"
               "      [--checkpoint-every=N] [--fault-seed=S]\n"
               "      [--poison-prob=P]\n"
               "      [--kill-at-op=N] [--bench-out=FILE]\n"
               "      [--verdicts-out=FILE]\n"
               "      [--faultfs-seed=S] [--faultfs-enospc-after-mb=N]\n"
               "      [--faultfs-fail-at-op=N] [--faultfs-fail-op-count=N]\n"
               "      [--faultfs-fail-kind=eio|enospc|short|fsync|crash]\n"
               "      [--faultfs-path-filter=SUBSTR]\n"
               "      [--faultfs-write-fail-prob=P] "
               "[--faultfs-read-fail-prob=P]\n");
  return 2;
}

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

/// Recovery-failure triage for `serve`: a distinct exit code per failure
/// class plus one structured stderr line, so the chaos harness (and an
/// operator's runbook) can branch on WHAT failed without parsing prose.
///   40 = storage   — the I/O layer failed (ENOSPC, EIO, injected fault);
///                    retrying on healthy storage can succeed;
///   41 = corruption — the bytes on disk are not a valid log/snapshot;
///                    needs repair or restore, retrying will not help;
///   42 = fingerprint_mismatch — durable state from a DIFFERENT setup
///                    (dataset, params or seed changed under the dir).
int FailServeRecovery(const Status& s) {
  const std::string text = s.ToString();
  const char* cls = "corruption";
  int code = 41;
  if (s.code() == StatusCode::kFailedPrecondition) {
    cls = "fingerprint_mismatch";
    code = 42;
  } else if (s.code() == StatusCode::kResourceExhausted ||
             text.find("storage:") != std::string::npos) {
    cls = "storage";
    code = 40;
  }
  std::fprintf(stderr, "serve-recovery-failed class=%s exit=%d status=%s\n",
               cls, code, text.c_str());
  return code;
}

Result<DatasetSpec> SpecFor(const std::string& profile, int entities,
                            uint64_t seed) {
  DatasetSpec spec;
  if (profile == "ukgov") {
    spec = UkgovSpec(seed);
  } else if (profile == "dbpedia") {
    spec = DbpediaSpec(seed);
  } else if (profile == "dblp") {
    spec = DblpSpec(seed);
  } else if (profile == "imdb") {
    spec = ImdbSpec(seed);
  } else if (profile == "fbwiki") {
    spec = FbwikiSpec(seed);
  } else if (profile == "2t") {
    spec = ToughTablesSpec(seed);
  } else if (profile == "scaling") {
    spec = ScalingSpec(entities > 0 ? entities : 400, seed);
  } else {
    return Status::InvalidArgument("unknown profile '" + profile + "'");
  }
  if (entities > 0) spec.num_entities = entities;
  return spec;
}

/// Loads + trains a system over a saved dataset directory. The dataset is
/// heap-allocated: HerSystem borrows its graphs, so their addresses must
/// survive moves of this struct.
struct LoadedSystem {
  std::unique_ptr<GeneratedDataset> data;
  AnnotationSplit split;
  std::unique_ptr<HerSystem> system;

  const GeneratedDataset& dataset() const { return *data; }
};

Result<LoadedSystem> LoadAndTrain(const std::string& dir,
                                  const std::string& snapshot_path = "",
                                  const HerConfig& config = {}) {
  LoadedSystem out;
  HER_ASSIGN_OR_RETURN(GeneratedDataset loaded, LoadDataset(dir));
  out.data = std::make_unique<GeneratedDataset>(std::move(loaded));
  out.split = SplitAnnotations(out.data->annotations);
  out.system = std::make_unique<HerSystem>(out.data->canonical, out.data->g,
                                           config);
  if (snapshot_path.empty()) {
    out.system->Train(out.data->path_pairs, out.split.validation);
  } else {
    out.system->TrainOrLoad(snapshot_path, out.data->path_pairs,
                            out.split.validation);
    const MatchEngine::Stats& st = out.system->engine().stats();
    std::printf("snapshot: load %.3fs, ptable build %.3fs\n",
                st.snapshot_load_seconds, st.ptable_build_seconds);
  }
  std::printf("trained on %s: sigma=%.2f delta=%.2f k=%d\n",
              out.data->name.c_str(), out.system->params().sigma,
              out.system->params().delta, out.system->params().k);
  return out;
}

Result<TupleRef> FindTuple(const Database& db, const std::string& relation,
                           const std::string& key) {
  const auto rel = db.FindRelation(relation);
  if (!rel) return Status::NotFound("no relation '" + relation + "'");
  const auto row = db.relation(*rel).FindByKey(key);
  if (!row) return Status::NotFound("no tuple with key '" + key + "'");
  return TupleRef{*rel, *row};
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 4) return Usage();
  const int entities = argc > 4 ? std::atoi(argv[4]) : 0;
  const uint64_t seed = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 1;
  const auto spec = SpecFor(argv[2], entities, seed);
  if (!spec.ok()) return Fail(spec.status());
  const GeneratedDataset data = Generate(*spec);
  const Status s = SaveDataset(data, argv[3]);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s: %zu tuples, graph with %zu vertices / %zu edges, "
              "%zu annotated pairs\n",
              argv[3], data.db.TotalTuples(), data.g.num_vertices(),
              data.g.num_edges(), data.annotations.size());
  return 0;
}

int CmdEvaluate(int argc, char** argv) {
  std::vector<std::string> pos;
  CheckpointOptions ckpt;
  std::string pi_out;
  HerConfig config;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--checkpoint-dir=", 0) == 0) {
      ckpt.dir = a.substr(17);
    } else if (a.rfind("--checkpoint-every-supersteps=", 0) == 0) {
      ckpt.every_supersteps = std::strtoull(a.c_str() + 30, nullptr, 10);
    } else if (a == "--resume") {
      ckpt.resume = true;
    } else if (a.rfind("--pi-out=", 0) == 0) {
      pi_out = a.substr(9);
    } else if (a.rfind("--kill-at-superstep=", 0) == 0) {
      ckpt.halt_after_supersteps = std::strtoull(a.c_str() + 20, nullptr, 10);
    } else if (a.rfind("--candidate-mode=", 0) == 0) {
      const std::string mode = a.substr(17);
      if (mode == "exact") {
        config.candidate_gen.mode = CandidateMode::kExact;
      } else if (mode == "ann") {
        config.candidate_gen.mode = CandidateMode::kAnn;
      } else {
        std::fprintf(stderr, "unknown candidate mode '%s'\n", mode.c_str());
        return Usage();
      }
    } else if (a.rfind("--nprobe=", 0) == 0) {
      config.candidate_gen.nprobe =
          std::max<size_t>(1, std::strtoull(a.c_str() + 9, nullptr, 10));
    } else if (a.rfind("--partition=", 0) == 0) {
      const std::string strategy = a.substr(12);
      if (strategy == "hash") {
        config.partition = PartitionStrategy::kHash;
      } else if (strategy == "edgecut") {
        config.partition = PartitionStrategy::kEdgeCut;
      } else {
        std::fprintf(stderr, "unknown partition strategy '%s'\n",
                     strategy.c_str());
        return Usage();
      }
    } else if (a.rfind("--mem-budget-mb=", 0) == 0) {
      config.worker_mem_budget_bytes =
          std::strtoull(a.c_str() + 16, nullptr, 10) << 20;
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return Usage();
    } else {
      pos.push_back(a);
    }
  }
  if (pos.empty()) return Usage();
  if ((ckpt.resume || ckpt.halt_after_supersteps > 0) && ckpt.dir.empty()) {
    std::fprintf(stderr,
                 "--resume/--kill-at-superstep need --checkpoint-dir\n");
    return Usage();
  }
  // The fragment partitioner divides by the worker count; clamp 0 to 1.
  const uint32_t workers =
      pos.size() > 1 ? std::max(1, std::atoi(pos[1].c_str())) : 4;
  const long deadline_ms = pos.size() > 2 ? std::atol(pos[2].c_str()) : 0;

  std::string model_snapshot;
  if (!ckpt.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(ckpt.dir, ec);
    if (ec) {
      return Fail(Status::IOError("cannot create checkpoint dir '" +
                                  ckpt.dir + "': " + ec.message()));
    }
    model_snapshot = ckpt.dir + "/model.snap";
  }
  auto loaded = LoadAndTrain(pos[0], model_snapshot, config);
  if (!loaded.ok()) return Fail(loaded.status());
  const Confusion c =
      EvaluatePredictor(loaded->split.test, [&](VertexId u, VertexId v) {
        return loaded->system->SPairVertex(u, v);
      });
  std::printf("held-out: %s\n", c.ToString().c_str());
  RunOptions options;
  if (deadline_ms > 0) {
    options = RunOptions::WithTimeout(std::chrono::milliseconds(deadline_ms));
  }
  // SIGINT/SIGTERM cancel the run cooperatively: the engines stop at the
  // next barrier and the partial (sound) Pi below is still reported.
  options.cancel = &g_cancel;
  const ParallelResult r = loaded->system->APairParallel(
      workers, /*use_blocking=*/true, options, ckpt);
  if (!r.status.ok()) return Fail(r.status);
  if (r.halted) {
    // CI crash hook: progress is on disk; die exactly as a crashed host
    // would — no destructors, no flushes beyond this message.
    std::fprintf(stderr, "halted after %zu supersteps, checkpoint on disk; "
                 "raising SIGKILL\n", r.supersteps);
    std::fflush(nullptr);
    std::raise(SIGKILL);
  }
  std::printf("APair (%u workers): %zu matches, %zu supersteps, "
              "simulated %.3fs\n",
              workers, r.matches.size(), r.supersteps, r.simulated_seconds);
  std::printf("partition (%s): cut %.3f (%zu edges), %zu border vertices, "
              "imbalance %.2f; wire %zu B (raw %zu B); peak RSS %zu MiB\n",
              config.partition == PartitionStrategy::kEdgeCut ? "edgecut"
                                                              : "hash",
              r.partition.edge_cut_fraction, r.partition.edge_cut_edges,
              r.partition.border_vertices,
              r.partition.max_fragment_imbalance, r.message_bytes_wire,
              r.message_bytes_raw, r.peak_rss_bytes >> 20);
  if (config.candidate_gen.mode == CandidateMode::kAnn) {
    std::printf("ann: build %.3fs, %zu probes over %zu lists, recall %.4f, "
                "%zu exact fallback(s)\n",
                r.stats.ann_build_seconds, r.stats.ann_probes,
                r.stats.ann_lists_scanned, r.stats.ann_recall,
                r.stats.ann_fallbacks);
  }
  if (r.resumed_from_checkpoint) {
    std::printf("resumed from checkpoint (%zu durable checkpoint(s) "
                "written this run)\n", r.stats.disk_checkpoints);
  }
  if (r.degraded) {
    std::printf("degraded: deadline expired with %zu unresolved candidate "
                "pair(s); reported Pi is a sound partial result\n",
                r.unresolved_pairs);
  }
  if (g_signal.load(std::memory_order_relaxed) != 0) {
    std::printf("drained after signal %d: partial result reported, durable "
                "state on disk\n", g_signal.load(std::memory_order_relaxed));
  }
  if (!pi_out.empty()) {
    std::string lines;
    for (const MatchPair& p : r.matches) {
      lines += std::to_string(p.first);
      lines += ' ';
      lines += std::to_string(p.second);
      lines += '\n';
    }
    const Status s = AtomicWriteFile(pi_out, lines);
    if (!s.ok()) return Fail(s);
    std::printf("wrote %zu Pi pair(s) to %s\n", r.matches.size(),
                pi_out.c_str());
  }
  return 0;
}

int CmdSpair(int argc, char** argv) {
  if (argc < 6) return Usage();
  auto loaded = LoadAndTrain(argv[2]);
  if (!loaded.ok()) return Fail(loaded.status());
  const auto t = FindTuple(loaded->data->db, argv[3], argv[4]);
  if (!t.ok()) return Fail(t.status());
  const VertexId v = static_cast<VertexId>(std::atoi(argv[5]));
  if (v >= loaded->data->g.num_vertices()) {
    return Fail(Status::OutOfRange("vertex id out of range"));
  }
  std::printf("%s", loaded->system->Explain(*t, v).c_str());
  return 0;
}

int CmdVpair(int argc, char** argv) {
  if (argc < 5) return Usage();
  auto loaded = LoadAndTrain(argv[2]);
  if (!loaded.ok()) return Fail(loaded.status());
  const auto t = FindTuple(loaded->data->db, argv[3], argv[4]);
  if (!t.ok()) return Fail(t.status());
  const auto matches = loaded->system->VPair(*t);
  std::printf("%zu match(es):\n", matches.size());
  for (const VertexId v : matches) {
    const std::string_view label = loaded->data->g.label(v);
    std::printf("  vertex %u (%.*s)\n", v, static_cast<int>(label.size()),
                label.data());
  }
  return 0;
}

/// Builds the serve workload as a pure function of (dataset, seed): every
/// generated write is valid against the logical state no matter which
/// earlier ops were admitted, so a killed-and-resumed run converges on the
/// same final state as an uninterrupted one. Inserts draw distinct
/// (u, v, label) triples absent from the base graph; deletes pop each base
/// edge at most once; feedback upserts target annotation pairs (always
/// in bounds). Reads probe annotation pairs (SPair) and tuples (VPair).
std::vector<ServeOp> BuildServeWorkload(const GeneratedDataset& data,
                                        uint64_t seed, size_t count,
                                        double write_ratio,
                                        std::chrono::milliseconds deadline) {
  Rng rng(seed);
  const size_t num_v = data.g.num_vertices();
  const size_t num_labels = data.g.edge_labels().size();

  struct EdgeRef {
    VertexId u, v;
    LabelId label;
  };
  std::vector<EdgeRef> delete_pool;
  for (VertexId u = 0; u < num_v; ++u) {
    for (const Edge& e : data.g.OutEdges(u)) {
      delete_pool.push_back({u, e.dst, e.label});
    }
  }
  rng.Shuffle(delete_pool);
  std::set<std::tuple<VertexId, VertexId, LabelId>> used_inserts;

  const auto base_has = [&](VertexId u, VertexId v, LabelId l) {
    for (const Edge& e : data.g.OutEdges(u)) {
      if (e.dst == v && e.label == l) return true;
    }
    return false;
  };

  std::vector<ServeOp> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ServeOp op;
    op.seq = i + 1;
    op.deadline = deadline;
    const bool is_write = rng.Uniform() < write_ratio;
    if (is_write) {
      const double w = rng.Uniform();
      bool placed = false;
      if (w < 0.45 && num_labels > 0) {
        for (int tries = 0; tries < 32 && !placed; ++tries) {
          const auto u = static_cast<VertexId>(rng.Below(num_v));
          const auto v = static_cast<VertexId>(rng.Below(num_v));
          const auto l = static_cast<LabelId>(rng.Below(num_labels));
          if (u == v || base_has(u, v, l)) continue;
          if (!used_inserts.insert({u, v, l}).second) continue;
          op.kind = OpKind::kEdgeInsert;
          op.u = u;
          op.v = v;
          op.label = data.g.edge_labels().Name(l);
          placed = true;
        }
      } else if (w < 0.75 && !delete_pool.empty()) {
        const EdgeRef e = delete_pool.back();
        delete_pool.pop_back();
        op.kind = OpKind::kEdgeDelete;
        op.u = e.u;
        op.v = e.v;
        op.label = data.g.EdgeLabelName(e.label);
        placed = true;
      }
      if (!placed) {
        const Annotation& a = rng.Pick(data.annotations);
        op.kind = OpKind::kFeedbackUpsert;
        op.u = a.u;
        op.v = a.v;
        op.is_match = a.is_match;
      }
    } else {
      const Annotation& a = rng.Pick(data.annotations);
      if (rng.Uniform() < 0.7) {
        op.kind = OpKind::kSPair;
        op.u = a.u;
        op.v = a.v;
      } else {
        op.kind = OpKind::kVPair;
        op.u = a.u;
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

double PercentileMs(const std::vector<double>& sorted_seconds, double p) {
  if (sorted_seconds.empty()) return 0.0;
  const size_t idx = std::min(
      sorted_seconds.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_seconds.size())));
  return sorted_seconds[idx] * 1e3;
}

int CmdServe(int argc, char** argv) {
  std::vector<std::string> pos;
  size_t ops_count = 200;
  double qps = 0.0;
  double write_ratio = 0.3;
  long deadline_ms = 0;
  uint64_t seed = 1;
  size_t kill_at_op = 0;
  std::string bench_out;
  std::string verdicts_out;
  ServeConfig config;
  FaultFsPlan faultfs_plan;
  bool faultfs_enabled = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--ops=", 0) == 0) {
      ops_count = std::strtoull(a.c_str() + 6, nullptr, 10);
    } else if (a.rfind("--qps=", 0) == 0) {
      qps = std::strtod(a.c_str() + 6, nullptr);
    } else if (a.rfind("--write-ratio=", 0) == 0) {
      write_ratio = std::strtod(a.c_str() + 14, nullptr);
    } else if (a.rfind("--deadline-ms=", 0) == 0) {
      deadline_ms = std::atol(a.c_str() + 14);
    } else if (a.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(a.c_str() + 7, nullptr, 10);
    } else if (a.rfind("--apply-batch=", 0) == 0) {
      config.apply_batch =
          std::max<size_t>(1, std::strtoull(a.c_str() + 14, nullptr, 10));
    } else if (a.rfind("--queue-soft-limit=", 0) == 0) {
      config.queue_soft_limit = std::strtoull(a.c_str() + 19, nullptr, 10);
    } else if (a.rfind("--queue-hard-limit=", 0) == 0) {
      config.queue_hard_limit = std::strtoull(a.c_str() + 19, nullptr, 10);
    } else if (a.rfind("--maintenance-deadline-ms=", 0) == 0) {
      config.maintenance_deadline =
          std::chrono::milliseconds(std::atol(a.c_str() + 26));
    } else if (a.rfind("--checkpoint-every=", 0) == 0) {
      config.checkpoint_every = std::strtoull(a.c_str() + 19, nullptr, 10);
    } else if (a.rfind("--fault-seed=", 0) == 0) {
      config.fault_seed = std::strtoull(a.c_str() + 13, nullptr, 10);
    } else if (a.rfind("--poison-prob=", 0) == 0) {
      config.poison_prob = std::strtod(a.c_str() + 14, nullptr);
    } else if (a.rfind("--kill-at-op=", 0) == 0) {
      kill_at_op = std::strtoull(a.c_str() + 13, nullptr, 10);
    } else if (a.rfind("--faultfs-seed=", 0) == 0) {
      faultfs_plan.seed = std::strtoull(a.c_str() + 15, nullptr, 10);
      faultfs_enabled = true;
    } else if (a.rfind("--faultfs-enospc-after-mb=", 0) == 0) {
      faultfs_plan.enospc_after_bytes =
          std::strtoull(a.c_str() + 26, nullptr, 10) * (1ull << 20);
      faultfs_enabled = true;
    } else if (a.rfind("--faultfs-fail-at-op=", 0) == 0) {
      faultfs_plan.fail_at_op = std::strtoull(a.c_str() + 21, nullptr, 10);
      faultfs_enabled = true;
    } else if (a.rfind("--faultfs-fail-op-count=", 0) == 0) {
      faultfs_plan.fail_op_count =
          std::strtoull(a.c_str() + 24, nullptr, 10);
      faultfs_enabled = true;
    } else if (a.rfind("--faultfs-fail-kind=", 0) == 0) {
      auto kind = ParseFaultKind(a.substr(20));
      if (!kind.ok()) return Fail(kind.status());
      faultfs_plan.fail_kind = *kind;
      faultfs_enabled = true;
    } else if (a.rfind("--faultfs-path-filter=", 0) == 0) {
      faultfs_plan.path_filter = a.substr(22);
      faultfs_enabled = true;
    } else if (a.rfind("--faultfs-write-fail-prob=", 0) == 0) {
      faultfs_plan.write_fail_prob = std::strtod(a.c_str() + 26, nullptr);
      faultfs_enabled = true;
    } else if (a.rfind("--faultfs-read-fail-prob=", 0) == 0) {
      faultfs_plan.read_fail_prob = std::strtod(a.c_str() + 25, nullptr);
      faultfs_enabled = true;
    } else if (a.rfind("--bench-out=", 0) == 0) {
      bench_out = a.substr(12);
    } else if (a.rfind("--verdicts-out=", 0) == 0) {
      verdicts_out = a.substr(15);
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return Usage();
    } else {
      pos.push_back(a);
    }
  }
  if (pos.size() < 2) return Usage();

  auto data_or = LoadDataset(pos[0]);
  if (!data_or.ok()) return Fail(data_or.status());
  const auto data =
      std::make_unique<GeneratedDataset>(std::move(data_or).value());
  config.dir = pos[1];
  std::unique_ptr<FaultFsEnv> faultfs;
  if (faultfs_enabled) {
    faultfs = std::make_unique<FaultFsEnv>(Env::Default(), faultfs_plan);
    config.env = faultfs.get();
    std::printf("faultfs: seed=%llu kind=%s fail_at_op=%llu count=%llu "
                "filter='%s'\n",
                static_cast<unsigned long long>(faultfs_plan.seed),
                FaultKindName(faultfs_plan.fail_kind),
                static_cast<unsigned long long>(faultfs_plan.fail_at_op),
                static_cast<unsigned long long>(faultfs_plan.fail_op_count),
                faultfs_plan.path_filter.c_str());
  }
  auto server_or = HerServer::Open(config, *data);
  if (!server_or.ok()) return FailServeRecovery(server_or.status());
  HerServer& server = **server_or;
  if (server.stats().recovered) {
    std::printf("recovered: %zu WAL record(s) replayed, %zu byte(s) "
                "discarded, max seq %llu, %zu quarantined\n",
                static_cast<size_t>(server.stats().wal_records_replayed),
                static_cast<size_t>(server.stats().wal_bytes_discarded),
                static_cast<unsigned long long>(server.recovered_max_seq()),
                server.quarantined_seqs().size());
  }

  const auto workload =
      BuildServeWorkload(*data, seed, ops_count, write_ratio,
                         std::chrono::milliseconds(deadline_ms));
  size_t skipped = 0;
  size_t submitted = 0;
  std::vector<double> accepted_read_lat;
  std::vector<double> all_lat;
  WallTimer run_timer;
  const auto interval =
      qps > 0.0 ? std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(1.0 / qps))
                : std::chrono::steady_clock::duration::zero();
  auto next_slot = std::chrono::steady_clock::now();
  for (const ServeOp& op : workload) {
    if (g_signal.load(std::memory_order_relaxed) != 0) break;
    if (op.seq <= server.recovered_max_seq()) {
      // Durably covered by the recovered state; a resumed driver must not
      // re-submit it (the server would reject the stale seq anyway).
      ++skipped;
      continue;
    }
    if (qps > 0.0) {
      next_slot += interval;
      std::this_thread::sleep_until(next_slot);
    }
    const OpResult r = server.Submit(op);
    ++submitted;
    all_lat.push_back(r.service_seconds);
    if (!IsWriteOp(op.kind) && r.outcome == OpOutcome::kAccepted) {
      accepted_read_lat.push_back(r.service_seconds);
    }
    if (kill_at_op > 0 && submitted >= kill_at_op) {
      // Crash hook for the soak test: die as a crashed host would — the
      // WAL already holds every acknowledged write; no drain, no flush.
      std::fprintf(stderr, "raising SIGKILL after %zu op(s)\n", submitted);
      std::fflush(nullptr);
      std::raise(SIGKILL);
    }
  }
  const double run_seconds = run_timer.Seconds();
  const int sig = g_signal.load(std::memory_order_relaxed);
  if (sig != 0) {
    std::printf("signal %d: draining (final checkpoint + WAL flush)\n", sig);
  }
  const Status drained = server.Drain();
  if (!drained.ok()) return Fail(drained);

  const ServeStats& st = server.stats();
  const uint64_t accounted = st.accepted_writes + st.rejected_writes +
                             st.accepted_reads + st.degraded_reads +
                             st.rejected_reads;
  std::sort(accepted_read_lat.begin(), accepted_read_lat.end());
  std::sort(all_lat.begin(), all_lat.end());
  std::printf(
      "serve: %zu submitted (%zu resumed past), %.1f qps achieved\n"
      "  writes: %zu accepted, %zu rejected; reads: %zu accepted, "
      "%zu degraded, %zu rejected\n"
      "  applied %zu mutation(s) in %zu batch(es), %zu parked, "
      "%zu quarantined, %zu checkpoint(s)\n"
      "  durability: %zu degraded episode(s), %zu repair(s), "
      "%zu checkpoint failure(s), %zu WAL append failure(s), "
      "%zu tmp file(s) swept\n"
      "  accepted-read latency ms: p50 %.2f p95 %.2f p99 %.2f\n",
      submitted, skipped,
      run_seconds > 0 ? static_cast<double>(submitted) / run_seconds : 0.0,
      static_cast<size_t>(st.accepted_writes),
      static_cast<size_t>(st.rejected_writes),
      static_cast<size_t>(st.accepted_reads),
      static_cast<size_t>(st.degraded_reads),
      static_cast<size_t>(st.rejected_reads),
      static_cast<size_t>(st.applied_mutations),
      static_cast<size_t>(st.apply_batches),
      static_cast<size_t>(st.apply_parked),
      static_cast<size_t>(st.quarantined),
      static_cast<size_t>(st.checkpoints),
      static_cast<size_t>(st.durability_degraded),
      static_cast<size_t>(st.durability_repairs),
      static_cast<size_t>(st.checkpoint_failures),
      static_cast<size_t>(st.wal_append_failures),
      static_cast<size_t>(st.tmp_files_swept),
      PercentileMs(accepted_read_lat, 0.50),
      PercentileMs(accepted_read_lat, 0.95),
      PercentileMs(accepted_read_lat, 0.99));
  if (accounted != submitted) {
    // The zero-silent-drops contract: every submitted op must land in
    // exactly one outcome bucket.
    std::fprintf(stderr,
                 "error: %llu op(s) accounted vs %zu submitted — silent "
                 "drop detected\n",
                 static_cast<unsigned long long>(accounted), submitted);
    return 1;
  }

  if (!bench_out.empty()) {
    std::string json = "{\n";
    const auto add_u64 = [&json](const char* key, uint64_t v, bool comma = true) {
      json += "  \"";
      json += key;
      json += "\": ";
      json += std::to_string(v);
      json += comma ? ",\n" : "\n";
    };
    const auto add_f = [&json](const char* key, double v) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.4f", v);
      json += "  \"";
      json += key;
      json += "\": ";
      json += buf;
      json += ",\n";
    };
    json += "  \"dataset\": \"" + data->name + "\",\n";
    add_u64("ops_submitted", submitted);
    add_u64("ops_resumed_past", skipped);
    add_f("qps_target", qps);
    add_f("qps_achieved",
          run_seconds > 0 ? static_cast<double>(submitted) / run_seconds
                          : 0.0);
    add_u64("deadline_ms", static_cast<uint64_t>(deadline_ms));
    add_u64("accepted_writes", st.accepted_writes);
    add_u64("rejected_writes", st.rejected_writes);
    add_u64("accepted_reads", st.accepted_reads);
    add_u64("degraded_reads", st.degraded_reads);
    add_u64("rejected_reads", st.rejected_reads);
    add_u64("applied_mutations", st.applied_mutations);
    add_u64("apply_batches", st.apply_batches);
    add_u64("apply_parked", st.apply_parked);
    add_u64("quarantined", st.quarantined);
    add_u64("wal_records_replayed", st.wal_records_replayed);
    add_u64("wal_bytes_discarded", st.wal_bytes_discarded);
    add_u64("checkpoints", st.checkpoints);
    add_u64("checkpoint_failures", st.checkpoint_failures);
    add_u64("wal_append_failures", st.wal_append_failures);
    add_u64("durability_degraded", st.durability_degraded);
    add_u64("durability_repairs", st.durability_repairs);
    add_u64("tmp_files_swept", st.tmp_files_swept);
    if (faultfs != nullptr) {
      const FaultFsStats fs = faultfs->stats();
      add_u64("faultfs_mutating_ops", fs.mutating_ops);
      add_u64("faultfs_faults_injected", fs.faults_injected);
      add_u64("faultfs_files_poisoned", fs.files_poisoned);
      add_u64("faultfs_crashed", fs.crashed ? 1 : 0);
    }
    add_u64("recovered", st.recovered ? 1 : 0);
    add_f("read_p50_ms", PercentileMs(accepted_read_lat, 0.50));
    add_f("read_p95_ms", PercentileMs(accepted_read_lat, 0.95));
    add_f("read_p99_ms", PercentileMs(accepted_read_lat, 0.99));
    add_f("all_p50_ms", PercentileMs(all_lat, 0.50));
    add_f("all_p99_ms", PercentileMs(all_lat, 0.99));
    add_u64("zero_silent_drops", accounted == submitted ? 1 : 0, false);
    json += "}\n";
    const Status s = AtomicWriteFile(bench_out, json);
    if (!s.ok()) return Fail(s);
    std::printf("wrote %s\n", bench_out.c_str());
  }

  if (!verdicts_out.empty()) {
    // Final verdicts over the (deterministic) annotation pairs, computed
    // fresh after the drain: Proposition 4 makes them a pure function of
    // (graph, params, models, feedback), so an interrupted-and-recovered
    // run must produce byte-identical lines to an uninterrupted one.
    std::string lines;
    for (const Annotation& a : data->annotations) {
      lines += std::to_string(a.u);
      lines += ' ';
      lines += std::to_string(a.v);
      lines += ' ';
      lines += server.system().SPairVertex(a.u, a.v) ? '1' : '0';
      lines += '\n';
    }
    const Status s = AtomicWriteFile(verdicts_out, lines);
    if (!s.ok()) return Fail(s);
    std::printf("wrote %zu verdict(s) to %s\n", data->annotations.size(),
                verdicts_out.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  InstallSignalHandlers();
  const std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "evaluate") return CmdEvaluate(argc, argv);
  if (cmd == "spair") return CmdSpair(argc, argv);
  if (cmd == "vpair") return CmdVpair(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  return Usage();
}

}  // namespace
}  // namespace her

int main(int argc, char** argv) { return her::Main(argc, argv); }
