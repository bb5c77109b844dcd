// The serve-mixed workload: one pass of her_cli serve's seeded traffic
// against a HerServer warm-started from a prepared snapshot, in its own
// process so an abort inside the server costs only that pass. Every
// answered op is recorded in a memory-mapped progress file as soon as
// Submit returns, so run.py can count the ops a crashed pass never
// answered.

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "datagen/dataset.h"
#include "perfbench/bench_common.h"
#include "perfbench/perfbench.h"
#include "perfbench/trace.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using namespace her;

constexpr int kServeEntities = 120;  // her_cli generate ukgov <dir> 120 7
constexpr uint64_t kServeDatasetSeed = 7;
constexpr double kWriteRatio = 0.3;
constexpr size_t kCheckpointEvery = 64;

GeneratedDataset ServeDataset() {
  DatasetSpec spec = UkgovSpec(kServeDatasetSeed);
  spec.num_entities = kServeEntities;
  return Generate(spec);
}

/// her_cli serve's traffic as a pure function of (dataset, seed), with no
/// deadlines: every write is valid against the logical state whatever
/// was admitted before it. Inserts draw distinct (u, v, label) triples
/// absent from the base graph; deletes pop each base edge at most once;
/// feedback upserts and reads target annotation pairs.
std::vector<ServeOp> BuildTraffic(const GeneratedDataset& data, uint64_t seed,
                                  size_t count) {
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
    if (rng.Uniform() < kWriteRatio) {
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

/// Record of one answered op in the progress file.
struct OpRecord {
  double latency_s = 0.0;
  uint32_t flags = 0;
  uint32_t reserved = 0;
};
enum OpFlag : uint32_t {
  kWrite = 1u << 0,
  kQueuedBefore = 1u << 1,  // queue_depth() > 0 before Submit
  kCheckpointed = 1u << 2,  // a checkpoint ran inside this op
  kTimed = 1u << 3,         // past the warm-up prefix
};

/// Slots of the progress file's header, one double each. They are
/// rewritten after every op, so they hold the pass's state up to the last
/// answered op even when the process dies in the next one.
enum HeaderSlot : int {
  kOps = 0,
  kAnswered,
  kSetupS,       // start to ready: dataset generation + HerServer::Open
  kOpenS,        // HerServer::Open alone (TrainOrLoad + recovery)
  kSnapshotLoadS,
  kAcceptedWrites,
  kAcceptedReads,
  kRejected,
  kDegraded,
  kAppliedMutations,
  kApplyBatches,
  kCheckpoints,
  // Traced passes only:
  kPtableBuildS,
  kLoopCpuS,     // process CPU spent in the op loop
  kLoopSysS,     // kernel CPU spent in the op loop
  kLoopFaults,   // minor page faults taken in the op loop
  kLoopSwitches, // voluntary context switches in the op loop
  kWalAppendS,
  kWalAppends,
  kWalBytes,
  kWalSyncS,
  kWalSyncs,
  kOtherAppendS,
  kOtherSyncS,
  kOtherSyncs,
  kHeaderSlots = 32,
};

/// Header of kHeaderSlots doubles followed by one OpRecord per op, shared
/// with the parent through the page cache: it outlives this process.
class ProgressFile {
 public:
  ProgressFile(const std::string& path, size_t ops) {
    bytes_ = kHeaderSlots * sizeof(double) + ops * sizeof(OpRecord);
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0 || ::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0) {
      throw std::runtime_error("cannot create " + path);
    }
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd_, 0);
    if (p == MAP_FAILED) throw std::runtime_error("cannot map " + path);
    base_ = static_cast<char*>(p);
    std::memset(base_, 0, bytes_);  // fault every page in before timing
    Set(kOps, static_cast<double>(ops));
  }
  ~ProgressFile() {
    ::munmap(base_, bytes_);
    ::close(fd_);
  }
  ProgressFile(const ProgressFile&) = delete;
  ProgressFile& operator=(const ProgressFile&) = delete;

  void Set(HeaderSlot slot, double v) {
    reinterpret_cast<double*>(base_)[slot] = v;
  }
  void Record(size_t i, const OpRecord& r) {
    reinterpret_cast<OpRecord*>(base_ + kHeaderSlots * sizeof(double))[i] = r;
  }

 private:
  int fd_ = -1;
  char* base_ = nullptr;
  size_t bytes_ = 0;
};

void RecordServeStats(const ServeStats& st, ProgressFile* progress) {
  progress->Set(kAcceptedWrites, static_cast<double>(st.accepted_writes));
  progress->Set(kAcceptedReads, static_cast<double>(st.accepted_reads));
  progress->Set(kRejected,
                static_cast<double>(st.rejected_writes + st.rejected_reads));
  progress->Set(kDegraded, static_cast<double>(st.degraded_reads));
  progress->Set(kAppliedMutations, static_cast<double>(st.applied_mutations));
  progress->Set(kApplyBatches, static_cast<double>(st.apply_batches));
  progress->Set(kCheckpoints, static_cast<double>(st.checkpoints));
}

void RecordIo(ProgressFile* progress) {
  const TraceRegistry::Totals io = TraceRegistry::Get().Sum();
  progress->Set(kWalAppendS, io.seconds[kWalAppend]);
  progress->Set(kWalAppends, static_cast<double>(io.calls[kWalAppend]));
  progress->Set(kWalBytes, static_cast<double>(io.items[kWalAppend]));
  progress->Set(kWalSyncS, io.seconds[kFsync]);
  progress->Set(kWalSyncs, static_cast<double>(io.calls[kFsync]));
  progress->Set(kOtherAppendS, io.seconds[kOtherAppend]);
  progress->Set(kOtherSyncS, io.seconds[kOtherSync]);
  progress->Set(kOtherSyncs, static_cast<double>(io.calls[kOtherSync]));
}

}  // namespace

int PrepareServe(const Args& args) {
  const std::string dir = args.Str("dir");
  std::filesystem::remove_all(dir);
  const GeneratedDataset data = ServeDataset();
  ServeConfig config;
  config.dir = dir;
  const double t0 = NowSeconds();
  auto server = HerServer::Open(config, data);
  if (!server.ok()) {
    std::fprintf(stderr, "prepare-serve: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  const double train_s = NowSeconds() - t0;
  if (!(*server)->Drain().ok()) return 1;
  Report out;
  out.Num("train_s", train_s);
  out.Num("g_vertices", static_cast<double>(data.g.num_vertices()));
  out.Num("g_edges", static_cast<double>(data.g.num_edges()));
  out.Num("tuples", static_cast<double>(data.db.TotalTuples()));
  out.Num("annotations", static_cast<double>(data.annotations.size()));
  out.Print();
  return 0;
}

int RunServePass(const Args& args) {
  const std::string dir = args.Str("dir");
  const size_t num_ops = args.U64("ops");
  const size_t warm = args.U64("warm");
  const bool trace = args.U64("trace") != 0;
  ProgressFile progress(args.Str("progress"), num_ops);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(args.Str("snapshot"), dir + "/model.snap");

  const double t0 = NowSeconds();
  const GeneratedDataset data = ServeDataset();
  const double t1 = NowSeconds();
  TimingEnv timing_env(Env::Default());
  ServeConfig config;
  config.dir = dir;
  config.checkpoint_every = kCheckpointEvery;
  config.env = trace ? &timing_env : nullptr;
  auto opened = HerServer::Open(config, data);
  if (!opened.ok()) {
    std::fprintf(stderr, "serve-pass: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  HerServer& server = **opened;
  progress.Set(kSetupS, NowSeconds() - t0);
  progress.Set(kOpenS, NowSeconds() - t1);
  progress.Set(kSnapshotLoadS,
               server.system().engine().stats().snapshot_load_seconds);

  const std::vector<ServeOp> traffic =
      BuildTraffic(data, args.U64("seed"), num_ops);
  double ptable_s = 0.0;
  double last_ptable = server.system().engine().stats().ptable_build_seconds;
  const double cpu0 = ProcessCpuSeconds();
  const Usage usage0 = ReadUsage();
  for (size_t i = 0; i < traffic.size(); ++i) {
    const ServeOp& op = traffic[i];
    const bool queued = server.queue_depth() > 0;
    const uint64_t checkpoints = server.stats().checkpoints;
    const double start = NowSeconds();
    server.Submit(op);
    OpRecord rec;
    rec.latency_s = NowSeconds() - start;
    rec.flags = (IsWriteOp(op.kind) ? kWrite : 0) |
                (queued ? kQueuedBefore : 0) |
                (server.stats().checkpoints != checkpoints ? kCheckpointed
                                                           : 0) |
                (i >= warm ? kTimed : 0);
    progress.Record(i, rec);
    RecordServeStats(server.stats(), &progress);
    if (trace) {
      // ptable_build_seconds holds the last Build/Refresh; a change means
      // this op rebuilt part of the property table.
      const double p = server.system().engine().stats().ptable_build_seconds;
      if (p != last_ptable) ptable_s += p;
      last_ptable = p;
      progress.Set(kPtableBuildS, ptable_s);
      progress.Set(kLoopCpuS, ProcessCpuSeconds() - cpu0);
      const Usage used = ReadUsage() - usage0;
      progress.Set(kLoopSysS, used.sys_s);
      progress.Set(kLoopFaults, used.minor_faults);
      progress.Set(kLoopSwitches, used.vol_switches);
      RecordIo(&progress);
    }
    progress.Set(kAnswered, static_cast<double>(i + 1));
  }
  const Status drained = server.Drain();

  // Post-drain verdicts over every annotated pair: by Prop. 4 a pure
  // function of (graph, params, models, feedback), so a pass is
  // reproducible from its traffic seed alone.
  uint64_t verdicts = 0x9e3779b97f4a7c15ULL;
  for (const Annotation& a : data.annotations) {
    verdicts = Mix64(verdicts ^ (static_cast<uint64_t>(a.u) << 33) ^
                     (static_cast<uint64_t>(a.v) << 1) ^
                     (server.system().SPairVertex(a.u, a.v) ? 1 : 0));
  }
  Report out;
  out.Num("drained", drained.ok() ? 1 : 0);
  out.Str("verdict_digest", Hex(verdicts));
  out.Print();
  return 0;
}

}  // namespace perfbench
