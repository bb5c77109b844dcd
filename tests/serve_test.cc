// Serving-layer tests (see DESIGN.md "Serving layer"):
//
//  - the WAL round-trips, and the corruption matrix (truncation at every
//    byte, single-bit flips, a torn final record) always degrades to the
//    longest valid prefix with the damage reported — never a crash, never
//    a silently absorbed loss;
//  - the fingerprint binds log and state files to one serving setup;
//  - admission accounting: every submitted op lands in exactly one
//    outcome bucket (zero silent drops), writes shed first at the soft
//    limit, reads degrade — with a staleness marker — at the hard limit;
//  - applied mutations produce the same verdicts as a from-scratch system
//    over the updated graph (read-your-writes, engine-level consistency);
//  - the kill-replay matrix: a server destroyed without Drain() and
//    reopened lands on verdicts identical to an uninterrupted run, across
//    seeds x {early, mid, late} crash points, with and without snapshot
//    compaction in between;
//  - quarantine decisions replay deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "datagen/dataset.h"
#include "learn/her_system.h"
#include "learn/metrics.h"
#include "serve/server.h"
#include "serve/wal.h"

namespace her {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --- WAL ----------------------------------------------------------------

constexpr uint64_t kFp = 0x1234abcd5678ef01ull;

std::vector<std::string> TestRecords() {
  return {"alpha", std::string(200, 'x'), "", "final-record"};
}

std::string WriteTestWal(const std::string& path) {
  auto writer = WalWriter::Open(path, kFp);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (const std::string& rec : TestRecords()) {
    EXPECT_TRUE((*writer)->Append(rec).ok());
  }
  auto data = ReadFileToString(path);
  EXPECT_TRUE(data.ok());
  return *data;
}

TEST(WalTest, RoundTrip) {
  const std::string path = FreshDir("wal_rt") + "/w.wal";
  WriteTestWal(path);
  auto replay = ReadWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records, TestRecords());
  EXPECT_EQ(replay->fingerprint, kFp);
  EXPECT_EQ(replay->discarded_bytes, 0u);
  EXPECT_TRUE(replay->truncation_reason.empty());
}

TEST(WalTest, MissingFileIsNotFound) {
  auto replay = ReadWal(::testing::TempDir() + "/nonexistent.wal");
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kNotFound);
}

TEST(WalTest, TruncationAtEveryByte) {
  const std::string dir = FreshDir("wal_trunc");
  const std::string full = WriteTestWal(dir + "/w.wal");
  const std::vector<std::string> records = TestRecords();

  // Frame end offsets, to know how many records each prefix holds.
  std::vector<size_t> frame_end;
  size_t pos = kWalHeaderSize;
  for (const std::string& rec : records) {
    pos += kWalFrameHeaderSize + rec.size();
    frame_end.push_back(pos);
  }
  ASSERT_EQ(pos, full.size());

  const std::string cut_path = dir + "/cut.wal";
  for (size_t cut = 0; cut < full.size(); ++cut) {
    ASSERT_TRUE(AtomicWriteFile(cut_path, full.substr(0, cut)).ok());
    auto replay = ReadWal(cut_path);
    if (cut < kWalHeaderSize) {
      // Not even a header: nothing can be trusted; a hard error.
      EXPECT_FALSE(replay.ok()) << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(replay.ok()) << "cut=" << cut;
    size_t expect_records = 0;
    while (expect_records < frame_end.size() &&
           frame_end[expect_records] <= cut) {
      ++expect_records;
    }
    EXPECT_EQ(replay->records.size(), expect_records) << "cut=" << cut;
    for (size_t i = 0; i < expect_records; ++i) {
      EXPECT_EQ(replay->records[i], records[i]);
    }
    EXPECT_EQ(replay->valid_bytes + replay->discarded_bytes, cut);
    // A cut exactly on a frame boundary is a clean shorter log; any other
    // cut leaves partial bytes that must be reported as damage.
    if (replay->discarded_bytes > 0) {
      EXPECT_FALSE(replay->truncation_reason.empty()) << "cut=" << cut;
    } else {
      EXPECT_TRUE(replay->truncation_reason.empty()) << "cut=" << cut;
    }
  }
}

TEST(WalTest, BitFlipMatrix) {
  const std::string dir = FreshDir("wal_flip");
  const std::string full = WriteTestWal(dir + "/w.wal");
  const std::vector<std::string> records = TestRecords();
  std::vector<size_t> frame_end;
  size_t pos = kWalHeaderSize;
  for (const std::string& rec : records) {
    pos += kWalFrameHeaderSize + rec.size();
    frame_end.push_back(pos);
  }

  const std::string flip_path = dir + "/flip.wal";
  for (size_t at = kWalHeaderSize; at < full.size(); ++at) {
    std::string damaged = full;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
    ASSERT_TRUE(AtomicWriteFile(flip_path, damaged).ok());
    auto replay = ReadWal(flip_path);
    ASSERT_TRUE(replay.ok()) << "flip at " << at;
    // The flipped byte lives in frame `broken`; every earlier frame must
    // replay intact and nothing at or after it may survive.
    size_t broken = 0;
    while (frame_end[broken] <= at) ++broken;
    ASSERT_LE(replay->records.size(), broken) << "flip at " << at;
    EXPECT_EQ(replay->records.size(), broken) << "flip at " << at;
    for (size_t i = 0; i < replay->records.size(); ++i) {
      EXPECT_EQ(replay->records[i], records[i]);
    }
    EXPECT_GT(replay->discarded_bytes, 0u);
    EXPECT_FALSE(replay->truncation_reason.empty());
  }
}

TEST(WalTest, TornFinalRecordReported) {
  const std::string dir = FreshDir("wal_torn");
  const std::string full = WriteTestWal(dir + "/w.wal");
  // Cut mid-payload of the final record: header promises more bytes than
  // the file holds.
  const std::string torn_path = dir + "/torn.wal";
  ASSERT_TRUE(AtomicWriteFile(torn_path, full.substr(0, full.size() - 3)).ok());
  auto replay = ReadWal(torn_path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records.size(), TestRecords().size() - 1);
  EXPECT_EQ(replay->truncation_reason, "torn final record");
}

TEST(WalTest, WriterTruncatesDamagedTailBeforeAppending) {
  const std::string dir = FreshDir("wal_heal");
  const std::string path = dir + "/w.wal";
  const std::string full = WriteTestWal(path);
  // Tear the final record, then reopen at the valid prefix and append.
  ASSERT_TRUE(AtomicWriteFile(path, full.substr(0, full.size() - 3)).ok());
  auto replay = ReadWal(path);
  ASSERT_TRUE(replay.ok());
  const size_t valid = replay->valid_bytes;
  auto writer = WalWriter::Open(path, kFp, valid);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append("after-heal").ok());
  auto healed = ReadWal(path);
  ASSERT_TRUE(healed.ok());
  ASSERT_EQ(healed->records.size(), TestRecords().size());
  EXPECT_EQ(healed->records.back(), "after-heal");
  EXPECT_EQ(healed->discarded_bytes, 0u);
}

TEST(WalTest, FingerprintBindsLogToSetup) {
  const std::string path = FreshDir("wal_fp") + "/w.wal";
  WriteTestWal(path);
  auto wrong = WalWriter::Open(path, kFp + 1);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WalTest, WrongMagicIsHardError) {
  const std::string path = FreshDir("wal_magic") + "/w.wal";
  std::string full = WriteTestWal(path);
  full[0] = 'X';
  ASSERT_TRUE(AtomicWriteFile(path, full).ok());
  auto replay = ReadWal(path);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kIOError);
}

TEST(WalTest, TruncateLeavesEmptyReplayableLog) {
  const std::string path = FreshDir("wal_empty") + "/w.wal";
  WriteTestWal(path);
  ASSERT_TRUE(TruncateWal(path, kFp).ok());
  auto replay = ReadWal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->records.empty());
  EXPECT_EQ(replay->fingerprint, kFp);
}

// --- server harness -----------------------------------------------------

DatasetSpec SmallSpec(uint64_t seed) {
  DatasetSpec spec = UkgovSpec(seed);
  spec.num_entities = 40;
  spec.annotations_per_class = 30;
  return spec;
}

ServeConfig FastConfig(const std::string& dir) {
  ServeConfig c;
  c.dir = dir;
  c.her.learn.train_lstm = false;  // deterministic PRA-only ranker
  c.her.tune_params = false;
  c.apply_batch = 4;
  return c;
}

/// Deterministic mixed workload, valid against the logical state no matter
/// which earlier ops were admitted: inserts use distinct non-base triples,
/// deletes pop distinct base edges, feedback targets annotation pairs.
std::vector<ServeOp> TestWorkload(const GeneratedDataset& data, size_t count) {
  std::vector<ServeOp> ops;
  struct EdgeRef {
    VertexId u, v;
    LabelId label;
  };
  std::vector<EdgeRef> deletable;
  for (VertexId u = 0; u < data.g.num_vertices(); ++u) {
    for (const Edge& e : data.g.OutEdges(u)) {
      deletable.push_back({u, e.dst, e.label});
    }
  }
  const size_t num_v = data.g.num_vertices();
  size_t next_delete = 0;
  uint32_t insert_salt = 0;
  for (size_t i = 0; i < count; ++i) {
    ServeOp op;
    op.seq = i + 1;
    switch (i % 5) {
      case 0: {  // insert a non-base edge (self-loops never exist in base)
        op.kind = OpKind::kEdgeInsert;
        op.u = static_cast<VertexId>(insert_salt % num_v);
        op.v = op.u;
        op.label = data.g.EdgeLabelName(
            static_cast<LabelId>(insert_salt % data.g.edge_labels().size()));
        ++insert_salt;
        break;
      }
      case 1: {
        if (next_delete < deletable.size()) {
          const EdgeRef e = deletable[next_delete++];
          op.kind = OpKind::kEdgeDelete;
          op.u = e.u;
          op.v = e.v;
          op.label = data.g.EdgeLabelName(e.label);
        } else {
          op.kind = OpKind::kSPair;
          const Annotation& a = data.annotations[i % data.annotations.size()];
          op.u = a.u;
          op.v = a.v;
        }
        break;
      }
      case 2: {
        const Annotation& a = data.annotations[i % data.annotations.size()];
        op.kind = OpKind::kFeedbackUpsert;
        op.u = a.u;
        op.v = a.v;
        op.is_match = a.is_match;
        break;
      }
      default: {
        const Annotation& a = data.annotations[i % data.annotations.size()];
        op.kind = i % 5 == 3 ? OpKind::kSPair : OpKind::kVPair;
        op.u = a.u;
        op.v = a.v;
        break;
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::string Verdicts(HerServer& server, const GeneratedDataset& data) {
  std::string out;
  out.reserve(data.annotations.size());
  for (const Annotation& a : data.annotations) {
    out += server.system().SPairVertex(a.u, a.v) ? '1' : '0';
  }
  return out;
}

TEST(ServeAdmissionTest, EveryOpLandsInExactlyOneBucket) {
  const GeneratedDataset data = Generate(SmallSpec(21));
  auto server = HerServer::Open(FastConfig(FreshDir("serve_acct")), data);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const auto ops = TestWorkload(data, 60);
  for (const ServeOp& op : ops) (*server)->Submit(op);
  const ServeStats& st = (*server)->stats();
  EXPECT_EQ(st.accepted_writes + st.rejected_writes + st.accepted_reads +
                st.degraded_reads + st.rejected_reads,
            ops.size());
  ASSERT_TRUE((*server)->Drain().ok());
  EXPECT_EQ((*server)->queue_depth(), 0u);
  EXPECT_EQ((*server)->phase(), ServePhase::kStopped);
}

TEST(ServeAdmissionTest, SoftLimitShedsWritesFirst) {
  const GeneratedDataset data = Generate(SmallSpec(22));
  ServeConfig cfg = FastConfig(FreshDir("serve_soft"));
  cfg.apply_batch = 100;  // keep mutations queued
  cfg.queue_soft_limit = 1;
  auto server = HerServer::Open(cfg, data);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ServeOp ins;
  ins.seq = 1;
  ins.kind = OpKind::kEdgeInsert;
  ins.u = ins.v = 0;  // self-loop: never in the base graph
  ins.label = data.g.EdgeLabelName(0);
  const OpResult first = (*server)->Submit(ins);
  EXPECT_EQ(first.outcome, OpOutcome::kAccepted) << first.status.ToString();

  ServeOp ins2 = ins;
  ins2.seq = 2;
  ins2.u = ins2.v = 1;
  const OpResult second = (*server)->Submit(ins2);
  EXPECT_EQ(second.outcome, OpOutcome::kRejected);
  EXPECT_EQ(second.status.code(), StatusCode::kResourceExhausted);

  // Tier 1 sheds only writes: reads still flow (degraded, not rejected).
  ServeOp read;
  read.seq = 0;
  read.kind = OpKind::kSPair;
  read.u = data.annotations[0].u;
  read.v = data.annotations[0].v;
  const OpResult r = (*server)->Submit(read);
  EXPECT_NE(r.outcome, OpOutcome::kRejected) << r.status.ToString();
  ASSERT_TRUE((*server)->Drain().ok());
}

TEST(ServeAdmissionTest, HardLimitDegradesReadsWithStalenessMarker) {
  const GeneratedDataset data = Generate(SmallSpec(23));
  ServeConfig cfg = FastConfig(FreshDir("serve_hard"));
  cfg.apply_batch = 100;
  cfg.queue_soft_limit = 100;
  cfg.queue_hard_limit = 1;
  auto server = HerServer::Open(cfg, data);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ServeOp ins;
  ins.seq = 1;
  ins.kind = OpKind::kEdgeInsert;
  ins.u = ins.v = 0;
  ins.label = data.g.EdgeLabelName(0);
  ASSERT_EQ((*server)->Submit(ins).outcome, OpOutcome::kAccepted);
  ASSERT_EQ((*server)->queue_depth(), 1u);

  ServeOp read;
  read.kind = OpKind::kSPair;
  read.u = data.annotations[0].u;
  read.v = data.annotations[0].v;
  const OpResult r = (*server)->Submit(read);
  EXPECT_EQ(r.outcome, OpOutcome::kDegraded);
  EXPECT_GE(r.staleness, 1u);  // the queued write is not in the answer
  EXPECT_TRUE(r.status.ok());  // degraded is an answer, not a failure
  ASSERT_TRUE((*server)->Drain().ok());
}

TEST(ServeAdmissionTest, RejectsStaleAndInvalidWrites) {
  const GeneratedDataset data = Generate(SmallSpec(24));
  auto server = HerServer::Open(FastConfig(FreshDir("serve_rej")), data);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ServeOp del;
  del.seq = 1;
  del.kind = OpKind::kEdgeDelete;
  del.u = del.v = 0;  // self-loop: not in the base graph
  del.label = data.g.EdgeLabelName(0);
  EXPECT_EQ((*server)->Submit(del).status.code(), StatusCode::kNotFound);

  ServeOp ins;
  ins.seq = 1;
  ins.kind = OpKind::kEdgeInsert;
  ins.u = ins.v = 0;
  ins.label = "no-such-label";
  EXPECT_EQ((*server)->Submit(ins).status.code(),
            StatusCode::kInvalidArgument);

  ins.label = data.g.EdgeLabelName(0);
  ASSERT_EQ((*server)->Submit(ins).outcome, OpOutcome::kAccepted);
  // Replayed/stale seq: refused, the WAL already covers it.
  const OpResult replayed = (*server)->Submit(ins);
  EXPECT_EQ(replayed.outcome, OpOutcome::kRejected);
  ASSERT_TRUE((*server)->Drain().ok());
}

TEST(ServeConsistencyTest, AppliedMutationsMatchFromScratchSystem) {
  const GeneratedDataset data = Generate(SmallSpec(25));
  const std::string dir = FreshDir("serve_consist");
  ServeConfig cfg = FastConfig(dir);
  cfg.apply_batch = 1;  // apply every mutation immediately
  auto server = HerServer::Open(cfg, data);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const auto ops = TestWorkload(data, 40);
  for (const ServeOp& op : ops) {
    const OpResult r = (*server)->Submit(op);
    if (IsWriteOp(op.kind)) {
      ASSERT_EQ(r.outcome, OpOutcome::kAccepted) << r.status.ToString();
    }
  }
  ASSERT_TRUE((*server)->Drain().ok());

  // From-scratch reference: same trained models (shared snapshot), the
  // same final graph built in one shot, the same overrides.
  GraphBuilder b;
  for (VertexId v = 0; v < data.g.num_vertices(); ++v) {
    b.AddVertex(data.g.label(v));
  }
  for (LabelId id = 0; id < data.g.edge_labels().size(); ++id) {
    b.InternEdgeLabel(data.g.edge_labels().Name(id));
  }
  {  // replay the accepted mutations onto the base edge set
    std::vector<std::vector<Edge>> adj(data.g.num_vertices());
    for (VertexId v = 0; v < data.g.num_vertices(); ++v) {
      const auto edges = data.g.OutEdges(v);
      adj[v].assign(edges.begin(), edges.end());
    }
    for (const ServeOp& op : ops) {
      const LabelId l = op.label.empty()
                            ? kInvalidLabel
                            : data.g.edge_labels().Find(op.label);
      if (op.kind == OpKind::kEdgeInsert) {
        adj[op.u].push_back({op.v, l});
      } else if (op.kind == OpKind::kEdgeDelete) {
        auto& row = adj[op.u];
        for (size_t i = 0; i < row.size(); ++i) {
          if (row[i].dst == op.v && row[i].label == l) {
            row.erase(row.begin() + static_cast<long>(i));
            break;
          }
        }
      }
    }
    for (VertexId v = 0; v < adj.size(); ++v) {
      for (const Edge& e : adj[v]) b.AddEdge(v, e.dst, e.label);
    }
  }
  const Graph final_graph = std::move(b).Build();

  HerSystem fresh(data.canonical, data.g, cfg.her);
  const AnnotationSplit split = SplitAnnotations(data.annotations);
  fresh.TrainOrLoad(dir + "/model.snap", data.path_pairs, split.validation);
  fresh.UpdateGraph(final_graph);
  for (const ServeOp& op : ops) {
    if (op.kind == OpKind::kFeedbackUpsert) {
      fresh.AddFeedbackOverride(op.u, op.v, op.is_match);
    }
  }
  for (const Annotation& a : data.annotations) {
    EXPECT_EQ((*server)->system().SPairVertex(a.u, a.v),
              fresh.SPairVertex(a.u, a.v))
        << "pair (" << a.u << ", " << a.v << ")";
  }
}

/// A read waiting on a maintenance pass bounds the whole pass by its own
/// deadline: reads with a 1 ms deadline behind a write burst are each
/// answered (fresh or degraded), never rejected, and the parked work is
/// finished at Drain — every annotation-pair verdict then equals a server
/// that ran the same ops without deadlines.
TEST(ServeConsistencyTest, ReadDeadlinesNeverRejectOrChangeVerdicts) {
  // Large enough that the burst's maintenance pass usually outlasts the
  // first read's 1 ms, so reads park it and continue it.
  DatasetSpec spec = SmallSpec(26);
  spec.num_entities = 200;
  const GeneratedDataset data = Generate(spec);
  // The workload's writes as one burst, then its reads.
  std::vector<ServeOp> ops = TestWorkload(data, 100);
  std::stable_partition(ops.begin(), ops.end(),
                        [](const ServeOp& op) { return IsWriteOp(op.kind); });
  const auto run = [&](const std::string& dir,
                       std::chrono::milliseconds read_deadline) {
    ServeConfig cfg = FastConfig(dir);
    cfg.apply_batch = 64;  // the burst stays queued until a read arrives
    auto server = HerServer::Open(cfg, data);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    uint64_t stale_reads = 0;
    for (ServeOp op : ops) {
      if (!IsWriteOp(op.kind)) op.deadline = read_deadline;
      const OpResult r = (*server)->Submit(op);
      EXPECT_NE(r.outcome, OpOutcome::kRejected)
          << "seq " << op.seq << ": " << r.status.ToString();
      if (!IsWriteOp(op.kind) && r.staleness > 0) ++stale_reads;
    }
    EXPECT_TRUE((*server)->Drain().ok());
    EXPECT_TRUE((*server)->system().UpdateComplete());
    // A pass is parked only by a read that then serves it stale (so
    // degraded); the read or Drain that finishes a parked pass does not
    // count it again. An unbounded run never parks.
    const ServeStats& st = (*server)->stats();
    EXPECT_LE(st.apply_parked, stale_reads);
    EXPECT_LE(st.apply_parked, st.degraded_reads);
    if (read_deadline.count() == 0) {
      EXPECT_EQ(st.apply_parked, 0u);
    }
    return Verdicts(**server, data);
  };
  const std::string unbounded =
      run(FreshDir("serve_nodeadline"), std::chrono::milliseconds{0});
  EXPECT_EQ(run(FreshDir("serve_deadline"), std::chrono::milliseconds{1}),
            unbounded);
}

TEST(ServeRecoveryTest, KillReplayMatrix) {
  // >= 3 seeds x {early, mid, late} crash points; the mid point also runs
  // with snapshot compaction so recovery exercises snapshot + WAL, not
  // just the WAL.
  for (const uint64_t seed : {31u, 32u, 33u}) {
    const GeneratedDataset data = Generate(SmallSpec(seed));
    const auto ops = TestWorkload(data, 45);

    const std::string base_dir =
        FreshDir("serve_kill_base_" + std::to_string(seed));
    ServeConfig base_cfg = FastConfig(base_dir);
    auto baseline = HerServer::Open(base_cfg, data);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    for (const ServeOp& op : ops) (*baseline)->Submit(op);
    ASSERT_TRUE((*baseline)->Drain().ok());
    const std::string want = Verdicts(**baseline, data);

    for (const double frac : {0.2, 0.5, 0.85}) {
      const std::string dir = FreshDir("serve_kill_" + std::to_string(seed) +
                                       "_" + std::to_string(frac));
      // Reuse the trained snapshot: same dataset -> same fingerprint.
      std::filesystem::copy_file(base_dir + "/model.snap",
                                 dir + "/model.snap");
      ServeConfig cfg = FastConfig(dir);
      cfg.checkpoint_every = frac == 0.5 ? 6 : 0;

      auto victim = HerServer::Open(cfg, data);
      ASSERT_TRUE(victim.ok()) << victim.status().ToString();
      const size_t crash_at = static_cast<size_t>(
          frac * static_cast<double>(ops.size()));
      for (size_t i = 0; i < crash_at; ++i) (*victim)->Submit(ops[i]);
      // SIGKILL stand-in: destroy with no Drain, no checkpoint, no flush
      // beyond what Append already fsync'd.
      victim->reset();

      auto revived = HerServer::Open(cfg, data);
      ASSERT_TRUE(revived.ok()) << revived.status().ToString();
      EXPECT_TRUE((*revived)->stats().recovered ||
                  (*revived)->recovered_max_seq() == 0);
      for (const ServeOp& op : ops) {
        if (op.seq <= (*revived)->recovered_max_seq()) continue;
        (*revived)->Submit(op);
      }
      ASSERT_TRUE((*revived)->Drain().ok());
      EXPECT_EQ(Verdicts(**revived, data), want)
          << "seed " << seed << " crash fraction " << frac;
    }
  }
}

TEST(ServeRecoveryTest, RestartAfterCleanDrainIsIdempotent) {
  const GeneratedDataset data = Generate(SmallSpec(41));
  const std::string dir = FreshDir("serve_redrain");
  const auto ops = TestWorkload(data, 30);

  ServeConfig cfg = FastConfig(dir);
  auto first = HerServer::Open(cfg, data);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  for (const ServeOp& op : ops) (*first)->Submit(op);
  ASSERT_TRUE((*first)->Drain().ok());
  const std::string want = Verdicts(**first, data);
  first->reset();

  auto second = HerServer::Open(cfg, data);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Everything was snapshotted at drain: nothing to replay, same state.
  EXPECT_EQ((*second)->stats().wal_records_replayed, 0u);
  EXPECT_GT((*second)->recovered_max_seq(), 0u);
  EXPECT_EQ(Verdicts(**second, data), want);
}

// Submit/Checkpoint/Drain are documented safe from concurrent threads
// (one server mutex): a writer thread racing a checkpointer and a read
// hammer must neither corrupt accounting (every op in exactly one
// bucket) nor trip TSan — the CI faultfs-soak job runs this under
// sanitizers.
TEST(ServeConcurrencyTest, CheckpointRacesSubmitSafely) {
  const GeneratedDataset data = Generate(SmallSpec(71));
  const std::string dir = FreshDir("serve_conc");
  auto server = HerServer::Open(FastConfig(dir), data);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const auto ops = TestWorkload(data, 40);
  constexpr int kConcurrentReads = 25;

  std::thread checkpointer([&] {
    for (int i = 0; i < 15; ++i) (void)(*server)->Checkpoint();
  });
  std::thread reader([&] {
    ServeOp op;
    op.kind = OpKind::kSPair;
    op.u = data.annotations[0].u;
    op.v = data.annotations[0].v;
    for (int i = 0; i < kConcurrentReads; ++i) (void)(*server)->Submit(op);
  });
  for (const ServeOp& op : ops) (*server)->Submit(op);
  checkpointer.join();
  reader.join();

  const ServeStats& st = (*server)->stats();
  EXPECT_EQ(st.accepted_writes + st.rejected_writes + st.accepted_reads +
                st.degraded_reads + st.rejected_reads,
            ops.size() + kConcurrentReads);
  ASSERT_TRUE((*server)->Drain().ok());
  EXPECT_EQ((*server)->queue_depth(), 0u);
}

TEST(ServeFaultTest, QuarantineDecisionsReplayDeterministically) {
  const GeneratedDataset data = Generate(SmallSpec(51));
  const std::string dir = FreshDir("serve_quar");
  ServeConfig cfg = FastConfig(dir);
  cfg.fault_seed = 99;
  cfg.poison_prob = 0.3;

  const auto ops = TestWorkload(data, 40);
  auto server = HerServer::Open(cfg, data);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  for (const ServeOp& op : ops) (*server)->Submit(op);
  const std::vector<uint64_t> quarantined = (*server)->quarantined_seqs();
  EXPECT_GT(quarantined.size(), 0u)
      << "poison plan selected no op; workload too small?";
  // Crash without drain; recovery must re-reach the same decisions.
  server->reset();

  auto revived = HerServer::Open(cfg, data);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->quarantined_seqs(), quarantined);
  ASSERT_TRUE((*revived)->Drain().ok());
}

}  // namespace
}  // namespace her
