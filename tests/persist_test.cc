// Durable-checkpoint tests (see DESIGN.md "Durable checkpoints"):
//
//  - the snapshot container round-trips and rejects every corruption we
//    can synthesize (truncation, bit flips, wrong magic/version, stale
//    fingerprints) with a clean Status — never a crash;
//  - MatchEngine state and the PropertyTable restore bit for bit, and a
//    deadline-degraded table completes through Refresh over Pending();
//  - the kill-and-resume matrix: a BSP run halted mid-fixpoint and
//    resumed from its on-disk checkpoint lands on a Pi bit-identical to
//    the uninterrupted run, across seeds and worker counts;
//  - resume is all or nothing: a corrupt, stale or missing checkpoint, or
//    one fragment section that fails to open or decode, degrades to a
//    full cold start with correct results;
//  - HerSystem::TrainOrLoad warm-starts from a model snapshot, skipping
//    the property-table build (ptable_build_seconds == 0) and surfacing
//    the restore in snapshot_load_seconds.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "core/drivers.h"
#include "core/match_engine.h"
#include "datagen/dataset.h"
#include "learn/her_system.h"
#include "learn/metrics.h"
#include "parallel/bsp_engine.h"
#include "parallel/fragment.h"
#include "persist/fingerprint.h"
#include "persist/snapshot.h"
#include "tests/test_util.h"

namespace her {
namespace {

using testutil::ContextHarness;
using testutil::EmbeddingOverlapScorer;
using testutil::ItemRoots;
using testutil::RandomEntityGraphs;

SimulationParams TestParams() { return {.sigma = 0.99, .delta = 0.9, .k = 4}; }

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- byte codec ---------------------------------------------------------

TEST(BytesTest, RoundTrip) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutVarint(0);
  w.PutVarint(127);
  w.PutVarint(300);
  w.PutVarint(~0ull);
  w.PutFloat(1.5f);
  w.PutDouble(-0.1);
  w.PutString("hello");
  w.PutFloatVec(std::vector<float>{1.0f, -2.5f});
  w.PutIntVec(std::vector<uint32_t>{3, 1, 4});

  ByteReader r(w.data());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  EXPECT_EQ(u8, 7);
  ASSERT_TRUE(r.GetU32(&u32).ok());
  EXPECT_EQ(u32, 0xdeadbeefu);
  ASSERT_TRUE(r.GetU64(&u64).ok());
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  for (const uint64_t want : {uint64_t{0}, uint64_t{127}, uint64_t{300},
                              ~uint64_t{0}}) {
    uint64_t v = 1;
    ASSERT_TRUE(r.GetVarint(&v).ok());
    EXPECT_EQ(v, want);
  }
  float f = 0;
  double d = 0;
  ASSERT_TRUE(r.GetFloat(&f).ok());
  EXPECT_EQ(f, 1.5f);
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_EQ(d, -0.1);
  std::string s;
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(s, "hello");
  std::vector<float> fv;
  ASSERT_TRUE(r.GetFloatVec(&fv).ok());
  EXPECT_EQ(fv, (std::vector<float>{1.0f, -2.5f}));
  std::vector<uint32_t> iv;
  ASSERT_TRUE(r.GetIntVec(&iv).ok());
  EXPECT_EQ(iv, (std::vector<uint32_t>{3, 1, 4}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, TruncationIsCleanError) {
  ByteWriter w;
  w.PutU32(42);
  for (size_t cut = 0; cut < w.data().size(); ++cut) {
    ByteReader r(std::string_view(w.data()).substr(0, cut));
    uint32_t v = 0;
    const Status s = r.GetU32(&v);
    EXPECT_EQ(s.code(), StatusCode::kIOError) << "cut=" << cut;
  }
}

TEST(BytesTest, HugeCountRejectedBeforeAllocation) {
  ByteWriter w;
  w.PutVarint(~0ull);  // claims 2^64-1 elements follow
  ByteReader r(w.data());
  std::vector<float> fv;
  EXPECT_FALSE(r.GetFloatVec(&fv).ok());
  ByteReader r2(w.data());
  std::vector<uint32_t> iv;
  EXPECT_FALSE(r2.GetIntVec(&iv).ok());
}

// --- atomic file I/O ----------------------------------------------------

TEST(FileUtilTest, AtomicWriteRoundTripAndNoTempResidue) {
  const std::string path = TempPath("atomic_rt.bin");
  const std::string payload = std::string("abc\0def", 7);
  ASSERT_TRUE(AtomicWriteFile(path, payload).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Overwrite installs the new contents in full.
  ASSERT_TRUE(AtomicWriteFile(path, "v2").ok());
  read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "v2");
}

TEST(FileUtilTest, ReadMissingFileIsIOError) {
  const auto r = ReadFileToString(TempPath("does_not_exist.bin"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

// --- snapshot container -------------------------------------------------

std::string MakeSnapshot(uint64_t fingerprint) {
  SnapshotWriter w(fingerprint);
  ByteWriter* a = w.AddSection("alpha");
  a->PutVarint(123);
  a->PutString("payload-a");
  ByteWriter* b = w.AddSection("beta");
  b->PutDouble(2.75);
  return w.Serialize();
}

TEST(SnapshotTest, RoundTrip) {
  auto parsed = SnapshotReader::Parse(MakeSnapshot(0xfeed), 0xfeed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->fingerprint(), 0xfeedu);
  EXPECT_TRUE(parsed->HasSection("alpha"));
  EXPECT_TRUE(parsed->HasSection("beta"));
  auto a = parsed->Section("alpha");
  ASSERT_TRUE(a.ok());
  uint64_t v = 0;
  std::string s;
  ASSERT_TRUE(a->GetVarint(&v).ok());
  ASSERT_TRUE(a->GetString(&s).ok());
  EXPECT_EQ(v, 123u);
  EXPECT_EQ(s, "payload-a");
  EXPECT_TRUE(a->AtEnd());
  auto b = parsed->Section("beta");
  ASSERT_TRUE(b.ok());
  double d = 0;
  ASSERT_TRUE(b->GetDouble(&d).ok());
  EXPECT_EQ(d, 2.75);
}

TEST(SnapshotTest, MissingSectionIsNotFound) {
  auto parsed =
      SnapshotReader::Parse(MakeSnapshot(1), SnapshotReader::kAnyFingerprint);
  ASSERT_TRUE(parsed.ok());
  const auto sec = parsed->Section("gamma");
  ASSERT_FALSE(sec.ok());
  EXPECT_EQ(sec.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, EveryTruncationFailsCleanly) {
  const std::string data = MakeSnapshot(7);
  for (size_t cut = 0; cut < data.size(); ++cut) {
    auto parsed = SnapshotReader::Parse(data.substr(0, cut),
                                        SnapshotReader::kAnyFingerprint);
    EXPECT_FALSE(parsed.ok()) << "prefix of " << cut << " bytes parsed";
  }
  auto parsed = SnapshotReader::Parse(data + "x",
                                      SnapshotReader::kAnyFingerprint);
  EXPECT_FALSE(parsed.ok()) << "trailing garbage accepted";
}

TEST(SnapshotTest, EveryBitFlipIsDetected) {
  const std::string data = MakeSnapshot(7);
  for (size_t i = 0; i < data.size(); ++i) {
    std::string mutated = data;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    auto parsed = SnapshotReader::Parse(std::move(mutated),
                                        SnapshotReader::kAnyFingerprint);
    if (!parsed.ok()) continue;  // header/index CRC caught it
    // Payload corruption is caught lazily when the section is opened.
    const bool alpha_ok = parsed->Section("alpha").ok();
    const bool beta_ok = parsed->Section("beta").ok();
    EXPECT_FALSE(alpha_ok && beta_ok) << "flip at byte " << i << " undetected";
  }
}

TEST(SnapshotTest, WrongMagicRejected) {
  std::string data = MakeSnapshot(7);
  data[0] = 'X';
  const auto parsed =
      SnapshotReader::Parse(std::move(data), SnapshotReader::kAnyFingerprint);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIOError);
}

TEST(SnapshotTest, FutureVersionIsUnimplemented) {
  std::string data = MakeSnapshot(7);
  // Patch the version field (offset 8) and re-seal the header CRC
  // (offset 32, over bytes [0, 32)) so only the version is "wrong".
  const uint32_t version = kSnapshotVersion + 1;
  for (int i = 0; i < 4; ++i) {
    data[8 + i] = static_cast<char>(version >> (8 * i));
  }
  const uint32_t crc = Crc32(data.data(), 32);
  for (int i = 0; i < 4; ++i) {
    data[32 + i] = static_cast<char>(crc >> (8 * i));
  }
  const auto parsed =
      SnapshotReader::Parse(std::move(data), SnapshotReader::kAnyFingerprint);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kUnimplemented);
}

TEST(SnapshotTest, StaleFingerprintIsFailedPrecondition) {
  const auto parsed = SnapshotReader::Parse(MakeSnapshot(0xaaa), 0xbbb);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FingerprintTest, SensitiveToEveryInput) {
  auto [g1, g2] = RandomEntityGraphs(3, 4);
  auto [h1, h2] = RandomEntityGraphs(4, 4);
  const SimulationParams p = TestParams();
  const uint64_t base = FingerprintSetup(g1, g2, p, 1);
  EXPECT_EQ(base, FingerprintSetup(g1, g2, p, 1));  // deterministic
  EXPECT_NE(base, FingerprintSetup(h1, g2, p, 1));
  EXPECT_NE(base, FingerprintSetup(g1, h2, p, 1));
  EXPECT_NE(base, FingerprintSetup(g1, g2, p, 2));
  SimulationParams q = p;
  q.sigma += 0.01;
  EXPECT_NE(base, FingerprintSetup(g1, g2, q, 1));
}

// --- property table: round trip + deadline degradation (S5) -------------

TEST(PropertyTablePersistTest, SaveLoadRoundTripsBitExactly) {
  auto [g1, g2] = RandomEntityGraphs(11, 6);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const PropertyTable built = PropertyTable::Build(
      h.g1, h.g2, *h.hr, *h.vocab, /*threads=*/2, h.mrho.get());
  ByteWriter w;
  built.SaveState(&w);
  PropertyTable restored;
  ByteReader r(w.data());
  ASSERT_TRUE(restored.LoadState(&r).ok());
  EXPECT_TRUE(restored == built);
  EXPECT_TRUE(restored.Complete());
  // save -> load -> save is byte-stable.
  ByteWriter w2;
  restored.SaveState(&w2);
  EXPECT_EQ(w.data(), w2.data());
}

/// Rows decode straight into the arena, so a cut can land mid-row, mid-
/// vector or mid-float: every proper prefix of a table's SaveState bytes
/// must be a clean error that leaves the loading table exactly as it was.
TEST(PropertyTablePersistTest, EveryTruncationFailsAndLeavesTableUnchanged) {
  auto [g1, g2] = RandomEntityGraphs(11, 2);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const EmbeddingOverlapScorer mrho(h.vocab.get());
  const PropertyTable built =
      PropertyTable::Build(h.g1, h.g2, *h.hr, *h.vocab, 1, &mrho);
  ASSERT_FALSE(built.Get(0, ItemRoots(h.g1).front(), 4).front()
                   .embedding.empty());
  ByteWriter w;
  built.SaveState(&w);
  // The loading table differs from `built`: its rows carry no
  // embeddings, and it has a pending set.
  PropertyTable table =
      PropertyTable::Build(h.g1, h.g2, *h.hr, *h.vocab, 1, nullptr);
  std::vector<VertexId> odd;
  for (VertexId v = 1; v < h.g2.num_vertices(); v += 2) odd.push_back(v);
  table.Refresh(1, h.g2, odd, *h.hr, *h.vocab, nullptr,
                RunOptions::WithTimeout(std::chrono::seconds(0)));
  ASSERT_FALSE(table.Complete());
  ByteWriter before;
  table.SaveState(&before);
  ASSERT_NE(before.data(), w.data());
  for (size_t len = 0; len < w.data().size(); ++len) {
    ByteReader r(std::string_view(w.data()).substr(0, len));
    ASSERT_FALSE(table.LoadState(&r).ok()) << "prefix " << len;
    ByteWriter after;
    table.SaveState(&after);
    ASSERT_EQ(after.data(), before.data()) << "prefix " << len;
  }
  ByteReader whole(w.data());
  ASSERT_TRUE(table.LoadState(&whole).ok());
  EXPECT_TRUE(table == built);
}

TEST(PropertyTablePersistTest, ExpiredBuildDegradesAndRefreshCompletes) {
  auto [g1, g2] = RandomEntityGraphs(12, 6);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const PropertyTable clean = PropertyTable::Build(
      h.g1, h.g2, *h.hr, *h.vocab, /*threads=*/2, h.mrho.get());

  // Only internal vertices get rows (leaves have no properties), so the
  // pending set of a fully skipped build is exactly the internal set.
  const auto internal = [](const Graph& g) {
    size_t n = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!g.IsLeaf(v)) ++n;
    }
    return n;
  };

  // Deadline already expired: every block is skipped, every internal
  // vertex is pending, and no partial row exists (all-or-nothing rows).
  const RunOptions expired = RunOptions::WithTimeout(std::chrono::seconds(0));
  PropertyTable degraded = PropertyTable::Build(
      h.g1, h.g2, *h.hr, *h.vocab, /*threads=*/2, h.mrho.get(),
      PropertyTable::kDefaultBuildBlock, expired);
  EXPECT_FALSE(degraded.Complete());
  EXPECT_EQ(degraded.Pending(0).size(), internal(h.g1));
  EXPECT_EQ(degraded.Pending(1).size(), internal(h.g2));
  for (VertexId v = 0; v < h.g1.num_vertices(); ++v) {
    EXPECT_TRUE(degraded.Get(0, v, 100).empty());
  }

  // An expired Refresh keeps the pending set (degraded but valid) ...
  std::vector<VertexId> pend0(degraded.Pending(0).begin(),
                              degraded.Pending(0).end());
  degraded.Refresh(0, h.g1, pend0, *h.hr, *h.vocab, h.mrho.get(), expired);
  EXPECT_EQ(degraded.Pending(0).size(), internal(h.g1));

  // ... and an unconstrained Refresh over Pending() completes the table
  // to exactly the clean build.
  for (const int graph : {0, 1}) {
    const Graph& g = graph == 0 ? h.g1 : h.g2;
    std::vector<VertexId> pending(degraded.Pending(graph).begin(),
                                  degraded.Pending(graph).end());
    degraded.Refresh(graph, g, pending, *h.hr, *h.vocab, h.mrho.get());
  }
  EXPECT_TRUE(degraded.Complete());
  EXPECT_TRUE(degraded == clean);
}

// --- engine state round trip --------------------------------------------

TEST(EngineStatePersistTest, VerdictsRoundTrip) {
  auto [g1, g2] = RandomEntityGraphs(21, 6);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  MatchEngine original(h.ctx);
  const auto pi = AllParaMatch(original, roots);

  ByteWriter state;
  original.SaveEngineState(&state);

  MatchEngine restored(h.ctx);
  ByteReader rs(state.data());
  ASSERT_TRUE(restored.LoadEngineState(&rs).ok());

  // Same verdicts for every root pair, and the rebuilt engine continues
  // to the same Pi.
  for (const VertexId u : roots) {
    for (const VertexId v : ItemRoots(h.g2)) {
      const auto* a = original.Lookup(u, v);
      const auto* b = restored.Lookup(u, v);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        EXPECT_EQ(a->valid, b->valid);
      }
    }
  }
  EXPECT_EQ(AllParaMatch(restored, roots), pi);

  // save -> load -> save is byte-stable (canonical ordering).
  ByteWriter state2;
  restored.SaveEngineState(&state2);
  EXPECT_EQ(state.data(), state2.data());

  // Corrupt payloads are clean errors.
  std::string bad = state.data();
  if (!bad.empty()) bad.resize(bad.size() - 1);
  MatchEngine scratch(h.ctx);
  ByteReader rbad(bad);
  EXPECT_FALSE(scratch.LoadEngineState(&rbad).ok());
}

// --- kill-and-resume matrix ---------------------------------------------

/// Acceptance matrix: >= 4 seeds x {2, 4, 8} workers; a run halted after
/// its first superstep and resumed from the durable checkpoint must land
/// on the uninterrupted run's Pi bit for bit.
class KillResumeTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(KillResumeTest, ResumedPiIsBitIdentical) {
  const auto [seed, workers] = GetParam();
  auto [g1, g2] = RandomEntityGraphs(seed, 8);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  BspAllMatch clean(h.ctx, {.num_workers = workers});
  const ParallelResult baseline = clean.Run(roots);
  ASSERT_TRUE(baseline.status.ok());

  const std::string dir = TempPath("kr_" + std::to_string(seed) + "_" +
                                   std::to_string(workers));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const uint64_t fp = FingerprintSetup(h.g1, h.g2, h.ctx.params, seed);

  ParallelConfig interrupted_cfg{.num_workers = workers};
  interrupted_cfg.checkpoint = {.dir = dir,
                                .every_supersteps = 1,
                                .fingerprint = fp,
                                .halt_after_supersteps = 1};
  BspAllMatch interrupted(h.ctx, interrupted_cfg);
  const ParallelResult first = interrupted.Run(roots);
  ASSERT_TRUE(first.status.ok());
  if (!first.halted) {
    // Single-superstep fixpoint: nothing to resume; the run completed.
    EXPECT_EQ(first.matches, baseline.matches);
    return;
  }
  EXPECT_TRUE(first.matches.empty());
  EXPECT_GT(first.stats.disk_checkpoints, 0u);
  // One checkpoint file, no per-fragment files beside it.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"bsp.ckpt"});

  ParallelConfig resume_cfg{.num_workers = workers};
  resume_cfg.checkpoint = {.dir = dir, .every_supersteps = 1,
                           .resume = true, .fingerprint = fp};
  BspAllMatch resumed(h.ctx, resume_cfg);
  const ParallelResult second = resumed.Run(roots);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.resumed_from_checkpoint)
      << "seed=" << seed << " workers=" << workers;
  EXPECT_FALSE(second.halted);
  EXPECT_EQ(second.matches, baseline.matches)
      << "seed=" << seed << " workers=" << workers;
  EXPECT_EQ(second.supersteps, baseline.supersteps);
  EXPECT_EQ(second.unresolved_pairs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, KillResumeTest,
    ::testing::Combine(::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull),
                       ::testing::Values(2u, 4u, 8u)));

TEST(KillResumeTest, CorruptCheckpointFallsBackToColdStart) {
  auto [g1, g2] = RandomEntityGraphs(31, 8);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  BspAllMatch clean(h.ctx, {.num_workers = 4});
  const auto baseline = clean.Run(roots).matches;

  const std::string dir = TempPath("kr_corrupt");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(AtomicWriteFile(dir + "/bsp.ckpt", "not a snapshot").ok());

  ParallelConfig cfg{.num_workers = 4};
  cfg.checkpoint = {.dir = dir, .every_supersteps = 1, .resume = true,
                    .fingerprint = 99};
  BspAllMatch bsp(h.ctx, cfg);
  const ParallelResult r = bsp.Run(roots);
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.resumed_from_checkpoint);
  EXPECT_EQ(r.matches, baseline);
}

/// How a test damages one `bsp_frag<f>` section of a BSP checkpoint.
enum class SectionDamage {
  kNone,     // rewritten unchanged: the rewrite itself must stay resumable
  kDropped,  // section missing: it fails to open
  kFlipped,  // one payload byte flipped in the file: its CRC fails on open
  kCut,      // payload short by its last byte (CRC still valid): it fails
             // to decode
};
constexpr SectionDamage kAllDamage[] = {
    SectionDamage::kNone, SectionDamage::kDropped, SectionDamage::kFlipped,
    SectionDamage::kCut};

/// The payload bytes of section `name` (empty if it does not open).
std::string SectionBytes(const SnapshotReader& reader,
                         const std::string& name) {
  auto section = reader.Section(name);
  std::string bytes;
  uint8_t b = 0;
  while (section.ok() && section->GetU8(&b).ok()) {
    bytes.push_back(static_cast<char>(b));
  }
  return bytes;
}

/// Applies `damage` to section bsp_frag<fragment> of `dir`/bsp.ckpt. All
/// but kFlipped rewrite the file through SnapshotReader/SnapshotWriter,
/// copying every other section.
void DamageCheckpoint(const std::string& dir, uint32_t fragment,
                      SectionDamage damage) {
  const std::string path = dir + "/bsp.ckpt";
  auto file = ReadFileToString(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  auto reader = SnapshotReader::Parse(*file, SnapshotReader::kAnyFingerprint);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const std::string damaged = "bsp_frag" + std::to_string(fragment);
  ASSERT_TRUE(reader->HasSection(damaged)) << damaged;
  if (damage == SectionDamage::kFlipped) {
    const std::string bytes = SectionBytes(*reader, damaged);
    const size_t at = file->find(bytes);
    ASSERT_NE(at, std::string::npos) << damaged;
    (*file)[at + bytes.size() / 2] ^= 0x10;
    ASSERT_TRUE(AtomicWriteFile(path, *file).ok());
    return;
  }
  SnapshotWriter writer(reader->fingerprint());
  for (const std::string& name : reader->SectionNames()) {
    if (name == damaged && damage == SectionDamage::kDropped) continue;
    std::string bytes = SectionBytes(*reader, name);
    ASSERT_FALSE(bytes.empty()) << name;
    if (name == damaged && damage == SectionDamage::kCut) bytes.pop_back();
    writer.AddSection(name)->PutBytes(bytes.data(), bytes.size());
  }
  ASSERT_TRUE(writer.WriteToFile(path).ok());
}

/// Runs `roots` with a durable checkpoint in a fresh `dir` and halts after
/// `halt` supersteps. Returns the halted run's result.
ParallelResult HaltedRun(const ContextHarness& h,
                         const std::vector<VertexId>& roots,
                         uint32_t workers, const std::string& dir,
                         uint64_t fingerprint, size_t halt) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ParallelConfig cfg{.num_workers = workers};
  cfg.checkpoint = {.dir = dir, .every_supersteps = 1,
                    .fingerprint = fingerprint,
                    .halt_after_supersteps = halt};
  return BspAllMatch(h.ctx, cfg).Run(roots);
}

/// Resumes from `dir`'s checkpoint.
ParallelResult ResumedRun(const ContextHarness& h,
                          const std::vector<VertexId>& roots,
                          uint32_t workers, const std::string& dir,
                          uint64_t fingerprint) {
  ParallelConfig cfg{.num_workers = workers};
  cfg.checkpoint = {.dir = dir, .every_supersteps = 1, .resume = true,
                    .fingerprint = fingerprint};
  return BspAllMatch(h.ctx, cfg).Run(roots);
}

/// The resume contract: a run resumes only from a complete checkpoint.
/// For halts after 1-4 supersteps, an intact checkpoint (rewritten
/// section by section) resumes to the uninterrupted Pi, and any one
/// fragment section that is missing, fails its CRC or fails to decode
/// cold-starts the whole run to that same Pi. Seed 20 at 3 hash-partitioned workers is pinned: a
/// cold-started fragment beside restored peers (halt 3, fragment 1) lands
/// on a different fixpoint there, with (8, 8) as an extra match. Seeds
/// 18-23 rotate under HER_STRESS_SEED (see tools/run_stress.sh).
TEST(KillResumeTest, LostFragmentSectionResumeEqualsUninterrupted) {
  const char* env = std::getenv("HER_STRESS_SEED");
  const uint64_t offset = env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
  std::vector<uint64_t> seeds = {20};
  for (uint64_t s = 18; s <= 23; ++s) {
    if (s + offset != 20) seeds.push_back(s + offset);
  }
  constexpr uint32_t kWorkers = 3;
  for (const uint64_t seed : seeds) {
    auto [g1, g2] = RandomEntityGraphs(seed, 10);
    ContextHarness h(std::move(g1), std::move(g2), TestParams());
    const auto roots = ItemRoots(h.g1);
    const ParallelResult baseline =
        BspAllMatch(h.ctx, {.num_workers = kWorkers}).Run(roots);
    ASSERT_TRUE(baseline.status.ok());
    for (size_t halt = 1; halt <= 4; ++halt) {
      const std::string where =
          "seed=" + std::to_string(seed) + " halt=" + std::to_string(halt);
      const std::string dir = TempPath("kr_lost_" + std::to_string(seed) +
                                       "_" + std::to_string(halt));
      const ParallelResult first =
          HaltedRun(h, roots, kWorkers, dir, seed, halt);
      ASSERT_TRUE(first.status.ok()) << where;
      if (!first.halted) {
        EXPECT_EQ(first.matches, baseline.matches) << where;
        break;  // the fixpoint came first; later halts are the same run
      }
      for (uint32_t f = 0; f < kWorkers; ++f) {
        for (const SectionDamage damage : kAllDamage) {
          const std::string at = where + " f=" + std::to_string(f) +
                                 " damage=" +
                                 std::to_string(static_cast<int>(damage));
          const std::string copy = dir + "_copy";
          std::filesystem::remove_all(copy);
          std::filesystem::copy(dir, copy);
          DamageCheckpoint(copy, f, damage);
          const ParallelResult r =
              ResumedRun(h, roots, kWorkers, copy, seed);
          ASSERT_TRUE(r.status.ok()) << at;
          EXPECT_EQ(r.resumed_from_checkpoint, damage == SectionDamage::kNone)
              << at;
          EXPECT_EQ(r.matches, baseline.matches) << at;
          EXPECT_EQ(r.unresolved_pairs, 0u) << at;
        }
      }
    }
  }
}

/// One run with both a crash plan and a checkpoint dir: the boundary
/// capture a crash restores from is the one the durable write stores. The
/// run recovers, halts, and the resumed run lands on the fault-free Pi.
TEST(KillResumeTest, CrashPlanAndCheckpointShareOneCapture) {
  constexpr uint32_t kWorkers = 4;
  size_t halted_runs = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto [g1, g2] = RandomEntityGraphs(seed, 8);
    ContextHarness h(std::move(g1), std::move(g2), TestParams());
    const auto roots = ItemRoots(h.g1);
    const ParallelResult baseline =
        BspAllMatch(h.ctx, {.num_workers = kWorkers}).Run(roots);
    ASSERT_TRUE(baseline.status.ok());
    if (baseline.supersteps < 3) continue;  // halts only after round 2

    const std::string where = "seed=" + std::to_string(seed);
    const std::string dir = TempPath("kr_crash_" + std::to_string(seed));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    FaultPlan plan;
    plan.seed = seed;
    plan.crash = CrashFault{.worker = static_cast<uint32_t>(seed % kWorkers),
                            .superstep = 1};
    FaultInjector injector(plan);
    ParallelConfig cfg{.num_workers = kWorkers, .faults = &injector};
    cfg.checkpoint = {.dir = dir, .every_supersteps = 1, .fingerprint = seed,
                      .halt_after_supersteps = 2};
    const ParallelResult first = BspAllMatch(h.ctx, cfg).Run(roots);
    ASSERT_TRUE(first.status.ok()) << where;
    ASSERT_TRUE(first.halted) << where;
    ++halted_runs;
    EXPECT_EQ(first.stats.recoveries, 1u) << where;
    // One capture before round 0 and one at each of the two boundaries.
    EXPECT_EQ(first.stats.checkpoints, 3 * kWorkers) << where;
    EXPECT_EQ(first.stats.disk_checkpoints, 2u) << where;

    const ParallelResult r = ResumedRun(h, roots, kWorkers, dir, seed);
    ASSERT_TRUE(r.status.ok()) << where;
    EXPECT_TRUE(r.resumed_from_checkpoint) << where;
    EXPECT_EQ(r.matches, baseline.matches) << where;
    EXPECT_EQ(r.supersteps, baseline.supersteps) << where;
    EXPECT_EQ(r.unresolved_pairs, 0u) << where;
  }
  EXPECT_GT(halted_runs, 0u);
}

/// All bytes left in `r`.
std::string Drain(ByteReader r) {
  std::string out;
  uint8_t b = 0;
  while (r.GetU8(&b).ok()) out.push_back(static_cast<char>(b));
  return out;
}

/// A mid-run fragment capture (the `bsp_frag<f>` section of a checkpoint
/// halted after two supersteps) loads into a fresh fragment and saves back
/// to the same bytes, with the flat-table subscriber, notified-false and
/// assumption sets all in play.
TEST(FragmentStateTest, MidRunSaveLoadSaveIsByteIdentical) {
  constexpr uint32_t kWorkers = 4;
  size_t subscribers = 0;
  size_t notified_false = 0;
  size_t assumed = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto [g1, g2] = RandomEntityGraphs(seed, 10);
    ContextHarness h(std::move(g1), std::move(g2), TestParams());
    const std::string dir = TempPath("frag_rt_" + std::to_string(seed));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ParallelConfig cfg{.num_workers = kWorkers};
    cfg.checkpoint = {.dir = dir, .every_supersteps = 1,
                      .halt_after_supersteps = 2};
    const ParallelResult halted = BspAllMatch(h.ctx, cfg).Run(ItemRoots(h.g1));
    ASSERT_TRUE(halted.status.ok());
    if (!halted.halted) continue;  // fixpoint within two supersteps
    auto snap = SnapshotReader::Open(dir + "/bsp.ckpt",
                                     SnapshotReader::kAnyFingerprint);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    for (uint32_t f = 0; f < kWorkers; ++f) {
      const std::string where =
          "seed=" + std::to_string(seed) + " fragment=" + std::to_string(f);
      auto section = snap->Section("bsp_frag" + std::to_string(f));
      ASSERT_TRUE(section.ok()) << where;
      const std::string bytes = Drain(*section);
      Worker w(h.ctx);
      ByteReader r(bytes);
      ASSERT_TRUE(LoadWorker(&r, &w).ok()) << where;
      ByteWriter again;
      SaveWorker(w, &again);
      EXPECT_EQ(again.data(), bytes) << where;
      subscribers += w.subscribers.Size();
      notified_false += w.notified_false.Size();
      assumed += w.assumed.Size();
    }
  }
  EXPECT_GT(subscribers, 0u);
  EXPECT_GT(notified_false, 0u);
  EXPECT_GT(assumed, 0u);
}

TEST(KillResumeTest, StaleFingerprintFallsBackToColdStart) {
  auto [g1, g2] = RandomEntityGraphs(32, 8);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  BspAllMatch clean(h.ctx, {.num_workers = 4});
  const auto baseline = clean.Run(roots).matches;

  const std::string dir = TempPath("kr_stale");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ParallelConfig halt_cfg{.num_workers = 4};
  halt_cfg.checkpoint = {.dir = dir, .every_supersteps = 1,
                         .fingerprint = 1, .halt_after_supersteps = 1};
  const ParallelResult first = BspAllMatch(h.ctx, halt_cfg).Run(roots);
  ASSERT_TRUE(first.status.ok());
  if (!first.halted) GTEST_SKIP() << "single-superstep fixpoint";

  // Same file, different fingerprint: the checkpoint is stale, the run
  // must start cold and still produce the right Pi.
  ParallelConfig resume_cfg{.num_workers = 4};
  resume_cfg.checkpoint = {.dir = dir, .every_supersteps = 1,
                           .resume = true, .fingerprint = 2};
  const ParallelResult r = BspAllMatch(h.ctx, resume_cfg).Run(roots);
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.resumed_from_checkpoint);
  EXPECT_EQ(r.matches, baseline);
}

TEST(KillResumeTest, ChangedWorkerCountFallsBackToColdStart) {
  auto [g1, g2] = RandomEntityGraphs(33, 8);
  ContextHarness h(std::move(g1), std::move(g2), TestParams());
  const auto roots = ItemRoots(h.g1);
  BspAllMatch clean(h.ctx, {.num_workers = 2});
  const auto baseline = clean.Run(roots).matches;

  const std::string dir = TempPath("kr_workers");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ParallelConfig halt_cfg{.num_workers = 4};
  halt_cfg.checkpoint = {.dir = dir, .every_supersteps = 1,
                         .fingerprint = 7, .halt_after_supersteps = 1};
  const ParallelResult first = BspAllMatch(h.ctx, halt_cfg).Run(roots);
  ASSERT_TRUE(first.status.ok());
  if (!first.halted) GTEST_SKIP() << "single-superstep fixpoint";

  ParallelConfig resume_cfg{.num_workers = 2};
  resume_cfg.checkpoint = {.dir = dir, .every_supersteps = 1,
                           .resume = true, .fingerprint = 7};
  const ParallelResult r = BspAllMatch(h.ctx, resume_cfg).Run(roots);
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.resumed_from_checkpoint);
  EXPECT_EQ(r.matches, baseline);
}

// --- HerSystem warm start -----------------------------------------------

TEST(WarmStartTest, TrainOrLoadSkipsRetrainAndPtableBuild) {
  DatasetSpec spec = UkgovSpec(/*seed=*/5);
  spec.num_entities = 40;
  const GeneratedDataset data = Generate(spec);
  const AnnotationSplit split = SplitAnnotations(data.annotations);
  const std::string snap = TempPath("warm_model.snap");
  std::filesystem::remove(snap);

  HerSystem cold(data.canonical, data.g, HerConfig{});
  cold.TrainOrLoad(snap, data.path_pairs, split.validation);
  ASSERT_TRUE(cold.trained());
  ASSERT_TRUE(std::filesystem::exists(snap));
  const auto cold_pi = cold.APair();

  HerSystem warm(data.canonical, data.g, HerConfig{});
  warm.TrainOrLoad(snap, data.path_pairs, split.validation);
  ASSERT_TRUE(warm.trained());
  // The warm start restored everything: no property-table build ran, and
  // the restore time is accounted.
  EXPECT_EQ(warm.engine().stats().ptable_build_seconds, 0.0);
  EXPECT_GT(warm.engine().stats().snapshot_load_seconds, 0.0);
  EXPECT_EQ(warm.params().sigma, cold.params().sigma);
  EXPECT_EQ(warm.params().delta, cold.params().delta);
  EXPECT_EQ(warm.params().k, cold.params().k);
  EXPECT_EQ(warm.APair(), cold_pi);
  EXPECT_EQ(warm.Fingerprint(), cold.Fingerprint());
}

TEST(WarmStartTest, CorruptSnapshotRebuildsCold) {
  DatasetSpec spec = UkgovSpec(/*seed=*/6);
  spec.num_entities = 30;
  const GeneratedDataset data = Generate(spec);
  const AnnotationSplit split = SplitAnnotations(data.annotations);
  const std::string snap = TempPath("warm_corrupt.snap");
  ASSERT_TRUE(AtomicWriteFile(snap, "garbage, not a snapshot").ok());

  HerSystem sys(data.canonical, data.g, HerConfig{});
  sys.TrainOrLoad(snap, data.path_pairs, split.validation);
  ASSERT_TRUE(sys.trained());

  HerSystem reference(data.canonical, data.g, HerConfig{});
  reference.Train(data.path_pairs, split.validation);
  EXPECT_EQ(sys.APair(), reference.APair());
  // TrainOrLoad healed the snapshot: a third system warm-starts from it.
  HerSystem healed(data.canonical, data.g, HerConfig{});
  healed.TrainOrLoad(snap, data.path_pairs, split.validation);
  EXPECT_EQ(healed.engine().stats().ptable_build_seconds, 0.0);
  EXPECT_EQ(healed.APair(), reference.APair());
}

// --- ANN index snapshot section -----------------------------------------

HerConfig AnnModeConfig() {
  HerConfig config;
  config.candidate_gen.mode = CandidateMode::kAnn;
  config.candidate_gen.nprobe = 4;
  return config;
}

TEST(WarmStartTest, AnnIndexSectionRoundTripsThroughSnapshot) {
  DatasetSpec spec = UkgovSpec(/*seed=*/7);
  spec.num_entities = 30;
  const GeneratedDataset data = Generate(spec);
  const AnnotationSplit split = SplitAnnotations(data.annotations);
  const std::string snap = TempPath("warm_ann.snap");
  std::filesystem::remove(snap);

  HerSystem cold(data.canonical, data.g, AnnModeConfig());
  cold.TrainOrLoad(snap, data.path_pairs, split.validation);
  ASSERT_TRUE(cold.trained());
  ASSERT_NE(cold.ann_index(), nullptr);
  const auto cold_pi = cold.APair();

  HerSystem warm(data.canonical, data.g, AnnModeConfig());
  warm.TrainOrLoad(snap, data.path_pairs, split.validation);
  // Fully warm: no ptable build, and the restored index is structurally
  // identical to the one the cold run built and saved.
  EXPECT_EQ(warm.engine().stats().ptable_build_seconds, 0.0);
  ASSERT_NE(warm.ann_index(), nullptr);
  EXPECT_TRUE(*warm.ann_index() == *cold.ann_index());
  EXPECT_EQ(warm.APair(), cold_pi);
}

TEST(WarmStartTest, MissingAnnSectionRebuildsJustTheIndex) {
  DatasetSpec spec = UkgovSpec(/*seed=*/8);
  spec.num_entities = 30;
  const GeneratedDataset data = Generate(spec);
  const AnnotationSplit split = SplitAnnotations(data.annotations);
  const std::string snap = TempPath("warm_ann_missing.snap");
  std::filesystem::remove(snap);

  // The snapshot predates ANN mode: written by an exact-mode system, so
  // it has no "ann_index" section.
  HerSystem exact(data.canonical, data.g, HerConfig{});
  exact.TrainOrLoad(snap, data.path_pairs, split.validation);
  ASSERT_TRUE(std::filesystem::exists(snap));

  // ANN-mode warm start: models/ptable/params restore warm (NotFound on
  // the section only rebuilds the index).
  HerSystem ann(data.canonical, data.g, AnnModeConfig());
  ann.TrainOrLoad(snap, data.path_pairs, split.validation);
  EXPECT_EQ(ann.engine().stats().ptable_build_seconds, 0.0);
  ASSERT_NE(ann.ann_index(), nullptr);
  EXPECT_GT(ann.ann_index()->num_lists(), 0u);

  // The rebuild self-primed the snapshot: a third system restores the
  // very same index without building.
  HerSystem healed(data.canonical, data.g, AnnModeConfig());
  healed.TrainOrLoad(snap, data.path_pairs, split.validation);
  ASSERT_NE(healed.ann_index(), nullptr);
  EXPECT_TRUE(*healed.ann_index() == *ann.ann_index());
  EXPECT_EQ(healed.APair(), ann.APair());
}

TEST(WarmStartTest, CorruptSnapshotColdRebuildsAnnCleanly) {
  DatasetSpec spec = UkgovSpec(/*seed=*/9);
  spec.num_entities = 30;
  const GeneratedDataset data = Generate(spec);
  const AnnotationSplit split = SplitAnnotations(data.annotations);
  const std::string snap = TempPath("warm_ann_corrupt.snap");
  ASSERT_TRUE(AtomicWriteFile(snap, "garbage, not a snapshot").ok());

  HerSystem sys(data.canonical, data.g, AnnModeConfig());
  sys.TrainOrLoad(snap, data.path_pairs, split.validation);
  ASSERT_TRUE(sys.trained());
  ASSERT_NE(sys.ann_index(), nullptr);

  HerSystem reference(data.canonical, data.g, AnnModeConfig());
  reference.Train(data.path_pairs, split.validation);
  ASSERT_NE(reference.ann_index(), nullptr);
  EXPECT_TRUE(*sys.ann_index() == *reference.ann_index());
  EXPECT_EQ(sys.APair(), reference.APair());
}

}  // namespace
}  // namespace her
