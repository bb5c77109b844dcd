// Partitioner and wire-format tests (see DESIGN.md "100x scale"): the
// streaming edge-cut partitioner's structural invariants, capacity bound
// and determinism; kEdgeCut producing a bit-identical Pi to kHash across
// worker counts and under the injected-fault matrix (partitioning is a
// placement choice, never a semantics choice); and the varint-delta
// message frame codec — lossless round-trips, and Status (never UB, never
// unbounded allocation) on truncated, garbled or overflowing frames.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "graph/partition.h"
#include "parallel/bsp_engine.h"
#include "parallel/fault_injection.h"
#include "parallel/wire_format.h"
#include "tests/test_util.h"

namespace her {
namespace {

using testutil::ContextHarness;
using testutil::ItemRoots;
using testutil::RandomEntityGraphs;

SimulationParams TestParams() { return {.sigma = 0.99, .delta = 0.9, .k = 4}; }

Graph TestGraph(uint64_t seed) {
  auto [g1, g2] = RandomEntityGraphs(seed, 24);
  (void)g1;
  return std::move(g2);
}

// Fragment -> the vertices it owns, in id order, derived from `owner`.
std::vector<std::vector<VertexId>> OwnedLists(const VertexPartition& part) {
  std::vector<std::vector<VertexId>> owned(part.num_fragments);
  for (VertexId v = 0; v < part.owner.size(); ++v) {
    owned[part.owner[v]].push_back(v);
  }
  return owned;
}

// --- partitioner invariants ------------------------------------------------

class PartitionStrategyTest
    : public ::testing::TestWithParam<PartitionStrategy> {};

TEST_P(PartitionStrategyTest, OwnerOwnedBorderConsistent) {
  const Graph g = TestGraph(41);
  for (const uint32_t n : {1u, 2u, 4u, 8u}) {
    const VertexPartition part = PartitionVertices(g, n, GetParam());
    ASSERT_EQ(part.num_fragments, n);
    ASSERT_EQ(part.owner.size(), g.num_vertices());
    ASSERT_EQ(part.border.size(), n);

    // Every vertex has one owner in range; Owns agrees with it.
    const std::vector<std::vector<VertexId>> owned = OwnedLists(part);
    std::vector<size_t> sizes(n, 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_LT(part.owner[v], n);
      ++sizes[part.owner[v]];
      for (uint32_t f = 0; f < n; ++f) {
        EXPECT_EQ(part.Owns(f, v), f == part.owner[v]);
      }
    }
    // The imbalance is the largest fragment over an even split.
    EXPECT_DOUBLE_EQ(part.max_fragment_imbalance,
                     static_cast<double>(
                         *std::max_element(sizes.begin(), sizes.end())) /
                         (static_cast<double>(g.num_vertices()) / n));

    // border[i] = O_i: exactly the out-neighbors of fragment i's vertices
    // that i does not own, sorted and deduplicated.
    size_t cut = 0;
    size_t border_total = 0;
    for (uint32_t f = 0; f < n; ++f) {
      std::set<VertexId> expected;
      for (const VertexId v : owned[f]) {
        for (const Edge& e : g.OutEdges(v)) {
          if (part.owner[e.dst] != f) {
            expected.insert(e.dst);
            ++cut;
          }
        }
      }
      EXPECT_TRUE(std::is_sorted(part.border[f].begin(),
                                 part.border[f].end()));
      EXPECT_EQ(std::vector<VertexId>(expected.begin(), expected.end()),
                part.border[f]);
      border_total += part.border[f].size();
    }
    EXPECT_EQ(part.edge_cut_edges, cut);
    EXPECT_EQ(part.border_vertices, border_total);
    EXPECT_GE(part.max_fragment_imbalance, 1.0);
    EXPECT_LE(part.EdgeCutFraction(g), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PartitionStrategyTest,
                         ::testing::Values(PartitionStrategy::kHash,
                                           PartitionStrategy::kRange,
                                           PartitionStrategy::kEdgeCut));

TEST(PartitionTest, EdgeCutRespectsCapacityBound) {
  const Graph g = TestGraph(42);
  for (const uint32_t n : {2u, 3u, 4u, 8u, 16u}) {
    const VertexPartition part =
        PartitionVertices(g, n, PartitionStrategy::kEdgeCut);
    const size_t ideal = (g.num_vertices() + n - 1) / n;
    const size_t cap = std::max<size_t>(1, ideal + (ideal + 9) / 10);
    for (const auto& frag : OwnedLists(part)) EXPECT_LE(frag.size(), cap);
  }
}

TEST(PartitionTest, EdgeCutIsDeterministic) {
  const Graph g = TestGraph(43);
  const VertexPartition a =
      PartitionVertices(g, 4, PartitionStrategy::kEdgeCut);
  const VertexPartition b =
      PartitionVertices(g, 4, PartitionStrategy::kEdgeCut);
  EXPECT_EQ(a.owner, b.owner);
  EXPECT_EQ(a.edge_cut_edges, b.edge_cut_edges);
}

TEST(PartitionTest, EdgeCutCutsFewerEdgesThanHashOnEntityGraph) {
  // The entity graphs are clusters of attribute subtrees: a neighborhood-
  // aware placement must beat data-oblivious hashing on them.
  const Graph g = TestGraph(44);
  for (const uint32_t n : {4u, 8u}) {
    const VertexPartition ec =
        PartitionVertices(g, n, PartitionStrategy::kEdgeCut);
    const VertexPartition hash =
        PartitionVertices(g, n, PartitionStrategy::kHash);
    EXPECT_LT(ec.edge_cut_edges, hash.edge_cut_edges);
    EXPECT_LE(ec.border_vertices, hash.border_vertices);
  }
}

TEST(PartitionTest, SingleFragmentHasNoCut) {
  const Graph g = TestGraph(45);
  const VertexPartition part =
      PartitionVertices(g, 1, PartitionStrategy::kEdgeCut);
  EXPECT_EQ(part.edge_cut_edges, 0u);
  EXPECT_EQ(part.border_vertices, 0u);
  EXPECT_DOUBLE_EQ(part.max_fragment_imbalance, 1.0);
}

// --- kEdgeCut == kHash on Pi ----------------------------------------------

/// Partitioning decides placement only: whatever the strategy, worker
/// count or injected faults, the BSP fixpoint must land on the same Pi.
TEST(PartitionTest, EdgeCutMatchesHashPiAcrossWorkers) {
  for (const uint64_t seed : {51ull, 52ull}) {
    auto [g1, g2] = RandomEntityGraphs(seed, 10);
    ContextHarness h(std::move(g1), std::move(g2), TestParams());
    const auto roots = ItemRoots(h.g1);
    BspAllMatch hash_run(h.ctx, {.num_workers = 4});
    const ParallelResult expected = hash_run.Run(roots);
    ASSERT_TRUE(expected.status.ok());
    for (const uint32_t workers : {1u, 4u, 8u}) {
      ParallelConfig cfg;
      cfg.num_workers = workers;
      cfg.strategy = PartitionStrategy::kEdgeCut;
      BspAllMatch ec(h.ctx, cfg);
      const ParallelResult got = ec.Run(roots);
      ASSERT_TRUE(got.status.ok());
      EXPECT_EQ(got.matches, expected.matches)
          << "seed " << seed << ", " << workers << " workers";
      if (workers > 1) {
        EXPECT_LE(got.partition.edge_cut_fraction, 1.0);
      }
    }
  }
}

TEST(PartitionTest, EdgeCutRecoversFaultMatrixPi) {
  for (const uint64_t seed : {61ull, 62ull}) {
    auto [g1, g2] = RandomEntityGraphs(seed, 8);
    ContextHarness h(std::move(g1), std::move(g2), TestParams());
    const auto roots = ItemRoots(h.g1);
    BspAllMatch clean(h.ctx, {.num_workers = 4,
                              .strategy = PartitionStrategy::kEdgeCut});
    const std::vector<MatchPair> expected = clean.Run(roots).matches;

    for (const bool crash : {true, false}) {  // crash, duplicate
      FaultPlan plan;
      plan.seed = seed;
      if (crash) {
        plan.crash = CrashFault{.worker = static_cast<uint32_t>(seed % 4),
                                .superstep = 1};
      } else {
        plan.dup_prob = 0.5;
      }
      FaultInjector injector(plan);
      ParallelConfig cfg;
      cfg.num_workers = 4;
      cfg.strategy = PartitionStrategy::kEdgeCut;
      cfg.faults = &injector;
      BspAllMatch faulted(h.ctx, cfg);
      const ParallelResult got = faulted.Run(roots);
      ASSERT_TRUE(got.status.ok());
      EXPECT_EQ(got.matches, expected)
          << "seed " << seed << (crash ? ", crash" : ", duplicate");
    }
  }
}

// --- wire format -----------------------------------------------------------

std::vector<MatchPair> RandomSortedPairs(Rng& rng, size_t n,
                                         bool with_dups) {
  std::vector<MatchPair> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(static_cast<VertexId>(rng.Below(1u << 20)),
                     static_cast<VertexId>(rng.Below(1u << 20)));
    if (with_dups && !out.empty() && rng.Chance(0.2)) {
      out.push_back(out.back());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(WireFormatTest, RoundTripsSortedPairsWithDuplicates) {
  Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    const auto reqs = RandomSortedPairs(rng, rng.Below(200), true);
    const auto invs = RandomSortedPairs(rng, rng.Below(200), true);
    ByteWriter w;
    EncodeMessageFrame(reqs, invs, &w);
    EXPECT_LE(w.data().size(), RawFrameBytes(reqs.size(), invs.size()) + 16);
    ByteReader r(w.data());
    std::vector<MatchPair> dec_reqs, dec_invs;
    ASSERT_TRUE(DecodeMessageFrame(&r, &dec_reqs, &dec_invs).ok());
    EXPECT_EQ(dec_reqs, reqs);
    EXPECT_EQ(dec_invs, invs);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(WireFormatTest, RoundTripsEmptyFrame) {
  ByteWriter w;
  EncodeMessageFrame({}, {}, &w);
  ByteReader r(w.data());
  std::vector<MatchPair> reqs, invs;
  ASSERT_TRUE(DecodeMessageFrame(&r, &reqs, &invs).ok());
  EXPECT_TRUE(reqs.empty());
  EXPECT_TRUE(invs.empty());
}

TEST(WireFormatTest, DecodesConsecutiveFrames) {
  const std::vector<MatchPair> a = {{1, 2}, {1, 5}, {3, 0}};
  const std::vector<MatchPair> b = {{7, 7}};
  ByteWriter w;
  EncodeMessageFrame(a, {}, &w);
  EncodeMessageFrame({}, b, &w);
  ByteReader r(w.data());
  std::vector<MatchPair> reqs, invs;
  ASSERT_TRUE(DecodeMessageFrame(&r, &reqs, &invs).ok());
  EXPECT_EQ(reqs, a);
  EXPECT_TRUE(invs.empty());
  reqs.clear();
  ASSERT_TRUE(DecodeMessageFrame(&r, &reqs, &invs).ok());
  EXPECT_TRUE(reqs.empty());
  EXPECT_EQ(invs, b);
}

TEST(WireFormatTest, BadMagicIsAnError) {
  ByteWriter w;
  w.PutU8(0x00);
  w.PutVarint(0);
  w.PutVarint(0);
  ByteReader r(w.data());
  std::vector<MatchPair> reqs, invs;
  EXPECT_FALSE(DecodeMessageFrame(&r, &reqs, &invs).ok());
}

TEST(WireFormatTest, OverflowingCountIsAnErrorNotAnAllocation) {
  // A claimed count far beyond the bytes that remain must be rejected
  // before any reserve happens.
  ByteWriter w;
  w.PutU8(kWireFrameMagic);
  w.PutVarint(uint64_t{1} << 40);
  ByteReader r(w.data());
  std::vector<MatchPair> reqs, invs;
  EXPECT_FALSE(DecodeMessageFrame(&r, &reqs, &invs).ok());
}

TEST(WireFormatTest, TruncationsAndGarblingYieldStatusNotUb) {
  Rng rng(72);
  const auto reqs = RandomSortedPairs(rng, 40, true);
  const auto invs = RandomSortedPairs(rng, 40, true);
  ByteWriter w;
  EncodeMessageFrame(reqs, invs, &w);
  const std::string& frame = w.data();

  // Every strict prefix must fail cleanly.
  for (size_t len = 0; len < frame.size(); ++len) {
    ByteReader r(std::string_view(frame.data(), len));
    std::vector<MatchPair> dr, di;
    const Status st = DecodeMessageFrame(&r, &dr, &di);
    EXPECT_FALSE(st.ok()) << "prefix length " << len;
  }

  // Random single-byte corruption: decode must return (ok or error),
  // never crash. An ok decode of a garbled frame is acceptable only if
  // the result is still sorted pairs (the codec's postcondition).
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbled = frame;
    garbled[rng.Below(garbled.size())] =
        static_cast<char>(rng.Below(256));
    ByteReader r(garbled);
    std::vector<MatchPair> dr, di;
    const Status st = DecodeMessageFrame(&r, &dr, &di);
    if (st.ok()) {
      EXPECT_TRUE(std::is_sorted(dr.begin(), dr.end()));
      EXPECT_TRUE(std::is_sorted(di.begin(), di.end()));
    }
  }
}

}  // namespace
}  // namespace her
