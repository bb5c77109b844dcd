#include "graph/partition.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace her {

namespace {

/// Streaming greedy (LDG-style) assignment. Needs in-neighbors as well as
/// out-neighbors: the CSR only stores out-edges, so a counting-sort pass
/// builds the reverse adjacency first (O(|V| + |E|), id-ordered and
/// therefore deterministic).
void AssignEdgeCut(const Graph& g, uint32_t n, std::vector<uint32_t>* owner) {
  const size_t nv = g.num_vertices();
  std::vector<uint32_t> rev_offsets(nv + 1, 0);
  for (VertexId v = 0; v < nv; ++v) {
    for (const Edge& e : g.OutEdges(v)) ++rev_offsets[e.dst + 1];
  }
  for (size_t i = 1; i <= nv; ++i) rev_offsets[i] += rev_offsets[i - 1];
  std::vector<VertexId> rev_srcs(g.num_edges());
  {
    std::vector<uint32_t> cursor(rev_offsets.begin(), rev_offsets.end() - 1);
    for (VertexId v = 0; v < nv; ++v) {
      for (const Edge& e : g.OutEdges(v)) rev_srcs[cursor[e.dst]++] = v;
    }
  }

  // Hard capacity bound: ~10% slack over a perfectly even split, so the
  // greedy pull toward dense clusters cannot starve other fragments.
  const size_t ideal = (nv + n - 1) / std::max<size_t>(n, 1);
  const size_t cap = std::max<size_t>(1, ideal + (ideal + 9) / 10);

  std::vector<size_t> sizes(n, 0);
  std::vector<uint32_t> score(n, 0);
  std::vector<uint32_t> touched;
  touched.reserve(n);
  for (VertexId v = 0; v < nv; ++v) {
    const auto tally = [&](VertexId nb) {
      if (nb >= v) return;  // only already-placed neighbors count
      const uint32_t f = (*owner)[nb];
      if (score[f]++ == 0) touched.push_back(f);
    };
    for (const Edge& e : g.OutEdges(v)) tally(e.dst);
    for (uint32_t i = rev_offsets[v]; i < rev_offsets[v + 1]; ++i) {
      tally(rev_srcs[i]);
    }
    // Best-scoring fragment with room; ties -> smaller, then lower id.
    uint32_t best = n;
    std::sort(touched.begin(), touched.end());
    for (const uint32_t f : touched) {
      if (sizes[f] >= cap) continue;
      if (best == n || score[f] > score[best] ||
          (score[f] == score[best] && sizes[f] < sizes[best])) {
        best = f;
      }
    }
    if (best == n) {  // no placed neighbor with room: least-loaded fragment
      best = 0;
      for (uint32_t f = 1; f < n; ++f) {
        if (sizes[f] < sizes[best]) best = f;
      }
    }
    (*owner)[v] = best;
    ++sizes[best];
    for (const uint32_t f : touched) score[f] = 0;
    touched.clear();
  }
}

}  // namespace

VertexPartition PartitionVertices(const Graph& g, uint32_t n,
                                  PartitionStrategy strategy) {
  HER_CHECK(n > 0);
  const size_t nv = g.num_vertices();
  VertexPartition part;
  part.num_fragments = n;
  part.owner.resize(nv);
  part.border.assign(n, {});

  if (strategy == PartitionStrategy::kEdgeCut) {
    AssignEdgeCut(g, n, &part.owner);
  } else {
    for (VertexId v = 0; v < nv; ++v) {
      uint32_t f = 0;
      switch (strategy) {
        case PartitionStrategy::kHash:
          f = static_cast<uint32_t>(Mix64(v) % n);
          break;
        case PartitionStrategy::kRange: {
          const size_t chunk = (nv + n - 1) / std::max<size_t>(n, 1);
          f = static_cast<uint32_t>(chunk == 0 ? 0 : v / chunk);
          if (f >= n) f = n - 1;
          break;
        }
        case PartitionStrategy::kEdgeCut:
          break;  // handled above
      }
      part.owner[v] = f;
    }
  }

  // Border nodes O_i: targets of cross-fragment edges out of fragment i.
  // Collected as vectors + sort/unique rather than hash sets: at millions
  // of vertices the set insertions dominated the whole partitioning pass.
  std::vector<size_t> sizes(n, 0);
  for (VertexId v = 0; v < nv; ++v) {
    const uint32_t f = part.owner[v];
    ++sizes[f];
    for (const Edge& e : g.OutEdges(v)) {
      if (part.owner[e.dst] != f) {
        part.border[f].push_back(e.dst);
        ++part.edge_cut_edges;
      }
    }
  }
  for (uint32_t f = 0; f < n; ++f) {
    auto& b = part.border[f];
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    part.border_vertices += b.size();
  }
  if (nv > 0) {
    const size_t largest = *std::max_element(sizes.begin(), sizes.end());
    part.max_fragment_imbalance =
        static_cast<double>(largest) /
        (static_cast<double>(nv) / static_cast<double>(n));
  }
  return part;
}

}  // namespace her
