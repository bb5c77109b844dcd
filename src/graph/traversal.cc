#include "graph/traversal.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/flat_table.h"

namespace her {

std::vector<VertexId> ReachableFrom(const Graph& g, VertexId root,
                                    size_t max_depth) {
  std::vector<VertexId> out;
  std::vector<char> seen(g.num_vertices(), 0);
  seen[root] = 1;
  std::deque<std::pair<VertexId, size_t>> queue;
  queue.emplace_back(root, 0);
  while (!queue.empty()) {
    auto [v, d] = queue.front();
    queue.pop_front();
    if (max_depth != 0 && d >= max_depth) continue;
    for (const Edge& e : g.OutEdges(v)) {
      if (!seen[e.dst]) {
        seen[e.dst] = 1;
        out.push_back(e.dst);
        queue.emplace_back(e.dst, d + 1);
      }
    }
  }
  return out;
}

double PraScore(const std::vector<size_t>& out_degrees) {
  double r = 1.0;
  for (const size_t d : out_degrees) {
    HER_DCHECK(d > 0);
    r /= static_cast<double>(d);
  }
  return r;
}

namespace {

constexpr uint32_t kNoHop = std::numeric_limits<uint32_t>::max();

// One hop of a frozen best path: parent-linked back towards the root.
struct PraHop {
  uint32_t parent;  // kNoHop for the first hop out of the root
  LabelId label;
  double pra;
};

// A descendant reached so far: its best path's last hop, and that hop's
// index in `hops` once the layer that found it has ended.
struct PraNode {
  VertexId v;
  uint32_t hop;  // kNoHop while its layer runs
  PraHop last;
};

// Per-thread working memory of MaxPraPaths, reused across calls: the
// nodes are numbered by a vertex index, so a call clears only what it
// used.
struct PraScratch {
  // Starts a call: forgets the previous call's nodes and hops.
  void Reset() {
    index.Reset();
    nodes.clear();
    hops.clear();
  }

  // Index of v's node, inserting a fresh one (second = true) if absent.
  std::pair<uint32_t, bool> FindOrInsert(VertexId v) {
    const auto found = index.FindOrInsert(v);
    if (found.second) nodes.push_back(PraNode{v, kNoHop, {}});
    return found;
  }

  FirstSeenIndex index;
  std::vector<PraNode> nodes;
  std::vector<PraHop> hops;
  std::vector<std::pair<VertexId, uint32_t>> frontier;  // (vertex, hop)
  std::vector<uint32_t> improved;                       // node indices
};

}  // namespace

std::vector<PraPath> MaxPraPaths(const Graph& g, VertexId root,
                                 size_t max_len, size_t limit) {
  // Layered relaxation over paths of length 1..max_len. Each layer's best
  // paths are frozen as parent-linked hops when the layer ends: a node's
  // best path may later move to a longer, higher-PRA one, so a
  // descendant's labels are never rebuilt by walking its predecessor's
  // current best.
  thread_local PraScratch scratch;
  PraScratch& s = scratch;
  s.Reset();
  s.frontier.assign(1, {root, kNoHop});

  for (size_t len = 1; len <= max_len && !s.frontier.empty(); ++len) {
    s.improved.clear();
    for (const auto& [v, from] : s.frontier) {
      const size_t deg = g.OutDegree(v);
      if (deg == 0) continue;
      const double child_pra = (from == kNoHop ? 1.0 : s.hops[from].pra) /
                               static_cast<double>(deg);
      for (const Edge& e : g.OutEdges(v)) {
        if (e.dst == root) continue;  // a cycle back to the root is useless
        const auto [idx, fresh] = s.FindOrInsert(e.dst);
        PraNode& n = s.nodes[idx];
        if (!fresh && child_pra <= n.last.pra) continue;
        if (fresh || n.hop != kNoHop) s.improved.push_back(idx);
        n.last = PraHop{from, e.label, child_pra};
        n.hop = kNoHop;
      }
    }
    s.frontier.clear();
    for (const uint32_t idx : s.improved) {
      PraNode& n = s.nodes[idx];
      n.hop = static_cast<uint32_t>(s.hops.size());
      s.hops.push_back(n.last);
      s.frontier.emplace_back(n.v, n.hop);
    }
    // Deterministic relaxation order across runs.
    std::sort(s.frontier.begin(), s.frontier.end());
  }

  // (pra desc, endpoint asc) is a strict total order over distinct
  // endpoints, so the first `limit` of a partial sort are exactly the
  // first `limit` of the full sort. The index keeps its own keys, so
  // Reset still clears their slots after the sort.
  const auto before = [](const PraNode& x, const PraNode& y) {
    if (x.last.pra != y.last.pra) return x.last.pra > y.last.pra;
    return x.v < y.v;
  };
  const size_t kept = std::min(limit, s.nodes.size());
  if (kept < s.nodes.size()) {
    std::partial_sort(s.nodes.begin(), s.nodes.begin() + kept, s.nodes.end(),
                      before);
  } else {
    std::sort(s.nodes.begin(), s.nodes.end(), before);
  }

  std::vector<PraPath> out(kept);
  for (size_t i = 0; i < kept; ++i) {
    const PraNode& n = s.nodes[i];
    PraPath& p = out[i];
    p.pra = n.last.pra;
    p.path.endpoint = n.v;
    size_t len = 0;
    for (uint32_t h = n.hop; h != kNoHop; h = s.hops[h].parent) ++len;
    p.path.labels.resize(len);
    for (uint32_t h = n.hop; h != kNoHop; h = s.hops[h].parent) {
      p.path.labels[--len] = s.hops[h].label;
    }
  }
  return out;
}

bool HasCycle(const Graph& g) {
  const size_t n = g.num_vertices();
  std::vector<uint32_t> indeg(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    for (const Edge& e : g.OutEdges(v)) ++indeg[e.dst];
  }
  std::deque<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    if (indeg[v] == 0) queue.push_back(v);
  }
  size_t removed = 0;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    ++removed;
    for (const Edge& e : g.OutEdges(v)) {
      if (--indeg[e.dst] == 0) queue.push_back(e.dst);
    }
  }
  return removed != n;
}

}  // namespace her
