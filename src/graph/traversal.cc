#include "graph/traversal.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/check.h"

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

std::vector<PraPath> MaxPraPaths(const Graph& g, VertexId root,
                                 size_t max_len) {
  // Layered relaxation over paths of length 1..max_len. Each layer's best
  // paths are frozen as parent-linked hops when the layer ends: best[v] may
  // later move to a longer, higher-PRA path, so a descendant's labels are
  // never rebuilt by walking best[pred].
  constexpr size_t kNone = static_cast<size_t>(-1);
  struct Hop {
    size_t parent;  // kNone for the first hop out of the root
    LabelId label;
    double pra;
  };
  struct Best {
    Hop last;            // last hop of the best path found so far
    size_t hop = kNone;  // its index in `hops`; kNone while its layer runs
  };
  std::vector<Hop> hops;
  std::unordered_map<VertexId, Best> best;
  // (vertex, hop ending its best path of the current length).
  std::vector<std::pair<VertexId, size_t>> frontier = {{root, kNone}};
  std::vector<VertexId> improved;

  for (size_t len = 1; len <= max_len && !frontier.empty(); ++len) {
    improved.clear();
    for (const auto& [v, from] : frontier) {
      const size_t deg = g.OutDegree(v);
      if (deg == 0) continue;
      const double child_pra = (from == kNone ? 1.0 : hops[from].pra) /
                               static_cast<double>(deg);
      for (const Edge& e : g.OutEdges(v)) {
        if (e.dst == root) continue;  // a cycle back to the root is useless
        auto [it, fresh] = best.try_emplace(e.dst);
        if (!fresh && child_pra <= it->second.last.pra) continue;
        if (fresh || it->second.hop != kNone) improved.push_back(e.dst);
        it->second = Best{Hop{from, e.label, child_pra}, kNone};
      }
    }
    frontier.clear();
    for (const VertexId v : improved) {
      Best& b = best.at(v);
      b.hop = hops.size();
      hops.push_back(b.last);
      frontier.emplace_back(v, b.hop);
    }
    // Deterministic relaxation order across runs.
    std::sort(frontier.begin(), frontier.end());
  }

  std::vector<PraPath> out;
  out.reserve(best.size());
  for (const auto& [v, b] : best) {
    PraPath p;
    p.pra = b.last.pra;
    p.path.endpoint = v;
    for (size_t h = b.hop; h != kNone; h = hops[h].parent) {
      p.path.labels.push_back(hops[h].label);
    }
    std::reverse(p.path.labels.begin(), p.path.labels.end());
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(), [](const PraPath& a, const PraPath& b) {
    if (a.pra != b.pra) return a.pra > b.pra;
    return a.path.endpoint < b.path.endpoint;
  });
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
