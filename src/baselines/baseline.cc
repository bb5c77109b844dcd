#include "baselines/baseline.h"

#include <deque>
#include <unordered_set>

namespace her {

std::vector<VertexId> Baseline::VPair(
    VertexId u, std::span<const VertexId> candidates) const {
  std::vector<VertexId> out;
  for (const VertexId v : candidates) {
    if (Predict(u, v)) out.push_back(v);
  }
  return out;
}

std::string FlattenVertex(const Graph& g, VertexId v, int hops) {
  std::string doc(g.label(v));
  std::unordered_set<VertexId> seen = {v};
  std::deque<std::pair<VertexId, int>> queue = {{v, 0}};
  while (!queue.empty()) {
    auto [cur, d] = queue.front();
    queue.pop_front();
    if (d >= hops) continue;
    for (const Edge& e : g.OutEdges(cur)) {
      if (!seen.insert(e.dst).second) continue;
      doc += ' ';
      doc += g.EdgeLabelName(e.label);
      doc += ' ';
      doc += g.label(e.dst);
      queue.emplace_back(e.dst, d + 1);
    }
  }
  return doc;
}

std::vector<std::string> ChildValues(const Graph& g, VertexId v) {
  std::vector<std::string> out;
  for (const Edge& e : g.OutEdges(v)) out.emplace_back(g.label(e.dst));
  return out;
}

}  // namespace her
