#include "graph/graph.h"

#include <algorithm>

#include "common/check.h"

namespace her {

LabelId LabelDict::Intern(std::string_view name) {
  auto it = index_.find(std::string(name));
  if (it != index_.end()) return it->second;
  const LabelId id = static_cast<LabelId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

LabelId LabelDict::Find(std::string_view name) const {
  auto it = index_.find(std::string(name));
  return it == index_.end() ? kInvalidLabel : it->second;
}

const std::string& LabelDict::Name(LabelId id) const {
  HER_CHECK(id < names_.size());
  return names_[id];
}

VertexId GraphBuilder::AddVertex(std::string_view label) {
  const VertexId id = static_cast<VertexId>(num_vertices());
  label_bytes_.insert(label_bytes_.end(), label.begin(), label.end());
  label_ends_.push_back(static_cast<uint32_t>(label_bytes_.size()));
  return id;
}

void GraphBuilder::AddEdge(VertexId src, VertexId dst,
                           std::string_view edge_label) {
  AddEdge(src, dst, edge_labels_.Intern(edge_label));
}

void GraphBuilder::AddEdge(VertexId src, VertexId dst, LabelId label) {
  HER_DCHECK(src < num_vertices() && dst < num_vertices());
  srcs_.push_back(src);
  dsts_.push_back(Edge{dst, label});
}

Graph GraphBuilder::Build() && {
  Graph g;
  const size_t n = num_vertices();
  const size_t m = srcs_.size();
  // The label ends and the CSR offsets are 32-bit.
  HER_CHECK(label_bytes_.size() <= UINT32_MAX && m <= UINT32_MAX);
  g.label_bytes_ = std::move(label_bytes_);
  g.label_ends_ = std::move(label_ends_);
  g.edge_labels_ = std::move(edge_labels_);
  g.in_degree_.assign(n, 0);

  // Counting sort by source into CSR.
  g.offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < m; ++i) ++g.offsets_[srcs_[i] + 1];
  for (size_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.edges_.resize(m);
  {
    std::vector<uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (size_t i = 0; i < m; ++i) {
      g.edges_[cursor[srcs_[i]]++] = dsts_[i];
      ++g.in_degree_[dsts_[i].dst];
    }
  }
  // Sort each adjacency block by (label, dst) for deterministic iteration.
  for (size_t v = 0; v < n; ++v) {
    std::sort(g.edges_.begin() + g.offsets_[v],
              g.edges_.begin() + g.offsets_[v + 1],
              [](const Edge& a, const Edge& b) {
                return a.label != b.label ? a.label < b.label : a.dst < b.dst;
              });
  }
  return g;
}

std::string PathLabelsToString(const Graph& g, const PathRef& path) {
  std::string out = "(";
  for (size_t i = 0; i < path.labels.size(); ++i) {
    if (i) out += ", ";
    out += g.EdgeLabelName(path.labels[i]);
  }
  out += ")";
  return out;
}

}  // namespace her
