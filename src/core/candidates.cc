#include "core/candidates.h"

#include <algorithm>

#include "common/string_util.h"

namespace her {

namespace {

/// The blocking document of a vertex: its own label plus its children's
/// labels (attribute values). Blocking retrieves by any of its tokens.
std::string DocOf(const Graph& g, VertexId v) {
  std::string doc(g.label(v));
  for (const Edge& e : g.OutEdges(v)) {
    doc += ' ';
    doc += g.label(e.dst);
  }
  return doc;
}

}  // namespace

InvertedIndex::InvertedIndex(const Graph& g, size_t max_posting) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const auto& tok : WordTokens(DocOf(g, v))) {
      postings_[tok].push_back(v);
    }
  }
  if (max_posting > 0) {
    std::erase_if(postings_, [&](const auto& entry) {
      return entry.second.size() > max_posting;
    });
  }
  for (auto& [tok, list] : postings_) {
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
}

std::vector<VertexId> InvertedIndex::Lookup(const Graph& gd,
                                            VertexId u) const {
  std::vector<VertexId> out;
  for (const auto& tok : WordTokens(DocOf(gd, u))) {
    auto it = postings_.find(tok);
    if (it == postings_.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace her
