#ifndef HER_CORE_CANDIDATES_H_
#define HER_CORE_CANDIDATES_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace her {

/// Inverted index over the "critical information" of G's vertices
/// (Section VI: "inverted indices on critical information"), the blocking
/// step of VPair/APair. A vertex's blocking document is its own label plus
/// its children's labels (its attribute values); a G_D vertex retrieves
/// every indexed vertex whose document shares at least one word token with
/// its own document, and h_v then filters by sigma. Recursive descendant
/// checks are NOT blocked — only the root candidates are.
class InvertedIndex {
 public:
  /// Indexes the blocking document of every vertex of `g`. `max_posting`
  /// drops tokens whose posting list would exceed the bound (0 disables
  /// dropping) — a stop-word guard for huge graphs; dropping can miss
  /// candidates, which the paper accepts for blocking.
  explicit InvertedIndex(const Graph& g, size_t max_posting = 0);

  /// Indexed vertices sharing at least one word token with the blocking
  /// document of G_D vertex `u` of `gd`, ascending ids.
  std::vector<VertexId> Lookup(const Graph& gd, VertexId u) const;

 private:
  std::unordered_map<std::string, std::vector<VertexId>> postings_;
};

}  // namespace her

#endif  // HER_CORE_CANDIDATES_H_
