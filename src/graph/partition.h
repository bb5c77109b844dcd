#ifndef HER_GRAPH_PARTITION_H_
#define HER_GRAPH_PARTITION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace her {

/// How vertices are assigned to fragments.
enum class PartitionStrategy {
  kHash,     // owner = Mix64(v) % n; balanced in expectation
  kRange,    // contiguous id ranges; preserves locality of builders
  kEdgeCut,  // streaming greedy (LDG): co-locate neighbors, capacity-bounded
};

/// An edge-cut vertex partition of a graph into n fragments (Section VI-B).
/// Fragment i owns the vertices v with `owner[v] == i`; `border[i]` holds
/// the vertices NOT owned by i that have incoming edges from vertices owned
/// by i (the paper's O_i) — their match status must be synchronized via
/// messages in the BSP engine.
struct VertexPartition {
  uint32_t num_fragments = 0;
  std::vector<uint32_t> owner;                // vertex -> fragment
  std::vector<std::vector<VertexId>> border;  // fragment -> O_i

  // --- partition quality (filled by PartitionVertices) -------------------
  size_t edge_cut_edges = 0;    // edges crossing fragments
  size_t border_vertices = 0;   // sum over fragments of |O_i|
  /// max_i |{v : owner[v] == i}| / (|V| / n): 1.0 is perfectly balanced.
  double max_fragment_imbalance = 0.0;

  /// Fraction of edges cut (0 for an edgeless graph).
  double EdgeCutFraction(const Graph& g) const {
    return g.num_edges() == 0
               ? 0.0
               : static_cast<double>(edge_cut_edges) /
                     static_cast<double>(g.num_edges());
  }

  bool Owns(uint32_t fragment, VertexId v) const {
    return owner[v] == fragment;
  }
};

/// Computes an edge-cut partition of `g` into `n` fragments.
///
/// kEdgeCut is a one-pass streaming greedy partitioner in the LDG family:
/// vertices arrive in id order and each is placed on the fragment that
/// already holds the most of its (in- or out-) neighbors, subject to a
/// hard capacity bound of ~1.1 * ceil(|V| / n); ties prefer the smaller,
/// then lower-numbered, fragment, and a vertex with no placed neighbors
/// goes to the least-loaded fragment. Deterministic: the assignment is a
/// pure function of (g, n).
VertexPartition PartitionVertices(const Graph& g, uint32_t n,
                                  PartitionStrategy strategy);

}  // namespace her

#endif  // HER_GRAPH_PARTITION_H_
