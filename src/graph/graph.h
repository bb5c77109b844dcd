#ifndef HER_GRAPH_GRAPH_H_
#define HER_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace her {

using VertexId = uint32_t;
using LabelId = uint32_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);
inline constexpr LabelId kInvalidLabel = static_cast<LabelId>(-1);

/// Interns edge-label strings (the paper's alphabet Phi of predicates) into
/// dense LabelIds. Vertex labels (alphabet Theta, arbitrary values) are not
/// interned: the graph stores their bytes in one flat pool.
class LabelDict {
 public:
  /// Returns the id for `name`, interning it if new.
  LabelId Intern(std::string_view name);

  /// Returns the id for `name` or kInvalidLabel if it was never interned.
  LabelId Find(std::string_view name) const;

  /// Returns the string for a valid id.
  const std::string& Name(LabelId id) const;

  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, LabelId> index_;
};

/// A directed labeled edge as stored in the CSR out-adjacency.
struct Edge {
  VertexId dst;
  LabelId label;
};

/// Immutable directed labeled graph G = (V, E, L) in CSR form.
///
/// Vertex labels come from Theta (values/types), edge labels from Phi
/// (predicates), exactly as in Section II of the paper. Construct with
/// GraphBuilder; the graph is immutable afterwards, which makes it safe to
/// share read-only across the BSP workers.
///
/// Per-vertex data is flat, like the CSR: the labels' bytes sit end to end
/// in one pool, and L(v) is the slice [label_ends_[v], label_ends_[v + 1]).
/// Both the pool and the edge offsets are indexed by 32 bits, which Build
/// checks. The pool is a vector rather than a string so that its buffer
/// stays put when the Graph is moved: a label() view taken before a move
/// still reads the same bytes after it, as long as the moved-to Graph lives.
class Graph {
 public:
  Graph() = default;

  size_t num_vertices() const {
    return label_ends_.empty() ? 0 : label_ends_.size() - 1;
  }
  size_t num_edges() const { return edges_.size(); }

  /// L(v): the vertex label (type or value). The view lives as long as
  /// the graph's storage (see the class comment).
  std::string_view label(VertexId v) const {
    return {label_bytes_.data() + label_ends_[v],
            label_ends_[v + 1] - label_ends_[v]};
  }

  /// True iff `other` has the same vertices with the same labels: two
  /// compares of the flat label arrays.
  bool SameVertexLabels(const Graph& other) const {
    return label_ends_ == other.label_ends_ &&
           label_bytes_ == other.label_bytes_;
  }

  /// Out-edges of v, sorted by (label, dst).
  std::span<const Edge> OutEdges(VertexId v) const {
    return {edges_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  size_t OutDegree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  size_t InDegree(VertexId v) const { return in_degree_[v]; }

  /// Total degree (in + out); VParaMatch sorts candidates by this.
  size_t Degree(VertexId v) const { return OutDegree(v) + InDegree(v); }

  /// A leaf has no children (no out-edges).
  bool IsLeaf(VertexId v) const { return OutDegree(v) == 0; }

  const LabelDict& edge_labels() const { return edge_labels_; }
  LabelDict& edge_labels() { return edge_labels_; }

  /// Human-readable label of an interned edge-label id.
  const std::string& EdgeLabelName(LabelId id) const {
    return edge_labels_.Name(id);
  }

 private:
  friend class GraphBuilder;

  std::vector<char> label_bytes_;      // all labels, end to end
  std::vector<uint32_t> label_ends_;   // size num_vertices()+1; [0] == 0
  std::vector<uint32_t> offsets_;      // size num_vertices()+1
  std::vector<Edge> edges_;
  std::vector<uint32_t> in_degree_;
  LabelDict edge_labels_;
};

/// Incremental construction of a Graph. Not thread-safe.
class GraphBuilder {
 public:
  /// Adds a vertex with the given label (its bytes are copied); returns
  /// its id.
  VertexId AddVertex(std::string_view label);

  /// Adds a directed edge with an edge-label string (interned).
  /// Precondition: src and dst were returned by AddVertex.
  void AddEdge(VertexId src, VertexId dst, std::string_view edge_label);

  /// Adds an edge with an already-interned label id.
  void AddEdge(VertexId src, VertexId dst, LabelId label);

  size_t num_vertices() const { return label_ends_.size() - 1; }
  size_t num_edges() const { return srcs_.size(); }

  /// Interns an edge label without adding an edge (useful for building
  /// vocabularies up front).
  LabelId InternEdgeLabel(std::string_view name) {
    return edge_labels_.Intern(name);
  }

  /// Preallocates the vertex/edge tables (not the label pool, whose size
  /// the caller rarely knows). Callers that know the final size up front
  /// (the scaling datagen builds million-vertex graphs) avoid the
  /// reallocation churn of incremental growth.
  void Reserve(size_t vertices, size_t edges) {
    label_ends_.reserve(vertices + 1);
    srcs_.reserve(edges);
    dsts_.reserve(edges);
  }

  /// Finalizes into an immutable CSR graph. The builder is consumed.
  /// Checks that the edge count and the label pool fit in 32 bits.
  Graph Build() &&;

 private:
  std::vector<char> label_bytes_;
  std::vector<uint32_t> label_ends_{0};
  std::vector<VertexId> srcs_;
  std::vector<Edge> dsts_;
  LabelDict edge_labels_;
};

/// A path rooted at some vertex: the sequence of edge labels along it plus
/// the terminal vertex. Paths are how parametric simulation represents the
/// association between a vertex and one of its descendants.
struct PathRef {
  VertexId endpoint = kInvalidVertex;
  std::vector<LabelId> labels;

  size_t length() const { return labels.size(); }
};

/// Renders a path's edge labels as "(a, b, c)" for explanations/logs.
std::string PathLabelsToString(const Graph& g, const PathRef& path);

}  // namespace her

#endif  // HER_GRAPH_GRAPH_H_
