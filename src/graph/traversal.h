#ifndef HER_GRAPH_TRAVERSAL_H_
#define HER_GRAPH_TRAVERSAL_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace her {

/// Vertices reachable from `root` (excluding root itself) within at most
/// `max_depth` edges, in BFS order. max_depth == 0 means unbounded.
std::vector<VertexId> ReachableFrom(const Graph& g, VertexId root,
                                    size_t max_depth = 0);

/// A descendant together with the best (maximum-PRA) path leading to it.
struct PraPath {
  PathRef path;  // endpoint + edge labels from the root
  double pra = 0.0;
};

/// MaxPraPaths' default `limit`: every descendant within max_len.
inline constexpr size_t kAllPraPaths = static_cast<size_t>(-1);

/// Path resource allocation score of Section IV:
///   R(rho) = prod_i 1 / |ch(v_i)|   over non-terminal vertices of rho.
/// `out_degrees` are |ch(v_i)| along the path (root first).
double PraScore(const std::vector<size_t>& out_degrees);

/// For every descendant of `root` within `max_len` hops, computes the
/// maximum-PRA path from `root` to it. Because PRA multiplies 1/out-degree
/// factors (all <= 1), the maximising path never repeats a vertex, so a
/// hop-layered dynamic program suffices. Results exclude the root and are
/// sorted by descending PRA (ties: ascending endpoint id); with `limit`,
/// only the first `limit` of that order are returned (and only their
/// labels are built). Runs on per-thread scratch, so it is thread-safe and
/// allocates only the returned paths once warm.
std::vector<PraPath> MaxPraPaths(const Graph& g, VertexId root,
                                 size_t max_len,
                                 size_t limit = kAllPraPaths);

/// True if `g` has a directed cycle reachable from any vertex (Kahn check);
/// used by tests and dataset sanity checks.
bool HasCycle(const Graph& g);

}  // namespace her

#endif  // HER_GRAPH_TRAVERSAL_H_
