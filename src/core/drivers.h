#ifndef HER_CORE_DRIVERS_H_
#define HER_CORE_DRIVERS_H_

#include <span>
#include <vector>

#include "common/run_options.h"
#include "core/candidates.h"
#include "core/match_engine.h"

namespace her {

/// VParaMatch (Section VI-A, Fig. 5): all vertices v_g of G matching a
/// given u_t. Candidates come from GenerateCandidates over {u_t} — every v
/// with h_v(u_t, v) >= sigma, among `blocking`'s pool when given — and are
/// checked in its order by MatchEngine::MatchRoots; verdicts are cached in
/// `engine` across calls.
/// Blocking may miss matches whose documents share no token, as blocking
/// does by design. The scan is always exact (never an IVF probe), and the
/// engine's RunOptions are left as installed: callers bound a VPair by
/// setting them on the engine first.
std::vector<VertexId> VParaMatch(MatchEngine& engine, VertexId u_t,
                                 const InvertedIndex* blocking = nullptr);

/// AllParaMatch (Section VI-A, Fig. 8): the full match set Pi across the
/// given tuple vertices of G_D and all of G (or `blocking`'s pool). The
/// candidates of GenerateCandidates are checked in its order by
/// MatchEngine::MatchRoots, one run per tuple vertex.
///
/// When `options` is given it is installed on `engine` and checked at
/// every pair evaluation (otherwise the engine's options stay as they
/// are). On expiry the run stops evaluating, and the returned Pi is
/// rebuilt through ResolveOutcomes so it contains exactly the candidates
/// whose whole proof survived the stop (a subset of the fault-free Pi).
/// Abandoned and demoted candidates are recorded in
/// engine.UnresolvedPairs() and the `unresolved_pairs` stat; re-running
/// without a deadline converges to the full fixpoint.
std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices,
                                    const InvertedIndex* blocking = nullptr,
                                    const RunOptions* options = nullptr);

/// Candidate generation (Fig. 8 lines 1-4), the one scan behind every
/// VPair/APair driver, serial and BSP: all pairs (u_t, v) with h_v >=
/// sigma, in increasing (u, deg(v), v) order — (u, v) order when
/// ctx.enable_degree_sort is off. Fig. 8 sorts all candidates by degree;
/// here the degree order holds inside each tuple, so a tuple's candidates
/// stay one run for MatchEngine::MatchRoots. The pool of each u_t is
/// `blocking`'s lookup when given, otherwise all of G, pruned by the IVF
/// probe in ANN mode.
///
/// Scoring goes through VertexScorer::ScoreBatch (one batch per tuple
/// vertex) and fans tuple vertices across `num_threads` ParallelFor
/// workers; each sorts its own buffer, and the buffers are concatenated by
/// u, so the result is identical for every thread count.
std::vector<MatchPair> GenerateCandidates(
    const MatchContext& ctx, std::span<const VertexId> tuple_vertices,
    const InvertedIndex* blocking, size_t num_threads = 1);

/// The identity candidate pool [0, |V(G)|) used by the exhaustive
/// (index-less) VPair / APair scans.
std::vector<VertexId> AllVertices(const Graph& g);

}  // namespace her

#endif  // HER_CORE_DRIVERS_H_
