#ifndef HER_CORE_DRIVERS_H_
#define HER_CORE_DRIVERS_H_

#include <span>
#include <vector>

#include "common/run_options.h"
#include "core/candidates.h"
#include "core/match_engine.h"

namespace her {

/// VParaMatch (Section VI-A, Fig. 5): all vertices v_g of G matching a
/// given u_t. Candidates are every v with h_v(u_t, v) >= sigma, checked in
/// increasing degree order; verdicts are cached in `engine` across calls.
std::vector<VertexId> VParaMatch(MatchEngine& engine, VertexId u_t);

/// VParaMatch with inverted-index blocking: only index candidates are
/// considered (may miss matches whose labels share no token, as blocking
/// does by design).
std::vector<VertexId> VParaMatch(MatchEngine& engine, VertexId u_t,
                                 const InvertedIndex& index);

/// AllParaMatch (Section VI-A, Fig. 8): the full match set Pi across the
/// given tuple vertices of G_D and all of G. Candidate pairs are generated
/// with h_v >= sigma and checked in increasing degree order.
std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices);

/// AllParaMatch with inverted-index blocking over G.
std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices,
                                    const InvertedIndex& index);

/// AllParaMatch under a deadline/cancellation contract. The options are
/// installed on `engine` and checked at every pair evaluation; on expiry
/// the run stops evaluating, and the returned Pi is rebuilt through
/// MatchEngine::ResolveOutcomes so it contains exactly the candidates whose
/// whole proof survived the stop (a subset of the fault-free Pi). Abandoned
/// and demoted candidates are recorded in engine.UnresolvedPairs() and the
/// `unresolved_pairs` stat; re-running without a deadline converges to the
/// full fixpoint.
std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices,
                                    const RunOptions& options);

/// Deadline-aware AllParaMatch with inverted-index blocking over G.
std::vector<MatchPair> AllParaMatch(MatchEngine& engine,
                                    std::span<const VertexId> tuple_vertices,
                                    const InvertedIndex& index,
                                    const RunOptions& options);

/// APair candidate generation (Fig. 8 lines 1-4): all pairs (u_t, v) with
/// h_v >= sigma, sorted by increasing deg(v). `index` null means an
/// exhaustive scan of G. Shared by the sequential driver and the BSP
/// engine, which shards the result by fragment owner of v.
///
/// Scoring goes through VertexScorer::ScoreBatch (one batch per tuple
/// vertex) and fans tuple vertices across `num_threads` ParallelFor
/// workers; per-vertex buffers are merged in tuple order before the final
/// sort, so the result is identical for every thread count.
std::vector<MatchPair> GenerateCandidates(
    const MatchContext& ctx, std::span<const VertexId> tuple_vertices,
    const InvertedIndex* index, size_t num_threads = 1);

/// The identity candidate pool [0, |V(G)|) used by the exhaustive
/// (index-less) VPair / APair scans.
std::vector<VertexId> AllVertices(const Graph& g);

}  // namespace her

#endif  // HER_CORE_DRIVERS_H_
