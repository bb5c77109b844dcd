#ifndef HER_CORE_MATCH_CONTEXT_H_
#define HER_CORE_MATCH_CONTEXT_H_

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "sim/joint_vocab.h"
#include "sim/params.h"
#include "sim/scores.h"

namespace her {

class IvfIndex;  // src/ann/ivf_index.h

/// How GenerateCandidates scans G for sigma-survivors.
enum class CandidateMode {
  /// Exhaustive |T| x |V| ScoreBatch sweep — the provable baseline.
  kExact = 0,
  /// IVF probe over the h_v embedding index (MatchContext::ann): each
  /// tuple vertex scans only its nprobe nearest inverted lists. Scores of
  /// scanned vertices are bit-identical to the exact path (same blocked
  /// kernel), so ANN only prunes the pool; the sigma filter and the
  /// degree-ordered merge run unchanged on the survivors.
  kAnn = 1,
};

/// Candidate-generation knob (Fig. 8 lines 1-3), threaded from
/// HerConfig / ParallelConfig / her_cli down to GenerateCandidates.
struct CandidateGenConfig {
  CandidateMode mode = CandidateMode::kExact;
  /// Inverted lists scanned per probe (ANN mode).
  size_t nprobe = 8;
  /// Recall floor, enforced per GenerateCandidates call: a deterministic
  /// sample of tuple vertices is validated against the exact scan, and a
  /// measured recall below this falls the whole call back to exact
  /// (counted as Stats::ann_fallbacks). 0 disables the check.
  double min_recall = 0.99;
  /// Tuple vertices sampled for that check (clamped to the tuple count).
  size_t recall_sample = 8;
};

/// The identity candidate pool [0, |V(G)|), materialized at most once and
/// shared by every copy of a MatchContext (the BSP engine's candidate
/// scan copies the context; the pool state is behind a shared_ptr so all
/// copies reuse one vector instead of re-allocating |V| ids per call). Thread-safe via call_once. Valid as long as
/// the graph's vertex count is stable, which MatchContext guarantees
/// (UpdateGraph swaps graph versions with an identical vertex set).
class SharedVertexPool {
 public:
  SharedVertexPool() : state_(std::make_shared<State>()) {}

  std::span<const VertexId> Get(const Graph& g) const {
    State& s = *state_;
    std::call_once(s.once, [&] {
      s.ids.resize(g.num_vertices());
      for (VertexId v = 0; v < g.num_vertices(); ++v) s.ids[v] = v;
    });
    return s.ids;
  }

 private:
  struct State {
    std::once_flag once;
    std::vector<VertexId> ids;
  };
  std::shared_ptr<State> state_;
};

/// Everything parametric simulation is parameterized by: the two graphs,
/// the score functions (h_v, M_rho, h_r), the joint edge-label vocabulary,
/// and the thresholds (sigma, delta, k). All pointers are borrowed and must
/// outlive any MatchEngine built on the context. All referenced objects are
/// immutable/thread-safe, so one context can be shared by many engines
/// (the BSP workers do exactly that).
struct MatchContext {
  const Graph* gd = nullptr;  // G_D (canonical graph of the database)
  const Graph* g = nullptr;   // G
  const VertexScorer* hv = nullptr;
  const PathScorer* mrho = nullptr;
  const DescendantRanker* hr = nullptr;
  const JointVocab* vocab = nullptr;
  /// The h_r rows every engine on this context reads (see PropertyTable
  /// in match_engine.h). When null, a BSP run shares one lazy table among
  /// its fragments and a serial engine owns one; both rank with `hr`.
  const class PropertyTable* properties = nullptr;
  /// Optional IVF index over the h_v embeddings of G (src/ann); required
  /// when candidate_gen.mode is kAnn, ignored otherwise. Borrowed,
  /// immutable and thread-safe like the scorers.
  const IvfIndex* ann = nullptr;
  SimulationParams params;
  /// How GenerateCandidates scans G (exact sweep vs ANN probe).
  CandidateGenConfig candidate_gen;
  /// Lazily materialized identity pool for the exhaustive scans; shared
  /// across context copies (one |V| vector per system, not per call).
  SharedVertexPool all_vertices;

  /// Strategy switches for the optimizations of Section V; production
  /// keeps both on — they exist so the ablation bench can price them.
  /// MaxSco early termination (Fig. 4 lines 12-14, 25-27).
  bool enable_early_termination = true;
  /// Increasing-degree candidate order in VPair/APair (Fig. 5 line 4).
  bool enable_degree_sort = true;
};

}  // namespace her

#endif  // HER_CORE_MATCH_CONTEXT_H_
