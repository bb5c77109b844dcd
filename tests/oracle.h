#ifndef HER_TESTS_ORACLE_H_
#define HER_TESTS_ORACLE_H_

// Definition-level oracle for parametric simulation: the maximum match
// relation of Proposition 4, computed the way Mennicke et al. compute dual
// simulation — start from the optimistic relation and delete pairs until
// nothing changes. It shares no code with MatchEngine: no verdict cache,
// no witnesses, no candidate-list batching, no ANN, no greedy matching.
// It reads the same score functions and the same ranked property rows.
//
// How it reads the definition (the repo's PAPER.md holds only a summary):
//  - A pair (u, v) starts alive iff h_v(u, v) >= sigma.
//  - A leaf u needs nothing more. An internal u needs a lineage set: an
//    injective partial map from u's top-k properties (PropertyTable rows,
//    in rank order) to *distinct descendant vertices* v' of v's top-k
//    properties, such that every mapped (u'_i, v') is still alive and the
//    scores, summed in property order, reach delta. With delta <= 0 the
//    empty map suffices.
//  - A mapped descendant is scored by its best path: the largest
//    h_rho(p_i, q) = M_rho(p_i, q) / (|p_i| + |q|) over the properties q
//    of v that end at v'.
//  - Each pair's test is decided exactly, by branch and bound over the
//    injective assignments; the test is monotone in the alive set, so
//    deleting failed pairs until a round deletes none reaches the unique
//    greatest fixpoint, whatever the order.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/match_context.h"
#include "core/match_engine.h"  // PropertyTable, MatchPair

namespace her::oracle {

class MatchOracle {
 public:
  /// Decides every pair of ctx.gd x ctx.g under ctx.params, with its own
  /// built PropertyTable ranked by ctx.hr (the same rows a lazy table
  /// yields). Only the scorers, graphs and params of `ctx` are read.
  explicit MatchOracle(const MatchContext& ctx)
      : gd_(*ctx.gd),
        nv_(ctx.g->num_vertices()),
        delta_(ctx.params.delta),
        alive_(gd_.num_vertices() * nv_, 0),
        options_(alive_.size()) {
    const PropertyTable table = PropertyTable::Build(
        *ctx.gd, *ctx.g, *ctx.hr, *ctx.vocab, 1, ctx.mrho);
    const int k = ctx.params.k;
    for (VertexId u = 0; u < gd_.num_vertices(); ++u) {
      for (VertexId v = 0; v < nv_; ++v) {
        alive_[Index(u, v)] = ctx.hv->Score(u, v) >= ctx.params.sigma;
      }
    }
    for (VertexId u = 0; u < gd_.num_vertices(); ++u) {
      if (gd_.IsLeaf(u)) continue;
      const auto pu = table.Get(0, u, k);
      for (VertexId v = 0; v < nv_; ++v) {
        if (!alive_[Index(u, v)]) continue;
        const auto pv = table.Get(1, v, k);
        std::vector<std::vector<Option>>& slots = options_[Index(u, v)];
        slots.resize(pu.size());
        for (size_t i = 0; i < pu.size(); ++i) {
          for (const Property& q : pv) {
            const double m = ctx.mrho->Score(pu[i].joint, q.joint);
            const double hrho =
                m / static_cast<double>(pu[i].joint.size() + q.joint.size());
            AddBest(&slots[i], Option{q.descendant, hrho});
          }
          for (Option& o : slots[i]) {
            o.pair = Index(pu[i].descendant, o.descendant);
          }
        }
      }
    }
    // Delete failed pairs until a round deletes none.
    for (bool changed = true; changed;) {
      changed = false;
      for (size_t p = 0; p < alive_.size(); ++p) {
        if (!alive_[p] || gd_.IsLeaf(static_cast<VertexId>(p / nv_))) {
          continue;
        }
        if (!HasLineage(options_[p])) {
          alive_[p] = 0;
          changed = true;
        }
      }
      ++rounds_;
    }
  }

  /// True iff (u, v) is in the maximum match relation.
  bool Contains(const MatchPair& p) const {
    return alive_[Index(p.first, p.second)] != 0;
  }

  /// The maximum relation restricted to G_D vertices `us`, sorted: what a
  /// complete APair over those tuple vertices must report.
  std::vector<MatchPair> Pi(std::span<const VertexId> us) const {
    std::vector<MatchPair> out;
    for (const VertexId u : us) {
      for (VertexId v = 0; v < nv_; ++v) {
        if (alive_[Index(u, v)]) out.emplace_back(u, v);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Deletion rounds until the fixpoint (the last one deletes nothing).
  size_t rounds() const { return rounds_; }

 private:
  /// A descendant v' a property may map to, with its best-path h_rho and
  /// the index of the pair (u'_i, v').
  struct Option {
    VertexId descendant;
    double hrho;
    size_t pair = 0;
  };

  size_t Index(VertexId u, VertexId v) const {
    return static_cast<size_t>(u) * nv_ + v;
  }

  /// Keeps one option per descendant, at its best path's score.
  static void AddBest(std::vector<Option>* slot, Option o) {
    for (Option& have : *slot) {
      if (have.descendant == o.descendant) {
        have.hrho = std::max(have.hrho, o.hrho);
        return;
      }
    }
    slot->push_back(o);
  }

  /// Does some injective assignment over alive pairs reach delta?
  bool HasLineage(const std::vector<std::vector<Option>>& slots) const {
    if (delta_ <= 0.0) return true;
    // suffix[i]: the most properties i.. can add, ignoring injectivity.
    std::vector<double> suffix(slots.size() + 1, 0.0);
    for (size_t i = slots.size(); i-- > 0;) {
      double best = 0.0;
      for (const Option& o : slots[i]) {
        if (alive_[o.pair]) best = std::max(best, o.hrho);
      }
      suffix[i] = suffix[i + 1] + best;
    }
    std::vector<VertexId> used;
    return Search(slots, suffix, 0, 0.0, &used);
  }

  /// Branch and bound: property i maps to an unused alive descendant or
  /// to nothing; a branch whose bound misses delta is cut. The bound sums
  /// in another order than the engine does, so it keeps a rounding margin:
  /// it may search more, never less.
  bool Search(const std::vector<std::vector<Option>>& slots,
              const std::vector<double>& suffix, size_t i, double sum,
              std::vector<VertexId>* used) const {
    if (sum >= delta_) return true;
    if (i == slots.size() || sum + suffix[i] < delta_ - 1e-9) return false;
    for (const Option& o : slots[i]) {
      if (!alive_[o.pair] ||
          std::find(used->begin(), used->end(), o.descendant) != used->end()) {
        continue;
      }
      used->push_back(o.descendant);
      const bool found = Search(slots, suffix, i + 1, sum + o.hrho, used);
      used->pop_back();
      if (found) return true;
    }
    return Search(slots, suffix, i + 1, sum, used);
  }

  const Graph& gd_;
  size_t nv_;
  double delta_;
  std::vector<char> alive_;  // [u * |V(G)| + v]
  // Per alive internal pair: per property of u, its descendant options.
  std::vector<std::vector<std::vector<Option>>> options_;
  size_t rounds_ = 0;
};

}  // namespace her::oracle

#endif  // HER_TESTS_ORACLE_H_
