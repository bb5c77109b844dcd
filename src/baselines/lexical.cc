#include "baselines/lexical.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/string_util.h"

namespace her {

void LexmaBaseline::Train(const BaselineInput& input,
                          std::span<const Annotation> train) {
  (void)train;  // purely lexical
  input_ = input;
}

bool LexmaBaseline::Predict(VertexId u, VertexId v) const {
  const auto cells = ChildValues(input_.canonical->graph(), u);
  const auto values = ChildValues(*input_.g, v);
  for (const auto& cell : cells) {
    const std::string nc = ToLower(cell);
    for (const auto& val : values) {
      if (nc == ToLower(val)) return true;
    }
  }
  return false;
}

namespace {

/// Values within 2 hops of v (the entity's property neighborhood).
std::vector<std::string> TwoHopValues(const Graph& g, VertexId v) {
  std::vector<std::string> out;
  std::unordered_set<VertexId> seen = {v};
  std::deque<std::pair<VertexId, int>> queue = {{v, 0}};
  while (!queue.empty()) {
    auto [cur, d] = queue.front();
    queue.pop_front();
    if (d >= 2) continue;
    for (const Edge& e : g.OutEdges(cur)) {
      if (!seen.insert(e.dst).second) continue;
      out.emplace_back(g.label(e.dst));
      queue.emplace_back(e.dst, d + 1);
    }
  }
  return out;
}

}  // namespace

double SpellCheckCellBaseline::VoteFraction(VertexId u, VertexId v) const {
  const auto cells = ChildValues(input_.canonical->graph(), u);
  if (cells.empty()) return 0.0;
  const auto values = TwoHopValues(*input_.g, v);
  size_t hits = 0;
  for (const auto& cell : cells) {
    const std::string nc = ToLower(cell);
    for (const auto& val : values) {
      if (NormalizedEditSimilarity(nc, ToLower(val)) >= fuzzy_threshold_) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(cells.size());
}

void SpellCheckCellBaseline::Train(const BaselineInput& input,
                                   std::span<const Annotation> train) {
  input_ = input;
  double best_f1 = -1.0;
  for (double th = 0.3; th <= 0.95; th += 0.05) {
    size_t tp = 0;
    size_t fp = 0;
    size_t fn = 0;
    for (const Annotation& a : train) {
      const bool pred = VoteFraction(a.u, a.v) >= th;
      tp += pred && a.is_match;
      fp += pred && !a.is_match;
      fn += !pred && a.is_match;
    }
    const double p = tp + fp == 0 ? 0 : static_cast<double>(tp) / (tp + fp);
    const double r = tp + fn == 0 ? 0 : static_cast<double>(tp) / (tp + fn);
    const double f1 = p + r == 0 ? 0 : 2 * p * r / (p + r);
    if (f1 > best_f1) {
      best_f1 = f1;
      vote_threshold_ = th;
    }
  }
}

bool SpellCheckCellBaseline::Predict(VertexId u, VertexId v) const {
  return VoteFraction(u, v) >= vote_threshold_;
}

}  // namespace her
