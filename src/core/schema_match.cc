#include "core/schema_match.h"

#include <algorithm>
#include <span>

#include "common/string_util.h"

namespace her {

namespace {

/// Finds the selected property of `root` whose descendant is `desc`.
const Property* FindProperty(MatchEngine& engine, int graph, VertexId root,
                             VertexId desc) {
  for (const Property& p : engine.PropertiesOf(graph, root)) {
    if (p.descendant == desc) return &p;
  }
  return nullptr;
}

}  // namespace

std::vector<SchemaMatch> ComputeSchemaMatches(MatchEngine& engine,
                                              VertexId u_t, VertexId v_g) {
  const MatchEngine::CacheEntry* entry = engine.Lookup(u_t, v_g);
  std::vector<SchemaMatch> out;
  if (entry == nullptr || !entry->valid) return out;
  const MatchContext& ctx = engine.context();

  for (const MatchPair& w : entry->witnesses) {
    const Property* pu = FindProperty(engine, 0, u_t, w.first);
    const Property* pv = FindProperty(engine, 1, v_g, w.second);
    if (pu == nullptr || pv == nullptr) continue;
    // Only single-edge G_D paths denote attributes of the tuple itself.
    if (pu->labels.size() != 1 || pv->labels.empty()) continue;
    // Pick the prefix of the G path with maximum M_rho against e.
    double best = -1.0;
    size_t best_len = 0;
    for (size_t len = 1; len <= pv->joint.size(); ++len) {
      const double s = ctx.mrho->Score(
          std::span<const int>(pu->joint),
          std::span<const int>(pv->joint.data(), len));
      if (s > best) {
        best = s;
        best_len = len;
      }
    }
    SchemaMatch sm;
    sm.attribute = ctx.gd->EdgeLabelName(pu->labels[0]);
    sm.g_path.assign(pv->labels.begin(),
                     pv->labels.begin() + static_cast<long>(best_len));
    sm.score = best;
    sm.u_child = w.first;
    sm.v_end = w.second;
    out.push_back(std::move(sm));
  }
  std::sort(out.begin(), out.end(),
            [](const SchemaMatch& a, const SchemaMatch& b) {
              return a.attribute < b.attribute;
            });
  return out;
}

std::string ExplainMatch(MatchEngine& engine, VertexId u, VertexId v) {
  const MatchEngine::CacheEntry* root = engine.Lookup(u, v);
  const MatchContext& ctx = engine.context();
  std::string out = "(";
  out += ctx.gd->label(u);
  out += ", ";
  out += ctx.g->label(v);
  out += "): ";
  if (root == nullptr) return out + "not evaluated\n";
  if (!root->valid) return out + "NOT a match\n";
  out += "MATCH, witnessed by:\n";
  for (const MatchPair& w : engine.Witness(u, v)) {
    const double hv = ctx.hv->Score(w.first, w.second);
    out += "  (";
    out += ctx.gd->label(w.first);
    out += " ~ ";
    out += ctx.g->label(w.second);
    out += ")  h_v=" + FormatDouble(hv) + "\n";
    const MatchEngine::CacheEntry* e = engine.Lookup(w.first, w.second);
    if (e == nullptr || e->witnesses.empty()) continue;
    for (const MatchPair& c : e->witnesses) {
      const Property* pu = FindProperty(engine, 0, w.first, c.first);
      const Property* pv = FindProperty(engine, 1, w.second, c.second);
      if (pu == nullptr || pv == nullptr) continue;
      PathRef pru{c.first, {pu->labels.begin(), pu->labels.end()}};
      PathRef prv{c.second, {pv->labels.begin(), pv->labels.end()}};
      out += "    via " + PathLabelsToString(*ctx.gd, pru) + " ~ " +
             PathLabelsToString(*ctx.g, prv) +
             "  h_rho=" + FormatDouble(engine.HRho(*pu, *pv)) + "\n";
    }
  }
  return out;
}

}  // namespace her
