#include "learn/her_system.h"

#include <algorithm>
#include <iostream>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/incremental.h"
#include "persist/fingerprint.h"
#include "persist/snapshot.h"

namespace her {

namespace {

/// The "critical information" document of a vertex: its own label plus its
/// children's labels (attribute values). Blocking retrieves by any token.
std::string DocOf(const Graph& g, VertexId v) {
  std::string doc = g.label(v);
  for (const Edge& e : g.OutEdges(v)) {
    doc += ' ';
    doc += g.label(e.dst);
  }
  return doc;
}

}  // namespace

HerSystem::HerSystem(const CanonicalGraph& canonical, const Graph& g,
                     HerConfig config)
    : canonical_(&canonical), g_(&g), config_(std::move(config)) {
  // Cold-start wiring: untrained embedder for h_v, token-overlap M_rho and
  // the PRA ranker. Train() swaps in the learned models.
  models_.embedder =
      std::make_unique<HashedTextEmbedder>(config_.learn.embedder);
  models_.vocab = std::make_unique<JointVocab>(canonical_->graph(), *g_);
  ctx_.gd = &canonical_->graph();
  ctx_.g = g_;
  ctx_.vocab = models_.vocab.get();
  ctx_.params = config_.params;
  ctx_.candidate_gen = config_.candidate_gen;
  ctx_.enable_early_termination = config_.enable_early_termination;
  ctx_.enable_degree_sort = config_.enable_degree_sort;
  RebuildScorers();
}

void HerSystem::RebuildScorers() {
  if (models_.word_embedder != nullptr && models_.word_embedder->trained()) {
    const TrainedWordEmbedder* we = models_.word_embedder.get();
    hv_ = std::make_unique<EmbeddingVertexScorer>(
        canonical_->graph(), *g_,
        [we](std::string_view label) { return we->Embed(label); });
  } else {
    hv_ = std::make_unique<EmbeddingVertexScorer>(canonical_->graph(), *g_,
                                                  *models_.embedder);
  }
  if (models_.sgns != nullptr && models_.metric != nullptr) {
    mrho_inner_ = std::make_unique<MetricPathScorer>(models_.sgns.get(),
                                                     models_.metric.get());
    mrho_ = std::make_unique<CachingPathScorer>(mrho_inner_.get());
  } else {
    mrho_fallback_ =
        std::make_unique<TokenOverlapPathScorer>(models_.vocab.get());
    mrho_ = std::make_unique<CachingPathScorer>(mrho_fallback_.get());
  }
  if (config_.use_lstm_ranker && models_.lstm != nullptr) {
    hr_ = std::make_unique<LstmPraRanker>(canonical_->graph(), *g_,
                                          models_.vocab.get(),
                                          models_.lstm.get(),
                                          config_.ranker_max_len);
  } else {
    hr_ = std::make_unique<PraRanker>(canonical_->graph(), *g_,
                                      config_.ranker_max_len);
  }
  // hv_ was just replaced, so any IVF index over the previous embedding
  // matrix is stale; EnsureAnnIndex/TrainOrLoad rebuild or reload it.
  ann_.reset();
  ctx_.ann = nullptr;
  ctx_.hv = hv_.get();
  ctx_.mrho = mrho_.get();
  ctx_.hr = hr_.get();
  ctx_.vocab = models_.vocab.get();
  engine_ = std::make_unique<MatchEngine>(ctx_);
}

void HerSystem::Train(std::span<const PathPairExample> path_pairs,
                      std::span<const Annotation> validation) {
  training_pairs_.assign(path_pairs.begin(), path_pairs.end());
  models_ = TrainModels(canonical_->graph(), *g_, path_pairs, config_.learn);
  RebuildScorers();
  // Materialize h_r for every vertex (Section IV runs h_r as part of
  // Learn); the BSP workers then share it read-only like the graphs.
  properties_ = std::make_unique<PropertyTable>(PropertyTable::Build(
      canonical_->graph(), *g_, *hr_, *models_.vocab, /*threads=*/4,
      mrho_.get()));
  ctx_.properties = properties_.get();
  engine_ = std::make_unique<MatchEngine>(ctx_);
  trained_ = true;
  EnsureAnnIndex();
  if (config_.tune_params && !validation.empty()) {
    const RandomSearchResult tuned =
        RandomSearchParams(ctx_, validation, config_.search);
    SetParams(tuned.best);
  }
}

void HerSystem::EnsureAnnIndex() {
  if (config_.candidate_gen.mode != CandidateMode::kAnn) return;
  if (ann_ == nullptr) {
    ann_ = std::make_unique<IvfIndex>(
        IvfIndex::Build(*hv_, config_.ann_build));
  }
  ctx_.ann = ann_.get();
}

uint64_t HerSystem::Fingerprint() const {
  return FingerprintSetup(canonical_->graph(), *g_, config_.params,
                          config_.learn.seed);
}

Status HerSystem::SaveSnapshot(const std::string& path, Env* env) const {
  if (!trained_) {
    return Status::FailedPrecondition(
        "SaveSnapshot requires a trained system");
  }
  SnapshotWriter snap(Fingerprint());
  ByteWriter* m = snap.AddSection("models");
  m->PutU8(models_.sgns != nullptr ? 1 : 0);
  if (models_.sgns != nullptr) models_.sgns->SaveState(m);
  m->PutU8(models_.metric != nullptr ? 1 : 0);
  if (models_.metric != nullptr) models_.metric->SaveState(m);
  m->PutU8(models_.lstm != nullptr ? 1 : 0);
  if (models_.lstm != nullptr) models_.lstm->SaveState(m);
  ByteWriter* p = snap.AddSection("params");
  p->PutDouble(ctx_.params.sigma);
  p->PutDouble(ctx_.params.delta);
  p->PutVarint(static_cast<uint64_t>(ctx_.params.k));
  if (properties_ != nullptr) {
    properties_->SaveState(snap.AddSection("ptable"));
  }
  if (ann_ != nullptr) {
    ann_->SaveState(snap.AddSection("ann_index"));
  }
  engine_->SaveEngineState(snap.AddSection("engine_state"));
  engine_->SaveWarmCaches(snap.AddSection("warm_caches"));
  return snap.WriteToFile(path, env);
}

Status HerSystem::LoadModelsFromSnapshot(ByteReader* r) {
  TrainedModels m;
  // The hashed embedder and vocab are cheap and fully determined by the
  // fingerprinted graphs, so they are rebuilt instead of stored — but the
  // rebuild must mirror TrainModels exactly, including the IDF fit over
  // both graphs' labels (without it every h_v score would shift).
  m.embedder = std::make_unique<HashedTextEmbedder>(config_.learn.embedder);
  {
    std::vector<std::string_view> corpus;
    corpus.reserve(canonical_->graph().num_vertices() + g_->num_vertices());
    for (VertexId v = 0; v < canonical_->graph().num_vertices(); ++v) {
      corpus.push_back(canonical_->graph().label(v));
    }
    for (VertexId v = 0; v < g_->num_vertices(); ++v) {
      corpus.push_back(g_->label(v));
    }
    m.embedder->FitIdf(corpus);
  }
  m.vocab = std::make_unique<JointVocab>(canonical_->graph(), *g_);
  uint8_t has = 0;
  HER_RETURN_NOT_OK(r->GetU8(&has));
  if (has != 0) {
    m.sgns = std::make_unique<SgnsModel>();
    HER_RETURN_NOT_OK(m.sgns->LoadState(r));
  }
  HER_RETURN_NOT_OK(r->GetU8(&has));
  if (has != 0) {
    m.metric = std::make_unique<Mlp>();
    HER_RETURN_NOT_OK(m.metric->LoadState(r));
  }
  HER_RETURN_NOT_OK(r->GetU8(&has));
  if (has != 0) {
    m.lstm = std::make_unique<LstmLm>();
    HER_RETURN_NOT_OK(m.lstm->LoadState(r));
  }
  if (!r->AtEnd()) {
    return Status::IOError("models section: trailing bytes");
  }
  models_ = std::move(m);
  return Status::OK();
}

void HerSystem::TrainOrLoad(const std::string& snapshot_path,
                            std::span<const PathPairExample> path_pairs,
                            std::span<const Annotation> validation,
                            Env* env) {
  training_pairs_.assign(path_pairs.begin(), path_pairs.end());
  double snap_seconds = 0.0;

  // Open + validate the container (magic, version, CRCs, fingerprint);
  // any failure here means every section rebuilds cold.
  std::optional<SnapshotReader> snap;
  if (config_.learn.train_word_embedder) {
    // TrainedWordEmbedder is not snapshot-covered; a warm start would
    // silently swap in the hashed embedder and change every h_v score.
    std::cerr << "her: snapshot skipped (word-embedder training is not "
                 "snapshot-covered); training cold" << std::endl;
  } else {
    WallTimer t;
    auto snap_or = SnapshotReader::Open(snapshot_path, Fingerprint(), env);
    snap_seconds += t.Seconds();
    if (snap_or.ok()) {
      snap.emplace(std::move(snap_or).value());
    } else {
      std::cerr << "her: snapshot unavailable ("
                << snap_or.status().ToString() << "); training cold"
                << std::endl;
    }
  }

  // Layer 1: model parameters. Training is deterministic given the
  // fingerprinted inputs, so a cold retrain of this section composes
  // correctly with warm later sections.
  bool warm_models = false;
  if (snap.has_value()) {
    WallTimer t;
    auto sec = snap->Section("models");
    Status st = sec.ok() ? LoadModelsFromSnapshot(&sec.value())
                         : sec.status();
    snap_seconds += t.Seconds();
    if (st.ok()) {
      warm_models = true;
    } else {
      std::cerr << "her: snapshot models section rejected ("
                << st.ToString() << "); retraining" << std::endl;
    }
  }
  if (!warm_models) {
    models_ =
        TrainModels(canonical_->graph(), *g_, path_pairs, config_.learn);
  }
  RebuildScorers();

  // Layer 1b: the materialized property table.
  bool warm_ptable = false;
  if (snap.has_value()) {
    WallTimer t;
    auto sec = snap->Section("ptable");
    Status st = Status::OK();
    if (sec.ok()) {
      PropertyTable table;
      st = table.LoadState(&sec.value());
      if (st.ok()) {
        properties_ = std::make_unique<PropertyTable>(std::move(table));
        warm_ptable = true;
      }
    } else {
      st = sec.status();
    }
    snap_seconds += t.Seconds();
    if (!st.ok()) {
      std::cerr << "her: snapshot ptable section rejected ("
                << st.ToString() << "); rebuilding" << std::endl;
    }
  }
  if (!warm_ptable) {
    properties_ = std::make_unique<PropertyTable>(PropertyTable::Build(
        canonical_->graph(), *g_, *hr_, *models_.vocab, /*threads=*/4,
        mrho_.get()));
  }
  ctx_.properties = properties_.get();
  engine_ = std::make_unique<MatchEngine>(ctx_);
  trained_ = true;

  // Layer 1c: the IVF candidate index (ANN mode only). Bound to the exact
  // embedding matrix via its digest: a stale section (embeddings changed)
  // or a missing one (snapshot predates ANN mode) rebuilds just the
  // index, never the models above it.
  bool warm_ann = true;
  if (config_.candidate_gen.mode == CandidateMode::kAnn) {
    warm_ann = false;
    if (snap.has_value()) {
      WallTimer t;
      auto sec = snap->Section("ann_index");
      Status st = Status::OK();
      if (sec.ok()) {
        auto loaded = std::make_unique<IvfIndex>();
        st = loaded->LoadState(&sec.value(), *hv_);
        if (st.ok()) {
          ann_ = std::move(loaded);
          warm_ann = true;
        }
      } else {
        st = sec.status();
      }
      snap_seconds += t.Seconds();
      if (!st.ok()) {
        std::cerr << "her: snapshot ann_index section rejected ("
                  << st.ToString() << "); rebuilding" << std::endl;
      }
    }
    EnsureAnnIndex();  // no-op when the load above succeeded
  }

  // Tuned thresholds: restoring them skips the random search (and is what
  // makes the warm caches below safe to reuse — verdicts are only valid
  // under the thresholds they were computed with).
  bool warm_params = false;
  if (snap.has_value()) {
    WallTimer t;
    auto sec = snap->Section("params");
    Status st = Status::OK();
    if (sec.ok()) {
      SimulationParams p;
      uint64_t k = 0;
      st = sec->GetDouble(&p.sigma);
      if (st.ok()) st = sec->GetDouble(&p.delta);
      if (st.ok()) st = sec->GetVarint(&k);
      if (st.ok()) {
        p.k = static_cast<int>(k);
        SetParams(p);
        warm_params = true;
      }
    } else {
      st = sec.status();
    }
    snap_seconds += t.Seconds();
    if (!st.ok()) {
      std::cerr << "her: snapshot params section rejected ("
                << st.ToString() << "); re-tuning" << std::endl;
    }
  }
  if (!warm_params && config_.tune_params && !validation.empty()) {
    const RandomSearchResult tuned =
        RandomSearchParams(ctx_, validation, config_.search);
    SetParams(tuned.best);
  }

  // Layer 2: the engine's verdict cache and warm score caches. Bound to
  // the thresholds, so they are only restored when the exact params they
  // were saved under are in effect (i.e. the params section validated).
  if (snap.has_value() && warm_params) {
    WallTimer t;
    auto es = snap->Section("engine_state");
    Status st = es.ok() ? engine_->LoadEngineState(&es.value())
                        : es.status();
    if (st.ok()) {
      auto wc = snap->Section("warm_caches");
      st = wc.ok() ? engine_->LoadWarmCaches(&wc.value()) : wc.status();
    }
    snap_seconds += t.Seconds();
    if (!st.ok()) {
      std::cerr << "her: snapshot warm caches rejected ("
                << st.ToString() << "); starting with cold caches"
                << std::endl;
      engine_ = std::make_unique<MatchEngine>(ctx_);  // drop partial load
    }
  }
  engine_->RecordSnapshotLoad(snap_seconds);

  // Self-priming: whenever anything was rebuilt, persist the refreshed
  // snapshot so the next restart starts fully warm.
  if (!warm_models || !warm_ptable || !warm_params || !warm_ann) {
    const Status st = SaveSnapshot(snapshot_path, env);
    if (!st.ok()) {
      std::cerr << "her: snapshot save failed (" << st.ToString() << ")"
                << std::endl;
    }
  }
}

bool HerSystem::SPair(TupleRef t, VertexId v_g) {
  return SPairVertex(canonical_->VertexOf(t), v_g);
}

bool HerSystem::SPairVertex(VertexId u_t, VertexId v_g) {
  const auto it = feedback_.find(MatchPair{u_t, v_g});
  if (it != feedback_.end()) return it->second;  // user-verified verdict
  return engine_->Match(u_t, v_g);
}

void HerSystem::EnsureBlockingIndex() {
  if (blocking_ != nullptr) return;
  size_t cap = config_.blocking_max_posting;
  if (cap == 0) {
    cap = std::max<size_t>(64, g_->num_vertices() / 20);
  }
  std::vector<std::pair<VertexId, std::string>> docs;
  docs.reserve(g_->num_vertices());
  for (VertexId v = 0; v < g_->num_vertices(); ++v) {
    docs.emplace_back(v, DocOf(*g_, v));
  }
  blocking_ = std::make_unique<InvertedIndex>(std::move(docs), cap);
}

std::vector<VertexId> HerSystem::BlockedSigmaCandidates(VertexId u_t) {
  const std::vector<VertexId> pool =
      blocking_->Lookup(DocOf(canonical_->graph(), u_t));
  std::vector<double> scores(pool.size());
  ctx_.hv->ScoreBatch(u_t, pool, scores);
  std::vector<VertexId> out;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (scores[i] >= ctx_.params.sigma) out.push_back(pool[i]);
  }
  return out;
}

std::vector<VertexId> HerSystem::VPair(TupleRef t, bool use_blocking) {
  return VPairVertex(canonical_->VertexOf(t), use_blocking);
}

std::vector<VertexId> HerSystem::VPairVertex(VertexId u_t, bool use_blocking) {
  std::vector<VertexId> matches;
  if (use_blocking) {
    EnsureBlockingIndex();
    matches = engine_->MatchCandidates(u_t, BlockedSigmaCandidates(u_t));
  } else {
    matches = VParaMatch(*engine_, u_t);
  }
  // Apply user-verified verdicts on top.
  std::erase_if(matches, [&](VertexId v) {
    auto it = feedback_.find(MatchPair{u_t, v});
    return it != feedback_.end() && !it->second;
  });
  for (const auto& [pair, verdict] : feedback_) {
    if (verdict && pair.first == u_t &&
        std::find(matches.begin(), matches.end(), pair.second) ==
            matches.end()) {
      matches.push_back(pair.second);
    }
  }
  std::sort(matches.begin(), matches.end());
  return matches;
}

std::vector<MatchPair> HerSystem::APair(bool use_blocking) {
  const auto tuples = canonical_->TupleVertices();
  if (config_.candidate_gen.mode == CandidateMode::kAnn) {
    // ANN replaces label blocking as the pruning device: route through
    // the unblocked driver, whose GenerateCandidates probes the index.
    EnsureAnnIndex();
    return AllParaMatch(*engine_, tuples);
  }
  if (!use_blocking) return AllParaMatch(*engine_, tuples);
  EnsureBlockingIndex();
  std::vector<MatchPair> result;
  for (const VertexId u_t : tuples) {
    for (const VertexId v :
         engine_->MatchCandidates(u_t, BlockedSigmaCandidates(u_t))) {
      result.emplace_back(u_t, v);
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

void HerSystem::EnsureRootOwners() {
  if (!gd_root_.empty()) return;
  const Graph& gd = canonical_->graph();
  gd_root_.assign(gd.num_vertices(), kInvalidVertex);
  for (const VertexId t : canonical_->TupleVertices()) {
    gd_root_[t] = t;
    for (const Edge& e : gd.OutEdges(t)) {
      // Attribute vertices belong to their tuple; FK targets are tuple
      // vertices and stay their own roots.
      if (!canonical_->TupleOf(e.dst).has_value()) gd_root_[e.dst] = t;
    }
  }
  for (VertexId v = 0; v < gd.num_vertices(); ++v) {
    if (gd_root_[v] == kInvalidVertex) gd_root_[v] = v;
  }
}

ParallelResult HerSystem::APairParallel(uint32_t workers, bool use_blocking,
                                        const RunOptions& options) {
  return APairParallel(workers, use_blocking, options, CheckpointOptions{});
}

ParallelResult HerSystem::APairParallel(uint32_t workers, bool use_blocking,
                                        const RunOptions& options,
                                        CheckpointOptions ckpt) {
  EnsureRootOwners();
  const auto tuples = canonical_->TupleVertices();
  ParallelConfig pcfg;
  pcfg.num_workers = workers;
  pcfg.strategy = config_.partition;
  pcfg.worker_mem_budget_bytes = config_.worker_mem_budget_bytes;
  if (!ckpt.dir.empty() && ckpt.fingerprint == 0) {
    ckpt.fingerprint = Fingerprint();
  }
  pcfg.checkpoint = std::move(ckpt);
  // Co-locate every candidate of a tuple (and its attribute pairs) on one
  // worker, keyed by the root tuple of u: the u-side ecache is then built
  // exactly once across the cluster.
  pcfg.pair_owner = [this, workers](const MatchPair& p) {
    return static_cast<uint32_t>(Mix64(gd_root_[p.first]) % workers);
  };
  BspAllMatch bsp(ctx_, pcfg);
  if (config_.candidate_gen.mode == CandidateMode::kAnn) {
    EnsureAnnIndex();
    return bsp.Run(tuples, nullptr, options);
  }
  if (!use_blocking) return bsp.Run(tuples, nullptr, options);
  EnsureBlockingIndex();
  std::vector<MatchPair> candidates;
  for (const VertexId u_t : tuples) {
    for (const VertexId v : BlockedSigmaCandidates(u_t)) {
      candidates.emplace_back(u_t, v);
    }
  }
  return bsp.RunOnCandidates(std::move(candidates), options);
}

std::string HerSystem::Explain(TupleRef t, VertexId v_g) {
  const VertexId u_t = canonical_->VertexOf(t);
  engine_->Match(u_t, v_g);
  return ExplainMatch(*engine_, u_t, v_g);
}

std::vector<SchemaMatch> HerSystem::SchemaMatchesOf(TupleRef t,
                                                    VertexId v_g) {
  const VertexId u_t = canonical_->VertexOf(t);
  engine_->Match(u_t, v_g);
  return ComputeSchemaMatches(*engine_, u_t, v_g);
}

void HerSystem::AddFeedbackOverride(VertexId u_t, VertexId v_g,
                                    bool is_match) {
  feedback_[MatchPair{u_t, v_g}] = is_match;
}

void HerSystem::RemoveFeedbackOverride(VertexId u_t, VertexId v_g) {
  feedback_.erase(MatchPair{u_t, v_g});
}

void HerSystem::FineTune(std::span<const PathPairExample> fp_evidence,
                         std::span<const PathPairExample> fn_evidence,
                         int epochs, double triplet_margin) {
  if (models_.metric == nullptr || models_.sgns == nullptr) return;
  FineTuneMetric(*models_.metric, *models_.sgns, *models_.vocab, fp_evidence,
                 fn_evidence, training_pairs_, epochs, triplet_margin);
  // New metric scores invalidate both the memoized M_rho values and the
  // pair verdicts.
  mrho_ = std::make_unique<CachingPathScorer>(
      mrho_inner_ != nullptr
          ? static_cast<const PathScorer*>(mrho_inner_.get())
          : static_cast<const PathScorer*>(mrho_fallback_.get()));
  ctx_.mrho = mrho_.get();
  engine_ = std::make_unique<MatchEngine>(ctx_);
}

std::vector<PathPairExample> HerSystem::CollectPathEvidence(VertexId u_t,
                                                            VertexId v_g) {
  std::vector<PathPairExample> out;
  const auto& pu = engine_->PropertiesOf(0, u_t);
  const auto& pv = engine_->PropertiesOf(1, v_g);
  for (const Property& a : pu) {
    const Property* best = nullptr;
    double best_score = ctx_.params.sigma;
    for (const Property& b : pv) {
      const double s = ctx_.hv->Score(a.descendant, b.descendant);
      if (s >= best_score) {
        best_score = s;
        best = &b;
      }
    }
    if (best == nullptr) continue;
    PathPairExample ex;
    for (const LabelId l : a.labels) {
      ex.rel_path.push_back(canonical_->graph().EdgeLabelName(l));
    }
    for (const LabelId l : best->labels) {
      ex.g_path.push_back(g_->EdgeLabelName(l));
    }
    out.push_back(std::move(ex));
  }
  return out;
}

void HerSystem::SetParams(const SimulationParams& params) {
  ctx_.params = params;
  engine_ = std::make_unique<MatchEngine>(ctx_);
}

void HerSystem::UpdateGraph(const Graph& new_g, const RunOptions& options) {
  HER_CHECK(trained_);
  HER_CHECK(new_g.num_vertices() == g_->num_vertices());
  // Vertices whose out-edges changed, then everything whose ranked paths
  // may pass through them (conservative union over both versions).
  const auto changed = ChangedOutVertices(*g_, new_g);
  auto affected = ReverseReach(*g_, changed, config_.ranker_max_len);
  const auto affected_new = ReverseReach(new_g, changed, config_.ranker_max_len);
  affected.insert(affected.end(), affected_new.begin(), affected_new.end());
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  g_ = &new_g;
  ctx_.g = g_;
  // The new version interns the same label names in a possibly different
  // order; rebind the vocabulary's LabelId -> token mapping (token ids and
  // hence the trained models stay fixed).
  HER_CHECK(models_.vocab->RebindGraph(1, *g_).ok());
  // The ranker walks the graph; rebind it to the new version. Labels are
  // unchanged, so M_v / M_rho / the vocabulary stay as trained.
  if (config_.use_lstm_ranker && models_.lstm != nullptr) {
    hr_ = std::make_unique<LstmPraRanker>(canonical_->graph(), *g_,
                                          models_.vocab.get(),
                                          models_.lstm.get(),
                                          config_.ranker_max_len);
  } else {
    hr_ = std::make_unique<PraRanker>(canonical_->graph(), *g_,
                                      config_.ranker_max_len);
  }
  ctx_.hr = hr_.get();
  if (properties_ != nullptr) {
    properties_->Refresh(1, *g_, affected, *hr_, *models_.vocab, mrho_.get(),
                         options);
  }
  // Retraction is unconditional — even when the refresh above expired
  // mid-way, no verdict supported by a stale property row stays cached.
  // The un-refreshed rows surface via Pending()/UpdateComplete(), and
  // CompleteUpdate() re-ranks them without repeating finished work.
  engine_->InvalidateForUpdate({}, affected);
  blocking_.reset();  // attribute values reachable per vertex changed
}

bool HerSystem::UpdateComplete() const {
  return properties_ == nullptr || properties_->Complete();
}

Status HerSystem::CompleteUpdate(const RunOptions& options) {
  if (UpdateComplete()) return Status::OK();
  // Pending() shrinks as rows are re-ranked; copy the spans since Refresh
  // mutates the underlying pending sets.
  const auto pending0 = properties_->Pending(0);
  if (!pending0.empty()) {
    const std::vector<VertexId> rows(pending0.begin(), pending0.end());
    properties_->Refresh(0, canonical_->graph(), rows, *hr_, *models_.vocab,
                         mrho_.get(), options);
  }
  const auto pending1 = properties_->Pending(1);
  if (!pending1.empty()) {
    const std::vector<VertexId> rows(pending1.begin(), pending1.end());
    properties_->Refresh(1, *g_, rows, *hr_, *models_.vocab, mrho_.get(),
                         options);
  }
  if (properties_->Complete()) return Status::OK();
  return Status::ResourceExhausted(
      "update deadline expired with " +
      std::to_string(properties_->Pending(0).size() +
                     properties_->Pending(1).size()) +
      " property row(s) still pending");
}

}  // namespace her
