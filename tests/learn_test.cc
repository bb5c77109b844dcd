#include <gtest/gtest.h>

#include <memory>

#include "learn/her_system.h"
#include "learn/metrics.h"
#include "learn/refinement.h"

namespace her {
namespace {

TEST(MetricsTest, ConfusionMath) {
  Confusion c{.tp = 8, .fp = 2, .fn = 4, .tn = 10};
  EXPECT_DOUBLE_EQ(c.Precision(), 0.8);
  EXPECT_NEAR(c.Recall(), 8.0 / 12.0, 1e-12);
  EXPECT_NEAR(c.F1(), 2 * 0.8 * (8.0 / 12.0) / (0.8 + 8.0 / 12.0), 1e-12);
}

TEST(MetricsTest, EmptyConfusionIsZero) {
  Confusion c;
  EXPECT_DOUBLE_EQ(c.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(c.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(c.F1(), 0.0);
}

TEST(MetricsTest, SplitProportions) {
  std::vector<Annotation> ann(100);
  const AnnotationSplit split = SplitAnnotations(ann);
  EXPECT_EQ(split.train.size(), 50u);
  EXPECT_EQ(split.validation.size(), 15u);
  EXPECT_EQ(split.test.size(), 35u);
}

TEST(MetricsTest, EvaluatePredictorCounts) {
  std::vector<Annotation> ann = {{0, 0, true}, {0, 1, false}, {1, 0, true}};
  const Confusion c = EvaluatePredictor(
      ann, [](VertexId u, VertexId v) { return u == v; });
  EXPECT_EQ(c.tp, 1u);  // (0,0)
  EXPECT_EQ(c.tn, 1u);  // (0,1)
  EXPECT_EQ(c.fn, 1u);  // (1,0)
}

/// Shared trained system: training takes seconds, so do it once.
class TrainedSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec = UkgovSpec(21);
    spec.num_entities = 120;
    spec.annotations_per_class = 90;
    data_ = new GeneratedDataset(Generate(spec));
    split_ = new AnnotationSplit(SplitAnnotations(data_->annotations));
    HerConfig cfg;
    cfg.learn.lstm.epochs = 8;
    system_ = new HerSystem(data_->canonical, data_->g, cfg);
    system_->Train(data_->path_pairs, split_->validation);
  }
  static void TearDownTestSuite() {
    delete system_;
    delete split_;
    delete data_;
    system_ = nullptr;
    split_ = nullptr;
    data_ = nullptr;
  }

  static GeneratedDataset* data_;
  static AnnotationSplit* split_;
  static HerSystem* system_;
};

GeneratedDataset* TrainedSystemTest::data_ = nullptr;
AnnotationSplit* TrainedSystemTest::split_ = nullptr;
HerSystem* TrainedSystemTest::system_ = nullptr;

TEST_F(TrainedSystemTest, TestF1IsHigh) {
  const Confusion c =
      EvaluatePredictor(split_->test, [&](VertexId u, VertexId v) {
        return system_->SPairVertex(u, v);
      });
  EXPECT_GE(c.F1(), 0.85) << c.ToString();
}

TEST_F(TrainedSystemTest, TunedParamsInSearchRanges) {
  const SimulationParams& p = system_->params();
  EXPECT_GE(p.sigma, 0.5);
  EXPECT_LE(p.sigma, 0.98);
  EXPECT_GE(p.delta, 0.4);
  EXPECT_LE(p.delta, 3.5);
  EXPECT_GE(p.k, 4);
  EXPECT_LE(p.k, 25);
}

TEST_F(TrainedSystemTest, MetricModelSeparatesAlignedPaths) {
  // Aligned: country ~ brandCountry; misaligned: country ~ hasColor.
  const auto& ctx = system_->context();
  const auto tok = [&](const char* name) {
    return ctx.vocab->FindToken(name);
  };
  ASSERT_GE(tok("country"), 0);
  const std::vector<int> rel = {tok("country")};
  const std::vector<int> good = {tok("brandCountry")};
  const std::vector<int> bad = {tok("hasColor")};
  EXPECT_GT(ctx.mrho->Score(rel, good), ctx.mrho->Score(rel, bad));
}

TEST_F(TrainedSystemTest, VPairFindsTrueMatch) {
  size_t found = 0;
  size_t checked = 0;
  for (size_t i = 0; i < data_->true_matches.size() && checked < 12; ++i) {
    const auto& [t, v_true] = data_->true_matches[i];
    ++checked;
    const auto matches = system_->VPair(t);
    if (std::find(matches.begin(), matches.end(), v_true) != matches.end()) {
      ++found;
    }
  }
  EXPECT_GE(found * 10, checked * 8);  // >= 80% of sampled tuples
}

TEST_F(TrainedSystemTest, BlockedVPairAgreesWithExhaustive) {
  size_t agreements = 0;
  size_t checked = 0;
  for (size_t i = 0; i < data_->true_matches.size() && checked < 6; ++i) {
    const auto& [t, v_true] = data_->true_matches[i];
    ++checked;
    if (system_->VPair(t, /*use_blocking=*/true) ==
        system_->VPair(t, /*use_blocking=*/false)) {
      ++agreements;
    }
  }
  EXPECT_EQ(agreements, checked);  // blocking loses nothing here
}

TEST_F(TrainedSystemTest, SPairAgreesWithAnnotationsMostly) {
  const Confusion c =
      EvaluatePredictor(split_->train, [&](VertexId u, VertexId v) {
        return system_->SPairVertex(u, v);
      });
  EXPECT_GE(c.F1(), 0.85);
}

TEST_F(TrainedSystemTest, ExplainMentionsWitness) {
  // Find a positive test pair the system gets right.
  for (const Annotation& a : split_->test) {
    if (!a.is_match || !system_->SPairVertex(a.u, a.v)) continue;
    const auto t = data_->canonical.TupleOf(a.u);
    ASSERT_TRUE(t.has_value());
    const std::string text = system_->Explain(*t, a.v);
    EXPECT_NE(text.find("MATCH"), std::string::npos);
    EXPECT_NE(text.find("h_rho"), std::string::npos);
    return;
  }
  FAIL() << "no correctly predicted positive pair found";
}

TEST_F(TrainedSystemTest, SchemaMatchesMapAttributes) {
  for (const Annotation& a : split_->test) {
    if (!a.is_match || !system_->SPairVertex(a.u, a.v)) continue;
    const auto t = data_->canonical.TupleOf(a.u);
    ASSERT_TRUE(t.has_value());
    const auto gamma = system_->SchemaMatchesOf(*t, a.v);
    if (gamma.empty()) continue;
    for (const SchemaMatch& sm : gamma) {
      EXPECT_FALSE(sm.attribute.empty());
      EXPECT_FALSE(sm.g_path.empty());
      EXPECT_GE(sm.score, 0.0);
      EXPECT_LE(sm.score, 1.0);
    }
    return;
  }
  GTEST_SKIP() << "no pair with schema matches";
}

TEST_F(TrainedSystemTest, FeedbackOverrideWins) {
  const Annotation& a = split_->test.front();
  system_->AddFeedbackOverride(a.u, a.v, true);
  EXPECT_TRUE(system_->SPairVertex(a.u, a.v));
  system_->AddFeedbackOverride(a.u, a.v, false);
  EXPECT_FALSE(system_->SPairVertex(a.u, a.v));
}

TEST(LearnPipelineTest, RandomSearchBeatsBadParams) {
  DatasetSpec spec = UkgovSpec(31);
  spec.num_entities = 80;
  spec.annotations_per_class = 60;
  const GeneratedDataset data = Generate(spec);
  const AnnotationSplit split = SplitAnnotations(data.annotations);
  HerConfig cfg;
  cfg.tune_params = false;  // manual control below
  cfg.learn.train_lstm = false;
  HerSystem sys(data.canonical, data.g, cfg);
  sys.Train(data.path_pairs, {});
  // Deliberately bad thresholds: delta far above anything reachable.
  sys.SetParams({.sigma = 0.9, .delta = 5.0, .k = 10});
  const double bad = EvaluatePredictor(split.test,
                                       [&](VertexId u, VertexId v) {
                                         return sys.SPairVertex(u, v);
                                       })
                         .F1();
  const RandomSearchResult tuned = RandomSearchParams(
      sys.context(), split.validation, RandomSearchConfig{});
  sys.SetParams(tuned.best);
  const double good = EvaluatePredictor(split.test,
                                        [&](VertexId u, VertexId v) {
                                          return sys.SPairVertex(u, v);
                                        })
                          .F1();
  EXPECT_GT(good, bad);
  EXPECT_GE(good, 0.7);
}

TEST(LearnPipelineTest, RefinementImprovesF1) {
  DatasetSpec spec = ImdbSpec(41);
  spec.num_entities = 80;
  spec.annotations_per_class = 60;
  const GeneratedDataset data = Generate(spec);
  const AnnotationSplit split = SplitAnnotations(data.annotations);
  HerConfig cfg;
  cfg.learn.train_lstm = false;
  HerSystem sys(data.canonical, data.g, cfg);
  sys.Train(data.path_pairs, split.validation);
  // Degrade thresholds so there is headroom to improve.
  SimulationParams p = sys.params();
  p.delta *= 1.6;
  sys.SetParams(p);
  RefinementConfig rcfg;
  rcfg.rounds = 5;
  rcfg.pairs_per_round = 30;
  const RefinementResult r =
      RunRefinement(sys, split.test, split.test, rcfg);
  ASSERT_EQ(r.f1_per_round.size(), 6u);
  EXPECT_GT(r.f1_per_round.back(), r.f1_per_round.front());
  EXPECT_GE(r.f1_per_round.back(), 0.95);
}

TEST(LearnPipelineTest, UntrainedSystemStillFunctions) {
  DatasetSpec spec = UkgovSpec(51);
  spec.num_entities = 30;
  const GeneratedDataset data = Generate(spec);
  HerConfig cfg;
  HerSystem sys(data.canonical, data.g, cfg);  // no Train() call
  EXPECT_FALSE(sys.trained());
  const auto& [t, v] = data.true_matches.front();
  sys.SPair(t, v);  // must not crash; verdict depends on fallback scorers
}

TEST(LearnPipelineTest, ParallelApairEqualsSequential) {
  DatasetSpec spec = UkgovSpec(61);
  spec.num_entities = 60;
  const GeneratedDataset data = Generate(spec);
  const AnnotationSplit split = SplitAnnotations(data.annotations);
  HerConfig cfg;
  cfg.learn.train_lstm = false;
  HerSystem sys(data.canonical, data.g, cfg);
  sys.Train(data.path_pairs, split.validation);
  const auto seq = sys.APair(/*use_blocking=*/true);
  const auto par = sys.APairParallel(4, /*use_blocking=*/true);
  EXPECT_EQ(par.matches, seq);
  // The blocked scan runs once, through BspAllMatch::Run, and is reported.
  EXPECT_EQ(par.stats.candidate_gen_runs, 1u);
}

}  // namespace
}  // namespace her
