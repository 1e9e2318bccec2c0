#include "core/behavior_log.h"

#include <gtest/gtest.h>

#include "core/org_builders.h"
#include "discovery/adaptive_loop.h"
#include "test_util.h"

namespace lakeorg {
namespace {

using testing::MakeTinyLake;
using testing::TinyLake;

class BehaviorLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tiny_ = MakeTinyLake();
    TagIndex index = TagIndex::Build(tiny_.lake);
    ctx_ = OrgContext::BuildFull(tiny_.lake, index);
    org_ = std::make_unique<Organization>(BuildFlatOrganization(ctx_));
  }
  TinyLake tiny_;
  std::shared_ptr<const OrgContext> ctx_;
  std::unique_ptr<Organization> org_;
};

TEST_F(BehaviorLogTest, RecordAndCount) {
  BehaviorLog log;
  log.Record(0, 1);
  log.Record(0, 1);
  log.Record(0, 2);
  EXPECT_EQ(log.EdgeCount(0, 1), 2u);
  EXPECT_EQ(log.EdgeCount(0, 2), 1u);
  EXPECT_EQ(log.EdgeCount(1, 2), 0u);
  EXPECT_EQ(log.OutCount(0), 3u);
  EXPECT_EQ(log.OutCount(1), 0u);
  EXPECT_EQ(log.total(), 3u);
}

TEST_F(BehaviorLogTest, RecordPath) {
  BehaviorLog log;
  log.RecordPath({0, 1, 4, 9});
  EXPECT_EQ(log.EdgeCount(0, 1), 1u);
  EXPECT_EQ(log.EdgeCount(1, 4), 1u);
  EXPECT_EQ(log.EdgeCount(4, 9), 1u);
  EXPECT_EQ(log.total(), 3u);
  log.RecordPath({7});  // Single state: no transitions.
  EXPECT_EQ(log.total(), 3u);
}

TEST_F(BehaviorLogTest, MergeAndClear) {
  BehaviorLog a;
  a.Record(0, 1);
  BehaviorLog b;
  b.Record(0, 1);
  b.Record(2, 3);
  a.Merge(b);
  EXPECT_EQ(a.EdgeCount(0, 1), 2u);
  EXPECT_EQ(a.EdgeCount(2, 3), 1u);
  EXPECT_EQ(a.total(), 3u);
  a.Clear();
  EXPECT_EQ(a.total(), 0u);
  EXPECT_EQ(a.EdgeCount(0, 1), 0u);
}

TEST_F(BehaviorLogTest, NoObservationsReducesToEquationOne) {
  BehaviorLog empty;
  TransitionConfig config;
  config.gamma = 10.0;
  AdaptiveTransitionModel model(config, 5.0);
  StateId root = org_->root();
  const Vec& query = ctx_->attr_vector(0);
  std::vector<double> adaptive =
      model.Probabilities(*org_, empty, root, query);

  // Reference Equation 1 softmax.
  const OrgState& st = org_->state(root);
  std::vector<double> sims(st.children.size());
  for (size_t i = 0; i < st.children.size(); ++i) {
    sims[i] = Cosine(org_->state(st.children[i]).topic, query);
  }
  std::vector<double> prior = TransitionProbabilities(sims, config);
  ASSERT_EQ(adaptive.size(), prior.size());
  for (size_t i = 0; i < prior.size(); ++i) {
    EXPECT_NEAR(adaptive[i], prior[i], 1e-12);
  }
}

TEST_F(BehaviorLogTest, ObservationsShiftProbabilities) {
  BehaviorLog log;
  StateId root = org_->root();
  StateId clicked = org_->state(root).children[1];
  for (int i = 0; i < 50; ++i) log.Record(root, clicked);

  TransitionConfig config;
  AdaptiveTransitionModel model(config, 2.0);
  const Vec& query = ctx_->attr_vector(0);
  std::vector<double> probs =
      model.Probabilities(*org_, log, root, query);
  // The heavily clicked child dominates regardless of content similarity.
  EXPECT_GT(probs[1], 0.9);
  double total = 0.0;
  for (double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST_F(BehaviorLogTest, PriorStrengthControlsAdaptationSpeed) {
  BehaviorLog log;
  StateId root = org_->root();
  StateId clicked = org_->state(root).children[1];
  for (int i = 0; i < 5; ++i) log.Record(root, clicked);

  TransitionConfig config;
  const Vec& query = ctx_->attr_vector(0);
  std::vector<double> weak = AdaptiveTransitionModel(config, 1.0)
                                 .Probabilities(*org_, log, root, query);
  std::vector<double> strong = AdaptiveTransitionModel(config, 100.0)
                                   .Probabilities(*org_, log, root, query);
  // The weak prior adapts harder toward the clicks.
  EXPECT_GT(weak[1], strong[1]);
}

TEST_F(BehaviorLogTest, ZeroClicksBlendIsBitwiseEqualToPrior) {
  // The adaptive loop's determinism contract leans on this: with no
  // observations and a power-of-two alpha, (alpha * p + 0) / (alpha + 0)
  // is exact float arithmetic, so the blend is BITWISE the Equation 1
  // prior — not merely close to it.
  BehaviorLog empty;
  TransitionConfig config;
  AdaptiveTransitionModel model(config, 32.0);
  StateId root = org_->root();
  const Vec& query = ctx_->attr_vector(1);
  std::vector<double> prior = model.PriorProbabilities(*org_, root, query);
  std::vector<double> blend = model.Probabilities(*org_, empty, root, query);
  ASSERT_EQ(blend.size(), prior.size());
  for (size_t i = 0; i < prior.size(); ++i) {
    EXPECT_EQ(blend[i], prior[i]) << "child " << i;
  }
}

TEST_F(BehaviorLogTest, AllMassOnOneChildApproachesCertainty) {
  BehaviorLog log;
  StateId root = org_->root();
  const std::vector<StateId>& children = org_->state(root).children;
  ASSERT_GE(children.size(), 2u);
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; ++i) log.Record(root, children[0]);

  TransitionConfig config;
  const double alpha = 32.0;
  AdaptiveTransitionModel model(config, alpha);
  const Vec& query = ctx_->attr_vector(0);
  std::vector<double> prior = model.PriorProbabilities(*org_, root, query);
  std::vector<double> probs = model.Probabilities(*org_, log, root, query);

  // Exact Dirichlet algebra: clicked child gets (alpha p + n)/(alpha + n),
  // every other child shrinks to alpha p / (alpha + n).
  double denom = alpha + static_cast<double>(n);
  EXPECT_NEAR(probs[0], (alpha * prior[0] + static_cast<double>(n)) / denom,
              1e-15);
  double total = probs[0];
  for (size_t i = 1; i < probs.size(); ++i) {
    EXPECT_NEAR(probs[i], alpha * prior[i] / denom, 1e-15);
    total += probs[i];
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(probs[0], 0.999);
}

TEST_F(BehaviorLogTest, EntriesOnDeadStatesAreDroppedNotCrash) {
  // Log clicks through a tag state, then remove it: the stale counts must
  // neither crash the model nor leak into the surviving children's
  // distribution, and the validation gate consumers use (ClickEventValid)
  // must reject events naming the dead state.
  BehaviorLog log;
  StateId root = org_->root();
  const std::vector<StateId> root_children = org_->state(root).children;
  ASSERT_GE(root_children.size(), 2u);
  StateId doomed = root_children[1];
  StateId survivor = root_children[0];
  for (int i = 0; i < 25; ++i) log.Record(root, doomed);
  log.Record(root, survivor);

  ClickEvent stale_event;
  stale_event.version = 1;
  stale_event.from = root;
  stale_event.to = doomed;
  stale_event.query_attr = 0;
  EXPECT_TRUE(ClickEventValid(*org_, *ctx_, stale_event));

  ASSERT_TRUE(org_->RemoveState(doomed).ok());
  org_->RecomputeLevels();
  EXPECT_FALSE(ClickEventValid(*org_, *ctx_, stale_event));

  // The blend over the surviving children ignores the dead state's mass.
  TransitionConfig config;
  AdaptiveTransitionModel model(config, 2.0);
  std::vector<double> probs =
      model.Probabilities(*org_, log, root, ctx_->attr_vector(0));
  ASSERT_EQ(probs.size(), org_->state(root).children.size());
  double total = 0.0;
  for (double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST_F(BehaviorLogTest, CountsOnRemovedChildrenDropOut) {
  // Log clicks to a child, then rebuild a world where the child list no
  // longer contains it: the distribution over the surviving children must
  // still sum to 1.
  BehaviorLog log;
  StateId root = org_->root();
  StateId tag0 = org_->state(root).children[0];
  StateId tag1 = org_->state(root).children[1];
  for (int i = 0; i < 10; ++i) log.Record(root, tag1);
  log.Record(root, tag0);

  // Simulate removal by consulting a state whose children exclude tag1:
  // drop the edge root->tag1 after reconnecting its leaves elsewhere is
  // overkill here; instead query transitions from tag0, where no click
  // was ever logged on its children and tag1's counts are irrelevant.
  TransitionConfig config;
  AdaptiveTransitionModel model(config, 1.0);
  std::vector<double> probs = model.Probabilities(
      *org_, log, tag0, ctx_->attr_vector(0));
  double total = 0.0;
  for (double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

}  // namespace
}  // namespace lakeorg
