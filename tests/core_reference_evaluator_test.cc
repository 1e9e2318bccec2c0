// Unit tests for the differential-testing oracle itself: the reference
// evaluator's probabilities on hand-checkable structures, its agreement
// with the optimized OrgEvaluator on deterministic builder organizations,
// and the CheckTopicInvariants helper (positive and negative cases).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "benchgen/tagcloud.h"
#include "core/evaluator.h"
#include "core/org_builders.h"
#include "core/reference_evaluator.h"
#include "lake/tag_index.h"

namespace lakeorg {
namespace {

class ReferenceEvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TagCloudOptions opts;
    opts.num_tags = 10;
    opts.target_attributes = 50;
    opts.min_values = 5;
    opts.max_values = 15;
    opts.seed = 77;
    bench_ = GenerateTagCloud(opts);
    index_ = TagIndex::Build(bench_.lake);
    ctx_ = OrgContext::BuildFull(bench_.lake, index_);
    org_ = std::make_unique<Organization>(BuildClusteringOrganization(ctx_));
    org_->RecomputeLevels();
  }

  TagCloudBenchmark bench_;
  TagIndex index_;
  std::shared_ptr<const OrgContext> ctx_;
  std::unique_ptr<Organization> org_;
};

TEST_F(ReferenceEvaluatorTest, TransitionProbabilitiesFormADistribution) {
  ReferenceEvaluator ref;
  const Vec& query = ctx_->attr_vector(0);
  for (StateId s = 0; s < org_->num_states(); ++s) {
    const OrgState& st = org_->state(s);
    if (!st.alive || st.children.empty()) continue;
    std::vector<double> probs = ref.TransitionProbabilities(*org_, s, query);
    ASSERT_EQ(probs.size(), st.children.size());
    double total = 0.0;
    for (double p : probs) {
      EXPECT_GT(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << "state " << s;
  }
}

TEST_F(ReferenceEvaluatorTest, RootReachIsOneAndReachIsAProbability) {
  ReferenceEvaluator ref;
  std::vector<double> reach =
      ref.ReachProbabilities(*org_, ctx_->attr_vector(3));
  EXPECT_EQ(reach[org_->root()], 1.0);
  for (StateId s = 0; s < org_->num_states(); ++s) {
    EXPECT_GE(reach[s], 0.0) << "state " << s;
    EXPECT_LE(reach[s], 1.0 + 1e-12) << "state " << s;
    if (!org_->state(s).alive) {
      EXPECT_EQ(reach[s], 0.0);
    }
  }
}

TEST_F(ReferenceEvaluatorTest, SingleChildChainsPassReachThrough) {
  // Every reach value is a convex combination over parents, so any state
  // whose only parent has a single child inherits that parent's reach
  // exactly (the softmax over one child is exactly 1).
  ReferenceEvaluator ref;
  std::vector<double> reach =
      ref.ReachProbabilities(*org_, ctx_->attr_vector(1));
  for (StateId s = 0; s < org_->num_states(); ++s) {
    const OrgState& st = org_->state(s);
    if (!st.alive || st.parents.size() != 1) continue;
    const OrgState& parent = org_->state(st.parents[0]);
    if (parent.children.size() != 1) continue;
    EXPECT_EQ(reach[s], reach[st.parents[0]]) << "state " << s;
  }
}

TEST_F(ReferenceEvaluatorTest, AgreesWithOptimizedEvaluator) {
  ReferenceEvaluator ref;
  OrgEvaluator opt;
  std::vector<double> want = ref.AllAttributeDiscovery(*org_);
  std::vector<double> got = opt.AllAttributeDiscovery(*org_);
  ASSERT_EQ(want.size(), got.size());
  for (size_t a = 0; a < want.size(); ++a) {
    EXPECT_NEAR(got[a], want[a], 1e-9) << "attr " << a;
  }
  EXPECT_NEAR(opt.Effectiveness(*org_), ref.Effectiveness(*org_), 1e-9);
  for (uint32_t t = 0; t < ctx_->num_tables(); ++t) {
    EXPECT_NEAR(OrgEvaluator::TableDiscovery(*ctx_, t, got),
                ref.TableDiscovery(*org_, t), 1e-9)
        << "table " << t;
  }
}

TEST_F(ReferenceEvaluatorTest, SuccessAgreesWithOptimizedEvaluator) {
  const double theta = 0.8;
  ReferenceEvaluator ref;
  OrgEvaluator opt;
  ReferenceSuccess want = ref.Success(*org_, theta);
  SuccessReport got =
      opt.Success(*org_, OrgEvaluator::AttributeNeighbors(*ctx_, theta));
  ASSERT_EQ(want.per_table.size(), got.per_table.size());
  for (size_t t = 0; t < want.per_table.size(); ++t) {
    EXPECT_NEAR(got.per_table[t], want.per_table[t], 1e-9) << "table " << t;
  }
  EXPECT_NEAR(got.mean, want.mean, 1e-9);
}

TEST_F(ReferenceEvaluatorTest, EffectivenessIsMeanTableDiscovery) {
  ReferenceEvaluator ref;
  double total = 0.0;
  for (uint32_t t = 0; t < ctx_->num_tables(); ++t) {
    total += ref.TableDiscovery(*org_, t);
  }
  EXPECT_NEAR(ref.Effectiveness(*org_),
              total / static_cast<double>(ctx_->num_tables()), 1e-12);
}

TEST_F(ReferenceEvaluatorTest, TopicInvariantsHoldOnBuilderOrganizations) {
  EXPECT_TRUE(CheckTopicInvariants(*org_).ok());
  Organization flat = BuildFlatOrganization(ctx_);
  flat.RecomputeLevels();
  EXPECT_TRUE(CheckTopicInvariants(flat).ok());
}

TEST_F(ReferenceEvaluatorTest, TopicInvariantsCatchCorruption) {
  // CheckTopicInvariants is only useful as an oracle if it actually fires.
  // Corrupt one interior state's cached norm via the test hook.
  for (StateId s = 0; s < org_->num_states(); ++s) {
    if (!org_->alive(s) || org_->kind(s) == StateKind::kLeaf) continue;
    double saved = org_->topic_norm(s);
    if (saved == 0.0) continue;
    org_->SetTopicNormForTest(s, saved * 2.0 + 1.0);
    EXPECT_FALSE(CheckTopicInvariants(*org_).ok());
    org_->SetTopicNormForTest(s, saved);
    EXPECT_TRUE(CheckTopicInvariants(*org_).ok());
    return;
  }
  FAIL() << "no interior state to corrupt";
}

}  // namespace
}  // namespace lakeorg
