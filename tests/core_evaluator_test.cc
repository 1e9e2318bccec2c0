#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "benchgen/tagcloud.h"
#include "core/local_search.h"
#include "core/operations.h"
#include "core/org_builders.h"
#include "core/sharded_search.h"
#include "test_util.h"

namespace lakeorg {
namespace {

using testing::MakeTinyLake;
using testing::TinyLake;

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tiny_ = MakeTinyLake();
    index_ = std::make_unique<TagIndex>(TagIndex::Build(tiny_.lake));
    ctx_ = OrgContext::BuildFull(tiny_.lake, *index_);
    org_ = std::make_unique<Organization>(BuildFlatOrganization(ctx_));
    for (uint32_t a = 0; a < ctx_->num_attrs(); ++a) {
      lake_to_local_[ctx_->lake_attr(a)] = a;
    }
  }

  uint32_t Local(AttributeId lake_attr) {
    return lake_to_local_.at(lake_attr);
  }

  TinyLake tiny_;
  std::unique_ptr<TagIndex> index_;
  std::shared_ptr<const OrgContext> ctx_;
  std::unique_ptr<Organization> org_;
  std::map<AttributeId, uint32_t> lake_to_local_;
};

TEST_F(EvaluatorTest, RootReachIsOne) {
  OrgEvaluator eval;
  std::vector<double> reach =
      eval.ReachProbabilities(*org_, ctx_->attr_vector(0));
  EXPECT_DOUBLE_EQ(reach[org_->root()], 1.0);
}

TEST_F(EvaluatorTest, LeafMassIsConserved) {
  // Every interior state distributes its full mass, so leaf reach sums to
  // 1 for any query.
  OrgEvaluator eval;
  for (uint32_t a = 0; a < ctx_->num_attrs(); ++a) {
    std::vector<double> reach =
        eval.ReachProbabilities(*org_, ctx_->attr_vector(a));
    double leaf_mass = 0.0;
    for (uint32_t b = 0; b < ctx_->num_attrs(); ++b) {
      leaf_mass += reach[org_->LeafOf(b)];
    }
    EXPECT_NEAR(leaf_mass, 1.0, 1e-9) << "query attr " << a;
  }
}

TEST_F(EvaluatorTest, ReachMatchesHandComputation) {
  // Query = attribute x (lake 0) whose vector is e0. Flat org, gamma = 3.
  TransitionConfig config;
  config.gamma = 3.0;
  OrgEvaluator eval(config);
  uint32_t x = Local(0);
  std::vector<double> reach =
      eval.ReachProbabilities(*org_, ctx_->attr_vector(x));

  // Hand computation (independent of library code):
  // tag alpha topic = (1/3,1/3,0,1/3): kappa(alpha, e0) = 1/sqrt(3).
  // tag beta topic = (0,0,1/2,1/2):    kappa(beta, e0) = 0.
  double k_alpha = 1.0 / std::sqrt(3.0);
  double scale_root = 3.0 / 2.0;  // gamma / |ch(root)|.
  double ea = std::exp(scale_root * k_alpha);
  double eb = std::exp(0.0);
  double p_alpha = ea / (ea + eb);
  double p_beta = eb / (ea + eb);

  // From alpha (children x, y, w): kappa = 1, 0, 0; scale = 1.
  double ex = std::exp(1.0);
  double p_x_given_alpha = ex / (ex + 2.0);

  StateId tag_alpha = kInvalidId;
  StateId tag_beta = kInvalidId;
  for (StateId c : org_->state(org_->root()).children) {
    if (org_->state(c).tags[0] == 0)
      tag_alpha = c;
    else
      tag_beta = c;
  }
  EXPECT_NEAR(reach[tag_alpha], p_alpha, 1e-12);
  EXPECT_NEAR(reach[tag_beta], p_beta, 1e-12);
  EXPECT_NEAR(reach[org_->LeafOf(x)], p_alpha * p_x_given_alpha, 1e-12);
}

TEST_F(EvaluatorTest, MultiParentLeafSumsPaths) {
  // Attribute w (lake 3) hangs under both tag states; Equation 4 sums the
  // two path probabilities.
  TransitionConfig config;
  config.gamma = 5.0;
  OrgEvaluator eval(config);
  uint32_t w = Local(3);
  const Vec& query = ctx_->attr_vector(w);
  std::vector<double> reach = eval.ReachProbabilities(*org_, query);

  StateId tag_alpha = kInvalidId;
  StateId tag_beta = kInvalidId;
  for (StateId c : org_->state(org_->root()).children) {
    if (org_->state(c).tags[0] == 0)
      tag_alpha = c;
    else
      tag_beta = c;
  }
  // Independent recomputation of the two edges into w.
  auto transition_to = [&](StateId parent, StateId child) {
    const OrgState& p = org_->state(parent);
    double scale = 5.0 / static_cast<double>(p.children.size());
    double num = 0.0;
    double denom = 0.0;
    for (StateId c : p.children) {
      double e = std::exp(scale * Cosine(org_->state(c).topic, query));
      denom += e;
      if (c == child) num = e;
    }
    return num / denom;
  };
  StateId w_leaf = org_->LeafOf(w);
  double expected = reach[tag_alpha] * transition_to(tag_alpha, w_leaf) +
                    reach[tag_beta] * transition_to(tag_beta, w_leaf);
  EXPECT_NEAR(reach[w_leaf], expected, 1e-12);
  EXPECT_GT(reach[w_leaf], 0.0);
}

TEST_F(EvaluatorTest, AttributeDiscoveryUsesOwnLeaf) {
  OrgEvaluator eval;
  uint32_t x = Local(0);
  double discovery = eval.AttributeDiscovery(*org_, x);
  std::vector<double> reach =
      eval.ReachProbabilities(*org_, ctx_->attr_vector(x));
  EXPECT_DOUBLE_EQ(discovery, reach[org_->LeafOf(x)]);
  EXPECT_GT(discovery, 0.0);
  EXPECT_LE(discovery, 1.0);
}

TEST_F(EvaluatorTest, AllAttributeDiscoveryMatchesIndividual) {
  OrgEvaluator eval;
  std::vector<double> all = eval.AllAttributeDiscovery(*org_);
  ASSERT_EQ(all.size(), ctx_->num_attrs());
  for (uint32_t a = 0; a < ctx_->num_attrs(); ++a) {
    EXPECT_DOUBLE_EQ(all[a], eval.AttributeDiscovery(*org_, a));
  }
}

TEST_F(EvaluatorTest, TableDiscoveryIsNoisyOr) {
  OrgEvaluator eval;
  std::vector<double> discovery = eval.AllAttributeDiscovery(*org_);
  for (uint32_t t = 0; t < ctx_->num_tables(); ++t) {
    double expected_miss = 1.0;
    for (uint32_t a : ctx_->table_attrs(t)) {
      expected_miss *= 1.0 - discovery[a];
    }
    EXPECT_NEAR(OrgEvaluator::TableDiscovery(*ctx_, t, discovery),
                1.0 - expected_miss, 1e-12);
  }
}

TEST_F(EvaluatorTest, EffectivenessIsMeanOverTables) {
  OrgEvaluator eval;
  std::vector<double> discovery = eval.AllAttributeDiscovery(*org_);
  double total = 0.0;
  for (uint32_t t = 0; t < ctx_->num_tables(); ++t) {
    total += OrgEvaluator::TableDiscovery(*ctx_, t, discovery);
  }
  EXPECT_NEAR(eval.Effectiveness(*org_),
              total / static_cast<double>(ctx_->num_tables()), 1e-12);
  EXPECT_GT(eval.Effectiveness(*org_), 0.0);
  EXPECT_LE(eval.Effectiveness(*org_), 1.0);
}

TEST_F(EvaluatorTest, AttributeNeighborsIncludeSelfAndRespectTheta) {
  // Basis-vector attributes are mutually orthogonal: with theta 0.9 every
  // attribute's neighbor list is itself alone.
  auto neighbors = OrgEvaluator::AttributeNeighbors(*ctx_, 0.9);
  ASSERT_EQ(neighbors.size(), ctx_->num_attrs());
  for (uint32_t a = 0; a < ctx_->num_attrs(); ++a) {
    EXPECT_EQ(neighbors[a], (std::vector<uint32_t>{a}));
  }
  // With theta <= 0 everything is a neighbor of everything.
  auto all = OrgEvaluator::AttributeNeighbors(*ctx_, -1.0);
  for (uint32_t a = 0; a < ctx_->num_attrs(); ++a) {
    EXPECT_EQ(all[a].size(), ctx_->num_attrs());
  }
}

TEST_F(EvaluatorTest, SuccessEqualsDiscoveryWhenNeighborsAreSelf) {
  // With self-only neighbor lists, Success(A|O) = P(A|A,O) and table
  // success is the Equation 5 noisy-or.
  OrgEvaluator eval;
  auto neighbors = OrgEvaluator::AttributeNeighbors(*ctx_, 0.9);
  SuccessReport report = eval.Success(*org_, neighbors);
  std::vector<double> discovery = eval.AllAttributeDiscovery(*org_);
  for (uint32_t t = 0; t < ctx_->num_tables(); ++t) {
    EXPECT_NEAR(report.per_table[t],
                OrgEvaluator::TableDiscovery(*ctx_, t, discovery), 1e-12);
  }
  EXPECT_NEAR(report.mean, eval.Effectiveness(*org_), 1e-12);
}

TEST_F(EvaluatorTest, SuccessWithWideNeighborsIsHigher) {
  OrgEvaluator eval;
  auto self_only = OrgEvaluator::AttributeNeighbors(*ctx_, 0.9);
  auto everyone = OrgEvaluator::AttributeNeighbors(*ctx_, -1.0);
  double narrow = eval.Success(*org_, self_only).mean;
  double wide = eval.Success(*org_, everyone).mean;
  EXPECT_GE(wide, narrow);
}

TEST_F(EvaluatorTest, SortedAscendingSorts) {
  SuccessReport report;
  report.per_table = {0.5, 0.1, 0.9};
  EXPECT_EQ(report.SortedAscending(),
            (std::vector<double>{0.1, 0.5, 0.9}));
}

TEST_F(EvaluatorTest, StateReachabilityIsMeanOverQueries) {
  OrgEvaluator eval;
  std::vector<uint32_t> queries = {Local(0), Local(2)};
  std::vector<double> mean_reach = eval.StateReachability(*org_, queries);
  std::vector<double> r0 =
      eval.ReachProbabilities(*org_, ctx_->attr_vector(Local(0)));
  std::vector<double> r2 =
      eval.ReachProbabilities(*org_, ctx_->attr_vector(Local(2)));
  for (size_t s = 0; s < mean_reach.size(); ++s) {
    EXPECT_NEAR(mean_reach[s], 0.5 * (r0[s] + r2[s]), 1e-12);
  }
  EXPECT_DOUBLE_EQ(mean_reach[org_->root()], 1.0);
}

TEST_F(EvaluatorTest, HigherGammaSharpensDiscoveryOfMatchingAttr) {
  TransitionConfig soft;
  soft.gamma = 1.0;
  TransitionConfig sharp;
  sharp.gamma = 50.0;
  uint32_t x = Local(0);
  double soft_disc = OrgEvaluator(soft).AttributeDiscovery(*org_, x);
  double sharp_disc = OrgEvaluator(sharp).AttributeDiscovery(*org_, x);
  EXPECT_GT(sharp_disc, soft_disc);
}

TEST_F(EvaluatorTest, DeeperLeafHasLowerDiscoveryThanDirectChild) {
  // Build root -> interior -> tag -> leaf vs root -> tag' -> leaf': the
  // longer path multiplies more transitions, so with equally attractive
  // intermediate states the deeper leaf is found less often — the model's
  // built-in penalty on long discovery sequences (§2.3).
  Organization org(ctx_);
  StateId root = org.AddRoot({0, 1});
  StateId mid = org.AddInteriorState({0});
  StateId tag0 = org.AddTagState(0);
  StateId tag1 = org.AddTagState(1);
  ASSERT_TRUE(org.AddEdge(root, mid).ok());
  ASSERT_TRUE(org.AddEdge(mid, tag0).ok());
  ASSERT_TRUE(org.AddEdge(root, tag1).ok());
  for (uint32_t a = 0; a < ctx_->num_attrs(); ++a) {
    StateId leaf = org.AddLeaf(a);
    for (uint32_t t : ctx_->attr_tags(a)) {
      ASSERT_TRUE(org.AddEdge(t == 0 ? tag0 : tag1, leaf).ok());
    }
  }
  org.RecomputeLevels();
  ASSERT_TRUE(org.Validate().ok()) << org.Validate().ToString();

  OrgEvaluator eval;
  // Attribute z (lake 2) is beta-only -> depth 2; attribute x (lake 0) is
  // alpha-only -> depth 3 through `mid`.
  uint32_t x = Local(0);
  uint32_t z = Local(2);
  std::vector<double> reach_x =
      eval.ReachProbabilities(org, ctx_->attr_vector(x));
  std::vector<double> reach_z =
      eval.ReachProbabilities(org, ctx_->attr_vector(z));
  // Both queries are perfectly matched to their targets; only the path
  // length differs (x pays one extra transition through `mid`).
  EXPECT_LT(reach_x[org.LeafOf(x)], reach_z[org.LeafOf(z)] + 1e-9);
}

TEST_F(EvaluatorTest, SuccessReportEmptyContext) {
  SuccessReport report;
  EXPECT_DOUBLE_EQ(report.mean, 0.0);
  EXPECT_TRUE(report.SortedAscending().empty());
}

TEST_F(EvaluatorTest, IdentityRepresentativesMapEachAttrToItself) {
  RepresentativeSet reps = IdentityRepresentatives(*ctx_);
  EXPECT_EQ(reps.query_attrs.size(), ctx_->num_attrs());
  for (uint32_t a = 0; a < ctx_->num_attrs(); ++a) {
    EXPECT_EQ(reps.query_attrs[a], a);
    EXPECT_EQ(reps.rep_of[a], a);
    EXPECT_EQ(reps.members[a], (std::vector<uint32_t>{a}));
  }
}

// Exact scoring (AttributeDiscovery, AllAttributeDiscovery, Success)
// sweeps only the ancestors of its target leaves. These tests hold it to
// the full-DAG ReachProbabilities bit for bit on organizations whose
// topological order differs from both StateId order and discovery order:
// multi-parent leaves, dead states beside a late-added one, a stitched
// root.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectExactScoringMatchesFullSweep(const Organization& org) {
  ASSERT_TRUE(org.Validate().ok()) << org.Validate().ToString();
  const OrgContext& ctx = org.ctx();
  const size_t n = ctx.num_attrs();
  ASSERT_GT(n, 0u);
  OrgEvaluator eval;
  std::vector<StateId> topo = org.TopologicalOrder();
  std::vector<std::vector<double>> full(n);
  for (uint32_t a = 0; a < n; ++a) {
    full[a] = eval.ReachProbabilities(org, ctx.attr_vector(a), topo);
  }

  std::vector<double> all = eval.AllAttributeDiscovery(org);
  ASSERT_EQ(all.size(), n);
  for (uint32_t a = 0; a < n; ++a) {
    double want = full[a][org.LeafOf(a)];
    EXPECT_TRUE(SameBits(all[a], want))
        << "AllAttributeDiscovery attr " << a << ": " << all[a] << " vs "
        << want;
    double one = eval.AttributeDiscovery(org, a);
    EXPECT_TRUE(SameBits(one, want))
        << "AttributeDiscovery attr " << a << ": " << one << " vs " << want;
  }

  // Success (section 4.2) from the full sweeps. theta 0.3 gives most
  // attributes several neighbours, so one sweep serves many leaves.
  std::vector<std::vector<uint32_t>> neighbors =
      OrgEvaluator::AttributeNeighbors(ctx, 0.3);
  std::vector<double> attr_success(n);
  size_t multi = 0;
  for (uint32_t a = 0; a < n; ++a) {
    double miss = 1.0;
    for (uint32_t nb : neighbors[a]) miss *= (1.0 - full[a][org.LeafOf(nb)]);
    attr_success[a] = 1.0 - miss;
    if (neighbors[a].size() > 1) ++multi;
  }
  EXPECT_GT(multi, 0u) << "no attribute has a neighbour besides itself";
  SuccessReport got = eval.Success(org, neighbors);
  ASSERT_EQ(got.per_table.size(), ctx.num_tables());
  double total = 0.0;
  for (uint32_t t = 0; t < ctx.num_tables(); ++t) {
    double miss = 1.0;
    for (uint32_t a : ctx.table_attrs(t)) miss *= (1.0 - attr_success[a]);
    EXPECT_TRUE(SameBits(got.per_table[t], 1.0 - miss)) << "table " << t;
    total += 1.0 - miss;
  }
  EXPECT_TRUE(SameBits(got.mean,
                       total / static_cast<double>(ctx.num_tables())));
}

struct ScoringLake {
  TagCloudBenchmark bench;
  TagIndex index;
};

ScoringLake MakeScoringLake() {
  TagCloudOptions opts;
  opts.num_tags = 14;
  opts.target_attributes = 70;
  opts.min_values = 4;
  opts.max_values = 10;
  opts.seed = 31;
  TagCloudBenchmark bench = GenerateTagCloud(opts);
  TagIndex index = TagIndex::Build(bench.lake);
  return ScoringLake{std::move(bench), std::move(index)};
}

LocalSearchOptions ScoringSearch() {
  LocalSearchOptions search;
  search.max_proposals = 200;
  search.seed = 5;
  search.record_history = false;
  return search;
}

/// The local-search result over the whole lake.
Organization SearchedOrganization(const ScoringLake& l) {
  Result<LocalSearchResult> searched = OptimizeOrganization(
      BuildClusteringOrganization(
          OrgContext::BuildFull(l.bench.lake, l.index)),
      ScoringSearch());
  EXPECT_TRUE(searched.ok()) << searched.status().ToString();
  return std::move(searched.value().org);
}

/// Leaves with more than one parent (ADD_PARENT grafts).
size_t MultiParentLeaves(const Organization& org) {
  size_t count = 0;
  for (uint32_t a = 0; a < org.ctx().num_attrs(); ++a) {
    if (org.parents(org.LeafOf(a)).size() > 1) ++count;
  }
  return count;
}

TEST(AncestorScoringTest, ClusteringOrganizationMatchesFullSweep) {
  ScoringLake l = MakeScoringLake();
  ExpectExactScoringMatchesFullSweep(BuildClusteringOrganization(
      OrgContext::BuildFull(l.bench.lake, l.index)));
}

TEST(AncestorScoringTest, LocalSearchMultiParentLeavesMatchFullSweep) {
  Organization org = SearchedOrganization(MakeScoringLake());
  ASSERT_GT(MultiParentLeaves(org), 0u);
  ExpectExactScoringMatchesFullSweep(org);
}

TEST(AncestorScoringTest, OrganizationWithDeadStatesMatchesFullSweep) {
  Organization org = SearchedOrganization(MakeScoringLake());
  OrgEvaluator eval;
  auto remove_parents = [&](size_t max_ops) {
    std::vector<uint32_t> all(org.ctx().num_attrs());
    for (uint32_t a = 0; a < all.size(); ++a) all[a] = a;
    std::vector<double> reach = eval.StateReachability(org, all);
    ReachabilityFn fn = [&reach](StateId s) { return reach[s]; };
    size_t applied = 0;
    for (StateId s : org.TopologicalOrder()) {
      if (applied == max_ops) break;
      if (org.kind(s) != StateKind::kTag) continue;
      if (ApplyDeleteParent(&org, s, fn).applied) ++applied;
    }
    return applied;
  };
  ASSERT_GT(remove_parents(4), 0u);

  // A new interior state between the root and two tag states takes a
  // tail slot: its StateId is the largest while its topological position
  // is near the top.
  const size_t arena = org.num_states();
  std::vector<StateId> tag_states;
  for (StateId s = 0; s < arena && tag_states.size() < 2; ++s) {
    if (org.alive(s) && org.kind(s) == StateKind::kTag) tag_states.push_back(s);
  }
  ASSERT_EQ(tag_states.size(), 2u);
  StateId fresh = org.AddInteriorState(
      {org.tags(tag_states[0])[0], org.tags(tag_states[1])[0]});
  ASSERT_EQ(fresh, arena) << "the new state did not take a tail slot";
  ASSERT_TRUE(org.AddEdge(org.root(), fresh).ok());
  for (StateId t : tag_states) ASSERT_TRUE(org.AddEdge(fresh, t).ok());
  org.RecomputeLevels();

  // Remove more parents after the graft, so dead states come from both
  // sides of it.
  remove_parents(2);
  size_t dead = 0;
  for (StateId s = 0; s < org.num_states(); ++s) dead += org.alive(s) ? 0 : 1;
  ASSERT_GT(dead, 0u);
  ExpectExactScoringMatchesFullSweep(org);
}

TEST(AncestorScoringTest, StitchedShardedOrganizationMatchesFullSweep) {
  ScoringLake l = MakeScoringLake();
  ShardedSearchOptions opts;
  opts.shards = 3;
  opts.search = ScoringSearch();
  opts.search.max_proposals = 60;
  opts.num_threads = 1;
  Result<ShardedSearchResult> sharded =
      BuildShardedOrganization(l.bench.lake, l.index, opts);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE(sharded.value().stitched);
  ExpectExactScoringMatchesFullSweep(sharded.value().org);
}

TEST(AncestorScoringTest, SingleTagContextMatchesFullSweep) {
  ScoringLake l = MakeScoringLake();
  // The widest tag, so the context has attributes to tell apart.
  TagId widest = kInvalidId;
  for (TagId t : l.index.NonEmptyTags()) {
    if (widest == kInvalidId || l.index.AttributesOfTag(t).size() >
                                    l.index.AttributesOfTag(widest).size()) {
      widest = t;
    }
  }
  ASSERT_NE(widest, kInvalidId);
  auto ctx = OrgContext::Build(l.bench.lake, l.index, {widest});
  ASSERT_EQ(ctx->num_tags(), 1u);
  ExpectExactScoringMatchesFullSweep(BuildClusteringOrganization(ctx));
}

}  // namespace
}  // namespace lakeorg
