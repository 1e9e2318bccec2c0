#include "core/repair.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "benchgen/tagcloud.h"
#include "core/operations.h"
#include "core/org_builders.h"
#include "core/org_context.h"
#include "core/reference_evaluator.h"
#include "lake/tag_index.h"
#include "test_util.h"

namespace lakeorg {
namespace {

using testing::MakeTinyLake;
using testing::TinyLake;

/// Base organization over the unmodified tiny lake.
struct Base {
  TinyLake tiny;
  TagIndex index;
  std::shared_ptr<const OrgContext> ctx;
  Organization org;
};

Base MakeBase() {
  TinyLake tiny = MakeTinyLake();
  TagIndex index = TagIndex::Build(tiny.lake);
  auto ctx = OrgContext::BuildFull(tiny.lake, index);
  Organization org = BuildClusteringOrganization(ctx);
  org.RecomputeLevels();
  return Base{std::move(tiny), std::move(index), ctx, std::move(org)};
}

RepairOptions FastRepair() {
  RepairOptions opts;
  opts.reopt_max_proposals = 30;
  opts.reopt_patience = 10;
  return opts;
}

/// Applies `mutate` to a copy of the base lake under delta recording and
/// repairs the base organization against the mutated catalog.
Result<RepairResult> MutateAndRepair(
    Base* base, const RepairOptions& opts,
    const std::function<void(DataLake*)>& mutate, DataLake* out_lake) {
  DataLake lake = base->tiny.lake;
  Status st = lake.BeginDelta();
  EXPECT_TRUE(st.ok());
  mutate(&lake);
  Result<LakeDelta> delta = lake.TakeDelta();
  EXPECT_TRUE(delta.ok());
  st = lake.ComputeMissingTopicVectors(*base->tiny.store);
  EXPECT_TRUE(st.ok());
  TagIndex index = TagIndex::Build(lake);
  Result<RepairResult> rep =
      RepairOrganization(base->org, lake, index, delta.value(), opts);
  if (out_lake != nullptr) *out_lake = std::move(lake);
  return rep;
}

void ExpectMatchesReference(const RepairResult& rep,
                            const TransitionConfig& config) {
  EXPECT_TRUE(rep.org.Validate().ok()) << rep.org.Validate().ToString();
  double want = ReferenceEvaluator(config).Effectiveness(rep.org);
  EXPECT_NEAR(rep.effectiveness, want, 1e-9);
  EXPECT_GE(rep.effectiveness, rep.splice_effectiveness - 1e-12);
}

TEST(RepairTest, AddTableSplicesNewLeaf) {
  Base base = MakeBase();
  RepairOptions opts = FastRepair();
  Result<RepairResult> rep = MutateAndRepair(
      &base, opts,
      [](DataLake* lake) {
        TableId t = lake->AddTable("t3");
        lake->Tag(t, "gamma");
        lake->AddAttribute(t, "v", {"c", "d"});
      },
      nullptr);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const RepairResult& r = rep.value();
  EXPECT_EQ(r.leaves_added, 1u);
  EXPECT_EQ(r.leaves_removed, 0u);
  EXPECT_EQ(r.ctx->num_attrs(), base.ctx->num_attrs() + 1);
  EXPECT_EQ(r.ctx->num_tags(), base.ctx->num_tags() + 1);
  EXPECT_GT(r.states_touched, 0u);
  ExpectMatchesReference(r, opts.transition);
}

TEST(RepairTest, RemoveTablePrunesLeaf) {
  Base base = MakeBase();
  RepairOptions opts = FastRepair();
  Result<RepairResult> rep = MutateAndRepair(
      &base, opts,
      [](DataLake* lake) { EXPECT_TRUE(lake->RemoveTable(1).ok()); },
      nullptr);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const RepairResult& r = rep.value();
  EXPECT_EQ(r.leaves_removed, 1u);  // t1 owned attribute z only.
  EXPECT_EQ(r.leaves_added, 0u);
  EXPECT_EQ(r.ctx->num_attrs(), base.ctx->num_attrs() - 1);
  // beta survives through t2's attribute w.
  EXPECT_EQ(r.ctx->num_tags(), base.ctx->num_tags());
  ExpectMatchesReference(r, opts.transition);
}

TEST(RepairTest, EmptiedTagExtentDropsTagState) {
  Base base = MakeBase();
  RepairOptions opts = FastRepair();
  TagId beta = base.tiny.beta;
  Result<RepairResult> rep = MutateAndRepair(
      &base, opts,
      [beta](DataLake* lake) {
        // Remove the beta-only table and strip beta from w: the beta
        // extent empties and its tag state must be pruned.
        EXPECT_TRUE(lake->RemoveTable(1).ok());
        TagId alpha = lake->FindTag("alpha");
        EXPECT_TRUE(lake->RetagAttribute(3, {alpha}).ok());
        (void)beta;
      },
      nullptr);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const RepairResult& r = rep.value();
  EXPECT_EQ(r.ctx->num_tags(), base.ctx->num_tags() - 1);
  EXPECT_GE(r.states_dropped, 1u);
  ExpectMatchesReference(r, opts.transition);
}

TEST(RepairTest, RetagRehomesLeaf) {
  Base base = MakeBase();
  RepairOptions opts = FastRepair();
  TagId beta = base.tiny.beta;
  DataLake new_lake;
  Result<RepairResult> rep = MutateAndRepair(
      &base, opts,
      [beta](DataLake* lake) {
        // Move attribute x (id 0) from alpha to beta.
        EXPECT_TRUE(lake->RetagAttribute(0, {beta}).ok());
      },
      &new_lake);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const RepairResult& r = rep.value();
  EXPECT_EQ(r.leaves_added, 0u);
  EXPECT_EQ(r.leaves_removed, 0u);
  // The re-homed leaf's new-context tag set is exactly {beta}.
  uint32_t local = kInvalidId;
  for (uint32_t a = 0; a < r.ctx->num_attrs(); ++a) {
    if (r.ctx->lake_attr(a) == 0) local = a;
  }
  ASSERT_NE(local, kInvalidId);
  ASSERT_EQ(r.ctx->attr_tags(local).size(), 1u);
  EXPECT_EQ(r.ctx->lake_tag(r.ctx->attr_tags(local)[0]), beta);
  ExpectMatchesReference(r, opts.transition);
}

TEST(RepairTest, EmptyDeltaIsNoOp) {
  Base base = MakeBase();
  RepairOptions opts = FastRepair();
  opts.reopt_max_proposals = 0;
  Result<RepairResult> rep = MutateAndRepair(
      &base, opts, [](DataLake*) {}, nullptr);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const RepairResult& r = rep.value();
  EXPECT_EQ(r.leaves_added, 0u);
  EXPECT_EQ(r.leaves_removed, 0u);
  EXPECT_EQ(r.states_dropped, 0u);
  EXPECT_DOUBLE_EQ(r.effectiveness, r.splice_effectiveness);
  // Splicing nothing preserves the original effectiveness.
  double want = ReferenceEvaluator(opts.transition).Effectiveness(base.org);
  EXPECT_NEAR(r.effectiveness, want, 1e-9);
}

TEST(RepairTest, SpliceOnlyModeSkipsReopt) {
  Base base = MakeBase();
  RepairOptions opts = FastRepair();
  opts.reopt_max_proposals = 0;
  Result<RepairResult> rep = MutateAndRepair(
      &base, opts,
      [](DataLake* lake) {
        TableId t = lake->AddTable("t3");
        lake->Tag(t, "gamma");
        lake->AddAttribute(t, "v", {"a", "d"});
      },
      nullptr);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const RepairResult& r = rep.value();
  EXPECT_EQ(r.reopt_proposals, 0u);
  EXPECT_DOUBLE_EQ(r.effectiveness, r.splice_effectiveness);
  ExpectMatchesReference(r, opts.transition);
}

TEST(RepairTest, InvalidReoptOptionsAreRejected) {
  Base base = MakeBase();
  RepairOptions opts = FastRepair();
  opts.acceptance_sharpness = 0.0;
  Result<RepairResult> rep = MutateAndRepair(
      &base, opts,
      [](DataLake* lake) {
        TableId t = lake->AddTable("t3");
        lake->Tag(t, "gamma");
        lake->AddAttribute(t, "v", {"c"});
      },
      nullptr);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument);
}

TEST(RepairTest, DeterministicForFixedSeed) {
  Base base = MakeBase();
  RepairOptions opts = FastRepair();
  auto run = [&]() {
    Base b = MakeBase();
    return MutateAndRepair(
        &b, opts,
        [](DataLake* lake) {
          TableId t = lake->AddTable("t3");
          lake->Tag(t, "gamma");
          lake->AddAttribute(t, "v", {"b", "c"});
        },
        nullptr);
  };
  Result<RepairResult> a = run();
  Result<RepairResult> b = run();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a.value().effectiveness, b.value().effectiveness);
  EXPECT_EQ(a.value().reopt_proposals, b.value().reopt_proposals);
  EXPECT_EQ(a.value().states_touched, b.value().states_touched);
}

// The splice builds a fresh organization from the input's reachable alive
// states, so dead slots never outlive an Apply: a published organization's
// arena is bounded without reusing slots.
TEST(RepairTest, SpliceLeavesNoDeadSlots) {
  TagCloudOptions topts;
  topts.num_tags = 12;
  topts.target_attributes = 60;
  topts.min_values = 5;
  topts.max_values = 15;
  topts.seed = 23;
  TagCloudBenchmark bench = GenerateTagCloud(topts);
  TagIndex index = TagIndex::Build(bench.lake);
  Organization org =
      BuildClusteringOrganization(OrgContext::BuildFull(bench.lake, index));
  org.RecomputeLevels();
  ReachabilityFn uniform = [](StateId) { return 1.0; };
  size_t deleted = 0;
  for (StateId s : org.TopologicalOrder()) {
    if (deleted == 3) break;
    if (!org.alive(s) || org.kind(s) != StateKind::kTag) continue;
    if (ApplyDeleteParent(&org, s, uniform).applied) ++deleted;
  }
  ASSERT_EQ(deleted, 3u);
  ASSERT_LT(org.NumAliveStates(), org.num_states());

  DataLake lake = bench.lake;
  ASSERT_TRUE(lake.BeginDelta().ok());
  TableId t = lake.AddTable("spliced");
  lake.Tag(t, lake.tag_name(0));
  lake.AddAttribute(t, "v", lake.attribute(0).values);
  Result<LakeDelta> delta = lake.TakeDelta();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_TRUE(lake.ComputeMissingTopicVectors(*bench.store).ok());
  TagIndex new_index = TagIndex::Build(lake);
  RepairOptions opts;
  opts.reopt_max_proposals = 0;
  Result<RepairResult> rep =
      RepairOrganization(org, lake, new_index, delta.value(), opts);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const Organization& out = rep.value().org;
  EXPECT_TRUE(out.Validate().ok()) << out.Validate().ToString();
  EXPECT_EQ(rep.value().leaves_added, 1u);
  EXPECT_EQ(out.num_states(), out.NumAliveStates());
  EXPECT_LT(out.num_states(), org.num_states());
}

}  // namespace
}  // namespace lakeorg
