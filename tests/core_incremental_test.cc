// The central correctness property of the section 3.4 machinery: the
// IncrementalEvaluator's cached effectiveness after any sequence of
// committed operations must equal a from-scratch evaluation of the same
// organization over the same query set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "benchgen/tagcloud.h"
#include "core/evaluator.h"
#include "core/local_search.h"
#include "core/operations.h"
#include "core/org_builders.h"
#include "core/representatives.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace lakeorg {
namespace {

/// From-scratch effectiveness over an arbitrary query set (the reference
/// the incremental evaluator must agree with).
double ReferenceEffectiveness(const Organization& org,
                              const RepresentativeSet& reps,
                              const TransitionConfig& config) {
  OrgEvaluator eval(config);
  std::vector<double> query_discovery(reps.query_attrs.size());
  for (size_t q = 0; q < reps.query_attrs.size(); ++q) {
    query_discovery[q] = eval.AttributeDiscovery(org, reps.query_attrs[q]);
  }
  const OrgContext& ctx = org.ctx();
  double total = 0.0;
  for (uint32_t t = 0; t < ctx.num_tables(); ++t) {
    double miss = 1.0;
    for (uint32_t a : ctx.table_attrs(t)) {
      miss *= 1.0 - query_discovery[reps.rep_of[a]];
    }
    total += 1.0 - miss;
  }
  return ctx.num_tables() == 0
             ? 0.0
             : total / static_cast<double>(ctx.num_tables());
}

TagCloudBenchmark SmallBench(uint64_t seed) {
  TagCloudOptions opts;
  opts.num_tags = 12;
  opts.target_attributes = 60;
  opts.min_values = 5;
  opts.max_values = 15;
  opts.seed = seed;
  return GenerateTagCloud(opts);
}

class IncrementalEvalTest : public ::testing::TestWithParam<bool> {};

TEST_P(IncrementalEvalTest, MatchesFullRecomputeAfterRandomOps) {
  bool use_reps = GetParam();
  TagCloudBenchmark bench = SmallBench(31);
  TagIndex index = TagIndex::Build(bench.lake);
  auto ctx = OrgContext::BuildFull(bench.lake, index);

  TransitionConfig config;
  config.gamma = 15.0;
  Rng rng(99);
  RepresentativeSet reps;
  if (use_reps) {
    RepresentativeOptions ropts;
    ropts.fraction = 0.2;
    reps = SelectRepresentatives(*ctx, ropts, &rng);
  } else {
    reps = IdentityRepresentatives(*ctx);
  }
  RepresentativeSet reps_copy = reps;  // Evaluator consumes its own copy.
  IncrementalEvaluator evaluator(config, ctx, std::move(reps_copy));

  Organization current = BuildClusteringOrganization(ctx);
  current.RecomputeLevels();
  evaluator.Initialize(current);
  EXPECT_NEAR(evaluator.effectiveness(),
              ReferenceEffectiveness(current, reps, config), 1e-9);

  ReachabilityFn reach = [&evaluator](StateId s) {
    return evaluator.StateReachability(s);
  };

  size_t commits = 0;
  for (int step = 0; step < 60 && commits < 25; ++step) {
    StateId target = static_cast<StateId>(rng.UniformInt(
        0, static_cast<int64_t>(current.num_states() - 1)));
    if (!current.state(target).alive || target == current.root() ||
        current.state(target).level < 0) {
      continue;
    }
    Organization proposal = current.Clone();
    OpResult op = rng.Bernoulli(0.5)
                      ? ApplyAddParent(&proposal, target, reach)
                      : ApplyDeleteParent(&proposal, target, reach);
    if (!op.applied) continue;

    ProposalEvaluation eval;
    evaluator.EvaluateProposal(proposal, op.topic_changed,
                               op.children_changed, op.removed, &eval);
    // The proposal's predicted effectiveness must equal a full recompute
    // of the proposal organization.
    EXPECT_NEAR(eval.effectiveness,
                ReferenceEffectiveness(proposal, reps, config), 1e-9)
        << "proposal at step " << step;

    // Commit roughly 2 of 3 proposals, including worsening ones, to
    // exercise the stale-repair paths.
    if (rng.Bernoulli(0.67)) {
      current = std::move(proposal);
      evaluator.Commit(current, std::move(eval));
      ++commits;
      EXPECT_NEAR(evaluator.effectiveness(),
                  ReferenceEffectiveness(current, reps, config), 1e-9)
          << "commit at step " << step;
    }
  }
  EXPECT_GE(commits, 10u) << "test exercised too few commits";
}

INSTANTIATE_TEST_SUITE_P(ExactAndApprox, IncrementalEvalTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Representatives" : "Exact";
                         });

TEST(IncrementalEvalDetailTest, InitializeMatchesBatchEvaluator) {
  testing::TinyLake tiny = testing::MakeTinyLake();
  TagIndex index = TagIndex::Build(tiny.lake);
  auto ctx = OrgContext::BuildFull(tiny.lake, index);
  Organization org = BuildFlatOrganization(ctx);
  TransitionConfig config;
  IncrementalEvaluator evaluator(config, ctx,
                                 IdentityRepresentatives(*ctx));
  evaluator.Initialize(org);
  OrgEvaluator batch(config);
  EXPECT_NEAR(evaluator.effectiveness(), batch.Effectiveness(org), 1e-12);
  // Per-table cache matches Equation 5.
  std::vector<double> discovery = batch.AllAttributeDiscovery(org);
  for (uint32_t t = 0; t < ctx->num_tables(); ++t) {
    EXPECT_NEAR(evaluator.table_probs()[t],
                OrgEvaluator::TableDiscovery(*ctx, t, discovery), 1e-12);
  }
  // Per-attribute discovery through the identity mapping.
  for (uint32_t a = 0; a < ctx->num_attrs(); ++a) {
    EXPECT_NEAR(evaluator.AttrDiscovery(a), discovery[a], 1e-12);
  }
}

TEST(IncrementalEvalDetailTest, StateReachabilityMatchesBatch) {
  testing::TinyLake tiny = testing::MakeTinyLake();
  TagIndex index = TagIndex::Build(tiny.lake);
  auto ctx = OrgContext::BuildFull(tiny.lake, index);
  Organization org = BuildFlatOrganization(ctx);
  TransitionConfig config;
  IncrementalEvaluator evaluator(config, ctx,
                                 IdentityRepresentatives(*ctx));
  evaluator.Initialize(org);
  OrgEvaluator batch(config);
  std::vector<uint32_t> all_attrs;
  for (uint32_t a = 0; a < ctx->num_attrs(); ++a) all_attrs.push_back(a);
  std::vector<double> reference = batch.StateReachability(org, all_attrs);
  for (StateId s = 0; s < org.num_states(); ++s) {
    EXPECT_NEAR(evaluator.StateReachability(s), reference[s], 1e-12);
  }
}

TEST(IncrementalEvalDetailTest, ProposalReportsAffectedScope) {
  TagCloudBenchmark bench = SmallBench(57);
  TagIndex index = TagIndex::Build(bench.lake);
  auto ctx = OrgContext::BuildFull(bench.lake, index);
  Organization org = BuildClusteringOrganization(ctx);
  org.RecomputeLevels();
  TransitionConfig config;
  IncrementalEvaluator evaluator(config, ctx,
                                 IdentityRepresentatives(*ctx));
  evaluator.Initialize(org);

  // Graft a second parent onto some leaf and inspect the evaluation scope.
  ReachabilityFn reach = [&evaluator](StateId s) {
    return evaluator.StateReachability(s);
  };
  Organization proposal = org.Clone();
  OpResult op = ApplyAddParent(&proposal, proposal.LeafOf(0), reach);
  ASSERT_TRUE(op.applied) << op.message;
  ProposalEvaluation eval;
  evaluator.EvaluateProposal(proposal, op.topic_changed,
                             op.children_changed, op.removed, &eval);
  EXPECT_FALSE(eval.dirty.empty());
  EXPECT_LT(eval.dirty.size(), proposal.NumAliveStates());
  EXPECT_FALSE(eval.affected_queries.empty());
  EXPECT_GE(eval.affected_attrs, eval.affected_queries.size());
  // The grafted leaf itself must be dirty (its reach gains a path).
  bool leaf_dirty = false;
  for (StateId d : eval.dirty) {
    if (d == proposal.LeafOf(0)) leaf_dirty = true;
  }
  EXPECT_TRUE(leaf_dirty);
}

TEST(IncrementalEvalDetailTest, EmptyWeightsEqualUnitWeightsExactly) {
  TagCloudBenchmark bench = SmallBench(57);
  TagIndex index = TagIndex::Build(bench.lake);
  auto ctx = OrgContext::BuildFull(bench.lake, index);
  Organization org = BuildClusteringOrganization(ctx);
  org.RecomputeLevels();
  TransitionConfig config;
  const double num_tables = static_cast<double>(ctx->num_tables());
  const std::vector<double> ones(ctx->num_tables(), 1.0);

  // Batch objective: empty and unit weights both give the plain mean.
  OrgEvaluator batch(config);
  std::vector<double> disc = batch.AllAttributeDiscovery(org);
  double mean = 0.0;
  for (uint32_t t = 0; t < ctx->num_tables(); ++t) {
    mean += OrgEvaluator::TableDiscovery(*ctx, t, disc);
  }
  mean /= num_tables;
  EXPECT_EQ(OrgEvaluator::Effectiveness(*ctx, disc), mean);
  EXPECT_EQ(OrgEvaluator::Effectiveness(*ctx, disc, ones), mean);
  EXPECT_EQ(batch.Effectiveness(org), mean);

  // Incremental objective: the default, weights reset to empty, and
  // explicit unit weights.
  IncrementalEvaluator fresh(config, ctx, IdentityRepresentatives(*ctx));
  IncrementalEvaluator reset(config, ctx, IdentityRepresentatives(*ctx));
  IncrementalEvaluator unit(config, ctx, IdentityRepresentatives(*ctx));
  std::vector<double> skewed(ctx->num_tables(), 1.0);
  skewed[0] = 5.0;
  ASSERT_TRUE(reset.SetTableWeights(skewed).ok());
  ASSERT_TRUE(reset.SetTableWeights({}).ok());
  ASSERT_TRUE(unit.SetTableWeights(ones).ok());
  for (IncrementalEvaluator* e : {&fresh, &reset, &unit}) {
    e->Initialize(org);
    EXPECT_EQ(e->effectiveness(), mean);
  }

  // One proposal, evaluated and committed by all three. The uniform
  // delta is sum(new - old) / n over the affected tables.
  ReachabilityFn reach = [&fresh](StateId s) {
    return fresh.StateReachability(s);
  };
  Organization proposal = org.Clone();
  OpResult op = ApplyAddParent(&proposal, proposal.LeafOf(0), reach);
  ASSERT_TRUE(op.applied) << op.message;
  ProposalEvaluation want;
  fresh.EvaluateProposal(proposal, op.topic_changed, op.children_changed,
                         op.removed, &want);
  ASSERT_FALSE(want.new_table_probs.empty());
  double delta = 0.0;
  for (const auto& [t, prob] : want.new_table_probs) {
    delta += prob - fresh.table_probs()[t];
  }
  EXPECT_EQ(want.effectiveness, mean + delta / num_tables);
  for (IncrementalEvaluator* e : {&reset, &unit}) {
    ProposalEvaluation got;
    e->EvaluateProposal(proposal, op.topic_changed, op.children_changed,
                        op.removed, &got);
    EXPECT_EQ(got.effectiveness, want.effectiveness);
    e->Commit(proposal, got);
    EXPECT_EQ(e->effectiveness(), want.effectiveness);
  }
  fresh.Commit(proposal, want);
  EXPECT_EQ(fresh.effectiveness(), want.effectiveness);
}

// The transition-row memo must be invisible: after any mix of Undo,
// Commit, removed states and restart-style Initialize, every proposal
// evaluation, and every committed dirty closure, equals, bit for bit, that
// of a fresh evaluator initialized on a clone of the committed
// organization (which has memoized nothing yet).
// The memoized evaluator runs the local search's in-place undo-log path;
// the fresh one sees a separate committed organization.
struct MemoWalk {
  /// Probability that a proposal is ADD_PARENT (else DELETE_PARENT).
  double add_parent_prob = 0.5;
  /// Probability that an evaluated proposal is committed (else undone).
  double commit_prob = 0.5;
  /// Re-Initialize from an earlier organization every this many steps
  /// (0 = never).
  int restart_every = 97;
  /// Allowed |memo - fresh| relative to fresh for reach, table
  /// probabilities and effectiveness; 0 demands bit identity.
  double rel_tol = 0.0;
};

/// |got - want| <= rel_tol * |want|; exact equality when rel_tol is 0.
bool WithinRel(double got, double want, double rel_tol) {
  return std::abs(got - want) <= rel_tol * std::abs(want);
}

struct MemoWalkTally {
  size_t proposals = 0;
  size_t commits = 0;
  size_t undos = 0;
  size_t removals = 0;
  size_t restarts = 0;
  /// Rows the memoized evaluator computed into scratch for want of a slot
  /// (counted only while metrics are enabled).
  uint64_t no_slot_rows = 0;
};

MemoWalkTally CheckMemoMatchesFreshEvaluator(const MemoWalk& walk) {
  TagCloudBenchmark bench = SmallBench(73);
  TagIndex index = TagIndex::Build(bench.lake);
  auto ctx = OrgContext::BuildFull(bench.lake, index);
  TransitionConfig config;
  IncrementalEvaluator memo(config, ctx, IdentityRepresentatives(*ctx));

  Organization current = BuildClusteringOrganization(ctx);
  current.RecomputeLevels();
  memo.Initialize(current);
  Organization committed = current.Clone();
  Organization restart_point = current.Clone();
  ReachabilityFn reach = [&memo](StateId s) {
    return memo.StateReachability(s);
  };

  Rng rng(5);
  OpUndo undo;
  OpResult op;
  ProposalEvaluation got;
  MemoWalkTally tally;
  obs::Counter& no_slot = obs::GetCounter("eval.row_memo_no_slot_total");
  for (int step = 0; step < 400 && tally.proposals < 150; ++step) {
    if (walk.restart_every > 0 && step % walk.restart_every ==
                                      walk.restart_every - 1) {
      // Restart from an earlier organization, as the local search does
      // when its walk drifts too far below the best.
      current.CopyFrom(restart_point);
      current.RecomputeLevels();
      memo.Initialize(current);
      committed = current.Clone();
      ++tally.restarts;
    }
    StateId target = static_cast<StateId>(rng.UniformInt(
        0, static_cast<int64_t>(current.num_states() - 1)));
    if (!current.alive(target) || target == current.root() ||
        current.level(target) < 0) {
      continue;
    }
    if (rng.Bernoulli(walk.add_parent_prob)) {
      ApplyAddParent(&current, target, reach, &undo, &op);
    } else {
      ApplyDeleteParent(&current, target, reach, &undo, &op);
    }
    if (!op.applied) continue;
    ++tally.proposals;
    if (!op.removed.empty()) ++tally.removals;
    uint64_t no_slot_before = no_slot.value();
    memo.EvaluateProposal(current, op.topic_changed, op.children_changed,
                          op.removed, &got);
    tally.no_slot_rows += no_slot.value() - no_slot_before;

    IncrementalEvaluator fresh(config, ctx, IdentityRepresentatives(*ctx));
    fresh.Initialize(committed);
    ProposalEvaluation want;
    fresh.EvaluateProposal(current, op.topic_changed, op.children_changed,
                           op.removed, &want);
    EXPECT_EQ(got.dirty, want.dirty) << "step " << step;
    EXPECT_EQ(got.affected_queries, want.affected_queries) << "step " << step;
    EXPECT_EQ(got.new_discovery.size(), want.new_discovery.size());
    size_t n = std::min(got.new_discovery.size(), want.new_discovery.size());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(WithinRel(got.new_discovery[i], want.new_discovery[i],
                            walk.rel_tol))
          << "step " << step << " leaf reach " << i << ": "
          << got.new_discovery[i] << " vs " << want.new_discovery[i];
    }
    EXPECT_EQ(got.new_table_probs.size(), want.new_table_probs.size());
    n = std::min(got.new_table_probs.size(), want.new_table_probs.size());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got.new_table_probs[i].first, want.new_table_probs[i].first);
      EXPECT_TRUE(WithinRel(got.new_table_probs[i].second,
                            want.new_table_probs[i].second, walk.rel_tol))
          << "step " << step << " table " << want.new_table_probs[i].first;
    }
    // Commits fold each proposal's delta into the running effectiveness,
    // so the memoized evaluator's baseline drifts from a fresh Initialize
    // in the last bits whether or not rows are memoized. Apply the fresh
    // evaluator's table probabilities to the memoized baseline with the
    // evaluator's own Eq. 7 delta (unit weights) instead.
    double delta = 0.0;
    for (const auto& [t, prob] : want.new_table_probs) {
      delta += 1.0 * (prob - memo.table_probs()[t]);
    }
    EXPECT_TRUE(WithinRel(got.effectiveness,
                          memo.effectiveness() +
                              delta / static_cast<double>(ctx->num_tables()),
                          walk.rel_tol))
        << "step " << step;

    if (rng.Bernoulli(walk.commit_prob)) {
      // Both run the closure DP; the cached closures must agree too.
      memo.Commit(current, got);
      fresh.Commit(current, want);
      for (uint32_t q : want.affected_queries) {
        for (StateId d : want.dirty) {
          EXPECT_TRUE(WithinRel(memo.CachedReach(q, d),
                                fresh.CachedReach(q, d), walk.rel_tol))
              << "step " << step << " query " << q << " state " << d << ": "
              << memo.CachedReach(q, d) << " vs " << fresh.CachedReach(q, d);
        }
      }
      committed.CopyFrom(current);
      if (tally.commits++ % 4 == 0) restart_point.CopyFrom(current);
    } else {
      current.Undo(undo);
      ++tally.undos;
    }
  }
  return tally;
}

TEST(IncrementalEvalMemoTest, ProposalsMatchFreshEvaluatorBitwise) {
  MemoWalkTally tally = CheckMemoMatchesFreshEvaluator(MemoWalk{});
  EXPECT_GE(tally.proposals, 100u);
  EXPECT_GE(tally.commits, 20u);
  EXPECT_GE(tally.undos, 20u);
  EXPECT_GE(tally.removals, 10u);
  EXPECT_GE(tally.restarts, 2u);
}

// Committed grafts keep growing child lists past their row slots until
// the arena runs out, so rows are computed into scratch ("no slot"); those
// rows must agree with a fresh evaluator too. Not bit for bit: after this
// many commits a repaired committed reach differs from the fresh DP's in
// the last bit (EnsureFresh sums a state's parents in parent-list order,
// the DP in topological order), with or without the memo. A stale or
// misplaced row is off by far more than the tolerance.
TEST(IncrementalEvalMemoTest, RowsWithoutSlotMatchFreshEvaluator) {
  obs::SetMetricsEnabled(true);
  MemoWalkTally tally = CheckMemoMatchesFreshEvaluator(
      MemoWalk{/*add_parent_prob=*/0.95, /*commit_prob=*/0.9,
               /*restart_every=*/0, /*rel_tol=*/1e-12});
  obs::SetMetricsEnabled(false);
  EXPECT_GE(tally.proposals, 100u);
  EXPECT_GE(tally.commits, 80u);
  EXPECT_GT(tally.no_slot_rows, 0u);
}

// The decision/commit split: EvaluateProposal decides from each affected
// query's reach at its own leaf, and Commit recomputes the whole dirty
// closure. The two must agree bit for bit, or the cached table
// probabilities (Eq. 5 over the decision values) drift from the cached
// attribute discovery (the closure values) they summarize. The walk is
// growth-heavy, so many states have several parents, where a parent the
// leaf DP misses or a different summation order shows; it mixes Undo,
// Commit and restart-style Initialize on the in-place undo-log path.
void CheckDecisionMatchesClosure(bool use_reps) {
  TagCloudBenchmark bench = SmallBench(41);
  TagIndex index = TagIndex::Build(bench.lake);
  auto ctx = OrgContext::BuildFull(bench.lake, index);
  TransitionConfig config;
  Rng rng(17);
  RepresentativeSet reps;
  if (use_reps) {
    RepresentativeOptions ropts;
    ropts.fraction = 0.3;
    reps = SelectRepresentatives(*ctx, ropts, &rng);
  } else {
    reps = IdentityRepresentatives(*ctx);
  }
  IncrementalEvaluator evaluator(config, ctx, std::move(reps));

  Organization current = BuildClusteringOrganization(ctx);
  current.RecomputeLevels();
  evaluator.Initialize(current);
  Organization restart_point = current.Clone();
  ReachabilityFn reach = [&evaluator](StateId s) {
    return evaluator.StateReachability(s);
  };

  OpUndo undo;
  OpResult op;
  ProposalEvaluation eval;
  size_t commits = 0, undos = 0, restarts = 0;
  for (int step = 0; step < 500 && commits < 120; ++step) {
    if (step % 89 == 88) {
      current.CopyFrom(restart_point);
      current.RecomputeLevels();
      evaluator.Initialize(current);
      ++restarts;
    }
    StateId target = static_cast<StateId>(rng.UniformInt(
        0, static_cast<int64_t>(current.num_states() - 1)));
    if (!current.alive(target) || target == current.root() ||
        current.level(target) < 0) {
      continue;
    }
    if (rng.Bernoulli(0.9)) {
      ApplyAddParent(&current, target, reach, &undo, &op);
    } else {
      ApplyDeleteParent(&current, target, reach, &undo, &op);
    }
    if (!op.applied) continue;
    evaluator.EvaluateProposal(current, op.topic_changed, op.children_changed,
                               op.removed, &eval);
    if (!rng.Bernoulli(0.7)) {
      current.Undo(undo);
      ++undos;
      continue;
    }
    evaluator.Commit(current, eval);
    if (++commits % 5 == 0) restart_point.CopyFrom(current);

    std::vector<double> want(ctx->num_tables());
    for (uint32_t t = 0; t < ctx->num_tables(); ++t) {
      double miss = 1.0;
      for (uint32_t a : ctx->table_attrs(t)) {
        miss *= (1.0 - evaluator.AttrDiscovery(a));
      }
      want[t] = 1.0 - miss;
    }
    const std::vector<double>& got = evaluator.table_probs();
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "commit at step " << step;
  }
  EXPECT_GE(commits, 100u);
  EXPECT_GE(undos, 20u);
  EXPECT_GE(restarts, 2u);
  size_t multi_parent = 0;
  for (StateId s = 0; s < current.num_states(); ++s) {
    if (current.alive(s) && current.parents(s).size() > 1) ++multi_parent;
  }
  EXPECT_GE(multi_parent, 10u);
}

TEST(DecisionCommitSplitTest, ExactQueriesMatchClosureBitwise) {
  CheckDecisionMatchesClosure(/*use_reps=*/false);
}

TEST(DecisionCommitSplitTest, RepresentativesMatchClosureBitwise) {
  CheckDecisionMatchesClosure(/*use_reps=*/true);
}

}  // namespace
}  // namespace lakeorg
