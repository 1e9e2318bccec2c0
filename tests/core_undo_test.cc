// Undo-log round trip: applying a local-search operation with an undo log
// and rolling it back must restore the organization exactly — every state
// field bit-for-bit against a pre-operation clone, and the serialized text
// form byte-identical (the persistence-level notion of "structurally
// identical").
#include <gtest/gtest.h>

#include <sstream>

#include "benchgen/tagcloud.h"
#include "common/random.h"
#include "core/evaluator.h"
#include "core/operations.h"
#include "core/org_builders.h"
#include "core/serialization.h"

namespace lakeorg {
namespace {

std::string Serialized(const Organization& org) {
  std::ostringstream out;
  Status status = SaveOrganization(org, &out);
  EXPECT_TRUE(status.ok()) << status.message();
  return out.str();
}

void ExpectStatesEqual(const Organization& a, const Organization& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  ASSERT_EQ(a.root(), b.root());
  for (StateId s = 0; s < a.num_states(); ++s) {
    const OrgState& x = a.state(s);
    const OrgState& y = b.state(s);
    EXPECT_EQ(x.kind, y.kind) << "state " << s;
    EXPECT_EQ(x.alive, y.alive) << "state " << s;
    EXPECT_EQ(x.parents, y.parents) << "state " << s;
    EXPECT_EQ(x.children, y.children) << "state " << s;
    EXPECT_EQ(x.tags, y.tags) << "state " << s;
    EXPECT_EQ(x.attr, y.attr) << "state " << s;
    EXPECT_TRUE(x.attrs == y.attrs) << "state " << s;
    EXPECT_EQ(x.topic_sum, y.topic_sum) << "state " << s;
    EXPECT_EQ(x.value_count, y.value_count) << "state " << s;
    EXPECT_EQ(x.topic, y.topic) << "state " << s;
    EXPECT_EQ(x.topic_norm, y.topic_norm) << "state " << s;
    EXPECT_EQ(x.level, y.level) << "state " << s;
  }
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

class UndoRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bench_ = SmallBench(17);
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

TEST_F(UndoRoundTripTest, AddParentUndoRestoresExactly) {
  ReachabilityFn uniform = [](StateId) { return 1.0; };
  size_t applied = 0;
  for (StateId target = 0; target < org_->num_states(); ++target) {
    const OrgState& st = org_->state(target);
    if (!st.alive || target == org_->root() || st.level <= 0) continue;
    Organization before = org_->Clone();
    std::string before_text = Serialized(*org_);
    OpUndo undo;
    OpResult op = ApplyAddParent(org_.get(), target, uniform, &undo);
    if (!op.applied) {
      // Not-applied operations must leave the organization untouched and
      // the undo log empty.
      EXPECT_TRUE(undo.states.empty());
      EXPECT_FALSE(undo.levels_changed);
      continue;
    }
    ++applied;
    EXPECT_NE(Serialized(*org_), before_text)
        << "applied op produced no observable change";
    org_->Undo(undo);
    ExpectStatesEqual(*org_, before);
    EXPECT_EQ(Serialized(*org_), before_text);
    ASSERT_TRUE(org_->Validate().ok());
  }
  EXPECT_GT(applied, 5u) << "fixture exercised too few ADD_PARENT ops";
}

TEST_F(UndoRoundTripTest, DeleteParentUndoRestoresExactly) {
  ReachabilityFn uniform = [](StateId) { return 1.0; };
  size_t applied = 0;
  for (StateId target = 0; target < org_->num_states(); ++target) {
    const OrgState& st = org_->state(target);
    if (!st.alive || target == org_->root() || st.level <= 0) continue;
    Organization before = org_->Clone();
    std::string before_text = Serialized(*org_);
    OpUndo undo;
    OpResult op = ApplyDeleteParent(org_.get(), target, uniform, &undo);
    if (!op.applied) {
      EXPECT_TRUE(undo.states.empty());
      EXPECT_FALSE(undo.levels_changed);
      continue;
    }
    ++applied;
    EXPECT_FALSE(op.removed.empty());
    org_->Undo(undo);
    ExpectStatesEqual(*org_, before);
    EXPECT_EQ(Serialized(*org_), before_text);
    ASSERT_TRUE(org_->Validate().ok());
  }
  EXPECT_GT(applied, 0u) << "fixture exercised no DELETE_PARENT ops";
}

TEST_F(UndoRoundTripTest, RepeatedApplyUndoKeepsInvariants) {
  // A long alternating sequence of apply/undo and apply/keep decisions must
  // keep the organization valid and its evaluator-visible quantities
  // consistent with a from-scratch evaluation.
  Rng rng(5);
  ReachabilityFn uniform = [](StateId) { return 1.0; };
  size_t mutations = 0;
  for (int step = 0; step < 120; ++step) {
    StateId target = static_cast<StateId>(
        rng.UniformInt(0, static_cast<int64_t>(org_->num_states() - 1)));
    const OrgState& st = org_->state(target);
    if (!st.alive || target == org_->root() || st.level <= 0) continue;
    OpUndo undo;
    OpResult op = rng.Bernoulli(0.5)
                      ? ApplyAddParent(org_.get(), target, uniform, &undo)
                      : ApplyDeleteParent(org_.get(), target, uniform, &undo);
    if (!op.applied) continue;
    ++mutations;
    if (rng.Bernoulli(0.5)) org_->Undo(undo);
    ASSERT_TRUE(org_->Validate().ok()) << "after step " << step;
  }
  EXPECT_GT(mutations, 10u);
}

// The journal is self-contained, so a rollback stays exact after the
// arenas were compacted under it. Delete-heavy committed churn (70%
// DELETE_PARENT, 80% of applied ops kept) grows and relocates ranges;
// every other rollback replays its journal across a CompactStorage, which
// shrinks each range to its live size — a state the op removed is left
// with no capacity at all, so its restore must grow a fresh block. The
// test compacts directly: relocation garbage alone stays below half the
// arena, so this churn never trips MaybeCompact's trigger.
TEST_F(UndoRoundTripTest, UndoAcrossArenaCompactionRestoresExactly) {
  Rng rng(11);
  ReachabilityFn uniform = [](StateId) { return 1.0; };
  OpUndo undo;
  size_t commits = 0, rollbacks = 0, relocating_rollbacks = 0;
  size_t compactions = 0;
  for (int step = 0; step < 2000 && rollbacks < 40; ++step) {
    StateId target = static_cast<StateId>(
        rng.UniformInt(0, static_cast<int64_t>(org_->num_states() - 1)));
    if (!org_->alive(target) || target == org_->root() ||
        org_->level(target) <= 0) {
      continue;
    }
    Organization before = org_->Clone();
    std::string before_text = Serialized(*org_);
    size_t garbage_before = org_->ArenaGarbageSlots();
    OpResult op = rng.Bernoulli(0.7)
                      ? ApplyDeleteParent(org_.get(), target, uniform, &undo)
                      : ApplyAddParent(org_.get(), target, uniform, &undo);
    if (!op.applied) continue;
    if (rng.Bernoulli(0.8)) {
      ++commits;
      continue;
    }
    // Only AppendSlot's relocation adds garbage within an op.
    size_t garbage = org_->ArenaGarbageSlots();
    if (garbage > garbage_before) ++relocating_rollbacks;
    if (rollbacks++ % 2 == 0) {
      org_->CompactStorage();
      if (org_->ArenaGarbageSlots() < garbage) ++compactions;
    }
    org_->Undo(undo);
    ExpectStatesEqual(*org_, before);
    ASSERT_EQ(Serialized(*org_), before_text) << "rollback at step " << step;
    ASSERT_TRUE(org_->Validate().ok()) << "after step " << step;
  }
  EXPECT_GE(rollbacks, 40u);
  EXPECT_GE(commits, 100u);
  EXPECT_GT(relocating_rollbacks, 0u);
  EXPECT_GT(compactions, 0u);
}

}  // namespace
}  // namespace lakeorg
