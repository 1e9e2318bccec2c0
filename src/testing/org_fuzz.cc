#include "testing/org_fuzz.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/evaluator.h"
#include "core/multidim.h"
#include "core/operations.h"
#include "core/reference_evaluator.h"
#include "core/repair.h"
#include "core/representatives.h"
#include "core/serialization.h"
#include "core/sharded_search.h"

namespace lakeorg {
namespace {

// Size envelope of fuzz lakes; actual counts are drawn uniformly per lake.
constexpr int64_t kMinTags = 5;
constexpr int64_t kMaxTags = 14;
constexpr int64_t kMinAttrs = 24;
constexpr int64_t kMaxAttrs = 70;

// RandomOrganization: interior states sampled over random tag subsets
// (kept only when some edge to them survives the inclusion/cycle
// checks), the probability of each optional structural edge being
// attempted, and of an extra interior -> leaf shortcut edge per (state,
// leaf-in-extent) pair that passes the inclusion check.
constexpr int64_t kMaxInteriorStates = 6;
constexpr double kEdgeProb = 0.35;
constexpr double kShortcutProb = 0.02;

/// Attempts parent -> child, first through the explicit cycle check, then
/// through AddEdge's own validation. Returns true when the edge was added.
bool TryEdge(Organization* org, StateId parent, StateId child) {
  if (org->WouldCreateCycle(parent, child)) return false;
  return org->AddEdge(parent, child).ok();
}

}  // namespace

std::string OrgBytes(const Organization& org) {
  std::ostringstream out;
  Status st = SaveOrganization(org, &out);
  return st.ok() ? out.str() : "<save failed: " + st.ToString() + ">";
}

FuzzLake MakeFuzzLake(Rng* rng) {
  TagCloudOptions opts;
  opts.num_tags = static_cast<size_t>(rng->UniformInt(kMinTags, kMaxTags));
  opts.target_attributes =
      static_cast<size_t>(rng->UniformInt(kMinAttrs, kMaxAttrs));
  opts.min_values = 5;
  opts.max_values = 20;
  opts.max_attrs_per_table = 6;
  opts.seed = static_cast<uint64_t>(rng->UniformInt(1, 1 << 30));

  FuzzLake out{GenerateTagCloud(opts), TagIndex(), nullptr};
  out.index = TagIndex::Build(out.bench.lake);
  out.ctx = OrgContext::BuildFull(out.bench.lake, out.index);
  return out;
}

Organization RandomOrganization(std::shared_ptr<const OrgContext> ctx,
                                Rng* rng) {
  size_t num_tags = ctx->num_tags();
  size_t num_attrs = ctx->num_attrs();
  Organization org(std::move(ctx));
  const OrgContext& c = org.ctx();

  for (uint32_t a = 0; a < num_attrs; ++a) org.AddLeaf(a);
  std::vector<StateId> tag_state(num_tags);
  for (uint32_t t = 0; t < num_tags; ++t) tag_state[t] = org.AddTagState(t);
  std::vector<uint32_t> all_tags(num_tags);
  for (uint32_t t = 0; t < num_tags; ++t) all_tags[t] = t;
  StateId root = org.AddRoot(all_tags);

  // Random interior states over random tag subsets, largest tag sets
  // first so that superset -> subset edge attempts layer the DAG.
  std::vector<StateId> interiors;
  if (num_tags >= 2) {
    size_t n = static_cast<size_t>(rng->UniformInt(0, kMaxInteriorStates));
    for (size_t i = 0; i < n; ++i) {
      size_t k = static_cast<size_t>(
          rng->UniformInt(2, static_cast<int64_t>(num_tags)));
      std::vector<size_t> pick = rng->SampleWithoutReplacement(num_tags, k);
      std::vector<uint32_t> tags(pick.begin(), pick.end());
      interiors.push_back(org.AddInteriorState(std::move(tags)));
    }
    std::sort(interiors.begin(), interiors.end(),
              [&org](StateId a, StateId b) {
                size_t ca = org.state(a).attrs.Count();
                size_t cb = org.state(b).attrs.Count();
                return ca != cb ? ca > cb : a < b;
              });
  }

  // Interior wiring: bigger -> smaller with probability kEdgeProb (AddEdge
  // rejects inclusion violations itself); root is the fallback parent.
  for (size_t i = 0; i < interiors.size(); ++i) {
    for (size_t j = i + 1; j < interiors.size(); ++j) {
      if (rng->Bernoulli(kEdgeProb)) {
        TryEdge(&org, interiors[i], interiors[j]);
      }
    }
  }
  for (StateId s : interiors) {
    if (rng->Bernoulli(kEdgeProb) || org.state(s).parents.empty()) {
      TryEdge(&org, root, s);
    }
  }

  // Tag states hang under random interiors carrying their tag; root is the
  // fallback so every tag state is reachable.
  for (uint32_t t = 0; t < num_tags; ++t) {
    for (StateId s : interiors) {
      TagSpan tags = org.tags(s);
      if (std::find(tags.begin(), tags.end(), t) == tags.end()) continue;
      if (rng->Bernoulli(kEdgeProb)) {
        TryEdge(&org, s, tag_state[t]);
      }
    }
    if (org.state(tag_state[t]).parents.empty()) {
      TryEdge(&org, root, tag_state[t]);
    }
  }

  // Leaves hang under the tag states of their tags: one mandatory parent
  // (randomly chosen), the rest with probability kEdgeProb.
  for (uint32_t a = 0; a < num_attrs; ++a) {
    const std::vector<uint32_t>& tags = c.attr_tags(a);
    size_t anchor = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(tags.size()) - 1));
    for (size_t i = 0; i < tags.size(); ++i) {
      if (i == anchor || rng->Bernoulli(kEdgeProb)) {
        TryEdge(&org, tag_state[tags[i]], org.LeafOf(a));
      }
    }
  }

  // Rare interior -> leaf shortcuts (multi-level skips are legal DAG
  // structure the evaluators must handle).
  for (StateId s : interiors) {
    org.state(s).attrs.ForEach([&](size_t a) {
      if (rng->Bernoulli(kShortcutProb)) {
        TryEdge(&org, s, org.LeafOf(static_cast<uint32_t>(a)));
      }
    });
  }

  org.RecomputeLevels();
  return org;
}

namespace {

// RunDiffTrial: length of the random accept/reject op sequence, the
// probability an applied operation is committed (vs rolled back), and
// the success-probability neighborhood threshold (§4.2).
constexpr size_t kDiffOps = 24;
constexpr double kDiffAcceptProb = 0.5;
constexpr double kSuccessTheta = 0.8;

// RunRecycleTrial: churn rounds (ops -> RecycleDeadStates -> slot reuse
// -> re-initialize -> oracle check), random ops per round, the
// probability an applied op is committed (rollbacks exercise the undo
// journal against recycled and relocated slots), and the probability a
// churn op is DELETE_PARENT (vs ADD_PARENT).
constexpr size_t kRecycleRounds = 4;
constexpr size_t kRecycleOpsPerRound = 10;
constexpr double kRecycleAcceptProb = 0.8;
constexpr double kRecycleDeleteProb = 0.7;

// RunRepairTrial: mutations per batch and the proposal budget of the
// localized re-optimization.
constexpr size_t kRepairMutations = 3;
constexpr size_t kRepairReoptProposals = 60;

// RunShardedTrial: the shard count is drawn from [2, 1 + kMaxShards];
// per-shard local-search proposal budget.
constexpr size_t kMaxShards = 4;
constexpr size_t kShardProposals = 40;

/// Folds |got - want| into a running max and fails `res` when it exceeds
/// the tolerance.
void CheckTol(double got, double want, double* max_diff, const char* what,
              TrialResult* res) {
  *max_diff = std::max(*max_diff, std::abs(got - want));
  if (std::abs(got - want) > kFuzzTolerance) {
    res->Fail(std::string(what) + " mismatch: optimized " +
              std::to_string(got) + " vs reference " + std::to_string(want));
  }
}

/// Random tag partition into at most `dims` non-empty groups.
std::vector<std::vector<TagId>> RandomTagPartition(
    const std::vector<TagId>& non_empty, size_t dims, Rng* rng) {
  std::vector<TagId> tags = non_empty;
  rng->Shuffle(&tags);
  size_t k = std::min(dims, tags.size());
  std::vector<std::vector<TagId>> parts(k);
  for (size_t i = 0; i < tags.size(); ++i) {
    size_t part = i < k ? i
                        : static_cast<size_t>(rng->UniformInt(
                              0, static_cast<int64_t>(k) - 1));
    parts[part].push_back(tags[i]);
  }
  return parts;
}

}  // namespace

DiffTrialResult RunDiffTrial(const DiffTrialOptions& options) {
  DiffTrialResult res;

  Rng rng(options.seed);
  FuzzLake lake = MakeFuzzLake(&rng);

  std::vector<std::shared_ptr<const OrgContext>> ctxs;
  if (options.dims <= 1) {
    ctxs.push_back(lake.ctx);
  } else {
    for (const std::vector<TagId>& part : RandomTagPartition(
             lake.index.NonEmptyTags(), options.dims, &rng)) {
      ctxs.push_back(OrgContext::Build(lake.bench.lake, lake.index, part));
    }
  }

  TransitionConfig config;
  ReferenceEvaluator ref(config);
  OrgEvaluator serial(config);

  std::vector<Organization> orgs;
  for (const auto& ctx : ctxs) {
    orgs.push_back(RandomOrganization(ctx, &rng));
  }
  res.num_states = orgs[0].NumAliveStates();
  res.num_attrs = orgs[0].ctx().num_attrs();

  // Static comparison of every dimension's fresh random organization.
  for (size_t d = 0; d < orgs.size() && res.ok; ++d) {
    const Organization& org = orgs[d];
    Status valid = org.Validate();
    if (!valid.ok()) {
      res.Fail("random org invalid (dim " + std::to_string(d) +
               "): " + valid.ToString());
      break;
    }
    Status topics = CheckTopicInvariants(org);
    if (!topics.ok()) {
      res.Fail("random org topic invariants (dim " + std::to_string(d) +
               "): " + topics.ToString());
      break;
    }

    // Per-attribute discovery against the oracle (within tolerance).
    std::vector<double> want = ref.AllAttributeDiscovery(org);
    std::vector<double> got = serial.AllAttributeDiscovery(org);
    for (size_t a = 0; a < want.size(); ++a) {
      CheckTol(got[a], want[a], &res.max_discovery_diff,
               "attribute discovery", &res);
    }

    // Per-state reachability for a few sampled attribute queries.
    size_t samples = std::min<size_t>(5, org.ctx().num_attrs());
    for (size_t i = 0; i < samples; ++i) {
      uint32_t q = static_cast<uint32_t>(rng.UniformInt(
          0, static_cast<int64_t>(org.ctx().num_attrs()) - 1));
      std::vector<double> want_reach =
          ref.ReachProbabilities(org, org.ctx().attr_vector(q));
      std::vector<double> got_reach =
          serial.ReachProbabilities(org, org.ctx().attr_vector(q));
      for (size_t s = 0; s < want_reach.size(); ++s) {
        CheckTol(got_reach[s], want_reach[s], &res.max_reach_diff,
                 "state reachability", &res);
      }
    }

    CheckTol(serial.Effectiveness(org), ref.Effectiveness(org),
             &res.max_effectiveness_diff, "effectiveness", &res);

    ReferenceSuccess want_success = ref.Success(org, kSuccessTheta);
    auto neighbors =
        OrgEvaluator::AttributeNeighbors(org.ctx(), kSuccessTheta);
    SuccessReport got_success = serial.Success(org, neighbors);
    CheckTol(got_success.mean, want_success.mean, &res.max_success_diff,
             "mean success", &res);
    for (size_t t = 0; t < want_success.per_table.size(); ++t) {
      CheckTol(got_success.per_table[t], want_success.per_table[t],
               &res.max_success_diff, "per-table success", &res);
    }
  }
  if (!res.ok) return res;

  // Randomized op sequence with interleaved accept / reject-rollback on
  // dimension 0, mirroring the local search's undo-log driving pattern.
  Organization& current = orgs[0];
  std::shared_ptr<const OrgContext> ctx0 = ctxs[0];
  IncrementalEvaluator inc(config, ctx0, IdentityRepresentatives(*ctx0));
  inc.Initialize(current);
  double ref_eff = ref.Effectiveness(current);
  CheckTol(inc.effectiveness(), ref_eff, &res.max_effectiveness_diff,
           "incremental initial effectiveness", &res);

  ReachabilityFn reach = [&inc](StateId s) {
    return inc.StateReachability(s);
  };
  OpUndo undo;
  for (size_t step = 0; step < kDiffOps && res.ok; ++step) {
    std::vector<StateId> topo = current.TopologicalOrder();
    StateId target = topo[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(topo.size()) - 1))];
    bool add = rng.Bernoulli(0.5);
    double eff_before = inc.effectiveness();

    OpResult op = add ? ApplyAddParent(&current, target, reach, &undo)
                      : ApplyDeleteParent(&current, target, reach, &undo);
    if (!op.applied) {
      if (!undo.states.empty()) {
        res.Fail("inapplicable op journaled state mutations");
      }
      continue;
    }
    res.ops_applied++;

    Status valid = current.Validate();
    if (!valid.ok()) {
      res.Fail("Validate after op " + std::to_string(step) + ": " +
               valid.ToString());
      break;
    }
    Status topics = CheckTopicInvariants(current);
    if (!topics.ok()) {
      res.Fail("topic invariants after op " + std::to_string(step) + ": " +
               topics.ToString());
      break;
    }

    ProposalEvaluation ev;
    inc.EvaluateProposal(current, op.topic_changed, op.children_changed,
                          op.removed, &ev);
    double ref_proposal_eff = ref.Effectiveness(current);
    CheckTol(ev.effectiveness, ref_proposal_eff,
             &res.max_effectiveness_diff, "proposal effectiveness", &res);

    const bool accept = rng.Bernoulli(kDiffAcceptProb);
    if (accept) inc.Commit(current, ev);
    // Every affected query against a full oracle DP on the mutated
    // organization: the leaf reach the proposal was decided on and, once
    // committed, the cached reach of the whole dirty closure.
    for (size_t qi = 0; qi < ev.affected_queries.size(); ++qi) {
      uint32_t q = ev.affected_queries[qi];
      uint32_t attr = inc.reps().query_attrs[q];
      std::vector<double> want_reach =
          ref.ReachProbabilities(current, ctx0->attr_vector(attr));
      CheckTol(ev.new_discovery[qi], want_reach[current.LeafOf(attr)],
               &res.max_reach_diff, "proposal leaf reachability", &res);
      if (!accept) continue;
      for (StateId d : ev.dirty) {
        CheckTol(inc.CachedReach(q, d), want_reach[d], &res.max_reach_diff,
                 "committed dirty reachability", &res);
      }
    }

    if (accept) {
      ref_eff = ref_proposal_eff;
      res.ops_committed++;
    } else {
      current.Undo(undo);
      res.ops_rolled_back++;
      Status valid_back = current.Validate();
      if (!valid_back.ok()) {
        res.Fail("Validate after rollback " + std::to_string(step) + ": " +
                 valid_back.ToString());
        break;
      }
      Status topics_back = CheckTopicInvariants(current);
      if (!topics_back.ok()) {
        res.Fail("topic invariants after rollback " + std::to_string(step) +
                 ": " + topics_back.ToString());
        break;
      }
      if (inc.effectiveness() != eff_before) {
        res.Fail("rejected proposal changed committed effectiveness");
      }
      // The rolled-back organization must be bit-identical as a model:
      // the oracle's recomputation agrees with the pre-op value exactly.
      double ref_back = ref.Effectiveness(current);
      if (ref_back != ref_eff) {
        res.Fail("rollback not bit-identical: reference effectiveness " +
                 std::to_string(ref_back) + " vs " + std::to_string(ref_eff));
      }
    }
  }
  if (!res.ok) return res;

  // Final cached state vs a full oracle pass over the fuzzed organization.
  std::vector<double> want_final = ref.AllAttributeDiscovery(current);
  for (uint32_t a = 0; a < want_final.size(); ++a) {
    CheckTol(inc.AttrDiscovery(a), want_final[a],
             &res.max_discovery_diff, "final cached discovery", &res);
  }
  CheckTol(inc.effectiveness(), ref.Effectiveness(current),
           &res.max_effectiveness_diff, "final effectiveness", &res);

  // Multi-dimensional aggregation (Eq. 8) across the final organizations.
  if (orgs.size() > 1) {
    std::vector<ShardSearchInfo> info(orgs.size());
    MultiDimOrganization multi(std::move(orgs), std::move(info));
    ReferenceMultiDim want_disc = ref.MultiDimDiscovery(multi);
    MultiDimSuccess got_disc = EvaluateMultiDimDiscovery(multi, config);
    CheckTol(got_disc.mean, want_disc.mean, &res.max_discovery_diff,
             "multi-dim mean discovery", &res);
    for (size_t i = 0; i < got_disc.tables.size(); ++i) {
      auto it = want_disc.per_table.find(got_disc.tables[i]);
      if (it == want_disc.per_table.end()) {
        res.Fail("multi-dim discovery covers unexpected table");
        break;
      }
      CheckTol(got_disc.success[i], it->second, &res.max_discovery_diff,
               "multi-dim table discovery", &res);
    }
    ReferenceMultiDim want_succ =
        ref.MultiDimSuccess(multi, kSuccessTheta);
    MultiDimSuccess got_succ =
        EvaluateMultiDimSuccess(multi, kSuccessTheta, config);
    CheckTol(got_succ.mean, want_succ.mean, &res.max_success_diff,
             "multi-dim mean success", &res);
    for (size_t i = 0; i < got_succ.tables.size(); ++i) {
      auto it = want_succ.per_table.find(got_succ.tables[i]);
      if (it == want_succ.per_table.end()) {
        res.Fail("multi-dim success covers unexpected table");
        break;
      }
      CheckTol(got_succ.success[i], it->second, &res.max_success_diff,
               "multi-dim table success", &res);
    }
  }
  return res;
}

RepairTrialResult RunRepairTrial(const TrialOptions& options) {
  RepairTrialResult res;

  Rng rng(options.seed);
  FuzzLake fl = MakeFuzzLake(&rng);
  Organization org = RandomOrganization(fl.ctx, &rng);

  // Random mutation batch on a copy of the generated lake, recorded as a
  // delta the way LiveLakeService::Apply records one.
  DataLake lake = fl.bench.lake;
  Status begin = lake.BeginDelta();
  if (!begin.ok()) {
    res.Fail("BeginDelta: " + begin.ToString());
    return res;
  }
  auto alive_organizable = [&lake]() {
    return lake.OrganizableAttributes();
  };
  for (size_t m = 0; m < kRepairMutations; ++m) {
    switch (rng.UniformInt(0, 2)) {
      case 0: {  // Add a table: 1-3 attributes with domains borrowed from
                 // existing attributes (guaranteed embeddable values).
        std::vector<AttributeId> donors = alive_organizable();
        if (donors.empty()) break;
        TableId t = lake.AddTable("fuzz_added_" + std::to_string(options.seed) +
                                  "_" + std::to_string(m));
        TagId tag;
        if (rng.Bernoulli(0.7)) {
          tag = static_cast<TagId>(rng.UniformInt(
              0, static_cast<int64_t>(lake.num_tags()) - 1));
        } else {
          tag = lake.GetOrCreateTag("fuzz_tag_" + std::to_string(options.seed) +
                                    "_" + std::to_string(m));
        }
        Status st = lake.AttachTag(t, tag);
        if (!st.ok()) {
          res.Fail("AttachTag: " + st.ToString());
          return res;
        }
        size_t n = static_cast<size_t>(rng.UniformInt(1, 3));
        for (size_t i = 0; i < n; ++i) {
          AttributeId donor = donors[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(donors.size()) - 1))];
          lake.AddAttribute(t, "col" + std::to_string(i),
                            lake.attribute(donor).values);
        }
        break;
      }
      case 1: {  // Remove a random alive table (keep the lake non-trivial).
        if (lake.NumAliveTables() <= 2) break;
        std::vector<TableId> alive;
        for (const Table& t : lake.tables()) {
          if (!t.removed) alive.push_back(t.id);
        }
        TableId victim = alive[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(alive.size()) - 1))];
        Status st = lake.RemoveTable(victim);
        if (!st.ok()) {
          res.Fail("RemoveTable: " + st.ToString());
          return res;
        }
        break;
      }
      default: {  // Retag a random alive attribute to 1-2 random tags.
        std::vector<AttributeId> attrs = alive_organizable();
        if (attrs.empty()) break;
        AttributeId a = attrs[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(attrs.size()) - 1))];
        std::vector<TagId> tags;
        size_t n = static_cast<size_t>(rng.UniformInt(1, 2));
        for (size_t i = 0; i < n; ++i) {
          tags.push_back(static_cast<TagId>(rng.UniformInt(
              0, static_cast<int64_t>(lake.num_tags()) - 1)));
        }
        Status st = lake.RetagAttribute(a, std::move(tags));
        if (!st.ok()) {
          res.Fail("RetagAttribute: " + st.ToString());
          return res;
        }
        break;
      }
    }
  }
  Result<LakeDelta> delta_result = lake.TakeDelta();
  if (!delta_result.ok()) {
    res.Fail("TakeDelta: " + delta_result.status().ToString());
    return res;
  }
  LakeDelta delta = std::move(delta_result).value();
  Status topics = lake.ComputeMissingTopicVectors(*fl.bench.store);
  if (!topics.ok()) {
    res.Fail("ComputeMissingTopicVectors: " + topics.ToString());
    return res;
  }
  TagIndex index = TagIndex::Build(lake);
  if (index.NonEmptyTags().empty()) return res;  // Trivially emptied lake.

  RepairOptions ropts;
  ropts.reopt_max_proposals = kRepairReoptProposals;
  ropts.seed = options.seed * 7919 + 13;
  Result<RepairResult> repaired =
      RepairOrganization(org, lake, index, delta, ropts);
  if (!repaired.ok()) {
    res.Fail("RepairOrganization: " + repaired.status().ToString());
    return res;
  }
  RepairResult rep = std::move(repaired).value();
  res.reopt_gain = rep.effectiveness - rep.splice_effectiveness;
  res.leaves_added = rep.leaves_added;
  res.leaves_removed = rep.leaves_removed;
  res.states_dropped = rep.states_dropped;
  res.states_touched = rep.states_touched;

  Status valid = rep.org.Validate();
  if (!valid.ok()) {
    res.Fail("repaired org invalid: " + valid.ToString());
    return res;
  }
  Status inv = CheckTopicInvariants(rep.org);
  if (!inv.ok()) {
    res.Fail("repaired org topic invariants: " + inv.ToString());
    return res;
  }
  // Every organizable attribute of the post-delta lake must have a leaf.
  size_t leaves = 0;
  for (StateId s = 0; s < rep.org.num_states(); ++s) {
    const OrgState& st = rep.org.state(s);
    if (st.alive && st.kind == StateKind::kLeaf) ++leaves;
  }
  if (leaves != rep.ctx->num_attrs()) {
    res.Fail("leaf count " + std::to_string(leaves) + " != context attrs " +
             std::to_string(rep.ctx->num_attrs()));
    return res;
  }
  if (rep.effectiveness + kFuzzTolerance < rep.splice_effectiveness) {
    res.Fail("re-optimized effectiveness " + std::to_string(rep.effectiveness) +
             " below splice-only " + std::to_string(rep.splice_effectiveness));
    return res;
  }

  // Differential check: the incremental evaluator and the brute-force
  // reference must agree on the repaired organization.
  IncrementalEvaluator inc(ropts.transition, rep.ctx,
                           IdentityRepresentatives(*rep.ctx));
  inc.Initialize(rep.org);
  double want = ReferenceEvaluator(ropts.transition).Effectiveness(rep.org);
  res.effectiveness_diff = std::abs(inc.effectiveness() - want);
  if (res.effectiveness_diff > kFuzzTolerance) {
    res.Fail("effectiveness mismatch: incremental " +
             std::to_string(inc.effectiveness()) + " vs reference " +
             std::to_string(want));
  }
  return res;
}

RecycleTrialResult RunRecycleTrial(const TrialOptions& options) {
  RecycleTrialResult res;

  Rng rng(options.seed);
  FuzzLake fl = MakeFuzzLake(&rng);
  std::shared_ptr<const OrgContext> ctx = fl.ctx;
  Organization current = RandomOrganization(ctx, &rng);
  const size_t num_tags = ctx->num_tags();
  const uint32_t num_attrs = static_cast<uint32_t>(ctx->num_attrs());

  TransitionConfig config;
  ReferenceEvaluator ref(config);
  IncrementalEvaluator inc(config, ctx, IdentityRepresentatives(*ctx));
  inc.Initialize(current);

  ReachabilityFn reach = [&inc](StateId s) {
    return inc.StateReachability(s);
  };
  OpUndo undo;

  for (size_t round = 0; round < kRecycleRounds && res.ok; ++round) {
    // Churn: a delete-biased op sequence (the second and later rounds run
    // it over recycled slots, which is the StateId-stability stress).
    for (size_t i = 0; i < kRecycleOpsPerRound && res.ok; ++i) {
      std::vector<StateId> topo = current.TopologicalOrder();
      StateId target = topo[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(topo.size()) - 1))];
      bool del = rng.Bernoulli(kRecycleDeleteProb);
      double eff_before = inc.effectiveness();
      OpResult op = del ? ApplyDeleteParent(&current, target, reach, &undo)
                        : ApplyAddParent(&current, target, reach, &undo);
      if (!op.applied) continue;
      res.ops_applied++;

      Status valid = current.Validate();
      if (!valid.ok()) {
        res.Fail("Validate after churn op: " + valid.ToString());
        break;
      }
      Status topics = CheckTopicInvariants(current);
      if (!topics.ok()) {
        res.Fail("topic invariants after churn op: " + topics.ToString());
        break;
      }

      ProposalEvaluation ev;
      inc.EvaluateProposal(current, op.topic_changed, op.children_changed,
                            op.removed, &ev);
      CheckTol(ev.effectiveness, ref.Effectiveness(current),
               &res.max_effectiveness_diff, "churn proposal effectiveness",
               &res);

      if (rng.Bernoulli(kRecycleAcceptProb)) {
        inc.Commit(current, ev);
      } else {
        current.Undo(undo);
        if (inc.effectiveness() != eff_before) {
          res.Fail("rejected churn op changed committed effectiveness");
        }
      }
    }
    if (!res.ok) break;

    // Snapshot identities, then recycle.
    const size_t n = current.num_states();
    std::vector<StateId> leaf_before(num_attrs);
    for (uint32_t a = 0; a < num_attrs; ++a) {
      leaf_before[a] = current.LeafOf(a);
    }
    std::vector<uint32_t> version_before(n);
    for (StateId s = 0; s < n; ++s) {
      version_before[s] = current.slot_version(s);
    }

    size_t recycled = current.RecycleDeadStates();
    res.states_recycled += recycled;
    if (current.FreeListSize() < recycled) {
      res.Fail("free list smaller than the recycled count");
      break;
    }

    // Drain the free list with fresh random interior states. Every one
    // must land on a recycled slot (num_states unchanged) with a bumped
    // slot version, and attach under the root.
    std::vector<StateId> tag_state(num_tags, kInvalidId);
    for (StateId s = 0; s < n; ++s) {
      if (current.alive(s) && current.kind(s) == StateKind::kTag) {
        tag_state[current.tags(s)[0]] = s;
      }
    }
    while (current.FreeListSize() > 0 && res.ok) {
      size_t k = static_cast<size_t>(
          rng.UniformInt(2, static_cast<int64_t>(std::max<size_t>(2, num_tags))));
      std::vector<size_t> pick =
          rng.SampleWithoutReplacement(num_tags, std::min(k, num_tags));
      std::vector<uint32_t> tags(pick.begin(), pick.end());
      StateId s = current.AddInteriorState(std::move(tags));
      res.slots_reused++;
      if (s >= n) {
        res.Fail("reused state did not come from the free list");
        break;
      }
      if (current.slot_version(s) != version_before[s] + 1) {
        res.Fail("slot version not bumped on reuse");
        break;
      }
      if (!TryEdge(&current, current.root(), s)) {
        res.Fail("could not attach recycled state under the root");
        break;
      }
      TagSpan stags = current.tags(s);
      std::vector<uint32_t> own_tags(stags.begin(), stags.end());
      for (uint32_t t : own_tags) {
        if (tag_state[t] != kInvalidId && rng.Bernoulli(0.5)) {
          TryEdge(&current, s, tag_state[t]);
        }
      }
    }
    if (!res.ok) break;
    if (current.num_states() != n) {
      res.Fail("slot reuse grew the state array");
      break;
    }

    // Once drained, allocation must resume appending at the tail.
    if (recycled > 0) {
      std::vector<size_t> pick = rng.SampleWithoutReplacement(
          num_tags, std::min<size_t>(2, num_tags));
      std::vector<uint32_t> tags(pick.begin(), pick.end());
      StateId fresh = current.AddInteriorState(std::move(tags));
      if (fresh != n) {
        res.Fail("post-drain allocation did not extend the state array");
        break;
      }
      TryEdge(&current, current.root(), fresh);
    }

    // Leaf StateIds are permanent across recycling (section 3.2: leaves
    // are never removed, so their slots can never be reused).
    for (uint32_t a = 0; a < num_attrs && res.ok; ++a) {
      if (current.LeafOf(a) != leaf_before[a] ||
          !current.alive(leaf_before[a])) {
        res.Fail("leaf StateId changed across recycling");
      }
    }
    if (!res.ok) break;

    current.RecomputeLevels();
    Status valid = current.Validate();
    if (!valid.ok()) {
      res.Fail("Validate after recycle round: " + valid.ToString());
      break;
    }
    Status topics = CheckTopicInvariants(current);
    if (!topics.ok()) {
      res.Fail("topic invariants after recycle round: " + topics.ToString());
      break;
    }

    // Recycled ids changed identity, so evaluator caches must be rebuilt
    // (the documented RecycleDeadStates contract); afterwards the
    // evaluator must again match the oracle.
    inc.Initialize(current);
    CheckTol(inc.effectiveness(), ref.Effectiveness(current),
             &res.max_effectiveness_diff, "post-recycle effectiveness", &res);
  }
  if (!res.ok) return res;

  // Final cached state vs a full oracle pass.
  std::vector<double> want = ref.AllAttributeDiscovery(current);
  for (uint32_t a = 0; a < want.size(); ++a) {
    CheckTol(inc.AttrDiscovery(a), want[a], &res.max_discovery_diff,
             "final cached discovery", &res);
  }
  return res;
}

ShardedTrialResult RunShardedTrial(const TrialOptions& options) {
  ShardedTrialResult res;

  Rng rng(options.seed);
  FuzzLake fl = MakeFuzzLake(&rng);

  LocalSearchOptions search;
  search.patience = 20;
  search.max_proposals = kShardProposals;
  search.seed = static_cast<uint64_t>(rng.UniformInt(1, 1 << 30));
  search.record_history = false;

  // Unsharded baseline over the full context.
  Result<LocalSearchResult> unsharded = OptimizeOrganization(
      BuildClusteringOrganization(fl.ctx), search);
  if (!unsharded.ok()) {
    res.Fail("unsharded optimize: " + unsharded.status().ToString());
    return res;
  }

  // Property 1: one shard is byte-identical to the unsharded path.
  ShardedSearchOptions sopts;
  sopts.shards = 1;
  sopts.search = search;
  sopts.num_threads = options.threads;
  Result<ShardedSearchResult> one =
      BuildShardedOrganization(fl.bench.lake, fl.index, sopts);
  if (!one.ok()) {
    res.Fail("1-shard build: " + one.status().ToString());
    return res;
  }
  if (one.value().stitched) {
    res.Fail("1-shard build went through the stitcher");
    return res;
  }
  if (OrgBytes(one.value().org) != OrgBytes(unsharded.value().org)) {
    res.Fail("1-shard organization differs byte-wise from unsharded");
    return res;
  }
  if (one.value().shards[0].effectiveness !=
      unsharded.value().effectiveness) {
    res.Fail("1-shard effectiveness differs from unsharded");
    return res;
  }

  // Property 2: a multi-shard build is byte-deterministic across thread
  // counts and under a tiny memory budget (fully serialized admission).
  sopts.shards = 2 + options.seed % kMaxShards;
  sopts.num_threads = 1;
  Result<ShardedSearchResult> serial_build =
      BuildShardedOrganization(fl.bench.lake, fl.index, sopts);
  if (!serial_build.ok()) {
    res.Fail("sharded build (1 thread): " + serial_build.status().ToString());
    return res;
  }
  const ShardedSearchResult& sharded = serial_build.value();
  std::string bytes = OrgBytes(sharded.org);

  sopts.num_threads = options.threads;
  Result<ShardedSearchResult> threaded =
      BuildShardedOrganization(fl.bench.lake, fl.index, sopts);
  if (!threaded.ok()) {
    res.Fail("sharded build (threaded): " + threaded.status().ToString());
    return res;
  }
  if (OrgBytes(threaded.value().org) != bytes) {
    res.Fail("threaded sharded build differs byte-wise from serial");
    return res;
  }
  sopts.memory_budget_bytes = 1;  // always below any estimate
  Result<ShardedSearchResult> budgeted =
      BuildShardedOrganization(fl.bench.lake, fl.index, sopts);
  if (!budgeted.ok()) {
    res.Fail("sharded build (budgeted): " + budgeted.status().ToString());
    return res;
  }
  if (OrgBytes(budgeted.value().org) != bytes) {
    res.Fail("memory-budgeted sharded build differs byte-wise from unbudgeted");
    return res;
  }

  // Property 3: sharded = multi-dim + stitch. The multi-dimensional
  // organization over the same partition, stitched, serializes exactly
  // like the sharded build, and its dimensions are byte-identical at 1
  // and 4 threads.
  sopts.memory_budget_bytes = 0;
  sopts.num_threads = 1;
  Result<MultiDimOrganization> multi =
      BuildMultiDimOrganization(fl.bench.lake, fl.index, sopts);
  sopts.num_threads = 4;
  Result<MultiDimOrganization> multi4 =
      BuildMultiDimOrganization(fl.bench.lake, fl.index, sopts);
  if (!multi.ok() || !multi4.ok()) {
    res.Fail("multi-dim build: " +
             (multi.ok() ? multi4 : multi).status().ToString());
    return res;
  }
  const std::vector<Organization>& dims = multi.value().dimensions();
  std::string multi_bytes;
  if (dims.size() == 1) {
    multi_bytes = OrgBytes(dims[0]);
  } else {
    Result<Organization> restitched = StitchShardOrganizations(
        OrgContext::BuildFull(fl.bench.lake, fl.index), dims);
    if (!restitched.ok()) {
      res.Fail("stitching multi-dim dimensions: " +
               restitched.status().ToString());
      return res;
    }
    multi_bytes = OrgBytes(restitched.value());
  }
  if (multi_bytes != bytes) {
    res.Fail("stitched multi-dim organization differs byte-wise from the "
             "sharded build");
    return res;
  }
  const std::vector<Organization>& dims4 = multi4.value().dimensions();
  bool same_dims = dims.size() == dims4.size();
  for (size_t d = 0; same_dims && d < dims.size(); ++d) {
    same_dims = OrgBytes(dims[d]) == OrgBytes(dims4[d]);
  }
  if (!same_dims) {
    res.Fail("multi-dim dimensions differ byte-wise between 1 and 4 threads");
    return res;
  }

  // Property 4: the stitched organization is a valid, fully covering
  // organization whose evaluation matches the oracle.
  res.shards_built = sharded.shards.size();
  res.states_stitched = sharded.org.NumAliveStates();
  const Organization& stitched = sharded.org;
  if (sharded.shards.size() > 1 && !sharded.stitched) {
    res.Fail("multi-shard build skipped the stitcher");
    return res;
  }
  Status valid = stitched.Validate();
  if (!valid.ok()) {
    res.Fail("stitched Validate: " + valid.ToString());
    return res;
  }
  Status topics = CheckTopicInvariants(stitched);
  if (!topics.ok()) {
    res.Fail("stitched topic invariants: " + topics.ToString());
    return res;
  }
  const OrgContext& fctx = stitched.ctx();
  for (uint32_t a = 0; a < fctx.num_attrs(); ++a) {
    if (stitched.LeafOf(a) == kInvalidId) {
      res.Fail("attribute " + std::to_string(a) +
               " has no leaf in the stitched organization");
      return res;
    }
  }
  if (sharded.stitched &&
      stitched.children(stitched.root()).size() != sharded.shards.size()) {
    res.Fail("stitched root has " +
             std::to_string(stitched.children(stitched.root()).size()) +
             " children for " + std::to_string(sharded.shards.size()) +
             " shards");
    return res;
  }

  TransitionConfig config;
  OrgEvaluator eval(config);
  ReferenceEvaluator ref(config);
  double got = eval.Effectiveness(stitched);
  double want = ref.Effectiveness(stitched);
  res.effectiveness_diff = std::abs(got - want);
  if (res.effectiveness_diff > kFuzzTolerance) {
    res.Fail("stitched effectiveness: optimized " + std::to_string(got) +
             " vs reference " + std::to_string(want));
    return res;
  }
  res.sharded_vs_unsharded_gap =
      std::abs(got - eval.Effectiveness(unsharded.value().org));
  return res;
}

}  // namespace lakeorg
