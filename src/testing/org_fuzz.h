// Randomized differential-testing harness for the organization model.
//
// Three layers, all deterministic for a fixed seed:
//   1. MakeFuzzLake — a small random benchgen lake (TagCloud shape with
//      randomized tag/attribute counts) plus its TagIndex and OrgContext.
//   2. RandomOrganization — a random valid DAG over a context: leaves, tag
//      states and the root as in section 3.2, plus random interior states
//      over random tag subsets and random extra edges, every edge admitted
//      through Organization::AddEdge's own inclusion/cycle checks.
//   3. RunDiffTrial — one end-to-end differential trial: build a lake and
//      random organization(s), compare OrgEvaluator and
//      IncrementalEvaluator against ReferenceEvaluator, then drive a random ADD_PARENT / DELETE_PARENT
//      sequence with interleaved accept / reject-rollback, re-checking the
//      oracle, Validate() and the topic invariants after every step. With
//      dims > 1 the final organizations are also combined and checked
//      against the oracle's Eq. 8 aggregation.
//
// This header also holds what every harness in src/testing shares: the
// trial options and result bases and the byte-identity comparator.
// tools/difftest.cc drives the trials from the command line; the
// fuzz-labeled CTest tier runs fixed-seed corpora through the same code.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "benchgen/tagcloud.h"
#include "common/random.h"
#include "core/org_context.h"
#include "core/organization.h"
#include "lake/tag_index.h"

namespace lakeorg {

/// Comparison tolerance for |optimized - reference| in every harness
/// (docs/TESTING.md, tolerance policy).
inline constexpr double kFuzzTolerance = 1e-9;

/// One trial's configuration. Everything else a harness draws from the
/// seed or fixes as a constant, so (mode, seed, threads) plus a mode's
/// own fields name a trial exactly.
struct TrialOptions {
  /// Trial seed; drives the lake, organizations and op sequence. Printed
  /// with every failure so a trial can be replayed exactly.
  uint64_t seed = 1;
  /// Worker threads of the concurrent parts: the shard pool of the
  /// sharded trial, and the serving and adaptive walkers. The other
  /// trials are serial and never read it (difftest rejects --threads for
  /// them).
  size_t threads = 1;
};

/// Outcome of one trial. The harness records only what failed; the
/// driver prefixes the command that replays the trial.
struct TrialResult {
  bool ok = true;
  /// First failure, without the seed; empty when ok.
  std::string error;

  /// Records `msg` unless an earlier failure was already recorded.
  void Fail(const std::string& msg) {
    if (!ok) return;
    ok = false;
    error = msg;
  }
};

/// Serialized bytes of an organization (the byte-identity comparator).
std::string OrgBytes(const Organization& org);

/// A generated lake with its index and full-lake context.
struct FuzzLake {
  TagCloudBenchmark bench;
  TagIndex index;
  std::shared_ptr<const OrgContext> ctx;
};

/// Generates a random lake. Deterministic given `rng`'s state.
FuzzLake MakeFuzzLake(Rng* rng);

/// Builds a random valid organization over `ctx`: every attribute gets a
/// leaf, every tag a tag state reachable from the root, interiors and extra
/// edges are random. Levels are recomputed and the result always passes
/// Validate().
Organization RandomOrganization(std::shared_ptr<const OrgContext> ctx,
                                Rng* rng);

/// One differential trial's configuration.
struct DiffTrialOptions : TrialOptions {
  /// Number of dimensions; 1 fuzzes a single full-lake organization,
  /// > 1 partitions the tags randomly and also checks Eq. 8 aggregation.
  size_t dims = 1;
};

/// Outcome of one trial. Max diffs are over every comparison performed.
struct DiffTrialResult : TrialResult {
  double max_reach_diff = 0.0;
  double max_discovery_diff = 0.0;
  double max_effectiveness_diff = 0.0;
  double max_success_diff = 0.0;
  size_t num_states = 0;
  size_t num_attrs = 0;
  size_t ops_applied = 0;
  size_t ops_committed = 0;
  size_t ops_rolled_back = 0;
};

/// Runs one differential trial.
DiffTrialResult RunDiffTrial(const DiffTrialOptions& options);

/// Outcome of one repair trial.
struct RepairTrialResult : TrialResult {
  /// |IncrementalEvaluator - ReferenceEvaluator| on the repaired
  /// organization.
  double effectiveness_diff = 0.0;
  /// effectiveness - splice_effectiveness of the repair (the localized
  /// re-optimization's contribution; >= 0 by construction).
  double reopt_gain = 0.0;
  size_t leaves_added = 0;
  size_t leaves_removed = 0;
  size_t states_dropped = 0;
  size_t states_touched = 0;
};

/// Runs one repair differential trial: random lake -> random organization
/// -> random BeginDelta/TakeDelta mutation batch -> RepairOrganization.
/// Checks that the repaired organization passes Validate() and the topic
/// invariants, that its effectiveness matches ReferenceEvaluator to the
/// tolerance, and that repair + re-optimization is never worse than the
/// splice alone.
RepairTrialResult RunRepairTrial(const TrialOptions& options);

/// Outcome of one sharded trial.
struct ShardedTrialResult : TrialResult {
  size_t shards_built = 0;
  size_t states_stitched = 0;
  /// |OrgEvaluator - ReferenceEvaluator| effectiveness on the stitched
  /// organization.
  double effectiveness_diff = 0.0;
  /// |stitched - unsharded| full-context effectiveness gap (reported, not
  /// gated — shard quality at fuzz scale is noisy by construction).
  double sharded_vs_unsharded_gap = 0.0;
};

/// One sharded-optimization differential trial (tools/difftest.cc
/// --sharded). Deterministic for a fixed seed.
///
/// Properties checked per trial:
///   - shard-count-1 BuildShardedOrganization is BYTE-identical (via
///     SaveOrganization) to the unsharded OptimizeOrganization path, with
///     exactly equal effectiveness;
///   - a multi-shard build is byte-deterministic across thread counts and
///     under a deliberately tiny memory budget (serialized admission);
///   - sharded = multi-dim + stitch: BuildMultiDimOrganization over the
///     same partition, stitched with StitchShardOrganizations, serializes
///     byte-identically to the sharded build, and its dimensions are
///     byte-identical at 1 and 4 threads;
///   - the stitched organization passes Validate() and the topic
///     invariants, covers every context attribute with a leaf, has one
///     root child per shard, and its OrgEvaluator effectiveness matches
///     the naive ReferenceEvaluator oracle within the tolerance.
ShardedTrialResult RunShardedTrial(const TrialOptions& options);

}  // namespace lakeorg
