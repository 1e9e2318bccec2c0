// The closed adaptive loop (ROADMAP "serve -> observe -> repair", the
// paper's section 6 "learning from users" future work made real):
//
//   NavService sessions --ClickEvent--> ClickLogSink (bounded, lock-based)
//        ^                                   |
//        |                            AdaptivePolicy::Tick
//        |                                   |  drain, filter, blend into
//        |                                   |  BehaviorLog + demand counts
//        |                                   v
//   OrgSnapshotStore <--publish-- LiveLakeService::Reoptimize
//                                   (restrict_targets = observed subgraph,
//                                    table_weights   = observed demand)
//
// Every descend a session takes is one observed transition. The policy
// drains the sink, drops events that do not name a live edge of the
// *current* snapshot (stale versions, dead states, non-edges), blends
// the survivors into Dirichlet-smoothed transition posteriors
// (core/behavior_log), and scores drift: the
// count-weighted total-variation distance between the Equation 1 prior
// and the posterior at each observed state. When drift crosses the
// threshold, it re-optimizes only the observed subgraph under the
// demand-weighted objective and publishes the improved organization while
// serving continues on pinned snapshots.
//
// Determinism contract (what `difftest --adaptive` enforces): given the
// same event multiset — regardless of arrival interleaving — a Tick
// blends the same integer counts, computes bit-identical drift (states
// are scanned in ascending StateId order, never hash order), derives the
// same repair plan (BuildRepairPlan is a pure function), and publishes a
// byte-identical organization. Under a fake clock and fixed seeds the
// whole loop is replayable by a serial oracle.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/behavior_log.h"
#include "core/local_search.h"
#include "core/organization.h"

namespace lakeorg {

class LiveLakeService;

/// One observed click: a session descended `from` -> `to` while
/// navigating toward `query_attr` on snapshot `version`.
struct ClickEvent {
  uint64_t version = 0;
  StateId from = kInvalidId;
  StateId to = kInvalidId;
  uint32_t query_attr = 0;
};

/// Bounded, thread-safe buffer between serving threads (producers) and
/// the single-writer policy (consumer). Push never blocks: a full sink
/// drops the event and counts it (`adaptive.clicks_dropped_total`) —
/// losing telemetry under overload is fine, stalling a serving step is
/// not.
class ClickLogSink {
 public:
  explicit ClickLogSink(size_t capacity = 1 << 16);

  /// Appends one event; false (and a drop tally) when full.
  bool Push(const ClickEvent& event);

  /// Moves every buffered event to the end of *out; returns how many.
  size_t Drain(std::vector<ClickEvent>* out);

  size_t size() const;
  /// Totals over the sink's lifetime.
  uint64_t pushed() const;
  uint64_t dropped() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<ClickEvent> events_;
  uint64_t pushed_ = 0;
  uint64_t dropped_ = 0;
};

/// True when `event` names a live edge of `org`: both endpoints in range
/// and alive, `to` a child of `from`, and the query attribute in range.
/// Events that fail it are dropped, never blended.
bool ClickEventValid(const Organization& org, const OrgContext& ctx,
                     const ClickEvent& event);

/// Policy tunables.
struct AdaptivePolicyOptions {
  /// Dirichlet prior strength alpha (core/behavior_log). A power of two
  /// keeps the zero-observation blend bit-identical to the Equation 1
  /// prior ((alpha * p) / alpha == p exactly).
  double prior_strength = 32.0;
  /// Repair triggers when the demand-weighted drift score reaches this.
  double drift_threshold = 0.15;
  /// ... and at least this many clicks were blended since the last
  /// repair (keeps a handful of early clicks from thrashing the org).
  uint64_t min_clicks = 200;
  /// Pseudo-demand added to every table's weight so unobserved tables
  /// keep a positive stake in the weighted objective (their discovery
  /// probability must not be traded away entirely).
  double demand_floor = 1.0;
  /// Re-optimization tunables. restrict_targets, table_weights, and the
  /// seed are overwritten per repair (seed = reopt.seed + repairs so
  /// far, which keeps every repair deterministic but distinct).
  LocalSearchOptions reopt;
};

/// The deterministic repair plan one Tick derives; BuildRepairPlan is
/// shared by the policy and the difftest oracle.
struct AdaptiveRepairPlan {
  /// Demand-weighted total-variation drift in [0, 1].
  double drift = 0.0;
  /// Observed-subgraph states (ascending, unique, never the root) —
  /// LocalSearchOptions::restrict_targets for the repair.
  std::vector<StateId> targets;
  /// Demand-weighted objective: demand_floor + observed clicks per
  /// table, through attr -> table.
  std::vector<double> table_weights;
  /// The query attribute drift was evaluated under (the globally
  /// top-demanded attribute; smallest id wins ties). kInvalidId when no
  /// demand was observed.
  uint32_t top_attr = kInvalidId;
};

/// Derives drift + the restricted re-optimization plan from the blended
/// log and demand counts. Pure and deterministic: states are scanned in
/// ascending StateId order and all inputs are integer counts, so the
/// result is bit-identical no matter how many threads produced the
/// events. `demand_by_attr` must have one entry per context attribute.
AdaptiveRepairPlan BuildRepairPlan(const Organization& org,
                                   const OrgContext& ctx,
                                   const BehaviorLog& log,
                                   const std::vector<uint64_t>& demand_by_attr,
                                   const AdaptivePolicyOptions& options);

/// What one Tick did (also exported as adaptive.* metrics).
struct AdaptiveTickReport {
  /// Events taken out of the sink.
  size_t drained = 0;
  /// ... of which dropped for naming a superseded snapshot version.
  size_t dropped_stale = 0;
  /// ... or for not naming a live edge (dead/foreign states, non-edges).
  size_t dropped_invalid = 0;
  /// Drift score after blending.
  double drift = 0.0;
  bool repaired = false;
  /// Published version after the tick (unchanged when !repaired).
  uint64_t version = 0;
  /// Optimizer objective (demand-weighted effectiveness) of the
  /// published org when repaired; 0 otherwise.
  double effectiveness = 0.0;
  double reopt_seconds = 0.0;
  size_t reopt_proposals = 0;
};

/// Single-writer policy: drains the sink, maintains the cumulative
/// BehaviorLog + per-attribute demand, and triggers restricted
/// re-optimizations through LiveLakeService::Reoptimize. Tick() is the
/// deterministic entry point (tests, difftest, benches drive it
/// directly); Start()/Stop() run Tick on a background thread for
/// production serving. Ticks serialize on an internal mutex, so a
/// background ticker and manual Ticks never interleave.
class AdaptivePolicy {
 public:
  AdaptivePolicy(LiveLakeService* live, std::shared_ptr<ClickLogSink> sink,
                 AdaptivePolicyOptions options = {});
  ~AdaptivePolicy();

  AdaptivePolicy(const AdaptivePolicy&) = delete;
  AdaptivePolicy& operator=(const AdaptivePolicy&) = delete;

  /// One serve-observe-repair cycle; see the file comment.
  Result<AdaptiveTickReport> Tick();

  /// Runs Tick every `interval_seconds` on a background thread until
  /// Stop (or destruction). Tick errors are counted
  /// (adaptive.tick_errors_total), not fatal.
  void Start(double interval_seconds);
  void Stop();

  /// The cumulative blended log (cleared after every repair). Callers
  /// must not hold this reference across a concurrent Tick.
  const BehaviorLog& log() const { return log_; }
  uint64_t repairs() const;
  uint64_t clicks_blended() const;

 private:
  LiveLakeService* live_;
  std::shared_ptr<ClickLogSink> sink_;
  AdaptivePolicyOptions options_;

  /// Serializes Tick (manual callers vs the background thread).
  mutable std::mutex tick_mu_;
  std::vector<ClickEvent> drain_buf_;
  BehaviorLog log_;
  std::vector<uint64_t> demand_by_attr_;
  /// Snapshot version the cumulative state was blended against; a
  /// version change not caused by our own repair resets the state (the
  /// ids it refers to belong to the superseded org).
  uint64_t observed_version_ = 0;
  uint64_t clicks_since_repair_ = 0;
  uint64_t clicks_blended_ = 0;
  uint64_t repairs_ = 0;

  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  std::thread bg_thread_;
  bool bg_stop_ = false;
};

}  // namespace lakeorg
