// Behavior-log driven transition updates (section 2.4): "since our model
// uses a standard Markov model, we can apply existing incremental model
// estimation techniques to maintain and update the transition
// probabilities as behavior logs and workload patterns become available
// through the use of an organization by users."
//
// BehaviorLog accumulates observed user transitions; AdaptiveTransitionModel
// blends the content-based prior of Equation 1 with Dirichlet-smoothed
// empirical transition frequencies:
//
//   P(c | s) = (alpha * P_eq1(c | s, X) + n(s, c)) / (alpha + n(s))
//
// where alpha is the prior strength (pseudo-count mass given to the
// content model) and n(s, c) counts observed s -> c transitions. With no
// observations this reduces exactly to Equation 1; with many, it converges
// to the maximum-likelihood estimate of the logged behavior.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/organization.h"
#include "core/transition.h"

namespace lakeorg {

/// Accumulated click-through counts over an organization's edges.
/// A StateId names one state for the organization's whole life, so a log
/// survives incremental reorganization; counts on removed states simply
/// stop mattering. Consumers that blend events into a log (the adaptive
/// loop) validate each against the current organization first
/// (ClickEventValid) and Clear() the log when the organization's lineage
/// changes (a repair splice renumbers states).
class BehaviorLog {
 public:
  /// Records one observed user transition from `from` to `to`.
  void Record(StateId from, StateId to);

  /// Records a whole discovery sequence (consecutive pairs).
  void RecordPath(const std::vector<StateId>& path);

  /// Observed count for edge (from, to).
  uint64_t EdgeCount(StateId from, StateId to) const;

  /// Total observed transitions out of `from`.
  uint64_t OutCount(StateId from) const;

  /// Total transitions recorded.
  uint64_t total() const { return total_; }

  /// Merges another log into this one (e.g. per-user logs into a global).
  void Merge(const BehaviorLog& other);

  /// Drops all counts.
  void Clear();

 private:
  static uint64_t Key(StateId from, StateId to) {
    return (static_cast<uint64_t>(from) << 32) | to;
  }
  std::unordered_map<uint64_t, uint64_t> edge_counts_;
  std::unordered_map<StateId, uint64_t> out_counts_;
  uint64_t total_ = 0;
};

/// Equation 1 blended with logged behavior.
class AdaptiveTransitionModel {
 public:
  /// `prior_strength` (alpha) is the pseudo-count mass of the content
  /// prior; must be positive.
  AdaptiveTransitionModel(TransitionConfig config, double prior_strength)
      : config_(config), prior_strength_(prior_strength) {}

  /// Posterior transition probabilities from `s` for query topic `query`,
  /// aligned with org.state(s).children. Requires s to have children.
  std::vector<double> Probabilities(const Organization& org,
                                    const BehaviorLog& log, StateId s,
                                    const Vec& query) const;

  /// The content prior alone (Equation 1 over s's children) — exactly
  /// what Probabilities blends the observations into. The adaptive
  /// loop's drift score compares this against the posterior.
  std::vector<double> PriorProbabilities(const Organization& org, StateId s,
                                         const Vec& query) const;

  const TransitionConfig& config() const { return config_; }
  double prior_strength() const { return prior_strength_; }

 private:
  TransitionConfig config_;
  double prior_strength_;
};

}  // namespace lakeorg
