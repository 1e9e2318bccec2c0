// Evaluation of organizations.
//
// OrgEvaluator: stateless batch evaluation — reach probabilities via the
// topological DP of Equation 4, attribute/table discovery probabilities
// (Definitions 1-2), organization effectiveness (Equations 6-7), and the
// success-probability measure of section 4.2.
//
// IncrementalEvaluator: the search-time evaluator of section 3.4. It keeps
// per-query reach caches, restricts re-evaluation to the affected subgraph
// of a proposed operation (descendant closure of the changed states), and
// optionally evaluates only attribute representatives. A proposal is
// scored from the reach of the affected queries' own leaves; only Commit
// recomputes the rest of the closure. Cache entries that
// an accepted operation may have invalidated for queries that were not
// re-evaluated are tracked with per-query stale bits and repaired on
// demand, so table discovery probabilities stay exact for the query set in
// use.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/dynamic_bitset.h"
#include "core/organization.h"
#include "core/transition.h"

namespace lakeorg {

/// Per-table success probabilities (section 4.2) for one organization.
struct SuccessReport {
  /// Success probability per local table id.
  std::vector<double> per_table;
  /// Mean over tables.
  double mean = 0.0;

  /// The per-table values sorted ascending (the Figure 2 series).
  std::vector<double> SortedAscending() const;
};

/// Stateless, serial batch evaluator.
class OrgEvaluator {
 public:
  explicit OrgEvaluator(TransitionConfig config = {}) : config_(config) {}

  /// Reach probability P(s | X, O) for every state (indexed by StateId;
  /// dead/unreachable states get 0), for query topic vector `query`.
  std::vector<double> ReachProbabilities(const Organization& org,
                                         const Vec& query) const;

  /// As above, pushing along `topo` = org.TopologicalOrder(). Callers that
  /// run one DP per query compute the order once and pass it to each.
  std::vector<double> ReachProbabilities(const Organization& org,
                                         const Vec& query,
                                         const std::vector<StateId>& topo)
      const;

  /// Discovery probability of one attribute (Definition 1): reach of its
  /// leaf under the attribute's own topic vector as the query. The DP
  /// sweeps only the leaf's ancestors, in topological order, so the value
  /// is bit-identical to ReachProbabilities(org, query)[LeafOf(attr)].
  double AttributeDiscovery(const Organization& org, uint32_t attr) const;

  /// Discovery probabilities of all context attributes (one ancestor
  /// sweep per attribute, as AttributeDiscovery; the exact,
  /// non-approximate evaluation).
  std::vector<double> AllAttributeDiscovery(const Organization& org) const;

  /// Table discovery probability (Equation 5) from per-attribute values.
  static double TableDiscovery(const OrgContext& ctx, uint32_t table,
                               const std::vector<double>& attr_discovery);

  /// Organization effectiveness (Equations 6-7) from per-attribute
  /// values, weighted by table: sum_t w_t * P(T_t | O) / sum_t w_t.
  /// Empty `table_weights` means unit weights — the paper's uniform mean
  /// over tables. Otherwise it needs one finite, non-negative entry per
  /// table and a positive sum; the adaptive loop scores organizations
  /// against observed query demand this way.
  static double Effectiveness(const OrgContext& ctx,
                              const std::vector<double>& attr_discovery,
                              const std::vector<double>& table_weights = {});

  /// Exact organization effectiveness (runs AllAttributeDiscovery).
  double Effectiveness(const Organization& org) const;

  /// neighbors[a] = attributes A_i with cosine(A_i, a) >= theta, including
  /// a itself (the success-probability candidate sets of section 4.2).
  static std::vector<std::vector<uint32_t>> AttributeNeighbors(
      const OrgContext& ctx, double theta);

  /// Success probabilities per table (section 4.2): one DP per attribute
  /// query, over the ancestors of its neighbours' leaves;
  /// Success(A|O) = 1 - prod_{A_i in neighbors[A]} (1 - P(A_i|A,O)).
  SuccessReport Success(const Organization& org,
                        const std::vector<std::vector<uint32_t>>& neighbors)
      const;

  /// Mean reach of every state over a set of attribute queries
  /// (Equation 10's reachability probability).
  std::vector<double> StateReachability(
      const Organization& org, const std::vector<uint32_t>& query_attrs) const;

  const TransitionConfig& config() const { return config_; }

 private:
  TransitionConfig config_;
};

/// Attribute representatives (section 3.4): a query set (medoid attributes)
/// plus the attribute -> representative mapping.
struct RepresentativeSet {
  /// Local attribute ids used as queries.
  std::vector<uint32_t> query_attrs;
  /// For every context attribute, the index into query_attrs of its
  /// representative.
  std::vector<uint32_t> rep_of;
  /// Members of each representative's partition (indices are context
  /// attribute ids).
  std::vector<std::vector<uint32_t>> members;
};

/// Outcome of evaluating one proposed operation without committing it:
/// everything the accept/reject decision (Eq. 9) reads. The reach of the
/// rest of the dirty closure is not part of it; Commit computes that for
/// accepted proposals only.
struct ProposalEvaluation {
  /// Effectiveness of the proposal organization.
  double effectiveness = 0.0;
  /// Dirty states (descendant closure of the operation's changes), in the
  /// proposal organization's topological order.
  std::vector<StateId> dirty;
  /// Indices into the query set whose leaf lies in the dirty closure.
  std::vector<uint32_t> affected_queries;
  /// new_discovery[i] = reach of affected_queries[i]'s own leaf in the
  /// proposal organization (its discovery probability).
  std::vector<double> new_discovery;
  /// (local table, new discovery probability) for affected tables.
  std::vector<std::pair<uint32_t, double>> new_table_probs;
  /// Number of context attributes whose discovery probability was
  /// re-evaluated (members of affected representatives).
  size_t affected_attrs = 0;
  /// States removed by the operation.
  std::vector<StateId> removed;
};

/// Search-time incremental evaluator over a fixed query set. Serial: the
/// optimizer parallelizes across shards (OptimizeTagPartition), not
/// within one evaluator.
class IncrementalEvaluator {
 public:
  /// `reps` defines the query set; use IdentityRepresentatives for exact
  /// evaluation (section 3.4 approximation disabled).
  IncrementalEvaluator(TransitionConfig config,
                       std::shared_ptr<const OrgContext> ctx,
                       RepresentativeSet reps);

  /// Installs per-table objective weights: effectiveness is
  /// sum_t w_t * P(T_t | O) / sum_t w_t (the adaptive loop's
  /// demand-weighted objective). Must be called before Initialize.
  /// `weights` needs one finite, non-negative entry per context table
  /// with a positive sum; empty restores unit weights (the default), the
  /// uniform mean over tables.
  Status SetTableWeights(std::vector<double> weights);

  /// Full evaluation of `org`; resets all caches. `org` becomes the
  /// committed organization (the caller must keep it alive and unmodified
  /// until the next Commit).
  void Initialize(const Organization& org);

  /// Effectiveness of the committed organization over the query set.
  double effectiveness() const { return effectiveness_; }

  /// Mean cached reach of a state over the query set (Equation 10).
  /// Entries not re-evaluated for skipped queries may be slightly stale;
  /// the local search uses this only to order proposals.
  double StateReachability(StateId s) const;

  /// Evaluates `proposal`: either a mutated clone of the committed
  /// organization, or the committed organization itself mutated in place
  /// (the local search's undo-log path — valid because cache repair only
  /// reads non-dirty states, which the operation did not touch; callers
  /// must Undo or Commit before the next proposal). `topic_changed` /
  /// `children_changed` / `removed` come from the operation. Computes each
  /// affected query's reach at its own leaf only, from a DP over that
  /// leaf's dirty ancestors and their parents.
  void EvaluateProposal(const Organization& proposal,
                        const std::vector<StateId>& topic_changed,
                        const std::vector<StateId>& children_changed,
                        const std::vector<StateId>& removed,
                        ProposalEvaluation* out);

  /// Commits the proposal just evaluated: `eval` must be the output of the
  /// last EvaluateProposal call, and `new_org` that call's proposal (or
  /// the object now holding it). Runs the reach DP over the whole dirty
  /// closure for every affected query, writing it into the reach cache,
  /// then makes `new_org` the committed organization. `eval` is only read,
  /// so the caller can keep reusing its buffers for the next proposal.
  void Commit(const Organization& new_org, const ProposalEvaluation& eval);

  /// Number of queries in the query set.
  size_t num_queries() const { return reps_.query_attrs.size(); }

  /// Upper bound on the transition-row memo's bytes per (query, state):
  /// one arena double plus its validity flag.
  static constexpr size_t kRowMemoBytesPerEntry =
      sizeof(double) + sizeof(uint8_t);

  /// The representative set in use.
  const RepresentativeSet& reps() const { return reps_; }

  /// Discovery probability currently cached for a context attribute
  /// (through its representative).
  double AttrDiscovery(uint32_t attr) const;

  /// Cached per-table discovery probabilities.
  const std::vector<double>& table_probs() const { return table_prob_; }

  /// Cached reach of state `s` for query `q` in the committed
  /// organization. Fresh for the dirty closure of each affected query of
  /// the last Commit; other entries may be stale (see StateReachability).
  double CachedReach(uint32_t q, StateId s) const { return reach_[q][s]; }

 private:
  /// Reusable scratch: sims/probs for one state's child list, a
  /// per-state accumulation vector for EvaluateProposal, and the explicit
  /// DFS stack of EnsureFresh. The tallies are flushed into the shared
  /// counters once per EvaluateProposal or Commit, so the hot loops never
  /// touch an atomic.
  struct EvalScratch {
    std::vector<double> sims;
    std::vector<double> probs;
    std::vector<double> state_reach;
    std::vector<StateId> stack;
    uint64_t cache_hits = 0;
    uint64_t cache_repairs = 0;
    uint64_t row_hits = 0;
    uint64_t row_misses = 0;
    uint64_t row_no_slot = 0;
  };

  /// Marks `leaf`'s dirty ancestors (itself included) kReceives and
  /// their parents kSweeps in leaf_mark_, listing them in leaf_marked_,
  /// and zeroes the receiving states' scratch reach.
  void MarkLeafAncestors(const Organization& proposal, StateId leaf);

  /// Drains the scratch tallies into the shared counters.
  void FlushTallies();

  /// Ensures reach_[q][s] is fresh for the committed organization,
  /// repairing stale ancestors with an explicit-stack DFS (deep
  /// organizations must not overflow the call stack).
  double EnsureFresh(uint32_t q, StateId s);

  /// Returns the transition probabilities from `parent` to each of its
  /// children in `org`, for query q: the memoized row when it is valid,
  /// else a freshly computed one, stored in `parent`'s row slot (see
  /// below) when it fits and in scratch_.probs otherwise. Allocation-free
  /// in the steady state. Child-topic cosines come from kappa_cache_ (see
  /// below), so only children whose topic changed since the last proposal
  /// pay for a dot product.
  const double* TransitionsFromInto(const Organization& org, StateId parent,
                                    uint32_t q, const Vec& query,
                                    double query_norm);

  /// Marks the kappa_cache_ entries of `states` invalid for every query.
  void InvalidateKappa(const std::vector<StateId>& states);
  /// Marks the memoized rows of `states` (of `s`) invalid for every query.
  void InvalidateRows(const std::vector<StateId>& states);
  void InvalidateRow(StateId s);

  /// Gives state s a row slot of at least `m` doubles while the arena
  /// budget lasts (slot offsets are shared by all queries).
  void ReserveRowSlot(StateId s, size_t m);

  const Vec& QueryVec(uint32_t q) const {
    return ctx_->attr_vector(reps_.query_attrs[q]);
  }

  TransitionConfig config_;
  std::shared_ptr<const OrgContext> ctx_;
  RepresentativeSet reps_;
  EvalScratch scratch_;
  /// L2 norms of the query topic vectors, fixed for the evaluator's
  /// lifetime.
  std::vector<double> query_norms_;
  /// Reusable per-proposal buffers.
  std::vector<char> dirty_mark_;
  std::vector<double> new_discovery_;
  std::vector<uint32_t> affected_tables_;
  std::vector<StateId> frontier_;
  std::vector<StateId> topo_;
  /// Topo-ordered states with at least one dirty child — the
  /// query-independent skeleton of the proposal DPs, computed once per
  /// proposal instead of rescanning the full graph per affected query.
  /// Commit reuses it with dirty_mark_.
  std::vector<StateId> relevant_parents_;
  /// Per-query marks of the leaf DP (MarkLeafAncestors) and the states
  /// carrying one, so each query clears only what it marked.
  static constexpr uint8_t kReceives = 1;
  static constexpr uint8_t kSweeps = 2;
  std::vector<uint8_t> leaf_mark_;
  std::vector<StateId> leaf_marked_;
  /// The evaluation the last EvaluateProposal wrote, until Commit or
  /// Initialize; Commit reuses that call's dirty_mark_ and
  /// relevant_parents_, so it accepts no other.
  const ProposalEvaluation* pending_ = nullptr;

  /// Memoized child-topic cosines: kappa_cache_[q * kappa_stride_ + s] =
  /// cosine(topic(s), query q), or kKappaInvalid. Query vectors are fixed
  /// for the evaluator's lifetime and a state's cosine row only changes
  /// when its topic does, so EvaluateProposal invalidates just the ops'
  /// `topic_changed` states — plus the previous proposal's set, because an
  /// Undo since then reverts those topics behind the evaluator's back.
  /// Values are bit-identical to recomputation, since a hit returns
  /// exactly the bits a fresh CosineWithNorms over the unchanged topic row
  /// would produce.
  std::vector<double> kappa_cache_;
  size_t kappa_stride_ = 0;
  std::vector<StateId> prev_topic_changed_;

  /// Memoized Eq. 1 rows. State s owns a slot of row_cap_[s] doubles at
  /// offset row_off_[s] inside every query's region of row_arena_ (query
  /// q's region starts at q * kappa_stride_); query q's softmax row of s
  /// sits there when row_valid_[q * kappa_stride_ + s] is set. A row
  /// depends only on s's child list and its children's topics, so
  /// EvaluateProposal invalidates the rows of `children_changed`,
  /// `removed` and the parents of `topic_changed` — plus the previous
  /// proposal's set, for the same Undo reason as prev_topic_changed_.
  /// Every state whose row differs between the committed and the proposal
  /// organization is in that set, so a row stored outside it holds for
  /// both. Memory is bounded: a query's region is kappa_stride_ doubles
  /// (the size of its kappa row), slots are handed out bump-style before
  /// EvaluateProposal's per-query loop, a row without a slot that fits is
  /// computed into scratch, and an invalidated row is recomputed in place.
  /// The arena is left uninitialized, so the memo touches only the rows
  /// it writes; the validity index costs 1 B per (query, state). A hit
  /// returns exactly the bits TransitionProbabilitiesInto produced over
  /// the same cosines.
  std::unique_ptr<double[]> row_arena_;
  std::vector<uint32_t> row_off_;
  std::vector<uint32_t> row_cap_;
  size_t row_used_ = 0;
  std::vector<uint8_t> row_valid_;
  std::vector<StateId> row_changed_;
  std::vector<StateId> prev_row_changed_;

  const Organization* committed_ = nullptr;
  /// reach_[q][state] for the committed organization; stale_[q] marks
  /// entries that must be repaired before reading.
  std::vector<std::vector<double>> reach_;
  std::vector<DynamicBitset> stale_;
  /// Discovery probability per query (reach at the query's own leaf).
  std::vector<double> query_discovery_;
  /// Discovery probability per table (Equation 5 with representative
  /// approximation), and their mean.
  std::vector<double> table_prob_;
  /// Per-table objective weights (all 1.0 unless SetTableWeights
  /// installed others) and their sum.
  std::vector<double> table_weights_;
  double weight_total_ = 0.0;
  double effectiveness_ = 0.0;
  /// attr -> tables is static; tables_of_query_[q] = tables containing any
  /// member attribute of query q's partition.
  std::vector<std::vector<uint32_t>> tables_of_query_;
};

/// Exact query set: every attribute represents itself.
RepresentativeSet IdentityRepresentatives(const OrgContext& ctx);

}  // namespace lakeorg
