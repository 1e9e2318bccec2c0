#include "core/evaluator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>

#include "obs/metrics.h"

namespace lakeorg {
namespace {

/// Telemetry handles for the incremental evaluator (docs/OBSERVABILITY.md).
struct EvalMetrics {
  obs::Counter& proposals = obs::GetCounter("eval.proposals_total");
  obs::Counter& initializes = obs::GetCounter("eval.initializes_total");
  obs::Counter& dirty_states = obs::GetCounter("eval.dirty_states_total");
  obs::Counter& decision_states =
      obs::GetCounter("eval.decision_states_total");
  obs::Counter& commit_closure_states =
      obs::GetCounter("eval.commit_closure_states_total");
  obs::Counter& alive_states = obs::GetCounter("eval.alive_states_total");
  obs::Counter& affected_queries =
      obs::GetCounter("eval.affected_queries_total");
  obs::Counter& queries = obs::GetCounter("eval.queries_total");
  obs::Counter& affected_attrs =
      obs::GetCounter("eval.affected_attrs_total");
  obs::Counter& cache_hits = obs::GetCounter("eval.reach_cache_hits_total");
  obs::Counter& cache_repairs =
      obs::GetCounter("eval.reach_cache_repairs_total");
  obs::Counter& row_memo_hits = obs::GetCounter("eval.row_memo_hits_total");
  obs::Counter& row_memo_misses =
      obs::GetCounter("eval.row_memo_misses_total");
  obs::Counter& row_memo_no_slot =
      obs::GetCounter("eval.row_memo_no_slot_total");
  obs::Histogram& initialize_us = obs::GetHistogram("eval.initialize_us");
  obs::Histogram& proposal_us = obs::GetHistogram("eval.proposal_us");

  static EvalMetrics& Get() {
    static EvalMetrics metrics;
    return metrics;
  }
};

/// Exact reach (Equation 4) of a few target states from a sweep over
/// their ancestors alone. Only an ancestor of a target can feed its reach,
/// and every parent of an ancestor is itself an ancestor, so each visited
/// state receives the same parent contributions, added in the same
/// topological order, as in the full-DAG ReachProbabilities: the target
/// reaches are bit-identical to it. One instance serves many queries over
/// one organization; each Sweep resets only what the previous one marked.
class AncestorReach {
 public:
  AncestorReach(const Organization& org, const TransitionConfig& config)
      : org_(org),
        config_(config),
        topo_(org.TopologicalOrder()),
        position_(org.num_states(), kUnreachable),
        marked_(org.num_states(), 0),
        reach_(org.num_states(), 0.0) {
    for (size_t i = 0; i < topo_.size(); ++i) {
      position_[topo_[i]] = static_cast<uint32_t>(i);
    }
  }

  /// Runs the DP for `query` over the ancestors of `targets`; afterwards
  /// reach(t) is P(t | query, O) for every target t.
  void Sweep(const Vec& query, std::span<const StateId> targets) {
    for (StateId s : marked_list_) {
      marked_[s] = 0;
      reach_[s] = 0.0;
    }
    marked_list_.clear();
    order_.clear();
    for (StateId t : targets) Mark(t);
    // marked_list_ doubles as the work list of the walk up the parents.
    for (size_t i = 0; i < marked_list_.size(); ++i) {
      StateId s = marked_list_[i];
      if (position_[s] != kUnreachable) order_.push_back(position_[s]);
      for (StateId p : org_.parents(s)) Mark(p);
    }
    // The root precedes every reachable state, so it comes first.
    if (order_.empty()) return;
    std::sort(order_.begin(), order_.end());
    reach_[topo_[order_.front()]] = 1.0;

    double query_norm = Norm(query);
    for (uint32_t pos : order_) {
      StateId s = topo_[pos];
      IdSpan children = org_.children(s);
      if (children.empty() || reach_[s] == 0.0) continue;
      // The same Eq. 1 row as ReachProbabilities computes: the softmax
      // normalizer needs every child, marked or not.
      sims_.resize(children.size());
      for (size_t i = 0; i < children.size(); ++i) {
        StateId c = children[i];
        sims_[i] = CosineWithNorms(org_.topic(c), org_.topic_norm(c), query,
                                   query_norm);
      }
      TransitionProbabilitiesInto(sims_, config_, sims_);
      for (size_t i = 0; i < children.size(); ++i) {
        if (marked_[children[i]]) reach_[children[i]] += sims_[i] * reach_[s];
      }
    }
  }

  double reach(StateId s) const { return reach_[s]; }

 private:
  static constexpr uint32_t kUnreachable = UINT32_MAX;

  void Mark(StateId s) {
    if (marked_[s]) return;
    marked_[s] = 1;
    marked_list_.push_back(s);
  }

  const Organization& org_;
  const TransitionConfig& config_;
  std::vector<StateId> topo_;
  /// Index of each state in topo_; kUnreachable off it.
  std::vector<uint32_t> position_;
  std::vector<uint8_t> marked_;
  std::vector<double> reach_;
  std::vector<StateId> marked_list_;
  /// Topological positions of the marked reachable states.
  std::vector<uint32_t> order_;
  std::vector<double> sims_;
};

}  // namespace

std::vector<double> SuccessReport::SortedAscending() const {
  std::vector<double> out = per_table;
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> OrgEvaluator::ReachProbabilities(const Organization& org,
                                                     const Vec& query) const {
  return ReachProbabilities(org, query, org.TopologicalOrder());
}

std::vector<double> OrgEvaluator::ReachProbabilities(
    const Organization& org, const Vec& query,
    const std::vector<StateId>& topo) const {
  std::vector<double> reach(org.num_states(), 0.0);
  if (org.root() == kInvalidId) return reach;
  reach[org.root()] = 1.0;

  double query_norm = Norm(query);

  std::vector<double> sims;
  for (StateId s : topo) {
    IdSpan children = org.children(s);
    if (children.empty() || reach[s] == 0.0) continue;
    sims.resize(children.size());
    for (size_t i = 0; i < children.size(); ++i) {
      StateId c = children[i];
      sims[i] = CosineWithNorms(org.topic(c), org.topic_norm(c), query,
                                query_norm);
    }
    // In-place softmax over sims; the child loop below only needs probs.
    TransitionProbabilitiesInto(sims, config_, sims);
    for (size_t i = 0; i < children.size(); ++i) {
      reach[children[i]] += sims[i] * reach[s];
    }
  }
  return reach;
}

double OrgEvaluator::AttributeDiscovery(const Organization& org,
                                        uint32_t attr) const {
  AncestorReach sweep(org, config_);
  StateId leaf = org.LeafOf(attr);
  sweep.Sweep(org.ctx().attr_vector(attr), {&leaf, 1});
  return sweep.reach(leaf);
}

std::vector<double> OrgEvaluator::AllAttributeDiscovery(
    const Organization& org) const {
  size_t n = org.ctx().num_attrs();
  std::vector<double> discovery(n, 0.0);
  AncestorReach sweep(org, config_);
  for (uint32_t a = 0; a < n; ++a) {
    StateId leaf = org.LeafOf(a);
    sweep.Sweep(org.ctx().attr_vector(a), {&leaf, 1});
    discovery[a] = sweep.reach(leaf);
  }
  return discovery;
}

double OrgEvaluator::TableDiscovery(const OrgContext& ctx, uint32_t table,
                                    const std::vector<double>& attr_discovery) {
  double miss = 1.0;
  for (uint32_t a : ctx.table_attrs(table)) {
    miss *= (1.0 - attr_discovery[a]);
  }
  return 1.0 - miss;
}

double OrgEvaluator::Effectiveness(const OrgContext& ctx,
                                   const std::vector<double>& attr_discovery,
                                   const std::vector<double>& table_weights) {
  assert(table_weights.empty() || table_weights.size() == ctx.num_tables());
  double total = 0.0;
  double weight_total = 0.0;
  for (uint32_t t = 0; t < ctx.num_tables(); ++t) {
    double w = table_weights.empty() ? 1.0 : table_weights[t];
    total += w * TableDiscovery(ctx, t, attr_discovery);
    weight_total += w;
  }
  return weight_total > 0.0 ? total / weight_total : 0.0;
}

double OrgEvaluator::Effectiveness(const Organization& org) const {
  return Effectiveness(org.ctx(), AllAttributeDiscovery(org));
}

std::vector<std::vector<uint32_t>> OrgEvaluator::AttributeNeighbors(
    const OrgContext& ctx, double theta) {
  size_t n = ctx.num_attrs();
  // Pre-normalize attribute vectors once; neighbor search is then dots.
  std::vector<Vec> unit(n);
  for (size_t a = 0; a < n; ++a) {
    unit[a] = ctx.attr_vector(a);
    NormalizeInPlace(&unit[a]);
  }
  std::vector<std::vector<uint32_t>> neighbors(n);
  for (uint32_t a = 0; a < n; ++a) neighbors[a].push_back(a);
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = a + 1; b < n; ++b) {
      if (Dot(unit[a], unit[b]) >= theta) {
        neighbors[a].push_back(b);
        neighbors[b].push_back(a);
      }
    }
  }
  return neighbors;
}

SuccessReport OrgEvaluator::Success(
    const Organization& org,
    const std::vector<std::vector<uint32_t>>& neighbors) const {
  const OrgContext& ctx = org.ctx();
  size_t n = ctx.num_attrs();
  assert(neighbors.size() == n);

  std::vector<double> attr_success(n, 0.0);
  AncestorReach sweep(org, config_);
  std::vector<StateId> leaves;
  for (size_t a = 0; a < n; ++a) {
    leaves.clear();
    for (uint32_t nb : neighbors[a]) leaves.push_back(org.LeafOf(nb));
    sweep.Sweep(ctx.attr_vector(a), leaves);
    double miss = 1.0;
    for (StateId leaf : leaves) miss *= (1.0 - sweep.reach(leaf));
    attr_success[a] = 1.0 - miss;
  }

  SuccessReport report;
  report.per_table.resize(ctx.num_tables(), 0.0);
  double total = 0.0;
  for (uint32_t t = 0; t < ctx.num_tables(); ++t) {
    double miss = 1.0;
    for (uint32_t a : ctx.table_attrs(t)) miss *= (1.0 - attr_success[a]);
    report.per_table[t] = 1.0 - miss;
    total += report.per_table[t];
  }
  report.mean = ctx.num_tables() == 0
                    ? 0.0
                    : total / static_cast<double>(ctx.num_tables());
  return report;
}

std::vector<double> OrgEvaluator::StateReachability(
    const Organization& org, const std::vector<uint32_t>& query_attrs) const {
  std::vector<double> sums(org.num_states(), 0.0);
  std::vector<StateId> topo = org.TopologicalOrder();
  for (uint32_t a : query_attrs) {
    std::vector<double> reach =
        ReachProbabilities(org, org.ctx().attr_vector(a), topo);
    for (size_t s = 0; s < sums.size(); ++s) sums[s] += reach[s];
  }
  if (!query_attrs.empty()) {
    for (double& v : sums) v /= static_cast<double>(query_attrs.size());
  }
  return sums;
}

RepresentativeSet IdentityRepresentatives(const OrgContext& ctx) {
  RepresentativeSet reps;
  size_t n = ctx.num_attrs();
  reps.query_attrs.resize(n);
  reps.rep_of.resize(n);
  reps.members.resize(n);
  for (uint32_t a = 0; a < n; ++a) {
    reps.query_attrs[a] = a;
    reps.rep_of[a] = a;
    reps.members[a] = {a};
  }
  return reps;
}

// ---------------------------------------------------------------------------
// IncrementalEvaluator
// ---------------------------------------------------------------------------

IncrementalEvaluator::IncrementalEvaluator(
    TransitionConfig config, std::shared_ptr<const OrgContext> ctx,
    RepresentativeSet reps)
    : config_(config), ctx_(std::move(ctx)), reps_(std::move(reps)) {
  assert(reps_.rep_of.size() == ctx_->num_attrs());
  (void)SetTableWeights({});  // unit weights; never fails
  // Query topic norms never change; compute them once.
  query_norms_.resize(reps_.query_attrs.size());
  for (size_t q = 0; q < reps_.query_attrs.size(); ++q) {
    query_norms_[q] = Norm(QueryVec(static_cast<uint32_t>(q)));
  }
  // tables_of_query_[q]: tables containing any member of q's partition.
  tables_of_query_.resize(reps_.query_attrs.size());
  for (uint32_t q = 0; q < reps_.query_attrs.size(); ++q) {
    std::vector<uint32_t>& tabs = tables_of_query_[q];
    for (uint32_t a : reps_.members[q]) tabs.push_back(ctx_->attr_table(a));
    std::sort(tabs.begin(), tabs.end());
    tabs.erase(std::unique(tabs.begin(), tabs.end()), tabs.end());
  }
}

namespace {
/// kappa_cache_ sentinel: cosine is clamped to [-1, 1], so 2.0 is free.
constexpr double kKappaInvalid = 2.0;
}  // namespace

const double* IncrementalEvaluator::TransitionsFromInto(
    const Organization& org, StateId parent, uint32_t q, const Vec& query,
    double query_norm) {
  IdSpan children = org.children(parent);
  const size_t m = children.size();
  const size_t region = static_cast<size_t>(q) * kappa_stride_;
  double* row = row_arena_.get() + region + row_off_[parent];
  if (row_valid_[region + parent]) {
    ++scratch_.row_hits;
    return row;
  }
  ++scratch_.row_misses;
  if (row_cap_[parent] >= m) {
    row_valid_[region + parent] = 1;
  } else {
    ++scratch_.row_no_slot;
    scratch_.probs.resize(m);
    row = scratch_.probs.data();
  }
  std::vector<double>& sims = scratch_.sims;
  sims.resize(m);
  // Row of query q's memoized cosines; misses (invalidated or first
  // touch) recompute and store.
  double* krow = kappa_cache_.data() + static_cast<size_t>(q) * kappa_stride_;
  for (size_t i = 0; i < children.size(); ++i) {
    StateId c = children[i];
    double kappa = krow[c];
    if (kappa == kKappaInvalid) {
      kappa = CosineWithNorms(org.topic(c), org.topic_norm(c), query,
                              query_norm);
      krow[c] = kappa;
    }
    sims[i] = kappa;
  }
  TransitionProbabilitiesInto(sims, config_, std::span<double>(row, m));
  return row;
}

void IncrementalEvaluator::InvalidateKappa(
    const std::vector<StateId>& states) {
  const size_t num_q = reps_.query_attrs.size();
  for (StateId s : states) {
    double* col = kappa_cache_.data() + s;
    for (size_t q = 0; q < num_q; ++q) col[q * kappa_stride_] = kKappaInvalid;
  }
}

void IncrementalEvaluator::InvalidateRows(const std::vector<StateId>& states) {
  for (StateId s : states) InvalidateRow(s);
}

void IncrementalEvaluator::InvalidateRow(StateId s) {
  const size_t num_q = reps_.query_attrs.size();
  uint8_t* col = row_valid_.data() + s;
  for (size_t q = 0; q < num_q; ++q) col[q * kappa_stride_] = 0;
}

void IncrementalEvaluator::ReserveRowSlot(StateId s, size_t m) {
  if (row_cap_[s] >= m || row_used_ + m > kappa_stride_) return;
  // A grown child list outgrew the old slot, which stays abandoned until
  // the next Initialize. Its rows are invalid already (the child list
  // changed); clearing them again keeps the new slot's garbage unread.
  InvalidateRow(s);
  row_off_[s] = static_cast<uint32_t>(row_used_);
  row_cap_[s] = static_cast<uint32_t>(m);
  row_used_ += m;
}

Status IncrementalEvaluator::SetTableWeights(std::vector<double> weights) {
  if (weights.empty()) {
    // Unit weights: the uniform mean over tables. Multiplying by 1.0 and
    // summing ones are exact, so the result is that mean bit for bit.
    table_weights_.assign(ctx_->num_tables(), 1.0);
    weight_total_ = static_cast<double>(ctx_->num_tables());
    return Status::OK();
  }
  if (weights.size() != ctx_->num_tables()) {
    return Status::InvalidArgument("table_weights size mismatch");
  }
  double total = 0.0;
  for (double w : weights) {
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument("table_weights must be finite and >= 0");
    }
    total += w;
  }
  if (!(total > 0.0)) {
    return Status::InvalidArgument("table_weights must have a positive sum");
  }
  table_weights_ = std::move(weights);
  weight_total_ = total;
  return Status::OK();
}

void IncrementalEvaluator::Initialize(const Organization& org) {
  EvalMetrics& em = EvalMetrics::Get();
  obs::ScopedTimer span(&em.initialize_us);
  em.initializes.Add();
  committed_ = &org;
  pending_ = nullptr;
  size_t num_q = reps_.query_attrs.size();
  OrgEvaluator eval(config_);
  kappa_stride_ = org.num_states();
  kappa_cache_.assign(num_q * kappa_stride_, kKappaInvalid);
  prev_topic_changed_.clear();
  row_arena_.reset(new double[num_q * kappa_stride_]);  // Uninitialized.
  row_off_.assign(kappa_stride_, 0);
  row_cap_.assign(kappa_stride_, 0);
  row_used_ = 0;
  row_valid_.assign(num_q * kappa_stride_, 0);
  prev_row_changed_.clear();
  reach_.assign(num_q, {});
  stale_.assign(num_q, DynamicBitset(org.num_states()));
  query_discovery_.assign(num_q, 0.0);
  org.TopologicalOrderInto(&topo_);
  for (uint32_t q = 0; q < num_q; ++q) {
    reach_[q] = eval.ReachProbabilities(org, QueryVec(q), topo_);
    query_discovery_[q] = reach_[q][org.LeafOf(reps_.query_attrs[q])];
  }
  // Table probabilities through the representative mapping.
  table_prob_.assign(ctx_->num_tables(), 0.0);
  double total = 0.0;
  for (uint32_t t = 0; t < ctx_->num_tables(); ++t) {
    double miss = 1.0;
    for (uint32_t a : ctx_->table_attrs(t)) {
      miss *= (1.0 - query_discovery_[reps_.rep_of[a]]);
    }
    table_prob_[t] = 1.0 - miss;
    total += table_weights_[t] * table_prob_[t];
  }
  effectiveness_ = weight_total_ > 0.0 ? total / weight_total_ : 0.0;
}

double IncrementalEvaluator::StateReachability(StateId s) const {
  if (reach_.empty()) return 0.0;
  double total = 0.0;
  for (const std::vector<double>& r : reach_) total += r[s];
  return total / static_cast<double>(reach_.size());
}

double IncrementalEvaluator::AttrDiscovery(uint32_t attr) const {
  return query_discovery_[reps_.rep_of[attr]];
}

double IncrementalEvaluator::EnsureFresh(uint32_t q, StateId s) {
  if (!stale_[q].Test(s)) {
    ++scratch_.cache_hits;
    return reach_[q][s];
  }
  const Organization& org = *committed_;
  // Explicit-stack DFS toward stale ancestors; a state is repaired only
  // once all its parents are fresh, so the per-state accumulation below
  // runs in parent-list order exactly like the recursive formulation.
  std::vector<StateId>& stack = scratch_.stack;
  stack.clear();
  stack.push_back(s);
  while (!stack.empty()) {
    StateId cur = stack.back();
    if (!stale_[q].Test(cur)) {  // Repaired while deeper on the stack.
      stack.pop_back();
      continue;
    }
    if (!org.alive(cur)) {
      stale_[q].Clear(cur);
      reach_[q][cur] = 0.0;
      ++scratch_.cache_repairs;
      stack.pop_back();
      continue;
    }
    IdSpan parents = org.parents(cur);
    bool pushed = false;
    for (StateId p : parents) {
      if (stale_[q].Test(p)) {
        stack.push_back(p);
        pushed = true;
      }
    }
    if (pushed) continue;  // Revisit `cur` after its parents are fresh.
    double value = 0.0;
    for (StateId p : parents) {
      double parent_reach = reach_[q][p];
      if (parent_reach == 0.0) continue;
      const double* probs =
          TransitionsFromInto(org, p, q, QueryVec(q), query_norms_[q]);
      IdSpan siblings = org.children(p);
      for (size_t i = 0; i < siblings.size(); ++i) {
        if (siblings[i] == cur) {
          value += probs[i] * parent_reach;
          break;
        }
      }
    }
    stale_[q].Clear(cur);
    reach_[q][cur] = value;
    ++scratch_.cache_repairs;
    stack.pop_back();
  }
  return reach_[q][s];
}

void IncrementalEvaluator::EvaluateProposal(
    const Organization& proposal, const std::vector<StateId>& topic_changed,
    const std::vector<StateId>& children_changed,
    const std::vector<StateId>& removed, ProposalEvaluation* out) {
  assert(committed_ != nullptr);
  EvalMetrics& em = EvalMetrics::Get();
  obs::ScopedTimer span(&em.proposal_us);
  size_t n = proposal.num_states();
  assert(n == committed_->num_states() &&
         "operations must not grow the state arena");

  // Drop memoized cosines for the topics this operation changed, and for
  // the previous proposal's set: if the caller Undid that proposal, those
  // topics reverted without the evaluator seeing it, so their cached
  // entries (stored at proposal values) must not be reused. If the caller
  // Committed instead, re-deriving them once is merely redundant.
  InvalidateKappa(prev_topic_changed_);
  InvalidateKappa(topic_changed);
  prev_topic_changed_.assign(topic_changed.begin(), topic_changed.end());
  // Same for memoized rows, which change with a state's child list or a
  // child's topic (see row_arena_).
  row_changed_.assign(children_changed.begin(), children_changed.end());
  row_changed_.insert(row_changed_.end(), removed.begin(), removed.end());
  for (StateId u : topic_changed) {
    if (!proposal.alive(u)) continue;
    IdSpan parents = proposal.parents(u);
    row_changed_.insert(row_changed_.end(), parents.begin(), parents.end());
  }
  InvalidateRows(prev_row_changed_);
  InvalidateRows(row_changed_);
  prev_row_changed_.swap(row_changed_);

  // Seeds: states whose incoming transition probabilities changed. The
  // member frontier vector doubles as a FIFO (head index) so the steady
  // state allocates nothing.
  dirty_mark_.assign(n, 0);
  frontier_.clear();
  auto seed_children_of = [&](StateId u) {
    if (!proposal.alive(u)) return;
    for (StateId c : proposal.children(u)) {
      if (!dirty_mark_[c]) {
        dirty_mark_[c] = 1;
        frontier_.push_back(c);
      }
    }
  };
  for (StateId u : children_changed) seed_children_of(u);
  for (StateId u : topic_changed) {
    if (!proposal.alive(u)) continue;
    for (StateId p : proposal.parents(u)) seed_children_of(p);
  }
  // Descendant closure (BFS; same visit order as the old deque).
  for (size_t head = 0; head < frontier_.size(); ++head) {
    StateId cur = frontier_[head];
    for (StateId c : proposal.children(cur)) {
      if (!dirty_mark_[c]) {
        dirty_mark_[c] = 1;
        frontier_.push_back(c);
      }
    }
  }
  // Removed states are handled separately (reach 0), not recomputed.
  for (StateId r : removed) dirty_mark_[r] = 0;

  out->removed = removed;
  out->dirty.clear();
  proposal.TopologicalOrderInto(&topo_);
  for (StateId s : topo_) {
    if (dirty_mark_[s]) out->dirty.push_back(s);
  }

  // Affected queries: those whose own leaf lies in the dirty closure.
  out->affected_queries.clear();
  for (uint32_t q = 0; q < reps_.query_attrs.size(); ++q) {
    StateId leaf = proposal.LeafOf(reps_.query_attrs[q]);
    if (dirty_mark_[leaf]) out->affected_queries.push_back(q);
  }

  // The accept/reject decision needs each affected query's reach at its
  // own leaf only. Push it along the proposal's topological order over the
  // leaf's dirty ancestors (kReceives) from their parents (kSweeps).
  // Frontier (non-dirty) parents contribute their committed-org values,
  // repaired on demand; those states have only non-dirty ancestors, whose
  // edges and child topics the operation did not touch, so the repair is
  // valid even when `proposal` is the committed organization mutated in
  // place. Every parent of a receiving state is swept, in the order
  // Commit's closure DP sweeps it, so the leaf sums the same contributions
  // in the same order there: the two values are bit-identical.
  //
  // Query-independent DP skeleton: the topo-ordered states with a dirty
  // child. Hoisting this out of the per-query loop removes a full
  // graph scan per affected query. Their row slots are reserved here,
  // before the per-query loop.
  relevant_parents_.clear();
  for (StateId s : topo_) {
    IdSpan children = proposal.children(s);
    for (StateId c : children) {
      if (dirty_mark_[c]) {
        relevant_parents_.push_back(s);
        ReserveRowSlot(s, children.size());
        break;
      }
    }
  }

  std::vector<double>& scr = scratch_.state_reach;
  scr.resize(n);
  leaf_mark_.assign(n, 0);
  new_discovery_.assign(reps_.query_attrs.size(), -1.0);
  out->new_discovery.clear();
  out->affected_attrs = 0;
  affected_tables_.clear();
  uint64_t decision_states = 0;
  for (uint32_t q : out->affected_queries) {
    const Vec& query = QueryVec(q);
    StateId leaf = proposal.LeafOf(reps_.query_attrs[q]);
    MarkLeafAncestors(proposal, leaf);
    for (StateId s : relevant_parents_) {
      double value;
      if (dirty_mark_[s]) {
        if (!(leaf_mark_[s] & kSweeps)) continue;
        value = scr[s];
      } else {
        // Every frontier parent is repaired, swept or not: Commit reads
        // them, and StateReachability reads the repaired entries to order
        // the search's targets.
        value = EnsureFresh(q, s);
        if (!(leaf_mark_[s] & kSweeps)) continue;
      }
      ++decision_states;
      if (value == 0.0) continue;
      const double* probs =
          TransitionsFromInto(proposal, s, q, query, query_norms_[q]);
      IdSpan children = proposal.children(s);
      for (size_t i = 0; i < children.size(); ++i) {
        if (leaf_mark_[children[i]] & kReceives) {
          scr[children[i]] += probs[i] * value;
        }
      }
    }
    for (StateId s : leaf_marked_) leaf_mark_[s] = 0;

    // Effectiveness delta: tables containing members of affected queries.
    new_discovery_[q] = scr[leaf];
    out->new_discovery.push_back(scr[leaf]);
    out->affected_attrs += reps_.members[q].size();
    affected_tables_.insert(affected_tables_.end(),
                            tables_of_query_[q].begin(),
                            tables_of_query_[q].end());
  }
  std::sort(affected_tables_.begin(), affected_tables_.end());
  affected_tables_.erase(
      std::unique(affected_tables_.begin(), affected_tables_.end()),
      affected_tables_.end());

  out->new_table_probs.clear();
  double delta = 0.0;
  for (uint32_t t : affected_tables_) {
    double miss = 1.0;
    for (uint32_t a : ctx_->table_attrs(t)) {
      uint32_t rq = reps_.rep_of[a];
      double disc = new_discovery_[rq] >= 0.0 ? new_discovery_[rq]
                                              : query_discovery_[rq];
      miss *= (1.0 - disc);
    }
    double prob = 1.0 - miss;
    out->new_table_probs.emplace_back(t, prob);
    delta += table_weights_[t] * (prob - table_prob_[t]);
  }
  out->effectiveness =
      effectiveness_ + (weight_total_ > 0.0 ? delta / weight_total_ : 0.0);

  // Pruning telemetry; the atomic adds happen once per proposal, not per
  // state.
  if (obs::MetricsEnabled()) {
    em.proposals.Add();
    em.dirty_states.Add(out->dirty.size());
    em.decision_states.Add(decision_states);
    em.alive_states.Add(proposal.NumAliveStates());
    em.affected_queries.Add(out->affected_queries.size());
    em.queries.Add(reps_.query_attrs.size());
    em.affected_attrs.Add(out->affected_attrs);
  }
  FlushTallies();
  pending_ = out;
}

void IncrementalEvaluator::MarkLeafAncestors(const Organization& proposal,
                                             StateId leaf) {
  std::vector<double>& scr = scratch_.state_reach;
  leaf_marked_.clear();
  leaf_mark_[leaf] = kReceives;
  scr[leaf] = 0.0;
  leaf_marked_.push_back(leaf);
  // leaf_marked_ doubles as the work list of the walk up the parents,
  // which continues through dirty states only.
  for (size_t i = 0; i < leaf_marked_.size(); ++i) {
    StateId d = leaf_marked_[i];
    if (!(leaf_mark_[d] & kReceives)) continue;
    for (StateId p : proposal.parents(d)) {
      if (leaf_mark_[p]) continue;
      leaf_marked_.push_back(p);
      if (dirty_mark_[p]) {
        leaf_mark_[p] = kSweeps | kReceives;
        scr[p] = 0.0;
      } else {
        leaf_mark_[p] = kSweeps;
      }
    }
  }
}

void IncrementalEvaluator::FlushTallies() {
  // Cache telemetry. The tallies are drained even when metrics are off,
  // so a later enable never flushes stale counts.
  EvalScratch& sc = scratch_;
  if (obs::MetricsEnabled()) {
    EvalMetrics& em = EvalMetrics::Get();
    em.cache_hits.Add(sc.cache_hits);
    em.cache_repairs.Add(sc.cache_repairs);
    em.row_memo_hits.Add(sc.row_hits);
    em.row_memo_misses.Add(sc.row_misses);
    em.row_memo_no_slot.Add(sc.row_no_slot);
  }
  sc.cache_hits = sc.cache_repairs = 0;
  sc.row_hits = sc.row_misses = sc.row_no_slot = 0;
}

void IncrementalEvaluator::Commit(const Organization& new_org,
                                  const ProposalEvaluation& eval) {
  assert(&eval == pending_ && "Commit must follow its own EvaluateProposal");
  pending_ = nullptr;
  size_t num_q = reps_.query_attrs.size();

  // Reach over the whole dirty closure for each affected query, written
  // straight into the cache: the DP of EvaluateProposal over every
  // relevant parent and dirty child. EvaluateProposal left dirty_mark_
  // and relevant_parents_ for this proposal and repaired every frontier
  // parent for these queries, so their cached values are read directly.
  for (size_t qi = 0; qi < eval.affected_queries.size(); ++qi) {
    uint32_t q = eval.affected_queries[qi];
    const Vec& query = QueryVec(q);
    std::vector<double>& reach = reach_[q];
    for (StateId d : eval.dirty) reach[d] = 0.0;
    for (StateId s : relevant_parents_) {
      assert(dirty_mark_[s] || !stale_[q].Test(s));
      double value = reach[s];
      if (value == 0.0) continue;
      const double* probs =
          TransitionsFromInto(new_org, s, q, query, query_norms_[q]);
      IdSpan children = new_org.children(s);
      for (size_t i = 0; i < children.size(); ++i) {
        if (dirty_mark_[children[i]]) reach[children[i]] += probs[i] * value;
      }
    }
    query_discovery_[q] = reach[new_org.LeafOf(reps_.query_attrs[q])];
    assert(query_discovery_[q] == eval.new_discovery[qi]);
  }
  committed_ = &new_org;

  // Removed states: zero everywhere, never stale.
  for (StateId r : eval.removed) {
    for (uint32_t q = 0; q < num_q; ++q) {
      reach_[q][r] = 0.0;
      stale_[q].Clear(r);
    }
  }
  // Dirty states are stale for every query but the affected ones.
  for (uint32_t q = 0; q < num_q; ++q) {
    for (StateId d : eval.dirty) stale_[q].Set(d);
  }
  for (uint32_t q : eval.affected_queries) {
    for (StateId d : eval.dirty) stale_[q].Clear(d);
  }
  for (const auto& [t, prob] : eval.new_table_probs) table_prob_[t] = prob;
  effectiveness_ = eval.effectiveness;

  if (obs::MetricsEnabled()) {
    EvalMetrics::Get().commit_closure_states.Add(
        eval.affected_queries.size() * relevant_parents_.size());
  }
  FlushTallies();
}

}  // namespace lakeorg
