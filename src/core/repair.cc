#include "core/repair.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"
#include "common/timer.h"
#include "core/evaluator.h"
#include "core/representatives.h"
#include "obs/metrics.h"

namespace lakeorg {
namespace {

/// Telemetry handles for the repair path (docs/OBSERVABILITY.md).
struct RepairMetrics {
  obs::Counter& repairs = obs::GetCounter("repair.repairs_total");
  obs::Counter& leaves_added = obs::GetCounter("repair.leaves_added_total");
  obs::Counter& leaves_removed =
      obs::GetCounter("repair.leaves_removed_total");
  obs::Counter& states_dropped =
      obs::GetCounter("repair.states_dropped_total");
  obs::Counter& reopt_proposals =
      obs::GetCounter("repair.reopt_proposals_total");
  obs::Gauge& effectiveness = obs::GetGauge("repair.effectiveness");
  obs::Gauge& splice_effectiveness =
      obs::GetGauge("repair.splice_effectiveness");
  obs::Gauge& reopt_gain = obs::GetGauge("repair.reopt_effectiveness_gain");
  obs::Histogram& latency_us = obs::GetHistogram("repair.latency_us");
  obs::Histogram& states_touched = obs::GetHistogram(
      "repair.states_touched",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096});

  static RepairMetrics& Get() {
    static RepairMetrics metrics;
    return metrics;
  }
};

/// Grows `mask` to cover `s` and marks it.
void Mark(std::vector<char>* mask, StateId s) {
  if (s >= mask->size()) mask->resize(s + 1, 0);
  (*mask)[s] = 1;
}

}  // namespace

Result<RepairResult> RepairOrganization(const Organization& org,
                                        const DataLake& lake,
                                        const TagIndex& index,
                                        const LakeDelta& delta,
                                        const RepairOptions& options) {
  WallTimer timer;
  RepairMetrics& rm = RepairMetrics::Get();
  obs::ScopedTimer latency_span(&rm.latency_us);

  LakeDelta d = delta;
  d.Normalize();
  const OrgContext& oldc = org.ctx();

  // ---- 1. The repaired context: same dimension, post-delta catalog. ----
  std::vector<TagId> tags;
  for (size_t t = 0; t < oldc.num_tags(); ++t) {
    tags.push_back(oldc.lake_tag(t));
  }
  tags.insert(tags.end(), d.added_tags.begin(), d.added_tags.end());
  // Tags that a new or retagged attribute carries may predate the delta
  // with a previously empty extent (absent from the old context).
  auto add_attr_tags = [&](const std::vector<AttributeId>& attrs) {
    for (AttributeId a : attrs) {
      if (a >= lake.num_attributes()) continue;
      const Attribute& attr = lake.attribute(a);
      tags.insert(tags.end(), attr.tags.begin(), attr.tags.end());
    }
  };
  add_attr_tags(d.added_attrs);
  add_attr_tags(d.retagged_attrs);
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  std::shared_ptr<const OrgContext> ctx =
      OrgContext::Build(lake, index, std::move(tags));
  if (ctx->num_tags() == 0) {
    return Status::FailedPrecondition(
        "repair: no non-empty tags survive the delta");
  }

  // ---- 2. Old-local -> new-local id remappings. ----
  std::unordered_map<TagId, uint32_t> new_tag_of_lake;
  for (uint32_t t = 0; t < ctx->num_tags(); ++t) {
    new_tag_of_lake.emplace(ctx->lake_tag(t), t);
  }
  std::unordered_map<AttributeId, uint32_t> new_attr_of_lake;
  for (uint32_t a = 0; a < ctx->num_attrs(); ++a) {
    new_attr_of_lake.emplace(ctx->lake_attr(a), a);
  }
  auto map_tag = [&](uint32_t old_t) -> uint32_t {
    auto it = new_tag_of_lake.find(oldc.lake_tag(old_t));
    return it == new_tag_of_lake.end() ? kInvalidId : it->second;
  };
  std::vector<uint32_t> attr_old2new(oldc.num_attrs(), kInvalidId);
  for (uint32_t a = 0; a < oldc.num_attrs(); ++a) {
    auto it = new_attr_of_lake.find(oldc.lake_attr(a));
    if (it != new_attr_of_lake.end()) attr_old2new[a] = it->second;
  }

  // Leaves to (re-)home under their tags' tag states: brand-new attributes
  // and retagged survivors (their old edges are stale).
  std::vector<char> reattach(ctx->num_attrs(), 0);
  auto mark_reattach = [&](const std::vector<AttributeId>& attrs) {
    for (AttributeId a : attrs) {
      auto it = new_attr_of_lake.find(a);
      if (it != new_attr_of_lake.end()) reattach[it->second] = 1;
    }
  };
  mark_reattach(d.added_attrs);
  mark_reattach(d.retagged_attrs);

  // ---- 3. Splice pass 1: map surviving states in topological order. ----
  Organization out(ctx);
  // The splice copies nearly every old state plus one leaf (and possibly
  // one tag state) per added attribute; presize the arenas so pass 1-3
  // never reallocate per state.
  out.Reserve(org.num_states() + d.added_attrs.size() + d.added_tags.size(),
              org.NumEdges() +
                  4 * (d.added_attrs.size() + d.added_tags.size() +
                       d.retagged_attrs.size()));
  std::vector<StateId> topo = org.TopologicalOrder();
  std::vector<StateId> mapped(org.num_states(), kInvalidId);
  std::vector<char> has_old_leaf(ctx->num_attrs(), 0);
  std::vector<StateId> tag_state_of(ctx->num_tags(), kInvalidId);
  std::vector<char> affected;  // Mask over new StateIds.
  size_t leaves_added = 0;
  size_t leaves_removed = 0;
  size_t states_dropped = 0;

  std::vector<uint32_t> all_tags(ctx->num_tags());
  std::iota(all_tags.begin(), all_tags.end(), 0);

  for (StateId s : topo) {
    const OrgState& st = org.state(s);
    switch (st.kind) {
      case StateKind::kRoot:
        mapped[s] = out.AddRoot(all_tags);
        break;
      case StateKind::kLeaf: {
        uint32_t na = attr_old2new[st.attr];
        if (na == kInvalidId) {
          ++leaves_removed;
        } else {
          mapped[s] = out.AddLeaf(na);
          has_old_leaf[na] = 1;
        }
        break;
      }
      case StateKind::kTag: {
        uint32_t nt = map_tag(st.tags[0]);
        if (nt == kInvalidId) {
          ++states_dropped;
        } else {
          mapped[s] = out.AddTagState(nt);
          tag_state_of[nt] = mapped[s];
        }
        break;
      }
      case StateKind::kInterior: {
        std::vector<uint32_t> state_tags;
        for (uint32_t t : st.tags) {
          uint32_t nt = map_tag(t);
          if (nt != kInvalidId) state_tags.push_back(nt);
        }
        if (state_tags.empty()) {
          ++states_dropped;
        } else {
          mapped[s] = out.AddInteriorState(std::move(state_tags));
        }
        break;
      }
    }
    // Re-apply surviving propagated extras (attributes beyond the state's
    // tag extents that ADD_PARENT had pushed upward). The root covers the
    // whole universe already.
    if (mapped[s] != kInvalidId && st.kind != StateKind::kLeaf &&
        st.kind != StateKind::kRoot) {
      DynamicBitset extent = oldc.MakeAttrSet();
      for (uint32_t t : st.tags) extent.UnionWith(oldc.tag_extent(t));
      std::vector<uint32_t> extras;
      st.attrs.ForEach([&](size_t a) {
        if (extent.Test(a)) return;
        uint32_t na = attr_old2new[a];
        if (na != kInvalidId) extras.push_back(na);
      });
      if (!extras.empty()) out.AddExtraAttrs(mapped[s], extras);
    }
  }

  // ---- 4. Splice pass 2: attachment points and edges. ----
  // attach[s] = images of s's nearest surviving ancestors (s's own image
  // when it survived). Children of a dropped state lift their edges to
  // these; the states that lost a child this way are re-opt targets.
  std::vector<std::vector<StateId>> attach(org.num_states());
  for (StateId s : topo) {
    const OrgState& st = org.state(s);
    if (mapped[s] != kInvalidId) {
      attach[s] = {mapped[s]};
      continue;
    }
    std::vector<StateId>& pts = attach[s];
    for (StateId p : st.parents) {
      pts.insert(pts.end(), attach[p].begin(), attach[p].end());
    }
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
    // Every surviving ancestor image lost this state (or its subtree).
    for (StateId ap : pts) Mark(&affected, ap);
  }

  for (StateId s : topo) {
    StateId nc = mapped[s];
    if (nc == kInvalidId || s == org.root()) continue;
    const OrgState& st = org.state(s);
    if (st.kind == StateKind::kLeaf && reattach[out.state(nc).attr]) {
      continue;  // Re-homed below; old edges are stale.
    }
    bool lifted = false;
    for (StateId p : st.parents) {
      if (mapped[p] == kInvalidId) lifted = true;
      for (StateId ap : attach[p]) {
        Status est = out.AddEdge(ap, nc);
        if (est.ok()) continue;
        if (est.code() == StatusCode::kAlreadyExists) continue;
        // Inclusion violation: the child picked up attributes (new
        // extent members) that this parent only held via propagated
        // extras. Restore the invariant the way ADD_PARENT does —
        // propagate the missing attributes upward — then retry.
        DynamicBitset child_set = out.StateAttrSet(nc);
        const AttrSet& parent_set = out.attrs(ap);
        DynamicBitset missing = ctx->MakeAttrSet();
        child_set.ForEach([&](size_t a) {
          if (!parent_set.Test(a)) missing.Set(a);
        });
        std::vector<StateId> touched;
        out.PropagateAttrsUpward(ap, missing, {}, &touched);
        for (StateId ts : touched) Mark(&affected, ts);
        est = out.AddEdge(ap, nc);
        if (!est.ok()) {
          return Status::Internal("repair: cannot splice edge " +
                                  std::to_string(ap) + " -> " +
                                  std::to_string(nc) + ": " +
                                  est.ToString());
        }
      }
    }
    if (lifted) Mark(&affected, nc);
  }

  // ---- 5. Splice pass 3: home new and retagged leaves. ----
  StateId new_root = out.root();
  for (uint32_t na = 0; na < ctx->num_attrs(); ++na) {
    bool is_new = !has_old_leaf[na];
    if (!is_new && !reattach[na]) continue;
    StateId leaf = is_new ? out.AddLeaf(na) : out.LeafOf(na);
    if (is_new) ++leaves_added;
    Mark(&affected, leaf);
    for (uint32_t t : ctx->attr_tags(na)) {
      StateId ts = tag_state_of[t];
      if (ts == kInvalidId) {
        // A tag with no penultimate state yet (brand-new tag, or one the
        // old organization never materialized): create it under the root.
        ts = out.AddTagState(t);
        tag_state_of[t] = ts;
        Status est = out.AddEdge(new_root, ts);
        if (!est.ok()) {
          return Status::Internal("repair: cannot attach tag state: " +
                                  est.ToString());
        }
      }
      Status est = out.AddEdge(ts, leaf);
      if (!est.ok() && est.code() != StatusCode::kAlreadyExists) {
        return Status::Internal("repair: cannot home leaf: " +
                                est.ToString());
      }
      Mark(&affected, ts);
    }
  }

  out.RecomputeLevels();
  Status valid = out.Validate();
  if (!valid.ok()) {
    return Status::Internal("repair produced an invalid organization: " +
                            valid.ToString());
  }

  // ---- 6. Affected set -> localized re-optimization targets. ----
  std::vector<StateId> affected_states;
  for (StateId s = 0; s < affected.size(); ++s) {
    if (affected[s] && s != new_root && out.state(s).alive) {
      affected_states.push_back(s);
    }
  }

  RepairResult res{.org = std::move(out),
                   .ctx = ctx,
                   .effectiveness = 0.0,
                   .splice_effectiveness = 0.0,
                   .states_touched = affected_states.size(),
                   .affected_states = affected_states,
                   .leaves_added = leaves_added,
                   .leaves_removed = leaves_removed,
                   .states_dropped = states_dropped,
                   .reopt_proposals = 0,
                   .seconds = 0.0};

  if (options.reopt_max_proposals > 0 && !affected_states.empty()) {
    LocalSearchOptions search;
    search.transition = options.transition;
    search.patience = options.reopt_patience;
    search.max_proposals = options.reopt_max_proposals;
    search.seed = options.seed;
    search.acceptance_sharpness = options.acceptance_sharpness;
    search.record_history = false;
    search.restrict_targets = std::move(affected_states);
    Result<LocalSearchResult> opt =
        OptimizeOrganization(std::move(res.org), search);
    if (!opt.ok()) return opt.status();
    LocalSearchResult lsr = std::move(opt).value();
    // OptimizeOrganization tracks the best organization starting from the
    // initial one, so effectiveness >= splice_effectiveness always.
    res.org = std::move(lsr.org);
    res.splice_effectiveness = lsr.initial_effectiveness;
    res.effectiveness = lsr.effectiveness;
    res.reopt_proposals = lsr.proposals;
  } else {
    IncrementalEvaluator eval(options.transition, ctx,
                              IdentityRepresentatives(*ctx));
    eval.Initialize(res.org);
    res.splice_effectiveness = eval.effectiveness();
    res.effectiveness = eval.effectiveness();
  }

  res.seconds = timer.ElapsedSeconds();
  if (obs::MetricsEnabled()) {
    rm.repairs.Add();
    rm.leaves_added.Add(res.leaves_added);
    rm.leaves_removed.Add(res.leaves_removed);
    rm.states_dropped.Add(res.states_dropped);
    rm.reopt_proposals.Add(res.reopt_proposals);
    rm.effectiveness.Set(res.effectiveness);
    rm.splice_effectiveness.Set(res.splice_effectiveness);
    rm.reopt_gain.Set(res.effectiveness - res.splice_effectiveness);
    rm.states_touched.Observe(static_cast<double>(res.states_touched));
  }
  LAKEORG_LOG(kDebug) << "repair: " << res.states_touched
                      << " states touched, +" << res.leaves_added << "/-"
                      << res.leaves_removed << " leaves, effectiveness "
                      << res.splice_effectiveness << " -> "
                      << res.effectiveness << " in " << res.seconds << " s";
  return res;
}

}  // namespace lakeorg
