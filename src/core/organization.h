// Organization: the navigation DAG of section 2.1. States are nodes; every
// leaf corresponds to one attribute; every non-leaf state carries a set of
// tags and the union of their attributes; an edge (s, c) requires
// D_c ⊆ D_s (the inclusion property). The DAG supports the incremental
// mutations the local-search operations need (edge add/remove, state
// removal, upward attribute propagation) while keeping topic vectors and
// levels consistent.
//
// Storage is struct-of-arrays: per-state scalars live in parallel arrays,
// topic/topic_sum rows in one contiguous row-major matrix (stride padded to
// a multiple of 8 floats), adjacency and tag lists as CSR-style index
// ranges into shared arenas (with per-range slack so in-place edits stay
// O(1)), and attribute sets as inline-or-spilled AttrSets. `state(s)`
// returns a read-only VIEW (spans into the arenas) so existing call sites
// keep their shape; the view is invalidated by any mutation of the
// organization. Hot paths use the per-field accessors instead.
#pragma once

#include <algorithm>
#include <cassert>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/dynamic_bitset.h"
#include "common/status.h"
#include "core/attr_set.h"
#include "core/org_context.h"

namespace lakeorg {

/// Index of a state within an Organization.
using StateId = uint32_t;

/// Role of a state in the organization (section 3.2: leaves are single
/// attributes, their parents are single-tag "tag states", everything above
/// carries tag sets).
enum class StateKind {
  kRoot,
  kInterior,  // Multi- or single-tag internal state above tag states.
  kTag,       // Penultimate single-tag state.
  kLeaf,      // Single attribute.
};

/// Read-only view over a contiguous run of one of the SoA arenas. Derives
/// from std::span and adds element-wise equality (against other spans and
/// against owned vectors) plus conversion to an owned vector, so call
/// sites written against the old per-state std::vector members keep
/// working unchanged.
template <typename T>
class ConstSpan : public std::span<const T> {
 public:
  using std::span<const T>::span;
  constexpr ConstSpan(std::span<const T> s) : std::span<const T>(s) {}

  operator std::vector<T>() const {
    return std::vector<T>(this->begin(), this->end());
  }

  friend bool operator==(ConstSpan a, ConstSpan b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(ConstSpan a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const std::vector<T>& a, ConstSpan b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

using IdSpan = ConstSpan<StateId>;
using TagSpan = ConstSpan<uint32_t>;
using FloatSpan = ConstSpan<float>;

/// Read-only view of one state, assembled from the SoA arrays by
/// Organization::state(). Spans point into the shared arenas and the
/// AttrSet reference points at the per-state set; both are invalidated by
/// the next mutating Organization call.
struct OrgState {
  StateKind kind = StateKind::kInterior;
  /// Removed states stay in the arena with alive == false, so a StateId
  /// names one state for the organization's whole life.
  bool alive = true;
  /// Local attribute id for leaves; kInvalidId otherwise.
  uint32_t attr = kInvalidId;
  /// Shortest-path distance from the root (section 3.3's level); -1 when
  /// unreachable or not yet computed.
  int level = -1;
  /// Number of embedded values behind topic_sum.
  size_t value_count = 0;
  /// Cached L2 norm of `topic`, maintained whenever the topic changes.
  double topic_norm = 0.0;
  IdSpan parents;
  IdSpan children;
  /// Local tag ids (sorted); empty for leaves.
  TagSpan tags;
  /// Attribute set D_s (non-leaf).
  const AttrSet& attrs;
  /// Sum of value-embedding vectors over dom(s), for O(dim) topic updates.
  FloatSpan topic_sum;
  /// Topic vector mu_s = topic_sum / value_count (Definition 4/5).
  FloatSpan topic;
};

/// Undo log for one local-search operation. While a log is active
/// (BeginUndoLog .. EndUndoLog), every mutating Organization entry point
/// journals each state it modifies on first touch: scalars and the
/// adjacency/tag/topic-row contents go into flat pools here (self-
/// contained, so rollback is exact even if the arenas relocate or compact
/// afterwards), and attribute sets are journaled either as an inline
/// snapshot or — for already-spilled sets — as the list of bits the
/// operation added (operations only ever add attribute bits). Reusable
/// across operations; Clear() keeps pool capacity, which is what makes the
/// optimizer inner loop allocation-free at steady state.
struct OpUndo {
  struct Entry {
    StateId id = kInvalidId;
    StateKind kind = StateKind::kInterior;
    bool alive = true;
    /// Representation of the state's AttrSet at first touch. Inline sets
    /// restore from `attrs_snapshot`; spilled sets restore by clearing the
    /// journaled `attr_bits_added` (they never un-spill mid-operation).
    bool attrs_inline = true;
    int level = -1;
    size_t value_count = 0;
    double topic_norm = 0.0;
    uint32_t parents_begin = 0, parents_size = 0;  // range into `ids`
    uint32_t children_begin = 0, children_size = 0;
    uint32_t tags_begin = 0, tags_size = 0;  // range into `tags`
    /// Start of 2*dim floats in `floats`: the topic_sum row, then topic.
    uint32_t floats_begin = 0;
    AttrSet::InlineRep attrs_snapshot;  // valid iff attrs_inline
  };

  std::vector<Entry> states;
  std::vector<StateId> ids;
  std::vector<uint32_t> tags;
  std::vector<float> floats;
  /// (state, attribute) bits added to originally-spilled sets.
  std::vector<std::pair<StateId, uint32_t>> attr_bits_added;
  /// True when the operation ran RecomputeLevels (undo re-runs the BFS,
  /// since level changes are not confined to the touched set).
  bool levels_changed = false;

  void Clear() {
    states.clear();
    ids.clear();
    tags.clear();
    floats.clear();
    attr_bits_added.clear();
    levels_changed = false;
  }
};

/// The navigation DAG. All mutating calls keep parents/children symmetric;
/// levels are recomputed explicitly via RecomputeLevels() after a batch of
/// mutations (the local-search operations do this once per operation).
///
/// Thread-safety: concurrent reads through the per-field accessors and
/// state() views are safe (served sessions walking one pinned snapshot
/// rely on this), EXCEPT the scratch-backed queries WouldCreateCycle /
/// TopologicalOrderInto / StatesAtLevelInto, which reuse per-organization
/// scratch buffers and must only be called from the thread that owns the
/// organization. Mutations are single-threaded per organization.
class Organization {
 public:
  /// Creates an empty organization over `ctx`.
  explicit Organization(std::shared_ptr<const OrgContext> ctx);

  /// Deep copy sharing the immutable context (spilled attribute sets are
  /// shared copy-on-write, so cloning is cheap even for wide sets).
  Organization Clone() const;

  /// Deep copy of `other` into this organization, reusing the existing
  /// buffers. A fresh Clone pays for ~350KB of new heap (and the kernel
  /// page faults behind it) every call; repeated snapshot targets — the
  /// local search's best-so-far copy, restart reseeding — stay an order
  /// of magnitude cheaper by copy-assigning into held capacity.
  void CopyFrom(const Organization& other);

  /// Presizes the per-state arrays, the topic matrix, and the shared edge
  /// arena for `states` states and `edges` edges (builders and repair call
  /// this so construction does not reallocate per state).
  void Reserve(size_t states, size_t edges);

  // Construction ------------------------------------------------------------

  /// Adds the leaf state for local attribute `attr`. One leaf per
  /// attribute; asserts on duplicates.
  StateId AddLeaf(uint32_t attr);

  /// Adds a single-tag (penultimate) state for local tag `tag`.
  StateId AddTagState(uint32_t tag);

  /// Adds an interior state carrying `tags` (deduplicated, sorted); its
  /// attribute set and topic are derived from the tags' extents.
  StateId AddInteriorState(std::vector<uint32_t> tags);

  /// Adds the root state over `tags` (usually all tags of the context).
  StateId AddRoot(std::vector<uint32_t> tags);

  /// Adds edge parent -> child. Fails on dead/unknown states, duplicate
  /// edges, self-loops, edges into the root, edges out of a leaf, or
  /// inclusion-property violations. Does NOT check acyclicity (callers use
  /// WouldCreateCycle when the edge direction is not structurally safe).
  Status AddEdge(StateId parent, StateId child);

  /// Removes edge parent -> child; fails when absent. Order-preserving for
  /// the surviving siblings (transition rows depend on child order).
  Status RemoveEdge(StateId parent, StateId child);

  /// Detaches `s` from all neighbors and marks it dead. Fails for the root
  /// and for leaves (leaves are permanent, section 3.2).
  Status RemoveState(StateId s);

  /// True iff adding parent -> child would create a cycle, i.e. `parent`
  /// is reachable from `child` via child edges. Uses scratch buffers: only
  /// call from the owning thread.
  bool WouldCreateCycle(StateId parent, StateId child) const;

  // Invariant maintenance ----------------------------------------------------

  /// Adds `attrs` (and `tags`) to state `s` and to all its ancestors,
  /// updating topic sums incrementally. Appends every state whose
  /// attribute set actually grew to `touched` (if non-null). Used by
  /// ADD_PARENT to restore the inclusion property. `attrs` may alias
  /// state s's own set; `tags` is copied internally before any mutation.
  void PropagateAttrsUpward(StateId s, const AttrSet& attrs,
                            std::span<const uint32_t> tags,
                            std::vector<StateId>* touched);

  /// Same, with a plain-bitset source (the repair path computes missing
  /// attribute sets as DynamicBitsets).
  void PropagateAttrsUpward(StateId s, const DynamicBitset& attrs,
                            std::span<const uint32_t> tags,
                            std::vector<StateId>* touched);

  /// Recomputes `level` for all states via BFS from the root.
  void RecomputeLevels();

  // Undo log -----------------------------------------------------------------

  /// Activates `undo` (cleared first) as the journal for subsequent
  /// mutations. At most one log may be active; the caller must
  /// EndUndoLog before Clone/Undo. May compact the arenas first when
  /// enough garbage accumulated (never under an active journal).
  void BeginUndoLog(OpUndo* undo);

  /// Deactivates the current journal (no-op when none is active).
  void EndUndoLog();

  /// Rolls back every state journaled in `undo` to its pre-operation
  /// contents and, when the operation changed levels, re-runs the level
  /// BFS. Requires no active journal. Safe on an empty log. The journal is
  /// self-contained, so rollback stays exact even after later operations
  /// relocated or compacted the arenas.
  void Undo(const OpUndo& undo);

  /// Recomputes the attribute set and topic of one non-leaf state from its
  /// tag set (root/interior/tag states only).
  void RecomputeStateFromTags(StateId s);

  /// Adds attributes to a single non-leaf state without propagating to
  /// ancestors. Used by deserialization to restore attributes that
  /// ADD_PARENT operations had propagated beyond the state's tag extents;
  /// general callers should use PropagateAttrsUpward to keep the
  /// inclusion property intact.
  void AddExtraAttrs(StateId s, const std::vector<uint32_t>& attrs);

  /// Recomputes every non-leaf state's attribute-derived fields (attrs,
  /// topic_sum, value_count, topic, topic_norm) from scratch, accumulating
  /// in the same order the deserialization path uses (tag extents in
  /// ascending attribute order, then propagated extras in ascending
  /// order). Incremental maintenance during search accumulates float sums
  /// in operation order instead, so a save/load round trip is normally
  /// only equal up to float accumulation error; after this call it is
  /// bit-identical, and scores computed before saving match scores
  /// computed after reloading exactly.
  void RecomputeAllTopics();

  // Arena management ---------------------------------------------------------

  /// Rewrites the edge and tag arenas without garbage or slack (ranges are
  /// re-packed in state order). Requires no active undo log. Outstanding
  /// OpUndo journals remain replayable (they are self-contained).
  void CompactStorage();

  /// Dead slots currently occupying the shared arenas (compaction
  /// trigger input); in arena elements, not bytes.
  size_t ArenaGarbageSlots() const { return edge_garbage_ + tag_garbage_; }

  // Queries -------------------------------------------------------------------

  const OrgContext& ctx() const { return *ctx_; }
  std::shared_ptr<const OrgContext> ctx_ptr() const { return ctx_; }

  /// The root id; kInvalidId before AddRoot.
  StateId root() const { return root_; }

  /// Arena size (alive + dead states).
  size_t num_states() const { return kind_.size(); }

  /// Number of alive states.
  size_t NumAliveStates() const;

  /// Assembled read-only view of state `s`; invalidated by any mutation.
  OrgState state(StateId s) const {
    assert(s < num_states());
    return OrgState{kind_[s],        alive_[s] != 0, attr_[s],
                    level_[s],       value_count_[s], topic_norm_[s],
                    parents(s),      children(s),     tags(s),
                    attrs_[s],       topic_sum(s),    topic(s)};
  }

  // Per-field accessors: the evaluator/serving hot paths read these
  // directly (no view assembly, no indirection beyond the arena base).
  StateKind kind(StateId s) const { return kind_[s]; }
  bool alive(StateId s) const { return alive_[s] != 0; }
  int level(StateId s) const { return level_[s]; }
  uint32_t attr_of(StateId s) const { return attr_[s]; }
  size_t value_count(StateId s) const { return value_count_[s]; }
  double topic_norm(StateId s) const { return topic_norm_[s]; }
  const AttrSet& attrs(StateId s) const { return attrs_[s]; }
  IdSpan parents(StateId s) const {
    const Range& r = parents_r_[s];
    return IdSpan(std::span<const StateId>(edge_slots_.data() + r.begin,
                                           r.size));
  }
  IdSpan children(StateId s) const {
    const Range& r = children_r_[s];
    return IdSpan(std::span<const StateId>(edge_slots_.data() + r.begin,
                                           r.size));
  }
  TagSpan tags(StateId s) const {
    const Range& r = tags_r_[s];
    return TagSpan(std::span<const uint32_t>(tag_slots_.data() + r.begin,
                                             r.size));
  }
  FloatSpan topic(StateId s) const {
    return FloatSpan(std::span<const float>(
        topic_.data() + static_cast<size_t>(s) * stride_, dim_));
  }
  FloatSpan topic_sum(StateId s) const {
    return FloatSpan(std::span<const float>(
        topic_sum_.data() + static_cast<size_t>(s) * stride_, dim_));
  }

  /// Leaf id of local attribute `attr`; kInvalidId when absent.
  StateId LeafOf(uint32_t attr) const { return leaf_of_attr_.at(attr); }

  /// Alive states reachable from the root, parents before children.
  /// Allocates its result; safe to call concurrently with other readers.
  std::vector<StateId> TopologicalOrder() const;

  /// Scratch-backed variant for the evaluator hot path (no allocation at
  /// steady state). Owning thread only.
  void TopologicalOrderInto(std::vector<StateId>* out) const;

  /// Alive states (reachable from the root) at the given level.
  std::vector<StateId> StatesAtLevel(int level) const;

  /// Scratch-free variant reusing `out`'s capacity.
  void StatesAtLevelInto(int level, std::vector<StateId>* out) const;

  /// Maximum level over alive reachable states.
  int MaxLevel() const;

  /// The attribute set of any state, materialized: the leaf's singleton or
  /// the non-leaf set as a plain bitset.
  DynamicBitset StateAttrSet(StateId s) const;

  /// The attribute ids a non-leaf state carries beyond its tag extents
  /// (the attrs ADD_PARENT propagated into it), ascending. Serialization
  /// persists these; the shard stitcher remaps them across contexts.
  std::vector<uint32_t> ExtraAttrs(StateId s) const;

  /// Number of edges among alive states.
  size_t NumEdges() const;

  /// Approximate heap footprint in bytes: capacities of the per-state
  /// arrays, the shared adjacency/tag arenas, the topic matrices, and an
  /// upper bound for spilled attribute sets (copy-on-write sharing is
  /// charged to every holder). The sharded optimizer's memory-budget
  /// accounting reads this.
  size_t HeapBytes() const;

  /// Full structural check: parent/child symmetry, acyclicity, inclusion
  /// property, one leaf per attribute, topic-sum consistency, level
  /// correctness. O(V * A / 64 + E); for tests and debugging.
  Status Validate() const;

  /// Human-readable multi-line rendering (small orgs; tests/examples).
  std::string DebugString() const;

  /// Test hook: overwrites the cached topic norm (to exercise staleness
  /// detection). Not for production use.
  void SetTopicNormForTest(StateId s, double v) { topic_norm_[s] = v; }

 private:
  /// CSR range into a shared arena: `size` live elements at `begin`, with
  /// `cap - size` slack elements for in-place growth.
  struct Range {
    uint32_t begin = 0;
    uint32_t size = 0;
    uint32_t cap = 0;
  };

  static constexpr size_t kNoJournal = static_cast<size_t>(-1);

  /// Appends a state slot with fields reset.
  StateId NewState(StateKind kind);
  void RefreshTopic(StateId s);
  /// Journals `s` into the active undo log on its first touch. Returns the
  /// journal entry index (existing or new) or kNoJournal when no log is
  /// active.
  size_t JournalTouch(StateId s);
  /// Appends `v` to a range, relocating it to the arena tail with doubled
  /// capacity when full (the old block becomes garbage).
  void AppendSlot(Range* r, std::vector<uint32_t>* slots, size_t* garbage,
                  uint32_t v);
  /// Overwrites a range's contents from a journal snapshot, growing its
  /// block if it was compacted below the snapshot size in the meantime.
  void RestoreRange(Range* r, std::vector<uint32_t>* slots, size_t* garbage,
                    const uint32_t* data, uint32_t n);
  /// Order-preserving erase of `v` from an edge range (never relocates).
  void EraseFromRange(Range* r, uint32_t v);
  /// Sorted insert of `t` into s's tag list (no-op when present).
  void InsertTagSorted(StateId s, uint32_t t);
  void MaybeCompact();

  template <typename SetT>
  void AddAttrsToState(StateId s, const SetT& new_attrs,
                       std::span<const uint32_t> new_tags, bool* grew);
  template <typename SetT>
  void PropagateImpl(StateId s, const SetT& attrs,
                     std::span<const uint32_t> tags,
                     std::vector<StateId>* touched);

  std::span<float> MutableTopicSum(StateId s) {
    return std::span<float>(topic_sum_.data() + static_cast<size_t>(s) * stride_,
                            dim_);
  }

  std::shared_ptr<const OrgContext> ctx_;

  // Per-state parallel arrays (index = StateId).
  std::vector<StateKind> kind_;
  std::vector<uint8_t> alive_;
  std::vector<int> level_;
  std::vector<uint32_t> attr_;
  std::vector<size_t> value_count_;
  std::vector<double> topic_norm_;
  std::vector<AttrSet> attrs_;
  std::vector<Range> parents_r_;
  std::vector<Range> children_r_;
  std::vector<Range> tags_r_;

  // Shared arenas.
  std::vector<StateId> edge_slots_;  // parent and child ranges
  std::vector<uint32_t> tag_slots_;
  std::vector<float> topic_;      // row-major, one stride_-row per state
  std::vector<float> topic_sum_;  // row-major, one stride_-row per state

  size_t dim_ = 0;
  size_t stride_ = 0;  // dim_ rounded up to a multiple of 8 floats
  size_t edge_garbage_ = 0;
  size_t tag_garbage_ = 0;

  std::vector<StateId> leaf_of_attr_;
  StateId root_ = kInvalidId;

  /// Active undo journal; never copied (Clone asserts none is active).
  OpUndo* undo_ = nullptr;

  // Scratch buffers for the scratch-backed queries and invariant
  // maintenance (owning-thread only; see class comment). Mutable so const
  // queries can reuse them without allocating.
  mutable std::vector<char> scratch_visited_;
  mutable std::vector<StateId> scratch_stack_;
  mutable std::vector<StateId> scratch_queue_;
  mutable std::vector<uint32_t> scratch_pending_;
  std::vector<uint32_t> scratch_tags_;
  std::vector<uint32_t> compact_scratch_;
};

}  // namespace lakeorg
