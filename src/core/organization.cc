#include "core/organization.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace lakeorg {
namespace {

bool Contains(IdSpan xs, StateId x) {
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

/// Dispatches to the allocation-free bit iterator of either set type.
template <typename Fn>
void ForEachIn(const AttrSet& s, Fn&& fn) {
  s.ForEach(fn);
}
template <typename Fn>
void ForEachIn(const DynamicBitset& s, Fn&& fn) {
  s.ForEachBit(fn);
}

/// Compaction trigger: at least this much garbage, and more garbage than
/// live arena content (amortizes the O(arena) rewrite).
constexpr size_t kCompactMinGarbage = 1024;

}  // namespace

Organization::Organization(std::shared_ptr<const OrgContext> ctx)
    : ctx_(std::move(ctx)) {
  assert(ctx_ != nullptr);
  leaf_of_attr_.assign(ctx_->num_attrs(), kInvalidId);
  dim_ = ctx_->dim();
  stride_ = (dim_ + 7) & ~size_t{7};
}

Organization Organization::Clone() const {
  assert(undo_ == nullptr && "cannot clone with an active undo log");
  Organization copy = *this;
  copy.undo_ = nullptr;
  return copy;
}

void Organization::CopyFrom(const Organization& other) {
  assert(undo_ == nullptr && other.undo_ == nullptr &&
         "cannot copy with an active undo log");
  if (this == &other) return;
  *this = other;
  undo_ = nullptr;
}

void Organization::Reserve(size_t states, size_t edges) {
  kind_.reserve(states);
  alive_.reserve(states);
  level_.reserve(states);
  attr_.reserve(states);
  value_count_.reserve(states);
  topic_norm_.reserve(states);
  attrs_.reserve(states);
  parents_r_.reserve(states);
  children_r_.reserve(states);
  tags_r_.reserve(states);
  topic_.reserve(states * stride_);
  topic_sum_.reserve(states * stride_);
  // Every edge occupies one slot in its parent's child range and one in
  // its child's parent range; leave headroom for per-range slack.
  edge_slots_.reserve(edges * 3);
  tag_slots_.reserve(states * 2);
}

void Organization::BeginUndoLog(OpUndo* undo) {
  assert(undo != nullptr);
  assert(undo_ == nullptr && "an undo log is already active");
  MaybeCompact();
  undo->Clear();
  undo_ = undo;
}

void Organization::EndUndoLog() { undo_ = nullptr; }

size_t Organization::JournalTouch(StateId s) {
  if (undo_ == nullptr) return kNoJournal;
  // First-touch only: the touched set is small, so a linear scan beats a
  // per-proposal O(num_states) seen-marker allocation.
  for (size_t i = 0; i < undo_->states.size(); ++i) {
    if (undo_->states[i].id == s) return i;
  }
  OpUndo::Entry e;
  e.id = s;
  e.kind = kind_[s];
  e.alive = alive_[s] != 0;
  e.level = level_[s];
  e.value_count = value_count_[s];
  e.topic_norm = topic_norm_[s];
  const Range& pr = parents_r_[s];
  e.parents_begin = static_cast<uint32_t>(undo_->ids.size());
  e.parents_size = pr.size;
  undo_->ids.insert(undo_->ids.end(), edge_slots_.begin() + pr.begin,
                    edge_slots_.begin() + pr.begin + pr.size);
  const Range& cr = children_r_[s];
  e.children_begin = static_cast<uint32_t>(undo_->ids.size());
  e.children_size = cr.size;
  undo_->ids.insert(undo_->ids.end(), edge_slots_.begin() + cr.begin,
                    edge_slots_.begin() + cr.begin + cr.size);
  const Range& tr = tags_r_[s];
  e.tags_begin = static_cast<uint32_t>(undo_->tags.size());
  e.tags_size = tr.size;
  undo_->tags.insert(undo_->tags.end(), tag_slots_.begin() + tr.begin,
                     tag_slots_.begin() + tr.begin + tr.size);
  e.floats_begin = static_cast<uint32_t>(undo_->floats.size());
  const float* sum = topic_sum_.data() + static_cast<size_t>(s) * stride_;
  const float* top = topic_.data() + static_cast<size_t>(s) * stride_;
  undo_->floats.insert(undo_->floats.end(), sum, sum + dim_);
  undo_->floats.insert(undo_->floats.end(), top, top + dim_);
  e.attrs_inline = attrs_[s].inline_rep();
  if (e.attrs_inline) e.attrs_snapshot = attrs_[s].SnapshotInline();
  undo_->states.push_back(e);
  return undo_->states.size() - 1;
}

void Organization::RestoreRange(Range* r, std::vector<uint32_t>* slots,
                                size_t* garbage, const uint32_t* data,
                                uint32_t n) {
  if (n > r->cap) {
    // The range was compacted below its pre-operation capacity between the
    // journal and this rollback: give it a fresh tail block.
    uint32_t new_cap = std::max<uint32_t>(4, n);
    *garbage += r->cap;
    r->begin = static_cast<uint32_t>(slots->size());
    r->cap = new_cap;
    slots->resize(slots->size() + new_cap, 0);
  }
  std::copy_n(data, n, slots->data() + r->begin);
  r->size = n;
}

void Organization::Undo(const OpUndo& undo) {
  assert(undo_ == nullptr && "end the undo log before rolling back");
  // Originally-spilled attribute sets restore by clearing the bits the
  // operation added (operations only ever add bits; a spilled set never
  // un-spills, so this is an exact restore with no representation flip).
  for (const auto& [s, bit] : undo.attr_bits_added) {
    attrs_[s].Clear(bit);
  }
  for (auto it = undo.states.rbegin(); it != undo.states.rend(); ++it) {
    const OpUndo::Entry& e = *it;
    StateId s = e.id;
    kind_[s] = e.kind;
    alive_[s] = e.alive ? 1 : 0;
    level_[s] = e.level;
    value_count_[s] = e.value_count;
    topic_norm_[s] = e.topic_norm;
    RestoreRange(&parents_r_[s], &edge_slots_, &edge_garbage_,
                 undo.ids.data() + e.parents_begin, e.parents_size);
    RestoreRange(&children_r_[s], &edge_slots_, &edge_garbage_,
                 undo.ids.data() + e.children_begin, e.children_size);
    RestoreRange(&tags_r_[s], &tag_slots_, &tag_garbage_,
                 undo.tags.data() + e.tags_begin, e.tags_size);
    const float* f = undo.floats.data() + e.floats_begin;
    std::copy_n(f, dim_, topic_sum_.data() + static_cast<size_t>(s) * stride_);
    std::copy_n(f + dim_, dim_,
                topic_.data() + static_cast<size_t>(s) * stride_);
    if (e.attrs_inline) attrs_[s].RestoreInline(e.attrs_snapshot);
  }
  if (undo.levels_changed) RecomputeLevels();
}

StateId Organization::NewState(StateKind kind) {
  assert(undo_ == nullptr && "cannot create states under an undo log");
  StateId id = static_cast<StateId>(kind_.size());
  kind_.push_back(kind);
  alive_.push_back(1);
  level_.push_back(-1);
  attr_.push_back(kInvalidId);
  value_count_.push_back(0);
  topic_norm_.push_back(0.0);
  attrs_.emplace_back(ctx_->num_attrs());
  parents_r_.emplace_back();
  children_r_.emplace_back();
  tags_r_.emplace_back();
  topic_.resize(topic_.size() + stride_, 0.0f);
  topic_sum_.resize(topic_sum_.size() + stride_, 0.0f);
  return id;
}

void Organization::AppendSlot(Range* r, std::vector<uint32_t>* slots,
                              size_t* garbage, uint32_t v) {
  if (r->size == r->cap) {
    uint32_t new_cap = r->cap == 0 ? 4 : r->cap * 2;
    uint32_t new_begin = static_cast<uint32_t>(slots->size());
    slots->resize(slots->size() + new_cap, 0);
    std::copy_n(slots->data() + r->begin, r->size, slots->data() + new_begin);
    *garbage += r->cap;
    r->begin = new_begin;
    r->cap = new_cap;
  }
  (*slots)[r->begin + r->size] = v;
  ++r->size;
}

void Organization::InsertTagSorted(StateId s, uint32_t t) {
  Range& r = tags_r_[s];
  const uint32_t* begin = tag_slots_.data() + r.begin;
  const uint32_t* end = begin + r.size;
  const uint32_t* it = std::lower_bound(begin, end, t);
  if (it != end && *it == t) return;
  size_t pos = static_cast<size_t>(it - begin);
  AppendSlot(&r, &tag_slots_, &tag_garbage_, t);  // may relocate the range
  uint32_t* b = tag_slots_.data() + r.begin;
  std::rotate(b + pos, b + r.size - 1, b + r.size);
}

void Organization::RefreshTopic(StateId s) {
  const float* sum = topic_sum_.data() + static_cast<size_t>(s) * stride_;
  float* top = topic_.data() + static_cast<size_t>(s) * stride_;
  std::copy_n(sum, dim_, top);
  if (value_count_[s] > 0) {
    ScaleInPlace(
        std::span<float>(top, dim_),
        static_cast<float>(1.0 / static_cast<double>(value_count_[s])));
  }
  topic_norm_[s] = Norm(std::span<const float>(top, dim_));
}

StateId Organization::AddLeaf(uint32_t attr) {
  assert(attr < ctx_->num_attrs());
  assert(leaf_of_attr_[attr] == kInvalidId && "duplicate leaf");
  StateId id = NewState(StateKind::kLeaf);
  attr_[id] = attr;
  const Vec& sum = ctx_->attr_sum(attr);
  const Vec& vec = ctx_->attr_vector(attr);
  std::copy(sum.begin(), sum.end(),
            topic_sum_.begin() + static_cast<size_t>(id) * stride_);
  std::copy(vec.begin(), vec.end(),
            topic_.begin() + static_cast<size_t>(id) * stride_);
  value_count_[id] = ctx_->attr_value_count(attr);
  topic_norm_[id] = Norm(topic(id));
  leaf_of_attr_[attr] = id;
  return id;
}

StateId Organization::AddTagState(uint32_t tag) {
  assert(tag < ctx_->num_tags());
  StateId id = NewState(StateKind::kTag);
  AppendSlot(&tags_r_[id], &tag_slots_, &tag_garbage_, tag);
  RecomputeStateFromTags(id);
  return id;
}

StateId Organization::AddInteriorState(std::vector<uint32_t> tags) {
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  assert(!tags.empty());
  StateId id = NewState(StateKind::kInterior);
  for (uint32_t t : tags) AppendSlot(&tags_r_[id], &tag_slots_, &tag_garbage_, t);
  RecomputeStateFromTags(id);
  return id;
}

StateId Organization::AddRoot(std::vector<uint32_t> tags) {
  assert(root_ == kInvalidId && "root already set");
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  StateId id = NewState(StateKind::kRoot);
  for (uint32_t t : tags) AppendSlot(&tags_r_[id], &tag_slots_, &tag_garbage_, t);
  root_ = id;
  RecomputeStateFromTags(id);
  level_[id] = 0;
  return id;
}

void Organization::RecomputeStateFromTags(StateId s) {
  assert(kind_[s] != StateKind::kLeaf);
  AttrSet& attrs = attrs_[s];
  attrs.Reset(ctx_->num_attrs());
  for (uint32_t t : tags(s)) attrs.UnionWith(ctx_->tag_extent(t));
  float* sum = topic_sum_.data() + static_cast<size_t>(s) * stride_;
  std::fill_n(sum, stride_, 0.0f);
  value_count_[s] = 0;
  attrs.ForEach([this, s, sum](size_t a) {
    AddInPlace(std::span<float>(sum, dim_), ctx_->attr_sum(a));
    value_count_[s] += ctx_->attr_value_count(a);
  });
  RefreshTopic(s);
}

Status Organization::AddEdge(StateId parent, StateId child) {
  if (parent >= num_states() || child >= num_states()) {
    return Status::NotFound("unknown state id");
  }
  if (!alive_[parent] || !alive_[child]) {
    return Status::FailedPrecondition("edge endpoint is dead");
  }
  if (parent == child) return Status::InvalidArgument("self loop");
  if (kind_[parent] == StateKind::kLeaf) {
    return Status::InvalidArgument("leaf cannot have children");
  }
  if (child == root_) return Status::InvalidArgument("edge into root");
  if (Contains(children(parent), child)) {
    return Status::AlreadyExists("duplicate edge");
  }
  // Inclusion property: D_child must be a subset of D_parent.
  if (kind_[child] == StateKind::kLeaf) {
    if (!attrs_[parent].Test(attr_[child])) {
      return Status::FailedPrecondition(
          "inclusion violated: leaf attribute not in parent");
    }
  } else if (!attrs_[child].IsSubsetOf(attrs_[parent])) {
    return Status::FailedPrecondition(
        "inclusion violated: child attrs not subset of parent");
  }
  JournalTouch(parent);
  JournalTouch(child);
  AppendSlot(&children_r_[parent], &edge_slots_, &edge_garbage_, child);
  AppendSlot(&parents_r_[child], &edge_slots_, &edge_garbage_, parent);
  return Status::OK();
}

// Order-preserving removal of the first occurrence of `v` (child order
// feeds the softmax accumulation order, which bit-identity depends on).
void Organization::EraseFromRange(Range* r, uint32_t v) {
  uint32_t* begin = edge_slots_.data() + r->begin;
  uint32_t* end = begin + r->size;
  uint32_t* it = std::find(begin, end, v);
  if (it == end) return;
  std::move(it + 1, end, it);
  --r->size;
}

Status Organization::RemoveEdge(StateId parent, StateId child) {
  if (parent >= num_states() || child >= num_states()) {
    return Status::NotFound("unknown state id");
  }
  if (!Contains(children(parent), child)) {
    return Status::NotFound("no such edge");
  }
  JournalTouch(parent);
  JournalTouch(child);
  EraseFromRange(&children_r_[parent], child);
  EraseFromRange(&parents_r_[child], parent);
  return Status::OK();
}

Status Organization::RemoveState(StateId s) {
  if (s >= num_states()) return Status::NotFound("unknown state id");
  if (!alive_[s]) return Status::FailedPrecondition("state already dead");
  if (s == root_) return Status::InvalidArgument("cannot remove root");
  if (kind_[s] == StateKind::kLeaf) {
    return Status::InvalidArgument("cannot remove a leaf state");
  }
  JournalTouch(s);
  for (StateId p : parents(s)) JournalTouch(p);
  for (StateId c : children(s)) JournalTouch(c);
  // EraseFromRange never relocates, so the spans stay valid throughout.
  for (StateId p : parents(s)) EraseFromRange(&children_r_[p], s);
  for (StateId c : children(s)) EraseFromRange(&parents_r_[c], s);
  parents_r_[s].size = 0;
  children_r_[s].size = 0;
  alive_[s] = 0;
  return Status::OK();
}

bool Organization::WouldCreateCycle(StateId parent, StateId child) const {
  if (parent == child) return true;
  // DFS from child along child edges looking for parent.
  scratch_visited_.assign(num_states(), 0);
  scratch_stack_.clear();
  scratch_stack_.push_back(child);
  scratch_visited_[child] = 1;
  while (!scratch_stack_.empty()) {
    StateId cur = scratch_stack_.back();
    scratch_stack_.pop_back();
    for (StateId nxt : children(cur)) {
      if (nxt == parent) return true;
      if (!scratch_visited_[nxt]) {
        scratch_visited_[nxt] = 1;
        scratch_stack_.push_back(nxt);
      }
    }
  }
  return false;
}

void Organization::AddExtraAttrs(StateId s,
                                 const std::vector<uint32_t>& attrs) {
  assert(kind_[s] != StateKind::kLeaf);
  size_t entry = JournalTouch(s);
  const bool journal_bits =
      entry != kNoJournal && !undo_->states[entry].attrs_inline;
  AttrSet& set = attrs_[s];
  float* sum = topic_sum_.data() + static_cast<size_t>(s) * stride_;
  bool grew = false;
  for (uint32_t a : attrs) {
    if (a < set.size() && !set.Test(a)) {
      if (journal_bits) undo_->attr_bits_added.emplace_back(s, a);
      set.Set(a);
      AddInPlace(std::span<float>(sum, dim_), ctx_->attr_sum(a));
      value_count_[s] += ctx_->attr_value_count(a);
      grew = true;
    }
  }
  if (grew) RefreshTopic(s);
}

template <typename SetT>
void Organization::AddAttrsToState(StateId s, const SetT& new_attrs,
                                   std::span<const uint32_t> new_tags,
                                   bool* grew) {
  assert(kind_[s] != StateKind::kLeaf);
  // Journal unconditionally: even when no attribute grows, the tag merge
  // below may mutate `tags` (and the kTag -> kInterior promotion).
  size_t entry = JournalTouch(s);
  const bool journal_bits =
      entry != kNoJournal && !undo_->states[entry].attrs_inline;
  *grew = false;
  AttrSet& set = attrs_[s];
  float* sum = topic_sum_.data() + static_cast<size_t>(s) * stride_;
  // Incremental topic update: fold in only attributes not already present.
  ForEachIn(new_attrs, [this, s, &set, sum, grew, journal_bits](size_t a) {
    if (!set.Test(a)) {
      if (journal_bits) {
        undo_->attr_bits_added.emplace_back(s, static_cast<uint32_t>(a));
      }
      set.Set(a);
      AddInPlace(std::span<float>(sum, dim_), ctx_->attr_sum(a));
      value_count_[s] += ctx_->attr_value_count(a);
      *grew = true;
    }
  });
  for (uint32_t t : new_tags) InsertTagSorted(s, t);
  // A penultimate tag state that accumulates further tags is no longer
  // the fixed single-tag level of section 3.2: promote it to interior
  // (it loses DELETE_PARENT protection along with the promotion).
  if (kind_[s] == StateKind::kTag && tags_r_[s].size > 1) {
    kind_[s] = StateKind::kInterior;
  }
  if (*grew) RefreshTopic(s);
}

template <typename SetT>
void Organization::PropagateImpl(StateId s, const SetT& attrs,
                                 std::span<const uint32_t> tags,
                                 std::vector<StateId>* touched) {
  // The tag arena can relocate while ancestors absorb tags, so copy the
  // incoming tag list into stable scratch before any mutation. (`attrs`
  // may alias attrs_[s], which is stable: the attrs_ array never grows
  // during an operation, and s's own set never grows from itself.)
  scratch_tags_.assign(tags.begin(), tags.end());
  // BFS upward from s; stop expanding where nothing grew (ancestors of a
  // state that already contains the attrs contain them too -- except via
  // other paths, so we still visit every parent of a grown state).
  scratch_visited_.assign(num_states(), 0);
  scratch_queue_.clear();
  size_t head = 0;
  scratch_queue_.push_back(s);
  scratch_visited_[s] = 1;
  while (head < scratch_queue_.size()) {
    StateId cur = scratch_queue_[head++];
    bool grew = false;
    AddAttrsToState(cur, attrs,
                    std::span<const uint32_t>(scratch_tags_), &grew);
    if (grew && touched != nullptr) touched->push_back(cur);
    if (grew) {
      for (StateId p : parents(cur)) {
        if (!scratch_visited_[p]) {
          scratch_visited_[p] = 1;
          scratch_queue_.push_back(p);
        }
      }
    }
  }
}

void Organization::PropagateAttrsUpward(StateId s, const AttrSet& attrs,
                                        std::span<const uint32_t> tags,
                                        std::vector<StateId>* touched) {
  PropagateImpl(s, attrs, tags, touched);
}

void Organization::PropagateAttrsUpward(StateId s, const DynamicBitset& attrs,
                                        std::span<const uint32_t> tags,
                                        std::vector<StateId>* touched) {
  PropagateImpl(s, attrs, tags, touched);
}

void Organization::RecomputeLevels() {
  if (undo_ != nullptr) undo_->levels_changed = true;
  std::fill(level_.begin(), level_.end(), -1);
  if (root_ == kInvalidId) return;
  level_[root_] = 0;
  scratch_queue_.clear();
  size_t head = 0;
  scratch_queue_.push_back(root_);
  while (head < scratch_queue_.size()) {
    StateId cur = scratch_queue_[head++];
    int next_level = level_[cur] + 1;
    for (StateId c : children(cur)) {
      if (level_[c] == -1) {
        level_[c] = next_level;
        scratch_queue_.push_back(c);
      }
    }
  }
}

void Organization::MaybeCompact() {
  size_t garbage = edge_garbage_ + tag_garbage_;
  if (garbage > kCompactMinGarbage &&
      garbage > (edge_slots_.size() + tag_slots_.size()) / 2) {
    CompactStorage();
  }
}

void Organization::CompactStorage() {
  assert(undo_ == nullptr && "cannot compact under an active undo log");
  auto compact = [this](std::vector<uint32_t>* slots,
                        std::initializer_list<std::vector<Range>*> range_sets,
                        size_t* garbage) {
    compact_scratch_.clear();
    for (std::vector<Range>* ranges : range_sets) {
      for (Range& r : *ranges) {
        uint32_t new_begin = static_cast<uint32_t>(compact_scratch_.size());
        compact_scratch_.insert(compact_scratch_.end(),
                                slots->begin() + r.begin,
                                slots->begin() + r.begin + r.size);
        r.begin = new_begin;
        r.cap = r.size;
      }
    }
    slots->swap(compact_scratch_);
    *garbage = 0;
  };
  compact(&edge_slots_, {&parents_r_, &children_r_}, &edge_garbage_);
  compact(&tag_slots_, {&tags_r_}, &tag_garbage_);
}

size_t Organization::NumAliveStates() const {
  size_t n = 0;
  for (uint8_t a : alive_) {
    if (a) ++n;
  }
  return n;
}

std::vector<StateId> Organization::TopologicalOrder() const {
  // Kahn's algorithm restricted to states reachable from the root. This
  // variant allocates locally so concurrent readers can call it safely.
  std::vector<StateId> order;
  if (root_ == kInvalidId) return order;
  std::vector<char> reachable(num_states(), 0);
  std::vector<StateId> stack = {root_};
  reachable[root_] = 1;
  while (!stack.empty()) {
    StateId cur = stack.back();
    stack.pop_back();
    for (StateId c : children(cur)) {
      if (!reachable[c]) {
        reachable[c] = 1;
        stack.push_back(c);
      }
    }
  }
  std::vector<uint32_t> pending(num_states(), 0);
  for (StateId s = 0; s < num_states(); ++s) {
    if (!reachable[s]) continue;
    uint32_t in_degree = 0;
    for (StateId p : parents(s)) {
      if (reachable[p]) ++in_degree;
    }
    pending[s] = in_degree;
  }
  std::vector<StateId> queue = {root_};
  size_t head = 0;
  while (head < queue.size()) {
    StateId cur = queue[head++];
    order.push_back(cur);
    for (StateId c : children(cur)) {
      if (--pending[c] == 0) queue.push_back(c);
    }
  }
  return order;
}

void Organization::TopologicalOrderInto(std::vector<StateId>* out) const {
  out->clear();
  if (root_ == kInvalidId) return;
  scratch_visited_.assign(num_states(), 0);
  scratch_stack_.clear();
  scratch_stack_.push_back(root_);
  scratch_visited_[root_] = 1;
  while (!scratch_stack_.empty()) {
    StateId cur = scratch_stack_.back();
    scratch_stack_.pop_back();
    for (StateId c : children(cur)) {
      if (!scratch_visited_[c]) {
        scratch_visited_[c] = 1;
        scratch_stack_.push_back(c);
      }
    }
  }
  scratch_pending_.assign(num_states(), 0);
  for (StateId s = 0; s < num_states(); ++s) {
    if (!scratch_visited_[s]) continue;
    uint32_t in_degree = 0;
    for (StateId p : parents(s)) {
      if (scratch_visited_[p]) ++in_degree;
    }
    scratch_pending_[s] = in_degree;
  }
  scratch_queue_.clear();
  size_t head = 0;
  scratch_queue_.push_back(root_);
  while (head < scratch_queue_.size()) {
    StateId cur = scratch_queue_[head++];
    out->push_back(cur);
    for (StateId c : children(cur)) {
      if (--scratch_pending_[c] == 0) scratch_queue_.push_back(c);
    }
  }
}

std::vector<StateId> Organization::StatesAtLevel(int level) const {
  std::vector<StateId> out;
  StatesAtLevelInto(level, &out);
  return out;
}

void Organization::StatesAtLevelInto(int level,
                                     std::vector<StateId>* out) const {
  out->clear();
  for (StateId s = 0; s < num_states(); ++s) {
    if (alive_[s] && level_[s] == level) out->push_back(s);
  }
}

int Organization::MaxLevel() const {
  int max_level = -1;
  for (StateId s = 0; s < num_states(); ++s) {
    if (alive_[s]) max_level = std::max(max_level, level_[s]);
  }
  return max_level;
}

DynamicBitset Organization::StateAttrSet(StateId s) const {
  assert(s < num_states());
  if (kind_[s] == StateKind::kLeaf) {
    DynamicBitset b = ctx_->MakeAttrSet();
    b.Set(attr_[s]);
    return b;
  }
  return attrs_[s].ToBitset();
}

std::vector<uint32_t> Organization::ExtraAttrs(StateId s) const {
  assert(s < num_states() && kind_[s] != StateKind::kLeaf);
  DynamicBitset from_tags = ctx_->MakeAttrSet();
  for (uint32_t t : tags(s)) from_tags.UnionWith(ctx_->tag_extent(t));
  std::vector<uint32_t> extras;
  attrs_[s].ForEach([&from_tags, &extras](size_t a) {
    if (!from_tags.Test(a)) extras.push_back(static_cast<uint32_t>(a));
  });
  return extras;
}

size_t Organization::NumEdges() const {
  size_t n = 0;
  for (StateId s = 0; s < num_states(); ++s) {
    if (alive_[s]) n += children_r_[s].size;
  }
  return n;
}

size_t Organization::HeapBytes() const {
  size_t bytes = 0;
  bytes += kind_.capacity() * sizeof(StateKind);
  bytes += alive_.capacity() * sizeof(uint8_t);
  bytes += level_.capacity() * sizeof(int);
  bytes += attr_.capacity() * sizeof(uint32_t);
  bytes += value_count_.capacity() * sizeof(size_t);
  bytes += topic_norm_.capacity() * sizeof(double);
  bytes += attrs_.capacity() * sizeof(AttrSet);
  bytes += (parents_r_.capacity() + children_r_.capacity() +
            tags_r_.capacity()) *
           sizeof(Range);
  bytes += edge_slots_.capacity() * sizeof(StateId);
  bytes += tag_slots_.capacity() * sizeof(uint32_t);
  bytes += (topic_.capacity() + topic_sum_.capacity()) * sizeof(float);
  bytes += leaf_of_attr_.capacity() * sizeof(StateId);
  // Spilled sets hold one bitset word per 64 attributes of the universe;
  // copy-on-write shares are charged to every holder (upper bound).
  size_t spilled_bytes = ((ctx_->num_attrs() + 63) / 64) * sizeof(uint64_t);
  for (const AttrSet& set : attrs_) {
    if (!set.inline_rep()) bytes += spilled_bytes;
  }
  return bytes;
}

Status Organization::Validate() const {
  if (root_ == kInvalidId) {
    return Status::FailedPrecondition("no root");
  }
  // Parent/child symmetry and liveness.
  for (StateId s = 0; s < num_states(); ++s) {
    if (!alive_[s]) {
      if (parents_r_[s].size != 0 || children_r_[s].size != 0) {
        return Status::Internal("dead state with edges: " +
                                std::to_string(s));
      }
      continue;
    }
    for (StateId c : children(s)) {
      if (!alive_[c]) {
        return Status::Internal("edge to dead state");
      }
      if (!Contains(parents(c), s)) {
        return Status::Internal("asymmetric edge (child missing parent)");
      }
    }
    for (StateId p : parents(s)) {
      if (!alive_[p]) {
        return Status::Internal("edge from dead state");
      }
      if (!Contains(children(p), s)) {
        return Status::Internal("asymmetric edge (parent missing child)");
      }
    }
  }
  // Acyclicity: topological order must cover all reachable states.
  std::vector<StateId> topo = TopologicalOrder();
  {
    std::vector<char> reachable(num_states(), 0);
    std::vector<StateId> stack = {root_};
    reachable[root_] = 1;
    size_t count = 1;
    while (!stack.empty()) {
      StateId cur = stack.back();
      stack.pop_back();
      for (StateId c : children(cur)) {
        if (!reachable[c]) {
          reachable[c] = 1;
          ++count;
          stack.push_back(c);
        }
      }
    }
    if (topo.size() != count) {
      return Status::Internal("cycle detected (topological order short)");
    }
  }
  // Inclusion property + topic consistency.
  for (StateId s = 0; s < num_states(); ++s) {
    if (!alive_[s]) continue;
    if (kind_[s] == StateKind::kLeaf) {
      if (attr_[s] == kInvalidId || leaf_of_attr_[attr_[s]] != s) {
        return Status::Internal("leaf/attribute mapping broken");
      }
      continue;
    }
    // The tag-derived attribute set must be a subset of the state's attrs
    // (attrs may additionally contain propagated attributes whose tags
    // were merged in, so equality holds in this implementation).
    DynamicBitset expected = ctx_->MakeAttrSet();
    for (uint32_t t : tags(s)) expected.UnionWith(ctx_->tag_extent(t));
    if (!attrs_[s].ContainsAll(expected)) {
      return Status::Internal("state attrs missing tag extents");
    }
    for (StateId c : children(s)) {
      if (kind_[c] == StateKind::kLeaf) {
        if (!attrs_[s].Test(attr_[c])) {
          return Status::Internal("inclusion violated at leaf edge");
        }
      } else if (!attrs_[c].IsSubsetOf(attrs_[s])) {
        return Status::Internal("inclusion violated at interior edge");
      }
    }
    // Topic-sum consistency against attrs.
    Vec sum(ctx_->dim(), 0.0f);
    size_t count = 0;
    attrs_[s].ForEach([this, &sum, &count](size_t a) {
      AddInPlace(&sum, ctx_->attr_sum(a));
      count += ctx_->attr_value_count(a);
    });
    if (count != value_count_[s]) {
      return Status::Internal("value_count inconsistent");
    }
    FloatSpan stored = topic_sum(s);
    for (size_t i = 0; i < sum.size(); ++i) {
      float delta = sum[i] - stored[i];
      float scale = std::max(1.0f, std::abs(sum[i]));
      if (std::abs(delta) > 1e-3f * scale) {
        return Status::Internal("topic_sum inconsistent");
      }
    }
  }
  // Cached norm freshness. Every mutation path ends in RefreshTopic or a
  // journaled restore, so the cached norm must be exactly Norm(topic) —
  // any drift means a maintenance path skipped the refresh.
  for (StateId s = 0; s < num_states(); ++s) {
    if (!alive_[s]) continue;
    if (topic_norm_[s] != Norm(topic(s))) {
      return Status::Internal("stale topic_norm on state " +
                              std::to_string(s));
    }
  }
  return Status::OK();
}

void Organization::RecomputeAllTopics() {
  for (StateId s = 0; s < num_states(); ++s) {
    if (!alive_[s] || kind_[s] == StateKind::kLeaf) continue;
    // Extras = attrs beyond the tag extents (what ADD_PARENT propagated
    // in), ascending — exactly what SaveOrganization writes.
    DynamicBitset from_tags = ctx_->MakeAttrSet();
    for (uint32_t t : tags(s)) from_tags.UnionWith(ctx_->tag_extent(t));
    std::vector<uint32_t> extras;
    attrs_[s].ForEach([&from_tags, &extras](size_t a) {
      if (!from_tags.Test(a)) extras.push_back(static_cast<uint32_t>(a));
    });
    // Re-accumulate in the load path's order (tag extents ascending, then
    // extras ascending), so the result is bit-identical to what a
    // save/load round trip produces.
    RecomputeStateFromTags(s);
    if (!extras.empty()) AddExtraAttrs(s, extras);
  }
}

std::string Organization::DebugString() const {
  std::ostringstream out;
  std::vector<StateId> topo = TopologicalOrder();
  for (StateId s : topo) {
    out << "#" << s << " L" << level_[s] << " ";
    switch (kind_[s]) {
      case StateKind::kRoot:
        out << "root";
        break;
      case StateKind::kInterior: {
        out << "interior{";
        TagSpan ts = tags(s);
        for (size_t i = 0; i < ts.size(); ++i) {
          if (i > 0) out << ",";
          out << ctx_->tag_name(ts[i]);
        }
        out << "}";
        break;
      }
      case StateKind::kTag:
        out << "tag(" << ctx_->tag_name(tags(s)[0]) << ")";
        break;
      case StateKind::kLeaf:
        out << "leaf(" << ctx_->attr_label(attr_[s]) << ")";
        break;
    }
    out << " ->";
    for (StateId c : children(s)) out << " #" << c;
    out << "\n";
  }
  return out.str();
}

}  // namespace lakeorg
