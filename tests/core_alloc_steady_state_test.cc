// Allocation audit for the struct-of-arrays organization core. This file
// is its own binary: it replaces the global allocator with a counting one
// (which must not leak into other test binaries) and proves that a warm
// apply / EvaluateProposal / Undo proposal cycle performs ZERO heap
// allocations — the arena-backed SoA layout's key steady-state guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "benchgen/tagcloud.h"
#include "core/evaluator.h"
#include "core/operations.h"
#include "core/org_builders.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_alloc_bytes{0};

}  // namespace

// Counting allocator: every operator new bumps the counters. Linked only
// into this binary.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// The nothrow/array forms must be replaced too: leaving any of them on the
// default allocator while delete goes through free() trips ASan's
// alloc-dealloc-mismatch check (std::stable_sort's temporary buffer uses
// the nothrow form).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}

// Not inlined: once a delete is inlined down to free(), GCC pairs that
// free() with the operator new call and reports -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace lakeorg {
namespace {

TagCloudBenchmark SmallBench(uint64_t seed) {
  TagCloudOptions opts;
  opts.num_tags = 12;
  opts.target_attributes = 60;
  opts.min_values = 5;
  opts.max_values = 15;
  opts.seed = seed;
  return GenerateTagCloud(opts);
}

// The acceptance bar for the SoA refactor: once every scratch buffer,
// journal pool, arena block, and evaluation buffer is warm, one full
// proposal cycle — apply an operation under an undo journal, evaluate it
// incrementally, roll it back — touches the heap zero times.
TEST(AllocSteadyStateTest, ProposalCycleIsAllocationFree) {
  TagCloudBenchmark bench = SmallBench(17);
  TagIndex index = TagIndex::Build(bench.lake);
  auto ctx = OrgContext::BuildFull(bench.lake, index);
  Organization org = BuildClusteringOrganization(ctx);
  org.RecomputeLevels();

  TransitionConfig config;
  IncrementalEvaluator eval(config, ctx, IdentityRepresentatives(*ctx));
  eval.Initialize(org);
  ReachabilityFn reach = [&eval](StateId s) {
    return eval.StateReachability(s);
  };

  // Pick one target per operation on which the op deterministically
  // applies; Undo restores the exact pre-op state, so the same target
  // stays applicable forever.
  OpUndo undo;
  OpResult op;
  ProposalEvaluation ev;
  StateId add_target = kInvalidId;
  StateId del_target = kInvalidId;
  for (StateId s = 0; s < org.num_states(); ++s) {
    if (!org.alive(s) || s == org.root()) continue;
    if (add_target == kInvalidId) {
      ApplyAddParent(&org, s, reach, &undo, &op);
      if (op.applied) {
        eval.EvaluateProposal(org, op.topic_changed, op.children_changed,
                              op.removed, &ev);
        add_target = s;
      }
      org.Undo(undo);
      if (add_target != kInvalidId) continue;
    }
    if (del_target == kInvalidId && org.kind(s) != StateKind::kLeaf) {
      ApplyDeleteParent(&org, s, reach, &undo, &op);
      if (op.applied) {
        eval.EvaluateProposal(org, op.topic_changed, op.children_changed,
                              op.removed, &ev);
        del_target = s;
      }
      org.Undo(undo);
    }
    if (add_target != kInvalidId && del_target != kInvalidId) break;
  }
  ASSERT_NE(add_target, kInvalidId) << "no applicable ADD_PARENT target";

  auto cycle = [&](StateId target, bool add) {
    if (add) {
      ApplyAddParent(&org, target, reach, &undo, &op);
    } else {
      ApplyDeleteParent(&org, target, reach, &undo, &op);
    }
    ASSERT_TRUE(op.applied);
    eval.EvaluateProposal(org, op.topic_changed, op.children_changed,
                          op.removed, &ev);
    org.Undo(undo);
  };

  // Warm every buffer to capacity (journal pools, arena slack, scratch,
  // evaluation rows), then measure.
  for (int i = 0; i < 3; ++i) {
    cycle(add_target, true);
    if (del_target != kInvalidId) cycle(del_target, false);
  }

  const uint64_t calls_before = g_allocations.load();
  const uint64_t bytes_before = g_alloc_bytes.load();
  for (int i = 0; i < 50; ++i) {
    cycle(add_target, true);
    if (del_target != kInvalidId) cycle(del_target, false);
  }
  const uint64_t calls_after = g_allocations.load();
  const uint64_t bytes_after = g_alloc_bytes.load();

  EXPECT_EQ(calls_after - calls_before, 0u)
      << "steady-state proposal cycle allocated " << calls_after - calls_before
      << " times (" << bytes_after - bytes_before << " bytes)";
}

}  // namespace
}  // namespace lakeorg
