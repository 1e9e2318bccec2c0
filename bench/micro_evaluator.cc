// M2 — google-benchmark microbenchmarks for the allocation-free
// proposal-evaluation engine: incremental EvaluateProposal, clone-vs-undo
// proposal application, and an end-to-end local search. The fixture is
// the 400-attribute tag cloud also used by micro_core, so numbers are
// directly comparable with the seed's BM_ProposalEvaluation /
// BM_OrganizationClone baselines.
#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "benchgen/tagcloud.h"
#include "core/evaluator.h"
#include "core/local_search.h"
#include "core/operations.h"
#include "core/org_builders.h"
#include "core/reference_evaluator.h"

namespace lakeorg {
namespace {

/// Lazily built shared fixture (generation is too slow per-iteration).
struct Shared {
  TagCloudBenchmark bench;
  TagIndex index;
  std::shared_ptr<const OrgContext> ctx;
  Organization clustering;

  Shared()
      : bench([] {
          TagCloudOptions opts;
          opts.num_tags = 60;
          opts.target_attributes = 400;
          opts.min_values = 10;
          opts.max_values = 60;
          opts.seed = 9;
          return GenerateTagCloud(opts);
        }()),
        index(TagIndex::Build(bench.lake)),
        ctx(OrgContext::BuildFull(bench.lake, index)),
        clustering(BuildClusteringOrganization(ctx)) {
    // Sanity-seed the fixture against the differential-testing oracle:
    // a benchmark over an organization the optimized evaluator scores
    // differently from the reference would measure the wrong code.
    clustering.RecomputeLevels();
    double want = ReferenceEvaluator().Effectiveness(clustering);
    double got = OrgEvaluator().Effectiveness(clustering);
    if (std::abs(got - want) > 1e-9) {
      std::fprintf(stderr,
                   "micro_evaluator fixture fails the oracle check: "
                   "optimized %.12f vs reference %.12f\n",
                   got, want);
      std::abort();
    }
  }

  static const Shared& Get() {
    static const Shared shared;
    return shared;
  }
};

/// Incremental proposal evaluation (apply + evaluate + roll back).
void BM_EvaluateProposal(benchmark::State& state) {
  const Shared& shared = Shared::Get();
  TransitionConfig config;
  IncrementalEvaluator evaluator(config, shared.ctx,
                                 IdentityRepresentatives(*shared.ctx));
  Organization current = shared.clustering.Clone();
  current.RecomputeLevels();
  evaluator.Initialize(current);
  ReachabilityFn reach = [&evaluator](StateId s) {
    return evaluator.StateReachability(s);
  };
  uint32_t leaf = 0;
  uint32_t num_attrs = static_cast<uint32_t>(shared.ctx->num_attrs());
  OpUndo undo;
  for (auto _ : state) {
    OpResult op =
        ApplyAddParent(&current, current.LeafOf(leaf), reach, &undo);
    if (op.applied) {
      ProposalEvaluation eval;
      evaluator.EvaluateProposal(current, op.topic_changed,
                                 op.children_changed, op.removed, &eval);
      benchmark::DoNotOptimize(eval.effectiveness);
    }
    current.Undo(undo);
    leaf = (leaf + 1) % num_attrs;
  }
}
BENCHMARK(BM_EvaluateProposal)->UseRealTime();

/// Seed-style proposal application: clone the whole organization, mutate
/// the clone, discard it.
void BM_ProposalApplyClone(benchmark::State& state) {
  const Shared& shared = Shared::Get();
  Organization current = shared.clustering.Clone();
  current.RecomputeLevels();
  ReachabilityFn uniform = [](StateId) { return 1.0; };
  uint32_t leaf = 0;
  uint32_t num_attrs = static_cast<uint32_t>(shared.ctx->num_attrs());
  for (auto _ : state) {
    Organization proposal = current.Clone();
    OpResult op = ApplyAddParent(&proposal, proposal.LeafOf(leaf), uniform);
    benchmark::DoNotOptimize(op.applied);
    leaf = (leaf + 1) % num_attrs;
  }
}
BENCHMARK(BM_ProposalApplyClone);

/// Undo-log proposal application: mutate in place, roll back via the undo
/// log (the engine's reject path).
void BM_ProposalApplyUndo(benchmark::State& state) {
  const Shared& shared = Shared::Get();
  Organization current = shared.clustering.Clone();
  current.RecomputeLevels();
  ReachabilityFn uniform = [](StateId) { return 1.0; };
  uint32_t leaf = 0;
  uint32_t num_attrs = static_cast<uint32_t>(shared.ctx->num_attrs());
  OpUndo undo;
  for (auto _ : state) {
    OpResult op =
        ApplyAddParent(&current, current.LeafOf(leaf), uniform, &undo);
    benchmark::DoNotOptimize(op.applied);
    current.Undo(undo);
    leaf = (leaf + 1) % num_attrs;
  }
}
BENCHMARK(BM_ProposalApplyUndo);

/// End-to-end local search on the fixture (includes target-queue builds,
/// operations, and commits).
void BM_LocalSearch(benchmark::State& state) {
  const Shared& shared = Shared::Get();
  for (auto _ : state) {
    LocalSearchOptions opts;
    opts.seed = 7;
    opts.max_proposals = 200;
    opts.patience = 200;
    opts.record_history = false;
    LocalSearchResult result = bench::CheckedValue(
        OptimizeOrganization(shared.clustering.Clone(), opts),
        "optimize");
    benchmark::DoNotOptimize(result.effectiveness);
  }
}
BENCHMARK(BM_LocalSearch)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lakeorg

int main(int argc, char** argv) {
  return lakeorg::bench::GoogleBenchMain(argc, argv, "micro_evaluator");
}
