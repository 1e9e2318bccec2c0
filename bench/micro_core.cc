// M1 — google-benchmark microbenchmarks for the hot kernels: cosine and
// topic accumulation, reach-probability DP, organization clone + operation
// application, incremental proposal evaluation, and BM25 query latency.
#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "benchgen/tagcloud.h"
#include "core/evaluator.h"
#include "core/local_search.h"
#include "core/operations.h"
#include "core/org_builders.h"
#include "search/engine.h"

namespace lakeorg {
namespace {

/// Lazily built shared fixture (generation is too slow per-iteration).
struct Shared {
  TagCloudBenchmark bench;
  TagIndex index;
  std::shared_ptr<const OrgContext> ctx;
  Organization flat;
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
        flat(BuildFlatOrganization(ctx)),
        clustering(BuildClusteringOrganization(ctx)) {}

  static const Shared& Get() {
    static const Shared shared;
    return shared;
  }
};

void BM_Cosine(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  Vec a(dim, 0.5f);
  Vec b(dim, 0.25f);
  a[0] = 1.0f;
  b[dim - 1] = 1.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Cosine(a, b));
  }
}
BENCHMARK(BM_Cosine)->Arg(50)->Arg(300);

void BM_TopicAccumulate(benchmark::State& state) {
  size_t dim = 50;
  Vec sample(dim, 0.1f);
  for (auto _ : state) {
    TopicAccumulator acc(dim);
    for (int i = 0; i < 64; ++i) acc.Add(sample);
    benchmark::DoNotOptimize(acc.Mean());
  }
}
BENCHMARK(BM_TopicAccumulate);

void BM_ReachProbabilities(benchmark::State& state) {
  const Shared& shared = Shared::Get();
  const Organization& org =
      state.range(0) == 0 ? shared.flat : shared.clustering;
  OrgEvaluator eval;
  const Vec& query = shared.ctx->attr_vector(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.ReachProbabilities(org, query));
  }
  state.SetLabel(state.range(0) == 0 ? "flat" : "clustering");
}
BENCHMARK(BM_ReachProbabilities)->Arg(0)->Arg(1);

void BM_OrganizationClone(benchmark::State& state) {
  const Shared& shared = Shared::Get();
  for (auto _ : state) {
    Organization clone = shared.clustering.Clone();
    benchmark::DoNotOptimize(clone.num_states());
  }
}
BENCHMARK(BM_OrganizationClone);

void BM_OrganizationCopyFrom(benchmark::State& state) {
  // Warm snapshot path: repeated copies into held capacity, the pattern
  // the local search uses for best-so-far snapshots and restarts. The
  // gap to BM_OrganizationClone is pure allocation churn.
  const Shared& shared = Shared::Get();
  Organization target = shared.clustering.Clone();
  for (auto _ : state) {
    target.CopyFrom(shared.clustering);
    benchmark::DoNotOptimize(target.num_states());
  }
}
BENCHMARK(BM_OrganizationCopyFrom);

void BM_AddParentOpFreshClone(benchmark::State& state) {
  // Clone-per-iteration: measures ApplyAddParent PLUS a cold Clone()'s
  // allocation churn. Kept as the end-to-end shape some callers have, but
  // the op's own cost is BM_AddParentOpWarm — the former BM_AddParentOp
  // regressed ~1.2x with PR 7's arena growth purely through this clone,
  // not through the operation (docs/PERFORMANCE.md).
  const Shared& shared = Shared::Get();
  auto uniform = [](StateId) { return 1.0; };
  for (auto _ : state) {
    Organization clone = shared.clustering.Clone();
    OpResult result =
        ApplyAddParent(&clone, clone.LeafOf(0), uniform);
    benchmark::DoNotOptimize(result.applied);
  }
}
BENCHMARK(BM_AddParentOpFreshClone);

void BM_AddParentOpWarm(benchmark::State& state) {
  // Warm path: reset into held capacity with CopyFrom, then apply. This
  // is how the local search actually runs the operation (clone once,
  // CopyFrom per proposal), so it isolates the op from allocator noise.
  const Shared& shared = Shared::Get();
  Organization work = shared.clustering.Clone();
  auto uniform = [](StateId) { return 1.0; };
  for (auto _ : state) {
    work.CopyFrom(shared.clustering);
    OpResult result = ApplyAddParent(&work, work.LeafOf(0), uniform);
    benchmark::DoNotOptimize(result.applied);
  }
}
BENCHMARK(BM_AddParentOpWarm);

void BM_ProposalEvaluation(benchmark::State& state) {
  const Shared& shared = Shared::Get();
  TransitionConfig config;
  IncrementalEvaluator evaluator(config, shared.ctx,
                                 IdentityRepresentatives(*shared.ctx));
  Organization current = shared.clustering.Clone();
  current.RecomputeLevels();
  evaluator.Initialize(current);
  auto reach = [&evaluator](StateId s) {
    return evaluator.StateReachability(s);
  };
  for (auto _ : state) {
    Organization proposal = current.Clone();
    OpResult op = ApplyAddParent(&proposal, proposal.LeafOf(0), reach);
    ProposalEvaluation eval;
    evaluator.EvaluateProposal(proposal, op.topic_changed,
                               op.children_changed, op.removed, &eval);
    benchmark::DoNotOptimize(eval.effectiveness);
  }
}
BENCHMARK(BM_ProposalEvaluation);

// SoA hot-path microbenchmarks: the packed CSR adjacency + topic_norm
// array walk, inline vs spilled AttrSet membership, and the warm
// apply/eval/undo proposal cycle (the zero-steady-state-allocation path
// the optimizer inner loop runs on).

void BM_AdjacencyTraversal(benchmark::State& state) {
  const Shared& shared = Shared::Get();
  const Organization& org = shared.clustering;
  for (auto _ : state) {
    double sum = 0.0;
    for (StateId s = 0; s < org.num_states(); ++s) {
      if (!org.alive(s)) continue;
      for (StateId c : org.children(s)) sum += org.topic_norm(c);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_AdjacencyTraversal);

void BM_AttrSetMembership(benchmark::State& state) {
  // Arg 0: inline small set; arg 1: spilled set (population > kInlineCap).
  const size_t universe = 4096;
  const size_t population = state.range(0) == 0 ? 8 : 64;
  AttrSet set;
  set.Reset(universe);
  for (size_t i = 0; i < population; ++i) set.Set(i * 37 % universe);
  size_t probe = 0;
  for (auto _ : state) {
    bool hit =
        set.Test(probe * 37 % universe) | set.Test((probe + 1) % universe);
    benchmark::DoNotOptimize(hit);
    ++probe;
  }
  state.SetLabel(set.inline_rep() ? "inline" : "spilled");
}
BENCHMARK(BM_AttrSetMembership)->Arg(0)->Arg(1);

void BM_SteadyStateProposalCycle(benchmark::State& state) {
  const Shared& shared = Shared::Get();
  TransitionConfig config;
  IncrementalEvaluator evaluator(config, shared.ctx,
                                 IdentityRepresentatives(*shared.ctx));
  Organization current = shared.clustering.Clone();
  current.RecomputeLevels();
  evaluator.Initialize(current);
  auto reach = [&evaluator](StateId s) {
    return evaluator.StateReachability(s);
  };
  OpUndo undo;
  OpResult op;
  ProposalEvaluation eval;
  StateId target = current.LeafOf(0);
  for (auto _ : state) {
    ApplyAddParent(&current, target, reach, &undo, &op);
    evaluator.EvaluateProposal(current, op.topic_changed,
                               op.children_changed, op.removed, &eval);
    current.Undo(undo);
    benchmark::DoNotOptimize(eval.effectiveness);
  }
}
BENCHMARK(BM_SteadyStateProposalCycle);

// Exact Eq. 7 scoring sweeps only the ancestors of each attribute's leaf:
// in the flat organization the root and the leaf's tag states, in the
// clustering organization the path down its agglomerative hierarchy.
void FullEffectiveness(benchmark::State& state, const Organization& org) {
  OrgEvaluator eval;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.Effectiveness(org));
  }
}

void BM_FullEffectiveness(benchmark::State& state) {
  FullEffectiveness(state, Shared::Get().flat);
}
BENCHMARK(BM_FullEffectiveness);

void BM_FullEffectivenessClustering(benchmark::State& state) {
  FullEffectiveness(state, Shared::Get().clustering);
}
BENCHMARK(BM_FullEffectivenessClustering);

void BM_Bm25Query(benchmark::State& state) {
  const Shared& shared = Shared::Get();
  static const TableSearchEngine* engine = new TableSearchEngine(
      &shared.bench.lake, shared.bench.store);
  std::string query = shared.bench.lake.tag_name(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Search(query, 10, false));
  }
}
BENCHMARK(BM_Bm25Query);

}  // namespace
}  // namespace lakeorg

int main(int argc, char** argv) {
  return lakeorg::bench::GoogleBenchMain(argc, argv, "micro_core");
}
