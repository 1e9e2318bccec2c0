// difftest: randomized differential-testing driver.
//
// Runs one property over a range of seeds (--seed, --seed + 1, ...) and
// prints one summary line. Every failing trial prints a FAIL line that
// starts with the exact command replaying it, e.g.
//
//   FAIL difftest --sharded --seed 17 --threads 4 --trials 1: <message>
//
// --threads sets the concurrency of the modes that have any: the walkers
// of --serving and --adaptive and the shard pool of --sharded. The other
// modes are serial, and passing them --threads is a usage error.
//
// Without a mode flag it runs RunDiffTrial: the optimized evaluators
// (OrgEvaluator, IncrementalEvaluator) against the naive
// ReferenceEvaluator oracle, with
// Organization::Validate() plus the topic invariants checked after every
// operation and rollback; --dims > 1 also checks Eq. 8 aggregation.
//
//   difftest --seed 1 --trials 200 --dims 1
//   difftest --seed 7 --trials 50 --dims 3 --max-seconds 60
//
// At most one mode flag switches the property (the harnesses live in
// src/testing; docs/TESTING.md describes each):
//
//   --repair      random mutation batches spliced with RepairOrganization
//   --serving     cached vs uncached NavService vs the transition oracle;
//                 with --threads > 1 it counts row-cache lookups instead
//                 of the hit/miss split, which depends on scheduling
//   --durability  WAL crash recovery against a never-crashed reference;
//                 --applies, --mutations, --window and --snapshot-every
//                 shape its history
//   --sharded     sharded builds vs unsharded, threaded and multi-dim
//   --adaptive    the closed serve -> observe -> repair loop vs a serial
//                 oracle replay
//
//   difftest --durability --seed 1 --trials 25 --window 8
//   difftest --adaptive --seed 1 --trials 30 --threads 4
//
// Exit status 0 iff every trial passed; 2 on a usage error.
#include <algorithm>
#include <cinttypes>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "common/timer.h"
#include "flags.h"
#include "replay.h"
#include "testing/adaptive_fuzz.h"
#include "testing/durability_fuzz.h"
#include "testing/org_fuzz.h"
#include "testing/serving_fuzz.h"

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: difftest [--repair | --serving | --durability |\n"
               "                 --sharded | --adaptive]\n"
               "                [--seed N] [--trials N] [--threads N]\n"
               "                [--max-seconds X] [--verbose] [--dims N]\n"
               "                [--applies N] [--mutations N] [--window N]\n"
               "                [--snapshot-every N]\n");
  std::exit(2);
}

__attribute__((format(printf, 1, 2))) std::string Format(const char* fmt,
                                                         ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// One trial as the loop sees it.
struct Verdict {
  lakeorg::TrialResult result;
  std::string detail;  ///< The --verbose line after "seed N: ok  ".
};

/// One property difftest can fuzz.
struct Mode {
  const char* flag;  ///< Selects the mode; "" for the default walk.
  /// Whether the trial reads --threads.
  bool threaded;
  /// Runs the trial at a seed, folding its tallies into the totals.
  std::function<Verdict(uint64_t seed)> run;
  /// The flags of the mode's own fields, for the replay command.
  std::function<std::string()> mode_flags;
  /// The summary line after the trial count (and "threads=N, ").
  std::function<std::string()> summary;
};

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  size_t trials = 20;
  size_t threads = 4;
  bool threads_given = false;
  size_t dims = 1;
  double max_seconds = 0.0;  // 0 = no time limit
  bool verbose = false;
  lakeorg::DurabilityTrialOptions durability;

  // Totals the modes fold their trials into.
  size_t steps = 0, clicks = 0, repairs = 0, hits = 0, misses = 0;
  size_t shards = 0, points = 0, exact = 0, refused = 0, survived = 0;
  double worst = 0.0, worst_gap = 0.0, max_drift = 0.0;

  const Mode modes[] = {
      {"", false,
       [&](uint64_t s) {
         lakeorg::DiffTrialResult r = lakeorg::RunDiffTrial({{s}, dims});
         double trial_worst =
             std::max(std::max(r.max_reach_diff, r.max_discovery_diff),
                      std::max(r.max_effectiveness_diff, r.max_success_diff));
         worst = std::max(worst, trial_worst);
         return Verdict{r,
                        Format("states=%zu attrs=%zu ops=%zu (commit %zu, "
                               "rollback %zu)  max_diff=%.3g",
                               r.num_states, r.num_attrs, r.ops_applied,
                               r.ops_committed, r.ops_rolled_back,
                               trial_worst)};
       },
       [&] { return lakeorg::DimsFlags(dims); },
       [&] {
         return Format("dims=%zu, worst |optimized - reference| = %.3g",
                       dims, worst);
       }},
      {"--repair", false,
       [&](uint64_t s) {
         lakeorg::RepairTrialResult r = lakeorg::RunRepairTrial({s});
         worst = std::max(worst, r.effectiveness_diff);
         return Verdict{r,
                        Format("+%zu/-%zu leaves, %zu dropped, %zu touched, "
                               "reopt_gain=%.3g, diff=%.3g",
                               r.leaves_added, r.leaves_removed,
                               r.states_dropped, r.states_touched,
                               r.reopt_gain, r.effectiveness_diff)};
       },
       nullptr,
       [&] {
         return Format("worst |incremental - reference| = %.3g", worst);
       }},
      {"--serving", true,
       [&](uint64_t s) {
         lakeorg::ServingTrialResult r =
             lakeorg::RunServingTrial({s, threads});
         steps += r.steps;
         hits += r.cache_hits;
         misses += r.cache_misses;
         // Concurrent walkers race for the shared row cache, so only the
         // number of lookups, not their hit/miss split, is reproducible.
         if (threads > 1) {
           return Verdict{r, Format("steps=%zu lookups=%zu", r.steps,
                                    r.cache_hits + r.cache_misses)};
         }
         return Verdict{r, Format("steps=%zu hits=%zu misses=%zu", r.steps,
                                  r.cache_hits, r.cache_misses)};
       },
       [&] { return lakeorg::ThreadsFlag(threads); },
       [&] {
         if (threads > 1) {
           return Format("%zu steps, %zu row lookups", steps, hits + misses);
         }
         double hit_rate = hits + misses > 0
                               ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0.0;
         return Format("%zu steps, cache hit rate %.2f", steps, hit_rate);
       }},
      {"--durability", false,
       [&](uint64_t s) {
         lakeorg::DurabilityTrialOptions o = durability;
         o.seed = s;
         lakeorg::DurabilityTrialResult r = lakeorg::RunDurabilityTrial(o);
         points += r.crash_points;
         exact += r.recovered_exact;
         refused += r.refused;
         survived += r.bitflips_survived;
         return Verdict{r,
                        Format("applies=%zu crashes=%zu exact=%zu "
                               "refused=%zu wal=%zuB",
                               r.applies, r.crash_points, r.recovered_exact,
                               r.refused, static_cast<size_t>(r.wal_bytes))};
       },
       [&] {
         return lakeorg::DurabilityFlags(
             durability.group_commit_window, durability.snapshot_every,
             durability.num_applies, durability.mutations_per_apply);
       },
       [&] {
         return Format("window=%d, %zu crash points (%zu exact, %zu refused, "
                       "%zu flips survived)",
                       durability.group_commit_window, points, exact, refused,
                       survived);
       }},
      {"--sharded", true,
       [&](uint64_t s) {
         lakeorg::ShardedTrialResult r =
             lakeorg::RunShardedTrial({s, threads});
         shards += r.shards_built;
         worst = std::max(worst, r.effectiveness_diff);
         worst_gap = std::max(worst_gap, r.sharded_vs_unsharded_gap);
         return Verdict{r,
                        Format("shards=%zu states=%zu diff=%.3g gap=%.3g",
                               r.shards_built, r.states_stitched,
                               r.effectiveness_diff,
                               r.sharded_vs_unsharded_gap)};
       },
       [&] { return lakeorg::ThreadsFlag(threads); },
       [&] {
         return Format("%zu shards built, worst |stitched - reference| = "
                       "%.3g, worst sharded-vs-unsharded gap = %.3g",
                       shards, worst, worst_gap);
       }},
      {"--adaptive", true,
       [&](uint64_t s) {
         lakeorg::AdaptiveTrialResult r =
             lakeorg::RunAdaptiveTrial({s, threads});
         steps += r.steps;
         clicks += r.clicks;
         repairs += r.repairs;
         max_drift = std::max(max_drift, r.max_drift);
         return Verdict{r,
                        Format("steps=%zu clicks=%zu repairs=%zu "
                               "max_drift=%.3f",
                               r.steps, r.clicks, r.repairs, r.max_drift)};
       },
       [&] { return lakeorg::ThreadsFlag(threads); },
       [&] {
         return Format("%zu steps, %zu clicks, %zu repairs, max drift %.3f",
                       steps, clicks, repairs, max_drift);
       }},
  };

  const Mode* mode = nullptr;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    const char* flag = argv[i];
    const Mode* selected = nullptr;
    for (const Mode& m : modes) {
      if (m.flag[0] != '\0' && std::strcmp(argv[i], m.flag) == 0) {
        selected = &m;
      }
    }
    if (selected != nullptr) {
      if (mode != nullptr) Usage();  // Mode flags are mutually exclusive.
      mode = selected;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = lakeorg::CountFlag(flag, next());
    } else if (std::strcmp(argv[i], "--trials") == 0) {
      trials = lakeorg::CountFlag(flag, next(), SIZE_MAX);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = lakeorg::CountFlag(flag, next(), SIZE_MAX);
      threads_given = true;
    } else if (std::strcmp(argv[i], "--dims") == 0) {
      dims = lakeorg::CountFlag(flag, next(), SIZE_MAX);
    } else if (std::strcmp(argv[i], "--max-seconds") == 0) {
      max_seconds = lakeorg::RealFlag(flag, next(), 0.0);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--applies") == 0) {
      durability.num_applies = lakeorg::CountFlag(flag, next(), SIZE_MAX);
    } else if (std::strcmp(argv[i], "--mutations") == 0) {
      durability.mutations_per_apply =
          lakeorg::CountFlag(flag, next(), SIZE_MAX);
    } else if (std::strcmp(argv[i], "--window") == 0) {
      durability.group_commit_window =
          static_cast<int>(lakeorg::CountFlag(flag, next(), INT_MAX));
    } else if (std::strcmp(argv[i], "--snapshot-every") == 0) {
      durability.snapshot_every = lakeorg::CountFlag(flag, next());
    } else {
      Usage();
    }
  }
  if (mode == nullptr) mode = &modes[0];
  if (threads_given && !mode->threaded) {
    std::fprintf(stderr, "difftest: --threads selects nothing in the %s mode\n",
                 mode->flag[0] != '\0' ? mode->flag : "default");
    return 2;
  }

  lakeorg::WallTimer timer;
  size_t ran = 0;
  size_t failures = 0;
  for (size_t t = 0; t < trials; ++t) {
    if (max_seconds > 0.0 && timer.ElapsedSeconds() >= max_seconds) break;
    uint64_t trial_seed = seed + t;
    Verdict v = mode->run(trial_seed);
    ++ran;
    if (!v.result.ok) {
      ++failures;
      std::string replay = lakeorg::ReplayCommand(
          mode->flag, trial_seed, mode->mode_flags ? mode->mode_flags() : "");
      std::fprintf(stderr, "FAIL %s: %s\n", replay.c_str(),
                   v.result.error.c_str());
    } else if (verbose) {
      std::printf("seed %" PRIu64 ": ok  %s\n", trial_seed, v.detail.c_str());
    }
  }
  std::string threads_field =
      mode->threaded ? Format("threads=%zu, ", threads) : "";
  std::printf("difftest%s%s: %zu/%zu trials ok (%zu failed), %s%s, %.1fs\n",
              mode->flag[0] != '\0' ? " " : "", mode->flag, ran - failures,
              ran, failures, threads_field.c_str(), mode->summary().c_str(),
              timer.ElapsedSeconds());
  return failures == 0 ? 0 : 1;
}
