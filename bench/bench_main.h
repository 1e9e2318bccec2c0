// Shared entry points for the bench binaries. Every paper-artifact bench's
// Main(const BenchOptions&) runs under BenchMain; the google-benchmark
// micro benches replace BENCHMARK_MAIN() with GoogleBenchMain. Both parse
// the same harness flags and write the same report:
//
//   --smoke            tiny fixture, 1 rep (google-benchmark: minimal
//                      timing) — the CTest "bench" tier uses this so bench
//                      code is always compiled AND executed
//   --reps N           repeat the workload N times (wall times averaged;
//                      BenchMain only)
//   --json[=PATH]      emit a canonical BENCH_<name>.json report (wall
//                      times, metric snapshot, git SHA, build flags);
//                      default path is BENCH_<name>.json in the cwd
//   --no-metrics       leave telemetry disabled (overhead measurements)
//   --help             usage (BenchMain only)
//
// GoogleBenchMain passes every other flag (the --benchmark_* set, --help)
// through to google-benchmark untouched; BenchMain rejects them.
//
// Metrics are enabled for the duration of the run, so the report's
// "metrics" object carries the optimizer/evaluator telemetry of
// docs/OBSERVABILITY.md. Compare two reports with tools/bench_compare.
#pragma once

#include <string>

namespace lakeorg::bench {

struct BenchOptions {
  /// Tiny fixture + minimal iterations; must finish in seconds.
  bool smoke = false;
  /// Workload repetitions (timing averages over them).
  size_t reps = 1;
  /// Emit BENCH_<name>.json.
  bool emit_json = false;
  /// Report path ("" = BENCH_<name>.json in the cwd, "-" = stdout).
  std::string json_path;
  /// Telemetry on for the run (--no-metrics clears it).
  bool metrics = true;

  /// The bench's workload scale: LAKEORG_SCALE (or `fallback`) normally,
  /// `smoke_scale` under --smoke (environment ignored so the smoke tier
  /// is immune to stray env). A LAKEORG_SCALE that is not a positive
  /// number exits 2 with "bad value for LAKEORG_SCALE".
  double Scale(double fallback, double smoke_scale = 0.02) const;
  /// Same pattern for the LAKEORG_MAX_PROPOSALS cap (a positive count).
  size_t MaxProposals(size_t fallback, size_t smoke_value = 25) const;
};

using BenchFn = int (*)(const BenchOptions&);

/// Parses flags, runs `run` opts.reps times, and (with --json) writes the
/// BENCH_<name>.json report. Returns the bench's exit code.
int BenchMain(int argc, char** argv, const std::string& name, BenchFn run);

/// Parses the harness flags, runs the registered google-benchmark series,
/// and (with --json) writes every series into BENCH_<name>.json.
int GoogleBenchMain(int argc, char** argv, const std::string& name);

}  // namespace lakeorg::bench
