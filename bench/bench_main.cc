#include "bench_main.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "bench_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "tools/flags.h"

namespace lakeorg::bench {

double BenchOptions::Scale(double fallback, double smoke_scale) const {
  if (smoke) return smoke_scale;
  return EnvScale("LAKEORG_SCALE", fallback);
}

size_t BenchOptions::MaxProposals(size_t fallback, size_t smoke_value) const {
  if (smoke) return smoke_value;
  const char* value = std::getenv("LAKEORG_MAX_PROPOSALS");
  if (value == nullptr || *value == '\0') return fallback;
  uint64_t parsed = CountFlag("LAKEORG_MAX_PROPOSALS", value, SIZE_MAX);
  if (parsed == 0) BadFlagValue("LAKEORG_MAX_PROPOSALS", value);
  return static_cast<size_t>(parsed);
}

namespace {

void PrintUsage(const std::string& name) {
  std::printf(
      "usage: %s [--smoke] [--reps N] [--json[=PATH]] [--no-metrics] "
      "[--help]\n"
      "  --smoke        tiny fixture, finishes in seconds (CTest tier)\n"
      "  --reps N       repeat the workload N times; timings average\n"
      "  --json[=PATH]  write BENCH_%s.json (PATH overrides, '-' = stdout)\n"
      "  --no-metrics   leave telemetry disabled (overhead measurements)\n",
      name.c_str(), name.c_str());
}

/// Parses the harness flags into *opts, then turns telemetry on (unless
/// --no-metrics) from a clean slate so reps accumulate from zero. With
/// `passthrough` set, every flag the harness does not own is appended to
/// it for google-benchmark; without, --reps and --help are harness flags
/// and anything else is a usage error. Returns -1 to go on and run, else
/// the exit code.
int StartHarness(int argc, char** argv, const std::string& name,
                 BenchOptions* opts, std::vector<char*>* passthrough) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts->smoke = true;
    } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      opts->emit_json = true;
      if (arg.size() > 7) opts->json_path = arg.substr(7);
    } else if (arg == "--no-metrics") {
      opts->metrics = false;
    } else if (passthrough != nullptr) {
      passthrough->push_back(argv[i]);
    } else if (arg == "--reps") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --reps needs a value\n", name.c_str());
        return 2;
      }
      opts->reps = CountFlag("--reps", argv[++i], SIZE_MAX);
      if (opts->reps == 0) BadFlagValue("--reps", argv[i]);
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(name);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", name.c_str(),
                   arg.c_str());
      PrintUsage(name);
      return 2;
    }
  }
  obs::SetMetricsEnabled(opts->metrics);
  obs::ResetAllMetrics();
  return -1;
}

/// With --json, writes `results` and the metric snapshot to
/// BENCH_<name>.json (or the --json path). Returns the exit code.
int WriteReport(const std::string& name, const BenchOptions& opts,
                std::vector<BenchResultEntry> results) {
  if (!opts.emit_json) return 0;
  BenchReport report = MakeBenchReport(name, opts.smoke);
  report.results = std::move(results);
  report.metrics = obs::SnapshotMetrics().ToJson();
  const std::string path =
      opts.json_path.empty() ? "BENCH_" + name + ".json" : opts.json_path;
  Status status = WriteBenchReportFile(report, path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), status.message().c_str());
    return 1;
  }
  if (path != "-") std::printf("[%s] wrote %s\n", name.c_str(), path.c_str());
  return 0;
}

/// ConsoleReporter that also records each series for the JSON report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      // Aggregates (mean/median/stddev) restate the iteration runs.
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      BenchResultEntry entry;
      entry.name = run.benchmark_name();
      // real_accumulated_time is total seconds across `iterations`
      // (time_unit only affects display).
      if (run.iterations > 0) {
        entry.iterations = static_cast<uint64_t>(run.iterations);
        entry.real_seconds =
            run.real_accumulated_time / static_cast<double>(run.iterations);
      } else {
        entry.iterations = 1;
        entry.real_seconds = run.real_accumulated_time;
      }
      captured.push_back(entry);
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<BenchResultEntry> captured;
};

}  // namespace

int BenchMain(int argc, char** argv, const std::string& name, BenchFn run) {
  BenchOptions opts;
  if (int rc = StartHarness(argc, argv, name, &opts, nullptr); rc >= 0) {
    return rc;
  }
  double total_seconds = 0.0;
  for (size_t rep = 0; rep < opts.reps; ++rep) {
    WallTimer timer;
    int rc = run(opts);
    total_seconds += timer.ElapsedSeconds();
    if (rc != 0) {
      std::fprintf(stderr, "%s: workload failed (exit %d)\n", name.c_str(),
                   rc);
      return rc;
    }
  }

  BenchResultEntry entry;
  entry.name = name + "/workload";
  entry.iterations = opts.reps;
  entry.real_seconds = total_seconds / static_cast<double>(opts.reps);
  std::printf("\n[%s] %zu rep(s), %.3f s/rep\n", name.c_str(), opts.reps,
              entry.real_seconds);
  return WriteReport(name, opts, {entry});
}

int GoogleBenchMain(int argc, char** argv, const std::string& name) {
  BenchOptions opts;
  std::vector<char*> bench_argv = {argv[0]};
  if (int rc = StartHarness(argc, argv, name, &opts, &bench_argv); rc >= 0) {
    return rc;
  }
  // 1.7.x takes min_time as double seconds (the "<N>x" form is newer).
  std::string min_time = "--benchmark_min_time=0.001";
  if (opts.smoke) bench_argv.push_back(min_time.data());

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 2;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return WriteReport(name, opts, std::move(reporter.captured));
}

}  // namespace lakeorg::bench
