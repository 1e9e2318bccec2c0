// Machine-readable benchmark artifacts: the canonical BENCH_<name>.json
// schema (schema_version 1), its writer/loader/validator, and the
// regression comparison used by tools/bench_compare.
//
// Schema (all fields required unless noted):
//   {
//     "schema_version": 1,
//     "bench": "<binary name>",
//     "git_sha": "<configure-time short SHA or 'unknown'>",
//     "build_type": "<CMAKE_BUILD_TYPE>",
//     "build_flags": "<CMAKE_CXX_FLAGS + sanitizer>",
//     "smoke": false,
//     "environment": {"LAKEORG_SCALE": "...", ...},   // LAKEORG_* vars
//     "results": [
//       {"name": "<series name>", "real_seconds": 1.23, "iterations": 4}
//     ],
//     "metrics": {...}          // optional MetricsSnapshot::ToJson()
//   }
//
// real_seconds is wall time per iteration (for google-benchmark series)
// or per repetition (for the artifact benches), so two reports compare
// directly regardless of iteration counts.
#pragma once

#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace lakeorg::bench {

/// One timed series of a benchmark run.
struct BenchResultEntry {
  std::string name;
  /// Wall seconds per iteration.
  double real_seconds = 0.0;
  /// Iterations the timing averages over.
  uint64_t iterations = 1;
};

/// One BENCH_<name>.json document.
struct BenchReport {
  int schema_version = 1;
  std::string bench;
  std::string git_sha = "unknown";
  std::string build_type;
  std::string build_flags;
  bool smoke = false;
  /// The LAKEORG_* environment variables in effect ("" when unset).
  std::vector<std::pair<std::string, std::string>> environment;
  std::vector<BenchResultEntry> results;
  /// Metric snapshot (a JSON object) or null when not collected.
  Json metrics;
};

/// A report skeleton stamped with the build's identity (git SHA, build
/// type/flags baked in at configure time) and the LAKEORG_* environment.
BenchReport MakeBenchReport(const std::string& bench, bool smoke);

/// Serializes the report to canonical (pretty, deterministic) JSON text.
std::string BenchReportToJson(const BenchReport& report);

/// Validates that `doc` conforms to the schema above.
Status ValidateBenchReportJson(const Json& doc);

/// Parses report JSON text (validating the schema).
Result<BenchReport> ParseBenchReport(const std::string& text);

/// Writes the report to `path` ("-" for stdout).
Status WriteBenchReportFile(const BenchReport& report,
                            const std::string& path);

/// Reads and validates a report file.
Result<BenchReport> LoadBenchReportFile(const std::string& path);

/// Outcome of comparing a current report against a baseline.
struct BenchComparison {
  struct Line {
    std::string name;
    double baseline_seconds = 0.0;
    double current_seconds = 0.0;
    /// current / baseline (0 when baseline is 0).
    double ratio = 0.0;
    bool regressed = false;
  };
  std::vector<Line> lines;
  /// Series present in only one report (informational).
  std::vector<std::string> only_in_baseline;
  std::vector<std::string> only_in_current;
  /// Environment keys whose values differ — comparing runs at different
  /// scales is meaningless, so this also fails the comparison.
  std::vector<std::string> env_mismatches;
  bool ok = true;

  /// Human-readable summary table.
  std::string Format(double threshold) const;
};

/// Compares matched series: a regression is current > baseline *
/// (1 + threshold). Series shorter than `min_seconds` on both sides are
/// exempt (timer noise). Environment or bench-name mismatches fail unless
/// `ignore_env` is set.
BenchComparison CompareBenchReports(const BenchReport& baseline,
                                    const BenchReport& current,
                                    double threshold,
                                    double min_seconds = 1e-6,
                                    bool ignore_env = false);

}  // namespace lakeorg::bench
