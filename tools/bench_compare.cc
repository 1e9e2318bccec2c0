// bench_compare — regression gate over BENCH_*.json reports.
//
//   bench_compare BASELINE.json CURRENT.json [--threshold F]
//                 [--min-seconds F] [--ignore-env]
//       Compares matched series; exits 1 when any series regressed beyond
//       the threshold (default 0.10 = +10%) or the reports are not
//       comparable (different bench, different LAKEORG_* environment).
//
//   bench_compare --check REPORT.json
//       Validates the report against the schema only; exits 1 on a
//       malformed report.
//
// Exit codes: 0 ok, 1 regression/invalid report, 2 usage error.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "flags.h"
#include "bench/bench_report.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_compare BASELINE.json CURRENT.json [--threshold F]\n"
      "                     [--min-seconds F] [--ignore-env]\n"
      "       bench_compare --check REPORT.json\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using lakeorg::Result;
  using lakeorg::bench::BenchComparison;
  using lakeorg::bench::BenchReport;

  bool check_only = false;
  bool ignore_env = false;
  double threshold = 0.10;
  double min_seconds = 1e-6;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check_only = true;
    } else if (arg == "--ignore-env") {
      ignore_env = true;
    } else if (arg == "--threshold" || arg == "--min-seconds") {
      if (i + 1 >= argc) return Usage();
      (arg == "--threshold" ? threshold : min_seconds) =
          lakeorg::RealFlag(arg.c_str(), argv[++i], 0.0);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_compare: unknown flag '%s'\n",
                   arg.c_str());
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }

  if (check_only) {
    if (paths.size() != 1) return Usage();
    Result<BenchReport> report = lakeorg::bench::LoadBenchReportFile(paths[0]);
    if (!report.ok()) {
      std::fprintf(stderr, "bench_compare: %s: %s\n", paths[0].c_str(),
                   report.status().message().c_str());
      return 1;
    }
    std::printf("%s: valid BENCH report (bench=%s, %zu series)\n",
                paths[0].c_str(), report.value().bench.c_str(),
                report.value().results.size());
    return 0;
  }

  if (paths.size() != 2) return Usage();
  Result<BenchReport> baseline = lakeorg::bench::LoadBenchReportFile(paths[0]);
  if (!baseline.ok()) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", paths[0].c_str(),
                 baseline.status().message().c_str());
    return 1;
  }
  Result<BenchReport> current = lakeorg::bench::LoadBenchReportFile(paths[1]);
  if (!current.ok()) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", paths[1].c_str(),
                 current.status().message().c_str());
    return 1;
  }

  BenchComparison cmp = lakeorg::bench::CompareBenchReports(
      baseline.value(), current.value(), threshold, min_seconds, ignore_env);
  std::printf("%s", cmp.Format(threshold).c_str());
  return cmp.ok ? 0 : 1;
}
