// Shared helpers for the paper-artifact bench binaries: environment-driven
// scaling, series summarization, and aligned table printing.
//
// Every bench accepts LAKEORG_SCALE (a positive double, default noted per
// bench; anything else exits 2) that multiplies the workload size, so the
// same binaries run laptop-fast by default and approach the paper's scale
// with LAKEORG_SCALE=1 or higher.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "tools/flags.h"

namespace lakeorg::bench {

/// Unwraps a Result in a bench binary, or prints the Status on stderr and
/// exits nonzero. Bench code must never call .value() directly — a failed
/// build/optimize would abort with no diagnostic at all.
template <typename T>
T CheckedValue(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Same for a bare Status (setup steps with no value).
inline void CheckedOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

/// Process-lifetime peak RSS in bytes (ru_maxrss is KiB on Linux). A
/// high-water mark: it only ever grows, so per-step memory must be
/// reported as deltas of CurrentRssBytes(), not of this.
inline double PeakRssBytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

/// Current resident set size in bytes, from /proc/self/statm (second
/// field, in pages). Returns 0 where procfs is unavailable.
inline double CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long total = 0;
  long resident = 0;
  int n = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// Reads a positive double from the environment, with a default when it is
/// unset or empty. Any other value that is not a positive number exits 2
/// with "bad value for NAME", so a mistyped knob never runs a different
/// workload.
inline double EnvScale(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return RealFlag(name, value, std::numeric_limits<double>::denorm_min());
}

/// Scales a count, keeping at least `min_value`.
inline size_t Scaled(size_t base, double scale, size_t min_value = 1) {
  double scaled = static_cast<double>(base) * scale;
  size_t out = static_cast<size_t>(scaled);
  return out < min_value ? min_value : out;
}

/// Summarizes a sorted-ascending series at fixed quantile stops — the
/// text rendering of a Figure 2 curve.
inline std::string SeriesSummary(const std::vector<double>& sorted) {
  if (sorted.empty()) return "(empty)";
  const double stops[] = {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0};
  std::string out;
  char buf[48];
  for (double stop : stops) {
    size_t idx = static_cast<size_t>(stop * (sorted.size() - 1));
    std::snprintf(buf, sizeof(buf), "p%-3.0f=%.3f ", stop * 100,
                  sorted[idx]);
    out += buf;
  }
  return out;
}

/// Prints a horizontal rule + centered title.
inline void PrintHeader(const std::string& title) {
  std::printf("\n%s\n", std::string(78, '=').c_str());
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", std::string(78, '=').c_str());
}

inline void PrintRule() {
  std::printf("%s\n", std::string(78, '-').c_str());
}

}  // namespace lakeorg::bench
