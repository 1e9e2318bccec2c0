#include "bench/bench_report.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

// Build identity, baked in at configure time (bench/CMakeLists.txt). The
// SHA can lag uncommitted work by one commit; reports record it for
// provenance, not correctness.
#ifndef LAKEORG_GIT_SHA
#define LAKEORG_GIT_SHA "unknown"
#endif
#ifndef LAKEORG_BUILD_TYPE
#define LAKEORG_BUILD_TYPE "unknown"
#endif
#ifndef LAKEORG_BUILD_FLAGS
#define LAKEORG_BUILD_FLAGS ""
#endif

namespace lakeorg::bench {
namespace {

/// The environment knobs every bench honors; recorded so a comparison can
/// refuse to diff runs at different scales.
const char* const kEnvKeys[] = {"LAKEORG_SCALE", "LAKEORG_MAX_PROPOSALS"};

}  // namespace

BenchReport MakeBenchReport(const std::string& bench, bool smoke) {
  BenchReport report;
  report.bench = bench;
  report.git_sha = LAKEORG_GIT_SHA;
  report.build_type = LAKEORG_BUILD_TYPE;
  report.build_flags = LAKEORG_BUILD_FLAGS;
  report.smoke = smoke;
  for (const char* key : kEnvKeys) {
    const char* value = std::getenv(key);
    report.environment.emplace_back(key, value == nullptr ? "" : value);
  }
  return report;
}

std::string BenchReportToJson(const BenchReport& report) {
  Json doc = Json::MakeObject();
  doc["schema_version"] = Json(report.schema_version);
  doc["bench"] = Json(report.bench);
  doc["git_sha"] = Json(report.git_sha);
  doc["build_type"] = Json(report.build_type);
  doc["build_flags"] = Json(report.build_flags);
  doc["smoke"] = Json(report.smoke);
  Json env = Json::MakeObject();
  for (const auto& [key, value] : report.environment) {
    env[key] = Json(value);
  }
  doc["environment"] = std::move(env);
  Json results = Json::MakeArray();
  for (const BenchResultEntry& entry : report.results) {
    Json r = Json::MakeObject();
    r["name"] = Json(entry.name);
    r["real_seconds"] = Json(entry.real_seconds);
    r["iterations"] = Json(entry.iterations);
    results.push_back(std::move(r));
  }
  doc["results"] = std::move(results);
  if (!report.metrics.is_null()) doc["metrics"] = report.metrics;
  return doc.Dump(2);
}

Status ValidateBenchReportJson(const Json& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("bench report: root must be an object");
  }
  auto require = [&doc](const char* key,
                        bool (Json::*pred)() const) -> Status {
    const Json* v = doc.Find(key);
    if (v == nullptr) {
      return Status::InvalidArgument(std::string("bench report: missing \"") +
                                     key + "\"");
    }
    if (!((*v).*pred)()) {
      return Status::InvalidArgument(std::string("bench report: \"") + key +
                                     "\" has the wrong type");
    }
    return Status::OK();
  };
  LAKEORG_RETURN_NOT_OK(require("schema_version", &Json::is_number));
  LAKEORG_RETURN_NOT_OK(require("bench", &Json::is_string));
  LAKEORG_RETURN_NOT_OK(require("git_sha", &Json::is_string));
  LAKEORG_RETURN_NOT_OK(require("build_type", &Json::is_string));
  LAKEORG_RETURN_NOT_OK(require("build_flags", &Json::is_string));
  LAKEORG_RETURN_NOT_OK(require("smoke", &Json::is_bool));
  LAKEORG_RETURN_NOT_OK(require("environment", &Json::is_object));
  LAKEORG_RETURN_NOT_OK(require("results", &Json::is_array));
  if (doc.Find("schema_version")->number() != 1) {
    return Status::InvalidArgument("bench report: unsupported schema_version");
  }
  for (const Json& entry : doc.Find("results")->array()) {
    if (!entry.is_object()) {
      return Status::InvalidArgument("bench report: result must be an object");
    }
    const Json* name = entry.Find("name");
    const Json* seconds = entry.Find("real_seconds");
    const Json* iterations = entry.Find("iterations");
    if (name == nullptr || !name->is_string() || seconds == nullptr ||
        !seconds->is_number() || iterations == nullptr ||
        !iterations->is_number()) {
      return Status::InvalidArgument(
          "bench report: result entries need string \"name\" and numeric "
          "\"real_seconds\"/\"iterations\"");
    }
    if (seconds->number() < 0.0 || iterations->number() < 0.0) {
      return Status::InvalidArgument(
          "bench report: negative time or iteration count");
    }
  }
  const Json* metrics = doc.Find("metrics");
  if (metrics != nullptr && !metrics->is_object()) {
    return Status::InvalidArgument("bench report: \"metrics\" must be an "
                                   "object");
  }
  return Status::OK();
}

Result<BenchReport> ParseBenchReport(const std::string& text) {
  Result<Json> parsed = Json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  Json doc = std::move(parsed).value();
  LAKEORG_RETURN_NOT_OK(ValidateBenchReportJson(doc));

  BenchReport report;
  report.schema_version = static_cast<int>(doc.Find("schema_version")->number());
  report.bench = doc.Find("bench")->string();
  report.git_sha = doc.Find("git_sha")->string();
  report.build_type = doc.Find("build_type")->string();
  report.build_flags = doc.Find("build_flags")->string();
  report.smoke = doc.Find("smoke")->bool_value();
  for (const auto& [key, value] : doc.Find("environment")->object()) {
    report.environment.emplace_back(key,
                                    value.is_string() ? value.string() : "");
  }
  for (const Json& entry : doc.Find("results")->array()) {
    BenchResultEntry r;
    r.name = entry.Find("name")->string();
    r.real_seconds = entry.Find("real_seconds")->number();
    r.iterations = static_cast<uint64_t>(entry.Find("iterations")->number());
    report.results.push_back(std::move(r));
  }
  if (const Json* metrics = doc.Find("metrics")) report.metrics = *metrics;
  return report;
}

Status WriteBenchReportFile(const BenchReport& report,
                            const std::string& path) {
  std::string text = BenchReportToJson(report);
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return Status::OK();
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  out << text;
  out.close();
  if (!out) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

Result<BenchReport> LoadBenchReportFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseBenchReport(buffer.str());
}

BenchComparison CompareBenchReports(const BenchReport& baseline,
                                    const BenchReport& current,
                                    double threshold, double min_seconds,
                                    bool ignore_env) {
  BenchComparison cmp;

  if (!ignore_env) {
    std::map<std::string, std::string> base_env(baseline.environment.begin(),
                                                baseline.environment.end());
    std::map<std::string, std::string> cur_env(current.environment.begin(),
                                               current.environment.end());
    // A knob one report does not record counts as unset there, so a
    // baseline that recorded a since-retired knob as unset stays comparable.
    for (const auto& [key, value] : base_env) {
      auto it = cur_env.find(key);
      if ((it == cur_env.end() ? std::string() : it->second) != value) {
        cmp.env_mismatches.push_back(key);
      }
    }
    for (const auto& [key, value] : cur_env) {
      if (base_env.find(key) == base_env.end() && !value.empty()) {
        cmp.env_mismatches.push_back(key);
      }
    }
    if (baseline.smoke != current.smoke) cmp.env_mismatches.push_back("smoke");
    if (!cmp.env_mismatches.empty()) cmp.ok = false;
  }

  std::map<std::string, const BenchResultEntry*> base_by_name;
  for (const BenchResultEntry& entry : baseline.results) {
    base_by_name[entry.name] = &entry;
  }
  std::map<std::string, bool> matched;
  for (const BenchResultEntry& entry : current.results) {
    auto it = base_by_name.find(entry.name);
    if (it == base_by_name.end()) {
      cmp.only_in_current.push_back(entry.name);
      continue;
    }
    matched[entry.name] = true;
    BenchComparison::Line line;
    line.name = entry.name;
    line.baseline_seconds = it->second->real_seconds;
    line.current_seconds = entry.real_seconds;
    line.ratio = line.baseline_seconds > 0.0
                     ? line.current_seconds / line.baseline_seconds
                     : 0.0;
    // Sub-noise series (both sides under the floor) never regress.
    bool measurable = line.baseline_seconds >= min_seconds ||
                      line.current_seconds >= min_seconds;
    line.regressed = measurable && line.baseline_seconds > 0.0 &&
                     line.current_seconds >
                         line.baseline_seconds * (1.0 + threshold);
    if (line.regressed) cmp.ok = false;
    cmp.lines.push_back(line);
  }
  for (const BenchResultEntry& entry : baseline.results) {
    if (matched.find(entry.name) == matched.end()) {
      cmp.only_in_baseline.push_back(entry.name);
    }
  }
  return cmp;
}

std::string BenchComparison::Format(double threshold) const {
  std::ostringstream out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-40s %14s %14s %8s\n", "series",
                "baseline(s)", "current(s)", "ratio");
  out << buf;
  for (const Line& line : lines) {
    std::snprintf(buf, sizeof(buf), "%-40s %14.6f %14.6f %7.3fx%s\n",
                  line.name.c_str(), line.baseline_seconds,
                  line.current_seconds, line.ratio,
                  line.regressed ? "  <-- REGRESSION" : "");
    out << buf;
  }
  for (const std::string& name : only_in_baseline) {
    out << "missing from current: " << name << "\n";
  }
  for (const std::string& name : only_in_current) {
    out << "new in current (no baseline): " << name << "\n";
  }
  for (const std::string& key : env_mismatches) {
    out << "environment mismatch: " << key
        << " differs between reports (runs are not comparable; "
           "--ignore-env overrides)\n";
  }
  out << (ok ? "OK" : "FAIL") << " at threshold "
      << static_cast<int>(threshold * 100.0 + 0.5) << "%\n";
  return out.str();
}

}  // namespace lakeorg::bench
