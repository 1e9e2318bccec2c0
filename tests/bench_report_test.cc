#include "bench/bench_report.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace lakeorg::bench {
namespace {

BenchReport SampleReport() {
  BenchReport report = MakeBenchReport("sample_bench", /*smoke=*/false);
  report.results.push_back({"series/a", 0.010, 100});
  report.results.push_back({"series/b", 0.002, 500});
  return report;
}

TEST(BenchReport, JsonRoundTrip) {
  BenchReport report = SampleReport();
  std::string text = BenchReportToJson(report);
  Result<BenchReport> parsed = ParseBenchReport(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const BenchReport& back = parsed.value();
  EXPECT_EQ(back.bench, "sample_bench");
  EXPECT_EQ(back.schema_version, 1);
  EXPECT_FALSE(back.smoke);
  ASSERT_EQ(back.results.size(), 2u);
  EXPECT_EQ(back.results[0].name, "series/a");
  EXPECT_DOUBLE_EQ(back.results[0].real_seconds, 0.010);
  EXPECT_EQ(back.results[0].iterations, 100u);
  // Serialization is canonical: dumping the parsed report reproduces the
  // original text byte for byte.
  EXPECT_EQ(BenchReportToJson(back), text);
}

TEST(BenchReport, ReportCarriesBuildIdentityAndEnvironment) {
  BenchReport report = MakeBenchReport("idbench", /*smoke=*/true);
  EXPECT_TRUE(report.smoke);
  EXPECT_FALSE(report.git_sha.empty());
  bool saw_scale = false;
  for (const auto& [key, value] : report.environment) {
    if (key == "LAKEORG_SCALE") saw_scale = true;
  }
  EXPECT_TRUE(saw_scale);
}

TEST(BenchReport, ValidationRejectsMalformedReports) {
  const std::string valid = BenchReportToJson(SampleReport());
  EXPECT_TRUE(ParseBenchReport(valid).ok());
  EXPECT_FALSE(ParseBenchReport("{}").ok());
  EXPECT_FALSE(ParseBenchReport("not json").ok());
  // Wrong schema version.
  Json doc = Json::Parse(valid).value();
  doc["schema_version"] = Json(2);
  EXPECT_FALSE(ParseBenchReport(doc.Dump()).ok());
  // results entry missing real_seconds.
  Json doc2 = Json::Parse(valid).value();
  Json bad_entry = Json::MakeObject();
  bad_entry["name"] = Json("x");
  Json results = Json::MakeArray();
  results.push_back(bad_entry);
  doc2["results"] = results;
  EXPECT_FALSE(ParseBenchReport(doc2.Dump()).ok());
}

// The acceptance criterion: an injected 20% slowdown must trip the gate
// at --threshold 0.10 and pass a looser one.
TEST(BenchReport, TwentyPercentSlowdownFailsTenPercentThreshold) {
  BenchReport baseline = SampleReport();
  BenchReport current = SampleReport();
  for (BenchResultEntry& entry : current.results) {
    entry.real_seconds *= 1.20;
  }
  BenchComparison at_10 =
      CompareBenchReports(baseline, current, /*threshold=*/0.10);
  EXPECT_FALSE(at_10.ok);
  size_t regressed = 0;
  for (const BenchComparison::Line& line : at_10.lines) {
    if (line.regressed) ++regressed;
  }
  EXPECT_EQ(regressed, current.results.size());

  BenchComparison at_50 =
      CompareBenchReports(baseline, current, /*threshold=*/0.50);
  EXPECT_TRUE(at_50.ok);
}

TEST(BenchReport, SelfComparisonPasses) {
  BenchReport report = SampleReport();
  BenchComparison cmp = CompareBenchReports(report, report, 0.10);
  EXPECT_TRUE(cmp.ok);
  ASSERT_EQ(cmp.lines.size(), 2u);
  EXPECT_DOUBLE_EQ(cmp.lines[0].ratio, 1.0);
}

TEST(BenchReport, NoiseFloorExemptsTinySeries) {
  BenchReport baseline = SampleReport();
  BenchReport current = SampleReport();
  baseline.results[0].real_seconds = 2e-7;
  current.results[0].real_seconds = 9e-7;  // 4.5x, but below min_seconds.
  BenchComparison cmp = CompareBenchReports(baseline, current, 0.10,
                                            /*min_seconds=*/1e-6);
  EXPECT_TRUE(cmp.ok);
}

TEST(BenchReport, EnvironmentMismatchFailsUnlessIgnored) {
  BenchReport baseline = SampleReport();
  BenchReport current = SampleReport();
  for (auto& [key, value] : current.environment) {
    if (key == "LAKEORG_SCALE") value = "2.0";
  }
  BenchComparison strict = CompareBenchReports(baseline, current, 0.10);
  EXPECT_FALSE(strict.ok);
  ASSERT_EQ(strict.env_mismatches.size(), 1u);
  EXPECT_EQ(strict.env_mismatches[0], "LAKEORG_SCALE");
  BenchComparison loose = CompareBenchReports(baseline, current, 0.10,
                                              1e-6, /*ignore_env=*/true);
  EXPECT_TRUE(loose.ok);
}

TEST(BenchReport, UnrecordedKnobCountsAsUnset) {
  BenchReport baseline = SampleReport();
  BenchReport current = SampleReport();
  baseline.environment.emplace_back("LAKEORG_RETIRED", "");
  EXPECT_TRUE(CompareBenchReports(baseline, current, 0.10).ok);
  EXPECT_TRUE(CompareBenchReports(current, baseline, 0.10).ok);
  baseline.environment.back().second = "4";
  BenchComparison set = CompareBenchReports(baseline, current, 0.10);
  EXPECT_FALSE(set.ok);
  ASSERT_EQ(set.env_mismatches.size(), 1u);
  EXPECT_EQ(set.env_mismatches[0], "LAKEORG_RETIRED");
  EXPECT_FALSE(CompareBenchReports(current, baseline, 0.10).ok);
}

TEST(BenchReport, UnmatchedSeriesAreInformational) {
  BenchReport baseline = SampleReport();
  BenchReport current = SampleReport();
  current.results.push_back({"series/new", 0.5, 1});
  baseline.results.push_back({"series/gone", 0.5, 1});
  BenchComparison cmp = CompareBenchReports(baseline, current, 0.10);
  EXPECT_TRUE(cmp.ok);
  ASSERT_EQ(cmp.only_in_baseline.size(), 1u);
  EXPECT_EQ(cmp.only_in_baseline[0], "series/gone");
  ASSERT_EQ(cmp.only_in_current.size(), 1u);
  EXPECT_EQ(cmp.only_in_current[0], "series/new");
}

TEST(BenchReport, MetricsSnapshotEmbeds) {
  obs::SetMetricsEnabled(true);
  obs::ResetAllMetrics();
  obs::GetCounter("report.test_total").Add(4);
  BenchReport report = SampleReport();
  report.metrics = obs::SnapshotMetrics().ToJson();
  obs::SetMetricsEnabled(false);
  Result<BenchReport> parsed = ParseBenchReport(BenchReportToJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Json* counters = parsed.value().metrics.Find("counters");
  ASSERT_NE(counters, nullptr);
  const Json* value = counters->Find("report.test_total");
  ASSERT_NE(value, nullptr);
  EXPECT_DOUBLE_EQ(value->number(), 4.0);
}

}  // namespace
}  // namespace lakeorg::bench
