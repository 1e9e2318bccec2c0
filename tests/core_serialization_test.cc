#include "core/serialization.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "benchgen/tagcloud.h"
#include "core/evaluator.h"
#include "core/local_search.h"
#include "core/org_builders.h"
#include "test_util.h"

namespace lakeorg {
namespace {

using testing::MakeTinyLake;
using testing::TinyLake;

std::shared_ptr<const OrgContext> TinyContext(TinyLake* tiny) {
  TagIndex index = TagIndex::Build(tiny->lake);
  return OrgContext::BuildFull(tiny->lake, index);
}

/// Structural equality over alive states, id-for-id.
void ExpectSameStructure(const Organization& a, const Organization& b) {
  ASSERT_EQ(a.NumAliveStates(), b.NumAliveStates());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  // Compare via leaf ids (stable across both) and reach probabilities.
  OrgEvaluator eval;
  const OrgContext& ctx = a.ctx();
  for (uint32_t attr = 0; attr < ctx.num_attrs(); ++attr) {
    // Topic sums are reassembled in a different float-summation order
    // on load, so probabilities agree only to float precision.
    EXPECT_NEAR(eval.AttributeDiscovery(a, attr),
                eval.AttributeDiscovery(b, attr), 1e-6)
        << "attr " << attr;
  }
}

TEST(SerializationTest, RoundTripFlatOrg) {
  TinyLake tiny = MakeTinyLake();
  auto ctx = TinyContext(&tiny);
  Organization org = BuildFlatOrganization(ctx);
  std::stringstream buffer;
  ASSERT_TRUE(SaveOrganization(org, &buffer).ok());
  Result<Organization> loaded = LoadOrganization(ctx, &buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().Validate().ok());
  ExpectSameStructure(org, loaded.value());
}

TEST(SerializationTest, RoundTripClusteringOrg) {
  TinyLake tiny = MakeTinyLake();
  auto ctx = TinyContext(&tiny);
  Organization org = BuildClusteringOrganization(ctx);
  std::stringstream buffer;
  ASSERT_TRUE(SaveOrganization(org, &buffer).ok());
  Result<Organization> loaded = LoadOrganization(ctx, &buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameStructure(org, loaded.value());
}

TEST(SerializationTest, RoundTripOptimizedOrgWithPropagatedAttrs) {
  // Optimized organizations carry attrs propagated beyond tag extents
  // (ADD_PARENT on leaves); the "extras" channel must preserve them.
  TagCloudOptions opts;
  opts.num_tags = 12;
  opts.target_attributes = 50;
  opts.min_values = 5;
  opts.max_values = 12;
  opts.seed = 3;
  TagCloudBenchmark bench = GenerateTagCloud(opts);
  TagIndex index = TagIndex::Build(bench.lake);
  auto ctx = OrgContext::BuildFull(bench.lake, index);
  LocalSearchOptions search;
  search.patience = 20;
  search.max_proposals = 120;
  search.seed = 17;
  LocalSearchResult optimized =
      OptimizeOrganization(BuildClusteringOrganization(ctx), search).value();

  std::stringstream buffer;
  ASSERT_TRUE(SaveOrganization(optimized.org, &buffer).ok());
  Result<Organization> loaded = LoadOrganization(ctx, &buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().Validate().ok())
      << loaded.value().Validate().ToString();
  ExpectSameStructure(optimized.org, loaded.value());

  // Effectiveness identical too.
  OrgEvaluator eval(search.transition);
  EXPECT_NEAR(eval.Effectiveness(optimized.org),
              eval.Effectiveness(loaded.value()), 1e-6);
}

TEST(SerializationTest, RoundTripPreservesTopicInvariants) {
  // Every loaded state must come back with a fresh cached norm
  // (topic_norm == Norm(topic) bit-for-bit) and pass full validation —
  // the load path rebuilds topics through the same RefreshTopic the
  // mutation paths use, and Validate() now checks the cached norm.
  TagCloudOptions opts;
  opts.num_tags = 12;
  opts.target_attributes = 50;
  opts.min_values = 5;
  opts.max_values = 12;
  opts.seed = 29;
  TagCloudBenchmark bench = GenerateTagCloud(opts);
  TagIndex index = TagIndex::Build(bench.lake);
  auto ctx = OrgContext::BuildFull(bench.lake, index);
  LocalSearchOptions search;
  search.patience = 20;
  search.max_proposals = 120;
  search.seed = 5;
  LocalSearchResult optimized =
      OptimizeOrganization(BuildClusteringOrganization(ctx), search).value();

  std::stringstream buffer;
  ASSERT_TRUE(SaveOrganization(optimized.org, &buffer).ok());
  Result<Organization> loaded = LoadOrganization(ctx, &buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Status valid = loaded.value().Validate();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  for (StateId s = 0; s < loaded.value().num_states(); ++s) {
    const OrgState& st = loaded.value().state(s);
    if (!st.alive) continue;
    EXPECT_EQ(st.topic_norm, Norm(st.topic)) << "state " << s;
  }
}

TEST(SerializationTest, RecomputeAllTopicsMakesRoundTripBitIdentical) {
  // Search-optimized organizations carry incrementally accumulated float
  // topic sums (operation order), while the load path re-accumulates in
  // tag-extent-then-extras ascending order — so a plain round trip only
  // agrees to float precision. RecomputeAllTopics() canonicalizes the
  // in-memory organization to the load path's accumulation order, after
  // which the round trip is bit-identical, topics and scores included.
  TagCloudOptions opts;
  opts.num_tags = 12;
  opts.target_attributes = 50;
  opts.min_values = 5;
  opts.max_values = 12;
  opts.seed = 41;
  TagCloudBenchmark bench = GenerateTagCloud(opts);
  TagIndex index = TagIndex::Build(bench.lake);
  auto ctx = OrgContext::BuildFull(bench.lake, index);
  LocalSearchOptions search;
  search.patience = 20;
  search.max_proposals = 120;
  search.seed = 13;
  LocalSearchResult optimized =
      OptimizeOrganization(BuildClusteringOrganization(ctx), search).value();

  Organization canonical = optimized.org.Clone();
  canonical.RecomputeAllTopics();
  Status valid = canonical.Validate();
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  // Canonicalization must not change structure, only re-accumulate sums.
  ExpectSameStructure(optimized.org, canonical);

  std::stringstream buffer;
  ASSERT_TRUE(SaveOrganization(canonical, &buffer).ok());
  Result<Organization> loaded = LoadOrganization(ctx, &buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Save compacts ids to alive states in root-first order; rebuild that
  // mapping to compare states pairwise.
  std::vector<StateId> order = {canonical.root()};
  for (StateId s = 0; s < canonical.num_states(); ++s) {
    if (canonical.state(s).alive && s != canonical.root()) {
      order.push_back(s);
    }
  }
  ASSERT_EQ(order.size(), loaded.value().num_states());
  for (size_t i = 0; i < order.size(); ++i) {
    const OrgState& want = canonical.state(order[i]);
    const OrgState& got = loaded.value().state(static_cast<StateId>(i));
    EXPECT_EQ(want.topic_sum, got.topic_sum) << "state " << i;
    EXPECT_EQ(want.topic, got.topic) << "state " << i;
    EXPECT_EQ(want.topic_norm, got.topic_norm) << "state " << i;
    EXPECT_EQ(want.value_count, got.value_count) << "state " << i;
  }

  // Scores bit-identical across the round trip.
  OrgEvaluator eval(search.transition);
  EXPECT_EQ(eval.Effectiveness(canonical),
            eval.Effectiveness(loaded.value()));
}

TEST(SerializationTest, DeadStatesAreCompactedAway) {
  TinyLake tiny = MakeTinyLake();
  auto ctx = TinyContext(&tiny);
  Organization org = BuildFlatOrganization(ctx);
  StateId interior = org.AddInteriorState({0, 1});
  ASSERT_TRUE(org.AddEdge(org.root(), interior).ok());
  ASSERT_TRUE(org.RemoveState(interior).ok());
  std::stringstream buffer;
  ASSERT_TRUE(SaveOrganization(org, &buffer).ok());
  Result<Organization> loaded = LoadOrganization(ctx, &buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_states(), org.NumAliveStates());
}

TEST(SerializationTest, FileRoundTrip) {
  TinyLake tiny = MakeTinyLake();
  auto ctx = TinyContext(&tiny);
  Organization org = BuildFlatOrganization(ctx);
  std::string path = ::testing::TempDir() + "/lakeorg_roundtrip.org";
  ASSERT_TRUE(SaveOrganizationToFile(org, path).ok());
  Result<Organization> loaded = LoadOrganizationFromFile(ctx, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameStructure(org, loaded.value());
}

TEST(SerializationTest, MissingFileFails) {
  TinyLake tiny = MakeTinyLake();
  auto ctx = TinyContext(&tiny);
  Result<Organization> loaded =
      LoadOrganizationFromFile(ctx, "/nonexistent/path.org");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SerializationTest, BadHeaderFails) {
  TinyLake tiny = MakeTinyLake();
  auto ctx = TinyContext(&tiny);
  std::stringstream buffer("not-a-lakeorg-file v9\n");
  Result<Organization> loaded = LoadOrganization(ctx, &buffer);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, TruncatedInputFails) {
  TinyLake tiny = MakeTinyLake();
  auto ctx = TinyContext(&tiny);
  Organization org = BuildFlatOrganization(ctx);
  std::stringstream buffer;
  ASSERT_TRUE(SaveOrganization(org, &buffer).ok());
  std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  Result<Organization> loaded = LoadOrganization(ctx, &truncated);
  EXPECT_FALSE(loaded.ok());
}

TEST(SerializationTest, TruncatedFileFailsInsteadOfSilentLoad) {
  // Short-read regression: a file cut mid-document (torn copy, partial
  // download) must refuse to load — never come back as a silently
  // smaller organization.
  TinyLake tiny = MakeTinyLake();
  auto ctx = TinyContext(&tiny);
  Organization org = BuildFlatOrganization(ctx);
  std::string path = ::testing::TempDir() + "/lakeorg_truncated.org";
  ASSERT_TRUE(SaveOrganizationToFile(org, path).ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }
  Result<Organization> loaded = LoadOrganizationFromFile(ctx, path);
  EXPECT_FALSE(loaded.ok());
}

TEST(SerializationTest, SaveToUnwritablePathFails) {
  // The file writer must surface a failed write instead of returning OK
  // with a missing or empty file behind it.
  TinyLake tiny = MakeTinyLake();
  auto ctx = TinyContext(&tiny);
  Organization org = BuildFlatOrganization(ctx);
  Status st = SaveOrganizationToFile(org, "/nonexistent-dir/out.org");
  EXPECT_FALSE(st.ok());
}

TEST(SerializationTest, CorruptTagIdFails) {
  TinyLake tiny = MakeTinyLake();
  auto ctx = TinyContext(&tiny);
  std::stringstream buffer(
      "lakeorg-organization v1\nstates 1\nstate 0 R -1 T 1 999 X 0\n"
      "edges 0\nend\n");
  Result<Organization> loaded = LoadOrganization(ctx, &buffer);
  EXPECT_FALSE(loaded.ok());
}

TEST(SerializationTest, EdgeAgainstInclusionFails) {
  // A hand-written file whose edge violates the inclusion property must
  // be rejected by the organization's own checks.
  TinyLake tiny = MakeTinyLake();
  auto ctx = TinyContext(&tiny);
  // Tag state for tag 1 (beta) over leaf of attribute 0 (x, alpha-only).
  std::stringstream buffer(
      "lakeorg-organization v1\n"
      "states 3\n"
      "state 0 R -1 T 2 0 1 X 0\n"
      "state 1 T -1 T 1 1 X 0\n"
      "state 2 L 0 T 0 X 0\n"
      "edges 2\n"
      "edge 0 1\n"
      "edge 1 2\n"
      "end\n");
  Result<Organization> loaded = LoadOrganization(ctx, &buffer);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("rejected"),
            std::string::npos);
}

}  // namespace
}  // namespace lakeorg
