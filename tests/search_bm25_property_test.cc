// Randomized property suites for the retrieval substrate: BM25 must
// behave like a sane ranking function on arbitrary corpora, and the
// search engine must stay consistent with its index.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/random.h"
#include "search/bm25.h"
#include "search/engine.h"
#include "search/inverted_index.h"
#include "test_util.h"

namespace lakeorg {
namespace {

/// A random corpus over a tiny vocabulary (forces term collisions).
InvertedIndex RandomCorpus(uint64_t seed, size_t docs, size_t vocab) {
  Rng rng(seed);
  InvertedIndex index;
  for (size_t d = 0; d < docs; ++d) {
    size_t len = 1 + static_cast<size_t>(rng.UniformInt(0, 30));
    std::vector<std::string> tokens;
    for (size_t i = 0; i < len; ++i) {
      tokens.push_back(
          "w" + std::to_string(rng.UniformInt(
                    0, static_cast<int64_t>(vocab - 1))));
    }
    index.AddDocument(tokens);
  }
  return index;
}

class Bm25Property : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Bm25Property, ScoresAreFiniteSortedAndMatchOnly) {
  InvertedIndex index = RandomCorpus(GetParam(), 60, 12);
  Bm25Scorer scorer(&index);
  std::vector<std::string> query = {"w0", "w3", "w7"};
  std::vector<SearchHit> hits = scorer.TopK(query, 100);
  std::set<DocId> seen;
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_TRUE(std::isfinite(hits[i].score));
    EXPECT_GT(hits[i].score, 0.0);
    if (i > 0) {
      EXPECT_GE(hits[i - 1].score, hits[i].score);
    }
    EXPECT_TRUE(seen.insert(hits[i].doc).second) << "duplicate doc";
  }
  // Every hit contains at least one query term; every doc containing a
  // query term is a hit (k was large enough).
  std::set<DocId> expected;
  for (const std::string& term : query) {
    for (const Posting& p : index.PostingsFor(term)) {
      expected.insert(p.doc);
    }
  }
  EXPECT_EQ(seen, expected);
}

TEST_P(Bm25Property, AddingMatchingTermNeverLowersBestScore) {
  InvertedIndex index = RandomCorpus(GetParam() ^ 0xABCD, 40, 10);
  Bm25Scorer scorer(&index);
  std::vector<SearchHit> one = scorer.TopK({"w1"}, 1);
  std::vector<SearchHit> two = scorer.TopK({"w1", "w2"}, 1);
  if (!one.empty() && !two.empty()) {
    EXPECT_GE(two[0].score, one[0].score - 1e-12);
  }
}

TEST_P(Bm25Property, TopKPrefixStability) {
  // The top-3 of a k=3 query equals the first 3 of a k=10 query.
  InvertedIndex index = RandomCorpus(GetParam() ^ 0x1234, 50, 8);
  Bm25Scorer scorer(&index);
  std::vector<SearchHit> small = scorer.TopK({"w0", "w1"}, 3);
  std::vector<SearchHit> large = scorer.TopK({"w0", "w1"}, 10);
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].doc, large[i].doc);
    EXPECT_DOUBLE_EQ(small[i].score, large[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Bm25Property,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SearchEngineConsistency, EveryHitContainsAQueryTerm) {
  testing::TinyLake tiny = testing::MakeTinyLake();
  TableSearchEngine engine(&tiny.lake, nullptr);
  std::vector<TableHit> hits = engine.Search("alpha things", 10, false);
  ASSERT_FALSE(hits.empty());
  for (const TableHit& hit : hits) {
    // Validate against the raw lake content: the hit's table mentions one
    // of the query terms somewhere in its metadata or values.
    const Table& t = tiny.lake.table(hit.table);
    bool mentions = t.description.find("alpha") != std::string::npos ||
                    t.description.find("things") != std::string::npos;
    for (TagId tag : t.tags) {
      if (tiny.lake.tag_name(tag).find("alpha") != std::string::npos) {
        mentions = true;
      }
    }
    EXPECT_TRUE(mentions) << "table " << t.name;
  }
}

}  // namespace
}  // namespace lakeorg
