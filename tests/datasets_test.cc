#include "workload/datasets.h"

#include <gtest/gtest.h>

#include "core/containment.h"
#include "core/match_join.h"
#include "simulation/bounded.h"

namespace gpmv {
namespace {

TEST(AmazonTest, GraphShape) {
  Graph g = GenerateAmazonLike(2000, 1);
  EXPECT_EQ(g.num_nodes(), 2000u);
  // ~3 out-edges per node (some duplicates rejected).
  EXPECT_GT(g.num_edges(), 2000u * 2);
  EXPECT_LT(g.num_edges(), 2000u * 4);
  EXPECT_NE(g.FindLabel("Book"), kInvalidLabel);
  ASSERT_NE(g.attrs(0).Get("rank"), nullptr);
  EXPECT_GE(g.attrs(0).Get("rank")->as_int(), 1);
}

TEST(AmazonTest, TwelveViews) {
  EXPECT_EQ(AmazonViews().card(), 12u);
  EXPECT_EQ(CitationViews().card(), 12u);
  EXPECT_EQ(YoutubeViews().card(), 12u);
}

TEST(AmazonTest, QueriesContainedInViews) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Pattern q = GenerateAmazonQuery(4 + seed % 4, 6 + seed % 6, 1, seed);
    EXPECT_TRUE(q.HasNoIsolatedNode());
    Result<ContainmentMapping> m = CheckContainment(q, AmazonViews(1));
    ASSERT_TRUE(m.ok());
    EXPECT_TRUE(m->contained) << "seed=" << seed << "\n" << q.ToString();
  }
}

TEST(AmazonTest, BoundedQueriesContainedInBoundedViews) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Pattern q = GenerateAmazonQuery(4, 6, 2, seed);
    Result<ContainmentMapping> m = CheckContainment(q, AmazonViews(2));
    ASSERT_TRUE(m.ok());
    EXPECT_TRUE(m->contained) << "seed=" << seed;
  }
}

TEST(AmazonTest, ViewExtensionsAreSmallFractionOfGraph) {
  Graph g = GenerateAmazonLike(5000, 2);
  auto exts = MaterializeAll(AmazonViews(1), *g.Freeze());
  ASSERT_TRUE(exts.ok());
  // Selective rank predicate keeps the cached views a few percent of |E|.
  EXPECT_LT(TotalExtensionPairs(*exts), g.num_edges() / 2);
  EXPECT_GT(TotalExtensionPairs(*exts), 0u);
}

TEST(AmazonTest, EndToEndViaViews) {
  Graph g = GenerateAmazonLike(3000, 3);
  ViewSet views = AmazonViews(1);
  auto exts = MaterializeAll(views, *g.Freeze());
  ASSERT_TRUE(exts.ok());
  Pattern q = GenerateAmazonQuery(4, 5, 1, 4);
  auto mapping = MinimalContainment(q, views);
  ASSERT_TRUE(mapping.ok());
  ASSERT_TRUE(mapping->contained);
  Result<MatchResult> joined = MatchJoin(q, views, *exts, *mapping);
  Result<MatchResult> direct = MatchBoundedSimulation(q, *g.Freeze());
  ASSERT_TRUE(joined.ok() && direct.ok());
  EXPECT_TRUE(*joined == *direct);
}

TEST(CitationTest, GraphShapeAndTemporalEdges) {
  Graph g = GenerateCitationLike(2000, 5);
  EXPECT_EQ(g.num_nodes(), 2000u);
  // Citations point backward in id (and so backward in year).
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId w : g.out_neighbors(v)) EXPECT_LT(w, v);
  }
  ASSERT_NE(g.attrs(10).Get("year"), nullptr);
}

TEST(CitationTest, QueriesContainedInViews) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Pattern q = GenerateCitationQuery(5, 8, 3, seed);
    Result<ContainmentMapping> m = CheckContainment(q, CitationViews(3));
    ASSERT_TRUE(m.ok());
    EXPECT_TRUE(m->contained) << "seed=" << seed;
  }
}

TEST(YoutubeTest, GraphShapeAndAttributes) {
  Graph g = GenerateYoutubeLike(2000, 6);
  EXPECT_EQ(g.num_nodes(), 2000u);
  EXPECT_NE(g.FindLabel("Music"), kInvalidLabel);
  for (const char* attr : {"A", "R", "V", "L"}) {
    ASSERT_NE(g.attrs(0).Get(attr), nullptr) << attr;
  }
}

TEST(YoutubeTest, Fig7ViewsMaterializeSelectively) {
  Graph g = GenerateYoutubeLike(4000, 7);
  auto exts = MaterializeAll(YoutubeViews(1), *g.Freeze());
  ASSERT_TRUE(exts.ok());
  // The paper reports YouTube view extensions at ~4% of the graph.
  EXPECT_LT(TotalExtensionPairs(*exts), g.num_edges());
  size_t matched = 0;
  for (const auto& e : *exts) matched += e.matched();
  EXPECT_GT(matched, 6u);  // most Fig. 7 views match a sizable graph
}

TEST(YoutubeTest, GluedQueriesContainedInViews) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Pattern q = GenerateYoutubeQuery(8, 1, seed);
    EXPECT_GE(q.num_edges(), 8u);
    Result<ContainmentMapping> m = CheckContainment(q, YoutubeViews(1));
    ASSERT_TRUE(m.ok());
    EXPECT_TRUE(m->contained) << "seed=" << seed << "\n" << q.ToString();
  }
}

TEST(YoutubeTest, BoundedGlueQueriesContained) {
  Pattern q = GenerateYoutubeQuery(6, 2, 3);
  Result<ContainmentMapping> m = CheckContainment(q, YoutubeViews(2));
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->contained);
}

TEST(YoutubeTest, EndToEndViaViews) {
  Graph g = GenerateYoutubeLike(3000, 8);
  ViewSet views = YoutubeViews(1);
  auto exts = MaterializeAll(views, *g.Freeze());
  ASSERT_TRUE(exts.ok());
  Pattern q = GenerateYoutubeQuery(6, 1, 9);
  auto mapping = MinimumContainment(q, views);
  ASSERT_TRUE(mapping.ok());
  ASSERT_TRUE(mapping->contained);
  Result<MatchResult> joined = MatchJoin(q, views, *exts, *mapping);
  Result<MatchResult> direct = MatchBoundedSimulation(q, *g.Freeze());
  ASSERT_TRUE(joined.ok() && direct.ok());
  EXPECT_TRUE(*joined == *direct) << q.ToString();
}

TEST(DatasetsTest, GeneratorsAreDeterministic) {
  Graph a = GenerateYoutubeLike(500, 42);
  Graph b = GenerateYoutubeLike(500, 42);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  Pattern qa = GenerateAmazonQuery(4, 6, 1, 42);
  Pattern qb = GenerateAmazonQuery(4, 6, 1, 42);
  EXPECT_EQ(qa.ToString(), qb.ToString());
}

}  // namespace
}  // namespace gpmv
