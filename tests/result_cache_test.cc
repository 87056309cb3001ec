#include "engine/result_cache.h"

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "pattern/pattern_builder.h"
#include "test_util.h"

namespace gpmv {
namespace {

MatchResult SmallResult(size_t pairs) {
  Pattern p = PatternBuilder().Node("A").Node("B").Edge("A", "B").Build();
  MatchResult r = MatchResult::Empty(p);
  for (size_t i = 0; i < pairs; ++i) {
    r.mutable_edge_matches(0)->emplace_back(static_cast<NodeId>(i),
                                            static_cast<NodeId>(i + 1));
  }
  r.set_matched(true);
  r.DeriveNodeMatches(p);
  return r;
}

TEST(ResultCacheTest, HitAfterInsertSameVersion) {
  ResultCache cache;
  MatchResult out;
  EXPECT_FALSE(cache.Lookup("q1", 1, &out));
  cache.Insert("q1", 1, SmallResult(3));
  ASSERT_TRUE(cache.Lookup("q1", 1, &out));
  EXPECT_EQ(out.TotalMatches(), 3u);
  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ResultCacheTest, VersionMismatchDropsEntry) {
  ResultCache cache;
  cache.Insert("q1", 1, SmallResult(3));
  MatchResult out;
  EXPECT_FALSE(cache.Lookup("q1", 2, &out));  // graph moved on
  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.stale_drops, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes_cached, 0u);
  // Not even the old version hits anymore — the entry is gone.
  EXPECT_FALSE(cache.Lookup("q1", 1, &out));
}

TEST(ResultCacheTest, LruEvictionUnderBudget) {
  ResultCacheOptions opts;
  opts.budget_bytes = 400;  // fits two 10-pair results, not three
  ResultCache cache(opts);
  cache.Insert("a", 1, SmallResult(10));
  cache.Insert("b", 1, SmallResult(10));
  MatchResult out;
  ASSERT_TRUE(cache.Lookup("a", 1, &out));  // "b" becomes LRU
  cache.Insert("c", 1, SmallResult(10));
  ResultCacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes_cached, opts.budget_bytes);
  EXPECT_FALSE(cache.Lookup("b", 1, &out));  // the LRU victim
  EXPECT_TRUE(cache.Lookup("a", 1, &out) || cache.Lookup("c", 1, &out));
}

TEST(ResultCacheTest, OversizedResultNotCached) {
  ResultCacheOptions opts;
  opts.budget_bytes = 64;
  ResultCache cache(opts);
  cache.Insert("big", 1, SmallResult(1000));
  MatchResult out;
  EXPECT_FALSE(cache.Lookup("big", 1, &out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCacheTest, ZeroBudgetDisables) {
  ResultCacheOptions opts;
  opts.budget_bytes = 0;
  ResultCache cache(opts);
  EXPECT_FALSE(cache.enabled());
  cache.Insert("q", 1, SmallResult(1));
  MatchResult out;
  EXPECT_FALSE(cache.Lookup("q", 1, &out));
  EXPECT_EQ(cache.stats().misses, 0u);  // disabled lookups do not count
}

TEST(ResultCacheEngineTest, RepeatQueryServedFromResultCache) {
  Graph g = testutil::ChainGraph({"A", "B", "C"});
  EngineOptions opts;
  opts.pool.num_threads = 1;
  QueryEngine engine(g, opts);
  Pattern q = testutil::ChainPattern({"A", "B", "C"});

  QueryResponse first = engine.Query(q);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.result_cached);
  QueryResponse second = engine.Query(q);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.result_cached);
  EXPECT_TRUE(first.result == second.result);

  const obs::MetricsSnapshot m = engine.metrics()->TakeSnapshot();
  EXPECT_EQ(m.GaugeValue("result_cache.hits"), 1.0);
  EXPECT_GE(m.GaugeValue("result_cache.inserts"), 1.0);
}

TEST(ResultCacheEngineTest, UpdateBatchInvalidatesByVersion) {
  Graph g = testutil::ChainGraph({"A", "B", "C"});
  EngineOptions opts;
  opts.pool.num_threads = 1;
  QueryEngine engine(g, opts);
  Pattern q = testutil::ChainPattern({"A", "B"});

  QueryResponse before = engine.Query(q);
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.result.edge_matches(0).size(), 1u);

  // Deleting A -> B changes the answer; the memoized entry must not serve.
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Delete(0, 1)}).ok());
  QueryResponse after = engine.Query(q);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.result_cached);
  EXPECT_FALSE(after.result.matched());

  // And the post-update result memoizes under the new version.
  QueryResponse again = engine.Query(q);
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.result_cached);
  EXPECT_TRUE(again.result == after.result);
}

TEST(ResultCacheEngineTest, SharedMinimizedFormSharesOneEntry) {
  // Two textually different queries minimizing to the same quotient: the
  // second one hits the first one's entry and expands through its own map.
  Graph g = testutil::ChainGraph({"A", "B"});
  EngineOptions opts;
  opts.pool.num_threads = 1;
  QueryEngine engine(g, opts);

  Pattern q1 = PatternBuilder().Node("A").Node("B").Edge("A", "B").Build();
  // Duplicate B-node collapses onto q1's shape under minimization.
  Pattern q2;
  {
    uint32_t a = q2.AddNode("A");
    uint32_t b1 = q2.AddNode("B");
    uint32_t b2 = q2.AddNode("B");
    EXPECT_TRUE(q2.AddEdge(a, b1).ok());
    EXPECT_TRUE(q2.AddEdge(a, b2).ok());
  }
  QueryResponse r1 = engine.Query(q1);
  ASSERT_TRUE(r1.status.ok());
  QueryResponse r2 = engine.Query(q2);
  ASSERT_TRUE(r2.status.ok());
  if (r2.result_cached) {  // same quotient — the expected case
    EXPECT_EQ(
        engine.metrics()->TakeSnapshot().GaugeValue("result_cache.hits"),
        1.0);
    EXPECT_EQ(r2.result.edge_matches(0), r2.result.edge_matches(1));
  }
  MatchResult oracle = testutil::OracleMatch(q2, g);
  EXPECT_TRUE(r2.result == oracle);
}

}  // namespace
}  // namespace gpmv
