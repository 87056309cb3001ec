/// Focused tests for predicate views (Fig. 7 style): queries stricter than
/// the cached views, answered without touching G thanks to attribute
/// snapshots in the extensions.

#include <gtest/gtest.h>

#include "core/containment.h"
#include "core/match_join.h"
#include "pattern/pattern_builder.h"
#include "simulation/bounded.h"

namespace gpmv {
namespace {

Graph VideoGraph() {
  Graph g;
  auto add = [&](const char* cat, int64_t rate, int64_t visits) {
    AttributeSet a;
    a.Set("R", AttrValue(rate));
    a.Set("V", AttrValue(visits));
    return g.AddNode(cat, std::move(a));
  };
  NodeId hit = add("Music", 5, 50000);    // 0: satisfies everything
  NodeId ok = add("Music", 4, 20000);     // 1: view-only quality
  NodeId meh = add("Music", 4, 5000);     // 2: fails visits conditions
  NodeId fan1 = add("Ent", 5, 15000);     // 3
  NodeId fan2 = add("Ent", 3, 90000);     // 4: fails rate >= 4
  (void)meh;
  (void)g.AddEdge(hit, fan1);
  (void)g.AddEdge(ok, fan1);
  (void)g.AddEdge(ok, fan2);
  (void)g.AddEdge(2, fan1);
  return g;
}

ViewSet LooseView() {
  ViewSet views;
  views.Add("v", PatternBuilder()
                     .Node("m", "Music", Predicate().Ge("R", 4))
                     .Node("e", "Ent", Predicate().Ge("V", 10000))
                     .Edge("m", "e")
                     .Build());
  return views;
}

TEST(PredicateViewsTest, StricterQueryFiltersViaSnapshots) {
  Graph g = VideoGraph();
  ViewSet views = LooseView();
  auto exts = std::move(MaterializeAll(views, *g.Freeze())).value();
  // The loose view keeps (0,3), (1,3), (1,4) and (2,3): all four sources
  // have R >= 4 and both targets have V >= 10000.
  ASSERT_EQ(exts[0].edge(0).pairs.size(), 4u);

  // Query: Music with R >= 5 (stricter) -> Ent with V >= 10000 AND R >= 4.
  Pattern q = PatternBuilder()
                  .Node("m", "Music", Predicate().Ge("R", 5))
                  .Node("e", "Ent", Predicate().Ge("V", 10000).Ge("R", 4))
                  .Edge("m", "e")
                  .Build();
  auto mapping = std::move(CheckContainment(q, views)).value();
  ASSERT_TRUE(mapping.contained);

  MatchJoinStats stats;
  Result<MatchResult> r =
      MatchJoin(q, views, exts, mapping, MatchJoinOptions{}, &stats);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  // Only (hit=0, fan1=3) survives the query's stricter conditions.
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{0, 3}}));
  EXPECT_EQ(stats.filtered_by_condition, 3u);  // (1,3), (1,4), (2,3) dropped

  // Identical to direct evaluation.
  Result<MatchResult> direct = MatchBoundedSimulation(q, *g.Freeze());
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(*r == *direct);
}

TEST(PredicateViewsTest, LooserQueryIsNotContained) {
  ViewSet views = LooseView();
  Pattern q = PatternBuilder()
                  .Node("m", "Music", Predicate().Ge("R", 3))  // looser
                  .Node("e", "Ent", Predicate().Ge("V", 10000))
                  .Edge("m", "e")
                  .Build();
  auto mapping = std::move(CheckContainment(q, views)).value();
  EXPECT_FALSE(mapping.contained);
}

TEST(PredicateViewsTest, WildcardQueryLabelNotCoveredByLabeledView) {
  ViewSet views = LooseView();
  Pattern q = PatternBuilder()
                  .Node("m", "", Predicate().Ge("R", 5))  // any label
                  .Node("e", "Ent", Predicate().Ge("V", 10000))
                  .Edge("m", "e")
                  .Build();
  auto mapping = std::move(CheckContainment(q, views)).value();
  EXPECT_FALSE(mapping.contained);
}

TEST(PredicateViewsTest, WildcardViewCoversAnyLabel) {
  ViewSet views;
  views.Add("v", PatternBuilder()
                     .Node("x", "", Predicate().Ge("R", 4))
                     .Node("e", "Ent")
                     .Edge("x", "e")
                     .Build());
  Pattern q = PatternBuilder()
                  .Node("m", "Music", Predicate().Ge("R", 4))
                  .Node("e", "Ent")
                  .Edge("m", "e")
                  .Build();
  auto mapping = std::move(CheckContainment(q, views)).value();
  EXPECT_TRUE(mapping.contained);

  Graph g = VideoGraph();
  auto exts = std::move(MaterializeAll(views, *g.Freeze())).value();
  Result<MatchResult> r = MatchJoin(q, views, *&exts, mapping);
  Result<MatchResult> direct = MatchBoundedSimulation(q, *g.Freeze());
  ASSERT_TRUE(r.ok() && direct.ok());
  EXPECT_TRUE(*r == *direct);
}

TEST(PredicateViewsTest, SnapshotLabelFilterDropsWrongLabels) {
  // Wildcard view matches both Music and Sports sources; a Music-labeled
  // query must keep only the Music ones, using snapshot labels.
  Graph g;
  AttributeSet a1, a2;
  a1.Set("R", AttrValue(5));
  a2.Set("R", AttrValue(5));
  NodeId music = g.AddNode("Music", std::move(a1));
  NodeId sports = g.AddNode("Sports", std::move(a2));
  NodeId ent = g.AddNode("Ent");
  (void)g.AddEdge(music, ent);
  (void)g.AddEdge(sports, ent);

  ViewSet views;
  views.Add("v", PatternBuilder()
                     .Node("x", "", Predicate().Ge("R", 4))
                     .Node("e", "Ent")
                     .Edge("x", "e")
                     .Build());
  auto exts = std::move(MaterializeAll(views, *g.Freeze())).value();
  ASSERT_EQ(exts[0].edge(0).pairs.size(), 2u);

  Pattern q = PatternBuilder()
                  .Node("m", "Music", Predicate().Ge("R", 4))
                  .Node("e", "Ent")
                  .Edge("m", "e")
                  .Build();
  auto mapping = std::move(CheckContainment(q, views)).value();
  ASSERT_TRUE(mapping.contained);
  MatchJoinStats stats;
  Result<MatchResult> r =
      MatchJoin(q, views, exts, mapping, MatchJoinOptions{}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{music, ent}}));
  EXPECT_EQ(stats.filtered_by_condition, 1u);  // the Sports pair
}

}  // namespace
}  // namespace gpmv
