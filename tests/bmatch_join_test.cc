#include "core/bmatch_join.h"

#include <gtest/gtest.h>

#include "core/containment.h"
#include "pattern/pattern_builder.h"
#include "simulation/bounded.h"
#include "test_util.h"
#include "workload/paper_fixtures.h"

namespace gpmv {
namespace {

TEST(BMatchJoinTest, TwoHopQueryViaLooserView) {
  // Graph: A -> X -> B and A -> Y -> Z -> B. View bound 3 materializes both
  // B's at distances 2 and 3; a query bound of 2 must keep only the first.
  Graph g;
  NodeId a = g.AddNode("A"), x = g.AddNode("X"), b1 = g.AddNode("B");
  NodeId y = g.AddNode("Y"), z = g.AddNode("Z"), b2 = g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(a, x).ok());
  ASSERT_TRUE(g.AddEdge(x, b1).ok());
  ASSERT_TRUE(g.AddEdge(a, y).ok());
  ASSERT_TRUE(g.AddEdge(y, z).ok());
  ASSERT_TRUE(g.AddEdge(z, b2).ok());

  ViewSet views;
  views.Add("v",
            PatternBuilder().Node("A").Node("B").Edge("A", "B", 3).Build());
  auto exts = MaterializeAll(views, *g.Freeze());
  ASSERT_TRUE(exts.ok());

  Pattern qb =
      PatternBuilder().Node("A").Node("B").Edge("A", "B", 2).Build();
  auto mapping = CheckContainment(qb, views);
  ASSERT_TRUE(mapping.ok());
  ASSERT_TRUE(mapping->contained);

  MatchJoinStats stats;
  Result<MatchResult> r = BMatchJoin(qb, views, *exts, *mapping,
                                     MatchJoinOptions{}, &stats);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{a, b1}}));
  EXPECT_EQ(stats.filtered_by_distance, 1u);  // (a, b2) at distance 3

  // Agreement with direct bounded evaluation (Theorem 8/9).
  Result<MatchResult> direct = MatchBoundedSimulation(qb, *g.Freeze());
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(*r == *direct);
}

TEST(BMatchJoinTest, ExplicitDistanceIndexCrossChecksStricterBound) {
  // Same topology as TwoHopQueryViaLooserView: the view's bound (3) is
  // looser than the query's (2), so the merge must drop the distance-3 pair
  // that I(V) — the extension's distance column — records.
  Graph g;
  NodeId a = g.AddNode("A"), x = g.AddNode("X"), b1 = g.AddNode("B");
  NodeId y = g.AddNode("Y"), z = g.AddNode("Z"), b2 = g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(a, x).ok());
  ASSERT_TRUE(g.AddEdge(x, b1).ok());
  ASSERT_TRUE(g.AddEdge(a, y).ok());
  ASSERT_TRUE(g.AddEdge(y, z).ok());
  ASSERT_TRUE(g.AddEdge(z, b2).ok());

  ViewSet views;
  views.Add("v",
            PatternBuilder().Node("A").Node("B").Edge("A", "B", 3).Build());
  auto exts = MaterializeAll(views, *g.Freeze());
  ASSERT_TRUE(exts.ok());
  const ViewEdgeExtension& vee = (*exts)[0].edge(0);
  ASSERT_EQ(vee.pairs, (std::vector<NodePair>{{a, b1}, {a, b2}}));
  EXPECT_EQ(vee.distances, (std::vector<uint32_t>{2, 3}));

  Pattern qb =
      PatternBuilder().Node("A").Node("B").Edge("A", "B", 2).Build();
  auto mapping = CheckContainment(qb, views);
  ASSERT_TRUE(mapping.ok());
  ASSERT_TRUE(mapping->contained);

  MatchJoinStats stats;
  Result<MatchResult> r = BMatchJoin(qb, views, *exts, *mapping,
                                     MatchJoinOptions{}, &stats);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{a, b1}}));
  EXPECT_EQ(stats.filtered_by_distance, 1u);
}

TEST(BMatchJoinTest, Fig6QueryOnConcreteGraph) {
  Fig6Fixture f = MakeFig6();
  // Concrete graph realizing Qb: A -> B (1 hop), A -> x -> C (2 <= 3),
  // B -> y -> D (2 <= 3), C -> z -> w -> D (3 <= 4), B -> E (1 <= 3).
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
  NodeId d = g.AddNode("D"), e = g.AddNode("E");
  NodeId x = g.AddNode("X"), y = g.AddNode("Y"), z = g.AddNode("Z");
  NodeId w = g.AddNode("W");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(a, x).ok());
  ASSERT_TRUE(g.AddEdge(x, c).ok());
  ASSERT_TRUE(g.AddEdge(b, y).ok());
  ASSERT_TRUE(g.AddEdge(y, d).ok());
  ASSERT_TRUE(g.AddEdge(c, z).ok());
  ASSERT_TRUE(g.AddEdge(z, w).ok());
  ASSERT_TRUE(g.AddEdge(w, d).ok());
  ASSERT_TRUE(g.AddEdge(b, e).ok());

  auto exts = MaterializeAll(f.views, *g.Freeze());
  ASSERT_TRUE(exts.ok());
  for (auto checker :
       {&CheckContainment, &MinimalContainment, &MinimumContainment}) {
    auto mapping = checker(f.qb, f.views);
    ASSERT_TRUE(mapping.ok());
    ASSERT_TRUE(mapping->contained);
    Result<MatchResult> joined = BMatchJoin(f.qb, f.views, *exts, *mapping);
    Result<MatchResult> direct = MatchBoundedSimulation(f.qb, *g.Freeze());
    ASSERT_TRUE(joined.ok() && direct.ok());
    ASSERT_TRUE(direct->matched());
    EXPECT_TRUE(*joined == *direct);
  }
}

TEST(BMatchJoinTest, StarBoundsFlowThroughViews) {
  Graph g = testutil::ChainGraph({"A", "X", "X", "B"});
  ViewSet views;
  views.Add("v", PatternBuilder()
                     .Node("A").Node("B")
                     .Edge("A", "B", kUnbounded)
                     .Build());
  auto exts = MaterializeAll(views, *g.Freeze());
  ASSERT_TRUE(exts.ok());
  Pattern qb = PatternBuilder()
                   .Node("A").Node("B")
                   .Edge("A", "B", kUnbounded)
                   .Build();
  auto mapping = CheckContainment(qb, views);
  ASSERT_TRUE(mapping->contained);
  Result<MatchResult> r = BMatchJoin(qb, views, *exts, *mapping);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{0, 3}}));
}

TEST(DistanceIndexTest, BuildsFromExtensionsAndAnswersLookups) {
  Graph g = testutil::ChainGraph({"A", "X", "B"});
  ViewSet views;
  views.Add("v",
            PatternBuilder().Node("A").Node("B").Edge("A", "B", 3).Build());
  auto exts = MaterializeAll(views, *g.Freeze());
  ASSERT_TRUE(exts.ok());
  // I(V) is the distance column parallel to the pairs: one pair, (A, B) at
  // distance 2; the intermediate X is not a match and has no entry.
  const ViewEdgeExtension& vee = (*exts)[0].edge(0);
  EXPECT_EQ(vee.pairs, (std::vector<NodePair>{{0, 2}}));
  EXPECT_EQ(vee.distances, (std::vector<uint32_t>{2}));
}

TEST(DistanceIndexTest, DistancesMatchBfs) {
  Graph g;
  // Diamond: distances 1 and 2 to the sink.
  NodeId a = g.AddNode("A"), m = g.AddNode("M"), b = g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(a, m).ok());
  ASSERT_TRUE(g.AddEdge(m, b).ok());
  ViewSet views;
  views.Add("v",
            PatternBuilder().Node("A").Node("B").Edge("A", "B", 5).Build());
  auto exts = MaterializeAll(views, *g.Freeze());
  ASSERT_TRUE(exts.ok());
  const ViewEdgeExtension& vee = (*exts)[0].edge(0);
  ASSERT_EQ(vee.pairs, (std::vector<NodePair>{{a, b}}));
  EXPECT_EQ(vee.distances, (std::vector<uint32_t>{1}));  // not the detour
}

}  // namespace
}  // namespace gpmv
