#include "engine/planner.h"

#include <gtest/gtest.h>

#include "core/view.h"
#include "pattern/pattern_builder.h"
#include "test_util.h"

namespace gpmv {
namespace {

/// A -> B -> C chain graph replicated a few times so statistics are nonzero.
Graph ChainABCGraph() {
  Graph g;
  for (int i = 0; i < 4; ++i) {
    NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
    (void)g.AddEdge(a, b);
    (void)g.AddEdge(b, c);
  }
  return g;
}

Pattern ChainABC() {
  return PatternBuilder()
      .Node("A").Node("B").Node("C")
      .Edge("A", "B").Edge("B", "C")
      .Build();
}

TEST(PlannerTest, ContainedQueryYieldsMatchJoinPlan) {
  Graph g = ChainABCGraph();
  ViewSet views;
  views.Add("v_ab", PatternBuilder().Node("A").Node("B").Edge("A", "B").Build());
  views.Add("v_bc", PatternBuilder().Node("B").Node("C").Edge("B", "C").Build());
  std::vector<ViewExtension> exts(views.card());

  Result<QueryPlan> plan = PlanQuery(ChainABC(), views, exts,
                                     ComputeStatistics(g), PlannerOptions{});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kMatchJoin);
  EXPECT_TRUE(plan->mapping.contained);
  EXPECT_EQ(plan->views_needed, (std::vector<uint32_t>{0, 1}));
  EXPECT_GT(plan->est_direct_cost, 0.0);
  EXPECT_GT(plan->est_view_cost, 0.0);
}

TEST(PlannerTest, UselessViewsYieldDirectPlan) {
  Graph g = ChainABCGraph();
  ViewSet views;
  views.Add("v_zz", PatternBuilder().Node("Z").Node("Z2").Edge("Z", "Z2").Build());
  std::vector<ViewExtension> exts(views.card());

  Result<QueryPlan> plan = PlanQuery(ChainABC(), views, exts,
                                     ComputeStatistics(g), PlannerOptions{});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kDirect);
  EXPECT_TRUE(plan->views_needed.empty());
}

TEST(PlannerTest, EmptyRegistryYieldsDirectPlan) {
  Graph g = ChainABCGraph();
  ViewSet views;
  std::vector<ViewExtension> exts;
  Result<QueryPlan> plan = PlanQuery(ChainABC(), views, exts,
                                     ComputeStatistics(g), PlannerOptions{});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kDirect);
}

TEST(PlannerTest, PartialCoverYieldsPartialViewsPlan) {
  Graph g = ChainABCGraph();
  ViewSet views;
  views.Add("v_ab", PatternBuilder().Node("A").Node("B").Edge("A", "B").Build());
  std::vector<ViewExtension> exts(views.card());

  Result<QueryPlan> plan = PlanQuery(ChainABC(), views, exts,
                                     ComputeStatistics(g), PlannerOptions{});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kPartialViews);
  EXPECT_EQ(plan->views_needed, (std::vector<uint32_t>{0}));
  ASSERT_EQ(plan->partial_lambda.size(), 2u);
  EXPECT_FALSE(plan->partial_lambda[0].empty());  // A -> B covered
  EXPECT_TRUE(plan->partial_lambda[1].empty());   // B -> C not covered
}

TEST(PlannerTest, ZeroCostAdvantageDisablesViewPlans) {
  Graph g = ChainABCGraph();
  ViewSet views;
  views.Add("v_ab", PatternBuilder().Node("A").Node("B").Edge("A", "B").Build());
  views.Add("v_bc", PatternBuilder().Node("B").Node("C").Edge("B", "C").Build());
  std::vector<ViewExtension> exts(views.card());

  PlannerOptions opts;
  opts.view_cost_advantage = 0.0;
  Result<QueryPlan> plan =
      PlanQuery(ChainABC(), views, exts, ComputeStatistics(g), opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kDirect);
}

TEST(PlannerTest, MinimizationCollapsesSimilarBranches) {
  // Fig. 1-style duplicated branches: A -> B1, A -> B2 with identical
  // conditions collapse to a single quotient edge.
  Pattern q;
  uint32_t a = q.AddNode("A");
  uint32_t b1 = q.AddNode("B");
  uint32_t b2 = q.AddNode("B");
  ASSERT_TRUE(q.AddEdge(a, b1).ok());
  ASSERT_TRUE(q.AddEdge(a, b2).ok());

  Graph g = ChainABCGraph();
  ViewSet views;
  std::vector<ViewExtension> exts;
  Result<QueryPlan> plan =
      PlanQuery(q, views, exts, ComputeStatistics(g), PlannerOptions{});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->minimized.changed);
  EXPECT_EQ(plan->minimized.pattern.num_nodes(), 2u);
  EXPECT_EQ(plan->minimized.pattern.num_edges(), 1u);
  EXPECT_EQ(plan->minimized.edge_map[0], plan->minimized.edge_map[1]);
}

TEST(PlannerTest, DirectCostGrowsWithBounds) {
  Graph g = ChainABCGraph();
  GraphStatistics gs = ComputeStatistics(g);
  Pattern plain = PatternBuilder().Node("A").Node("B").Edge("A", "B").Build();
  Pattern bounded =
      PatternBuilder().Node("A").Node("B").Edge("A", "B", 4).Build();
  Pattern star =
      PatternBuilder().Node("A").Node("B").Edge("A", "B", kUnbounded).Build();
  double c_plain = EstimateDirectCost(plain, gs);
  double c_bounded = EstimateDirectCost(bounded, gs);
  double c_star = EstimateDirectCost(star, gs);
  EXPECT_LT(c_plain, c_bounded);
  EXPECT_LE(c_bounded, c_star);
}

/// Dense bipartite-ish graph: 3 "A" + 3 "B" nodes, every A -> every B and
/// every B -> every A (18 edges, avg out-degree 3) — makes the geometric
/// ball term visible.
Graph DenseABGraph() {
  Graph g;
  std::vector<NodeId> as, bs;
  for (int i = 0; i < 3; ++i) as.push_back(g.AddNode("A"));
  for (int i = 0; i < 3; ++i) bs.push_back(g.AddNode("B"));
  for (NodeId a : as)
    for (NodeId b : bs) (void)g.AddEdge(a, b);
  for (NodeId b : bs)
    for (NodeId a : as) (void)g.AddEdge(b, a);
  return g;
}

TEST(PlannerTest, BoundedCostIsGeometricOnDenseGraphsAndClampedAtE) {
  GraphStatistics gs = ComputeStatistics(DenseABGraph());
  ASSERT_GT(gs.avg_out_degree, 1.0);
  Pattern b1 = PatternBuilder().Node("A").Node("B").Edge("A", "B", 1).Build();
  Pattern b2 = PatternBuilder().Node("A").Node("B").Edge("A", "B", 2).Build();
  Pattern b3 = PatternBuilder().Node("A").Node("B").Edge("A", "B", 3).Build();
  Pattern star =
      PatternBuilder().Node("A").Node("B").Edge("A", "B", kUnbounded).Build();
  double c1 = EstimateDirectCost(b1, gs);
  double c2 = EstimateDirectCost(b2, gs);
  double c3 = EstimateDirectCost(b3, gs);
  double c_star = EstimateDirectCost(star, gs);
  // Geometric, not linear: one extra hop more than doubles the edge term.
  EXPECT_GT(c2, 2.0 * c1 - 6.0 /* node terms appear once in each */);
  // The ball never exceeds the whole graph: depth 3 (ball 39 > |E| = 18)
  // and `*` (capped at 8) both clamp to the same |E|-sized walk.
  EXPECT_DOUBLE_EQ(c3, c_star);
}

}  // namespace
}  // namespace gpmv
