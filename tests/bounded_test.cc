#include "simulation/bounded.h"

#include <gtest/gtest.h>

#include "pattern/pattern_builder.h"
#include "simulation/simulation.h"
#include "test_util.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

using testutil::ChainGraph;
using testutil::ChainPattern;

Pattern BoundedEdge(const std::string& a, const std::string& b,
                    uint32_t bound) {
  return PatternBuilder().Node(a).Node(b).Edge(a, b, bound).Build();
}

TEST(BoundedTest, TwoHopPathMatchesBoundTwo) {
  Graph g = ChainGraph({"A", "X", "B"});
  Result<MatchResult> r =
      MatchBoundedSimulation(BoundedEdge("A", "B", 2), *g.Freeze());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{0, 2}}));
}

TEST(BoundedTest, BoundTooSmallFails) {
  Graph g = ChainGraph({"A", "X", "X", "B"});
  Result<MatchResult> r =
      MatchBoundedSimulation(BoundedEdge("A", "B", 2), *g.Freeze());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->matched());
}

TEST(BoundedTest, StarBoundReachesAnyDistance) {
  Graph g = ChainGraph({"A", "X", "X", "X", "X", "B"});
  Result<MatchResult> r =
      MatchBoundedSimulation(BoundedEdge("A", "B", kUnbounded), *g.Freeze());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{0, 5}}));
}

TEST(BoundedTest, PathMustBeNonempty) {
  // Pattern A ->(2) A on a single A node with no cycle: distance 0 does not
  // count, so there is no match.
  Graph g;
  g.AddNode("A");
  Pattern q;
  uint32_t u = q.AddNode("A"), v = q.AddNode("A");
  ASSERT_TRUE(q.AddEdge(u, v, 2).ok());
  Result<MatchResult> r = MatchBoundedSimulation(q, *g.Freeze());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->matched());
}

TEST(BoundedTest, SelfMatchThroughCycle) {
  // A -> B -> A: the A node reaches itself by a nonempty path of length 2.
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, a).ok());
  Pattern q;
  uint32_t u = q.AddNode("A"), v = q.AddNode("A");
  ASSERT_TRUE(q.AddEdge(u, v, 2).ok());
  std::vector<std::vector<uint32_t>> dist;
  Result<MatchResult> r = MatchBoundedSimulation(q, *g.Freeze(), &dist);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{a, a}}));
  EXPECT_EQ(dist[0], (std::vector<uint32_t>{2}));
}

TEST(BoundedTest, DistancesAreShortestPaths) {
  // A -> B and A -> X -> B: the (A,B) distance must be 1, not 2.
  Graph g;
  NodeId a = g.AddNode("A"), x = g.AddNode("X"), b = g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(a, x).ok());
  ASSERT_TRUE(g.AddEdge(x, b).ok());
  std::vector<std::vector<uint32_t>> dist;
  Result<MatchResult> r =
      MatchBoundedSimulation(BoundedEdge("A", "B", 3), *g.Freeze(), &dist);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  ASSERT_EQ(r->edge_matches(0).size(), 1u);
  EXPECT_EQ(dist[0][0], 1u);
}

TEST(BoundedTest, LargerBoundCollectsMorePairs) {
  Graph g = ChainGraph({"A", "B", "B", "B"});
  std::vector<std::vector<uint32_t>> dist;
  Result<MatchResult> r =
      MatchBoundedSimulation(BoundedEdge("A", "B", 3), *g.Freeze(), &dist);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  EXPECT_EQ(r->edge_matches(0),
            (std::vector<NodePair>{{0, 1}, {0, 2}, {0, 3}}));
  EXPECT_EQ(dist[0], (std::vector<uint32_t>{1, 2, 3}));
}

TEST(BoundedTest, TransitiveBoundedConstraintsPrune) {
  // Pattern A ->(2) B ->(2) C. Graph has A -> x -> B1 (B1 has no C within
  // 2) and A -> B2 -> y -> C.
  Graph g;
  NodeId a = g.AddNode("A"), x = g.AddNode("X"), b1 = g.AddNode("B");
  NodeId b2 = g.AddNode("B"), y = g.AddNode("Y"), c = g.AddNode("C");
  ASSERT_TRUE(g.AddEdge(a, x).ok());
  ASSERT_TRUE(g.AddEdge(x, b1).ok());
  ASSERT_TRUE(g.AddEdge(a, b2).ok());
  ASSERT_TRUE(g.AddEdge(b2, y).ok());
  ASSERT_TRUE(g.AddEdge(y, c).ok());
  Pattern q = PatternBuilder()
                  .Node("A").Node("B").Node("C")
                  .Edge("A", "B", 2).Edge("B", "C", 2)
                  .Build();
  Result<MatchResult> r = MatchBoundedSimulation(q, *g.Freeze());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  // b1 is not a valid B (no C within 2), so (a, b1) must be absent.
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{a, b2}}));
  EXPECT_EQ(r->edge_matches(1), (std::vector<NodePair>{{b2, c}}));
}

TEST(BoundedTest, UnitBoundsAgreeWithSimulation) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    RandomGraphOptions go;
    go.num_nodes = 50;
    go.num_edges = 120;
    go.num_labels = 4;
    go.seed = seed;
    Graph g = GenerateRandomGraph(go);
    RandomPatternOptions po;
    po.num_nodes = 4;
    po.num_edges = 5;
    po.label_pool = SyntheticLabels(4);
    po.seed = seed + 1000;
    Pattern q = GenerateRandomPattern(po);

    Result<MatchResult> plain = MatchSimulation(q, *g.Freeze());
    Result<MatchResult> bounded = MatchBoundedSimulation(q, *g.Freeze());
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(bounded.ok());
    EXPECT_TRUE(*plain == *bounded) << "seed=" << seed;
  }
}

TEST(BoundedTest, NaiveBaselineAgreesWithOptimizedMatcher) {
  // MatchBoundedSimulationNaive is the paper's cubic baseline; it must
  // produce exactly the same results (and distances) as the optimized
  // implementation.
  for (uint64_t seed = 0; seed < 12; ++seed) {
    RandomGraphOptions go;
    go.num_nodes = 60;
    go.num_edges = 150;
    go.num_labels = 4;
    go.seed = seed;
    Graph g = GenerateRandomGraph(go);
    RandomPatternOptions po;
    po.num_nodes = 3 + seed % 3;
    po.num_edges = po.num_nodes + 1;
    po.label_pool = SyntheticLabels(4);
    po.max_bound = 3;
    po.star_prob = (seed % 3 == 0) ? 0.2 : 0.0;
    po.seed = seed + 2000;
    Pattern q = GenerateRandomPattern(po);

    std::vector<std::vector<uint32_t>> d_fast, d_naive;
    Result<MatchResult> fast = MatchBoundedSimulation(q, *g.Freeze(), &d_fast);
    Result<MatchResult> naive = MatchBoundedSimulationNaive(q, g, &d_naive);
    ASSERT_TRUE(fast.ok() && naive.ok());
    EXPECT_TRUE(*fast == *naive) << "seed=" << seed;
    EXPECT_EQ(d_fast, d_naive) << "seed=" << seed;
  }
}

TEST(BoundedTest, SeededRelationShapeValidated) {
  Graph g = ChainGraph({"A", "B"});
  Pattern q = ChainPattern({"A", "B"});
  std::vector<std::vector<NodeId>> wrong_shape{{0}};
  std::vector<std::vector<NodeId>> sim;
  EXPECT_FALSE(
      ComputeBoundedSimulationRelation(q, *g.Freeze(), &sim,
                                       &wrong_shape).ok());
}

TEST(BoundedTest, CandidateSetsHonorPredicates) {
  Graph g;
  AttributeSet a1, a2;
  a1.Set("R", AttrValue(5));
  a2.Set("R", AttrValue(1));
  g.AddNode("V", std::move(a1));
  g.AddNode("V", std::move(a2));
  Pattern q;
  q.AddNode("V", Predicate().Ge("R", 3));
  std::vector<std::vector<NodeId>> cand;
  ASSERT_TRUE(ComputeCandidateSets(q, g, &cand).ok());
  EXPECT_EQ(cand[0], (std::vector<NodeId>{0}));
}

}  // namespace
}  // namespace gpmv
