#include <gtest/gtest.h>

#include <algorithm>

#include "pattern/pattern_builder.h"
#include "simulation/dual.h"
#include "simulation/simulation.h"
#include "simulation/strong.h"
#include "test_util.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

using testutil::ChainGraph;
using testutil::ChainPattern;

bool RelationContained(const std::vector<std::vector<NodeId>>& inner,
                       const std::vector<std::vector<NodeId>>& outer) {
  for (size_t u = 0; u < inner.size(); ++u) {
    for (NodeId v : inner[u]) {
      if (!std::binary_search(outer[u].begin(), outer[u].end(), v)) {
        return false;
      }
    }
  }
  return true;
}

TEST(DualSimulationTest, ParentConditionPrunes) {
  // Graph: A -> B, and an orphan B with no A parent.
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), orphan = g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  (void)orphan;
  Pattern q = ChainPattern({"A", "B"});

  std::vector<std::vector<NodeId>> dual;
  ASSERT_TRUE(ComputeDualSimulationRelation(q, *g.Freeze(), &dual).ok());
  EXPECT_EQ(dual[0], (std::vector<NodeId>{a}));
  EXPECT_EQ(dual[1], (std::vector<NodeId>{b}));  // orphan pruned

  // Plain simulation keeps the orphan (it has no forward obligations).
  std::vector<std::vector<NodeId>> sim;
  ASSERT_TRUE(ComputeSimulationRelation(q, *g.Freeze(), &sim).ok());
  EXPECT_EQ(sim[1], (std::vector<NodeId>{b, orphan}));
}

TEST(DualSimulationTest, ContainedInSimulation) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    RandomGraphOptions go;
    go.num_nodes = 40;
    go.num_edges = 100;
    go.num_labels = 3;
    go.seed = seed;
    Graph g = GenerateRandomGraph(go);
    RandomPatternOptions po;
    po.num_nodes = 3;
    po.num_edges = 4;
    po.label_pool = SyntheticLabels(3);
    po.seed = seed + 99;
    Pattern q = GenerateRandomPattern(po);

    std::vector<std::vector<NodeId>> sim, dual;
    ASSERT_TRUE(ComputeSimulationRelation(q, *g.Freeze(), &sim).ok());
    ASSERT_TRUE(ComputeDualSimulationRelation(q, *g.Freeze(), &dual).ok());
    EXPECT_TRUE(RelationContained(dual, sim)) << "seed=" << seed;
  }
}

TEST(DualSimulationTest, MatchProducesEdgeSets) {
  Graph g = ChainGraph({"A", "B", "C"});
  Pattern q = ChainPattern({"A", "B", "C"});
  Result<MatchResult> r = MatchDualSimulation(q, *g.Freeze());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{0, 1}}));
  EXPECT_EQ(r->edge_matches(1), (std::vector<NodePair>{{1, 2}}));
}

TEST(DualSimulationTest, NoMatchWhenParentMissing) {
  // Pattern A -> B but the graph's only B has no incoming A.
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  Pattern q = ChainPattern({"A", "B"});
  Result<MatchResult> r = MatchDualSimulation(q, *g.Freeze());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->matched());
}

TEST(DualSimulationTest, RejectsBoundedPattern) {
  Graph g = ChainGraph({"A", "B"});
  Pattern q;
  uint32_t a = q.AddNode("A"), b = q.AddNode("B");
  ASSERT_TRUE(q.AddEdge(a, b, 2).ok());
  EXPECT_FALSE(MatchDualSimulation(q, *g.Freeze()).ok());
}

TEST(StrongSimulationTest, RadiusIsUndirectedWeightedDiameter) {
  Pattern q = PatternBuilder()
                  .Node("A").Node("B").Node("C")
                  .Edge("A", "B").Edge("C", "B")
                  .Build();
  // Undirected: A-B = 1, B-C = 1, A-C = 2.
  EXPECT_EQ(StrongSimulationRadius(q), 2u);

  Pattern star = PatternBuilder()
                     .Node("A").Node("B")
                     .Edge("A", "B", kUnbounded)
                     .Build();
  EXPECT_EQ(StrongSimulationRadius(star), kInfDistance);
}

TEST(StrongSimulationTest, FindsLocalizedMatch) {
  // Two A->B components far apart; each ball yields a match.
  Graph g;
  NodeId a1 = g.AddNode("A"), b1 = g.AddNode("B");
  NodeId a2 = g.AddNode("A"), b2 = g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(a1, b1).ok());
  ASSERT_TRUE(g.AddEdge(a2, b2).ok());
  Pattern q = ChainPattern({"A", "B"});
  Result<std::vector<StrongMatch>> matches =
      MatchStrongSimulation(q, *g.Freeze());
  ASSERT_TRUE(matches.ok());
  // Every node is a candidate center and every ball matches.
  EXPECT_EQ(matches->size(), 4u);
  for (const StrongMatch& m : *matches) {
    EXPECT_EQ(m.relation.size(), 2u);
    EXPECT_FALSE(m.relation[0].empty());
  }
}

TEST(StrongSimulationTest, LocalityExcludesRemoteSupport) {
  // Chain A -> B -> C with pattern A -> B -> C has diameter 2; a center at
  // the C end still sees the whole chain, but a long chain of X nodes
  // appended after C pushes distant nodes out of balls centered on them.
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
  NodeId x1 = g.AddNode("X"), x2 = g.AddNode("X"), x3 = g.AddNode("X");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, c).ok());
  ASSERT_TRUE(g.AddEdge(c, x1).ok());
  ASSERT_TRUE(g.AddEdge(x1, x2).ok());
  ASSERT_TRUE(g.AddEdge(x2, x3).ok());
  Pattern q = ChainPattern({"A", "B", "C"});
  Result<std::vector<StrongMatch>> matches =
      MatchStrongSimulation(q, *g.Freeze());
  ASSERT_TRUE(matches.ok());
  // Centers a, b, c match; X nodes are not candidates.
  EXPECT_EQ(matches->size(), 3u);
}

TEST(StrongSimulationTest, ContainedInDual) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    RandomGraphOptions go;
    go.num_nodes = 25;
    go.num_edges = 60;
    go.num_labels = 3;
    go.seed = seed;
    Graph g = GenerateRandomGraph(go);
    RandomPatternOptions po;
    po.num_nodes = 3;
    po.num_edges = 3;
    po.label_pool = SyntheticLabels(3);
    po.seed = seed + 7;
    Pattern q = GenerateRandomPattern(po);

    std::vector<std::vector<NodeId>> dual;
    ASSERT_TRUE(ComputeDualSimulationRelation(q, *g.Freeze(), &dual).ok());
    Result<std::vector<StrongMatch>> matches =
        MatchStrongSimulation(q, *g.Freeze());
    ASSERT_TRUE(matches.ok());
    // Every ball relation is contained in the global dual relation
    // ([28], Theorem: strong refines dual).
    for (const StrongMatch& m : *matches) {
      EXPECT_TRUE(RelationContained(m.relation, dual)) << "seed=" << seed;
    }
  }
}

TEST(StrongSimulationTest, MaxMatchesCap) {
  Graph g;
  for (int i = 0; i < 5; ++i) {
    NodeId a = g.AddNode("A"), b = g.AddNode("B");
    ASSERT_TRUE(g.AddEdge(a, b).ok());
  }
  Pattern q = ChainPattern({"A", "B"});
  Result<std::vector<StrongMatch>> matches =
      MatchStrongSimulation(q, *g.Freeze(), 3);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 3u);
}

}  // namespace
}  // namespace gpmv
