#include "simulation/simulation.h"

#include <gtest/gtest.h>

#include "pattern/pattern_builder.h"
#include "test_util.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

using testutil::ChainGraph;
using testutil::ChainPattern;

TEST(SimulationTest, ChainPatternOnChainGraph) {
  Graph g = ChainGraph({"A", "B", "C"});
  Pattern q = ChainPattern({"A", "B", "C"});
  Result<MatchResult> r = MatchSimulation(q, *g.Freeze());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{0, 1}}));
  EXPECT_EQ(r->edge_matches(1), (std::vector<NodePair>{{1, 2}}));
  EXPECT_EQ(r->TotalMatches(), 2u);
}

TEST(SimulationTest, MissingLabelYieldsEmpty) {
  Graph g = ChainGraph({"A", "B"});
  Pattern q = ChainPattern({"A", "Z"});
  Result<MatchResult> r = MatchSimulation(q, *g.Freeze());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->matched());
  EXPECT_EQ(r->TotalMatches(), 0u);
}

TEST(SimulationTest, StructuralPruningCascades) {
  // Graph: A1 -> B1 -> C1 and A2 -> B2 (B2 lacks a C successor).
  Graph g;
  NodeId a1 = g.AddNode("A"), b1 = g.AddNode("B"), c1 = g.AddNode("C");
  NodeId a2 = g.AddNode("A"), b2 = g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(a1, b1).ok());
  ASSERT_TRUE(g.AddEdge(b1, c1).ok());
  ASSERT_TRUE(g.AddEdge(a2, b2).ok());
  Pattern q = ChainPattern({"A", "B", "C"});
  Result<MatchResult> r = MatchSimulation(q, *g.Freeze());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  // a2 must be pruned: its only B successor cannot reach a C.
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{a1, b1}}));
  EXPECT_EQ(r->node_matches(0), (std::vector<NodeId>{a1}));
}

TEST(SimulationTest, CyclicPatternNeedsCycle) {
  Pattern q = PatternBuilder()
                  .Node("A").Node("B")
                  .Edge("A", "B").Edge("B", "A")
                  .Build();
  Graph chain = ChainGraph({"A", "B"});
  Result<MatchResult> r1 = MatchSimulation(q, *chain.Freeze());
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->matched());

  Graph cyc;
  NodeId a = cyc.AddNode("A"), b = cyc.AddNode("B");
  ASSERT_TRUE(cyc.AddEdge(a, b).ok());
  ASSERT_TRUE(cyc.AddEdge(b, a).ok());
  Result<MatchResult> r2 = MatchSimulation(q, *cyc.Freeze());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r2->matched());
  EXPECT_EQ(r2->edge_matches(0), (std::vector<NodePair>{{a, b}}));
  EXPECT_EQ(r2->edge_matches(1), (std::vector<NodePair>{{b, a}}));
}

TEST(SimulationTest, PredicateRestrictsCandidates) {
  Graph g;
  AttributeSet hi, lo;
  hi.Set("R", AttrValue(5));
  lo.Set("R", AttrValue(2));
  NodeId v_hi = g.AddNode("V", std::move(hi));
  NodeId v_lo = g.AddNode("V", std::move(lo));
  NodeId w = g.AddNode("W");
  ASSERT_TRUE(g.AddEdge(v_hi, w).ok());
  ASSERT_TRUE(g.AddEdge(v_lo, w).ok());

  Pattern q;
  uint32_t pv = q.AddNode("V", Predicate().Ge("R", 4));
  uint32_t pw = q.AddNode("W");
  ASSERT_TRUE(q.AddEdge(pv, pw).ok());

  Result<MatchResult> r = MatchSimulation(q, *g.Freeze());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{v_hi, w}}));
}

TEST(SimulationTest, WildcardLabelMatchesAnything) {
  Graph g = ChainGraph({"A", "B"});
  Pattern q;
  uint32_t u = q.AddNode("");
  uint32_t v = q.AddNode("B");
  ASSERT_TRUE(q.AddEdge(u, v).ok());
  Result<MatchResult> r = MatchSimulation(q, *g.Freeze());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{0, 1}}));
}

TEST(SimulationTest, MultiLabelNodesMatchEitherLabel) {
  Graph g;
  NodeId ab = g.AddNode(std::vector<std::string>{"A", "B"});
  NodeId c = g.AddNode("C");
  ASSERT_TRUE(g.AddEdge(ab, c).ok());
  Pattern q = ChainPattern({"B", "C"});
  Result<MatchResult> r = MatchSimulation(q, *g.Freeze());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  EXPECT_EQ(r->edge_matches(0), (std::vector<NodePair>{{ab, c}}));
}

TEST(SimulationTest, RejectsBoundedPattern) {
  Graph g = ChainGraph({"A", "B"});
  Pattern q;
  uint32_t a = q.AddNode("A"), b = q.AddNode("B");
  ASSERT_TRUE(q.AddEdge(a, b, 2).ok());
  Result<MatchResult> r = MatchSimulation(q, *g.Freeze());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

TEST(SimulationTest, RejectsEmptyPattern) {
  Graph g = ChainGraph({"A"});
  EXPECT_FALSE(MatchSimulation(Pattern(), *g.Freeze()).ok());
}

TEST(SimulationTest, SeededRelationRefines) {
  Graph g = ChainGraph({"A", "B", "C"});
  Pattern q = ChainPattern({"A", "B"});
  std::vector<std::vector<NodeId>> seed{{0}, {1}};
  std::vector<std::vector<NodeId>> sim;
  ASSERT_TRUE(ComputeSimulationRelation(q, *g.Freeze(), &sim, &seed).ok());
  EXPECT_EQ(sim[0], (std::vector<NodeId>{0}));
  EXPECT_EQ(sim[1], (std::vector<NodeId>{1}));

  // A seed that omits the only valid match drains the relation.
  std::vector<std::vector<NodeId>> bad_seed{{0}, {2}};
  ASSERT_TRUE(ComputeSimulationRelation(q, *g.Freeze(), &sim, &bad_seed).ok());
  EXPECT_TRUE(sim[0].empty());
}

// Randomized agreement with the brute-force oracle.
class SimulationOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulationOracleTest, AgreesWithBruteForce) {
  const uint64_t seed = GetParam();
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
  po.seed = seed * 31 + 1;
  Pattern q = GenerateRandomPattern(po);

  Result<MatchResult> fast = MatchSimulation(q, *g.Freeze());
  ASSERT_TRUE(fast.ok());
  MatchResult oracle = testutil::OracleMatch(q, g);
  EXPECT_EQ(*fast == oracle, true)
      << "seed=" << seed << "\npattern:\n" << q.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationOracleTest,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace gpmv
