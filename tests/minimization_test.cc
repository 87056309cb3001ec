#include "core/minimization.h"

#include <gtest/gtest.h>

#include "pattern/pattern_builder.h"
#include "simulation/bounded.h"
#include "simulation/simulation.h"
#include "test_util.h"
#include "workload/graph_gen.h"
#include "workload/paper_fixtures.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

TEST(MinimizationTest, Fig1PatternCollapses) {
  // DBA1 ~ DBA2 and PRG1 ~ PRG2 (Example 2 reports identical match sets
  // for the duplicated edges): 5 nodes / 6 edges -> 3 nodes / 4 edges.
  Fig1Fixture f = MakeFig1();
  Result<MinimizedPattern> m = MinimizePattern(f.qs);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->changed);
  EXPECT_EQ(m->pattern.num_nodes(), 3u);
  EXPECT_EQ(m->pattern.num_edges(), 4u);
  // DBA1 and DBA2 share a class; PM is alone.
  EXPECT_EQ(m->node_map[f.qs.NodeByName("DBA1")],
            m->node_map[f.qs.NodeByName("DBA2")]);
  EXPECT_EQ(m->node_map[f.qs.NodeByName("PRG1")],
            m->node_map[f.qs.NodeByName("PRG2")]);
  EXPECT_NE(m->node_map[f.qs.NodeByName("PM")],
            m->node_map[f.qs.NodeByName("DBA1")]);
  // The duplicated edges map to the same quotient edge.
  EXPECT_EQ(m->edge_map[f.qs.EdgeByName("DBA1", "PRG1")],
            m->edge_map[f.qs.EdgeByName("DBA2", "PRG2")]);
}

TEST(MinimizationTest, QuotientPreservesResultsOnFig1) {
  Fig1Fixture f = MakeFig1();
  MinimizedPattern m = std::move(MinimizePattern(f.qs)).value();
  Result<MatchResult> original = MatchSimulation(f.qs, *f.g.Freeze());
  Result<MatchResult> quotient = MatchSimulation(m.pattern, *f.g.Freeze());
  ASSERT_TRUE(original.ok() && quotient.ok());
  ASSERT_TRUE(original->matched());
  ASSERT_TRUE(quotient->matched());
  for (uint32_t e = 0; e < f.qs.num_edges(); ++e) {
    EXPECT_EQ(original->edge_matches(e),
              quotient->edge_matches(m.edge_map[e]))
        << "edge " << e;
  }
}

TEST(MinimizationTest, AlreadyMinimalPatternUnchanged) {
  Pattern q = testutil::ChainPattern({"A", "B", "C"});
  Result<MinimizedPattern> m = MinimizePattern(q);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->changed);
  EXPECT_EQ(m->pattern.num_nodes(), 3u);
  for (uint32_t u = 0; u < 3; ++u) EXPECT_EQ(m->node_map[u], u);
}

TEST(MinimizationTest, SameLabelDifferentStructureNotMerged) {
  // Two B nodes, one with a C child and one without: not similar.
  Pattern q = PatternBuilder()
                  .Node("A")
                  .Node("B1", "B").Node("B2", "B").Node("C")
                  .Edge("A", "B1").Edge("A", "B2").Edge("B1", "C")
                  .Build();
  Result<MinimizedPattern> m = MinimizePattern(q);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->changed);
}

TEST(MinimizationTest, ParallelBranchesMerge) {
  // A with two identical B -> C branches.
  Pattern q = PatternBuilder()
                  .Node("A")
                  .Node("B1", "B").Node("C1", "C")
                  .Node("B2", "B").Node("C2", "C")
                  .Edge("A", "B1").Edge("B1", "C1")
                  .Edge("A", "B2").Edge("B2", "C2")
                  .Build();
  Result<MinimizedPattern> m = MinimizePattern(q);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->changed);
  EXPECT_EQ(m->pattern.num_nodes(), 3u);
  EXPECT_EQ(m->pattern.num_edges(), 2u);
}

TEST(MinimizationTest, DifferentPredicatesBlockMerge) {
  Pattern q = PatternBuilder()
                  .Node("A")
                  .Node("B1", "B", Predicate().Ge("R", 4))
                  .Node("B2", "B", Predicate().Ge("R", 5))
                  .Edge("A", "B1").Edge("A", "B2")
                  .Build();
  Result<MinimizedPattern> m = MinimizePattern(q);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->changed);
}

TEST(MinimizationTest, EquivalentPredicatesMerge) {
  // Same bound expressed twice; sink B nodes with equivalent conditions.
  Pattern q = PatternBuilder()
                  .Node("A")
                  .Node("B1", "B", Predicate().Ge("R", 4))
                  .Node("B2", "B", Predicate().Ge("R", 4).Ge("R", 3))
                  .Edge("A", "B1").Edge("A", "B2")
                  .Build();
  Result<MinimizedPattern> m = MinimizePattern(q);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->changed);
  EXPECT_EQ(m->pattern.num_nodes(), 2u);
}

TEST(MinimizationTest, DistinctBoundsToDistinctClassesStillMinimize) {
  // A1 ->(2) B1 and A2 ->(3) B2: the sinks merge but A1 !~ A2 (A2 cannot
  // honor A1's bound-2 obligation), so the quotient keeps both sources and
  // both edges — sound and strictly smaller.
  Pattern q = PatternBuilder()
                  .Node("A1", "A").Node("A2", "A")
                  .Node("B1", "B").Node("B2", "B")
                  .Edge("A1", "B1", 2).Edge("A2", "B2", 3)
                  .Build();
  Result<MinimizedPattern> m = MinimizePattern(q);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->changed);
  EXPECT_EQ(m->pattern.num_nodes(), 3u);
  EXPECT_EQ(m->pattern.num_edges(), 2u);
  EXPECT_NE(m->node_map[0], m->node_map[1]);  // A1, A2 stay apart
  EXPECT_EQ(m->node_map[2], m->node_map[3]);  // B1 ~ B2
}

TEST(MinimizationTest, ConflictingBoundsRefuseMinimization) {
  // A1 ~ A2 (A2's extra bound-2 edge satisfies A1's obligation) and all B
  // sinks are similar, but the class pair (A, B) would need edges with
  // bounds 2 AND 3 at once; collapsing would change match-set semantics,
  // so minimization conservatively refuses.
  Pattern q = PatternBuilder()
                  .Node("A1", "A").Node("A2", "A")
                  .Node("B1", "B").Node("B2", "B").Node("B3", "B")
                  .Edge("A1", "B1", 2)
                  .Edge("A2", "B2", 3)
                  .Edge("A2", "B3", 2)
                  .Build();
  ASSERT_EQ(SimilarityClasses(q)[0], SimilarityClasses(q)[1]);
  Result<MinimizedPattern> m = MinimizePattern(q);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->changed);
  EXPECT_EQ(m->pattern.num_edges(), q.num_edges());
}

TEST(MinimizationTest, BoundedQuotientPreservesResults) {
  Pattern q = PatternBuilder()
                  .Node("A")
                  .Node("B1", "B").Node("B2", "B")
                  .Edge("A", "B1", 2).Edge("A", "B2", 2)
                  .Build();
  Result<MinimizedPattern> m = MinimizePattern(q);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->changed);

  Graph g = testutil::ChainGraph({"A", "X", "B"});
  Result<MatchResult> original = MatchBoundedSimulation(q, *g.Freeze());
  Result<MatchResult> quotient =
      MatchBoundedSimulation(m->pattern, *g.Freeze());
  ASSERT_TRUE(original.ok() && quotient.ok());
  EXPECT_EQ(original->matched(), quotient->matched());
  for (uint32_t e = 0; e < q.num_edges(); ++e) {
    EXPECT_EQ(original->edge_matches(e),
              quotient->edge_matches(m->edge_map[e]));
  }
}

TEST(MinimizationTest, RandomizedQuotientEquivalence) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RandomPatternOptions po;
    po.num_nodes = 4;
    po.num_edges = 6;
    po.label_pool = {"A", "B"};  // few labels force collapses
    po.seed = seed;
    Pattern q = GenerateRandomPattern(po);
    MinimizedPattern m = std::move(MinimizePattern(q)).value();

    RandomGraphOptions go;
    go.num_nodes = 60;
    go.num_edges = 200;
    go.num_labels = 2;
    go.seed = seed + 100;
    Graph g = GenerateRandomGraph(go);

    Result<MatchResult> original = MatchSimulation(q, *g.Freeze());
    Result<MatchResult> quotient = MatchSimulation(m.pattern, *g.Freeze());
    ASSERT_TRUE(original.ok() && quotient.ok());
    ASSERT_EQ(original->matched(), quotient->matched()) << "seed=" << seed;
    if (!original->matched()) continue;
    for (uint32_t e = 0; e < q.num_edges(); ++e) {
      EXPECT_EQ(original->edge_matches(e),
                quotient->edge_matches(m.edge_map[e]))
          << "seed=" << seed << " edge=" << e;
    }
  }
}

TEST(MinimizationTest, RejectsEmptyPattern) {
  EXPECT_FALSE(MinimizePattern(Pattern()).ok());
}

}  // namespace
}  // namespace gpmv
