#include "core/rewriting.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "pattern/pattern_builder.h"
#include "simulation/simulation.h"
#include "test_util.h"
#include "workload/graph_gen.h"
#include "workload/paper_fixtures.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

TEST(RewritingTest, FullyContainedQueryIsExact) {
  Fig1Fixture f = MakeFig1();
  auto exts = std::move(MaterializeAll(f.views, *f.g.Freeze())).value();
  Result<PartialAnswer> pa = MaximallyContainedRewriting(f.qs, f.views, exts);
  ASSERT_TRUE(pa.ok()) << pa.status().ToString();
  EXPECT_TRUE(pa->exact);
  EXPECT_EQ(pa->covered_edges.size(), f.qs.num_edges());
  EXPECT_TRUE(pa->uncovered_edges.empty());
  // The rewriting result equals the direct answer.
  Result<MatchResult> direct = MatchSimulation(f.qs, *f.g.Freeze());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(pa->result.TotalMatches(), direct->TotalMatches());
}

TEST(RewritingTest, DropsUncoverableEdge) {
  // Query: A -> B -> Z; views cover only (A, B).
  Pattern q = PatternBuilder()
                  .Node("A").Node("B").Node("Z")
                  .Edge("A", "B").Edge("B", "Z")
                  .Build();
  ViewSet views;
  views.Add("ab", PatternBuilder().Node("A").Node("B").Edge("A", "B").Build());

  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), z = g.AddNode("Z");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, z).ok());
  auto exts = std::move(MaterializeAll(views, *g.Freeze())).value();

  Result<PartialAnswer> pa = MaximallyContainedRewriting(q, views, exts);
  ASSERT_TRUE(pa.ok());
  EXPECT_FALSE(pa->exact);
  EXPECT_EQ(pa->covered_edges, (std::vector<uint32_t>{0}));
  EXPECT_EQ(pa->uncovered_edges, (std::vector<uint32_t>{1}));
  ASSERT_EQ(pa->subquery.num_edges(), 1u);
  EXPECT_EQ(pa->original_edge_of, (std::vector<uint32_t>{0}));
  // The partial answer over-approximates: it reports (a, b) even though the
  // full query constrains B further.
  EXPECT_EQ(pa->result.edge_matches(0), (std::vector<NodePair>{{a, b}}));
}

TEST(RewritingTest, IterativeShrinkingReachesFixpoint) {
  // Query: A -> B -> C. View "chain" is A -> B with B required to have a
  // C-child only via the query's own structure: a view A->B->Z covers
  // nothing, while a view B->C covers (B, C). After dropping (A, B), the
  // view set must be re-checked against the smaller query.
  Pattern q = PatternBuilder()
                  .Node("A").Node("B").Node("C")
                  .Edge("A", "B").Edge("B", "C")
                  .Build();
  ViewSet views;
  // Covers (B, C) only.
  views.Add("bc", PatternBuilder().Node("B").Node("C").Edge("B", "C").Build());

  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, c).ok());
  auto exts = std::move(MaterializeAll(views, *g.Freeze())).value();

  Result<PartialAnswer> pa = MaximallyContainedRewriting(q, views, exts);
  ASSERT_TRUE(pa.ok());
  EXPECT_FALSE(pa->exact);
  EXPECT_EQ(pa->covered_edges, (std::vector<uint32_t>{1}));
  EXPECT_EQ(pa->result.edge_matches(0), (std::vector<NodePair>{{b, c}}));
}

TEST(RewritingTest, CoverageCertificateThroughDroppedEdgeIsRevoked) {
  // Query: A -> B [e0], B -> C [e1], C -> D [e2].
  // View VA = { A -> B, B ->(3) D }: its coverage of e0 is certified by the
  // nonempty path B -> C -> D (weight 2 <= 3) — a path that uses e2. View
  // Vbc covers e1. Nobody covers e2, so round 1 drops e2; that kills VA's
  // certificate, so round 2 must also drop e0, leaving exactly {e1}.
  Pattern q = PatternBuilder()
                  .Node("A").Node("B").Node("C").Node("D")
                  .Edge("A", "B").Edge("B", "C").Edge("C", "D")
                  .Build();
  ViewSet views;
  views.Add("VA", PatternBuilder()
                      .Node("A").Node("B").Node("D")
                      .Edge("A", "B").Edge("B", "D", 3)
                      .Build());
  views.Add("Vbc",
            PatternBuilder().Node("B").Node("C").Edge("B", "C").Build());

  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
  NodeId d = g.AddNode("D");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, c).ok());
  ASSERT_TRUE(g.AddEdge(c, d).ok());
  auto exts = std::move(MaterializeAll(views, *g.Freeze())).value();

  // Sanity: on the full query, VA does cover e0.
  Result<ContainmentMapping> full = CheckContainment(q, views);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->contained);  // e2 uncovered

  Result<PartialAnswer> pa = MaximallyContainedRewriting(q, views, exts);
  ASSERT_TRUE(pa.ok());
  EXPECT_FALSE(pa->exact);
  EXPECT_EQ(pa->covered_edges, (std::vector<uint32_t>{1}));
  EXPECT_EQ(pa->uncovered_edges, (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(pa->result.edge_matches(0), (std::vector<NodePair>{{b, c}}));
}

TEST(RewritingTest, PartialAnswerIsSupersetOfTrueMatches) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    RandomGraphOptions go;
    go.num_nodes = 80;
    go.num_edges = 240;
    go.num_labels = 4;
    go.seed = seed;
    Graph g = GenerateRandomGraph(go);

    RandomPatternOptions po;
    po.num_nodes = 4;
    po.num_edges = 6;
    po.label_pool = SyntheticLabels(4);
    po.seed = seed + 500;
    Pattern q = GenerateRandomPattern(po);

    // Cover only half the edges.
    CoveringViewOptions co;
    co.edges_per_view = 1;
    co.num_distractors = 2;
    co.seed = seed + 7;
    ViewSet all = GenerateCoveringViews(q, co);
    ViewSet half;  // intentionally drop some covering views
    for (size_t i = 0; i < all.card(); i += 2) half.Add(all.view(i));

    auto exts = std::move(MaterializeAll(half, *g.Freeze())).value();
    Result<PartialAnswer> pa = MaximallyContainedRewriting(q, half, exts);
    ASSERT_TRUE(pa.ok());

    Result<MatchResult> direct = MatchSimulation(q, *g.Freeze());
    ASSERT_TRUE(direct.ok());
    if (!direct->matched()) continue;
    // Soundness: every true match of a covered edge appears in the partial
    // answer.
    for (uint32_t se = 0; se < pa->subquery.num_edges(); ++se) {
      uint32_t qe = pa->original_edge_of[se];
      const auto& approx = pa->result.edge_matches(se);
      for (const NodePair& p : direct->edge_matches(qe)) {
        EXPECT_TRUE(std::binary_search(approx.begin(), approx.end(), p))
            << "seed=" << seed;
      }
    }
  }
}

TEST(RewritingTest, ValidatesInputs) {
  Fig1Fixture f = MakeFig1();
  auto exts = std::move(MaterializeAll(f.views, *f.g.Freeze())).value();
  EXPECT_FALSE(MaximallyContainedRewriting(Pattern(), f.views, exts).ok());
  std::vector<ViewExtension> wrong(1);
  EXPECT_FALSE(MaximallyContainedRewriting(f.qs, f.views, wrong).ok());
}

}  // namespace
}  // namespace gpmv
