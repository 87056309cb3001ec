/// End-to-end reproduction of the paper's worked examples (Examples 2-9)
/// against the fixtures of Figs. 1, 3, 4 and 6.

#include <gtest/gtest.h>

#include "core/bmatch_join.h"
#include "core/containment.h"
#include "core/match_join.h"
#include "core/view_match.h"
#include "pattern/pattern_builder.h"
#include "simulation/bounded.h"
#include "simulation/simulation.h"
#include "test_util.h"
#include "workload/paper_fixtures.h"

namespace gpmv {
namespace {

// ------------------------------------------------------------- Example 2 --
// Qs(G) on the Fig. 1 network, computed directly.
TEST(PaperExamples, Example2DirectEvaluation) {
  Fig1Fixture f = MakeFig1();
  Result<MatchResult> r = MatchSimulation(f.qs, *f.g.Freeze());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());

  auto pairs = [&](std::initializer_list<std::pair<const char*, const char*>>
                       names) {
    std::vector<NodePair> out;
    for (const auto& [a, b] : names) out.emplace_back(f.node(a), f.node(b));
    return testutil::Sorted(out);
  };
  EXPECT_EQ(r->edge_matches(f.qs.EdgeByName("PM", "DBA1")),
            pairs({{"Bob", "Mat"}, {"Walt", "Mat"}}));
  EXPECT_EQ(r->edge_matches(f.qs.EdgeByName("PM", "PRG2")),
            pairs({{"Bob", "Dan"}, {"Walt", "Bill"}}));
  EXPECT_EQ(r->edge_matches(f.qs.EdgeByName("DBA1", "PRG1")),
            pairs({{"Fred", "Pat"}, {"Mat", "Pat"}, {"Mary", "Bill"}}));
  EXPECT_EQ(r->edge_matches(f.qs.EdgeByName("DBA2", "PRG2")),
            pairs({{"Fred", "Pat"}, {"Mat", "Pat"}, {"Mary", "Bill"}}));
  EXPECT_EQ(
      r->edge_matches(f.qs.EdgeByName("PRG1", "DBA2")),
      pairs({{"Dan", "Fred"}, {"Pat", "Mary"}, {"Pat", "Mat"}, {"Bill", "Mat"}}));
  EXPECT_EQ(
      r->edge_matches(f.qs.EdgeByName("PRG2", "DBA1")),
      pairs({{"Dan", "Fred"}, {"Pat", "Mary"}, {"Pat", "Mat"}, {"Bill", "Mat"}}));
  // Bob and Walt match PM (node-level view of the same result).
  std::vector<NodeId> pms{f.node("Bob"), f.node("Walt")};
  std::sort(pms.begin(), pms.end());
  EXPECT_EQ(r->node_matches(f.qs.NodeByName("PM")), pms);
}

// ------------------------------------------------------------- Example 3 --
// Qs ⊑ {V1, V2} with λ assigning each query edge to its view counterpart.
TEST(PaperExamples, Example3PatternContainment) {
  Fig1Fixture f = MakeFig1();
  Result<ContainmentMapping> m = CheckContainment(f.qs, f.views);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->contained);

  auto lambda_of = [&](const char* a, const char* b) {
    return m->lambda[f.qs.EdgeByName(a, b)];
  };
  // (PM,DBA1), (PM,PRG2) -> V1's e1, e2.
  EXPECT_EQ(lambda_of("PM", "DBA1"),
            (std::vector<ViewEdgeRef>{{0, 0}}));
  EXPECT_EQ(lambda_of("PM", "PRG2"),
            (std::vector<ViewEdgeRef>{{0, 1}}));
  // Both DBA->PRG edges -> e3; both PRG->DBA edges -> e4 in V2.
  EXPECT_EQ(lambda_of("DBA1", "PRG1"), (std::vector<ViewEdgeRef>{{1, 0}}));
  EXPECT_EQ(lambda_of("DBA2", "PRG2"), (std::vector<ViewEdgeRef>{{1, 0}}));
  EXPECT_EQ(lambda_of("PRG1", "DBA2"), (std::vector<ViewEdgeRef>{{1, 1}}));
  EXPECT_EQ(lambda_of("PRG2", "DBA1"), (std::vector<ViewEdgeRef>{{1, 1}}));
}

// ------------------------------------------------------------- Example 4 --
// MatchJoin on Fig. 1 equals Example 2's table; on Fig. 3, MatchJoin merges
// the views and removes (AI1, SE1), agreeing with the direct evaluation
// under the paper's simulation definition. (The example's narration also
// drops (SE1,DB2)/(DB2,AI2), which the definition retains — see DESIGN.md.)
TEST(PaperExamples, Example4MatchJoin) {
  {
    Fig1Fixture f = MakeFig1();
    auto exts = MaterializeAll(f.views, *f.g.Freeze());
    auto m = CheckContainment(f.qs, f.views);
    Result<MatchResult> joined = MatchJoin(f.qs, f.views, *exts, *m);
    Result<MatchResult> direct = MatchSimulation(f.qs, *f.g.Freeze());
    ASSERT_TRUE(joined.ok() && direct.ok());
    EXPECT_TRUE(*joined == *direct);
  }
  {
    Fig3Fixture f = MakeFig3();
    auto exts = MaterializeAll(f.views, *f.g.Freeze());
    auto m = CheckContainment(f.qs, f.views);
    ASSERT_TRUE(m->contained);
    MatchJoinStats stats;
    Result<MatchResult> joined =
        MatchJoin(f.qs, f.views, *exts, *m, MatchJoinOptions{}, &stats);
    ASSERT_TRUE(joined.ok());
    ASSERT_TRUE(joined->matched());
    // (AI1, SE1) was merged in from V2 and then removed by the fixpoint.
    std::vector<NodePair> ai_se =
        joined->edge_matches(f.qs.EdgeByName("AI", "SE"));
    EXPECT_EQ(ai_se, (std::vector<NodePair>{{f.node("AI2"), f.node("SE2")}}));
    EXPECT_GE(stats.removed_pairs, 1u);
    EXPECT_TRUE(*joined == *MatchSimulation(f.qs, *f.g.Freeze()));
  }
}

// ------------------------------------------------------------- Example 5 --
// View matches over Fig. 1 and the Fig. 4 table (detailed per-view checks
// live in view_match_test.cc).
TEST(PaperExamples, Example5ContainViaViewMatches) {
  Fig4Fixture f = MakeFig4();
  Result<ContainmentMapping> m = CheckContainment(f.qs, f.views);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->contained);

  // Union of view matches is exactly Ep (Proposition 7).
  std::vector<char> covered(f.qs.num_edges(), 0);
  for (size_t vi = 0; vi < f.views.card(); ++vi) {
    auto vm = ComputeViewMatch(f.views.view(vi).pattern, f.qs);
    ASSERT_TRUE(vm.ok());
    for (uint32_t e : vm->covered) covered[e] = 1;
  }
  for (char c : covered) EXPECT_TRUE(c);
}

// ------------------------------------------------------------- Example 6 --
TEST(PaperExamples, Example6Minimal) {
  Fig4Fixture f = MakeFig4();
  Result<ContainmentMapping> m = MinimalContainment(f.qs, f.views);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->contained);
  EXPECT_EQ(m->selected, (std::vector<uint32_t>{1, 2, 3}));  // {V2, V3, V4}
}

// ------------------------------------------------------------- Example 7 --
TEST(PaperExamples, Example7Minimum) {
  Fig4Fixture f = MakeFig4();
  Result<ContainmentMapping> m = MinimumContainment(f.qs, f.views);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->contained);
  EXPECT_EQ(m->selected, (std::vector<uint32_t>{4, 5}));  // {V5, V6}
}

// ------------------------------------------------------------- Example 8 --
// Bounded pattern over the Fig. 3 graph: fe(AI, Bio) = 2 adds (AI1, Bio1)
// via the 2-hop path AI1 -> SE1 -> ... — in our fixture AI1's 2-hop
// neighborhood, plus all other matches of the published table.
TEST(PaperExamples, Example8BoundedEvaluation) {
  Fig3Fixture f = MakeFig3();
  // Qb: same nodes/edges as Qs, fe(AI,Bio) = 2, all other edges 1.
  Pattern qb = PatternBuilder()
                   .Node("PM").Node("AI").Node("Bio").Node("DB").Node("SE")
                   .Edge("PM", "AI")
                   .Edge("AI", "Bio", 2)
                   .Edge("DB", "AI")
                   .Edge("AI", "SE")
                   .Edge("SE", "DB")
                   .Build();
  // The paper's Example 8 table relies on AI1 reaching Bio1 within 2 hops
  // (via SE1) and on an edge PM1 -> AI1. Our Fig. 3 fixture reconstructs
  // only the edges witnessed by the view extensions (the figure itself is
  // partially illegible), so add the two extra edges to realize the same
  // scenario as the example.
  ASSERT_TRUE(f.g.AddEdge(f.node("SE1"), f.node("Bio1")).ok());
  ASSERT_TRUE(f.g.AddEdge(f.node("PM1"), f.node("AI1")).ok());

  Result<MatchResult> r = MatchBoundedSimulation(qb, *f.g.Freeze());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  auto pairs = [&](std::initializer_list<std::pair<const char*, const char*>>
                       names) {
    std::vector<NodePair> out;
    for (const auto& [a, b] : names) out.emplace_back(f.node(a), f.node(b));
    return testutil::Sorted(out);
  };
  EXPECT_EQ(r->edge_matches(qb.EdgeByName("PM", "AI")),
            pairs({{"PM1", "AI1"}, {"PM1", "AI2"}}));
  EXPECT_EQ(r->edge_matches(qb.EdgeByName("AI", "Bio")),
            pairs({{"AI1", "Bio1"}, {"AI2", "Bio1"}}));
  EXPECT_EQ(r->edge_matches(qb.EdgeByName("AI", "SE")),
            pairs({{"AI1", "SE1"}, {"AI2", "SE2"}}));
  EXPECT_EQ(r->edge_matches(qb.EdgeByName("SE", "DB")),
            pairs({{"SE1", "DB2"}, {"SE2", "DB1"}}));
  EXPECT_EQ(r->edge_matches(qb.EdgeByName("DB", "AI")),
            pairs({{"DB1", "AI2"}, {"DB2", "AI2"}}));
}

// ------------------------------------------------------------- Example 9 --
TEST(PaperExamples, Example9BoundedViewMatches) {
  Fig6Fixture f = MakeFig6();
  auto v3 = ComputeViewMatch(f.views.view(2).pattern, f.qb);
  ASSERT_TRUE(v3.ok());
  std::vector<uint32_t> expected{f.qb.EdgeByName("A", "B"),
                                 f.qb.EdgeByName("B", "E")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(v3->covered, expected);

  auto v7 = ComputeViewMatch(f.views.view(6).pattern, f.qb);
  ASSERT_TRUE(v7.ok());
  EXPECT_TRUE(v7->covered.empty());

  // Bounded containment holds via V1..V6 (Theorem 8 machinery).
  Result<ContainmentMapping> m = CheckContainment(f.qb, f.views);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->contained);
}

}  // namespace
}  // namespace gpmv
