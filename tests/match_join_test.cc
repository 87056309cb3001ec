#include "core/match_join.h"

#include <gtest/gtest.h>

#include <functional>

#include "core/containment.h"
#include "pattern/pattern_builder.h"
#include "simulation/simulation.h"
#include "test_util.h"
#include "workload/paper_fixtures.h"

namespace gpmv {
namespace {

std::vector<NodePair> Pairs(
    const Graph& g, const std::function<NodeId(const std::string&)>& node,
    std::initializer_list<std::pair<const char*, const char*>> names) {
  (void)g;
  std::vector<NodePair> out;
  for (const auto& [a, b] : names) out.emplace_back(node(a), node(b));
  return testutil::Sorted(out);
}

struct Fig1Run {
  Fig1Fixture f = MakeFig1();
  std::vector<ViewExtension> exts;
  ContainmentMapping mapping;

  Fig1Run() {
    exts = std::move(MaterializeAll(f.views, *f.g.Freeze())).value();
    mapping = std::move(CheckContainment(f.qs, f.views)).value();
  }
};

TEST(MatchJoinTest, Fig1ReproducesExample2Table) {
  Fig1Run run;
  ASSERT_TRUE(run.mapping.contained);
  Result<MatchResult> r =
      MatchJoin(run.f.qs, run.f.views, run.exts, run.mapping);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->matched());

  auto node = [&](const std::string& n) { return run.f.node(n); };
  const Pattern& qs = run.f.qs;
  EXPECT_EQ(r->edge_matches(qs.EdgeByName("PM", "DBA1")),
            Pairs(run.f.g, node, {{"Bob", "Mat"}, {"Walt", "Mat"}}));
  EXPECT_EQ(r->edge_matches(qs.EdgeByName("PM", "PRG2")),
            Pairs(run.f.g, node, {{"Bob", "Dan"}, {"Walt", "Bill"}}));
  const auto dba_prg = Pairs(
      run.f.g, node, {{"Fred", "Pat"}, {"Mat", "Pat"}, {"Mary", "Bill"}});
  EXPECT_EQ(r->edge_matches(qs.EdgeByName("DBA1", "PRG1")), dba_prg);
  EXPECT_EQ(r->edge_matches(qs.EdgeByName("DBA2", "PRG2")), dba_prg);
  const auto prg_dba =
      Pairs(run.f.g, node,
            {{"Dan", "Fred"}, {"Pat", "Mary"}, {"Pat", "Mat"}, {"Bill", "Mat"}});
  EXPECT_EQ(r->edge_matches(qs.EdgeByName("PRG1", "DBA2")), prg_dba);
  EXPECT_EQ(r->edge_matches(qs.EdgeByName("PRG2", "DBA1")), prg_dba);
}

TEST(MatchJoinTest, Fig1AgreesWithDirectMatch) {
  Fig1Run run;
  Result<MatchResult> direct = MatchSimulation(run.f.qs, *run.f.g.Freeze());
  Result<MatchResult> via_views =
      MatchJoin(run.f.qs, run.f.views, run.exts, run.mapping);
  ASSERT_TRUE(direct.ok() && via_views.ok());
  EXPECT_TRUE(*direct == *via_views);
}

TEST(MatchJoinTest, Fig3AgreesWithDirectMatch) {
  // Theorem 1 equivalence on the Fig. 3 instance. (The narration of
  // Example 4 removes two extra pairs — (SE1,DB2), (DB2,AI2) — that the
  // paper's own simulation definition retains; we follow the definition,
  // so MatchJoin must equal the direct evaluation.)
  Fig3Fixture f = MakeFig3();
  auto exts = MaterializeAll(f.views, *f.g.Freeze());
  ASSERT_TRUE(exts.ok());
  auto mapping = CheckContainment(f.qs, f.views);
  ASSERT_TRUE(mapping.ok());
  ASSERT_TRUE(mapping->contained);

  Result<MatchResult> direct = MatchSimulation(f.qs, *f.g.Freeze());
  Result<MatchResult> joined = MatchJoin(f.qs, f.views, *exts, *mapping);
  ASSERT_TRUE(direct.ok() && joined.ok());
  ASSERT_TRUE(joined->matched());
  EXPECT_TRUE(*direct == *joined);

  auto node = [&](const std::string& n) { return f.node(n); };
  // Spot-check the definition-consistent table.
  EXPECT_EQ(joined->edge_matches(f.qs.EdgeByName("PM", "AI")),
            Pairs(f.g, node, {{"PM1", "AI2"}}));
  EXPECT_EQ(joined->edge_matches(f.qs.EdgeByName("AI", "SE")),
            Pairs(f.g, node, {{"AI2", "SE2"}}));
  // The fixpoint must have removed (AI1, SE1) from the merged view data.
  EXPECT_EQ(joined->edge_matches(f.qs.EdgeByName("AI", "Bio")),
            Pairs(f.g, node, {{"AI2", "Bio1"}}));
}

TEST(MatchJoinTest, RemovesInvalidMatchesFromMergedViews) {
  Fig3Fixture f = MakeFig3();
  auto exts = MaterializeAll(f.views, *f.g.Freeze());
  auto mapping = CheckContainment(f.qs, f.views);
  MatchJoinStats stats;
  Result<MatchResult> r =
      MatchJoin(f.qs, f.views, *exts, *mapping, MatchJoinOptions{}, &stats);
  ASSERT_TRUE(r.ok());
  // (AI1, SE1) comes in from V2's Se4 and must be deleted.
  EXPECT_GE(stats.removed_pairs, 1u);
  EXPECT_GT(stats.initial_pairs, r->TotalMatches());
}

TEST(MatchJoinTest, OptAndNoptAgree) {
  Fig1Run run;
  MatchJoinOptions opt;
  MatchJoinOptions nopt;
  nopt.use_rank_order = false;
  Result<MatchResult> a =
      MatchJoin(run.f.qs, run.f.views, run.exts, run.mapping, opt);
  Result<MatchResult> b =
      MatchJoin(run.f.qs, run.f.views, run.exts, run.mapping, nopt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a == *b);
}

TEST(MatchJoinTest, RequiresContainedMapping) {
  Fig1Run run;
  ContainmentMapping bogus;  // contained == false
  Result<MatchResult> r = MatchJoin(run.f.qs, run.f.views, run.exts, bogus);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

TEST(MatchJoinTest, RequiresOneExtensionPerView) {
  Fig1Run run;
  std::vector<ViewExtension> short_exts;
  short_exts.push_back(run.exts[0]);
  Result<MatchResult> r =
      MatchJoin(run.f.qs, run.f.views, short_exts, run.mapping);
  EXPECT_FALSE(r.ok());
}

TEST(MatchJoinTest, EmptyResultWhenGraphLosesRequiredEdges) {
  // Remove Walt->Mat and Bob->Mat: no PM -> DBA edge remains, so Qs has no
  // match; MatchJoin must return the empty result from refreshed views.
  Fig1Fixture f = MakeFig1();
  ASSERT_TRUE(f.g.RemoveEdge(f.node("Walt"), f.node("Mat")).ok());
  ASSERT_TRUE(f.g.RemoveEdge(f.node("Bob"), f.node("Mat")).ok());
  auto exts = MaterializeAll(f.views, *f.g.Freeze());
  ASSERT_TRUE(exts.ok());
  auto mapping = CheckContainment(f.qs, f.views);
  ASSERT_TRUE(mapping->contained);  // containment is data-independent
  Result<MatchResult> r = MatchJoin(f.qs, f.views, *exts, *mapping);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->matched());
  Result<MatchResult> direct = MatchSimulation(f.qs, *f.g.Freeze());
  ASSERT_TRUE(direct.ok());
  EXPECT_FALSE(direct->matched());
}

TEST(MatchJoinTest, MinimalMappingGivesSameResult) {
  Fig4Fixture f = MakeFig4();
  // Build a concrete graph matching Fig. 4's pattern: two parallel copies.
  Graph g;
  for (int copy = 0; copy < 2; ++copy) {
    NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
    NodeId d = g.AddNode("D"), e = g.AddNode("E");
    ASSERT_TRUE(g.AddEdge(a, b).ok());
    ASSERT_TRUE(g.AddEdge(a, c).ok());
    ASSERT_TRUE(g.AddEdge(b, d).ok());
    ASSERT_TRUE(g.AddEdge(c, d).ok());
    ASSERT_TRUE(g.AddEdge(b, e).ok());
  }
  auto exts = MaterializeAll(f.views, *g.Freeze());
  ASSERT_TRUE(exts.ok());

  Result<MatchResult> direct = MatchSimulation(f.qs, *g.Freeze());
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(direct->matched());

  for (auto checker : {&CheckContainment, &MinimalContainment,
                       &MinimumContainment}) {
    auto mapping = checker(f.qs, f.views);
    ASSERT_TRUE(mapping.ok());
    ASSERT_TRUE(mapping->contained);
    Result<MatchResult> r = MatchJoin(f.qs, f.views, *exts, *mapping);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(*r == *direct);
  }
}

TEST(MatchJoinTest, StatsCountVisits) {
  Fig1Run run;
  MatchJoinStats stats;
  Result<MatchResult> r = MatchJoin(run.f.qs, run.f.views, run.exts,
                                    run.mapping, MatchJoinOptions{}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(stats.match_set_visits, run.f.qs.num_edges());
  EXPECT_EQ(stats.filtered_by_distance, 0u);
}

TEST(MatchJoinTest, DagPatternVisitsStayLow) {
  // Lemma 2 flavor: on a DAG pattern the rank-ordered engine needs few
  // match-set visits — bounded by edges plus re-checks from source-side
  // dependencies — while full passes always cost 2 sweeps.
  Pattern q = PatternBuilder()
                  .Node("A").Node("B").Node("C").Node("D")
                  .Edge("A", "B").Edge("B", "C").Edge("C", "D")
                  .Build();
  Graph g = testutil::ChainGraph({"A", "B", "C", "D"});
  ViewSet views;
  views.Add("v", q);  // the query itself as a view
  auto exts = MaterializeAll(views, *g.Freeze());
  auto mapping = CheckContainment(q, views);
  ASSERT_TRUE(mapping->contained);

  MatchJoinStats opt_stats, nopt_stats;
  MatchJoinOptions nopt;
  nopt.use_rank_order = false;
  ASSERT_TRUE(MatchJoin(q, views, *exts, *mapping, MatchJoinOptions{},
                        &opt_stats)
                  .ok());
  ASSERT_TRUE(MatchJoin(q, views, *exts, *mapping, nopt, &nopt_stats).ok());
  EXPECT_LE(opt_stats.match_set_visits, 2 * q.num_edges());
  EXPECT_LE(opt_stats.match_set_visits, nopt_stats.match_set_visits);
}

}  // namespace
}  // namespace gpmv
