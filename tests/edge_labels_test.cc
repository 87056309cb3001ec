#include "graph/edge_labels.h"

#include <gtest/gtest.h>

#include "core/containment.h"
#include "core/match_join.h"
#include "core/view.h"
#include "simulation/bounded.h"
#include "simulation/simulation.h"

namespace gpmv {
namespace {

TEST(EdgeLabelsTest, LoweringShape) {
  EdgeLabeledGraphBuilder b;
  NodeId alice = b.AddNode("Person");
  NodeId acme = b.AddNode("Company");
  ASSERT_TRUE(b.AddEdge(alice, acme, "works_at").ok());
  Graph g = b.Lower();
  // 2 original nodes + 1 dummy; 2 lowered edges.
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  NodeId dummy = b.DummyNodeOf(0);
  EXPECT_TRUE(g.HasEdge(alice, dummy));
  EXPECT_TRUE(g.HasEdge(dummy, acme));
  EXPECT_FALSE(g.HasEdge(alice, acme));
  EXPECT_TRUE(g.HasLabel(dummy, g.FindLabel("rel:works_at")));
}

TEST(EdgeLabelsTest, ParallelEdgesWithDistinctRelations) {
  EdgeLabeledGraphBuilder b;
  NodeId a = b.AddNode("P");
  NodeId c = b.AddNode("P");
  ASSERT_TRUE(b.AddEdge(a, c, "knows").ok());
  ASSERT_TRUE(b.AddEdge(a, c, "manages").ok());
  EXPECT_EQ(b.AddEdge(a, c, "knows").code(), Status::Code::kAlreadyExists);
  Graph g = b.Lower();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST(EdgeLabelsTest, BuilderValidation) {
  EdgeLabeledGraphBuilder b;
  NodeId a = b.AddNode("P");
  EXPECT_FALSE(b.AddEdge(a, 7, "x").ok());
  EXPECT_FALSE(b.AddEdge(a, a, "").ok());
}

TEST(EdgeLabelsTest, LoweredPatternMatchesLoweredGraph) {
  // Graph: alice -works_at-> acme, bob -studied_at-> acme.
  EdgeLabeledGraphBuilder b;
  NodeId alice = b.AddNode("Person");
  NodeId bob = b.AddNode("Person");
  NodeId acme = b.AddNode("Company");
  ASSERT_TRUE(b.AddEdge(alice, acme, "works_at").ok());
  ASSERT_TRUE(b.AddEdge(bob, acme, "studied_at").ok());
  Graph g = b.Lower();

  // Pattern: Person -works_at-> Company.
  std::vector<PatternNode> nodes{{"Person", Predicate(), "p"},
                                 {"Company", Predicate(), "c"}};
  std::vector<LabeledPatternEdge> edges{{0, 1, "works_at", 1}};
  Result<Pattern> q = LowerEdgeLabeledPattern(nodes, edges);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_nodes(), 3u);
  EXPECT_EQ(q->num_edges(), 2u);

  Result<MatchResult> r = MatchSimulation(*q, *g.Freeze());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  // Only alice works at acme: the lowered head edge matches
  // (alice, dummy0) and nothing from bob's studied_at dummy.
  EXPECT_EQ(r->edge_matches(0),
            (std::vector<NodePair>{{alice, b.DummyNodeOf(0)}}));
  EXPECT_EQ(r->edge_matches(1),
            (std::vector<NodePair>{{b.DummyNodeOf(0), acme}}));
}

TEST(EdgeLabelsTest, WrongRelationDoesNotMatch) {
  EdgeLabeledGraphBuilder b;
  NodeId a = b.AddNode("Person");
  NodeId c = b.AddNode("Company");
  ASSERT_TRUE(b.AddEdge(a, c, "studied_at").ok());
  Graph g = b.Lower();

  std::vector<PatternNode> nodes{{"Person", Predicate(), "p"},
                                 {"Company", Predicate(), "c"}};
  std::vector<LabeledPatternEdge> edges{{0, 1, "works_at", 1}};
  Result<Pattern> q = LowerEdgeLabeledPattern(nodes, edges);
  ASSERT_TRUE(q.ok());
  Result<MatchResult> r = MatchSimulation(*q, *g.Freeze());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->matched());
}

TEST(EdgeLabelsTest, BoundedRelationPath) {
  // alice -knows-> bob -knows-> carol; query: knows within 2 hops.
  EdgeLabeledGraphBuilder b;
  NodeId alice = b.AddNode("Person");
  NodeId bob = b.AddNode("Person");
  NodeId carol = b.AddNode("Person");
  ASSERT_TRUE(b.AddEdge(alice, bob, "knows").ok());
  ASSERT_TRUE(b.AddEdge(bob, carol, "knows").ok());
  Graph g = b.Lower();

  std::vector<PatternNode> nodes{{"Person", Predicate(), "src"},
                                 {"Person", Predicate(), "dst"}};
  std::vector<LabeledPatternEdge> edges{{0, 1, "knows", 2}};
  Result<Pattern> q = LowerEdgeLabeledPattern(nodes, edges);
  ASSERT_TRUE(q.ok());
  // Lowered: src -> dummy (1), dummy -> dst (2*2-1 = 3).
  EXPECT_EQ(q->edge(1).bound, 3u);

  Result<MatchResult> r = MatchBoundedSimulation(*q, *g.Freeze());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->matched());
  // The dummy -> dst match set includes both 1-hop (bob) and 3-hop (carol)
  // endpoints from alice's knows-dummy.
  std::vector<NodePair> tail = r->edge_matches(1);
  bool reaches_carol = false;
  for (const NodePair& p : tail) reaches_carol |= p.second == carol;
  EXPECT_TRUE(reaches_carol);
}

TEST(EdgeLabelsTest, ViewAnsweringWorksOnLoweredGraphs) {
  // The whole view pipeline runs unchanged on the lowered encoding.
  EdgeLabeledGraphBuilder b;
  NodeId alice = b.AddNode("Person");
  NodeId acme = b.AddNode("Company");
  NodeId bob = b.AddNode("Person");
  ASSERT_TRUE(b.AddEdge(alice, acme, "works_at").ok());
  ASSERT_TRUE(b.AddEdge(bob, acme, "works_at").ok());
  Graph g = b.Lower();

  std::vector<PatternNode> nodes{{"Person", Predicate(), "p"},
                                 {"Company", Predicate(), "c"}};
  std::vector<LabeledPatternEdge> edges{{0, 1, "works_at", 1}};
  Pattern q = std::move(LowerEdgeLabeledPattern(nodes, edges)).value();

  ViewSet views;
  views.Add("employment", q);
  auto exts = std::move(MaterializeAll(views, *g.Freeze())).value();
  auto mapping = std::move(CheckContainment(q, views)).value();
  ASSERT_TRUE(mapping.contained);
  Result<MatchResult> joined = MatchJoin(q, views, exts, mapping);
  Result<MatchResult> direct = MatchSimulation(q, *g.Freeze());
  ASSERT_TRUE(joined.ok() && direct.ok());
  EXPECT_TRUE(*joined == *direct);
  EXPECT_EQ(joined->edge_matches(0).size(), 2u);  // alice and bob
}

TEST(EdgeLabelsTest, PatternValidation) {
  std::vector<PatternNode> nodes{{"A", Predicate(), "a"}};
  EXPECT_FALSE(
      LowerEdgeLabeledPattern(nodes, {{0, 5, "x", 1}}).ok());
  EXPECT_FALSE(LowerEdgeLabeledPattern(nodes, {{0, 0, "", 1}}).ok());
}

}  // namespace
}  // namespace gpmv
