#include "core/maintenance.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "pattern/pattern_builder.h"
#include "test_util.h"
#include "workload/graph_gen.h"
#include "workload/paper_fixtures.h"

namespace gpmv {
namespace {

using testutil::SameExtension;

TEST(MaintenanceTest, AttachMatchesFreshMaterialization) {
  Fig1Fixture f = MakeFig1();
  testutil::CachedView mv(f.views.view(0));
  ASSERT_TRUE(mv.Install(f.g).ok());
  auto fresh = ViewExtension::Materialize(f.views.view(0), *f.g.Freeze());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(SameExtension(mv.extension(), *fresh));
}

TEST(MaintenanceTest, DeletionKeepsExtensionExact) {
  Fig1Fixture f = MakeFig1();
  testutil::CachedView mv(f.views.view(1));  // V2: DBA <-> PRG cycle
  ASSERT_TRUE(mv.Install(f.g).ok());

  // Deleting Mat -> Pat shrinks V2's result; incremental must agree with a
  // fresh materialization.
  NodeId mat = f.node("Mat"), pat = f.node("Pat");
  ASSERT_TRUE(f.g.RemoveEdge(mat, pat).ok());
  ASSERT_TRUE(mv.Removed(f.g, mat, pat).ok());
  auto fresh = ViewExtension::Materialize(f.views.view(1), *f.g.Freeze());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(SameExtension(mv.extension(), *fresh));
}

TEST(MaintenanceTest, IrrelevantDeletionSkipsRefresh) {
  Fig1Fixture f = MakeFig1();
  testutil::CachedView mv(f.views.view(1));  // does not involve BA/ST nodes
  ASSERT_TRUE(mv.Install(f.g).ok());
  size_t refreshes = mv.stats().refreshes;

  NodeId dan = f.node("Dan"), emmy = f.node("Emmy");
  ASSERT_TRUE(f.g.RemoveEdge(dan, emmy).ok());
  ASSERT_TRUE(mv.Removed(f.g, dan, emmy).ok());
  EXPECT_EQ(mv.stats().refreshes, refreshes);  // prescreen skipped it
  EXPECT_EQ(mv.stats().refreshes_skipped, 1u);

  auto fresh = ViewExtension::Materialize(f.views.view(1), *f.g.Freeze());
  EXPECT_TRUE(SameExtension(mv.extension(), *fresh));
}

TEST(MaintenanceTest, InsertionGrowsExtension) {
  Fig1Fixture f = MakeFig1();
  testutil::CachedView mv(f.views.view(0));  // V1: PM -> DBA, PM -> PRG
  ASSERT_TRUE(mv.Install(f.g).ok());
  size_t before = mv.extension().TotalPairs();

  NodeId bob = f.node("Bob"), fred = f.node("Fred");
  ASSERT_TRUE(f.g.AddEdge(bob, fred).ok());
  ASSERT_TRUE(mv.Inserted(f.g, bob, fred).ok());
  EXPECT_GT(mv.extension().TotalPairs(), before);

  auto fresh = ViewExtension::Materialize(f.views.view(0), *f.g.Freeze());
  EXPECT_TRUE(SameExtension(mv.extension(), *fresh));
}

TEST(MaintenanceTest, CascadingDeletionEmptiesView) {
  // Chain view on a chain graph: deleting the last edge kills everything.
  Graph g = testutil::ChainGraph({"A", "B", "C"});
  ViewDefinition def{"v", testutil::ChainPattern({"A", "B", "C"})};
  testutil::CachedView mv(def);
  ASSERT_TRUE(mv.Install(g).ok());
  EXPECT_TRUE(mv.extension().matched());

  ASSERT_TRUE(g.RemoveEdge(1, 2).ok());
  ASSERT_TRUE(mv.Removed(g, 1, 2).ok());
  EXPECT_FALSE(mv.extension().matched());
  EXPECT_EQ(mv.extension().TotalPairs(), 0u);
}

TEST(MaintenanceTest, BoundedViewDeletionOfInteriorPathEdge) {
  // View A ->(2) B over A -> X -> B: deleting X -> B (an edge that is not
  // itself a match pair) must still invalidate the pair (A, B).
  Graph g = testutil::ChainGraph({"A", "X", "B"});
  Pattern p;
  uint32_t a = p.AddNode("A"), b = p.AddNode("B");
  ASSERT_TRUE(p.AddEdge(a, b, 2).ok());
  testutil::CachedView mv(ViewDefinition{"v", std::move(p)});
  ASSERT_TRUE(mv.Install(g).ok());
  EXPECT_EQ(mv.extension().TotalPairs(), 1u);

  ASSERT_TRUE(g.RemoveEdge(1, 2).ok());
  ASSERT_TRUE(mv.Removed(g, 1, 2).ok());
  EXPECT_FALSE(mv.extension().matched());
}

TEST(MaintenanceTest, RandomizedDeletionsStayExact) {
  RandomGraphOptions go;
  go.num_nodes = 80;
  go.num_edges = 240;
  go.num_labels = 3;
  go.seed = 5;
  Graph g = GenerateRandomGraph(go);
  ViewDefinition def{"v", testutil::ChainPattern({"L0", "L1", "L2"})};
  testutil::CachedView mv(def);
  ASSERT_TRUE(mv.Install(g).ok());

  Rng rng(99);
  for (int step = 0; step < 30; ++step) {
    // Delete a random existing edge.
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    if (g.out_neighbors(u).empty()) continue;
    NodeId v = g.out_neighbors(u)[rng.NextBounded(g.out_degree(u))];
    ASSERT_TRUE(g.RemoveEdge(u, v).ok());
    ASSERT_TRUE(mv.Removed(g, u, v).ok());
    auto fresh = ViewExtension::Materialize(def, *g.Freeze());
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(SameExtension(mv.extension(), *fresh)) << "step " << step;
  }
}

TEST(MaintenanceTest, MixedInsertionsAndDeletions) {
  RandomGraphOptions go;
  go.num_nodes = 60;
  go.num_edges = 150;
  go.num_labels = 3;
  go.seed = 6;
  Graph g = GenerateRandomGraph(go);
  Pattern p;
  uint32_t a = p.AddNode("L0"), b = p.AddNode("L1");
  ASSERT_TRUE(p.AddEdge(a, b, 2).ok());
  ViewDefinition def{"v", std::move(p)};
  testutil::CachedView mv(def);
  ASSERT_TRUE(mv.Install(g).ok());

  Rng rng(123);
  for (int step = 0; step < 20; ++step) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    if (u == v) continue;
    if (g.HasEdge(u, v)) {
      ASSERT_TRUE(g.RemoveEdge(u, v).ok());
      ASSERT_TRUE(mv.Removed(g, u, v).ok());
    } else {
      ASSERT_TRUE(g.AddEdge(u, v).ok());
      ASSERT_TRUE(mv.Inserted(g, u, v).ok());
    }
    auto fresh = ViewExtension::Materialize(def, *g.Freeze());
    ASSERT_TRUE(SameExtension(mv.extension(), *fresh)) << "step " << step;
  }
}


TEST(MaintenanceTest, BoundedDeletionOutsideSourceBallsSkipsRefresh) {
  // View A ->(2) B over A -> X -> B, plus an unrelated edge C -> D. No
  // member of rel(A) lies within one reverse hop of C, so the deletion
  // cannot shorten any witness path: the prescreen skips the refresh.
  Graph g = testutil::ChainGraph({"A", "X", "B", "C", "D"});
  ASSERT_TRUE(g.RemoveEdge(2, 3).ok());  // chain B -> C gone: C is isolated
  Pattern p;
  uint32_t a = p.AddNode("A"), b = p.AddNode("B");
  ASSERT_TRUE(p.AddEdge(a, b, 2).ok());
  ViewDefinition def{"v", std::move(p)};
  testutil::CachedView mv(def);
  ASSERT_TRUE(mv.Install(g).ok());
  const ViewExtension before = mv.extension();
  const size_t skipped = mv.stats().refreshes_skipped;
  const size_t refreshes = mv.stats().refreshes;

  ASSERT_TRUE(g.RemoveEdge(3, 4).ok());
  ASSERT_TRUE(mv.Removed(g, 3, 4).ok());
  EXPECT_EQ(mv.stats().refreshes_skipped, skipped + 1);
  EXPECT_EQ(mv.stats().refreshes, refreshes);
  EXPECT_EQ(mv.maintenance_stats().delete_skips, 1u);
  EXPECT_TRUE(SameExtension(mv.extension(), before));
  auto fresh = ViewExtension::Materialize(def, *g.Freeze());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(SameExtension(mv.extension(), *fresh));

  // Deleting the interior edge X -> B is inside A's ball: not skipped.
  ASSERT_TRUE(g.RemoveEdge(1, 2).ok());
  ASSERT_TRUE(mv.Removed(g, 1, 2).ok());
  EXPECT_EQ(mv.stats().refreshes, refreshes + 1);
  EXPECT_FALSE(mv.extension().matched());
}

TEST(MaintenanceTest, SnapshotByteTotalMatchesRecountUnderMixedStream) {
  RandomGraphOptions go;
  go.num_nodes = 70;
  go.num_edges = 200;
  go.num_labels = 3;
  go.seed = 12;
  Graph g = GenerateRandomGraph(go);
  Pattern bounded;
  uint32_t a = bounded.AddNode("L0"), b = bounded.AddNode("L1"),
           c = bounded.AddNode("L2");
  ASSERT_TRUE(bounded.AddEdge(a, b, 2).ok());
  ASSERT_TRUE(bounded.AddEdge(b, c, 3).ok());
  MaintenanceOptions opts;
  opts.max_area_fraction = 1.0;
  for (Pattern q : {bounded, testutil::ChainPattern({"L0", "L1", "L2"})}) {
    Graph gv = g;
    ViewDefinition def{"v", std::move(q)};
    testutil::CachedView mv(def, opts);
    ASSERT_TRUE(mv.Install(gv).ok());
    Rng rng(31);
    for (int step = 0; step < 40; ++step) {
      std::vector<NodePair> deleted, inserted;
      for (int i = 0; i < 3; ++i) {
        NodeId u = static_cast<NodeId>(rng.NextBounded(gv.num_nodes()));
        NodeId v = static_cast<NodeId>(rng.NextBounded(gv.num_nodes()));
        if (u == v) continue;
        (gv.HasEdge(u, v) ? deleted : inserted).emplace_back(u, v);
      }
      ASSERT_TRUE(mv.Batch(gv, deleted, inserted).ok());
      const ViewExtension& ext = mv.extension();
      ASSERT_EQ(ext.ApproxBytes(), ext.RecountApproxBytes()) << "step " << step;
      ASSERT_TRUE(mv.CheckConsistency()) << "step " << step;
      auto fresh = ViewExtension::Materialize(def, *gv.Freeze());
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(SameExtension(ext, *fresh)) << "step " << step;
      ASSERT_EQ(ext.ApproxBytes(), fresh->ApproxBytes()) << "step " << step;
    }
    EXPECT_GT(mv.maintenance_stats().delete_refreshes, 0u);
  }
}

}  // namespace
}  // namespace gpmv
