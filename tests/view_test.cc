#include "core/view.h"

#include <gtest/gtest.h>

#include "pattern/pattern_builder.h"
#include "test_util.h"
#include "workload/paper_fixtures.h"

namespace gpmv {
namespace {

std::vector<NodePair> Pairs(const Fig1Fixture& f,
                            std::initializer_list<std::pair<const char*, const char*>> names) {
  std::vector<NodePair> out;
  for (const auto& [a, b] : names) out.emplace_back(f.node(a), f.node(b));
  return testutil::Sorted(out);
}

TEST(ViewTest, Fig1ViewExtensionsMatchThePaper) {
  Fig1Fixture f = MakeFig1();
  Result<std::vector<ViewExtension>> exts =
      MaterializeAll(f.views, *f.g.Freeze());
  ASSERT_TRUE(exts.ok());
  ASSERT_EQ(exts->size(), 2u);

  const ViewExtension& v1 = (*exts)[0];
  ASSERT_TRUE(v1.matched());
  // Se1 (PM -> DBA) and Se2 (PM -> PRG), Fig. 1(b).
  EXPECT_EQ(v1.edge(0).pairs, Pairs(f, {{"Bob", "Mat"}, {"Walt", "Mat"}}));
  EXPECT_EQ(v1.edge(1).pairs, Pairs(f, {{"Bob", "Dan"}, {"Walt", "Bill"}}));

  const ViewExtension& v2 = (*exts)[1];
  ASSERT_TRUE(v2.matched());
  // Se3 (DBA -> PRG) and Se4 (PRG -> DBA).
  EXPECT_EQ(v2.edge(0).pairs,
            Pairs(f, {{"Fred", "Pat"}, {"Mat", "Pat"}, {"Mary", "Bill"}}));
  EXPECT_EQ(v2.edge(1).pairs,
            Pairs(f, {{"Dan", "Fred"}, {"Pat", "Mary"}, {"Pat", "Mat"},
                      {"Bill", "Mat"}}));
}

TEST(ViewTest, SimulationViewDistancesAreOne) {
  Fig1Fixture f = MakeFig1();
  Result<ViewExtension> ext =
      ViewExtension::Materialize(f.views.view(0), *f.g.Freeze());
  ASSERT_TRUE(ext.ok());
  for (uint32_t e = 0; e < ext->num_view_edges(); ++e) {
    for (uint32_t d : ext->edge(e).distances) EXPECT_EQ(d, 1u);
  }
}

TEST(ViewTest, SnapshotsCoverAllMatchedNodes) {
  Fig1Fixture f = MakeFig1();
  Result<ViewExtension> ext =
      ViewExtension::Materialize(f.views.view(0), *f.g.Freeze());
  ASSERT_TRUE(ext.ok());
  for (uint32_t e = 0; e < ext->num_view_edges(); ++e) {
    for (const NodePair& p : ext->edge(e).pairs) {
      ASSERT_NE(ext->snapshot(p.first), nullptr);
      ASSERT_NE(ext->snapshot(p.second), nullptr);
    }
  }
  // Snapshots carry labels and attributes.
  const NodeSnapshot* snap = ext->snapshot(f.node("Bob"));
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->HasLabel("PM"));
  ASSERT_NE(snap->attrs.Get("name"), nullptr);
  EXPECT_EQ(snap->attrs.Get("name")->as_string(), "Bob");
  // Unmatched nodes have no snapshot.
  EXPECT_EQ(ext->snapshot(f.node("Emmy")), nullptr);
}

TEST(ViewTest, NonMatchingViewYieldsEmptyExtension) {
  Graph g;
  g.AddNode("A");
  ViewDefinition def{"v", testutil::ChainPattern({"A", "B"})};
  Result<ViewExtension> ext = ViewExtension::Materialize(def, *g.Freeze());
  ASSERT_TRUE(ext.ok());
  EXPECT_FALSE(ext->matched());
  EXPECT_EQ(ext->TotalPairs(), 0u);
  EXPECT_EQ(ext->snapshot(0), nullptr);
}

TEST(ViewTest, BoundedViewStoresDistances) {
  Graph g = testutil::ChainGraph({"A", "X", "B"});
  Pattern p;
  uint32_t a = p.AddNode("A"), b = p.AddNode("B");
  ASSERT_TRUE(p.AddEdge(a, b, 3).ok());
  Result<ViewExtension> ext =
      ViewExtension::Materialize(ViewDefinition{"v", std::move(p)},
                                 *g.Freeze());
  ASSERT_TRUE(ext.ok());
  ASSERT_TRUE(ext->matched());
  ASSERT_EQ(ext->edge(0).pairs.size(), 1u);
  EXPECT_EQ(ext->edge(0).pairs[0], (NodePair{0, 2}));
  EXPECT_EQ(ext->edge(0).distances[0], 2u);
}

TEST(ViewTest, ViewSetSizesFollowTableOne) {
  Fig1Fixture f = MakeFig1();
  EXPECT_EQ(f.views.card(), 2u);
  // V1 has 3 nodes + 2 edges, V2 has 2 nodes + 2 edges.
  EXPECT_EQ(f.views.Size(), 9u);
}

TEST(ViewTest, TotalPairsAndBytes) {
  Fig1Fixture f = MakeFig1();
  Result<std::vector<ViewExtension>> exts =
      MaterializeAll(f.views, *f.g.Freeze());
  ASSERT_TRUE(exts.ok());
  EXPECT_EQ(TotalExtensionPairs(*exts), 4u + 7u);
  EXPECT_GT((*exts)[0].ApproxBytes(), 0u);
}

}  // namespace
}  // namespace gpmv
