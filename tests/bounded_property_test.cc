/// Randomized property tests for the bounded-simulation side (Section VI):
/// Theorems 8/9 — BMatchJoin over bounded views equals direct BMatch — plus
/// distance-index consistency and bounded view-match soundness.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/bmatch_join.h"
#include "core/containment.h"
#include "core/view_match.h"
#include "graph/traversal.h"
#include "simulation/bounded.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

struct Instance {
  Graph g;
  Pattern qb;
  ViewSet views;
  std::vector<ViewExtension> exts;
};

Instance MakeInstance(uint64_t seed, uint32_t bound_slack) {
  Instance inst;
  RandomGraphOptions go;
  go.num_nodes = 70;
  go.num_edges = 180;
  go.num_labels = 4;
  go.seed = seed;
  inst.g = GenerateRandomGraph(go);

  RandomPatternOptions po;
  po.num_nodes = 3 + seed % 3;
  po.num_edges = po.num_nodes + seed % 3;
  po.label_pool = SyntheticLabels(4);
  po.max_bound = 3;
  po.star_prob = (seed % 4 == 0) ? 0.2 : 0.0;
  po.seed = seed * 13 + 3;
  inst.qb = GenerateRandomPattern(po);

  CoveringViewOptions co;
  co.edges_per_view = 1 + seed % 2;
  co.num_distractors = 2;
  co.overlap_views = 1;
  co.bound_slack = bound_slack;
  co.seed = seed * 41 + 7;
  inst.views = GenerateCoveringViews(inst.qb, co);
  inst.exts = std::move(MaterializeAll(inst.views, *inst.g.Freeze())).value();
  return inst;
}

class BoundedTheoremTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundedTheoremTest, BMatchJoinEqualsDirectBMatch) {
  const uint64_t seed = GetParam();
  // Slack 0: view bounds equal query bounds. Slack 2: views are strictly
  // looser, so the distance-index filter must trim the merged pairs.
  for (uint32_t slack : {0u, 2u}) {
    Instance inst = MakeInstance(seed, slack);
    Result<MatchResult> direct =
        MatchBoundedSimulation(inst.qb, *inst.g.Freeze());
    ASSERT_TRUE(direct.ok());

    for (auto checker :
         {&CheckContainment, &MinimalContainment, &MinimumContainment}) {
      Result<ContainmentMapping> mapping = checker(inst.qb, inst.views);
      ASSERT_TRUE(mapping.ok());
      ASSERT_TRUE(mapping->contained) << "seed=" << seed;
      for (bool rank_order : {true, false}) {
        MatchJoinOptions opts;
        opts.use_rank_order = rank_order;
        Result<MatchResult> joined =
            BMatchJoin(inst.qb, inst.views, inst.exts, *mapping, opts);
        ASSERT_TRUE(joined.ok());
        EXPECT_TRUE(*joined == *direct)
            << "seed=" << seed << " slack=" << slack
            << " rank_order=" << rank_order << "\n" << inst.qb.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedTheoremTest,
                         ::testing::Range<uint64_t>(0, 20));

class DistanceIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

/// I(V) is the extensions' distance column: every stored distance must be
/// the shortest nonempty path length in G.
TEST_P(DistanceIndexPropertyTest, IndexedDistancesAreBfsShortest) {
  Instance inst = MakeInstance(GetParam(), 1);
  BfsScratch bfs(inst.g.num_nodes());
  size_t checked = 0;
  for (const ViewExtension& ext : inst.exts) {
    for (uint32_t e = 0; e < ext.num_view_edges() && checked < 500; ++e) {
      const auto& vee = ext.edge(e);
      for (size_t i = 0; i < vee.pairs.size() && checked < 500; ++i) {
        auto [v, w] = vee.pairs[i];
        // Shortest nonempty path length from v to w.
        bfs.Run(inst.g, inst.g.out_neighbors(v), kUnbounded, true);
        ASSERT_TRUE(bfs.Reached(w));
        EXPECT_EQ(vee.distances[i], bfs.dist(w) + 1);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceIndexPropertyTest,
                         ::testing::Range<uint64_t>(0, 8));

class BoundedSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundedSoundnessTest, CoveredEdgeMatchesAreInViewExtensions) {
  Instance inst = MakeInstance(GetParam(), 2);
  Result<MatchResult> direct =
      MatchBoundedSimulation(inst.qb, *inst.g.Freeze());
  ASSERT_TRUE(direct.ok());
  if (!direct->matched()) return;

  for (size_t vi = 0; vi < inst.views.card(); ++vi) {
    Result<ViewMatchResult> vm =
        ComputeViewMatch(inst.views.view(vi).pattern, inst.qb);
    ASSERT_TRUE(vm.ok());
    for (uint32_t ev = 0; ev < vm->per_view_edge.size(); ++ev) {
      const auto& view_pairs = inst.exts[vi].edge(ev).pairs;
      for (uint32_t qe : vm->per_view_edge[ev]) {
        for (const NodePair& p : direct->edge_matches(qe)) {
          EXPECT_TRUE(
              std::binary_search(view_pairs.begin(), view_pairs.end(), p))
              << "seed=" << GetParam() << " view=" << vi << " qe=" << qe;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedSoundnessTest,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace gpmv
