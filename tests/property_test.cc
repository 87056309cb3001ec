/// Randomized property tests of the paper's central claims for plain
/// simulation patterns:
///   * Theorem 1: whenever Q ⊑ V, MatchJoin over V(G) equals direct Match —
///     for every containment flavor and both fixpoint schedules;
///   * Proposition 7 soundness: e ∈ M^Q_V implies Se ⊆ ∪ SeV on concrete
///     graphs;
///   * minimal is inclusion-minimal; greedy minimum is a cover and within
///     the log-factor of the exhaustive optimum.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/containment.h"
#include "core/match_join.h"
#include "core/view_match.h"
#include "simulation/simulation.h"
#include "test_util.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

struct Instance {
  Graph g;
  Pattern q;
  ViewSet views;
  std::vector<ViewExtension> exts;
};

Instance MakeInstance(uint64_t seed) {
  Instance inst;
  RandomGraphOptions go;
  go.num_nodes = 120;
  go.num_edges = 360;
  go.num_labels = 4;
  go.seed = seed;
  inst.g = GenerateRandomGraph(go);

  RandomPatternOptions po;
  po.num_nodes = 3 + seed % 4;
  po.num_edges = po.num_nodes + 1 + seed % 3;
  po.label_pool = SyntheticLabels(4);
  po.seed = seed * 17 + 5;
  inst.q = GenerateRandomPattern(po);

  CoveringViewOptions co;
  co.edges_per_view = 1 + seed % 3;
  co.num_distractors = 3;
  co.overlap_views = 2;
  co.seed = seed * 29 + 11;
  inst.views = GenerateCoveringViews(inst.q, co);
  inst.exts = std::move(MaterializeAll(inst.views, *inst.g.Freeze())).value();
  return inst;
}

class TheoremOneTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TheoremOneTest, MatchJoinEqualsDirectMatch) {
  Instance inst = MakeInstance(GetParam());
  Result<MatchResult> direct = MatchSimulation(inst.q, *inst.g.Freeze());
  ASSERT_TRUE(direct.ok());

  for (auto checker :
       {&CheckContainment, &MinimalContainment, &MinimumContainment}) {
    Result<ContainmentMapping> mapping = checker(inst.q, inst.views);
    ASSERT_TRUE(mapping.ok());
    ASSERT_TRUE(mapping->contained);  // covering views guarantee this
    for (bool rank_order : {true, false}) {
      MatchJoinOptions opts;
      opts.use_rank_order = rank_order;
      Result<MatchResult> joined =
          MatchJoin(inst.q, inst.views, inst.exts, *mapping, opts);
      ASSERT_TRUE(joined.ok()) << joined.status().ToString();
      EXPECT_TRUE(*joined == *direct)
          << "seed=" << GetParam() << " rank_order=" << rank_order
          << "\npattern:\n" << inst.q.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremOneTest,
                         ::testing::Range<uint64_t>(0, 30));

class ViewMatchSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ViewMatchSoundnessTest, CoveredEdgesAreContainedInViewMatchSets) {
  Instance inst = MakeInstance(GetParam());
  Result<MatchResult> direct = MatchSimulation(inst.q, *inst.g.Freeze());
  ASSERT_TRUE(direct.ok());
  if (!direct->matched()) return;  // nothing to check

  for (size_t vi = 0; vi < inst.views.card(); ++vi) {
    Result<ViewMatchResult> vm =
        ComputeViewMatch(inst.views.view(vi).pattern, inst.q);
    ASSERT_TRUE(vm.ok());
    for (uint32_t ev = 0; ev < vm->per_view_edge.size(); ++ev) {
      const auto& view_pairs = inst.exts[vi].edge(ev).pairs;
      for (uint32_t qe : vm->per_view_edge[ev]) {
        // Se ⊆ SeV on this concrete graph (Prop. 7 soundness direction).
        for (const NodePair& p : direct->edge_matches(qe)) {
          EXPECT_TRUE(std::binary_search(view_pairs.begin(), view_pairs.end(),
                                         p))
              << "seed=" << GetParam() << " view=" << vi << " qe=" << qe;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewMatchSoundnessTest,
                         ::testing::Range<uint64_t>(0, 20));

class MinimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinimalityTest, MinimalIsInclusionMinimal) {
  Instance inst = MakeInstance(GetParam());
  Result<ContainmentMapping> m = MinimalContainment(inst.q, inst.views);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->contained);
  for (uint32_t dropped : m->selected) {
    ViewSet subset;
    for (uint32_t vi : m->selected) {
      if (vi != dropped) subset.Add(inst.views.view(vi));
    }
    Result<ContainmentMapping> sub = CheckContainment(inst.q, subset);
    ASSERT_TRUE(sub.ok());
    EXPECT_FALSE(sub->contained)
        << "seed=" << GetParam() << ": view " << dropped << " was redundant";
  }
}

TEST_P(MinimalityTest, GreedyMinimumIsCoverWithinLogFactorOfOptimum) {
  Instance inst = MakeInstance(GetParam());
  Result<ContainmentMapping> greedy = MinimumContainment(inst.q, inst.views);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(greedy->contained);

  if (inst.views.card() <= 20) {
    Result<ContainmentMapping> exact =
        ExactMinimumContainment(inst.q, inst.views);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(exact->contained);
    EXPECT_GE(greedy->selected.size(), exact->selected.size());
    // Theorem 6 guarantee: |greedy| <= (1 + ln |Ep|) * |OPT|.
    double bound = (1.0 + std::log(static_cast<double>(inst.q.num_edges()))) *
                   static_cast<double>(exact->selected.size());
    EXPECT_LE(static_cast<double>(greedy->selected.size()), bound + 1e-9);
  }
  // Minimum never selects more views than minimal needs... is not a theorem;
  // but both must select at most card(V) views and cover all edges.
  EXPECT_LE(greedy->selected.size(), inst.views.card());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimalityTest,
                         ::testing::Range<uint64_t>(0, 20));

TEST(PropertyTest, LambdaOnlyReferencesSelectedViews) {
  Instance inst = MakeInstance(3);
  for (auto checker : {&MinimalContainment, &MinimumContainment}) {
    Result<ContainmentMapping> m = checker(inst.q, inst.views);
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(m->contained);
    for (const auto& refs : m->lambda) {
      ASSERT_FALSE(refs.empty());
      for (const ViewEdgeRef& r : refs) {
        EXPECT_TRUE(std::binary_search(m->selected.begin(), m->selected.end(),
                                       r.view));
      }
    }
  }
}

TEST(PropertyTest, MatchJoinWorksWithUnmaterializedUnselectedViews) {
  // Extensions of unselected views may be empty placeholders.
  Instance inst = MakeInstance(9);
  Result<ContainmentMapping> m = MinimumContainment(inst.q, inst.views);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->contained);
  std::vector<ViewExtension> sparse(inst.views.card());
  for (uint32_t vi : m->selected) sparse[vi] = inst.exts[vi];
  Result<MatchResult> joined =
      MatchJoin(inst.q, inst.views, sparse, *m);
  Result<MatchResult> direct = MatchSimulation(inst.q, *inst.g.Freeze());
  ASSERT_TRUE(joined.ok() && direct.ok());
  EXPECT_TRUE(*joined == *direct);
}

}  // namespace
}  // namespace gpmv
