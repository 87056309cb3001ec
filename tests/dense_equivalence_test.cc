/// Randomized equivalence properties of the dense CSR matching substrate:
/// the rank-indexed fixpoints (snapshot.h + candidate_space.h paths) must
/// produce results identical to independent reference implementations —
///
///  * MatchJoin with use_dense_ranks = true vs the pre-refactor hash-map
///    engine (use_dense_ranks = false), across semantics and schedules;
///  * rank-based (bounded) simulation vs the cubic recompute-from-scratch
///    baseline MatchBoundedSimulationNaive;
///  * rank-based dual simulation vs a literal delete-until-stable reference
///    implemented right here on the mutable graph;
///  * matching over an incrementally re-frozen snapshot vs a full rebuild.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/containment.h"
#include "core/match_join.h"
#include "graph/snapshot.h"
#include "simulation/bounded.h"
#include "simulation/dual.h"
#include "simulation/simulation.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

Graph MakeGraph(uint64_t seed) {
  RandomGraphOptions go;
  go.num_nodes = 140;
  go.num_edges = 420;
  go.num_labels = 4;
  go.seed = seed;
  return GenerateRandomGraph(go);
}

Pattern MakePattern(uint64_t seed, uint32_t max_bound) {
  RandomPatternOptions po;
  po.num_nodes = 3 + seed % 3;
  po.num_edges = po.num_nodes + seed % 3;
  po.label_pool = SyntheticLabels(4);
  po.max_bound = max_bound;
  po.seed = seed * 31 + 7;
  return GenerateRandomPattern(po);
}

/// Literal dual-simulation reference: delete pairs violating the child or
/// parent condition until stable, scanning adjacency directly.
std::vector<std::vector<NodeId>> NaiveDualRelation(const Pattern& q,
                                                   const Graph& g) {
  std::vector<std::vector<NodeId>> sim;
  EXPECT_TRUE(ComputeCandidateSets(q, g, &sim).ok());
  auto contains = [](const std::vector<NodeId>& s, NodeId v) {
    return std::binary_search(s.begin(), s.end(), v);
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t u = 0; u < q.num_nodes(); ++u) {
      auto& su = sim[u];
      size_t kept = 0;
      for (NodeId v : su) {
        bool ok = true;
        for (uint32_t e : q.out_edges(u)) {
          const uint32_t u2 = q.edge(e).dst;
          bool witness = false;
          for (NodeId w : g.out_neighbors(v)) {
            if (contains(sim[u2], w)) { witness = true; break; }
          }
          if (!witness) { ok = false; break; }
        }
        if (ok) {
          for (uint32_t e : q.in_edges(u)) {
            const uint32_t u0 = q.edge(e).src;
            bool witness = false;
            for (NodeId w : g.in_neighbors(v)) {
              if (contains(sim[u0], w)) { witness = true; break; }
            }
            if (!witness) { ok = false; break; }
          }
        }
        if (ok) su[kept++] = v;
      }
      if (kept != su.size()) {
        su.resize(kept);
        changed = true;
      }
    }
  }
  bool any_empty = false;
  for (const auto& su : sim) any_empty = any_empty || su.empty();
  if (any_empty) sim.assign(q.num_nodes(), {});
  return sim;
}

class DenseEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DenseEquivalenceTest, BoundedSimulationMatchesNaiveBaseline) {
  const uint64_t seed = GetParam();
  Graph g = MakeGraph(seed);
  for (uint32_t max_bound : {1u, 3u}) {
    Pattern q = MakePattern(seed, max_bound);
    std::vector<std::vector<uint32_t>> dist_fast, dist_naive;
    Result<MatchResult> fast =
        MatchBoundedSimulation(q, *g.Freeze(), &dist_fast);
    Result<MatchResult> naive = MatchBoundedSimulationNaive(q, g, &dist_naive);
    ASSERT_TRUE(fast.ok() && naive.ok());
    EXPECT_TRUE(*fast == *naive) << "seed=" << seed << " bound=" << max_bound;
    EXPECT_EQ(dist_fast, dist_naive) << "seed=" << seed;
  }
}

TEST_P(DenseEquivalenceTest, PlainSimulationMatchesNaiveBaseline) {
  const uint64_t seed = GetParam();
  Graph g = MakeGraph(seed);
  Pattern q = MakePattern(seed, 1);
  Result<MatchResult> sim = MatchSimulation(q, *g.Freeze());
  Result<MatchResult> naive = MatchBoundedSimulationNaive(q, g);
  ASSERT_TRUE(sim.ok() && naive.ok());
  EXPECT_TRUE(*sim == *naive) << "seed=" << seed;
}

TEST_P(DenseEquivalenceTest, DualSimulationMatchesLiteralReference) {
  const uint64_t seed = GetParam();
  Graph g = MakeGraph(seed);
  Pattern q = MakePattern(seed, 1);
  std::vector<std::vector<NodeId>> fast;
  ASSERT_TRUE(ComputeDualSimulationRelation(q, *g.Freeze(), &fast).ok());
  EXPECT_EQ(fast, NaiveDualRelation(q, g)) << "seed=" << seed;
}

TEST_P(DenseEquivalenceTest, DenseMatchJoinEqualsHashReference) {
  const uint64_t seed = GetParam();
  Graph g = MakeGraph(seed);
  for (uint32_t max_bound : {1u, 2u}) {
    Pattern q = MakePattern(seed, max_bound);
    CoveringViewOptions co;
    co.edges_per_view = 1 + seed % 2;
    co.num_distractors = 2;
    co.bound_slack = max_bound > 1 ? 1 : 0;
    co.seed = seed * 13 + 3;
    ViewSet views = GenerateCoveringViews(q, co);
    Result<std::vector<ViewExtension>> exts =
        MaterializeAll(views, *g.Freeze());
    ASSERT_TRUE(exts.ok());
    Result<ContainmentMapping> mapping = CheckContainment(q, views);
    ASSERT_TRUE(mapping.ok());
    ASSERT_TRUE(mapping->contained);

    for (bool rank_order : {true, false}) {
      MatchJoinOptions dense_opts, hash_opts;
      dense_opts.use_rank_order = hash_opts.use_rank_order = rank_order;
      dense_opts.use_dense_ranks = true;
      hash_opts.use_dense_ranks = false;
      MatchJoinStats dense_stats, hash_stats;
      Result<MatchResult> dense =
          MatchJoin(q, views, *exts, *mapping, dense_opts, &dense_stats);
      Result<MatchResult> hash =
          MatchJoin(q, views, *exts, *mapping, hash_opts, &hash_stats);
      ASSERT_TRUE(dense.ok() && hash.ok());
      EXPECT_TRUE(*dense == *hash)
          << "seed=" << seed << " bound=" << max_bound
          << " rank_order=" << rank_order;
      // Same merge, same fixpoint: the work counters must agree too.
      EXPECT_EQ(dense_stats.initial_pairs, hash_stats.initial_pairs);
      EXPECT_EQ(dense_stats.removed_pairs, hash_stats.removed_pairs);
      EXPECT_GT(dense_stats.candidate_ranks, 0u);
      EXPECT_EQ(hash_stats.candidate_ranks, 0u);
    }

    // Unit-bound patterns additionally check dual-semantics equivalence.
    if (q.IsSimulationPattern()) {
      MatchJoinOptions dense_opts, hash_opts;
      hash_opts.use_dense_ranks = false;
      Result<MatchResult> dense =
          DualMatchJoin(q, views, *exts, *mapping, dense_opts);
      Result<MatchResult> hash =
          DualMatchJoin(q, views, *exts, *mapping, hash_opts);
      ASSERT_TRUE(dense.ok() && hash.ok());
      EXPECT_TRUE(*dense == *hash) << "dual seed=" << seed;
    }
  }
}

TEST_P(DenseEquivalenceTest, RefrozenSnapshotMatchesFullRebuild) {
  const uint64_t seed = GetParam();
  Graph g = MakeGraph(seed);
  g.Freeze();

  // Mutate a few rows, then compare matching over the incremental re-freeze
  // against a from-scratch build of the same graph state.
  for (NodeId u = 0; u < 40; u += 4) {
    NodeId v = (u * 7 + seed) % static_cast<NodeId>(g.num_nodes());
    if (u == v) continue;
    if (!g.AddEdgeIfAbsent(u, v)) (void)g.RemoveEdge(u, v);
  }
  std::shared_ptr<const GraphSnapshot> refrozen = g.Freeze();
  std::shared_ptr<const GraphSnapshot> rebuilt =
      GraphSnapshot::Build(g, g.version());

  Pattern q = MakePattern(seed, 2);
  Result<MatchResult> a = MatchBoundedSimulation(q, *refrozen);
  Result<MatchResult> b = MatchBoundedSimulation(q, *rebuilt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a == *b) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace gpmv
