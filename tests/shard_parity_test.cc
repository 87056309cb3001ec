/// \file shard_parity_test.cc
/// \brief Randomized parity properties of the edge-cut shard library: for
/// every shard count K ∈ {1, 2, 4, 7} over degree-balanced range partitions,
/// the sharded fixpoints must produce results *bit-identical* to the
/// unsharded paths — the per-shard/cross-shard decomposition is an
/// execution strategy, never a semantics change. (perfbench's replay times
/// ShardedMatchBoundedSimulation against the one-thread fixpoint.)

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/executor.h"
#include "shard/shard_sim.h"
#include "shard/sharded_snapshot.h"
#include "simulation/bounded.h"
#include "simulation/dual.h"
#include "simulation/refinement.h"
#include "simulation/simulation.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

constexpr uint32_t kShardCounts[] = {1, 2, 4, 7};

Graph MakeGraph(uint64_t seed, size_t nodes = 160, size_t edges = 520) {
  RandomGraphOptions go;
  go.num_nodes = nodes;
  go.num_edges = edges;
  go.num_labels = 4;
  go.seed = seed;
  return GenerateRandomGraph(go);
}

Pattern MakePlainPattern(uint64_t seed) {
  RandomPatternOptions po;
  po.num_nodes = 3 + seed % 3;
  po.num_edges = po.num_nodes + seed % 2;
  po.label_pool = SyntheticLabels(4);
  po.max_bound = 1;
  po.seed = seed * 31 + 7;
  return GenerateRandomPattern(po);
}

TEST(ShardParityTest, RefinementMatchesUnshardedAcrossShardCountsAndModes) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Graph g = MakeGraph(seed);
    auto snap = g.Freeze();
    Pattern q = MakePlainPattern(seed);
    CandidateSpace space;
    ASSERT_TRUE(BuildCandidateSpace(q, *snap, nullptr, &space).ok());
    for (bool dual : {false, true}) {
      std::vector<std::vector<NodeId>> expect;
      ASSERT_TRUE(RefineSimulation(q, *snap, space, dual, &expect).ok());
      for (uint32_t k : kShardCounts) {
        ShardingOptions opts;
        opts.num_shards = k;
        auto ss = ShardedSnapshot::Build(snap, opts);
        std::vector<std::vector<NodeId>> got;
        ShardSimStats stats;
        ASSERT_TRUE(ShardedRefineSimulation(q, *ss, space, dual,
                                            /*pool=*/nullptr, &got, &stats)
                        .ok());
        EXPECT_EQ(got, expect)
            << "seed=" << seed << " K=" << k << " dual=" << dual;
        EXPECT_EQ(stats.shards, k);
      }
    }
  }
}

TEST(ShardParityTest, MatchResultsEqualPlainAndDualEngines) {
  ThreadPoolOptions po;
  po.num_threads = 3;
  ThreadPool pool(po);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Graph g = MakeGraph(seed + 50);
    auto snap = g.Freeze();
    Pattern q = MakePlainPattern(seed + 11);
    Result<MatchResult> plain = MatchSimulation(q, *snap);
    ASSERT_TRUE(plain.ok());
    Result<MatchResult> dual = MatchDualSimulation(q, *snap);
    ASSERT_TRUE(dual.ok());
    // The engine's direct path serves plain patterns through the bounded
    // matcher; parity must hold against it as well.
    Result<MatchResult> bounded = MatchBoundedSimulation(q, *snap);
    ASSERT_TRUE(bounded.ok());
    EXPECT_TRUE(*plain == *bounded) << "plain/bounded disagree pre-sharding";
    for (uint32_t k : kShardCounts) {
      ShardingOptions opts;
      opts.num_shards = k;
      auto ss = ShardedSnapshot::Build(snap, opts);
      Result<MatchResult> sharded =
          ShardedMatchSimulation(q, *ss, &pool, /*dual=*/false);
      ASSERT_TRUE(sharded.ok());
      EXPECT_TRUE(*sharded == *plain) << "seed=" << seed << " K=" << k;
      Result<MatchResult> sharded_dual =
          ShardedMatchSimulation(q, *ss, &pool, /*dual=*/true);
      ASSERT_TRUE(sharded_dual.ok());
      EXPECT_TRUE(*sharded_dual == *dual) << "seed=" << seed << " K=" << k;
    }
  }
}

TEST(ShardParityTest, SeededEvaluationMatchesUnsharded) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Graph g = MakeGraph(seed + 100);
    auto snap = g.Freeze();
    Pattern q = MakePlainPattern(seed + 23);
    // A plausible partial-plan seed: the label candidates with every third
    // node dropped — a superset-of-relation restriction on some nodes.
    std::vector<std::vector<NodeId>> seed_sets;
    ASSERT_TRUE(ComputeCandidateSets(q, *snap, &seed_sets).ok());
    for (auto& su : seed_sets) {
      std::vector<NodeId> kept;
      for (size_t i = 0; i < su.size(); ++i) {
        if (i % 3 != 2) kept.push_back(su[i]);
      }
      su = kept;
    }
    Result<MatchResult> expect =
        MatchBoundedSimulation(q, *snap, /*distances=*/nullptr, &seed_sets);
    ASSERT_TRUE(expect.ok());
    for (uint32_t k : kShardCounts) {
      ShardingOptions opts;
      opts.num_shards = k;
      auto ss = ShardedSnapshot::Build(snap, opts);
      Result<MatchResult> got = ShardedMatchSimulation(
          q, *ss, /*pool=*/nullptr, /*dual=*/false, &seed_sets);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(*got == *expect) << "seed=" << seed << " K=" << k;
    }
  }
}

Pattern MakeBoundedPattern(uint64_t seed) {
  RandomPatternOptions po;
  po.num_nodes = 3 + seed % 2;
  po.num_edges = po.num_nodes;
  po.label_pool = SyntheticLabels(4);
  po.max_bound = 3;
  po.seed = seed * 17 + 99;
  return GenerateRandomPattern(po);
}

/// The unit-bound entry still rejects bounded patterns (its decrement
/// exchange has no distance semantics); they go through the bounded
/// frontier hand-off entry instead.
TEST(ShardParityTest, BoundedPatternsRouteThroughBoundedEntry) {
  Graph g = MakeGraph(7);
  auto snap = g.Freeze();
  Pattern qb = MakeBoundedPattern(0);
  ASSERT_FALSE(qb.IsSimulationPattern());
  ShardingOptions opts;
  opts.num_shards = 2;
  auto ss = ShardedSnapshot::Build(snap, opts);
  EXPECT_FALSE(ShardedMatchSimulation(qb, *ss, nullptr).ok());
  Result<MatchResult> expect = MatchBoundedSimulation(qb, *snap);
  ASSERT_TRUE(expect.ok());
  Result<MatchResult> got = ShardedMatchBoundedSimulation(qb, *ss, nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got == *expect);
}

/// Bounded parity: for every shard count, the
/// frontier-hand-off evaluation is bit-identical to MatchBoundedSimulation
/// on the parent snapshot — including patterns with `*` (unbounded) edges
/// and unit-bound patterns routed through the same entry.
TEST(ShardParityTest, BoundedMatchesUnshardedAcrossShardCountsAndModes) {
  ThreadPoolOptions po;
  po.num_threads = 3;
  ThreadPool pool(po);
  size_t frontier_msgs = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Graph g = MakeGraph(seed + 200);
    auto snap = g.Freeze();
    Pattern qb = seed % 3 == 0 ? MakePlainPattern(seed) : MakeBoundedPattern(seed);
    Result<MatchResult> expect = MatchBoundedSimulation(qb, *snap);
    ASSERT_TRUE(expect.ok());
    for (uint32_t k : kShardCounts) {
      ShardingOptions opts;
      opts.num_shards = k;
      auto ss = ShardedSnapshot::Build(snap, opts);
      ShardSimStats stats;
      Result<MatchResult> got =
          ShardedMatchBoundedSimulation(qb, *ss, &pool, nullptr, &stats);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(*got == *expect) << "seed=" << seed << " K=" << k;
      EXPECT_EQ(stats.shards, k);
      if (k > 1) frontier_msgs += stats.frontier_msgs;
    }
  }
  // Some bounded evaluation crossed a shard boundary level by level.
  EXPECT_GT(frontier_msgs, 0u);
}

/// Bounded seeded parity: restricting candidates before the bounded
/// fixpoint (as the engine's partial-views plan does) must shard
/// identically too.
TEST(ShardParityTest, BoundedSeededEvaluationMatchesUnsharded) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Graph g = MakeGraph(seed + 300);
    auto snap = g.Freeze();
    Pattern qb = MakeBoundedPattern(seed + 40);
    std::vector<std::vector<NodeId>> seed_sets;
    ASSERT_TRUE(ComputeCandidateSets(qb, *snap, &seed_sets).ok());
    for (auto& su : seed_sets) {
      std::vector<NodeId> kept;
      for (size_t i = 0; i < su.size(); ++i) {
        if (i % 3 != 2) kept.push_back(su[i]);
      }
      su = kept;
    }
    Result<MatchResult> expect =
        MatchBoundedSimulation(qb, *snap, /*distances=*/nullptr, &seed_sets);
    ASSERT_TRUE(expect.ok());
    for (uint32_t k : kShardCounts) {
      ShardingOptions opts;
      opts.num_shards = k;
      auto ss = ShardedSnapshot::Build(snap, opts);
      Result<MatchResult> got = ShardedMatchBoundedSimulation(
          qb, *ss, /*pool=*/nullptr, &seed_sets);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(*got == *expect) << "seed=" << seed << " K=" << k;
    }
  }
}

}  // namespace
}  // namespace gpmv
