/// Randomized property suite for the insertion delta (simulation/delta.h,
/// core/maintenance.h insert path, engine two-phase update batches):
/// delta-insert results must be indistinguishable from from-scratch
/// re-materialization across mixed update batches, pattern shapes (chains,
/// DAGs, cyclic), and bounds — mirroring dense_equivalence_test.cc — plus
/// directed tests for every fallback reason of the locality heuristic.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/maintenance.h"
#include "engine/query_engine.h"
#include "pattern/pattern_builder.h"
#include "simulation/bounded.h"
#include "simulation/delta.h"
#include "test_util.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

using testutil::SameExtension;

/// Picks `count` edges absent from `g` (no self-loops).
std::vector<NodePair> RandomNewEdges(const Graph& g, size_t count, Rng* rng) {
  std::vector<NodePair> edges;
  size_t attempts = 0;
  while (edges.size() < count && ++attempts < count * 50) {
    NodeId u = static_cast<NodeId>(rng->NextBounded(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng->NextBounded(g.num_nodes()));
    if (u == v || g.HasEdge(u, v)) continue;
    bool dup = false;
    for (const NodePair& p : edges) dup = dup || (p.first == u && p.second == v);
    if (!dup) edges.emplace_back(u, v);
  }
  return edges;
}

/// Core property: after a batch of insertions, DeltaSimulationInsert on the
/// cached relation equals ComputeBoundedSimulationRelation from scratch.
void CheckDeltaAgainstScratch(uint64_t graph_seed, uint64_t pattern_seed,
                              bool dag_only) {
  RandomGraphOptions go;
  go.num_nodes = 120;
  go.num_edges = 360;
  go.num_labels = 3;
  go.seed = graph_seed;
  Graph g = GenerateRandomGraph(go);

  RandomPatternOptions po;
  po.num_nodes = 3 + pattern_seed % 3;
  po.num_edges = po.num_nodes - 1 + pattern_seed % 3;
  po.label_pool = SyntheticLabels(go.num_labels);
  po.max_bound = 1;
  po.dag_only = dag_only;
  po.seed = pattern_seed;
  Pattern q = GenerateRandomPattern(po);

  std::vector<std::vector<NodeId>> rel;
  ASSERT_TRUE(ComputeBoundedSimulationRelation(q, *g.Freeze(), &rel).ok());
  bool matched = true;
  for (const auto& s : rel) matched = matched && !s.empty();

  Rng rng(graph_seed * 977 + pattern_seed);
  for (int step = 0; step < 8; ++step) {
    std::vector<NodePair> batch =
        RandomNewEdges(g, 1 + rng.NextBounded(6), &rng);
    if (batch.empty()) return;
    for (const NodePair& p : batch) ASSERT_TRUE(g.AddEdge(p.first, p.second).ok());
    std::shared_ptr<const GraphSnapshot> snap = g.Freeze();

    DeltaScratch bufs(snap->num_nodes());
    DeltaOptions opts;
    opts.max_area_fraction = 1.0;  // never fall back on area size
    DeltaInsertStats stats;
    std::vector<std::vector<NodeId>> added;
    std::vector<std::vector<NodeId>> delta_rel = rel;
    ASSERT_TRUE(DeltaSimulationInsert(q, *snap, batch, opts, &bufs, &delta_rel,
                                      &added, &stats)
                    .ok());

    std::vector<std::vector<NodeId>> scratch;
    ASSERT_TRUE(ComputeBoundedSimulationRelation(q, *snap, &scratch).ok());
    bool scratch_matched = true;
    for (const auto& s : scratch) scratch_matched = scratch_matched && !s.empty();

    if (!matched) {
      // Collapsed cache: the delta must decline, not guess.
      EXPECT_FALSE(stats.applied);
      EXPECT_EQ(stats.fallback, DeltaInsertFallback::kUnmatchedRelation);
    } else {
      ASSERT_TRUE(stats.applied)
          << "unexpected fallback: " << DeltaInsertFallbackName(stats.fallback);
      // The collapsed all-empty convention only differs when additions kept
      // the relation matched; a still-matched scratch must agree exactly.
      ASSERT_TRUE(scratch_matched);
      EXPECT_EQ(delta_rel, scratch)
          << "graph_seed=" << graph_seed << " pattern_seed=" << pattern_seed
          << " step=" << step;
    }
    // Continue the walk from the authoritative relation.
    rel = scratch;
    matched = scratch_matched;
  }
}

TEST(DeltaInsertTest, RelationMatchesScratchDagPatterns) {
  for (uint64_t gs = 1; gs <= 4; ++gs) {
    for (uint64_t ps = 1; ps <= 5; ++ps) {
      CheckDeltaAgainstScratch(gs, ps, /*dag_only=*/true);
    }
  }
}

TEST(DeltaInsertTest, RelationMatchesScratchCyclicPatterns) {
  for (uint64_t gs = 11; gs <= 14; ++gs) {
    for (uint64_t ps = 1; ps <= 5; ++ps) {
      CheckDeltaAgainstScratch(gs, ps, /*dag_only=*/false);
    }
  }
}

TEST(DeltaInsertTest, CachedViewMixedBatchesStayExact) {
  RandomGraphOptions go;
  go.num_nodes = 90;
  go.num_edges = 270;
  go.num_labels = 3;
  go.seed = 21;
  Graph g = GenerateRandomGraph(go);
  ViewDefinition def{"v", testutil::ChainPattern({"L0", "L1", "L2"})};
  MaintenanceOptions opts;
  opts.max_area_fraction = 1.0;
  testutil::CachedView mv(def, opts);
  ASSERT_TRUE(mv.Install(g).ok());

  Rng rng(2027);
  for (int step = 0; step < 40; ++step) {
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
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(SameExtension(mv.extension(), *fresh)) << "step " << step;
  }
  // The walk must actually have exercised the delta path, not just the
  // re-materialization fallbacks.
  EXPECT_GT(mv.maintenance_stats().delta_refreshes, 0u);
}

TEST(DeltaInsertTest, ForcedAreaFallbackStaysExact) {
  RandomGraphOptions go;
  go.num_nodes = 60;
  go.num_edges = 180;
  go.num_labels = 3;
  go.seed = 5;
  Graph g = GenerateRandomGraph(go);
  ViewDefinition def{"v", testutil::ChainPattern({"L0", "L1"})};
  MaintenanceOptions opts;
  opts.max_area_fraction = 0.0;  // the area cap always trips
  testutil::CachedView mv(def, opts);
  ASSERT_TRUE(mv.Install(g).ok());

  Rng rng(7);
  size_t inserts = 0;
  for (int step = 0; step < 10; ++step) {
    std::vector<NodePair> batch = RandomNewEdges(g, 1, &rng);
    if (batch.empty()) continue;
    ASSERT_TRUE(g.AddEdge(batch[0].first, batch[0].second).ok());
    ASSERT_TRUE(mv.Inserted(g, batch[0].first, batch[0].second).ok());
    ++inserts;
    auto fresh = ViewExtension::Materialize(def, *g.Freeze());
    ASSERT_TRUE(SameExtension(mv.extension(), *fresh)) << "step " << step;
  }
  EXPECT_EQ(mv.maintenance_stats().delta_refreshes, 0u);
  EXPECT_EQ(mv.maintenance_stats().rematerialize_fallbacks, inserts);
}

TEST(DeltaInsertTest, BoundedViewTakesDeltaPathAndStaysExact) {
  Graph g = testutil::ChainGraph({"A", "X", "B"});
  Pattern p;
  uint32_t a = p.AddNode("A"), b = p.AddNode("B");
  ASSERT_TRUE(p.AddEdge(a, b, 2).ok());
  testutil::CachedView mv(ViewDefinition{"v", std::move(p)});
  ASSERT_TRUE(mv.Install(g).ok());

  // New node pair within bound 2 only via the inserted edge. The bounded
  // delta path (DeltaBoundedInsert + ball merge) picks it up without
  // re-materializing, distances included.
  NodeId y = g.AddNode("A");
  ASSERT_TRUE(g.AddEdge(y, 1).ok());  // y -> X -> B
  ASSERT_TRUE(mv.Inserted(g, y, 1).ok());
  EXPECT_EQ(mv.maintenance_stats().delta_refreshes, 1u);
  EXPECT_EQ(mv.maintenance_stats().bounded_delta_refreshes, 1u);
  EXPECT_EQ(mv.maintenance_stats().rematerialize_fallbacks, 0u);
  EXPECT_GT(mv.maintenance_stats().bounded_matches_added, 0u);
  auto fresh = ViewExtension::Materialize(mv.definition(), *g.Freeze());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(SameExtension(mv.extension(), *fresh));
}

TEST(DeltaInsertTest, RenotifiedInsertionIsIdempotent) {
  // Notifying the same insertion twice must not duplicate match pairs (the
  // old re-materializing path was idempotent; the merge guard keeps it so).
  Graph g = testutil::ChainGraph({"A", "B"});
  NodeId c = g.AddNode("A");
  MaintenanceOptions opts;
  opts.max_area_fraction = 1.0;
  testutil::CachedView mv(
      ViewDefinition{
          "v", PatternBuilder().Node("A").Node("B").Edge("A", "B").Build()},
      opts);
  ASSERT_TRUE(mv.Install(g).ok());

  ASSERT_TRUE(g.AddEdge(c, 1).ok());
  ASSERT_TRUE(mv.Inserted(g, c, 1).ok());
  EXPECT_EQ(mv.maintenance_stats().delta_refreshes, 1u);
  ASSERT_TRUE(mv.Inserted(g, c, 1).ok());  // re-notified, edge exists
  auto fresh = ViewExtension::Materialize(mv.definition(), *g.Freeze());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(SameExtension(mv.extension(), *fresh));
  EXPECT_EQ(mv.extension().TotalPairs(), 2u);
}

TEST(DeltaInsertTest, UnmatchedViewFallsBackWhenInsertionCreatesMatch) {
  Graph g;
  NodeId a = g.AddNode("A");
  NodeId b = g.AddNode("B");
  testutil::CachedView mv(ViewDefinition{
      "v", PatternBuilder().Node("A").Node("B").Edge("A", "B").Build()});
  ASSERT_TRUE(mv.Install(g).ok());
  EXPECT_FALSE(mv.extension().matched());

  ASSERT_TRUE(g.AddEdge(a, b).ok());
  ASSERT_TRUE(mv.Inserted(g, a, b).ok());
  EXPECT_TRUE(mv.extension().matched());
  EXPECT_EQ(mv.extension().TotalPairs(), 1u);
  EXPECT_GE(mv.maintenance_stats().rematerialize_fallbacks, 1u);
}

/// Engine-level equivalence: random mixed batches through ApplyUpdates,
/// with every view-served query checked against a fresh from-scratch
/// engine; the delta-enabled and delta-disabled engines must agree.
TEST(DeltaInsertTest, EngineUpdateBatchesMatchScratchAcrossPlans) {
  RandomGraphOptions go;
  go.num_nodes = 100;
  go.num_edges = 300;
  go.num_labels = 3;
  go.seed = 33;
  Graph base = GenerateRandomGraph(go);

  Pattern q = testutil::ChainPattern({"L0", "L1", "L2"});
  auto make_engine = [&](bool delta) {
    EngineOptions opts;
    opts.pool.num_threads = 1;
    opts.maintenance.enable_delta = delta;
    opts.maintenance.max_area_fraction = 1.0;
    opts.result_cache.budget_bytes = 0;  // isolate the maintenance path
    auto engine = std::make_unique<QueryEngine>(base, opts);
    EXPECT_TRUE(engine
                    ->RegisterView("v01", testutil::ChainPattern({"L0", "L1"}))
                    .ok());
    EXPECT_TRUE(engine
                    ->RegisterView("v12", testutil::ChainPattern({"L1", "L2"}))
                    .ok());
    EXPECT_TRUE(engine->WarmViews().ok());
    return engine;
  };
  auto delta_engine = make_engine(true);
  auto scratch_engine = make_engine(false);

  Graph shadow = base;  // mirrors the engines' graph state
  Rng rng(90);
  for (int step = 0; step < 12; ++step) {
    std::vector<EdgeUpdate> batch;
    std::vector<NodePair> seen;  // one op per edge: keeps the in-order
                                 // shadow equal to the set-semantics batch
    for (int i = 0; i < 6; ++i) {
      NodeId u = static_cast<NodeId>(rng.NextBounded(shadow.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.NextBounded(shadow.num_nodes()));
      if (u == v) continue;
      bool dup = false;
      for (const NodePair& p : seen) dup = dup || (p.first == u && p.second == v);
      if (dup) continue;
      seen.emplace_back(u, v);
      if (rng.NextBounded(3) == 0 && shadow.HasEdge(u, v)) {
        batch.push_back(EdgeUpdate::Delete(u, v));
        (void)shadow.RemoveEdge(u, v);
      } else if (!shadow.HasEdge(u, v)) {
        batch.push_back(EdgeUpdate::Insert(u, v));
        (void)shadow.AddEdgeIfAbsent(u, v);
      }
    }
    ASSERT_TRUE(delta_engine->ApplyUpdates(batch).ok());
    ASSERT_TRUE(scratch_engine->ApplyUpdates(batch).ok());

    QueryResponse dr = delta_engine->Query(q);
    QueryResponse sr = scratch_engine->Query(q);
    ASSERT_TRUE(dr.status.ok());
    ASSERT_TRUE(sr.status.ok());
    ASSERT_TRUE(dr.result == sr.result) << "step " << step;
    Result<MatchResult> oracle = MatchBoundedSimulation(q, *shadow.Freeze());
    ASSERT_TRUE(oracle.ok());
    ASSERT_TRUE(dr.result == *oracle) << "step " << step;
  }
  const obs::MetricsSnapshot dm = delta_engine->metrics()->TakeSnapshot();
  EXPECT_GT(dm.CounterValue("delta.refreshes"), 0u);
  const obs::MetricsSnapshot sm = scratch_engine->metrics()->TakeSnapshot();
  EXPECT_EQ(sm.CounterValue("delta.refreshes"), 0u);
  EXPECT_GT(sm.CounterValue("delta.fallbacks"), 0u);
  EXPECT_TRUE(delta_engine->CheckCacheConsistency());
  EXPECT_TRUE(scratch_engine->CheckCacheConsistency());
}

/// Same-edge delete + insert in one batch: set semantics (deletions run
/// first) leave the edge present.
TEST(DeltaInsertTest, BatchSetSemanticsDeleteThenInsert) {
  Graph g = testutil::ChainGraph({"A", "B"});
  EngineOptions opts;
  opts.pool.num_threads = 1;
  QueryEngine engine(g, opts);
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(0, 1),
                                   EdgeUpdate::Delete(0, 1)};
  ASSERT_TRUE(engine.ApplyUpdates(batch).ok());
  EXPECT_EQ(engine.num_graph_edges(), 1u);

  Pattern q = testutil::ChainPattern({"A", "B"});
  QueryResponse resp = engine.Query(q);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_TRUE(resp.result.matched());
}

}  // namespace
}  // namespace gpmv
