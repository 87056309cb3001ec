/// Randomized property suite for incremental bounded simulation:
///
///  * DeltaBoundedInsert must agree with ComputeBoundedSimulationRelation
///    from scratch across random insert streams, DAG and cyclic patterns,
///    and mixed bounds (including `*`);
///  * a maintained bounded view must stay bit-identical — pairs AND
///    distances — to from-scratch re-materialization across mixed
///    insert/delete streams, on the delta path and on every forced
///    fallback;
///  * the engine end-to-end: a bounded-view engine under update batches
///    answers exactly like a view-less direct engine, while the bounded
///    delta counters advance;
///  * DeltaBoundedDelete (bounds 1, 2, 3 and `*`; one-edge, DAG and cyclic
///    patterns; delete batches of 1, 4 and 32 with absent edges,
///    self-loops and delete-then-reinsert) must leave the relation, the
///    match columns (pairs and distances — the distance index I(V)) and the
///    snapshot key set equal to a fresh materialization, and each of its three fallbacks must fire
///    and stay exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/maintenance.h"
#include "engine/query_engine.h"
#include "graph/traversal.h"
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

/// Core property: after a batch of insertions, DeltaBoundedInsert on the
/// cached bounded relation equals ComputeBoundedSimulationRelation from
/// scratch — same shape as the plain-delta property, with non-unit bounds.
void CheckBoundedDeltaAgainstScratch(uint64_t graph_seed,
                                     uint64_t pattern_seed, bool dag_only,
                                     uint32_t max_bound) {
  RandomGraphOptions go;
  go.num_nodes = 110;
  go.num_edges = 330;
  go.num_labels = 3;
  go.seed = graph_seed;
  Graph g = GenerateRandomGraph(go);

  RandomPatternOptions po;
  po.num_nodes = 3 + pattern_seed % 3;
  po.num_edges = po.num_nodes - 1 + pattern_seed % 2;
  po.label_pool = SyntheticLabels(go.num_labels);
  po.max_bound = max_bound;
  po.dag_only = dag_only;
  po.seed = pattern_seed * 13 + 5;
  Pattern qb = GenerateRandomPattern(po);

  std::vector<std::vector<NodeId>> rel;
  ASSERT_TRUE(ComputeBoundedSimulationRelation(qb, *g.Freeze(), &rel).ok());
  bool matched = true;
  for (const auto& s : rel) matched = matched && !s.empty();

  Rng rng(graph_seed * 977 + pattern_seed);
  for (int step = 0; step < 6; ++step) {
    std::vector<NodePair> batch =
        RandomNewEdges(g, 1 + rng.NextBounded(5), &rng);
    if (batch.empty()) return;
    for (const NodePair& p : batch) {
      ASSERT_TRUE(g.AddEdge(p.first, p.second).ok());
    }
    std::shared_ptr<const GraphSnapshot> snap = g.Freeze();

    DeltaScratch bufs(snap->num_nodes());
    DeltaOptions opts;
    opts.max_area_fraction = 1.0;  // never fall back on area size
    DeltaInsertStats stats;
    std::vector<std::vector<NodeId>> added;
    std::vector<std::vector<NodeId>> delta_rel = rel;
    ASSERT_TRUE(DeltaBoundedInsert(qb, *snap, batch, opts, &bufs, &delta_rel,
                                   &added, &stats)
                    .ok());

    std::vector<std::vector<NodeId>> scratch;
    ASSERT_TRUE(ComputeBoundedSimulationRelation(qb, *snap, &scratch).ok());
    bool scratch_matched = true;
    for (const auto& s : scratch) {
      scratch_matched = scratch_matched && !s.empty();
    }

    if (!matched) {
      EXPECT_FALSE(stats.applied);
      EXPECT_EQ(stats.fallback, DeltaInsertFallback::kUnmatchedRelation);
    } else {
      ASSERT_TRUE(stats.applied)
          << "unexpected fallback: " << DeltaInsertFallbackName(stats.fallback);
      ASSERT_TRUE(scratch_matched);
      EXPECT_EQ(delta_rel, scratch)
          << "graph_seed=" << graph_seed << " pattern_seed=" << pattern_seed
          << " step=" << step << " bound=" << max_bound;
      // The additions reported really are additions.
      for (uint32_t u = 0; u < qb.num_nodes(); ++u) {
        for (NodeId v : added[u]) {
          EXPECT_TRUE(std::binary_search(scratch[u].begin(), scratch[u].end(),
                                         v));
          EXPECT_FALSE(std::binary_search(rel[u].begin(), rel[u].end(), v));
        }
      }
    }
    rel = scratch;
    matched = scratch_matched;
  }
}

TEST(BoundedDeltaTest, RelationMatchesScratchDagPatterns) {
  for (uint64_t gs = 1; gs <= 3; ++gs) {
    for (uint64_t ps = 1; ps <= 4; ++ps) {
      CheckBoundedDeltaAgainstScratch(gs, ps, /*dag_only=*/true, 3);
    }
  }
}

TEST(BoundedDeltaTest, RelationMatchesScratchCyclicPatterns) {
  for (uint64_t gs = 11; gs <= 13; ++gs) {
    for (uint64_t ps = 1; ps <= 4; ++ps) {
      CheckBoundedDeltaAgainstScratch(gs, ps, /*dag_only=*/false, 3);
    }
  }
}

TEST(BoundedDeltaTest, RelationMatchesScratchVaryingBounds) {
  for (uint32_t max_bound : {2u, 4u, kUnbounded}) {
    CheckBoundedDeltaAgainstScratch(21, 2, /*dag_only=*/true, max_bound);
    CheckBoundedDeltaAgainstScratch(22, 3, /*dag_only=*/false, max_bound);
  }
}

TEST(BoundedDeltaTest, PlainPatternsDelegateToPlainDelta) {
  // Unit-bound patterns through the bounded entry behave exactly like
  // DeltaSimulationInsert (it delegates); the property holds transitively.
  CheckBoundedDeltaAgainstScratch(31, 1, /*dag_only=*/true, 1);
}

/// A bounded two-edge view pattern: L0 -[<=2]-> L1 -[<=3]-> L2.
Pattern BoundedChainPattern() {
  return PatternBuilder()
      .Node("L0")
      .Node("L1")
      .Node("L2")
      .Edge("L0", "L1", 2)
      .Edge("L1", "L2", 3)
      .Build();
}

/// Mixed random insert/delete stream against a maintained bounded view:
/// the extension (pairs and distances) must equal from-scratch
/// re-materialization after every step.
TEST(BoundedDeltaTest, MaintainedBoundedViewMixedStreamStaysExact) {
  RandomGraphOptions go;
  go.num_nodes = 80;
  go.num_edges = 240;
  go.num_labels = 3;
  go.seed = 33;
  Graph g = GenerateRandomGraph(go);
  ViewDefinition def{"vb", BoundedChainPattern()};
  MaintenanceOptions opts;
  opts.max_area_fraction = 1.0;
  testutil::CachedView mv(def, opts);
  ASSERT_TRUE(mv.Install(g).ok());

  Rng rng(2026);
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
  // The walk exercised the bounded delta path, not just fallbacks.
  EXPECT_GT(mv.maintenance_stats().bounded_delta_refreshes, 0u);
  EXPECT_GT(mv.maintenance_stats().bounded_matches_added, 0u);
}

/// Forced fallbacks stay exact for bounded views: the area cap (0.0 trips
/// on every insert) and the delta kill switch both re-materialize.
TEST(BoundedDeltaTest, ForcedFallbacksStayExactForBoundedViews) {
  for (bool disable_delta : {false, true}) {
    RandomGraphOptions go;
    go.num_nodes = 60;
    go.num_edges = 180;
    go.num_labels = 3;
    go.seed = 9;
    Graph g = GenerateRandomGraph(go);
    ViewDefinition def{"vb", BoundedChainPattern()};
    MaintenanceOptions opts;
    if (disable_delta) {
      opts.enable_delta = false;
    } else {
      opts.max_area_fraction = 0.0;  // the area cap always trips
    }
    testutil::CachedView mv(def, opts);
    ASSERT_TRUE(mv.Install(g).ok());

    Rng rng(17);
    size_t inserts = 0;
    for (int step = 0; step < 8; ++step) {
      std::vector<NodePair> batch = RandomNewEdges(g, 1, &rng);
      if (batch.empty()) continue;
      ASSERT_TRUE(g.AddEdge(batch[0].first, batch[0].second).ok());
      ASSERT_TRUE(mv.Inserted(g, batch[0].first, batch[0].second).ok());
      ++inserts;
      auto fresh = ViewExtension::Materialize(def, *g.Freeze());
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(SameExtension(mv.extension(), *fresh))
          << "step " << step << " disable_delta=" << disable_delta;
    }
    EXPECT_EQ(mv.maintenance_stats().bounded_delta_refreshes, 0u);
    EXPECT_EQ(mv.maintenance_stats().rematerialize_fallbacks, inserts);
  }
}

/// Engine end-to-end: a bounded-view engine under random update batches
/// answers bounded queries exactly like a view-less direct engine, while
/// the bounded-delta counters advance (no unconditional
/// re-materialization anymore).
TEST(BoundedDeltaTest, EngineBoundedViewStaysExactUnderUpdates) {
  RandomGraphOptions go;
  go.num_nodes = 100;
  go.num_edges = 300;
  go.num_labels = 3;
  go.seed = 7;
  Graph g = GenerateRandomGraph(go);

  EngineOptions opts;
  opts.pool.num_threads = 1;
  // Small graph: bounded balls easily exceed the default 0.25·|V| area
  // fallback threshold; the test targets the delta path, not the fallback.
  opts.maintenance.max_area_fraction = 1.0;
  QueryEngine with_views(g, opts);
  QueryEngine direct(g, opts);
  Pattern qb = BoundedChainPattern();
  ASSERT_TRUE(with_views.RegisterView("vb", BoundedChainPattern()).ok());
  ASSERT_TRUE(with_views.WarmViews().ok());

  Rng rng(314);
  for (int round = 0; round < 6; ++round) {
    QueryResponse a = with_views.Query(qb);
    QueryResponse b = direct.Query(qb);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_TRUE(a.result == b.result) << "round " << round;

    std::vector<EdgeUpdate> batch;
    for (const NodePair& p : RandomNewEdges(g, 3, &rng)) {
      batch.push_back(EdgeUpdate::Insert(p.first, p.second));
      (void)g.AddEdge(p.first, p.second);
    }
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    if (u != v && g.HasEdge(u, v)) {
      batch.push_back(EdgeUpdate::Delete(u, v));
      (void)g.RemoveEdge(u, v);
    }
    ASSERT_TRUE(with_views.ApplyUpdates(batch).ok());
    ASSERT_TRUE(direct.ApplyUpdates(batch).ok());
  }

  const obs::MetricsSnapshot m = with_views.metrics()->TakeSnapshot();
  // The bounded view refreshed through the delta path at least once, and
  // its extension is still cached.
  EXPECT_GT(m.CounterValue("delta.bounded_refreshes"), 0u);
  EXPECT_GT(m.GaugeValue("cache.bytes_cached"), 0.0);
  EXPECT_TRUE(with_views.CheckCacheConsistency());
}


// ---------------------------------------------------------------------------
// Deletions: DeltaBoundedDelete and the maintained view under delete batches
// ---------------------------------------------------------------------------

/// Sorted distinct pair endpoints of `edges`.
std::vector<NodeId> Endpoints(const std::vector<ViewEdgeExtension>& edges) {
  std::vector<NodeId> out;
  for (const ViewEdgeExtension& vee : edges) {
    for (const NodePair& p : vee.pairs) {
      out.push_back(p.first);
      out.push_back(p.second);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Delete-test patterns over labels L0..L2 with every edge bounded by `k`:
/// 0 = one edge, 1 = multi-edge DAG, 2 = cyclic.
Pattern DeletePattern(int shape, uint32_t k) {
  PatternBuilder b;
  b.Node("L0").Node("L1").Node("L2");
  switch (shape) {
    case 0:
      b.Edge("L0", "L1", k);
      break;
    case 1:
      b.Edge("L0", "L1", k).Edge("L1", "L2", k).Edge("L0", "L2", k);
      break;
    default:
      b.Edge("L0", "L1", k).Edge("L1", "L2", k).Edge("L2", "L0", k);
      break;
  }
  return b.Build();
}

/// One delete batch of `size` ops on `g`: mostly existing edges, plus (in
/// larger batches) an absent edge and a self-loop; with `reinsert`, the
/// first existing edge comes back in the same batch.
void MakeDeleteBatch(const Graph& g, size_t size, bool reinsert, Rng* rng,
                     std::vector<NodePair>* deleted,
                     std::vector<NodePair>* inserted) {
  deleted->clear();
  inserted->clear();
  for (size_t tries = 0; deleted->size() < size && tries < size * 20;
       ++tries) {
    const NodeId u = static_cast<NodeId>(rng->NextBounded(g.num_nodes()));
    const size_t kind = deleted->size() % 8;
    if (kind == 5 && size > 1) {  // absent edge
      const NodeId v = static_cast<NodeId>(rng->NextBounded(g.num_nodes()));
      if (!g.HasEdge(u, v)) deleted->emplace_back(u, v);
      continue;
    }
    if (kind == 6 && size > 1) {  // self-loop, present or not
      deleted->emplace_back(u, u);
      continue;
    }
    if (g.out_degree(u) == 0) continue;
    const NodeId v = g.out_neighbors(u)[rng->NextBounded(g.out_degree(u))];
    if (std::find(deleted->begin(), deleted->end(), NodePair{u, v}) ==
        deleted->end()) {
      deleted->emplace_back(u, v);
    }
  }
  if (reinsert) {
    for (const NodePair& p : *deleted) {
      if (g.HasEdge(p.first, p.second)) {
        inserted->push_back(p);
        break;
      }
    }
  }
}

/// Random small graph (the balls cover much of it) with a few self-loops.
Graph SmallDeleteGraph(uint64_t seed) {
  RandomGraphOptions go;
  go.num_nodes = 40;
  go.num_edges = 130;
  go.num_labels = 3;
  go.seed = seed;
  Graph g = GenerateRandomGraph(go);
  for (NodeId v = 0; v < g.num_nodes(); v += 7) (void)g.AddEdgeIfAbsent(v, v);
  return g;
}

/// Totals across a delete-stream run, for the "paths were exercised"
/// assertions.
struct DeleteRunTotals {
  size_t applied = 0;
  size_t emptied = 0;
  size_t refreshes = 0;
  size_t skips = 0;
};

/// Differential core: the identical delete-batch stream runs through
/// DeltaBoundedDelete on a bare (relation, columns) pair and through a
/// maintained CachedView. After every batch both must equal a fresh
/// materialization: relation, columns (pairs and distances), orphan set,
/// SameExtension (snapshot key set and distance columns included) and byte
/// accounting.
void CheckDeleteStream(const Pattern& qb, uint64_t graph_seed, size_t batch,
                       size_t steps, DeleteRunTotals* totals) {
  SCOPED_TRACE(testing::Message() << "graph_seed=" << graph_seed
                                  << " batch=" << batch);
  Graph g = SmallDeleteGraph(graph_seed);
  Graph g_view = g;
  ViewDefinition def{"vd", qb};
  MaintenanceOptions mopts;
  mopts.max_area_fraction = 1.0;  // the test targets the delta path
  testutil::CachedView mv(def, mopts);
  ASSERT_TRUE(mv.Install(g_view).ok());

  std::vector<std::vector<NodeId>> rel;
  Result<ViewExtension> start =
      ViewExtension::Materialize(def, *g.Freeze(), nullptr, &rel);
  ASSERT_TRUE(start.ok());
  std::vector<ViewEdgeExtension> edges;
  for (uint32_t e = 0; e < start->num_view_edges(); ++e) {
    edges.push_back(start->edge(e));
  }

  DeltaOptions dopts;
  dopts.max_area_fraction = 1.0;
  Rng rng(graph_seed * 131 + batch);
  std::vector<NodePair> deleted, inserted;
  for (size_t step = 0; step < steps; ++step) {
    SCOPED_TRACE(testing::Message() << "step=" << step);
    MakeDeleteBatch(g, batch, /*reinsert=*/step % 3 == 2, &rng, &deleted,
                    &inserted);
    if (deleted.empty()) break;

    // Bare delta against the post-delete snapshot.
    for (const NodePair& p : deleted) (void)g.RemoveEdge(p.first, p.second);
    std::shared_ptr<const GraphSnapshot> after = g.Freeze();
    std::vector<std::vector<NodeId>> fresh_rel;
    Result<ViewExtension> fresh =
        ViewExtension::Materialize(def, *after, nullptr, &fresh_rel);
    ASSERT_TRUE(fresh.ok());
    DeltaScratch bufs(after->num_nodes());
    const std::vector<NodeId> endpoints_before = Endpoints(edges);
    std::vector<NodeId> orphaned;
    DeltaDeleteStats dstats;
    ASSERT_TRUE(DeltaBoundedDelete(qb, *after, deleted, dopts, &bufs, &rel,
                                   &edges, &orphaned, &dstats)
                    .ok());
    if (dstats.applied) {
      ++totals->applied;
      ASSERT_EQ(rel, fresh_rel);
      for (uint32_t e = 0; e < edges.size(); ++e) {
        ASSERT_EQ(edges[e].pairs, fresh->edge(e).pairs) << "edge " << e;
        ASSERT_EQ(edges[e].distances, fresh->edge(e).distances)
            << "edge " << e;
      }
      std::vector<NodeId> gone;
      const std::vector<NodeId> endpoints_after = Endpoints(edges);
      std::set_difference(endpoints_before.begin(), endpoints_before.end(),
                          endpoints_after.begin(), endpoints_after.end(),
                          std::back_inserter(gone));
      ASSERT_EQ(orphaned, gone);
    } else {
      // Only an emptied relation may decline here (the area cap is off).
      ASSERT_EQ(dstats.fallback, DeltaDeleteFallback::kRelationEmptied);
      ASSERT_FALSE(fresh->matched());
      ++totals->emptied;
    }
    // The bare side re-materializes around insertions (insert deltas are
    // covered above); the maintained side runs the whole batch.
    for (const NodePair& p : inserted) {
      (void)g.AddEdgeIfAbsent(p.first, p.second);
    }
    std::shared_ptr<const GraphSnapshot> final_snap = g.Freeze();
    Result<ViewExtension> fresh_final =
        ViewExtension::Materialize(def, *final_snap, nullptr, &rel);
    ASSERT_TRUE(fresh_final.ok());
    edges.clear();
    for (uint32_t e = 0; e < fresh_final->num_view_edges(); ++e) {
      edges.push_back(fresh_final->edge(e));
    }

    ASSERT_TRUE(mv.Batch(g_view, deleted, inserted).ok());
    ASSERT_TRUE(SameExtension(mv.extension(), *fresh_final));
    ASSERT_TRUE(mv.CheckConsistency());
  }
  totals->refreshes += mv.maintenance_stats().delete_refreshes;
  totals->skips += mv.maintenance_stats().delete_skips;
}

TEST(BoundedDeltaTest, DeleteBatchesMatchFreshMaterialization) {
  DeleteRunTotals totals;
  for (uint32_t k : {1u, 2u, 3u, kUnbounded}) {
    for (int shape = 0; shape < 3; ++shape) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " shape=" << shape);
      const Pattern qb = DeletePattern(shape, k);
      CheckDeleteStream(qb, 101 + shape, /*batch=*/1, /*steps=*/24, &totals);
      CheckDeleteStream(qb, 201 + shape, /*batch=*/4, /*steps=*/10, &totals);
      CheckDeleteStream(qb, 301 + shape, /*batch=*/32, /*steps=*/3, &totals);
    }
  }
  // Every path ran: local repairs, emptied relations, prescreen skips.
  EXPECT_GT(totals.applied, 0u);
  EXPECT_GT(totals.emptied, 0u);
  EXPECT_GT(totals.refreshes, 0u);
  EXPECT_GT(totals.skips, 0u);
}

/// Mixed bounds in one pattern: the prescreen and the seeds pick the plain
/// test for the k = 1 edge and the ball test for the others.
TEST(BoundedDeltaTest, DeleteBatchesMixedBoundsStayExact) {
  const Pattern qb = PatternBuilder()
                         .Node("L0")
                         .Node("L1")
                         .Node("L2")
                         .Edge("L0", "L1", 1)
                         .Edge("L1", "L2", 3)
                         .Edge("L2", "L1", 2)
                         .Build();
  DeleteRunTotals totals;
  CheckDeleteStream(qb, 401, /*batch=*/1, /*steps=*/24, &totals);
  CheckDeleteStream(qb, 402, /*batch=*/4, /*steps=*/10, &totals);
  CheckDeleteStream(qb, 403, /*batch=*/32, /*steps=*/3, &totals);
  EXPECT_GT(totals.applied, 0u);
}

/// Fallback 1: the dirty area over the cap (0 trips on any seed) takes the
/// seeded full refresh, and stays exact.
TEST(BoundedDeltaTest, DeleteAreaCapFallbackStaysExact) {
  Graph g = SmallDeleteGraph(501);
  ViewDefinition def{"vd", DeletePattern(1, 2)};
  MaintenanceOptions opts;
  opts.max_area_fraction = 0.0;
  testutil::CachedView mv(def, opts);
  ASSERT_TRUE(mv.Install(g).ok());
  Rng rng(5);
  std::vector<NodePair> deleted, inserted;
  for (int step = 0; step < 12; ++step) {
    MakeDeleteBatch(g, 1, /*reinsert=*/false, &rng, &deleted, &inserted);
    ASSERT_TRUE(mv.Batch(g, deleted, inserted).ok());
    auto fresh = ViewExtension::Materialize(def, *g.Freeze());
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(SameExtension(mv.extension(), *fresh)) << "step " << step;
  }
  EXPECT_EQ(mv.maintenance_stats().delete_refreshes, 0u);
  EXPECT_GT(mv.maintenance_stats().delete_fallbacks, 0u);
  EXPECT_TRUE(mv.CheckConsistency());
}

/// Fallback 2: a relation that empties (the view stops matching) declines
/// the delta; the seeded refresh yields the unmatched extension.
TEST(BoundedDeltaTest, DeleteEmptiedRelationFallsBack) {
  Graph g = testutil::ChainGraph({"A", "X", "B"});
  Pattern p;
  const uint32_t a = p.AddNode("A"), b = p.AddNode("B");
  ASSERT_TRUE(p.AddEdge(a, b, 2).ok());
  ViewDefinition def{"v", p};

  std::vector<std::vector<NodeId>> rel;
  Result<ViewExtension> ext =
      ViewExtension::Materialize(def, *g.Freeze(), nullptr, &rel);
  ASSERT_TRUE(ext.ok());
  ASSERT_TRUE(g.RemoveEdge(1, 2).ok());
  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  DeltaScratch bufs(snap->num_nodes());
  std::vector<ViewEdgeExtension> edges = {ext->edge(0)};
  const std::vector<std::vector<NodeId>> rel_before = rel;
  std::vector<NodeId> orphaned;
  DeltaDeleteStats dstats;
  DeltaOptions dopts;
  dopts.max_area_fraction = 1.0;  // three nodes: any cap below |V| trips
  ASSERT_TRUE(DeltaBoundedDelete(p, *snap, {{1, 2}}, dopts, &bufs, &rel,
                                 &edges, &orphaned, &dstats)
                  .ok());
  EXPECT_FALSE(dstats.applied);
  EXPECT_EQ(dstats.fallback, DeltaDeleteFallback::kRelationEmptied);
  EXPECT_EQ(rel, rel_before);  // untouched on fallback

  Graph g2 = testutil::ChainGraph({"A", "X", "B"});
  MaintenanceOptions mopts;
  mopts.max_area_fraction = 1.0;
  testutil::CachedView mv(def, mopts);
  ASSERT_TRUE(mv.Install(g2).ok());
  ASSERT_TRUE(mv.Batch(g2, {{1, 2}}, {}).ok());
  EXPECT_FALSE(mv.extension().matched());
  EXPECT_EQ(mv.extension().num_snapshots(), 0u);
  EXPECT_EQ(mv.maintenance_stats().delete_fallbacks, 1u);
  EXPECT_EQ(mv.maintenance_stats().delete_refreshes, 0u);
}

/// Fallback 3: with the delta disabled every affected view takes the
/// seeded full refresh — bench/update_latency's baseline — and stays exact.
TEST(BoundedDeltaTest, DeleteDisabledDeltaFallsBackAndStaysExact) {
  Graph g = SmallDeleteGraph(601);
  ViewDefinition def{"vd", DeletePattern(2, 2)};
  MaintenanceOptions opts;
  opts.enable_delta = false;
  testutil::CachedView mv(def, opts);
  ASSERT_TRUE(mv.Install(g).ok());
  Rng rng(6);
  std::vector<NodePair> deleted, inserted;
  for (int step = 0; step < 8; ++step) {
    MakeDeleteBatch(g, 4, /*reinsert=*/false, &rng, &deleted, &inserted);
    ASSERT_TRUE(mv.Batch(g, deleted, inserted).ok());
    auto fresh = ViewExtension::Materialize(def, *g.Freeze());
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(SameExtension(mv.extension(), *fresh)) << "step " << step;
  }
  EXPECT_EQ(mv.maintenance_stats().delete_refreshes, 0u);
  EXPECT_GT(mv.maintenance_stats().delete_fallbacks, 0u);
}

/// Engine end-to-end under a delete-heavy stream: plain, bounded and
/// cyclic views maintained by the deletion delta answer every view query
/// exactly like a view-less engine evaluating directly.
TEST(BoundedDeltaTest, EngineDeleteHeavyStreamMatchesDirect) {
  RandomGraphOptions go;
  go.num_nodes = 120;
  go.num_edges = 480;
  go.num_labels = 3;
  go.seed = 19;
  Graph g = GenerateRandomGraph(go);

  EngineOptions opts;
  opts.pool.num_threads = 1;
  opts.maintenance.max_area_fraction = 1.0;
  QueryEngine with_views(g, opts);
  QueryEngine direct(g, opts);
  const std::vector<Pattern> patterns = {
      DeletePattern(0, 1), DeletePattern(0, 2), DeletePattern(1, 2),
      DeletePattern(2, 3), BoundedChainPattern()};
  for (size_t i = 0; i < patterns.size(); ++i) {
    ASSERT_TRUE(
        with_views.RegisterView("v" + std::to_string(i), patterns[i]).ok());
  }
  ASSERT_TRUE(with_views.WarmViews().ok());

  Rng rng(808);
  std::vector<NodePair> deleted, inserted;
  for (int round = 0; round < 16; ++round) {
    for (size_t i = 0; i < patterns.size(); ++i) {
      QueryResponse a = with_views.Query(patterns[i]);
      QueryResponse b = direct.Query(patterns[i]);
      ASSERT_TRUE(a.status.ok());
      ASSERT_TRUE(b.status.ok());
      ASSERT_TRUE(a.result == b.result)
          << "round " << round << " pattern " << i;
    }
    MakeDeleteBatch(g, 1 + round % 5, /*reinsert=*/round % 4 == 3, &rng,
                    &deleted, &inserted);
    std::vector<EdgeUpdate> batch;
    for (const NodePair& p : deleted) {
      batch.push_back(EdgeUpdate::Delete(p.first, p.second));
      (void)g.RemoveEdge(p.first, p.second);
    }
    for (const NodePair& p : inserted) {
      batch.push_back(EdgeUpdate::Insert(p.first, p.second));
      (void)g.AddEdgeIfAbsent(p.first, p.second);
    }
    ASSERT_TRUE(with_views.ApplyUpdates(batch).ok());
    ASSERT_TRUE(direct.ApplyUpdates(batch).ok());
  }

  const obs::MetricsSnapshot m = with_views.metrics()->TakeSnapshot();
  EXPECT_GT(m.CounterValue("delta.delete_refreshes"), 0u);
  EXPECT_GT(m.CounterValue("delta.delete_skips"), 0u);
  EXPECT_TRUE(with_views.CheckCacheConsistency());
}

}  // namespace
}  // namespace gpmv
