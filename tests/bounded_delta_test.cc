/// Randomized property suite for PR 7's incremental bounded simulation:
///
///  * DeltaBoundedInsert must agree with ComputeBoundedSimulationRelation
///    from scratch across random insert streams, DAG and cyclic patterns,
///    and mixed bounds (including `*`);
///  * a maintained bounded view must stay bit-identical — pairs AND
///    distances — to from-scratch re-materialization across mixed
///    insert/delete streams, on the delta path and on every forced
///    fallback;
///  * the DistanceIndex maintained through ApplyInsertions /
///    InvalidateForDeletions / RepairDirty must keep its exact-or-absent
///    contract against BFS ground truth after random update streams;
///  * the engine end-to-end: a bounded-view engine under update batches
///    answers exactly like a view-less direct engine, while the bounded
///    delta counters and the distance index advance.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "common/random.h"
#include "core/distance_index.h"
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

    DeltaInsertOptions opts;
    opts.max_area_fraction = 1.0;  // never fall back on area size
    DeltaInsertStats stats;
    std::vector<std::vector<NodeId>> added;
    std::vector<std::vector<NodeId>> delta_rel = rel;
    ASSERT_TRUE(DeltaBoundedInsert(qb, *snap, batch, opts, &delta_rel,
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
  InsertMaintenanceOptions opts;
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
  EXPECT_GT(mv.insert_stats().bounded_delta_refreshes, 0u);
  EXPECT_GT(mv.insert_stats().bounded_matches_added, 0u);
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
    InsertMaintenanceOptions opts;
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
    EXPECT_EQ(mv.insert_stats().bounded_delta_refreshes, 0u);
    EXPECT_EQ(mv.insert_stats().rematerialize_fallbacks, inserts);
  }
}

/// Exact shortest *nonempty* v -> v2 distance within `budget` hops on
/// `snap`, or nullopt — the BFS ground truth the index contract is pinned
/// against.
std::optional<uint32_t> GroundTruthDistance(const GraphSnapshot& snap,
                                            BfsScratch* scratch, NodeId v,
                                            NodeId v2, uint32_t budget) {
  if (budget == 0) return std::nullopt;
  scratch->Run(snap, snap.out_neighbors(v), budget - 1, /*forward=*/true);
  if (!scratch->Reached(v2)) return std::nullopt;
  return scratch->dist(v2) + 1;
}

/// DistanceIndex incremental maintenance vs. BFS ground truth: after every
/// mixed update step (invalidate -> apply-insertions -> repair, the
/// ViewCache order), each tracked entry answers the exact current shortest
/// nonempty distance; entries only leave the index when their distance
/// outgrows the budget, and once gone they stay gone (insertions shorten
/// existing entries, they never resurrect dropped pairs).
TEST(BoundedDeltaTest, DistanceIndexMaintainMatchesGroundTruth) {
  RandomGraphOptions go;
  go.num_nodes = 70;
  go.num_edges = 210;
  go.num_labels = 3;
  go.seed = 41;
  Graph g = GenerateRandomGraph(go);
  ViewDefinition def{"vb", BoundedChainPattern()};
  auto ext = ViewExtension::Materialize(def, *g.Freeze());
  ASSERT_TRUE(ext.ok());
  DistanceIndex index = DistanceIndex::Build({*ext});
  ASSERT_GT(index.size(), 0u);
  const uint32_t budget = index.budget();
  ASSERT_GT(budget, 0u);

  // `alive` = pairs the contract still obliges the index to answer: the
  // initially tracked set, minus any pair whose exact distance outgrew the
  // budget at some step (legitimately dropped, never re-added).
  std::vector<NodePair> alive;
  for (uint32_t e = 0; e < ext->num_view_edges(); ++e) {
    for (const NodePair& p : ext->edge(e).pairs) alive.push_back(p);
  }
  std::sort(alive.begin(), alive.end());
  alive.erase(std::unique(alive.begin(), alive.end()), alive.end());

  Rng rng(4242);
  std::vector<NodePair> insertable;  // edges we added and may delete again
  BfsScratch scratch(g.num_nodes());
  for (int step = 0; step < 12; ++step) {
    // Random deletions from previously inserted edges.
    std::vector<NodePair> deleted;
    while (!insertable.empty() && rng.NextBounded(2) == 0) {
      NodePair p = insertable.back();
      insertable.pop_back();
      ASSERT_TRUE(g.RemoveEdge(p.first, p.second).ok());
      deleted.push_back(p);
    }
    std::shared_ptr<const GraphSnapshot> after_del;
    if (!deleted.empty()) {
      after_del = g.Freeze();
    }
    // Random insertions.
    std::vector<NodePair> inserted =
        RandomNewEdges(g, 1 + rng.NextBounded(4), &rng);
    for (const NodePair& p : inserted) {
      ASSERT_TRUE(g.AddEdge(p.first, p.second).ok());
      insertable.push_back(p);
    }
    std::shared_ptr<const GraphSnapshot> final_snap = g.Freeze();

    if (!deleted.empty()) index.InvalidateForDeletions(*after_del, deleted);
    if (!inserted.empty()) index.ApplyInsertions(*final_snap, inserted);
    index.RepairDirty(*final_snap);
    EXPECT_EQ(index.dirty_count(), 0u);

    std::vector<NodePair> still_alive;
    for (const NodePair& p : alive) {
      std::optional<uint32_t> truth =
          GroundTruthDistance(*final_snap, &scratch, p.first, p.second,
                              budget);
      std::optional<uint32_t> got = index.Distance(p.first, p.second);
      if (truth.has_value()) {
        ASSERT_TRUE(got.has_value())
            << "step " << step << " pair (" << p.first << "," << p.second
            << ") reachable at " << *truth << " but untracked";
        EXPECT_EQ(*got, *truth) << "step " << step << " pair (" << p.first
                                << "," << p.second << ")";
        still_alive.push_back(p);
      } else {
        // Outgrew the budget (or became unreachable): must be dropped, and
        // it stays out of the obliged set from here on.
        EXPECT_FALSE(got.has_value())
            << "step " << step << " pair (" << p.first << "," << p.second
            << ") beyond budget but still tracked at " << *got;
      }
    }
    alive.swap(still_alive);
  }
  // Deletions actually dirtied and repaired sources along the way.
  EXPECT_GT(index.repairs(), 0u);
}

/// Insert-only stream: nothing is ever dropped, so every initially tracked
/// pair must answer its exact (possibly shortened) distance — the
/// min-update path of ApplyInsertions alone keeps the contract.
TEST(BoundedDeltaTest, DistanceIndexInsertOnlyStreamStaysExact) {
  RandomGraphOptions go;
  go.num_nodes = 60;
  go.num_edges = 150;
  go.num_labels = 3;
  go.seed = 55;
  Graph g = GenerateRandomGraph(go);
  ViewDefinition def{"vb", BoundedChainPattern()};
  auto ext = ViewExtension::Materialize(def, *g.Freeze());
  ASSERT_TRUE(ext.ok());
  DistanceIndex index = DistanceIndex::Build({*ext});
  ASSERT_GT(index.size(), 0u);
  const uint32_t budget = index.budget();

  std::vector<NodePair> tracked;
  for (uint32_t e = 0; e < ext->num_view_edges(); ++e) {
    for (const NodePair& p : ext->edge(e).pairs) tracked.push_back(p);
  }

  Rng rng(77);
  BfsScratch scratch(g.num_nodes());
  size_t shortened_total = 0;
  for (int step = 0; step < 10; ++step) {
    std::vector<NodePair> inserted =
        RandomNewEdges(g, 1 + rng.NextBounded(4), &rng);
    if (inserted.empty()) break;
    for (const NodePair& p : inserted) {
      ASSERT_TRUE(g.AddEdge(p.first, p.second).ok());
    }
    std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
    shortened_total += index.ApplyInsertions(*snap, inserted);
    EXPECT_EQ(index.dirty_count(), 0u);  // insertions never dirty
    for (const NodePair& p : tracked) {
      std::optional<uint32_t> truth =
          GroundTruthDistance(*snap, &scratch, p.first, p.second, budget);
      std::optional<uint32_t> got = index.Distance(p.first, p.second);
      ASSERT_TRUE(got.has_value());
      ASSERT_TRUE(truth.has_value());  // insertions only shorten
      EXPECT_EQ(*got, *truth) << "step " << step << " pair (" << p.first
                              << "," << p.second << ")";
    }
  }
  (void)shortened_total;
}

/// RepairAll is the rebuild oracle for the maintained index: after an
/// arbitrary stream, maintain-then-compare against a full repair must be a
/// no-op (every entry already exact).
TEST(BoundedDeltaTest, DistanceIndexMaintainEqualsRebuild) {
  RandomGraphOptions go;
  go.num_nodes = 60;
  go.num_edges = 180;
  go.num_labels = 3;
  go.seed = 91;
  Graph g = GenerateRandomGraph(go);
  ViewDefinition def{"vb", BoundedChainPattern()};
  auto ext = ViewExtension::Materialize(def, *g.Freeze());
  ASSERT_TRUE(ext.ok());
  DistanceIndex maintained = DistanceIndex::Build({*ext});

  Rng rng(123);
  std::vector<NodePair> insertable;
  for (int step = 0; step < 8; ++step) {
    std::vector<NodePair> deleted;
    if (!insertable.empty() && rng.NextBounded(2) == 0) {
      deleted.push_back(insertable.back());
      insertable.pop_back();
      ASSERT_TRUE(g.RemoveEdge(deleted[0].first, deleted[0].second).ok());
    }
    std::shared_ptr<const GraphSnapshot> after_del;
    if (!deleted.empty()) after_del = g.Freeze();
    std::vector<NodePair> inserted = RandomNewEdges(g, 2, &rng);
    for (const NodePair& p : inserted) {
      ASSERT_TRUE(g.AddEdge(p.first, p.second).ok());
      insertable.push_back(p);
    }
    std::shared_ptr<const GraphSnapshot> final_snap = g.Freeze();
    if (!deleted.empty()) {
      maintained.InvalidateForDeletions(*after_del, deleted);
    }
    if (!inserted.empty()) maintained.ApplyInsertions(*final_snap, inserted);
    maintained.RepairDirty(*final_snap);
  }

  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  // Snapshot the maintained answers, force a full repair, compare: if
  // maintenance kept every entry exact, the full repair changes nothing.
  std::vector<std::pair<NodePair, std::optional<uint32_t>>> before;
  for (uint32_t e = 0; e < ext->num_view_edges(); ++e) {
    for (const NodePair& p : ext->edge(e).pairs) {
      before.emplace_back(p, maintained.Distance(p.first, p.second));
    }
  }
  const size_t size_before = maintained.size();
  maintained.RepairAll(*snap);
  EXPECT_EQ(maintained.size(), size_before);
  for (const auto& [p, d] : before) {
    EXPECT_EQ(maintained.Distance(p.first, p.second), d)
        << "pair (" << p.first << "," << p.second << ")";
  }
}

/// Engine end-to-end: a bounded-view engine under random update batches
/// answers bounded queries exactly like a view-less direct engine, while
/// the bounded-delta counters and distance-index stats advance (no
/// unconditional re-materialization anymore).
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
  // the distance index is live.
  EXPECT_GT(m.CounterValue("delta.bounded_refreshes"), 0u);
  EXPECT_GT(m.GaugeValue("distance_index.entries"), 0.0);
  EXPECT_TRUE(with_views.CheckCacheConsistency());
}

}  // namespace
}  // namespace gpmv
