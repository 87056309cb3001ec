#include "engine/query_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <utility>

#include "pattern/pattern_builder.h"
#include "simulation/bounded.h"
#include "simulation/simulation.h"
#include "test_util.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

Graph SmallChainGraph() {
  Graph g;
  for (int i = 0; i < 5; ++i) {
    NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
    (void)g.AddEdge(a, b);
    (void)g.AddEdge(b, c);
  }
  return g;
}

Pattern ChainABC() {
  return PatternBuilder()
      .Node("A").Node("B").Node("C")
      .Edge("A", "B").Edge("B", "C")
      .Build();
}

TEST(QueryEngineTest, DirectPlanMatchesOracleWithoutViews) {
  QueryEngine engine(SmallChainGraph());
  Pattern q = ChainABC();
  QueryResponse resp = engine.Query(q);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.plan, PlanKind::kDirect);
  EXPECT_FALSE(resp.warm);

  MatchResult oracle = testutil::OracleMatch(q, SmallChainGraph());
  EXPECT_TRUE(resp.result == oracle);
  const obs::MetricsSnapshot m = engine.metrics()->TakeSnapshot();
  EXPECT_EQ(m.CounterValue("engine.queries"), 1u);
  EXPECT_EQ(m.CounterValue("engine.plans.direct"), 1u);
}

TEST(QueryEngineTest, MatchJoinPlanMatchesOracleAndTurnsWarm) {
  // Result cache off: this test exercises the view-cache warm path, which
  // a repeat query would otherwise skip (result_cache_test.cc covers that).
  EngineOptions opts;
  opts.result_cache.budget_bytes = 0;
  QueryEngine engine(SmallChainGraph(), opts);
  ASSERT_TRUE(engine
                  .RegisterView("v_ab", PatternBuilder()
                                            .Node("A").Node("B")
                                            .Edge("A", "B").Build())
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterView("v_bc", PatternBuilder()
                                            .Node("B").Node("C")
                                            .Edge("B", "C").Build())
                  .ok());

  Pattern q = ChainABC();
  // Cold: the first query materializes both views.
  QueryResponse cold = engine.Query(q);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_EQ(cold.plan, PlanKind::kMatchJoin);
  EXPECT_FALSE(cold.warm);

  // Warm: the second query answers straight from the cache.
  QueryResponse warmr = engine.Query(q);
  ASSERT_TRUE(warmr.status.ok());
  EXPECT_EQ(warmr.plan, PlanKind::kMatchJoin);
  EXPECT_TRUE(warmr.warm);

  MatchResult oracle = testutil::OracleMatch(q, SmallChainGraph());
  EXPECT_TRUE(cold.result == oracle);
  EXPECT_TRUE(warmr.result == oracle);

  const obs::MetricsSnapshot m = engine.metrics()->TakeSnapshot();
  EXPECT_EQ(m.CounterValue("engine.plans.match_join"), 2u);
  EXPECT_EQ(m.CounterValue("engine.queries_warm"), 1u);
  EXPECT_GE(m.GaugeValue("cache.hits"), 2.0);
  EXPECT_GE(m.GaugeValue("cache.misses"), 2.0);
  EXPECT_EQ(m.GaugeValue("cache.materialized"), 2.0);
}

TEST(QueryEngineTest, PartialViewsPlanStaysExact) {
  QueryEngine engine(SmallChainGraph());
  ASSERT_TRUE(engine
                  .RegisterView("v_ab", PatternBuilder()
                                            .Node("A").Node("B")
                                            .Edge("A", "B").Build())
                  .ok());
  Pattern q = ChainABC();
  QueryResponse resp = engine.Query(q);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.plan, PlanKind::kPartialViews);
  EXPECT_EQ(resp.views_used, (std::vector<uint32_t>{0}));
  // The fallback evaluates directly from view-restricted candidates, so the
  // answer is exact, not an over-approximation.
  MatchResult oracle = testutil::OracleMatch(q, SmallChainGraph());
  EXPECT_TRUE(resp.result == oracle);
}

TEST(QueryEngineTest, BoundedQueryThroughViewsMatchesDirect) {
  Graph g = testutil::ChainGraph({"A", "X", "B", "Y", "C"});
  Pattern qb = PatternBuilder()
                   .Node("A").Node("B").Node("C")
                   .Edge("A", "B", 2).Edge("B", "C", 2)
                   .Build();
  Result<MatchResult> direct = MatchBoundedSimulation(qb, *g.Freeze());
  ASSERT_TRUE(direct.ok());

  QueryEngine engine(g);
  ASSERT_TRUE(engine
                  .RegisterView("v1", PatternBuilder()
                                          .Node("A").Node("B")
                                          .Edge("A", "B", 3).Build())
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterView("v2", PatternBuilder()
                                          .Node("B").Node("C")
                                          .Edge("B", "C", 3).Build())
                  .ok());
  ASSERT_TRUE(engine.WarmViews().ok());
  QueryResponse resp = engine.Query(qb);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.plan, PlanKind::kMatchJoin);
  EXPECT_TRUE(resp.warm);
  EXPECT_TRUE(resp.result == *direct);
}

TEST(QueryEngineTest, MinimizedDuplicateBranchesExpandToOriginalShape) {
  Pattern q;
  uint32_t a = q.AddNode("A");
  uint32_t b1 = q.AddNode("B");
  uint32_t b2 = q.AddNode("B");
  ASSERT_TRUE(q.AddEdge(a, b1).ok());
  ASSERT_TRUE(q.AddEdge(a, b2).ok());

  Graph g = SmallChainGraph();
  QueryEngine engine(g);
  QueryResponse resp = engine.Query(q);
  ASSERT_TRUE(resp.status.ok());
  ASSERT_TRUE(resp.result.matched());
  ASSERT_EQ(resp.result.num_pattern_edges(), 2u);
  // Both duplicated edges carry identical match sets (Example 2).
  EXPECT_EQ(resp.result.edge_matches(0), resp.result.edge_matches(1));
  MatchResult oracle = testutil::OracleMatch(q, g);
  EXPECT_TRUE(resp.result == oracle);
}

TEST(QueryEngineTest, UpdateBatchesKeepCachedViewsFresh) {
  Graph g = SmallChainGraph();
  QueryEngine engine(g);
  ASSERT_TRUE(engine
                  .RegisterView("v_ab", PatternBuilder()
                                            .Node("A").Node("B")
                                            .Edge("A", "B").Build())
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterView("v_bc", PatternBuilder()
                                            .Node("B").Node("C")
                                            .Edge("B", "C").Build())
                  .ok());
  ASSERT_TRUE(engine.WarmViews().ok());
  Pattern q = ChainABC();

  // Delete one chain's A -> B edge (nodes 0 -> 1): decremental refresh.
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Delete(0, 1)}).ok());
  Graph after_delete = SmallChainGraph();
  ASSERT_TRUE(after_delete.RemoveEdge(0, 1).ok());
  QueryResponse resp = engine.Query(q);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.plan, PlanKind::kMatchJoin);
  EXPECT_TRUE(resp.warm);  // the cache was refreshed, not invalidated
  EXPECT_TRUE(resp.result == testutil::OracleMatch(q, after_delete));

  // Re-insert it: insertion path re-materializes.
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(0, 1)}).ok());
  QueryResponse resp2 = engine.Query(q);
  ASSERT_TRUE(resp2.status.ok());
  EXPECT_TRUE(resp2.warm);
  EXPECT_TRUE(resp2.result == testutil::OracleMatch(q, SmallChainGraph()));

  const obs::MetricsSnapshot m = engine.metrics()->TakeSnapshot();
  EXPECT_EQ(m.CounterValue("engine.update_batches"), 2u);
  EXPECT_EQ(m.CounterValue("engine.edges_deleted"), 1u);
  EXPECT_EQ(m.CounterValue("engine.edges_inserted"), 1u);
  EXPECT_GE(m.GaugeValue("cache.refreshes"), 1.0);

  // Deleting an edge no plain view cares about is prescreened away.
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Delete(1, 2)}).ok());
  EXPECT_GE(
      engine.metrics()->TakeSnapshot().GaugeValue("cache.refreshes_skipped"),
      1.0);
}

TEST(QueryEngineTest, UpdateValidationRejectsUnknownNodes) {
  QueryEngine engine(SmallChainGraph());
  Status st = engine.ApplyUpdates({EdgeUpdate::Insert(0, 999)});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  // Deleting an absent edge is a tolerated no-op.
  EXPECT_TRUE(engine.ApplyUpdates({EdgeUpdate::Delete(0, 2)}).ok());
}

TEST(QueryEngineTest, LruEvictionKeepsByteAccountingConsistent) {
  // A graph big enough that each extension has a real footprint.
  RandomGraphOptions go;
  go.num_nodes = 400;
  go.num_edges = 1600;
  go.num_labels = 4;
  go.seed = 7;
  Graph g = GenerateRandomGraph(go);

  EngineOptions opts;
  opts.cache.budget_bytes = 1;  // every install must evict all others
  QueryEngine engine(g, opts);
  std::vector<std::string> labels = SyntheticLabels(4);
  for (size_t i = 0; i < labels.size(); ++i) {
    for (size_t j = 0; j < labels.size(); ++j) {
      if (i == j) continue;
      ASSERT_TRUE(engine
                      .RegisterView("v" + std::to_string(i * 4 + j),
                                    PatternBuilder()
                                        .Node("s", labels[i])
                                        .Node("t", labels[j])
                                        .Edge("s", "t")
                                        .Build())
                      .ok());
    }
  }
  ASSERT_TRUE(engine.WarmViews().ok());
  obs::MetricsSnapshot m = engine.metrics()->TakeSnapshot();
  // With a 1-byte budget at most one (over-budget, pinned-at-install)
  // extension can be live, and installs - evictions must equal live count.
  EXPECT_EQ(m.GaugeValue("cache.installs") - m.GaugeValue("cache.evictions"),
            m.GaugeValue("cache.materialized"));
  EXPECT_LE(m.GaugeValue("cache.materialized"), 1.0);
  EXPECT_GE(m.GaugeValue("cache.evictions"),
            m.GaugeValue("cache.registered") - 1.0);

  // Queries still answer correctly while thrashing the cache.
  Pattern q = PatternBuilder()
                  .Node("s", labels[0])
                  .Node("t", labels[1])
                  .Edge("s", "t")
                  .Build();
  QueryResponse resp = engine.Query(q);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_TRUE(resp.result == testutil::OracleMatch(q, g));

  m = engine.metrics()->TakeSnapshot();
  EXPECT_EQ(m.GaugeValue("cache.installs") - m.GaugeValue("cache.evictions"),
            m.GaugeValue("cache.materialized"));
  EXPECT_TRUE(engine.CheckCacheConsistency(/*expect_unpinned=*/true));
}

TEST(QueryEngineTest, AdmitFromWorkloadRegistersUsefulViews) {
  Graph g = SmallChainGraph();
  QueryEngine engine(g);
  Pattern q = ChainABC();
  for (int i = 0; i < 4; ++i) {
    QueryResponse resp = engine.Query(q);
    ASSERT_TRUE(resp.status.ok());
    EXPECT_EQ(resp.plan, PlanKind::kDirect);
  }
  Result<size_t> added = engine.AdmitFromWorkload(4);
  ASSERT_TRUE(added.ok());
  EXPECT_GT(*added, 0u);
  EXPECT_EQ(engine.num_views(), *added);
  ASSERT_TRUE(engine.WarmViews().ok());

  QueryResponse resp = engine.Query(q);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_NE(resp.plan, PlanKind::kDirect);
  EXPECT_TRUE(resp.result == testutil::OracleMatch(q, g));

  // Re-admitting the same workload adds nothing new.
  Result<size_t> again = engine.AdmitFromWorkload(4);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST(QueryEngineTest, SubmitRunsOnWorkerPool) {
  EngineOptions opts;
  opts.pool.num_threads = 2;
  QueryEngine engine(SmallChainGraph(), opts);
  Pattern q = ChainABC();
  auto fut = engine.Submit(q);
  ASSERT_TRUE(fut.ok());
  QueryResponse resp = std::move(*fut).get();
  ASSERT_TRUE(resp.status.ok());
  EXPECT_TRUE(resp.result == testutil::OracleMatch(q, SmallChainGraph()));
  EXPECT_EQ(engine.metrics()->TakeSnapshot().GaugeValue("pool.executed"),
            1.0);
}

TEST(QueryEngineTest, SubmitCallbackRunsOnceOnTheWorker) {
  EngineOptions opts;
  opts.pool.num_threads = 2;
  QueryEngine engine(SmallChainGraph(), opts);
  Pattern q = ChainABC();
  std::atomic<int> calls{0};
  std::promise<std::pair<std::thread::id, QueryResponse>> got;
  ASSERT_TRUE(engine
                  .Submit(q, QueryOptions{},
                          [&](QueryResponse resp) {
                            ++calls;
                            got.set_value(
                                {std::this_thread::get_id(), std::move(resp)});
                          })
                  .ok());
  auto [worker, resp] = got.get_future().get();
  EXPECT_NE(worker, std::this_thread::get_id());
  ASSERT_TRUE(resp.status.ok());
  EXPECT_TRUE(resp.result == testutil::OracleMatch(q, SmallChainGraph()));
  EXPECT_EQ(calls.load(), 1);
}

#if GPMV_FAULT_INJECTION
TEST(QueryEngineTest, RefusedSubmitNeverCallsBack) {
  FaultInjector fault(7);
  FaultPointSpec spec;
  spec.fire_on = {1};
  fault.Arm("executor.task", spec);
  EngineOptions opts;
  opts.pool.num_threads = 1;
  opts.fault = &fault;
  QueryEngine engine(SmallChainGraph(), opts);
  std::atomic<int> calls{0};
  Status st = engine.Submit(ChainABC(), QueryOptions{},
                            [&](QueryResponse) { ++calls; });
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(
      engine.metrics()->TakeSnapshot().CounterValue("engine.shed_queries"),
      1u);
  // The future wrapper reports the same refusal as a failed Result.
  fault.Arm("executor.task", spec);
  EXPECT_FALSE(engine.Submit(ChainABC()).ok());
  EXPECT_EQ(calls.load(), 0);
}
#endif  // GPMV_FAULT_INJECTION

/// Engine-vs-direct differential across plan kinds (MatchJoin / partial /
/// direct) and update batches: after every round, each answer equals a
/// fresh (bounded) simulation on a reference Graph that received the same
/// batches, and view-plan answers keep their plan kind.
TEST(QueryEngineTest, AgreesWithDirectEvaluationAcrossPlansAndUpdates) {
  RandomGraphOptions go;
  go.num_nodes = 220;
  go.num_edges = 720;
  go.num_labels = 4;
  go.seed = 123;
  Graph reference = GenerateRandomGraph(go);

  auto pattern = [](uint32_t nodes, uint32_t edges, uint32_t max_bound,
                    uint64_t seed) {
    RandomPatternOptions po;
    po.num_nodes = nodes;
    po.num_edges = edges;
    po.label_pool = SyntheticLabels(4);
    po.max_bound = max_bound;
    po.seed = seed;
    return GenerateRandomPattern(po);
  };
  // Six plain patterns, then three with path bounds up to 3.
  std::vector<Pattern> queries;
  for (uint64_t s = 1; s <= 6; ++s) {
    queries.push_back(pattern(3 + s % 3, 3 + s % 3 + s % 2, 1, s * 31 + 7));
  }
  for (uint64_t s = 1; s <= 3; ++s) {
    queries.push_back(pattern(3 + s % 2, 3 + s % 2, 3, s * 17 + 99));
  }

  EngineOptions opts;
  opts.pool.num_threads = 1;
  QueryEngine engine(reference, opts);

  // Covering views for query 0 make it a MatchJoin plan; the others mix
  // partial and direct plans.
  CoveringViewOptions co;
  co.edges_per_view = 2;
  co.num_distractors = 1;
  co.seed = 5;
  ViewSet cover = GenerateCoveringViews(queries[0], co);
  for (const ViewDefinition& def : cover.views()) {
    ASSERT_TRUE(engine.RegisterView(def.name, def.pattern).ok());
  }
  ASSERT_TRUE(engine.WarmViews().ok());

  // Alternate query rounds and update batches (mixed inserts + deletes,
  // deterministic), comparing every answer after each round.
  std::vector<PlanKind> first_plans;
  size_t graph_walks = 0;
  for (int round = 0; round < 4; ++round) {
    auto snap = reference.Freeze();
    for (size_t i = 0; i < queries.size(); ++i) {
      const Pattern& q = queries[i];
      QueryResponse resp = engine.Query(q);
      ASSERT_TRUE(resp.status.ok()) << "round=" << round << " query=" << i;
      Result<MatchResult> want = q.IsSimulationPattern()
                                     ? MatchSimulation(q, *snap)
                                     : MatchBoundedSimulation(q, *snap);
      ASSERT_TRUE(want.ok());
      want->Normalize();
      EXPECT_TRUE(resp.result == *want) << "round=" << round << " query=" << i;
      if (round == 0) {
        first_plans.push_back(resp.plan);
      } else if (first_plans[i] != PlanKind::kDirect) {
        // Maintained views keep serving the view plans they served first.
        EXPECT_EQ(resp.plan, first_plans[i])
            << "round=" << round << " query=" << i;
      }
      if (resp.plan != PlanKind::kMatchJoin) ++graph_walks;
    }
    std::vector<EdgeUpdate> batch;
    const NodeId base = static_cast<NodeId>(17 * (round + 1));
    batch.push_back(EdgeUpdate::Insert(base, (base + 31) % 220));
    batch.push_back(EdgeUpdate::Insert((base + 3) % 220, (base + 90) % 220));
    batch.push_back(EdgeUpdate::Delete(base % 220, (base + 1) % 220));
    ASSERT_TRUE(engine.ApplyUpdates(batch).ok());
    for (const EdgeUpdate& up : batch) {
      if (up.kind == EdgeUpdate::Kind::kDelete) {
        (void)reference.RemoveEdge(up.u, up.v);
      }
    }
    for (const EdgeUpdate& up : batch) {
      if (up.kind == EdgeUpdate::Kind::kInsert) {
        reference.AddEdgeIfAbsent(up.u, up.v);
      }
    }
  }
  EXPECT_EQ(first_plans[0], PlanKind::kMatchJoin);
  EXPECT_GT(graph_walks, 0u);  // the graph-walking plans ran too
  EXPECT_TRUE(engine.CheckCacheConsistency());
}

}  // namespace
}  // namespace gpmv
