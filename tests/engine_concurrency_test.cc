/// \file engine_concurrency_test.cc
/// \brief Concurrent-submit stress tests: N threads against one engine with
/// a shared (and deliberately tight) view cache. Asserts no lost results —
/// every submitted query returns and returns the *right* answer — and that
/// the cache's eviction/byte accounting stays consistent throughout.
///
/// The update-racing and streaming suites run on the deterministic-schedule
/// harness in test_util.h (ScheduleDriver: logical ops released one at a
/// time in a seed-determined order; PhaseBarrier: free-running threads
/// pinned to a known phase structure). A failing schedule logs its seed —
/// re-run with GPMV_STRESS_SEED=<seed> to replay it (docs/TESTING.md).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "pattern/pattern_builder.h"
#include "simulation/bounded.h"
#include "stream/applier_pool.h"
#include "test_util.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

struct StressFixture {
  Graph graph;
  std::vector<Pattern> patterns;
  std::vector<MatchResult> expected;  ///< direct evaluation baseline
};

StressFixture MakeStressFixture() {
  StressFixture f;
  RandomGraphOptions go;
  go.num_nodes = 1500;
  go.num_edges = 5000;
  go.num_labels = 6;
  go.seed = 2026;
  f.graph = GenerateRandomGraph(go);
  // Four extra nodes whose label no pattern uses: update batches and
  // streamed ops toggle edges among them without disturbing any query's
  // answer.
  f.graph.AddNode("UPD");
  f.graph.AddNode("UPD");
  f.graph.AddNode("UPD");
  f.graph.AddNode("UPD");

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomPatternOptions po;
    po.num_nodes = 3 + seed % 2;
    po.num_edges = po.num_nodes;
    po.label_pool = SyntheticLabels(6);
    po.seed = seed;
    f.patterns.push_back(GenerateRandomPattern(po));
  }
  for (const Pattern& q : f.patterns) {
    Result<MatchResult> direct = MatchBoundedSimulation(q, *f.graph.Freeze());
    MatchResult r = direct.ok() ? std::move(direct).value() : MatchResult();
    r.Normalize();
    f.expected.push_back(std::move(r));
  }
  return f;
}

/// The view cache's byte/eviction accounting, read off the registry's
/// cache.* collector gauges.
void CheckAccounting(const obs::MetricsSnapshot& m) {
  EXPECT_EQ(m.GaugeValue("cache.installs") - m.GaugeValue("cache.evictions"),
            m.GaugeValue("cache.materialized"));
  if (m.GaugeValue("cache.materialized") == 0.0) {
    EXPECT_EQ(m.GaugeValue("cache.bytes_cached"), 0.0);
  }
}

TEST(EngineConcurrencyTest, ParallelSubmitNoLostResults) {
  StressFixture f = MakeStressFixture();

  EngineOptions opts;
  opts.pool.num_threads = 8;
  opts.pool.queue_capacity = 64;
  QueryEngine engine(f.graph, opts);
  // Covering views for half the patterns: those queries take view plans,
  // the rest fall back to partial/direct, all racing on one cache.
  for (size_t i = 0; i < f.patterns.size(); i += 2) {
    CoveringViewOptions co;
    co.edges_per_view = 2;
    co.num_distractors = 0;
    co.seed = 100 + i;
    ViewSet cover = GenerateCoveringViews(f.patterns[i], co);
    for (const ViewDefinition& def : cover.views()) {
      ASSERT_TRUE(
          engine.RegisterView(def.name + "_q" + std::to_string(i),
                              def.pattern)
              .ok());
    }
  }

  constexpr int kQueries = 160;
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    auto fut = engine.Submit(f.patterns[i % f.patterns.size()]);
    ASSERT_TRUE(fut.ok());
    futures.push_back(std::move(*fut));
  }
  for (int i = 0; i < kQueries; ++i) {
    QueryResponse resp = futures[i].get();  // every future resolves: no loss
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    resp.result.Normalize();
    EXPECT_TRUE(resp.result == f.expected[i % f.patterns.size()])
        << "query " << i << " diverged from direct evaluation";
  }

  // The pool counts a task as executed before its body runs, so once every
  // future has resolved the counter is deterministically settled.
  const obs::MetricsSnapshot m = engine.metrics()->TakeSnapshot();
  EXPECT_EQ(m.CounterValue("engine.queries"), static_cast<size_t>(kQueries));
  EXPECT_EQ(m.GaugeValue("pool.submitted"), kQueries);
  EXPECT_EQ(m.GaugeValue("pool.executed"), kQueries);
  EXPECT_GT(m.CounterValue("engine.plans.match_join"), 0u);
  CheckAccounting(m);
  EXPECT_TRUE(engine.CheckCacheConsistency(/*expect_unpinned=*/true));
}

TEST(EngineConcurrencyTest, TinyBudgetEvictionChurnStaysConsistent) {
  StressFixture f = MakeStressFixture();

  EngineOptions opts;
  opts.pool.num_threads = 6;
  opts.cache.budget_bytes = 4096;  // far below one extension: constant churn
  QueryEngine engine(f.graph, opts);
  for (size_t i = 0; i < f.patterns.size(); i += 2) {
    CoveringViewOptions co;
    co.edges_per_view = 2;
    co.num_distractors = 0;
    co.seed = 100 + i;
    ViewSet cover = GenerateCoveringViews(f.patterns[i], co);
    for (const ViewDefinition& def : cover.views()) {
      ASSERT_TRUE(
          engine.RegisterView(def.name + "_q" + std::to_string(i),
                              def.pattern)
              .ok());
    }
  }

  constexpr int kQueries = 96;
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < kQueries; ++i) {
    auto fut = engine.Submit(f.patterns[i % f.patterns.size()]);
    ASSERT_TRUE(fut.ok());
    futures.push_back(std::move(*fut));
  }
  for (int i = 0; i < kQueries; ++i) {
    QueryResponse resp = futures[i].get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    resp.result.Normalize();
    EXPECT_TRUE(resp.result == f.expected[i % f.patterns.size()]);
  }

  const obs::MetricsSnapshot m = engine.metrics()->TakeSnapshot();
  EXPECT_GT(m.GaugeValue("cache.evictions"), 0.0);
  CheckAccounting(m);
  EXPECT_TRUE(engine.CheckCacheConsistency(/*expect_unpinned=*/true));
}

/// Cross-metric stream invariants every consistent registry read must
/// show while an applier races the reader: no op silently lost, one
/// batch-size record per applied batch, and a watermark within the ops
/// pushed. Reads the metrics by name under the registry's exclusive read
/// gate — the same cut TakeSnapshot takes — without copying the whole
/// registry on every spin of a reader loop (which would stall the racing
/// queries behind the gate instead of just racing them).
void ExpectStreamCutConsistent(obs::MetricsRegistry* reg,
                               uint64_t total_ops) {
  obs::MetricsRegistry& r = *reg;
  const obs::Counter* ingested = r.FindOrCreateCounter("stream.ops_ingested");
  const obs::Counter* applied = r.FindOrCreateCounter("stream.ops_applied");
  const obs::Counter* coalesced =
      r.FindOrCreateCounter("stream.ops_coalesced");
  const obs::Counter* dropped = r.FindOrCreateCounter("stream.ops_dropped");
  const obs::Counter* batches =
      r.FindOrCreateCounter("stream.batches_applied");
  const obs::Histogram* sizes = r.FindOrCreateHistogram("stream.batch_size");
  const obs::Gauge* through = r.FindOrCreateGauge("stream.applied_through_ts");
  auto gate = r.ReadGate();
  EXPECT_EQ(ingested->Value(),
            applied->Value() + coalesced->Value() + dropped->Value());
  uint64_t size_records = 0;
  for (size_t b = 0; b < obs::kHistogramBuckets; ++b) {
    size_records += sizes->BucketCount(b);
  }
  EXPECT_EQ(size_records, batches->Value());
  EXPECT_LE(through->Value(), static_cast<double>(total_ops));
}

void RegisterCoveringViews(QueryEngine* engine, const StressFixture& f) {
  for (size_t i = 0; i < f.patterns.size(); i += 2) {
    CoveringViewOptions co;
    co.edges_per_view = 2;
    co.num_distractors = 0;
    co.seed = 100 + i;
    ViewSet cover = GenerateCoveringViews(f.patterns[i], co);
    for (const ViewDefinition& def : cover.views()) {
      ASSERT_TRUE(engine
                      ->RegisterView(def.name + "_q" + std::to_string(i),
                                     def.pattern)
                      .ok());
    }
  }
}

TEST(EngineConcurrencyTest, QueriesRaceUpdateBatchesSafely) {
  // Seeded-schedule port of the old ad-hoc interleaving: four submitter
  // workers and one update worker, their logical steps released in a
  // seed-determined order by the ScheduleDriver, so the submit/update
  // interleaving reproduces exactly from the logged seed (query execution
  // itself still races on the engine's worker pool underneath).
  StressFixture f = MakeStressFixture();
  const NodeId upd_a = static_cast<NodeId>(f.graph.num_nodes() - 2);
  const NodeId upd_b = static_cast<NodeId>(f.graph.num_nodes() - 1);

  for (uint64_t seed : testutil::StressSeeds({1, 2, 3})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EngineOptions opts;
    opts.pool.num_threads = 6;
    QueryEngine engine(f.graph, opts);
    RegisterCoveringViews(&engine, f);

    constexpr size_t kSubmitters = 4;
    constexpr size_t kQueriesPerSubmitter = 20;
    constexpr size_t kBatchesPerToggle = 8;
    std::vector<std::vector<std::future<QueryResponse>>> futures(kSubmitters);
    std::vector<std::vector<size_t>> pattern_ids(kSubmitters);

    testutil::ScheduleDriver driver(seed);
    for (size_t w = 0; w < kSubmitters; ++w) {
      driver.AddWorker([&, w](size_t step) {
        const size_t pid = (w + step * kSubmitters) % f.patterns.size();
        auto fut = engine.Submit(f.patterns[pid]);
        EXPECT_TRUE(fut.ok());
        if (fut.ok()) {
          futures[w].push_back(std::move(*fut));
          pattern_ids[w].push_back(pid);
        }
        return step + 1 < kQueriesPerSubmitter;
      });
    }
    driver.AddWorker([&](size_t step) {
      // Toggle an edge between the UPD nodes: the full update + maintenance
      // path racing in-flight queries, without changing any query's answer
      // (no pattern uses the UPD label).
      EXPECT_TRUE(engine
                      .ApplyUpdates({step % 2 == 0
                                         ? EdgeUpdate::Insert(upd_a, upd_b)
                                         : EdgeUpdate::Delete(upd_a, upd_b)})
                      .ok());
      return step + 1 < 2 * kBatchesPerToggle;
    });
    driver.Run();

    for (size_t w = 0; w < kSubmitters; ++w) {
      ASSERT_EQ(futures[w].size(), kQueriesPerSubmitter);
      for (size_t i = 0; i < futures[w].size(); ++i) {
        QueryResponse resp = futures[w][i].get();
        ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
        resp.result.Normalize();
        EXPECT_TRUE(resp.result == f.expected[pattern_ids[w][i]])
            << "worker " << w << " query " << i
            << " diverged after racing update batches";
      }
    }
    const obs::MetricsSnapshot m = engine.metrics()->TakeSnapshot();
    EXPECT_EQ(m.CounterValue("engine.update_batches"), 2 * kBatchesPerToggle);
    EXPECT_EQ(m.CounterValue("engine.queries"),
              kSubmitters * kQueriesPerSubmitter);
    CheckAccounting(m);
    EXPECT_TRUE(engine.CheckCacheConsistency(/*expect_unpinned=*/true));
  }
}

TEST(EngineConcurrencyTest, StreamingIngestionRacesQueries) {
  // Free-running stress with a pinned phase structure: two producers
  // streaming UPD-edge toggles, two query threads asserting per-thread
  // monotone snapshot versions and applied-through watermarks, one stats
  // reader asserting cross-counter invariants on every snapshot it takes
  // (the torn-read detector: stream deltas merge as one unit per batch).
  StressFixture f = MakeStressFixture();
  const NodeId n = static_cast<NodeId>(f.graph.num_nodes());

  for (uint64_t seed : testutil::StressSeeds({5, 6})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EngineOptions opts;
    opts.pool.num_threads = 4;
    QueryEngine engine(f.graph, opts);
    RegisterCoveringViews(&engine, f);

    ApplierPoolOptions po;
    po.num_appliers = 1;
    po.max_batch = 16;
    ApplierPool pool(&engine, po);

    constexpr size_t kProducers = 2;
    constexpr size_t kOpsPerProducer = 61;  // odd toggle count: ends inserted
    constexpr size_t kQueryThreads = 2;
    // Start barrier: every racing thread (plus this one) enters the race
    // window together instead of relying on spawn-order luck.
    testutil::PhaseBarrier barrier(kProducers + kQueryThreads + 2);
    std::atomic<bool> producers_done{false};
    std::vector<std::thread> threads;

    for (size_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        // Each producer owns one UPD edge, so the final graph is
        // deterministic regardless of cross-producer interleaving.
        const NodeId u = static_cast<NodeId>(n - 4 + 2 * p);
        const NodeId v = static_cast<NodeId>(n - 4 + 2 * p + 1);
        barrier.Arrive();
        for (size_t i = 0; i < kOpsPerProducer; ++i) {
          EXPECT_NE(pool.Push(i % 2 == 0 ? EdgeUpdate::Insert(u, v)
                                         : EdgeUpdate::Delete(u, v)),
                    0u);
        }
      });
    }
    for (size_t q = 0; q < kQueryThreads; ++q) {
      threads.emplace_back([&, q] {
        Rng rng(seed * 100 + q);
        uint64_t last_version = 0;
        uint64_t last_watermark = 0;
        barrier.Arrive();
        while (!producers_done.load(std::memory_order_acquire)) {
          const size_t pid = rng.NextBounded(f.patterns.size());
          QueryResponse resp = engine.Query(f.patterns[pid]);
          EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
          if (!resp.status.ok()) break;
          resp.result.Normalize();
          EXPECT_TRUE(resp.result == f.expected[pid])
              << "query diverged while racing streamed ingestion";
          // Published snapshots only ever move forward.
          EXPECT_GE(resp.snapshot_version, last_version);
          EXPECT_GE(resp.applied_through_ts, last_watermark);
          last_version = resp.snapshot_version;
          last_watermark = resp.applied_through_ts;
        }
      });
    }
    threads.emplace_back([&] {
      barrier.Arrive();
      while (!producers_done.load(std::memory_order_acquire)) {
        // Each batch lands as one registry group: these invariants must
        // hold in *every* observed snapshot, torn reads would break them.
        ExpectStreamCutConsistent(engine.metrics(),
                                  kProducers * kOpsPerProducer);
        std::this_thread::yield();
      }
    });

    barrier.Arrive();  // everyone starts racing together
    // Producers run to completion, then the stream quiesces before the
    // racing readers stop (so they observe the tail of ingestion too).
    for (size_t p = 0; p < kProducers; ++p) threads[p].join();
    ASSERT_TRUE(pool.FlushAndWait().ok());
    producers_done.store(true, std::memory_order_release);
    for (size_t t = kProducers; t < threads.size(); ++t) threads[t].join();

    ASSERT_TRUE(pool.Stop().ok());
    // Both producer edges end inserted (odd toggle counts): deterministic
    // final graph, exact stream totals, watermark == total ops.
    EXPECT_EQ(engine.num_graph_edges(), f.graph.num_edges() + 2);
    const obs::MetricsSnapshot m = engine.metrics()->TakeSnapshot();
    EXPECT_EQ(m.CounterValue("stream.ops_ingested"),
              kProducers * kOpsPerProducer);
    EXPECT_EQ(m.CounterValue("stream.ops_dropped"), 0u);
    EXPECT_EQ(m.GaugeValue("stream.applied_through_ts"),
              static_cast<double>(kProducers * kOpsPerProducer));
    EXPECT_EQ(engine.applied_through_ts(), kProducers * kOpsPerProducer);
    EXPECT_GE(m.GaugeValue("pool.submitted"), m.GaugeValue("pool.executed"));
    CheckAccounting(m);
    EXPECT_TRUE(engine.CheckCacheConsistency(/*expect_unpinned=*/true));
  }
}

TEST(EngineConcurrencyTest, MultiApplierStreamingRacesQueries) {
  // The StreamingIngestionRacesQueries structure ported to the applier
  // pool: producers push through ApplierPool (3 appliers / stream slices),
  // so commits from different slices race at the MVCC chain head while
  // queries pin cuts. On top of the per-thread monotonicity checks, every
  // reader asserts the never-torn-cut invariant: a published watermark W
  // is a promise that *every* slice clock has passed W, so a slice version
  // below an earlier-read watermark would mean a torn (hole-y) cut was
  // published. The third slice typically receives no ops (both UPD edges
  // may hash elsewhere), which is the point — the pool's heartbeats must
  // still carry the watermark to the global total at quiesce.
  StressFixture f = MakeStressFixture();
  const NodeId n = static_cast<NodeId>(f.graph.num_nodes());

  for (uint64_t seed : testutil::StressSeeds({7, 8})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EngineOptions opts;
    opts.pool.num_threads = 4;
    QueryEngine engine(f.graph, opts);
    RegisterCoveringViews(&engine, f);

    constexpr size_t kAppliers = 3;
    ApplierPoolOptions po;
    po.num_appliers = kAppliers;
    po.max_batch = 16;
    ApplierPool pool(&engine, po);

    constexpr size_t kProducers = 2;
    constexpr size_t kOpsPerProducer = 61;  // odd toggle count: ends inserted
    constexpr size_t kQueryThreads = 2;
    testutil::PhaseBarrier barrier(kProducers + kQueryThreads + 2);
    std::atomic<bool> producers_done{false};
    std::vector<std::thread> threads;

    for (size_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        // Each producer owns one UPD edge; the pool routes each edge to
        // one fixed slice, so per-edge order survives the pool too.
        const NodeId u = static_cast<NodeId>(n - 4 + 2 * p);
        const NodeId v = static_cast<NodeId>(n - 4 + 2 * p + 1);
        barrier.Arrive();
        for (size_t i = 0; i < kOpsPerProducer; ++i) {
          EXPECT_NE(pool.Push(i % 2 == 0 ? EdgeUpdate::Insert(u, v)
                                         : EdgeUpdate::Delete(u, v)),
                    0u);
        }
      });
    }
    for (size_t q = 0; q < kQueryThreads; ++q) {
      threads.emplace_back([&, q] {
        Rng rng(seed * 100 + q);
        uint64_t last_version = 0;
        uint64_t last_watermark = 0;
        VersionVector last_slices(kAppliers);
        barrier.Arrive();
        while (!producers_done.load(std::memory_order_acquire)) {
          const size_t pid = rng.NextBounded(f.patterns.size());
          QueryResponse resp = engine.Query(f.patterns[pid]);
          EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
          if (!resp.status.ok()) break;
          resp.result.Normalize();
          EXPECT_TRUE(resp.result == f.expected[pid])
              << "query diverged while racing the applier pool";
          EXPECT_GE(resp.snapshot_version, last_version);
          EXPECT_GE(resp.applied_through_ts, last_watermark);
          last_version = resp.snapshot_version;
          last_watermark = resp.applied_through_ts;

          // Never-torn cut: read the watermark FIRST, the slice clocks
          // second. Clocks only advance, so every slice must already be at
          // or past the earlier-read watermark — and each slice must be
          // monotone across this reader's observations.
          const uint64_t w = engine.applied_through_ts();
          const VersionVector vv = engine.stream_slice_versions();
          ASSERT_EQ(vv.num_slices(), kAppliers);
          for (size_t s = 0; s < kAppliers; ++s) {
            EXPECT_GE(vv.slice(s), w)
                << "slice " << s << " behind published watermark " << w
                << " — torn cut " << vv.ToString();
            EXPECT_GE(vv.slice(s), last_slices.slice(s));
          }
          last_slices = vv;
        }
      });
    }
    // Resolved once: the racing reader loads the gauge lock-free instead of
    // taking a full snapshot per spin.
    const obs::Gauge* appliers_gauge =
        engine.metrics()->FindOrCreateGauge("stream.appliers");
    threads.emplace_back([&] {
      barrier.Arrive();
      while (!producers_done.load(std::memory_order_acquire)) {
        EXPECT_EQ(appliers_gauge->Value(), static_cast<double>(kAppliers));
        ExpectStreamCutConsistent(engine.metrics(),
                                  kProducers * kOpsPerProducer);
        std::this_thread::yield();
      }
    });

    barrier.Arrive();
    for (size_t p = 0; p < kProducers; ++p) threads[p].join();
    ASSERT_TRUE(pool.FlushAndWait().ok());
    producers_done.store(true, std::memory_order_release);
    for (size_t t = kProducers; t < threads.size(); ++t) threads[t].join();

    ASSERT_TRUE(pool.Stop().ok());
    // Both producer edges end inserted; the watermark reaches the global
    // total even though at least one of the three slices carried few or no
    // ops (heartbeats, not luck).
    EXPECT_EQ(engine.num_graph_edges(), f.graph.num_edges() + 2);
    const obs::MetricsSnapshot m = engine.metrics()->TakeSnapshot();
    EXPECT_EQ(m.CounterValue("stream.ops_ingested"),
              kProducers * kOpsPerProducer);
    EXPECT_EQ(m.CounterValue("stream.ops_dropped"), 0u);
    EXPECT_EQ(engine.applied_through_ts(), kProducers * kOpsPerProducer);
    uint64_t routed = 0;
    for (size_t i = 0; i < pool.num_appliers(); ++i) {
      routed += pool.ops_routed(i);
    }
    EXPECT_EQ(routed, kProducers * kOpsPerProducer);
    CheckAccounting(m);
    EXPECT_TRUE(engine.CheckCacheConsistency(/*expect_unpinned=*/true));
  }
}

TEST(EngineConcurrencyTest, PhaseBarrierReleasesAllParticipantsTogether) {
  constexpr size_t kThreads = 4;
  constexpr size_t kPhases = 5;
  testutil::PhaseBarrier barrier(kThreads);
  std::atomic<size_t> in_phase{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t phase = 0; phase < kPhases; ++phase) {
        barrier.Arrive();
        // Everyone is in the same phase window between two barriers.
        in_phase.fetch_add(1, std::memory_order_relaxed);
        barrier.Arrive();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(in_phase.load(), kThreads * kPhases);
}

TEST(EngineConcurrencyTest, ScheduleDriverReplaysSeedDeterministically) {
  // The driver's whole point: the same seed yields the same interleaving.
  auto run = [](uint64_t seed) {
    std::vector<int> order;
    std::mutex mu;
    testutil::ScheduleDriver driver(seed);
    for (int w = 0; w < 3; ++w) {
      driver.AddWorker([&, w](size_t step) {
        std::lock_guard<std::mutex> lk(mu);
        order.push_back(w);
        return step + 1 < 4;
      });
    }
    driver.Run();
    return order;
  };
  const std::vector<int> a = run(42);
  const std::vector<int> b = run(42);
  const std::vector<int> c = run(43);
  EXPECT_EQ(a.size(), 12u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed, different schedule (for these seeds)
}

}  // namespace
}  // namespace gpmv
