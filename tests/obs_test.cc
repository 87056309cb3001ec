/// \file obs_test.cc
/// \brief The observability layer's contracts (src/obs/): histogram bucket
/// boundaries and quantiles, striped-counter exactness under real threads,
/// the snapshot gate's untorn-group guarantee on the deterministic-schedule
/// harness, per-query trace-span tree shapes across plan kinds, the
/// threshold-gated slow-query log, the engine registry's cross-metric
/// invariants, and the exporters (JSON-lines, Prometheus text, summary
/// table). Runs in the TSan CI label (fast+concurrency): the striped cells
/// and the shared/exclusive gate are exactly what TSan should sweep.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace gpmv {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;
using obs::kHistogramBuckets;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// ---------------------------------------------------------------- metrics --

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  // Bucket 0 holds v <= 1; bucket b >= 1 holds [2^b, 2^(b+1)).
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 0u);
  EXPECT_EQ(Histogram::BucketFor(2), 1u);
  EXPECT_EQ(Histogram::BucketFor(3), 1u);
  EXPECT_EQ(Histogram::BucketFor(4), 2u);
  EXPECT_EQ(Histogram::BucketFor(7), 2u);
  EXPECT_EQ(Histogram::BucketFor(8), 3u);
  EXPECT_EQ(Histogram::BucketFor((1ull << 20) - 1), 19u);
  EXPECT_EQ(Histogram::BucketFor(1ull << 20), 20u);
  // The last bucket is open-ended: everything at or past 2^39 lands there.
  EXPECT_EQ(Histogram::BucketFor(1ull << 39), kHistogramBuckets - 1);
  EXPECT_EQ(Histogram::BucketFor(~0ull), kHistogramBuckets - 1);
}

TEST(HistogramTest, RecordCountsAndSums) {
  Histogram h;
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(1000);
  EXPECT_EQ(h.BucketCount(0), 1u);  // 1
  EXPECT_EQ(h.BucketCount(1), 2u);  // 2, 3
  EXPECT_EQ(h.BucketCount(9), 1u);  // 1000 in [512, 1024)
  EXPECT_EQ(h.Sum(), 1006u);
}

TEST(HistogramTest, QuantilesInterpolateWithinTheStraddlingBucket) {
  MetricsRegistry reg;
  Histogram* h = reg.FindOrCreateHistogram("q");
  // 100 values in [512, 1024): every quantile must land in that bucket's
  // range, and higher quantiles must not decrease.
  for (int i = 0; i < 100; ++i) h->Record(700);
  MetricsSnapshot snap = reg.TakeSnapshot();
  const HistogramSnapshot* hs = snap.FindHistogram("q");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 100u);
  EXPECT_EQ(hs->sum, 70000u);
  EXPECT_DOUBLE_EQ(hs->Average(), 700.0);
  const double p50 = hs->Quantile(0.50);
  const double p95 = hs->Quantile(0.95);
  const double p99 = hs->Quantile(0.99);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p99, 1024.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Empty histogram: all quantiles are 0.
  HistogramSnapshot empty;
  empty.buckets.assign(kHistogramBuckets, 0);
  EXPECT_DOUBLE_EQ(empty.Quantile(0.99), 0.0);
}

TEST(CounterTest, StripedAddsAreExactAcrossThreads) {
  MetricsRegistry reg;
  obs::Counter* c = reg.FindOrCreateCounter("c");
  obs::Histogram* h = reg.FindOrCreateHistogram("h");
  constexpr size_t kThreads = 8;
  constexpr size_t kAdds = 20000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < kAdds; ++i) {
        c->Add(1);
        h->Record(i & 1023);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), kThreads * kAdds);
  MetricsSnapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("c"), kThreads * kAdds);
  const HistogramSnapshot* hs = snap.FindHistogram("h");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, kThreads * kAdds);
}

TEST(GaugeTest, SetMaxAndAddSemantics) {
  obs::Gauge g;
  g.SetMax(3.0);
  g.SetMax(1.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(g.Value(), 3.0);
  g.Set(0.5);  // Set always overwrites, even downward
  EXPECT_DOUBLE_EQ(g.Value(), 0.5);
  g.Add(1.5);
  g.Add(2.0);
  EXPECT_DOUBLE_EQ(g.Value(), 4.0);
}

TEST(RegistryTest, SameNameSameHandleDistinctKindsDistinctMetrics) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindOrCreateCounter("x"), reg.FindOrCreateCounter("x"));
  // A counter "x" and a gauge "x" are namespaced by kind — both appear in
  // the snapshot independently.
  reg.FindOrCreateCounter("x")->Add(7);
  reg.FindOrCreateGauge("x")->Set(2.5);
  MetricsSnapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("x"), 7u);
  EXPECT_DOUBLE_EQ(snap.GaugeValue("x"), 2.5);
}

TEST(RegistryTest, CollectorsAppendDerivedGauges) {
  MetricsRegistry reg;
  reg.AddCollector([](MetricsSnapshot* out) { out->AddGauge("derived", 42.0); });
  EXPECT_DOUBLE_EQ(reg.TakeSnapshot().GaugeValue("derived"), 42.0);
}

/// The snapshot-gate contract: writers updating several metrics under one
/// Group() are observed all-or-nothing by TakeSnapshot. Each writer step
/// maintains total == applied + dropped and batch-histogram count ==
/// batches; the reader asserts both invariants in every snapshot it takes,
/// on the seeded interleaving harness (reproduce with GPMV_STRESS_SEED).
TEST(RegistryTest, SnapshotsNeverTearGroupedUpdates) {
  for (uint64_t seed : testutil::StressSeeds({11, 29, 47})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    MetricsRegistry reg;
    obs::Counter* total = reg.FindOrCreateCounter("total");
    obs::Counter* applied = reg.FindOrCreateCounter("applied");
    obs::Counter* dropped = reg.FindOrCreateCounter("dropped");
    obs::Counter* batches = reg.FindOrCreateCounter("batches");
    obs::Histogram* batch_size = reg.FindOrCreateHistogram("batch_size");

    testutil::ScheduleDriver driver(seed);
    constexpr size_t kWriters = 3;
    constexpr size_t kStepsPerWriter = 60;
    for (size_t w = 0; w < kWriters; ++w) {
      driver.AddWorker([&, w](size_t k) {
        // Real concurrency inside one logical step: the grouped update
        // runs on a spawned thread racing the reader's TakeSnapshot.
        std::thread t([&, k] {
          auto group = reg.Group();
          const uint64_t n = 1 + ((k + w) % 5);
          total->Add(n);
          if (k % 4 == 3) {
            dropped->Add(n);
          } else {
            applied->Add(n);
            batches->Add(1);
            batch_size->Record(n);
          }
        });
        t.join();
        return k + 1 < kStepsPerWriter;
      });
    }
    size_t snapshots_checked = 0;
    driver.AddWorker([&](size_t k) {
      MetricsSnapshot snap = reg.TakeSnapshot();
      EXPECT_EQ(snap.CounterValue("total"),
                snap.CounterValue("applied") + snap.CounterValue("dropped"));
      const HistogramSnapshot* hs = snap.FindHistogram("batch_size");
      if (hs != nullptr) {
        EXPECT_EQ(hs->count, snap.CounterValue("batches"));
      }
      ++snapshots_checked;
      return k + 1 < 2 * kStepsPerWriter;
    });
    driver.Run();
    EXPECT_EQ(snapshots_checked, 2 * kStepsPerWriter);
    // Quiesced totals are exact.
    MetricsSnapshot fin = reg.TakeSnapshot();
    EXPECT_EQ(fin.CounterValue("total"),
              fin.CounterValue("applied") + fin.CounterValue("dropped"));
    EXPECT_GT(fin.CounterValue("total"), 0u);
  }
}

// ------------------------------------------------------------------ trace --

TEST(TraceTest, SpanTreeNestsAndCloses) {
  obs::Trace tr(7, "query");
  EXPECT_EQ(tr.id(), 7u);
  obs::TraceSpan* plan = tr.Open("plan");
  tr.Close(plan);
  {
    obs::SpanScope fix(&tr, "fixpoint");
    obs::SpanScope inner(&tr, "inner");
    inner.Attr("rounds", static_cast<uint64_t>(2));
  }
  std::shared_ptr<const obs::TraceSpan> root = tr.Finish();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "query");
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->name, "plan");
  EXPECT_EQ(root->children[1]->name, "fixpoint");
  const obs::TraceSpan* inner = root->Find("inner");
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(inner->attrs.size(), 1u);
  EXPECT_EQ(inner->attrs[0].first, "rounds");
  EXPECT_EQ(inner->attrs[0].second, "2");
}

TEST(TraceTest, NullTraceScopesAreNoOps) {
  obs::SpanScope scope(nullptr, "anything");
  EXPECT_EQ(scope.get(), nullptr);
  scope.Attr("k", static_cast<uint64_t>(1));  // must not crash
  scope.Close();
}

TEST(TraceTest, JsonLineEscapesAndTypes) {
  obs::TraceSpan root;
  root.name = "query";
  root.dur_ms = 1.5;
  root.Attr("plan", std::string("match_join"));
  root.Attr("iterations", static_cast<uint64_t>(3));
  root.AttrBool("ok", true);
  root.Attr("weird", std::string("a\"b\\c\n"));
  const std::string line = obs::TraceToJsonLine(9, 1.5, root);
  EXPECT_NE(line.find("\"trace_id\":9"), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"query\""), std::string::npos);
  // Numbers and bools unquoted, strings quoted, controls escaped.
  EXPECT_NE(line.find("\"iterations\":3"), std::string::npos);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(line.find("\"plan\":\"match_join\""), std::string::npos);
  EXPECT_NE(line.find("a\\\"b\\\\c\\u000a"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one physical line
}

TEST(SlowQueryLogTest, ThresholdAndSinks) {
  std::vector<std::string> lines;
  obs::SlowQueryLog::Options o;
  o.threshold_ms = 5.0;
  o.sink = [&](const std::string& l) { lines.push_back(l); };
  obs::SlowQueryLog log(o);
  EXPECT_TRUE(log.enabled());
  EXPECT_DOUBLE_EQ(log.threshold_ms(), 5.0);
  log.Log("{\"trace_id\":1}");
  EXPECT_EQ(log.lines_written(), 1u);
  ASSERT_EQ(lines.size(), 1u);

  obs::SlowQueryLog off({});  // threshold 0: disabled
  EXPECT_FALSE(off.enabled());
}

// ---------------------------------------------------- engine integration --

Graph DiamondGraph() {
  // A -> B -> D, A -> C -> D, repeated eight times.
  Graph g;
  for (int rep = 0; rep < 8; ++rep) {
    NodeId a = g.AddNode("A");
    NodeId b = g.AddNode("B");
    NodeId c = g.AddNode("C");
    NodeId d = g.AddNode("D");
    (void)g.AddEdge(a, b);
    (void)g.AddEdge(a, c);
    (void)g.AddEdge(b, d);
    (void)g.AddEdge(c, d);
  }
  return g;
}

TEST(EngineTraceTest, DirectPlanSpanShape) {
  EngineOptions opts;
  opts.obs.trace = true;
  QueryEngine engine(DiamondGraph(), opts);
  QueryResponse resp = engine.Query(testutil::ChainPattern({"A", "B"}));
  ASSERT_TRUE(resp.status.ok());
  EXPECT_GT(resp.trace_id, 0u);
  ASSERT_NE(resp.trace, nullptr);
  EXPECT_EQ(resp.trace->name, "query");
  EXPECT_NE(resp.trace->Find("plan"), nullptr);
  EXPECT_NE(resp.trace->Find("fixpoint"), nullptr);
  // Direct plan: no view pin; no queue.wait (sync Query).
  EXPECT_EQ(resp.trace->Find("queue.wait"), nullptr);
}

TEST(EngineTraceTest, WarmMatchJoinSpanShapeAndSubmitQueueWait) {
  EngineOptions opts;
  opts.obs.trace = true;
  QueryEngine engine(DiamondGraph(), opts);
  Pattern q = testutil::ChainPattern({"A", "B"});
  ASSERT_TRUE(engine.RegisterView("v_ab", q).ok());
  ASSERT_TRUE(engine.WarmViews().ok());
  Result<std::future<QueryResponse>> fut = engine.Submit(q);
  ASSERT_TRUE(fut.ok());
  QueryResponse resp = fut->get();
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.plan, PlanKind::kMatchJoin);
  EXPECT_TRUE(resp.warm);
  ASSERT_NE(resp.trace, nullptr);
  EXPECT_NE(resp.trace->Find("queue.wait"), nullptr);
  EXPECT_NE(resp.trace->Find("view_cache.pin"), nullptr);
  const obs::TraceSpan* fix = resp.trace->Find("fixpoint");
  ASSERT_NE(fix, nullptr);
  bool has_iterations = false;
  for (const auto& [k, v] : fix->attrs) has_iterations |= (k == "iterations");
  EXPECT_TRUE(has_iterations);
  // Root carries the plan kind for the slow-query log reader.
  bool root_plan = false;
  for (const auto& [k, v] : resp.trace->attrs) {
    if (k == "plan") {
      root_plan = true;
      EXPECT_EQ(v, "match_join");
    }
  }
  EXPECT_TRUE(root_plan);
}

TEST(EngineTraceTest, ResultCacheHitIsVisibleInSpans) {
  EngineOptions opts;
  opts.obs.trace = true;
  QueryEngine engine(DiamondGraph(), opts);
  Pattern q = testutil::ChainPattern({"A", "B"});
  QueryResponse first = engine.Query(q);
  QueryResponse second = engine.Query(q);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.result_cached);
  ASSERT_NE(second.trace, nullptr);
  const obs::TraceSpan* rc = second.trace->Find("result_cache.lookup");
  ASSERT_NE(rc, nullptr);
  bool hit = false;
  for (const auto& [k, v] : rc->attrs) hit |= (k == "hit" && v == "true");
  EXPECT_TRUE(hit);
  // Cache hits skip the evaluation: no fixpoint span.
  EXPECT_EQ(second.trace->Find("fixpoint"), nullptr);
  EXPECT_GT(second.trace_id, first.trace_id);
}

TEST(EngineTraceTest, TracingOffStillAssignsMonotoneTraceIds) {
  QueryEngine engine(DiamondGraph(), {});
  Pattern q = testutil::ChainPattern({"A", "B"});
  QueryResponse a = engine.Query(q);
  QueryResponse b = engine.Query(q);
  EXPECT_EQ(a.trace, nullptr);
  EXPECT_GT(a.trace_id, 0u);
  EXPECT_GT(b.trace_id, a.trace_id);
}

TEST(EngineSlowQueryTest, ThresholdGatesTheLog) {
  std::mutex mu;
  std::vector<std::string> lines;
  EngineOptions opts;
  opts.obs.slow_query_ms = 1e-6;  // everything is "slow"
  opts.obs.slow_query_sink = [&](const std::string& l) {
    std::lock_guard<std::mutex> lk(mu);
    lines.push_back(l);
  };
  QueryEngine engine(DiamondGraph(), opts);
  Pattern q = testutil::ChainPattern({"A", "B"});
  QueryResponse resp = engine.Query(q);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(engine.slow_query_lines(), 1u);
  ASSERT_EQ(lines.size(), 1u);
  // The logged line carries the joinable id and the span tree.
  EXPECT_NE(lines[0].find("\"trace_id\":" + std::to_string(resp.trace_id)),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\":\"plan\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\":\"fixpoint\""), std::string::npos);
  // Tracing was not requested: the tree goes to the log, not the response.
  EXPECT_EQ(resp.trace, nullptr);
}

TEST(EngineSlowQueryTest, FastQueriesDoNotLog) {
  std::vector<std::string> lines;
  EngineOptions opts;
  opts.obs.slow_query_ms = 1e9;  // nothing is slow
  opts.obs.slow_query_sink = [&](const std::string& l) {
    lines.push_back(l);
  };
  QueryEngine engine(DiamondGraph(), opts);
  (void)engine.Query(testutil::ChainPattern({"A", "B"}));
  EXPECT_EQ(engine.slow_query_lines(), 0u);
  EXPECT_TRUE(lines.empty());
}

TEST(EngineMetricsTest, RegistryInvariantsHoldAfterQueriesAndUpdates) {
  EngineOptions opts;
  QueryEngine engine(DiamondGraph(), opts);
  Pattern q = testutil::ChainPattern({"A", "B"});
  ASSERT_TRUE(engine.RegisterView("v_ab", q).ok());
  ASSERT_TRUE(engine.WarmViews().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.Query(q).status.ok());
  }
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(0, 3),
                                   EdgeUpdate::Delete(0, 1)};
  ASSERT_TRUE(engine.ApplyUpdates(batch).ok());

  MetricsSnapshot snap = engine.metrics()->TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("engine.queries"), 5u);
  EXPECT_EQ(snap.CounterValue("engine.update_batches"), 1u);
  // The commit-lock wait is recorded once per committed batch.
  const HistogramSnapshot* lock_wait =
      snap.FindHistogram("update.lock_wait_us");
  ASSERT_NE(lock_wait, nullptr);
  EXPECT_EQ(lock_wait->count, snap.CounterValue("engine.update_batches"));
  EXPECT_EQ(snap.CounterValue("engine.edges_inserted"), 1u);
  EXPECT_EQ(snap.CounterValue("engine.edges_deleted"), 1u);
  // The fallback-reason breakdown sums to the fallback total.
  EXPECT_EQ(snap.CounterValue("delta.fallbacks"),
            snap.CounterValue("delta.fallback_not_simulation") +
                snap.CounterValue("delta.fallback_unmatched") +
                snap.CounterValue("delta.fallback_area_too_large") +
                snap.CounterValue("delta.fallback_disabled"));
  // Every component's collector gauges are in the snapshot.
  for (const char* name :
       {"cache.hits", "cache.bytes_cached", "result_cache.misses",
        "pool.submitted", "mvcc.chain_depth", "mvcc.pinned_cuts",
        "mvcc.gc_collected"}) {
    bool present = false;
    for (const auto& [gauge, _] : snap.gauges) present |= gauge == name;
    EXPECT_TRUE(present) << name;
  }
  // Latency histograms observed every query.
  const HistogramSnapshot* lat = snap.FindHistogram("query.latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, snap.CounterValue("engine.queries"));
}

TEST(EngineMetricsTest, DisabledRegistryStaysEmptyAndQueriesStillWork) {
  EngineOptions opts;
  opts.obs.enabled = false;
  QueryEngine engine(DiamondGraph(), opts);
  Pattern q = testutil::ChainPattern({"A", "B"});
  QueryResponse resp = engine.Query(q);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_TRUE(resp.result.matched());
  const MetricsSnapshot snap = engine.metrics()->TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("engine.queries"), 0u);
  // The component stats (result cache etc.) are still live through their
  // collector gauges — only the engine's own counters are off.
  EXPECT_EQ(snap.GaugeValue("result_cache.inserts"), 1.0);
}

// -------------------------------------------------------------- exporters --

TEST(ExporterTest, SnapshotToJsonLineShape) {
  MetricsRegistry reg;
  reg.FindOrCreateCounter("engine.queries")->Add(3);
  reg.FindOrCreateGauge("stream.queue_depth")->Set(2.0);
  reg.FindOrCreateHistogram("query.latency_us")->Record(100);
  const std::string line = obs::SnapshotToJsonLine(reg.TakeSnapshot(), 1, 12.5);
  EXPECT_EQ(line.rfind("{\"seq\":1,\"ts_ms\":12.5,", 0), 0u) << line;
  EXPECT_NE(line.find("\"counters\":{\"engine.queries\":3}"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"gauges\":{\"stream.queue_depth\":2}"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"query.latency_us\":{\"count\":1,\"sum\":100,"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"p50\":"), std::string::npos);
  EXPECT_NE(line.find("\"buckets\":["), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(ExporterTest, PeriodicEmissionAndFinalSnapshot) {
  const std::string path = testing::TempDir() + "/obs_exporter_test.jsonl";
  MetricsRegistry reg;
  obs::Counter* c = reg.FindOrCreateCounter("ticks");
  {
    obs::MetricsExporter::Options eo;
    eo.path = path;
    eo.interval_ms = 5;
    obs::MetricsExporter exporter(&reg, eo);
    ASSERT_TRUE(exporter.ok());
    for (int i = 0; i < 4; ++i) {
      c->Add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    exporter.Stop();
    EXPECT_GE(exporter.snapshots_written(), 1u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line, last_line;
  uint64_t last_seq = 0;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    last_line = line;
    unsigned long long seq = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "{\"seq\":%llu,", &seq), 1) << line;
    EXPECT_EQ(seq, last_seq + 1) << "seq must increase without gaps";
    last_seq = seq;
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"counters\""), std::string::npos);
  }
  EXPECT_GE(lines, 1u);
  // The final Stop() snapshot saw every tick.
  EXPECT_NE(last_line.find("\"ticks\":4"), std::string::npos) << last_line;
  std::remove(path.c_str());
}

TEST(ExporterTest, PrometheusTextFormat) {
  const std::string path = testing::TempDir() + "/obs_exporter_test.prom";
  MetricsRegistry reg;
  reg.FindOrCreateCounter("engine.queries")->Add(3);
  reg.FindOrCreateGauge("stream.queue_depth")->Set(2.0);
  obs::Histogram* h = reg.FindOrCreateHistogram("query.latency_us");
  h->Record(1);
  h->Record(100);
  ASSERT_TRUE(obs::WritePrometheusText(reg.TakeSnapshot(), path));
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("# TYPE gpmv_engine_queries counter"),
            std::string::npos);
  EXPECT_NE(text.find("gpmv_engine_queries 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gpmv_stream_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gpmv_query_latency_us histogram"),
            std::string::npos);
  // Cumulative le buckets end at +Inf, and _count totals the records.
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos) << text;
  EXPECT_NE(text.find("gpmv_query_latency_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("gpmv_query_latency_us_sum 101"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ExporterTest, SummaryTableSkipsZeroRows) {
  MetricsRegistry reg;
  reg.FindOrCreateCounter("nonzero")->Add(5);
  reg.FindOrCreateCounter("zero");
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  obs::PrintSummaryTable(tmp, reg.TakeSnapshot());
  std::rewind(tmp);
  std::string text(1 << 12, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), tmp));
  std::fclose(tmp);
  EXPECT_NE(text.find("nonzero"), std::string::npos);
  EXPECT_EQ(text.find("zero\n"), std::string::npos);  // zero row skipped
}

}  // namespace
}  // namespace gpmv
