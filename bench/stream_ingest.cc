/// \file stream_ingest.cc
/// \brief Streaming-ingestion benchmark: sustained updates/sec and query
/// latency *while* ingesting, streaming (micro-batches through a
/// single-applier ApplierPool) head-to-head against stop-the-world bulk
/// batches over the same op sequence.
///
///   ./build/bench/stream_ingest [ops] [--min-speedup X] [--json path]
///
/// Both passes run the identical workload: a query thread issues pattern
/// queries back-to-back while the main thread ingests the same pre-built
/// op sequence — through the stream in the streaming pass, as a handful of
/// bulk ApplyUpdates calls (the pre-streaming serving model) in the
/// stop-the-world pass. Reported per pass: ingest wall time, sustained
/// updates/sec, queries completed *during* ingestion, and the p50/p99
/// latency of those mid-ingest queries. The two passes must agree on every
/// final probe answer (exit 1 otherwise — the op sequences are canonically
/// equal by the stream's last-op-wins contract), and the streaming pass
/// must complete at least one query mid-ingest (the "no stop-the-world
/// stall" check). `--min-speedup X` gates the stop/stream p99 query-stall
/// ratio: queries racing a bulk batch stall behind its exclusive section,
/// and streamed micro-batches have to cut that p99 by at least X. The
/// ratio is measured within one process over identical work, so it holds
/// on shared CI runners (like update_latency's gate).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "engine/query_engine.h"
#include "pattern/pattern_builder.h"
#include "stream/applier_pool.h"
#include "stream/update_stream.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

using namespace gpmv;

namespace {

/// Mixed op sequence over a shadow copy (inserts target absent edges,
/// deletes existing ones), identical for both passes.
std::vector<EdgeUpdate> MakeOps(const Graph& base, size_t count,
                                uint64_t seed) {
  Graph shadow = base;
  Rng rng(seed);
  std::vector<EdgeUpdate> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      for (int tries = 0; tries < 200; ++tries) {
        NodeId u = static_cast<NodeId>(rng.NextBounded(shadow.num_nodes()));
        NodeId v = static_cast<NodeId>(rng.NextBounded(shadow.num_nodes()));
        if (u == v || shadow.HasEdge(u, v)) continue;
        (void)shadow.AddEdgeIfAbsent(u, v);
        ops.push_back(EdgeUpdate::Insert(u, v));
        break;
      }
    } else {
      for (int tries = 0; tries < 200; ++tries) {
        NodeId u = static_cast<NodeId>(rng.NextBounded(shadow.num_nodes()));
        if (shadow.out_degree(u) == 0) continue;
        NodeId v =
            shadow.out_neighbors(u)[rng.NextBounded(shadow.out_degree(u))];
        (void)shadow.RemoveEdge(u, v);
        ops.push_back(EdgeUpdate::Delete(u, v));
        break;
      }
    }
  }
  return ops;
}

std::vector<Pattern> ViewPatterns() {
  // Enough maintained views that an update batch does real per-op work
  // (seeded decremental refresh + delta-insert fixpoints per view): the
  // bulk pass's exclusive section has to be long enough to be observable
  // as a query stall, which is exactly the serving model being replaced.
  std::vector<Pattern> views;
  for (int l = 0; l + 1 < 8; ++l) {
    views.push_back(PatternBuilder()
                        .Node("L" + std::to_string(l))
                        .Node("L" + std::to_string(l + 1))
                        .Edge("L" + std::to_string(l),
                              "L" + std::to_string(l + 1))
                        .Build());
  }
  for (int l = 0; l + 2 < 8; l += 2) {
    views.push_back(PatternBuilder()
                        .Node("L" + std::to_string(l))
                        .Node("L" + std::to_string(l + 1))
                        .Node("L" + std::to_string(l + 2))
                        .Edge("L" + std::to_string(l),
                              "L" + std::to_string(l + 1))
                        .Edge("L" + std::to_string(l + 1),
                              "L" + std::to_string(l + 2))
                        .Build());
  }
  return views;
}

struct PassResult {
  double ingest_seconds = 0.0;
  size_t ops = 0;
  size_t queries_during_ingest = 0;
  double query_p50_ms = 0.0;
  double query_p99_ms = 0.0;
  std::vector<MatchResult> final_answers;
  obs::MetricsSnapshot metrics;
};

std::unique_ptr<QueryEngine> MakeEngine(const Graph& base,
                                        const std::vector<Pattern>& views,
                                        const std::vector<Pattern>& probes) {
  EngineOptions opts;
  opts.pool.num_threads = 2;
  opts.result_cache.budget_bytes = 0;  // measure evaluation, not memo hits
  auto engine = std::make_unique<QueryEngine>(base, opts);
  for (size_t i = 0; i < views.size(); ++i) {
    Result<uint32_t> id =
        engine->RegisterView("v" + std::to_string(i), views[i]);
    if (!id.ok()) {
      std::fprintf(stderr, "register failed: %s\n",
                   id.status().ToString().c_str());
      std::exit(1);
    }
  }
  Status warm = engine->WarmViews();
  if (!warm.ok()) {
    std::fprintf(stderr, "warm failed: %s\n", warm.ToString().c_str());
    std::exit(1);
  }
  // Prime each probe once so both passes start from materialized state.
  for (const Pattern& q : probes) (void)engine->Query(q);
  return engine;
}

/// Runs one pass: a query thread hammers the engine while `ingest` runs on
/// the calling thread; returns the latency profile of the queries that
/// *started* during ingestion (a query stalling past the end of a bulk
/// batch is exactly the stall being measured). The ingest waits for the
/// querier's warm-up query, so even a short ingest window overlaps live
/// queries in both passes.
PassResult RunPass(QueryEngine* engine, const std::vector<Pattern>& probes,
                   size_t num_ops,
                   const std::function<void(QueryEngine*)>& ingest) {
  PassResult out;
  out.ops = num_ops;
  std::atomic<bool> ready{false};
  std::atomic<bool> ingesting{false};
  std::atomic<bool> stop{false};
  std::vector<double> latencies_ms;
  std::thread querier([&] {
    Rng rng(4242);
    (void)engine->Query(probes[0]);  // warm-up: thread is hot before t0
    ready.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      const Pattern& q = probes[rng.NextBounded(probes.size())];
      const bool started_mid_ingest =
          ingesting.load(std::memory_order_acquire);
      Stopwatch sw;
      QueryResponse resp = engine->Query(q);
      const double ms = sw.ElapsedMillis();
      if (!resp.status.ok()) {
        std::fprintf(stderr, "query failed mid-ingest: %s\n",
                     resp.status.ToString().c_str());
        std::exit(1);
      }
      if (started_mid_ingest) latencies_ms.push_back(ms);
    }
  });

  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();
  Stopwatch wall;
  ingesting.store(true, std::memory_order_release);
  ingest(engine);
  out.ingest_seconds = wall.ElapsedSeconds();
  ingesting.store(false, std::memory_order_release);
  stop.store(true, std::memory_order_release);
  querier.join();

  out.queries_during_ingest = latencies_ms.size();
  std::sort(latencies_ms.begin(), latencies_ms.end());
  if (!latencies_ms.empty()) {
    out.query_p50_ms = latencies_ms[latencies_ms.size() / 2];
    out.query_p99_ms = latencies_ms[(latencies_ms.size() * 99) / 100];
  }
  for (const Pattern& q : probes) {
    QueryResponse resp = engine->Query(q);
    if (!resp.status.ok()) {
      std::fprintf(stderr, "final probe failed: %s\n",
                   resp.status.ToString().c_str());
      std::exit(1);
    }
    resp.result.Normalize();
    out.final_answers.push_back(std::move(resp.result));
  }
  out.metrics = engine->metrics()->TakeSnapshot();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  double min_speedup = 0.0;
  size_t positionals[1] = {3000};  // ops in the ingest sequence
  if (!bench::TakeJsonFlag(&argc, argv, &json_path) ||
      !bench::TakeMinSpeedupFlag(&argc, argv, &min_speedup) ||
      !bench::ParsePositionals(
          argc, argv,
          "stream_ingest [ops] [--min-speedup X] [--json path]",
          positionals, 1)) {
    return 2;
  }
  const size_t num_ops = std::max<size_t>(positionals[0], 16);

  RandomGraphOptions go;
  go.num_nodes = 20000;
  go.num_edges = 60000;
  go.num_labels = 8;
  go.seed = 2026;
  const Graph base = GenerateRandomGraph(go);
  const std::vector<Pattern> views = ViewPatterns();

  std::vector<Pattern> probes = views;  // view probes read cached extensions
  probes.push_back(PatternBuilder()
                       .Node("L2").Node("L3").Node("L4")
                       .Edge("L2", "L3").Edge("L3", "L4")
                       .Build());

  const std::vector<EdgeUpdate> ops = MakeOps(base, num_ops, 99);
  std::printf("graph: %zu nodes, %zu edges; %zu views; %zu streamed ops\n\n",
              base.num_nodes(), base.num_edges(), views.size(), ops.size());

  // --- streaming pass: micro-batches through a K=1 applier pool ----------
  std::unique_ptr<QueryEngine> stream_engine = MakeEngine(base, views, probes);
  PassResult streamed =
      RunPass(stream_engine.get(), probes, ops.size(), [&](QueryEngine* e) {
        ApplierPoolOptions po;
        po.num_appliers = 1;
        po.stream.queue_capacity = 1024;
        ApplierPool pool(e, po);
        for (const EdgeUpdate& op : ops) {
          if (pool.Push(op) == 0) {
            std::fprintf(stderr, "push failed\n");
            std::exit(1);
          }
        }
        Status st = pool.FlushAndWait();
        if (!st.ok() || !pool.Stop().ok()) {
          std::fprintf(stderr, "stream apply failed: %s\n",
                       st.ToString().c_str());
          std::exit(1);
        }
      });

  // --- stop-the-world pass: the same sequence as ONE bulk exclusive batch
  // (the pre-streaming serving model — `serve --updates` applies its whole
  // file in one ApplyUpdates; canonicalized per the stream's last-op-wins
  // contract so the final graphs are identical). Queries racing it stall
  // behind the single long exclusive section.
  std::unique_ptr<QueryEngine> bulk_engine = MakeEngine(base, views, probes);
  PassResult bulk =
      RunPass(bulk_engine.get(), probes, ops.size(), [&](QueryEngine* e) {
        Status st = e->ApplyUpdates(UpdateStream::Coalesce(ops));
        if (!st.ok()) {
          std::fprintf(stderr, "bulk apply failed: %s\n",
                       st.ToString().c_str());
          std::exit(1);
        }
      });

  // Equivalence: identical final answers, or the bench fails.
  for (size_t i = 0; i < probes.size(); ++i) {
    if (!(streamed.final_answers[i] == bulk.final_answers[i])) {
      std::fprintf(stderr,
                   "RESULT MISMATCH: streamed and stop-the-world passes "
                   "disagree on probe %zu\n",
                   i);
      return 1;
    }
  }
  // No-stall check: the streaming pass must actually serve queries while
  // ingesting (zero would mean ingestion stop-the-world'ed the engine).
  if (streamed.queries_during_ingest == 0) {
    std::fprintf(stderr,
                 "FAIL: no query completed during streamed ingestion\n");
    return 1;
  }

  auto report_pass = [](const char* name, const PassResult& p) {
    std::printf(
        "%-10s ingest %6.2fs (%8.0f upd/s)  queries-mid-ingest %6zu  "
        "q p50 %7.2fms  p99 %7.2fms\n",
        name, p.ingest_seconds,
        static_cast<double>(p.ops) / std::max(p.ingest_seconds, 1e-9),
        p.queries_during_ingest, p.query_p50_ms, p.query_p99_ms);
  };
  report_pass("streaming", streamed);
  report_pass("bulk", bulk);
  const obs::MetricsSnapshot& sm = streamed.metrics;
  const double batches =
      static_cast<double>(sm.CounterValue("stream.batches_applied"));
  const double max_batch = sm.GaugeValue("stream.max_batch_size");
  const double lag_max = sm.GaugeValue("stream.publish_lag_ms_max");
  std::printf(
      "stream: batches=%.0f max_batch=%.0f coalesced=%llu queue_max=%.0f "
      "publish_lag avg %.2fms max %.2fms\n",
      batches, max_batch,
      static_cast<unsigned long long>(
          sm.CounterValue("stream.ops_coalesced")),
      sm.GaugeValue("stream.queue_depth_max"),
      batches == 0 ? 0.0
                   : sm.GaugeValue("stream.publish_lag_ms_total") / batches,
      lag_max);

  const double stall_ratio =
      bulk.query_p99_ms / std::max(streamed.query_p99_ms, 1e-9);
  std::printf("\np99 query-stall ratio (stop-the-world / streaming): %.2fx\n",
              stall_ratio);

  bench::JsonReport report("stream_ingest");
  report.Meta("graph_nodes", static_cast<double>(base.num_nodes()));
  report.Meta("graph_edges", static_cast<double>(base.num_edges()));
  report.Meta("ops", static_cast<double>(ops.size()));
  report.Add("streaming",
             {{"ingest_seconds", streamed.ingest_seconds},
              {"updates_per_sec",
               static_cast<double>(ops.size()) /
                   std::max(streamed.ingest_seconds, 1e-9)},
              {"queries_during_ingest",
               static_cast<double>(streamed.queries_during_ingest)},
              {"query_p50_ms", streamed.query_p50_ms},
              {"query_p99_ms", streamed.query_p99_ms},
              {"batches", batches},
              {"max_batch", max_batch},
              {"publish_lag_ms_max", lag_max}});
  report.Add("stop_the_world",
             {{"ingest_seconds", bulk.ingest_seconds},
              {"updates_per_sec", static_cast<double>(ops.size()) /
                                      std::max(bulk.ingest_seconds, 1e-9)},
              {"queries_during_ingest",
               static_cast<double>(bulk.queries_during_ingest)},
              {"query_p50_ms", bulk.query_p50_ms},
              {"query_p99_ms", bulk.query_p99_ms}});
  report.Add("gate", {{"p99_stall_ratio", stall_ratio}});
  if (!report.WriteTo(json_path)) return 1;

  if (min_speedup > 0.0 && stall_ratio < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: p99 stall ratio %.2fx below required %.2fx\n",
                 stall_ratio, min_speedup);
    return 1;
  }
  return 0;
}
