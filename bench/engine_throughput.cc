/// \file engine_throughput.cc
/// \brief End-to-end throughput of the concurrent view-cache query engine:
/// a 1k-query mixed workload over a generated graph, evaluated twice —
///
///   cold: an engine with no registered views (every plan is direct
///         (bounded) simulation on G),
///   warm: an engine whose covering views are materialized up front, so
///         queries answer from the cache via MatchJoin, and
///   memo: the warm configuration plus the full-result cache
///         (engine/result_cache.h) — repeats of a (minimized) query at an
///         unchanged graph version return the memoized Q(G).
///
/// The result cache is disabled in the cold and warm passes so the gated
/// warm/cold ratio keeps measuring the *view* serving path. All passes run
/// the same queries on the same worker pool; the report gives queries/sec
/// for each, the warm/cold and memo/warm speedups, the cache hit rates,
/// and the eviction counters. A standalone harness (not google-benchmark)
/// because the interesting numbers are the engine's own counters.
///
/// A fourth section measures the observability tax: the warm pass re-run
/// with the metrics registry on vs off (EngineOptions::obs.enabled — the
/// serve `--no-metrics` baseline), best-of-3 each, interleaved. The hot
/// path per query is a handful of relaxed atomic adds under a shared gate
/// lock, so the ratio is gated tightly in CI.
///
///   ./build/bench/engine_throughput [queries] [threads] [--min-speedup X]
///                                    [--max-obs-overhead F] [--json path]
///
/// With --min-speedup the process exits non-zero when the warm pass is not
/// at least X times faster — the CI smoke gate. With --max-obs-overhead
/// the process exits non-zero when the instrumented warm pass is more than
/// a fraction F slower than the uninstrumented one (CI uses 0.03 = 3%).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "engine/query_engine.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

using namespace gpmv;

namespace {

struct PassResult {
  double seconds = 0.0;
  size_t matched = 0;
  size_t total_pairs = 0;
  obs::MetricsSnapshot metrics;  ///< the engine's registry after the pass
};

PassResult RunPass(QueryEngine& engine, const std::vector<Pattern>& patterns,
                   size_t num_queries) {
  PassResult out;
  Stopwatch wall;
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    Result<std::future<QueryResponse>> fut =
        engine.Submit(patterns[i % patterns.size()]);
    if (!fut.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   fut.status().ToString().c_str());
      std::exit(1);
    }
    futures.push_back(std::move(*fut));
  }
  for (auto& fut : futures) {
    QueryResponse resp = fut.get();
    if (!resp.status.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   resp.status.ToString().c_str());
      std::exit(1);
    }
    if (resp.result.matched()) {
      ++out.matched;
      out.total_pairs += resp.result.TotalMatches();
    }
  }
  out.seconds = wall.ElapsedSeconds();
  out.metrics = engine.metrics()->TakeSnapshot();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  size_t positionals[2] = {1000, 0};  // queries, threads (0 = hw conc.)
  double min_speedup = 0.0;
  double max_obs_overhead = 0.0;
  std::string json_path;
  if (!gpmv::bench::TakeJsonFlag(&argc, argv, &json_path) ||
      !gpmv::bench::TakeMinSpeedupFlag(&argc, argv, &min_speedup) ||
      !gpmv::bench::TakeDoubleFlag(&argc, argv, "--max-obs-overhead",
                                   &max_obs_overhead) ||
      !gpmv::bench::ParsePositionals(
          argc, argv,
          "engine_throughput [queries] [threads] [--min-speedup X] "
          "[--max-obs-overhead F] [--json path]",
          positionals, 2)) {
    return 2;
  }
  const size_t num_queries = positionals[0];
  const size_t threads = positionals[1];

  // A mid-size random graph and a mixed workload of recurring DAG patterns
  // — the shape a cache layer sees: many submissions, few distinct shapes.
  RandomGraphOptions go;
  go.num_nodes = 40000;
  go.num_edges = 120000;
  go.num_labels = 12;
  go.seed = 2026;
  Graph graph = GenerateRandomGraph(go);

  // Mixed workload: half plain simulation queries, half bounded queries
  // (bounds in [1, 3]) — the regime where views pay off most (Fig. 8(i-l)):
  // direct bounded evaluation runs BFS per candidate (label-blind
  // branching), MatchJoin reads the label-filtered materialized distance
  // pairs.
  std::vector<Pattern> patterns;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RandomPatternOptions po;
    po.num_nodes = 3 + seed % 2;
    po.num_edges = po.num_nodes - 1 + seed % 2;
    po.label_pool = SyntheticLabels(go.num_labels);
    po.dag_only = true;
    po.max_bound = (seed % 2 == 0) ? 3 : 1;
    po.seed = seed;
    patterns.push_back(GenerateRandomPattern(po));
  }

  EngineOptions opts;
  opts.pool.num_threads = threads;
  // Cold/warm measure the view path; the memo pass re-enables the default
  // result cache below.
  opts.result_cache.budget_bytes = 0;

  std::printf("graph: %zu nodes, %zu edges, %zu labels; workload: %zu "
              "queries over %zu distinct patterns\n\n",
              graph.num_nodes(), graph.num_edges(), go.num_labels,
              num_queries, patterns.size());

  // Cold pass: no registered views, every query evaluates directly on G.
  PassResult cold;
  {
    QueryEngine engine(graph, opts);
    cold = RunPass(engine, patterns, num_queries);
  }

  // Warm/memo passes: covering views registered and materialized up front;
  // the stream answers from the cache (and, for memo, the result memo).
  auto run_view_pass = [&](const EngineOptions& pass_opts, PassResult* out) {
    QueryEngine engine(graph, pass_opts);
    for (size_t i = 0; i < patterns.size(); ++i) {
      CoveringViewOptions co;
      co.edges_per_view = 2;
      co.num_distractors = 0;
      co.seed = 1000 + i;
      ViewSet cover = GenerateCoveringViews(patterns[i], co);
      for (const ViewDefinition& def : cover.views()) {
        Result<uint32_t> id = engine.RegisterView(
            def.name + "_q" + std::to_string(i), def.pattern);
        if (!id.ok()) {
          std::fprintf(stderr, "register failed: %s\n",
                       id.status().ToString().c_str());
          std::exit(1);
        }
      }
    }
    Status st = engine.WarmViews();
    if (!st.ok()) {
      std::fprintf(stderr, "warmup failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    *out = RunPass(engine, patterns, num_queries);
  };
  PassResult warm;
  run_view_pass(opts, &warm);
  PassResult memo;
  {
    EngineOptions memo_opts = opts;
    memo_opts.result_cache = ResultCacheOptions{};  // back to the default
    run_view_pass(memo_opts, &memo);
  }

  if (cold.matched != warm.matched || cold.total_pairs != warm.total_pairs ||
      memo.matched != warm.matched || memo.total_pairs != warm.total_pairs) {
    std::fprintf(stderr,
                 "RESULT MISMATCH: cold matched=%zu pairs=%zu vs warm "
                 "matched=%zu pairs=%zu vs memo matched=%zu pairs=%zu\n",
                 cold.matched, cold.total_pairs, warm.matched,
                 warm.total_pairs, memo.matched, memo.total_pairs);
    return 1;
  }

  const double cold_qps =
      static_cast<double>(num_queries) / std::max(cold.seconds, 1e-9);
  const double warm_qps =
      static_cast<double>(num_queries) / std::max(warm.seconds, 1e-9);
  const double speedup = warm_qps / std::max(cold_qps, 1e-9);
  const obs::MetricsSnapshot& wm = warm.metrics;
  const obs::MetricsSnapshot& mm = memo.metrics;
  const double cache_hits = wm.GaugeValue("cache.hits");
  const double lookups = cache_hits + wm.GaugeValue("cache.misses");

  std::printf("cold (direct on G):   %8.2fs  %9.0f q/s  plans: direct=%llu\n",
              cold.seconds, cold_qps,
              static_cast<unsigned long long>(
                  cold.metrics.CounterValue("engine.plans.direct")));
  std::printf("warm (view cache):    %8.2fs  %9.0f q/s  plans: "
              "match_join=%llu partial=%llu direct=%llu\n",
              warm.seconds, warm_qps,
              static_cast<unsigned long long>(
                  wm.CounterValue("engine.plans.match_join")),
              static_cast<unsigned long long>(
                  wm.CounterValue("engine.plans.partial")),
              static_cast<unsigned long long>(
                  wm.CounterValue("engine.plans.direct")));
  const double memo_qps =
      static_cast<double>(num_queries) / std::max(memo.seconds, 1e-9);
  std::printf("memo (+result cache): %8.2fs  %9.0f q/s  result_cache: "
              "hits=%.0f stale_drops=%.0f bytes=%.0f\n",
              memo.seconds, memo_qps, mm.GaugeValue("result_cache.hits"),
              mm.GaugeValue("result_cache.stale_drops"),
              mm.GaugeValue("result_cache.bytes_cached"));
  std::printf("speedup (warm/cold):  %8.2fx   (memo/warm: %.2fx)\n", speedup,
              memo_qps / std::max(warm_qps, 1e-9));
  std::printf("matched queries: %zu/%zu, result pairs: %zu (passes agree)\n",
              warm.matched, num_queries, warm.total_pairs);
  const double cache_hit_rate = lookups == 0.0 ? 0.0 : cache_hits / lookups;
  std::printf("cache: hit_rate=%.1f%% (%.0f/%.0f)  evictions=%.0f  "
              "installs=%.0f  bytes=%.0f  warm_queries=%llu\n",
              100.0 * cache_hit_rate, cache_hits, lookups,
              wm.GaugeValue("cache.evictions"), wm.GaugeValue("cache.installs"),
              wm.GaugeValue("cache.bytes_cached"),
              static_cast<unsigned long long>(
                  wm.CounterValue("engine.queries_warm")));
  // MatchJoin fixpoint telemetry (warm pass): iteration and saturation
  // counters make "the fixpoint got slower" diagnosable from CI logs even
  // when wall-clock numbers are noisy.
  auto join = [&wm](const char* name) {
    return static_cast<unsigned long long>(
        wm.CounterValue(std::string("join.") + name));
  };
  std::printf("fixpoint: initial_pairs=%llu removed=%llu set_visits=%llu "
              "iterations=%llu counters_zeroed=%llu candidate_ranks=%llu "
              "dist_filtered=%llu cond_filtered=%llu\n",
              join("initial_pairs"), join("removed_pairs"),
              join("match_set_visits"), join("fixpoint_iterations"),
              join("counters_zeroed"), join("candidate_ranks"),
              join("filtered_by_distance"), join("filtered_by_condition"));

  // Observability tax: the warm pass with the metrics registry on vs off.
  // Each rep runs the two configurations back to back and takes their
  // ratio — adjacent runs see the same machine state, so drift cancels
  // inside a pair — and the gate uses the median rep (single-rep minima
  // still carry several percent of scheduler noise).
  std::vector<double> obs_ratios;
  double obs_on_s = std::numeric_limits<double>::infinity();
  double obs_off_s = std::numeric_limits<double>::infinity();
  {
    EngineOptions off_opts = opts;
    off_opts.obs.enabled = false;
    for (int rep = 0; rep < 5; ++rep) {
      PassResult on, off;
      run_view_pass(opts, &on);
      run_view_pass(off_opts, &off);
      obs_ratios.push_back(on.seconds / std::max(off.seconds, 1e-9));
      obs_on_s = std::min(obs_on_s, on.seconds);
      obs_off_s = std::min(obs_off_s, off.seconds);
    }
  }
  std::sort(obs_ratios.begin(), obs_ratios.end());
  const double obs_overhead = obs_ratios[obs_ratios.size() / 2] - 1.0;
  std::printf("observability: instrumented %.3fs vs --no-metrics %.3fs "
              "(median overhead %+.2f%%)\n",
              obs_on_s, obs_off_s, 100.0 * obs_overhead);

  gpmv::bench::JsonReport jr("engine_throughput");
  jr.Meta("queries", static_cast<double>(num_queries));
  jr.Add("cold", {{"seconds", cold.seconds}, {"queries_per_sec", cold_qps}});
  jr.Add("warm",
         {{"seconds", warm.seconds},
          {"queries_per_sec", warm_qps},
          {"speedup", speedup},
          {"cache_hit_rate", cache_hit_rate}});
  jr.Add("memo",
         {{"seconds", memo.seconds},
          {"queries_per_sec", memo_qps},
          {"speedup_vs_warm", memo_qps / std::max(warm_qps, 1e-9)},
          {"result_cache_hits", mm.GaugeValue("result_cache.hits")}});
  jr.Add("observability", {{"instrumented_seconds", obs_on_s},
                           {"no_metrics_seconds", obs_off_s},
                           {"overhead_fraction", obs_overhead}});
  if (!jr.WriteTo(json_path)) return 1;

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  if (max_obs_overhead > 0.0 && obs_overhead > max_obs_overhead) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.2f%% above allowed %.2f%%\n",
                 100.0 * obs_overhead, 100.0 * max_obs_overhead);
    return 1;
  }
  return 0;
}
