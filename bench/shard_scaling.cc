/// \file shard_scaling.cc
/// \brief Sharded query fan-out scaling: the 1k-query direct workload at
/// K = 1/2/4/8 shards.
///
/// Every configuration answers the same query stream — a mix of plain and
/// bounded patterns — on the same graph with *no registered views*, so
/// each query is a direct evaluation: the plan the sharded engine fans out
/// across per-shard CSR slices (decrement exchange for plain patterns,
/// BFS frontier hand-off for bounded ones). Queries are issued one at a time from the driver
/// thread: the measured speedup is intra-query shard parallelism, not
/// inter-query pool parallelism (engine_throughput covers that axis).
/// K = 1 disables sharding entirely and is the unsharded baseline.
///
///   ./build/bench/shard_scaling [queries] [--min-speedup X] [--hash]
///                               [--json path]
///
/// Per K the report shows queries/sec, speedup vs K = 1, the merge-round /
/// broadcast counters of the sharded fixpoint, and the slice/replica
/// footprint. Matched-query and result-pair counts must agree across every
/// K (the engine paths are bit-identical; the process exits non-zero
/// otherwise). With --min-speedup the process also exits non-zero when the
/// K = 4 speedup misses the gate — the CI smoke (gate only on hardware
/// with >= 4 usable cores; on fewer cores the fan-out is time-sliced and
/// the speedup is bounded by 1).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
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
  size_t sharded = 0;
  obs::MetricsSnapshot metrics;  ///< the engine's registry after the pass
  size_t slice_bytes = 0;
  size_t replicas = 0;
};

PassResult RunConfig(const Graph& graph, const std::vector<Pattern>& patterns,
                     size_t num_queries, uint32_t shards,
                     ShardingOptions::Partition partition) {
  EngineOptions opts;
  opts.pool.num_threads = 1;  // driver issues queries sequentially anyway
  opts.sharding.num_shards = shards;
  opts.sharding.partition = partition;
  QueryEngine engine(graph, opts);

  PassResult out;
  if (auto ss = engine.sharded_snapshot()) {
    out.slice_bytes = ss->ApproxBytes();
    out.replicas = ss->total_replicas();
  }
  Stopwatch wall;
  for (size_t i = 0; i < num_queries; ++i) {
    QueryResponse resp = engine.Query(patterns[i % patterns.size()]);
    if (!resp.status.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   resp.status.ToString().c_str());
      std::exit(1);
    }
    if (resp.result.matched()) {
      ++out.matched;
      out.total_pairs += resp.result.TotalMatches();
    }
    if (resp.sharded) ++out.sharded;
  }
  out.seconds = wall.ElapsedSeconds();
  out.metrics = engine.metrics()->TakeSnapshot();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_queries = 1000;
  double min_speedup = 0.0;
  std::string json_path;
  ShardingOptions::Partition partition = ShardingOptions::Partition::kRange;
  // Strip the harness-specific --hash flag, then the shared flags and the
  // single numeric positional.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hash") == 0) {
      partition = ShardingOptions::Partition::kHash;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  size_t positionals[1] = {num_queries};
  if (!gpmv::bench::TakeJsonFlag(&argc, argv, &json_path) ||
      !gpmv::bench::TakeMinSpeedupFlag(&argc, argv, &min_speedup) ||
      !gpmv::bench::ParsePositionals(
          argc, argv,
          "shard_scaling [queries] [--min-speedup X] [--hash] [--json path]",
          positionals, 1)) {
    return 2;
  }
  num_queries = positionals[0];

  // Same graph family as engine_throughput. Every third pattern carries
  // path bounds up to 3: bounded direct plans fan out too (sharded bounded
  // BFS with frontier hand-off), and the cross-K equality check below
  // covers both exchange protocols.
  RandomGraphOptions go;
  go.num_nodes = 40000;
  go.num_edges = 120000;
  go.num_labels = 12;
  go.seed = 2026;
  Graph graph = GenerateRandomGraph(go);

  std::vector<Pattern> patterns;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RandomPatternOptions po;
    po.num_nodes = 3 + seed % 2;
    po.num_edges = po.num_nodes - 1 + seed % 2;
    po.label_pool = SyntheticLabels(go.num_labels);
    po.dag_only = true;
    po.max_bound = seed % 3 == 0 ? 3 : 1;
    po.seed = seed;
    patterns.push_back(GenerateRandomPattern(po));
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("graph: %zu nodes, %zu edges, %zu labels; workload: %zu "
              "sequential queries over %zu plain+bounded patterns; "
              "partition=%s; "
              "hardware threads: %u\n\n",
              graph.num_nodes(), graph.num_edges(), go.num_labels,
              num_queries, patterns.size(),
              partition == ShardingOptions::Partition::kRange ? "range"
                                                              : "hash",
              hw);
  if (hw < 4) {
    std::printf("note: <4 usable cores — shard tasks are time-sliced and "
                "speedups are bounded by the core count\n\n");
  }

  const uint32_t configs[] = {1, 2, 4, 8};
  std::vector<PassResult> results;
  for (uint32_t k : configs) {
    results.push_back(
        RunConfig(graph, patterns, num_queries, k, partition));
  }

  const double base_qps = static_cast<double>(num_queries) /
                          std::max(results[0].seconds, 1e-9);
  double k4_speedup = 0.0;
  for (size_t i = 0; i < results.size(); ++i) {
    const PassResult& r = results[i];
    const double qps =
        static_cast<double>(num_queries) / std::max(r.seconds, 1e-9);
    const double speedup = qps / std::max(base_qps, 1e-9);
    if (configs[i] == 4) k4_speedup = speedup;
    auto count = [&r](const char* name) {
      return static_cast<unsigned long long>(r.metrics.CounterValue(name));
    };
    std::printf(
        "K=%u: %8.2fs  %9.0f q/s  speedup=%5.2fx  sharded=%zu/%llu  "
        "rounds=%llu  messages=%llu  frontier=%llu  removals=%llu\n",
        configs[i], r.seconds, qps, speedup, r.sharded,
        count("engine.queries"), count("shard.rounds"),
        count("shard.messages"), count("shard.frontier_msgs"),
        count("shard.removals"));
    if (configs[i] > 1) {
      std::printf(
          "      slices: %zu bytes, %zu boundary replicas; plans: "
          "direct=%llu partial=%llu fallbacks=%llu\n",
          r.slice_bytes, r.replicas, count("engine.plans.direct"),
          count("engine.plans.partial"), count("engine.shard_fallbacks"));
    }
    if (r.matched != results[0].matched ||
        r.total_pairs != results[0].total_pairs) {
      std::fprintf(stderr,
                   "RESULT MISMATCH at K=%u: matched=%zu pairs=%zu vs "
                   "K=1 matched=%zu pairs=%zu\n",
                   configs[i], r.matched, r.total_pairs, results[0].matched,
                   results[0].total_pairs);
      return 1;
    }
  }
  std::printf("\nmatched queries: %zu/%zu, result pairs: %zu "
              "(all configurations agree)\n",
              results[0].matched, num_queries, results[0].total_pairs);

  gpmv::bench::JsonReport jr("shard_scaling");
  jr.Meta("queries", static_cast<double>(num_queries));
  jr.Meta("partition",
          partition == ShardingOptions::Partition::kRange ? "range" : "hash");
  for (size_t i = 0; i < results.size(); ++i) {
    const double qps = static_cast<double>(num_queries) /
                       std::max(results[i].seconds, 1e-9);
    const obs::MetricsSnapshot& m = results[i].metrics;
    jr.Add("K" + std::to_string(configs[i]),
           {{"seconds", results[i].seconds},
            {"queries_per_sec", qps},
            {"speedup", qps / std::max(base_qps, 1e-9)},
            {"messages",
             static_cast<double>(m.CounterValue("shard.messages"))},
            {"frontier_msgs",
             static_cast<double>(m.CounterValue("shard.frontier_msgs"))},
            {"rounds", static_cast<double>(m.CounterValue("shard.rounds"))}});
  }
  if (!jr.WriteTo(json_path)) return 1;

  if (min_speedup > 0.0 && k4_speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: K=4 speedup %.2fx below required %.2fx\n",
                 k4_speedup, min_speedup);
    return 1;
  }
  return 0;
}
