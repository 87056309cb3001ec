/// \file fixpoint_microbench.cc
/// \brief Dense-rank vs hash-map MatchJoin fixpoint microbenchmark.
///
/// The PR-1 profile showed the per-edge `unordered_map<NodeId, uint32_t>`
/// out/in counters dominating the engine's warm path; the dense refactor
/// replaced them with flat arrays over candidate ranks
/// (core/match_join.h). This harness isolates exactly that change: the same
/// 1k-query workload engine_throughput uses (same graph, same patterns,
/// same covering views, extensions materialized once up front) is pushed
/// through MatchJoin twice — `use_dense_ranks = true` vs `false` — and the
/// report gives per-pass time, pair-visit counters, and the dense/hash
/// speedup. Results are compared pair-for-pair, so the run doubles as an
/// equivalence check.
///
///   ./build/bench/fixpoint_microbench [queries] [--min-speedup X]
///                                      [--json path]
///
/// With --min-speedup the process exits non-zero when the dense pass is not
/// at least X times faster — the CI gate for the ROADMAP "MatchJoin
/// fixpoint performance" item. The two engines run in the same process in
/// interleaved batches with alternating order, so shared-runner noise and
/// ordering effects hit both sides of the gated ratio roughly equally.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/containment.h"
#include "core/match_join.h"
#include "core/view.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

using namespace gpmv;

namespace {

/// One query shape with everything MatchJoin needs, prepared up front.
struct PreparedQuery {
  Pattern pattern;
  ViewSet views;
  std::vector<ViewExtension> exts;
  ContainmentMapping mapping;
};

struct PassResult {
  double seconds = 0.0;
  size_t total_pairs = 0;
  MatchJoinStats stats;
};

/// Runs queries [start, start+count) through one engine, accumulating into
/// `out` (time, pairs, counters).
void RunBatch(const std::vector<PreparedQuery>& queries, size_t start,
              size_t count, bool dense, PassResult* out) {
  MatchJoinOptions opts;
  opts.use_dense_ranks = dense;
  Stopwatch wall;
  for (size_t i = start; i < start + count; ++i) {
    const PreparedQuery& pq = queries[i % queries.size()];
    Result<MatchResult> r = MatchJoin(pq.pattern, pq.views, pq.exts,
                                      pq.mapping, opts, &out->stats);
    if (!r.ok()) {
      std::fprintf(stderr, "MatchJoin failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    out->total_pairs += r->TotalMatches();
  }
  out->seconds += wall.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_queries = 1000;
  double min_speedup = 0.0;
  std::string json_path;
  size_t positionals[1] = {num_queries};
  if (!gpmv::bench::TakeJsonFlag(&argc, argv, &json_path) ||
      !gpmv::bench::TakeMinSpeedupFlag(&argc, argv, &min_speedup) ||
      !gpmv::bench::ParsePositionals(
          argc, argv,
          "fixpoint_microbench [queries] [--min-speedup X] [--json path]",
          positionals, 1)) {
    return 2;
  }
  num_queries = positionals[0];

  // Same workload shape as engine_throughput: mid-size random graph, ten
  // recurring mixed plain/bounded DAG patterns, covering views.
  RandomGraphOptions go;
  go.num_nodes = 40000;
  go.num_edges = 120000;
  go.num_labels = 12;
  go.seed = 2026;
  Graph graph = GenerateRandomGraph(go);

  std::vector<PreparedQuery> queries;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RandomPatternOptions po;
    po.num_nodes = 3 + seed % 2;
    po.num_edges = po.num_nodes - 1 + seed % 2;
    po.label_pool = SyntheticLabels(go.num_labels);
    po.dag_only = true;
    po.max_bound = (seed % 2 == 0) ? 3 : 1;
    po.seed = seed;

    PreparedQuery pq;
    pq.pattern = GenerateRandomPattern(po);
    CoveringViewOptions co;
    co.edges_per_view = 2;
    co.num_distractors = 0;
    co.seed = 1000 + seed;
    pq.views = GenerateCoveringViews(pq.pattern, co);
    Result<std::vector<ViewExtension>> exts =
        MaterializeAll(pq.views, *graph.Freeze());
    if (!exts.ok()) {
      std::fprintf(stderr, "materialize failed: %s\n",
                   exts.status().ToString().c_str());
      return 1;
    }
    pq.exts = std::move(exts).value();
    Result<ContainmentMapping> mapping =
        MinimalContainment(pq.pattern, pq.views);
    if (!mapping.ok() || !mapping->contained) {
      std::fprintf(stderr, "covering views do not contain their query\n");
      return 1;
    }
    pq.mapping = std::move(mapping).value();
    queries.push_back(std::move(pq));
  }

  std::printf("graph: %zu nodes, %zu edges; workload: %zu MatchJoin calls "
              "over %zu prepared queries\n\n",
              graph.num_nodes(), graph.num_edges(), num_queries,
              queries.size());

  // Warm both paths (allocator + cache state), then measure in interleaved
  // batches with alternating order: a noisy-neighbor burst on a shared
  // runner lands on both engines roughly equally instead of skewing the
  // gated ratio, and neither engine systematically runs "second".
  PassResult dense, hash;
  {
    PassResult warmup;
    const size_t w = std::min<size_t>(num_queries, 50);
    RunBatch(queries, 0, w, /*dense=*/true, &warmup);
    RunBatch(queries, 0, w, /*dense=*/false, &warmup);
  }
  const size_t kRounds = 10;
  const size_t per_round = (num_queries + kRounds - 1) / kRounds;
  bool dense_first = true;
  for (size_t done = 0; done < num_queries; done += per_round) {
    const size_t n = std::min(per_round, num_queries - done);
    if (dense_first) {
      RunBatch(queries, done, n, /*dense=*/true, &dense);
      RunBatch(queries, done, n, /*dense=*/false, &hash);
    } else {
      RunBatch(queries, done, n, /*dense=*/false, &hash);
      RunBatch(queries, done, n, /*dense=*/true, &dense);
    }
    dense_first = !dense_first;
  }

  if (hash.total_pairs != dense.total_pairs) {
    std::fprintf(stderr,
                 "RESULT MISMATCH: hash pairs=%zu vs dense pairs=%zu\n",
                 hash.total_pairs, dense.total_pairs);
    return 1;
  }

  const double speedup = hash.seconds / std::max(dense.seconds, 1e-9);
  auto report = [](const char* name, const PassResult& p, size_t n) {
    std::printf("%-18s %8.3fs  %9.0f joins/s  visits=%zu initial=%zu "
                "removed=%zu zeroed=%zu ranks=%zu\n",
                name, p.seconds,
                static_cast<double>(n) / std::max(p.seconds, 1e-9),
                p.stats.match_set_visits, p.stats.initial_pairs,
                p.stats.removed_pairs, p.stats.counters_zeroed,
                p.stats.candidate_ranks);
  };
  report("hash (reference):", hash, num_queries);
  report("dense (ranks):", dense, num_queries);
  std::printf("speedup (hash/dense): %6.2fx   result pairs: %zu (passes "
              "agree)\n",
              speedup, dense.total_pairs);

  gpmv::bench::JsonReport jr("fixpoint_microbench");
  jr.Meta("queries", static_cast<double>(num_queries));
  jr.Add("hash", {{"seconds", hash.seconds},
                  {"joins_per_sec", static_cast<double>(num_queries) /
                                        std::max(hash.seconds, 1e-9)}});
  jr.Add("dense", {{"seconds", dense.seconds},
                   {"joins_per_sec", static_cast<double>(num_queries) /
                                         std::max(dense.seconds, 1e-9)},
                   {"speedup", speedup}});
  if (!jr.WriteTo(json_path)) return 1;

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
