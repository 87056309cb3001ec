/// \file update_latency.cc
/// \brief Update-path latency: incremental maintenance of materialized
/// views under insert-only, delete-only and mixed edge-update streams, at
/// several batch sizes — the delta-insert path (simulation/delta.h)
/// head-to-head against per-batch re-materialization (the pre-delta
/// behavior, `EngineOptions::maintenance.enable_delta = false`).
///
///   ./build/bench/update_latency [batches] [--min-speedup X]
///       [--min-bounded-speedup X] [--appliers N] [--min-applier-ratio X]
///       [--json path]
///
/// Two view families run the full matrix: plain simulation views (the
/// original delta path) and bounded views (DeltaBoundedInsert + the merge
/// of pairs and exact distances into the extension's columns). Every (family, stream kind, batch size)
/// configuration generates one update stream and applies the *identical*
/// stream through two engines with the same materialized views; per-batch
/// ApplyUpdates latency gives p50/p99, and edges-applied-per-second gives
/// the throughput rows. After each stream the two engines must answer the
/// view queries identically (the process exits non-zero otherwise), so the
/// bench doubles as an end-to-end equivalence check of both delta paths.
/// `--min-speedup X` gates the aggregate insert-stream speedup of the
/// plain family and `--min-bounded-speedup X` the bounded family (delta vs
/// re-materialize) — the CI smoke runs both at 1.3, under the >=2x the
/// delta delivers on insert-heavy streams (docs/BENCHMARKS.md). The
/// bounded family's delete-stream aggregate (DeltaBoundedDelete against the
/// seeded full refresh) is printed and written as
/// `bounded_delete_aggregate`, report-only. `--json` writes the
/// machine-readable rows (bench_util.h JsonReport).
///
/// A final section measures multi-applier streamed ingestion: the same
/// insert-only op stream pushed through a 1-applier and an N-applier
/// ApplierPool (`--appliers N`, default 2) into otherwise identical
/// engines, quiesced with FlushAndWait. Commits serialize at the MVCC
/// chain head, so N appliers buy concurrent drain/coalesce/validate — not
/// N-fold commit throughput; `--min-applier-ratio X` gates
/// throughput(N)/throughput(1) as a *no-regression* bound (the CI smoke
/// runs 0.9: the pool must not cost more than ~10% on a single producer).
/// Both passes must answer the view queries identically — the bench
/// doubles as a slice-routing equivalence check.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "engine/query_engine.h"
#include "pattern/pattern_builder.h"
#include "stream/applier_pool.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

using namespace gpmv;

namespace {

enum class StreamKind { kInsert, kDelete, kMixed };

const char* StreamName(StreamKind k) {
  switch (k) {
    case StreamKind::kInsert: return "insert";
    case StreamKind::kDelete: return "delete";
    case StreamKind::kMixed: return "mixed";
  }
  return "?";
}

/// Pre-generated update stream: identical batches for both engine configs.
/// Generation walks a shadow copy of the graph so deletions target edges
/// that exist and insertions target edges that do not.
std::vector<std::vector<EdgeUpdate>> MakeStream(const Graph& base,
                                                StreamKind kind,
                                                size_t num_batches,
                                                size_t batch_size,
                                                uint64_t seed) {
  Graph shadow = base;
  Rng rng(seed);
  auto random_new_edge = [&](NodeId* u, NodeId* v) {
    for (int tries = 0; tries < 200; ++tries) {
      *u = static_cast<NodeId>(rng.NextBounded(shadow.num_nodes()));
      *v = static_cast<NodeId>(rng.NextBounded(shadow.num_nodes()));
      if (*u != *v && !shadow.HasEdge(*u, *v)) return true;
    }
    return false;
  };
  auto random_old_edge = [&](NodeId* u, NodeId* v) {
    for (int tries = 0; tries < 200; ++tries) {
      *u = static_cast<NodeId>(rng.NextBounded(shadow.num_nodes()));
      if (shadow.out_degree(*u) == 0) continue;
      *v = shadow.out_neighbors(*u)[rng.NextBounded(shadow.out_degree(*u))];
      return true;
    }
    return false;
  };
  std::vector<std::vector<EdgeUpdate>> stream(num_batches);
  std::vector<NodePair> touched;  // per batch: one op per edge, so the
                                  // in-order shadow equals the engines'
                                  // set-semantics (deletes-first) outcome
  for (auto& batch : stream) {
    touched.clear();
    auto already_touched = [&](NodeId u, NodeId v) {
      for (const NodePair& p : touched) {
        if (p.first == u && p.second == v) return true;
      }
      return false;
    };
    for (size_t i = 0; i < batch_size; ++i) {
      const bool insert = kind == StreamKind::kInsert ||
                          (kind == StreamKind::kMixed && i % 2 == 0);
      NodeId u = 0, v = 0;
      if (insert) {
        if (!random_new_edge(&u, &v) || already_touched(u, v)) continue;
        (void)shadow.AddEdgeIfAbsent(u, v);
        batch.push_back(EdgeUpdate::Insert(u, v));
      } else {
        if (!random_old_edge(&u, &v) || already_touched(u, v)) continue;
        (void)shadow.RemoveEdge(u, v);
        batch.push_back(EdgeUpdate::Delete(u, v));
      }
      touched.emplace_back(u, v);
    }
  }
  return stream;
}

struct PassResult {
  double seconds = 0.0;   ///< total ApplyUpdates wall time
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t edges_applied = 0;
  std::vector<MatchResult> view_answers;  ///< per view pattern: full Q(G)
  obs::MetricsSnapshot metrics;  ///< the engine's registry after the pass
};

std::vector<Pattern> ViewPatterns() {
  // Plain simulation views over the generator's label pool: the shapes the
  // original delta path maintains.
  std::vector<Pattern> views;
  views.push_back(
      PatternBuilder().Node("L0").Node("L1").Edge("L0", "L1").Build());
  views.push_back(PatternBuilder()
                      .Node("L1").Node("L2").Node("L3")
                      .Edge("L1", "L2").Edge("L2", "L3")
                      .Build());
  views.push_back(PatternBuilder()
                      .Node("L4").Node("L5").Node("L6")
                      .Edge("L4", "L5").Edge("L4", "L6")
                      .Build());
  return views;
}

std::vector<Pattern> BoundedViewPatterns() {
  // Bounded views (path bounds 2/3): maintained by DeltaBoundedInsert and
  // the merge into the extension's (pair, distance) columns.
  std::vector<Pattern> views;
  views.push_back(
      PatternBuilder().Node("L0").Node("L1").Edge("L0", "L1", 2).Build());
  views.push_back(PatternBuilder()
                      .Node("L2").Node("L3").Node("L4")
                      .Edge("L2", "L3", 2).Edge("L3", "L4", 3)
                      .Build());
  views.push_back(PatternBuilder()
                      .Node("L5").Node("L6").Node("L7")
                      .Edge("L5", "L6", 3).Edge("L5", "L7", 2)
                      .Build());
  return views;
}

PassResult RunPass(const Graph& base, const std::vector<Pattern>& views,
                   const std::vector<std::vector<EdgeUpdate>>& stream,
                   bool enable_delta) {
  EngineOptions opts;
  opts.pool.num_threads = 1;
  opts.maintenance.enable_delta = enable_delta;
  opts.result_cache.budget_bytes = 0;  // measure maintenance, not memo hits
  QueryEngine engine(base, opts);
  for (size_t i = 0; i < views.size(); ++i) {
    Result<uint32_t> id =
        engine.RegisterView("v" + std::to_string(i), views[i]);
    if (!id.ok()) {
      std::fprintf(stderr, "register failed: %s\n",
                   id.status().ToString().c_str());
      std::exit(1);
    }
  }
  Status warm = engine.WarmViews();
  if (!warm.ok()) {
    std::fprintf(stderr, "warm failed: %s\n", warm.ToString().c_str());
    std::exit(1);
  }

  PassResult out;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(stream.size());
  for (const std::vector<EdgeUpdate>& batch : stream) {
    Stopwatch sw;
    Status st = engine.ApplyUpdates(batch);
    const double ms = sw.ElapsedMillis();
    if (!st.ok()) {
      std::fprintf(stderr, "ApplyUpdates failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    latencies_ms.push_back(ms);
    out.seconds += ms / 1000.0;
    out.edges_applied += batch.size();
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  if (!latencies_ms.empty()) {
    out.p50_ms = latencies_ms[latencies_ms.size() / 2];
    out.p99_ms = latencies_ms[(latencies_ms.size() * 99) / 100];
  }
  // Equivalence probe: the maintained extensions answer the view queries;
  // the caller compares the *full normalized results*, not just counts.
  for (const Pattern& vq : views) {
    QueryResponse resp = engine.Query(vq);
    if (!resp.status.ok()) {
      std::fprintf(stderr, "probe query failed: %s\n",
                   resp.status.ToString().c_str());
      std::exit(1);
    }
    out.view_answers.push_back(std::move(resp.result));
  }
  out.metrics = engine.metrics()->TakeSnapshot();
  return out;
}

/// One stream kind's totals for a view family's aggregate speedup.
struct StreamAggregate {
  double delta_edges = 0.0, delta_secs = 0.0;
  double base_edges = 0.0, base_secs = 0.0;

  double Speedup() const {
    return (delta_edges / std::max(delta_secs, 1e-9)) /
           std::max(base_edges / std::max(base_secs, 1e-9), 1e-9);
  }
};

/// Runs the full (stream kind x batch size) matrix for one view family,
/// printing rows, appending JSON rows under `family`-prefixed labels and
/// accumulating the insert- and (when `delete_agg` is non-null)
/// delete-stream aggregates. Returns false on a delta-vs-rematerialize
/// result mismatch.
bool RunMatrix(const Graph& base, const std::vector<Pattern>& views,
               size_t num_batches, const char* family, bool bounded,
               bench::JsonReport* report, StreamAggregate* insert_agg,
               StreamAggregate* delete_agg, uint64_t* stream_seed) {
  const StreamKind kinds[] = {StreamKind::kInsert, StreamKind::kDelete,
                              StreamKind::kMixed};
  const size_t batch_sizes[] = {1, 16, 128};
  for (StreamKind kind : kinds) {
    for (size_t bs : batch_sizes) {
      const std::vector<std::vector<EdgeUpdate>> stream =
          MakeStream(base, kind, num_batches, bs, (*stream_seed)++);
      PassResult delta = RunPass(base, views, stream, /*enable_delta=*/true);
      PassResult remat = RunPass(base, views, stream, /*enable_delta=*/false);
      bool answers_equal =
          delta.view_answers.size() == remat.view_answers.size();
      for (size_t i = 0; answers_equal && i < delta.view_answers.size(); ++i) {
        answers_equal = delta.view_answers[i] == remat.view_answers[i];
      }
      if (!answers_equal) {
        std::fprintf(stderr,
                     "RESULT MISMATCH (%s%s, batch=%zu): delta-maintained "
                     "views disagree with re-materialized views\n",
                     family, StreamName(kind), bs);
        return false;
      }
      const double delta_ups = static_cast<double>(delta.edges_applied) /
                               std::max(delta.seconds, 1e-9);
      const double remat_ups = static_cast<double>(remat.edges_applied) /
                               std::max(remat.seconds, 1e-9);
      const double speedup = delta_ups / std::max(remat_ups, 1e-9);
      StreamAggregate* agg = kind == StreamKind::kInsert   ? insert_agg
                             : kind == StreamKind::kDelete ? delete_agg
                                                           : nullptr;
      if (agg != nullptr) {
        agg->delta_edges += static_cast<double>(delta.edges_applied);
        agg->delta_secs += delta.seconds;
        agg->base_edges += static_cast<double>(remat.edges_applied);
        agg->base_secs += remat.seconds;
      }
      // The "delta" column counts the refreshes the family's delta path
      // actually served: on delete streams DeltaBoundedDelete (both
      // families), otherwise DeltaBoundedInsert for bounded views.
      const obs::MetricsSnapshot& dm = delta.metrics;
      const obs::MetricsSnapshot& rm = remat.metrics;
      const bool deletes = kind == StreamKind::kDelete;
      const uint64_t delta_count = dm.CounterValue(
          deletes  ? "delta.delete_refreshes"
          : bounded ? "delta.bounded_refreshes"
                    : "delta.refreshes");
      const uint64_t delta_fallbacks = dm.CounterValue(
          deletes ? "delta.delete_fallbacks" : "delta.fallbacks");
      char label[64];
      std::snprintf(label, sizeof(label), "%s%s_b%zu", family,
                    StreamName(kind), bs);
      std::printf("%-20s delta %10.3f %10.3f %10.0f %10llu %10llu %7.2fx\n",
                  label, delta.p50_ms, delta.p99_ms, delta_ups,
                  static_cast<unsigned long long>(delta_count),
                  static_cast<unsigned long long>(delta_fallbacks), speedup);
      std::printf("%-20s remat %10.3f %10.3f %10.0f %10llu %10llu\n", label,
                  remat.p50_ms, remat.p99_ms, remat_ups,
                  static_cast<unsigned long long>(rm.CounterValue(
                      deletes ? "delta.delete_refreshes" : "delta.refreshes")),
                  static_cast<unsigned long long>(rm.CounterValue(
                      deletes ? "delta.delete_fallbacks"
                              : "delta.fallbacks")));
      std::vector<std::pair<std::string, double>> row = {
          {"p50_ms", delta.p50_ms},
          {"p99_ms", delta.p99_ms},
          {"updates_per_sec", delta_ups},
          {"delta_refreshes", static_cast<double>(delta_count)},
          {"fallbacks", static_cast<double>(delta_fallbacks)},
          {"affected_nodes",
           static_cast<double>(dm.CounterValue("delta.affected_nodes"))},
          {"speedup", speedup}};
      if (deletes) {
        row.push_back({"delete_skips", static_cast<double>(dm.CounterValue(
                                           "delta.delete_skips"))});
      }
      if (bounded) {
        row.push_back({"bounded_matches_added",
                       static_cast<double>(
                           dm.CounterValue("delta.bounded_matches_added"))});
      }
      report->Add(std::string(label) + "_delta", row);
      report->Add(std::string(label) + "_rematerialize",
                  {{"p50_ms", remat.p50_ms},
                   {"p99_ms", remat.p99_ms},
                   {"updates_per_sec", remat_ups}});
    }
  }
  return true;
}

/// One streamed-ingestion pass: pushes `ops` through a `num_appliers`-wide
/// ApplierPool into a fresh engine with `views` warm, quiesces, and probes
/// the final view answers (the caller compares passes for equality).
struct ApplierPassResult {
  double seconds = 0.0;  ///< push + FlushAndWait wall time
  size_t ops = 0;
  uint64_t watermark = 0;  ///< published applied_through_ts after quiesce
  std::vector<MatchResult> view_answers;
};

ApplierPassResult RunApplierPass(const Graph& base,
                                 const std::vector<Pattern>& views,
                                 const std::vector<EdgeUpdate>& ops,
                                 size_t num_appliers) {
  EngineOptions opts;
  opts.pool.num_threads = 1;
  opts.result_cache.budget_bytes = 0;
  QueryEngine engine(base, opts);
  for (size_t i = 0; i < views.size(); ++i) {
    Result<uint32_t> id =
        engine.RegisterView("v" + std::to_string(i), views[i]);
    if (!id.ok()) {
      std::fprintf(stderr, "register failed: %s\n",
                   id.status().ToString().c_str());
      std::exit(1);
    }
  }
  Status warm = engine.WarmViews();
  if (!warm.ok()) {
    std::fprintf(stderr, "warm failed: %s\n", warm.ToString().c_str());
    std::exit(1);
  }

  ApplierPassResult out;
  {
    ApplierPoolOptions po;
    po.num_appliers = num_appliers;
    ApplierPool pool(&engine, po);
    Stopwatch sw;
    for (const EdgeUpdate& op : ops) {
      if (pool.Push(op) == 0) {
        std::fprintf(stderr, "applier pool rejected an op\n");
        std::exit(1);
      }
    }
    Status st = pool.FlushAndWait();
    out.seconds = sw.ElapsedSeconds();
    if (!st.ok()) {
      std::fprintf(stderr, "applier pool failed: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
  }
  out.ops = ops.size();
  out.watermark = engine.applied_through_ts();
  for (const Pattern& vq : views) {
    QueryResponse resp = engine.Query(vq);
    if (!resp.status.ok()) {
      std::fprintf(stderr, "probe query failed: %s\n",
                   resp.status.ToString().c_str());
      std::exit(1);
    }
    out.view_answers.push_back(std::move(resp.result));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  double min_speedup = 0.0;
  double min_bounded_speedup = 0.0;
  double min_applier_ratio = 0.0;
  double appliers_flag = 2.0;
  size_t positionals[1] = {120};  // batches per configuration
  if (!bench::TakeJsonFlag(&argc, argv, &json_path) ||
      !bench::TakeMinSpeedupFlag(&argc, argv, &min_speedup) ||
      !bench::TakeDoubleFlag(&argc, argv, "--min-bounded-speedup",
                             &min_bounded_speedup) ||
      !bench::TakeDoubleFlag(&argc, argv, "--appliers", &appliers_flag) ||
      !bench::TakeDoubleFlag(&argc, argv, "--min-applier-ratio",
                             &min_applier_ratio) ||
      !bench::ParsePositionals(
          argc, argv,
          "update_latency [batches] [--min-speedup X] "
          "[--min-bounded-speedup X] [--appliers N] "
          "[--min-applier-ratio X] [--json path]",
          positionals, 1)) {
    return 2;
  }
  const size_t num_appliers = appliers_flag < 1.0
                                  ? 1
                                  : static_cast<size_t>(appliers_flag);
  if (positionals[0] == 0) {
    std::fprintf(stderr, "batches must be > 0\n");
    return 2;
  }
  const size_t num_batches = positionals[0];

  RandomGraphOptions go;
  go.num_nodes = 20000;
  go.num_edges = 60000;
  go.num_labels = 8;
  go.seed = 2026;
  Graph base = GenerateRandomGraph(go);
  const std::vector<Pattern> plain_views = ViewPatterns();
  const std::vector<Pattern> bounded_views = BoundedViewPatterns();

  std::printf("graph: %zu nodes, %zu edges, %zu labels; %zu plain + %zu "
              "bounded views; %zu batches per configuration\n\n",
              base.num_nodes(), base.num_edges(), go.num_labels,
              plain_views.size(), bounded_views.size(), num_batches);
  std::printf("%-25s %10s %10s %10s %10s %10s %8s\n", "stream", "p50(ms)",
              "p99(ms)", "upd/s", "delta", "fallback", "speedup");

  bench::JsonReport report("update_latency");
  report.Meta("graph_nodes", static_cast<double>(base.num_nodes()));
  report.Meta("graph_edges", static_cast<double>(base.num_edges()));
  report.Meta("batches", static_cast<double>(num_batches));

  uint64_t stream_seed = 1;
  StreamAggregate plain_agg;
  if (!RunMatrix(base, plain_views, num_batches, "", /*bounded=*/false,
                 &report, &plain_agg, /*delete_agg=*/nullptr, &stream_seed)) {
    return 1;
  }
  StreamAggregate bounded_agg, bounded_delete_agg;
  if (!RunMatrix(base, bounded_views, num_batches, "bounded_",
                 /*bounded=*/true, &report, &bounded_agg, &bounded_delete_agg,
                 &stream_seed)) {
    return 1;
  }

  const double agg_speedup = plain_agg.Speedup();
  const double bounded_speedup = bounded_agg.Speedup();
  const double bounded_delete_speedup = bounded_delete_agg.Speedup();
  std::printf("\ninsert-stream aggregate speedup (delta vs re-materialize): "
              "plain %.2fx, bounded %.2fx\n",
              agg_speedup, bounded_speedup);
  std::printf("delete-stream aggregate speedup, bounded (report-only): "
              "%.2fx\n",
              bounded_delete_speedup);
  report.Add("insert_aggregate", {{"speedup", agg_speedup}});
  report.Add("bounded_insert_aggregate", {{"speedup", bounded_speedup}});
  report.Add("bounded_delete_aggregate", {{"speedup", bounded_delete_speedup}});

  // Multi-applier ingestion: identical insert-only op stream through a
  // 1-applier and an N-applier pool; final view answers must agree.
  std::vector<EdgeUpdate> pool_ops;
  for (const std::vector<EdgeUpdate>& batch :
       MakeStream(base, StreamKind::kInsert, num_batches, 16,
                  stream_seed++)) {
    pool_ops.insert(pool_ops.end(), batch.begin(), batch.end());
  }
  const ApplierPassResult one =
      RunApplierPass(base, plain_views, pool_ops, 1);
  const ApplierPassResult multi =
      RunApplierPass(base, plain_views, pool_ops, num_appliers);
  bool pool_equal = one.view_answers.size() == multi.view_answers.size() &&
                    one.watermark == multi.watermark;
  for (size_t i = 0; pool_equal && i < one.view_answers.size(); ++i) {
    pool_equal = one.view_answers[i] == multi.view_answers[i];
  }
  if (!pool_equal) {
    std::fprintf(stderr,
                 "RESULT MISMATCH: %zu-applier pool disagrees with the "
                 "1-applier pool on the same op stream\n",
                 num_appliers);
    return 1;
  }
  const double one_ups =
      static_cast<double>(one.ops) / std::max(one.seconds, 1e-9);
  const double multi_ups =
      static_cast<double>(multi.ops) / std::max(multi.seconds, 1e-9);
  const double applier_ratio = multi_ups / std::max(one_ups, 1e-9);
  std::printf("applier pool: %zu ops, 1 applier %.0f ops/s, %zu appliers "
              "%.0f ops/s (ratio %.2fx), watermark %llu\n",
              pool_ops.size(), one_ups, num_appliers, multi_ups,
              applier_ratio,
              static_cast<unsigned long long>(multi.watermark));
  report.Add("appliers_1", {{"updates_per_sec", one_ups},
                            {"ops", static_cast<double>(one.ops)}});
  report.Add("appliers_n", {{"updates_per_sec", multi_ups},
                            {"ops", static_cast<double>(multi.ops)},
                            {"appliers", static_cast<double>(num_appliers)},
                            {"ratio", applier_ratio}});
  if (!report.WriteTo(json_path)) return 1;

  if (min_speedup > 0.0 && agg_speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: insert speedup %.2fx below required %.2fx\n",
                 agg_speedup, min_speedup);
    return 1;
  }
  if (min_bounded_speedup > 0.0 && bounded_speedup < min_bounded_speedup) {
    std::fprintf(stderr,
                 "FAIL: bounded insert speedup %.2fx below required %.2fx\n",
                 bounded_speedup, min_bounded_speedup);
    return 1;
  }
  if (min_applier_ratio > 0.0 && applier_ratio < min_applier_ratio) {
    std::fprintf(stderr,
                 "FAIL: %zu-applier throughput ratio %.2fx below required "
                 "%.2fx\n",
                 num_appliers, applier_ratio, min_applier_ratio);
    return 1;
  }
  return 0;
}
