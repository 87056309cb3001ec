/// \file gpmv_cli.cpp
/// \brief Command-line front end for the library.
///
/// Usage:
///   gpmv_cli gen <amazon|citation|youtube|random> <num_nodes> <seed> <out.graph>
///   gpmv_cli stats <graph>
///   gpmv_cli match <graph> <pattern> [--dual]
///   gpmv_cli contain <pattern> <views>
///   gpmv_cli materialize <graph> <views>
///   gpmv_cli answer <graph> <pattern> <views> [--minimal|--minimum] [--check]
///   gpmv_cli rewrite <graph> <pattern> <views>
///   gpmv_cli serve <graph> <queries> [--views <views>] [--threads N]
///                  [--cache-mb M] [--result-cache-mb M] [--warm]
///                  [--advise K] [--updates <file>] [--no-delta]
///                  [--stream <file>] [--stream-rate N] [--max-lag-ms M]
///                  [--appliers N] [--as-of T]
///                  [--metrics-out <file>] [--metrics-interval-ms N]
///                  [--prom-out <file>] [--trace] [--no-metrics]
///                  [--slow-query-ms M] [--slow-query-log <file>]
///   gpmv_cli serve <graph> --port N [--appliers N] [...same tuning flags]
///
/// Every subcommand checks its arguments against its own flag table
/// (Commands()): an unknown or misspelt flag, a flag missing its value, or a
/// stray positional exits 2 with the usage text.
///
/// Graphs use the graph_io.h text format; patterns pattern_io.h; view sets
/// view_io.h. `serve` runs a query file (view-set format: `view <name>`
/// headers separating patterns) through the concurrent view-cache engine
/// (engine/query_engine.h); an optional updates file holds lines
/// `+ <u> <v>` / `- <u> <v>` applied as one maintenance batch halfway
/// through the stream — deletions refresh cached extensions decrementally
/// and insertions run the localized delta-simulation path (`--no-delta`
/// forces per-batch re-materialization instead). `--result-cache-mb` sizes
/// the full-result memo in front of the view cache (0 disables it). Every
/// graph-walking plan runs one fixpoint on the engine's frozen snapshot.
///
/// `--stream <file>` ingests the same update-file format *concurrently*
/// with the queries instead of as one stop-the-world batch: a producer
/// thread pushes the ops through an ApplierPool (stream/applier_pool.h),
/// whose background applier drains them into adaptive micro-batches, so
/// queries keep executing while edges land.
/// `--stream-rate N` paces the producer at N ops/sec (0 = full speed);
/// `--max-lag-ms M` bounds the applier's adaptive batching (an apply
/// slower than M halves the next micro-batch). The run quiesces with
/// FlushAndWait before the final report; the stream counters (ingested/
/// coalesced ops, micro-batches, queue depth, publish lag, applied-through
/// watermark) are the `stream.*` rows of the summary table.
/// `--appliers N` (default 1) widens the pool to N concurrent appliers over
/// N disjoint edge-hash slices, commits serializing only at the MVCC chain
/// head; with N > 1 the quiesce line is followed by per-slice routing.
///
/// Time travel: `--as-of T` runs every query `AS OF` stream timestamp T —
/// each pins the newest retained prefix-consistent cut with watermark <= T
/// from the engine's MVCC snapshot chain (graph/mvcc.h) and evaluates
/// directly on that frozen graph (views reflect only the head, so
/// historical plans are always direct). A query can override per-query with an
/// `@asof<ts>` name suffix in the query file (`view q3@asof17`); suffixed
/// names win over the global flag. AS OF misses (T predates the retained
/// window) report as FAIL/NotFound per query, not a serve error.
///
/// Observability (src/obs/): `--metrics-out <file>` starts a background
/// exporter emitting one JSON-lines registry snapshot every
/// `--metrics-interval-ms` (default 1000) plus a final one at exit —
/// schema-checked by tools/check_metrics_schema.py. `--prom-out <file>`
/// writes a final Prometheus-text-format snapshot. `--trace` attaches the
/// per-query span tree and prints each query's trace id.
/// `--slow-query-ms M` logs any query slower than M as a JSON line with
/// its full span tree — to `--slow-query-log <file>`, or stderr when no
/// file is given. `--no-metrics` disables the registry entirely (the
/// bench overhead-gate baseline) and conflicts with the flags above.
/// serve ends with a `N queries in Xs` headline counted from the responses
/// and the registry summary table — printed always: under `--no-metrics`
/// the engine's counters stay at zero, but the collector gauges (cache.*,
/// result_cache.*, pool.*, mvcc.*) are read live.
///
/// Network serving: `serve <graph> --port N` binds a TCP socket instead of
/// running a query file — the `<queries>` positional is dropped and clients
/// speak the length-prefixed binary protocol (net/protocol.h) against the
/// epoll server (net/server.h): query/update/stats frames multiplexed onto
/// the engine's worker pool and an ApplierPool of `--appliers` ingest
/// slices. `--updates`/`--stream` are file-driven and therefore mutually
/// exclusive with `--port`; everything else (views, warm, metrics,
/// fault spec) composes. Port 0 binds an ephemeral port; the bound port is
/// printed as `listening on port N` (stdout, flushed) — the loadgen and CI
/// smoke wait for that line. The server exits cleanly on a kShutdown frame
/// (bench/net_loadgen --shutdown), SIGINT, or SIGTERM.
///
/// `stats --json <path>` additionally dumps the graph statistics plus a
/// fresh engine metrics-registry snapshot through bench_util.h's
/// JsonReport (same shape as the bench artifacts).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench_util.h"
#include "common/fault.h"
#include "common/parse_num.h"
#include "common/stopwatch.h"
#include "net/server.h"
#include "engine/query_engine.h"
#include "obs/exporter.h"
#include "stream/applier_pool.h"
#include "stream/update_stream.h"
#include "core/containment.h"
#include "core/match_join.h"
#include "core/rewriting.h"
#include "core/view.h"
#include "core/view_io.h"
#include "graph/graph_io.h"
#include "graph/snapshot.h"
#include "graph/statistics.h"
#include "pattern/pattern_io.h"
#include "simulation/bounded.h"
#include "simulation/dual.h"
#include "workload/datasets.h"
#include "workload/graph_gen.h"

namespace gpmv {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gpmv_cli gen <amazon|citation|youtube|random> <n> <seed> <out>\n"
      "  gpmv_cli stats <graph> [--json <path>]\n"
      "  gpmv_cli match <graph> <pattern> [--dual]\n"
      "  gpmv_cli contain <pattern> <views>\n"
      "  gpmv_cli materialize <graph> <views>\n"
      "  gpmv_cli answer <graph> <pattern> <views> [--minimal|--minimum] "
      "[--check]\n"
      "  gpmv_cli rewrite <graph> <pattern> <views>\n"
      "  gpmv_cli serve <graph> <queries> [--views <views>] [--threads N]\n"
      "                 [--cache-mb M] [--result-cache-mb M] [--warm]\n"
      "                 [--advise K] [--updates <file>] [--no-delta]\n"
      "                 [--stream <file>] [--stream-rate N] "
      "[--max-lag-ms M]\n"
      "                 [--appliers N] [--as-of T]\n"
      "                 [--metrics-out <file>] [--metrics-interval-ms N]\n"
      "                 [--prom-out <file>] [--trace] [--no-metrics]\n"
      "                 [--slow-query-ms M] [--slow-query-log <file>]\n"
      "                 [--fault-spec <points>]\n"
      "  gpmv_cli serve <graph> --port N   # socket serving: no <queries>\n"
      "                 [--appliers N] [... same tuning flags; --updates/\n"
      "                 --stream are file-driven and excluded]\n");
  return 2;
}

/// A subcommand's arguments, split by its flag table (see Commands()):
/// the leading positionals, then `--switch` and `--flag <value>` entries
/// (switches map to an empty value; the first occurrence of a flag wins).
struct Args {
  std::vector<std::string> pos;
  std::map<std::string, std::string> flags;

  bool Has(const char* flag) const { return flags.count(flag) != 0; }
  /// Value of `--flag <value>`; `def` when absent.
  std::string Value(const char* flag, const std::string& def = "") const {
    auto it = flags.find(flag);
    return it == flags.end() ? def : it->second;
  }
};

/// Numeric `--flag <value>`; false (with a message) on a malformed value
/// or one above `max` (common/parse_num.h — strtoull would silently wrap a
/// leading minus and saturate overflow).
bool NumericFlag(const Args& args, const char* flag, size_t def, size_t* out,
                 size_t max = std::numeric_limits<size_t>::max()) {
  std::string v = args.Value(flag);
  if (v.empty()) {
    *out = def;
    return true;
  }
  uint64_t parsed = 0;
  if (!ParseUnsigned(v, &parsed, max)) {
    std::fprintf(stderr,
                 "error: %s expects a non-negative number <= %zu, got '%s'\n",
                 flag, max, v.c_str());
    return false;
  }
  *out = static_cast<size_t>(parsed);
  return true;
}

template <typename T>
bool Load(Result<T> r, const char* what, T* out) {
  if (!r.ok()) {
    std::fprintf(stderr, "error loading %s: %s\n", what,
                 r.status().ToString().c_str());
    return false;
  }
  *out = std::move(r).value();
  return true;
}

int CmdGen(const Args& args) {
  const std::string& kind = args.pos[0];
  // Checked parse: raw std::stoull here aborted the whole process on
  // `gen random abc ...` (uncaught std::invalid_argument).
  uint64_t n64 = 0, seed = 0;
  if (!ParseUnsigned(args.pos[1], &n64, std::numeric_limits<size_t>::max()) ||
      !ParseUnsigned(args.pos[2], &seed)) {
    std::fprintf(stderr,
                 "error: <n> and <seed> must be non-negative numbers, got "
                 "'%s' '%s'\n",
                 args.pos[1].c_str(), args.pos[2].c_str());
    return Usage();
  }
  const size_t n = static_cast<size_t>(n64);
  Graph g;
  if (kind == "amazon") {
    g = GenerateAmazonLike(n, seed);
  } else if (kind == "citation") {
    g = GenerateCitationLike(n, seed);
  } else if (kind == "youtube") {
    g = GenerateYoutubeLike(n, seed);
  } else if (kind == "random") {
    RandomGraphOptions opts;
    opts.num_nodes = n;
    opts.num_edges = 2 * n;
    opts.seed = seed;
    g = GenerateRandomGraph(opts);
  } else {
    return Usage();
  }
  Status st = WriteGraphFile(g, args.pos[3]);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu nodes, %zu edges to %s\n", g.num_nodes(),
              g.num_edges(), args.pos[3].c_str());
  return 0;
}

int CmdStats(const Args& args) {
  Graph g;
  if (!Load(ReadGraphFile(args.pos[0]), "graph", &g)) return 1;

  // Freeze once and report from the CSR snapshot — the same structure the
  // engine serves queries from — plus the freeze cost itself.
  Stopwatch sw;
  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  const double freeze_ms = sw.ElapsedMillis();
  const GraphStatistics gs = ComputeStatistics(*snap);
  std::printf("%s", gs.ToString().c_str());
  std::printf(
      "snapshot: version %llu, built in %.2f ms, CSR footprint ~%zu KiB\n",
      static_cast<unsigned long long>(snap->version()), freeze_ms,
      snap->ApproxBytes() / 1024);

  // Demonstrate the delta-aware re-freeze on a single edge touch (only
  // possible when some edge exists to remove and re-add).
  if (g.num_edges() > 0) {
    NodeId u = 0;
    while (g.out_degree(u) == 0) ++u;
    NodeId v = g.out_neighbors(u)[0];
    (void)g.RemoveEdge(u, v);
    (void)g.AddEdge(u, v);
    sw.Restart();
    std::shared_ptr<const GraphSnapshot> refrozen = g.Freeze();
    std::printf(
        "incremental re-freeze after 1-edge touch: %.2f ms (node section "
        "shared: %s)\n",
        sw.ElapsedMillis(),
        refrozen->SharesNodeSection(*snap) ? "yes" : "no");
  }

  // --json: the graph shape plus a fresh engine's metrics-registry
  // snapshot (collector gauges included), in the same JsonReport shape
  // the bench artifacts use, so downstream tooling parses one format.
  const std::string json_path = args.Value("--json");
  if (!json_path.empty()) {
    EngineOptions eopts;
    eopts.pool.num_threads = 1;
    QueryEngine engine(std::move(g), eopts);
    const obs::MetricsSnapshot ms = engine.metrics()->TakeSnapshot();
    bench::JsonReport report("gpmv_stats");
    report.Meta("graph", args.pos[0]);
    report.Meta("freeze_ms", freeze_ms);
    report.Add("graph", {{"nodes", static_cast<double>(gs.num_nodes)},
                         {"edges", static_cast<double>(gs.num_edges)},
                         {"avg_out_degree", gs.avg_out_degree},
                         {"max_out_degree",
                          static_cast<double>(gs.max_out_degree)},
                         {"max_in_degree",
                          static_cast<double>(gs.max_in_degree)},
                         {"source_nodes",
                          static_cast<double>(gs.source_nodes)},
                         {"sink_nodes", static_cast<double>(gs.sink_nodes)},
                         {"self_loops", static_cast<double>(gs.self_loops)},
                         {"snapshot_bytes",
                          static_cast<double>(snap->ApproxBytes())}});
    for (const auto& [name, value] : ms.counters) {
      report.Add("counter." + name,
                 {{"value", static_cast<double>(value)}});
    }
    for (const auto& [name, value] : ms.gauges) {
      report.Add("gauge." + name, {{"value", value}});
    }
    for (const obs::HistogramSnapshot& h : ms.histograms) {
      report.Add("hist." + h.name,
                 {{"count", static_cast<double>(h.count)},
                  {"sum", static_cast<double>(h.sum)},
                  {"avg", h.Average()},
                  {"p50", h.Quantile(0.50)},
                  {"p95", h.Quantile(0.95)},
                  {"p99", h.Quantile(0.99)}});
    }
    if (!report.WriteTo(json_path)) return 1;
  }
  return 0;
}

int CmdMatch(const Args& args) {
  Graph g;
  Pattern q;
  if (!Load(ReadGraphFile(args.pos[0]), "graph", &g)) return 1;
  if (!Load(ReadPatternFile(args.pos[1]), "pattern", &q)) return 1;
  Stopwatch sw;
  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  Result<MatchResult> r = args.Has("--dual")
                              ? MatchDualSimulation(q, *snap)
                              : MatchBoundedSimulation(q, *snap);
  if (!r.ok()) {
    std::fprintf(stderr, "match failed: %s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("matched: %s  total pairs: %zu  time: %.1f ms\n",
              r->matched() ? "yes" : "no", r->TotalMatches(),
              sw.ElapsedMillis());
  if (r->matched() && r->TotalMatches() <= 50) {
    std::printf("%s", r->ToString(q, g).c_str());
  }
  return 0;
}

int CmdContain(const Args& args) {
  Pattern q;
  ViewSet views;
  if (!Load(ReadPatternFile(args.pos[0]), "pattern", &q)) return 1;
  if (!Load(ReadViewSetFile(args.pos[1]), "views", &views)) return 1;

  auto report = [&](const char* name, const ContainmentMapping& m) {
    std::printf("%-8s: %s", name, m.contained ? "contained via {" : "not contained");
    if (m.contained) {
      for (size_t i = 0; i < m.selected.size(); ++i) {
        std::printf("%s%s", i ? ", " : "",
                    views.view(m.selected[i]).name.c_str());
      }
      std::printf("}");
    }
    std::printf("\n");
  };
  report("contain", std::move(CheckContainment(q, views)).value());
  report("minimal", std::move(MinimalContainment(q, views)).value());
  report("minimum", std::move(MinimumContainment(q, views)).value());
  return 0;
}

int CmdMaterialize(const Args& args) {
  Graph g;
  ViewSet views;
  if (!Load(ReadGraphFile(args.pos[0]), "graph", &g)) return 1;
  if (!Load(ReadViewSetFile(args.pos[1]), "views", &views)) return 1;
  Stopwatch sw;
  auto exts = MaterializeAll(views, *g.Freeze());
  if (!exts.ok()) {
    std::fprintf(stderr, "%s\n", exts.status().ToString().c_str());
    return 1;
  }
  std::printf("materialized %zu views in %.1f ms\n", views.card(),
              sw.ElapsedMillis());
  size_t bytes = 0;
  for (size_t i = 0; i < views.card(); ++i) {
    std::printf("  %-16s matched=%d pairs=%zu\n", views.view(i).name.c_str(),
                (*exts)[i].matched() ? 1 : 0, (*exts)[i].TotalPairs());
    bytes += (*exts)[i].ApproxBytes();
  }
  std::printf("total pairs: %zu (~%zu KiB), %.1f%% of |E|\n",
              TotalExtensionPairs(*exts), bytes / 1024,
              g.num_edges() == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(TotalExtensionPairs(*exts)) /
                        static_cast<double>(g.num_edges()));
  return 0;
}

int CmdAnswer(const Args& args) {
  Graph g;
  Pattern q;
  ViewSet views;
  if (!Load(ReadGraphFile(args.pos[0]), "graph", &g)) return 1;
  if (!Load(ReadPatternFile(args.pos[1]), "pattern", &q)) return 1;
  if (!Load(ReadViewSetFile(args.pos[2]), "views", &views)) return 1;

  Result<ContainmentMapping> mapping =
      args.Has("--minimal")   ? MinimalContainment(q, views)
      : args.Has("--minimum") ? MinimumContainment(q, views)
                                   : CheckContainment(q, views);
  if (!mapping.ok() || !mapping->contained) {
    std::printf("query is not contained in the views; try 'rewrite'\n");
    return 1;
  }
  Stopwatch sw;
  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  auto exts = MaterializeAll(views, *snap);
  if (!exts.ok()) {
    std::fprintf(stderr, "%s\n", exts.status().ToString().c_str());
    return 1;
  }
  double t_mat = sw.ElapsedMillis();
  sw.Restart();
  Result<MatchResult> r = MatchJoin(q, views, *exts, *mapping);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("materialize: %.1f ms   MatchJoin: %.1f ms   views used: %zu\n",
              t_mat, sw.ElapsedMillis(), mapping->selected.size());
  std::printf("matched: %s  total pairs: %zu\n", r->matched() ? "yes" : "no",
              r->TotalMatches());
  if (args.Has("--check")) {
    Result<MatchResult> direct = MatchBoundedSimulation(q, *snap);
    bool same = direct.ok() && *direct == *r;
    std::printf("direct evaluation check: %s\n", same ? "IDENTICAL" : "MISMATCH");
    return same ? 0 : 1;
  }
  return 0;
}

int CmdRewrite(const Args& args) {
  Graph g;
  Pattern q;
  ViewSet views;
  if (!Load(ReadGraphFile(args.pos[0]), "graph", &g)) return 1;
  if (!Load(ReadPatternFile(args.pos[1]), "pattern", &q)) return 1;
  if (!Load(ReadViewSetFile(args.pos[2]), "views", &views)) return 1;

  auto exts = MaterializeAll(views, *g.Freeze());
  if (!exts.ok()) {
    std::fprintf(stderr, "%s\n", exts.status().ToString().c_str());
    return 1;
  }
  Result<PartialAnswer> pa = MaximallyContainedRewriting(q, views, *exts);
  if (!pa.ok()) {
    std::fprintf(stderr, "%s\n", pa.status().ToString().c_str());
    return 1;
  }
  std::printf("exact: %s   covered edges: %zu/%zu\n",
              pa->exact ? "yes" : "no", pa->covered_edges.size(),
              q.num_edges());
  for (uint32_t e : pa->uncovered_edges) {
    const PatternEdge& pe = q.edge(e);
    std::printf("  uncovered: %s -> %s\n", q.node(pe.src).name.c_str(),
                q.node(pe.dst).name.c_str());
  }
  std::printf("partial answer pairs: %zu\n", pa->result.TotalMatches());
  return 0;
}

/// Parses an updates file: one `+ <u> <v>` or `- <u> <v>` per line,
/// '#' comments and blank lines skipped.
Result<std::vector<EdgeUpdate>> ReadUpdatesFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::vector<EdgeUpdate> updates;
  std::string op;
  while (in >> op) {
    if (op[0] == '#') {
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    unsigned long long u = 0, v = 0;
    if (!(in >> u >> v) || (op != "+" && op != "-")) {
      return Status::Corruption("bad update line in " + path);
    }
    if (u > std::numeric_limits<NodeId>::max() ||
        v > std::numeric_limits<NodeId>::max()) {
      return Status::Corruption("node id out of range in " + path);
    }
    updates.push_back(op == "+"
                          ? EdgeUpdate::Insert(static_cast<NodeId>(u),
                                               static_cast<NodeId>(v))
                          : EdgeUpdate::Delete(static_cast<NodeId>(u),
                                               static_cast<NodeId>(v)));
  }
  return updates;
}

/// Optional `@asof<ts>` suffix of a query name ("q3@asof17" -> 17); 0 when
/// absent or malformed (names with literal '@asof' but no digits fall back
/// to the global --as-of).
uint64_t ParseAsOfSuffix(const std::string& name) {
  const size_t pos = name.rfind("@asof");
  if (pos == std::string::npos) return 0;
  uint64_t ts = 0;
  if (!ParseUnsigned(name.substr(pos + 5), &ts)) return 0;
  return ts;
}

/// SIGINT/SIGTERM during `serve --port` request a clean server wind-down
/// (drain + flush + close) instead of killing the process mid-write.
/// Server::RequestStop is an atomic store plus an eventfd write — both
/// async-signal-safe.
std::atomic<net::Server*> g_signal_server{nullptr};

void HandleServeSignal(int /*signum*/) {
  net::Server* s = g_signal_server.load(std::memory_order_acquire);
  if (s != nullptr) s->RequestStop();
}

/// serve's closing lines, shared by the file-driven and the socket run:
/// the fault-injection fire count, where the metrics artifacts went, and
/// the registry summary table. The table prints under --no-metrics too —
/// the engine's own counters stay at zero there, but the collector gauges
/// (cache.*, result_cache.*, pool.*, mvcc.*) are read live. False when the
/// Prometheus file cannot be written.
bool ReportServeEnd(const obs::MetricsSnapshot& m, const FaultInjector& fault,
                    const std::string& fault_spec,
                    const obs::MetricsExporter* exporter,
                    const std::string& metrics_out,
                    const std::string& prom_out) {
  if (!fault_spec.empty()) {
    std::printf("-- fault injection: %llu fire(s) from spec '%s'\n",
                static_cast<unsigned long long>(fault.total_fired()),
                fault_spec.c_str());
  }
  if (exporter != nullptr) {
    std::printf("-- metrics: %zu snapshot(s) written to %s\n",
                exporter->snapshots_written(), metrics_out.c_str());
  }
  if (!prom_out.empty()) {
    if (!obs::WritePrometheusText(m, prom_out)) return false;
    std::printf("-- prometheus snapshot written to %s\n", prom_out.c_str());
  }
  std::printf("\n");
  obs::PrintSummaryTable(stdout, m);
  return true;
}

int CmdServe(const Args& args) {
#ifdef __GLIBC__
  // glibc gives every allocating thread its own malloc arena (up to eight
  // per core), each keeping its own free lists and top slack, so a server
  // whose query workers, event loop and appliers allocate concurrently
  // grows its resident set with its throughput rather than its data.
  // Three arenas bound that growth while keeping the query workers, the
  // event loop and the applier from queueing on one arena lock.
  mallopt(M_ARENA_MAX, 3);
#endif
  // In `--port` mode there is no <queries> positional (clients send queries
  // over the socket).
  const bool has_queries = args.pos.size() == 2;
  size_t port = 0;
  if (!NumericFlag(args, "--port", 0, &port)) return Usage();
  if (port > 65535) {
    std::fprintf(stderr, "error: --port expects a TCP port (<= 65535)\n");
    return 1;
  }
  if (port == 0 && !has_queries) return Usage();
  if (port > 0 && has_queries) {
    std::fprintf(stderr,
                 "error: --port serves queries over the socket; drop the "
                 "<queries> positional\n");
    return 1;
  }

  Graph g;
  ViewSet queries;
  if (!Load(ReadGraphFile(args.pos[0]), "graph", &g)) return 1;
  if (has_queries && !Load(ReadViewSetFile(args.pos[1]), "queries", &queries)) {
    return 1;
  }

  EngineOptions opts;
  // Budgets are given in MiB and shifted into bytes: anything larger would
  // wrap the shift (2^44 MiB << 20 is 0 with a 64-bit size_t).
  constexpr size_t kMaxBudgetMb = std::numeric_limits<size_t>::max() >> 20;
  size_t threads = 0, cache_mb = 0, result_cache_mb = 0, advise = 0;
  if (!NumericFlag(args, "--threads", 0, &threads) ||
      !NumericFlag(args, "--cache-mb", 64, &cache_mb, kMaxBudgetMb) ||
      !NumericFlag(args, "--result-cache-mb", 8, &result_cache_mb,
                   kMaxBudgetMb) ||
      !NumericFlag(args, "--advise", 0, &advise)) {
    return Usage();
  }
  opts.pool.num_threads = threads;
  if (port > 0) {
    // The event loop must never block on a saturated worker pool — shed
    // admission fast-fails the submit and the client gets an error frame.
    opts.pool.shed_when_saturated = true;
  }
  opts.cache.budget_bytes = cache_mb << 20;
  opts.result_cache.budget_bytes = result_cache_mb << 20;
  opts.maintenance.enable_delta = !args.Has("--no-delta");

  size_t metrics_interval_ms = 0, slow_query_ms = 0;
  if (!NumericFlag(args, "--metrics-interval-ms", 1000,
                   &metrics_interval_ms) ||
      !NumericFlag(args, "--slow-query-ms", 0, &slow_query_ms)) {
    return Usage();
  }
  const std::string metrics_out = args.Value("--metrics-out");
  const std::string prom_out = args.Value("--prom-out");
  const bool trace = args.Has("--trace");
  opts.obs.enabled = !args.Has("--no-metrics");
  if (!opts.obs.enabled &&
      (trace || !metrics_out.empty() || !prom_out.empty() ||
       slow_query_ms > 0)) {
    std::fprintf(stderr,
                 "error: --no-metrics conflicts with --trace/--metrics-out/"
                 "--prom-out/--slow-query-ms\n");
    return 1;
  }
  opts.obs.trace = trace;
  opts.obs.slow_query_ms = static_cast<double>(slow_query_ms);
  opts.obs.slow_query_path = args.Value("--slow-query-log");
  if (slow_query_ms > 0 && opts.obs.slow_query_path.empty()) {
    // No file given: slow-query JSON lines go to stderr.
    opts.obs.slow_query_sink = [](const std::string& line) {
      std::fprintf(stderr, "%s\n", line.c_str());
    };
  }

  // Manual chaos runs: `--fault-spec "stream.apply@3;exporter.write%0.5"`
  // arms the named fault points (grammar in common/fault.h; the catalog is
  // docs/ROBUSTNESS.md) for the whole serve run — engine apply/query paths
  // and the metrics exporter alike. Declared before the engine so every
  // consumer outlives nothing.
  FaultInjector fault;
  const std::string fault_spec = args.Value("--fault-spec");
  if (!fault_spec.empty()) {
    Status st = fault.ArmFromSpec(fault_spec);
    if (!st.ok()) {
      std::fprintf(stderr, "error: --fault-spec: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    opts.fault = &fault;
  }

  QueryEngine engine(std::move(g), opts);

  // The exporter starts before warmup so its first snapshots cover view
  // materialization too; its destructor stops it on every early return.
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (!metrics_out.empty()) {
    obs::MetricsExporter::Options eo;
    eo.path = metrics_out;
    eo.interval_ms = metrics_interval_ms;
    eo.fault = opts.fault;
    exporter = std::make_unique<obs::MetricsExporter>(engine.metrics(), eo);
    if (!exporter->ok()) return 1;
  }

  const std::string views_path = args.Value("--views");
  if (!views_path.empty()) {
    ViewSet views;
    if (!Load(ReadViewSetFile(views_path), "views", &views)) return 1;
    for (const ViewDefinition& def : views.views()) {
      Result<uint32_t> id = engine.RegisterView(def.name, def.pattern);
      if (!id.ok()) {
        std::fprintf(stderr, "register %s: %s\n", def.name.c_str(),
                     id.status().ToString().c_str());
        return 1;
      }
    }
  }
  if (args.Has("--warm")) {
    Status st = engine.WarmViews();
    if (!st.ok()) {
      std::fprintf(stderr, "warmup: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::vector<EdgeUpdate> updates;
  const std::string updates_path = args.Value("--updates");
  if (!updates_path.empty()) {
    Result<std::vector<EdgeUpdate>> up = ReadUpdatesFile(updates_path);
    if (!Load(std::move(up), "updates", &updates)) return 1;
  }

  std::vector<EdgeUpdate> stream_ops;
  const std::string stream_path = args.Value("--stream");
  size_t stream_rate = 0, max_lag_ms = 0, appliers = 0, as_of = 0;
  if (!NumericFlag(args, "--stream-rate", 0, &stream_rate) ||
      !NumericFlag(args, "--max-lag-ms", 20, &max_lag_ms) ||
      !NumericFlag(args, "--appliers", 1, &appliers) ||
      !NumericFlag(args, "--as-of", 0, &as_of)) {
    return Usage();
  }
  if (appliers > 1 && stream_path.empty() && port == 0) {
    std::fprintf(stderr, "error: --appliers requires --stream or --port\n");
    return 1;
  }
  if (port > 0 && (!updates_path.empty() || !stream_path.empty())) {
    std::fprintf(stderr,
                 "error: --updates/--stream are file-driven and mutually "
                 "exclusive with --port (clients send update frames)\n");
    return 1;
  }
  if (!stream_path.empty()) {
    if (!updates_path.empty()) {
      std::fprintf(stderr,
                   "error: --updates and --stream are mutually exclusive\n");
      return 1;
    }
    Result<std::vector<EdgeUpdate>> up = ReadUpdatesFile(stream_path);
    if (!Load(std::move(up), "stream", &stream_ops)) return 1;
  }

  if (port > 0) {
    // Socket serving: the epoll server multiplexes client connections onto
    // the engine (queries) and an ApplierPool (updates, admission-
    // controlled per connection).
    ApplierPoolOptions po;
    po.num_appliers = appliers;
    po.max_lag_ms = static_cast<double>(max_lag_ms);
    ApplierPool net_pool(&engine, po);

    net::ServerOptions so;
    so.port = static_cast<uint16_t>(port);
    so.fault = opts.fault;
    net::Server server(&engine, &net_pool, so);
    Status st = server.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("serving %zu nodes / %zu edges, %zu views, %zu workers, "
                "%zu ingest slices\n",
                engine.num_graph_nodes(), engine.num_graph_edges(),
                engine.num_views(), engine.num_worker_threads(),
                net_pool.num_appliers());
    // The loadgen and the CI smoke job wait for this exact line (flushed —
    // they read through a pipe) before connecting.
    std::printf("listening on port %u\n", server.port());
    std::fflush(stdout);
    g_signal_server.store(&server, std::memory_order_release);
    std::signal(SIGINT, HandleServeSignal);
    std::signal(SIGTERM, HandleServeSignal);
    server.Run();
    g_signal_server.store(nullptr, std::memory_order_release);
    Status flush_st = net_pool.FlushAndWait();
    (void)net_pool.Stop();

    // The exporter's final snapshot lands first, so its artifact, the
    // Prometheus file and the summary table all agree.
    if (exporter) exporter->Stop();
    const obs::MetricsSnapshot m = engine.metrics()->TakeSnapshot();
    std::printf("-- net serve done: conns=%llu queries=%llu shed=%llu "
                "applied_through=%llu flush=%s\n",
                static_cast<unsigned long long>(
                    server.connections_accepted()),
                static_cast<unsigned long long>(
                    m.CounterValue("engine.queries")),
                static_cast<unsigned long long>(
                    m.CounterValue("engine.shed_queries")),
                static_cast<unsigned long long>(engine.applied_through_ts()),
                flush_st.ok() ? "ok" : flush_st.ToString().c_str());
    if (!ReportServeEnd(m, fault, fault_spec, exporter.get(), metrics_out,
                        prom_out)) {
      return 1;
    }
    return flush_st.ok() ? 0 : 1;
  }

  std::printf("serving %zu queries on %zu nodes / %zu edges, %zu views, "
              "%zu workers\n",
              queries.card(), engine.num_graph_nodes(),
              engine.num_graph_edges(), engine.num_views(),
              engine.num_worker_threads());
  Stopwatch wall;

  // Concurrent streamed ingestion: producer thread pushes the op file
  // through the bounded queue (optionally paced) while the query loop
  // below submits; the applier drains micro-batches in the background.
  std::unique_ptr<ApplierPool> pool;
  std::thread producer;
  if (!stream_ops.empty()) {
    // N appliers over N edge-hash slices (N = 1 by default), all fed
    // through the pool's global ticket source.
    ApplierPoolOptions po;
    po.num_appliers = appliers;
    po.max_lag_ms = static_cast<double>(max_lag_ms);
    pool = std::make_unique<ApplierPool>(&engine, po);
    producer = std::thread([&pool, &stream_ops, stream_rate] {
      using clock = std::chrono::steady_clock;
      const clock::time_point start = clock::now();
      for (size_t i = 0; i < stream_ops.size(); ++i) {
        if (stream_rate > 0) {
          // Pace against the global schedule (not per-op sleeps), so slow
          // pushes don't accumulate drift.
          const auto due =
              start + std::chrono::microseconds(1000000 * i / stream_rate);
          std::this_thread::sleep_until(due);
        }
        if (pool->Push(stream_ops[i]) == 0) return;  // pool stopped
      }
    });
  }

  // Any early return below must first close the stream and join the
  // producer — destroying a joinable std::thread terminates the process.
  auto abandon_stream = [&] {
    if (producer.joinable()) {
      // Wakes a Push blocked on backpressure.
      (void)pool->Stop();
      producer.join();
    }
  };

  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(queries.card());
  if (queries.card() == 0 && !updates.empty()) {
    Status st = engine.ApplyUpdates(updates);
    std::printf("-- applied %zu updates: %s\n", updates.size(),
                st.ok() ? "ok" : st.ToString().c_str());
    if (!st.ok()) {
      abandon_stream();
      return 1;
    }
  }
  const size_t update_at = queries.card() / 2;
  for (size_t i = 0; i < queries.card(); ++i) {
    if (i == update_at && !updates.empty()) {
      // Drain in-flight queries so per-query output stays attributable to
      // a graph version, then apply the batch through maintenance.
      for (auto& fut : futures) fut.wait();
      Status st = engine.ApplyUpdates(updates);
      std::printf("-- applied %zu updates: %s\n", updates.size(),
                  st.ok() ? "ok" : st.ToString().c_str());
      if (!st.ok()) {
        abandon_stream();
        return 1;
      }
    }
    QueryOptions qopts;
    qopts.as_of_ts = ParseAsOfSuffix(queries.view(i).name);
    if (qopts.as_of_ts == 0) qopts.as_of_ts = as_of;
    Result<std::future<QueryResponse>> fut =
        engine.Submit(queries.view(i).pattern, qopts);
    if (!fut.ok()) {
      std::fprintf(stderr, "submit: %s\n", fut.status().ToString().c_str());
      abandon_stream();
      return 1;
    }
    futures.push_back(std::move(*fut));
  }
  if (producer.joinable()) {
    // Quiesce: every streamed op applied and published before the final
    // report (queries above may or may not have seen the tail — that is
    // the bounded-staleness contract; the watermark line below says how
    // far reads could lag).
    producer.join();
    Status st = pool->FlushAndWait();
    std::printf("-- stream quiesced: %zu ops through ts %llu: %s\n",
                stream_ops.size(),
                static_cast<unsigned long long>(engine.applied_through_ts()),
                st.ok() ? "ok" : st.ToString().c_str());
    if (pool->num_appliers() > 1) {
      std::printf("-- appliers: %zu slices, routed", pool->num_appliers());
      for (size_t i = 0; i < pool->num_appliers(); ++i) {
        std::printf(" %llu",
                    static_cast<unsigned long long>(pool->ops_routed(i)));
      }
      std::printf("\n");
    }
    if (!st.ok()) return 1;
  }
  size_t failed = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResponse resp = futures[i].get();
    if (!resp.status.ok()) ++failed;
    std::printf("%-20s plan=%-13s %s pairs=%-8zu %s plan=%.2fms "
                "exec=%.2fms views=%zu",
                queries.view(i).name.c_str(), PlanKindName(resp.plan),
                resp.status.ok() ? (resp.result.matched() ? "hit " : "empty")
                                 : "FAIL",
                resp.status.ok() ? resp.result.TotalMatches() : 0,
                resp.warm ? "warm" : "cold", resp.plan_ms, resp.exec_ms,
                resp.views_used.size());
    if (resp.as_of) {
      std::printf(" asof@%llu",
                  static_cast<unsigned long long>(resp.applied_through_ts));
    }
    if (trace) {
      std::printf(" trace_id=%llu",
                  static_cast<unsigned long long>(resp.trace_id));
    }
    std::printf("\n");
  }
  // The headline counts the futures, not the registry: it stays right
  // under --no-metrics, where the engine's counters are never recorded.
  const double secs = wall.ElapsedSeconds();
  std::printf("\n%zu queries in %.2fs (%.0f q/s), %zu failed\n",
              futures.size(), secs,
              secs > 0 ? static_cast<double>(futures.size()) / secs : 0.0,
              failed);

  if (advise > 0) {
    Result<size_t> added = engine.AdmitFromWorkload(advise);
    if (added.ok()) {
      std::printf("-- workload advisor registered %zu view(s); rerun with "
                  "--warm to materialize\n", *added);
    } else {
      std::fprintf(stderr, "-- workload advisor failed: %s\n",
                   added.status().ToString().c_str());
    }
  }

  if (slow_query_ms > 0) {
    std::printf("slow queries (>= %zu ms): %zu logged to %s\n", slow_query_ms,
                engine.slow_query_lines(),
                opts.obs.slow_query_path.empty()
                    ? "stderr"
                    : opts.obs.slow_query_path.c_str());
  }
  // The exporter's final snapshot lands before the table's, so they agree.
  if (exporter) exporter->Stop();
  if (!ReportServeEnd(engine.metrics()->TakeSnapshot(), fault, fault_spec,
                      exporter.get(), metrics_out, prom_out)) {
    return 1;
  }
  return failed == 0 ? 0 : 1;
}

/// One subcommand's flag table: how many leading positionals it takes,
/// its `--switch` flags and its `--flag <value>` flags. Main rejects any
/// other argument — an unknown or misspelt flag, a flag missing its value,
/// a stray positional — with exit status 2 and the usage text.
struct Command {
  const char* name;
  size_t min_pos;
  size_t max_pos;
  std::vector<std::string> switches;
  std::vector<std::string> value_flags;
  int (*run)(const Args&);
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> kCommands = {
      {"gen", 4, 4, {}, {}, &CmdGen},
      {"stats", 1, 1, {}, {"--json"}, &CmdStats},
      {"match", 2, 2, {"--dual"}, {}, &CmdMatch},
      {"contain", 2, 2, {}, {}, &CmdContain},
      {"materialize", 2, 2, {}, {}, &CmdMaterialize},
      {"answer", 3, 3, {"--minimal", "--minimum", "--check"}, {}, &CmdAnswer},
      {"rewrite", 3, 3, {}, {}, &CmdRewrite},
      // serve: <graph> <queries>, or <graph> alone with --port.
      {"serve",
       1,
       2,
       {"--warm", "--no-delta", "--trace", "--no-metrics"},
       {"--views", "--threads", "--cache-mb", "--result-cache-mb", "--advise",
        "--updates", "--stream", "--stream-rate", "--max-lag-ms",
        "--appliers", "--as-of", "--port", "--metrics-out",
        "--metrics-interval-ms", "--prom-out", "--slow-query-ms",
        "--slow-query-log", "--fault-spec"},
       &CmdServe},
  };
  return kCommands;
}

/// Splits `argv` by `cmd`'s flag table; false (with a message) on any
/// argument the table does not allow.
bool ParseArgs(const Command& cmd, const std::vector<std::string>& argv,
               Args* out) {
  auto listed = [](const std::vector<std::string>& names,
                   const std::string& a) {
    return std::find(names.begin(), names.end(), a) != names.end();
  };
  size_t i = 0;
  for (; i < argv.size() && argv[i].rfind("--", 0) != 0; ++i) {
    out->pos.push_back(argv[i]);
  }
  if (out->pos.size() < cmd.min_pos || out->pos.size() > cmd.max_pos) {
    std::fprintf(stderr,
                 "error: %s takes %zu to %zu positional arguments, got %zu\n",
                 cmd.name, cmd.min_pos, cmd.max_pos, out->pos.size());
    return false;
  }
  for (; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (listed(cmd.switches, a)) {
      out->flags.emplace(a, "");
    } else if (!listed(cmd.value_flags, a)) {
      std::fprintf(stderr, "error: unknown argument '%s' for %s\n", a.c_str(),
                   cmd.name);
      return false;
    } else if (i + 1 >= argv.size()) {
      std::fprintf(stderr, "error: %s requires a value\n", a.c_str());
      return false;
    } else {
      out->flags.emplace(a, argv[++i]);
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string name = argv[1];
  for (const Command& cmd : Commands()) {
    if (name != cmd.name) continue;
    Args args;
    if (!ParseArgs(cmd, std::vector<std::string>(argv + 2, argv + argc),
                   &args)) {
      return Usage();
    }
    return cmd.run(args);
  }
  return Usage();
}

}  // namespace
}  // namespace gpmv

int main(int argc, char** argv) { return gpmv::Main(argc, argv); }
