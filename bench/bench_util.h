/// \file bench_util.h
/// \brief Shared scaffolding for the benchmarks: the machine-readable JSON
/// reporter used by every standalone harness (`--json <path>`), and the
/// fixture helpers of the figure-reproduction (google-benchmark) binaries.
///
/// The JSON section has no dependencies beyond the standard library so the
/// standalone harnesses (engine_throughput, fixpoint_microbench,
/// update_latency) can include this header without linking
/// google-benchmark; the gbench-only fixture section below is guarded by
/// GPMV_BENCH_HAVE_GBENCH, which CMake defines for the fig8*/ablation
/// binaries (the ones that link the library).
///
/// Figure benchmarks: every fig8* binary regenerates one figure of the
/// paper's evaluation (Fig. 8(a)-(l)). The real datasets are replaced by
/// the synthetic stand-ins of workload/datasets.h at roughly 10x reduced
/// scale; the GPMV_BENCH_SCALE environment variable multiplies all graph
/// sizes for larger runs. Fixtures (graph + materialized views) are built
/// once per binary and cached; the timed regions cover exactly what the
/// paper times.

#ifndef GPMV_BENCH_BENCH_UTIL_H_
#define GPMV_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bmatch_join.h"
#include "core/containment.h"
#include "core/match_join.h"
#include "core/view.h"
#include "simulation/bounded.h"
#include "simulation/simulation.h"
#include "workload/datasets.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace bench {

/// Machine-readable results for the perf-trajectory artifacts the CI
/// uploads (and the BENCH_*.json files committed per PR): one named report
/// with flat string metadata plus labeled rows of numeric metrics.
///
///   JsonReport report("update_latency");
///   report.Meta("graph_nodes", 20000);
///   report.Add("insert_b16_delta", {{"p50_ms", 0.4}, {"updates_per_sec", 9e4}});
///   report.WriteTo(path);  // {"bench": "...", "meta": {...}, "results": [...]}
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  void Meta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, Quote(value));
  }
  void Meta(const std::string& key, double value) {
    meta_.emplace_back(key, Number(value));
  }

  void Add(const std::string& label,
           std::initializer_list<std::pair<const char*, double>> metrics) {
    rows_.emplace_back();
    rows_.back().first = label;
    for (const auto& [k, v] : metrics) rows_.back().second.emplace_back(k, v);
  }
  /// Vector overload for rows assembled conditionally.
  void Add(const std::string& label,
           const std::vector<std::pair<std::string, double>>& metrics) {
    rows_.emplace_back();
    rows_.back().first = label;
    for (const auto& [k, v] : metrics) rows_.back().second.emplace_back(k, v);
  }

  /// Writes the report; returns false (with a message on stderr) on I/O
  /// failure. An empty path is a no-op success, so callers can pass the
  /// --json flag value through unconditionally.
  bool WriteTo(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": %s,\n  \"meta\": {", Quote(bench_).c_str());
    for (size_t i = 0; i < meta_.size(); ++i) {
      std::fprintf(f, "%s\n    %s: %s", i ? "," : "",
                   Quote(meta_[i].first).c_str(), meta_[i].second.c_str());
    }
    std::fprintf(f, "%s},\n  \"results\": [", meta_.empty() ? "" : "\n  ");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s\n    {\"label\": %s", i ? "," : "",
                   Quote(rows_[i].first).c_str());
      for (const auto& [k, v] : rows_[i].second) {
        std::fprintf(f, ", %s: %s", Quote(k).c_str(), Number(v).c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "%s]\n}\n", rows_.empty() ? "" : "\n  ");
    const bool ok = std::fclose(f) == 0;
    if (ok) std::printf("wrote %s\n", path.c_str());
    return ok;
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('"');
    return out;
  }
  static std::string Number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>>
      rows_;
};

/// Parses the shared `--json <path>` flag out of argv (removing both
/// tokens); returns false on a missing value.
inline bool TakeJsonFlag(int* argc, char** argv, std::string* path) {
  for (int i = 1; i < *argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= *argc) {
        std::fprintf(stderr, "--json requires a path\n");
        return false;
      }
      *path = argv[i + 1];
      for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
      *argc -= 2;
      return true;
    }
  }
  return true;
}

/// Parses a `<flag> X` numeric gate flag out of argv (removing both
/// tokens); returns false on a missing or malformed value. `*value` is
/// untouched (harnesses default it to 0 = no gate) when absent.
inline bool TakeDoubleFlag(int* argc, char** argv, const char* flag,
                           double* value) {
  for (int i = 1; i < *argc; ++i) {
    if (std::string(argv[i]) == flag) {
      char* end = nullptr;
      if (i + 1 >= *argc ||
          (*value = std::strtod(argv[i + 1], &end), end == argv[i + 1] ||
           *end != '\0')) {
        std::fprintf(stderr, "%s requires a numeric value\n", flag);
        return false;
      }
      for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
      *argc -= 2;
      return true;
    }
  }
  return true;
}

/// The shared `--min-speedup X` gate flag.
inline bool TakeMinSpeedupFlag(int* argc, char** argv, double* value) {
  return TakeDoubleFlag(argc, argv, "--min-speedup", value);
}

/// Parses the harnesses' trailing numeric positionals (after the Take*Flag
/// helpers stripped the shared flags): up to `max_positional` non-negative
/// integers into `positionals[]`, in order. Returns false (printing
/// `usage`) on anything else.
inline bool ParsePositionals(int argc, char** argv, const char* usage,
                             size_t* positionals, int max_positional) {
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    char* end = nullptr;
    unsigned long long value = std::strtoull(argv[i], &end, 10);
    if (argv[i][0] == '-' || end == argv[i] || *end != '\0' ||
        positional >= max_positional) {
      std::fprintf(stderr, "usage: %s\n", usage);
      return false;
    }
    positionals[positional++] = static_cast<size_t>(value);
  }
  return true;
}

/// Global size multiplier (GPMV_BENCH_SCALE, default 1.0).
inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("GPMV_BENCH_SCALE");
    return env != nullptr ? std::atof(env) : 1.0;
  }();
  return scale;
}

inline size_t Scaled(size_t base) {
  return static_cast<size_t>(static_cast<double>(base) * Scale());
}

/// A dataset fixture: graph, its snapshot frozen once, and materialized
/// views.
struct Fixture {
  Graph g;
  std::shared_ptr<const GraphSnapshot> snap;
  ViewSet views;
  std::vector<ViewExtension> exts;

  double ViewFraction() const {
    return static_cast<double>(TotalExtensionPairs(exts)) /
           static_cast<double>(g.num_edges());
  }
};

inline Fixture MakeFixture(Graph graph, ViewSet views) {
  Fixture f;
  f.g = std::move(graph);
  f.snap = f.g.Freeze();
  f.views = std::move(views);
  f.exts = std::move(MaterializeAll(f.views, *f.snap)).value();
  return f;
}

/// Lazily-built fixture cache keyed by an arbitrary string.
inline Fixture& CachedFixture(const std::string& key,
                              Fixture (*build)(const std::string&)) {
  static std::map<std::string, std::unique_ptr<Fixture>> cache;
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, std::make_unique<Fixture>(build(key))).first;
  }
  return *it->second;
}

}  // namespace bench
}  // namespace gpmv

// ---- google-benchmark-only section (fig8*/ablation binaries) -------------
// Guarded by a CMake-provided define, not __has_include: the gbench header
// drags in a global initializer that needs the library at link time, which
// the standalone harnesses do not link.
#ifdef GPMV_BENCH_HAVE_GBENCH
#include <benchmark/benchmark.h>

namespace gpmv {
namespace bench {

/// Runs one view-based matching configuration inside a benchmark loop and
/// reports the paper's counters.
inline void RunMatchJoinLoop(benchmark::State& state, const Pattern& q,
                             const Fixture& f,
                             const ContainmentMapping& mapping,
                             bool use_rank_order = true) {
  size_t result_pairs = 0;
  for (auto _ : state) {
    MatchJoinOptions opts;
    opts.use_rank_order = use_rank_order;
    Result<MatchResult> r = MatchJoin(q, f.views, f.exts, mapping, opts);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    result_pairs = r->TotalMatches();
    benchmark::DoNotOptimize(r);
  }
  state.counters["result_pairs"] = static_cast<double>(result_pairs);
  state.counters["views_used"] = static_cast<double>(mapping.selected.size());
}

/// Runs the direct (no views) baseline inside a benchmark loop, on the
/// fixture's snapshot frozen once outside the loop. For bounded patterns,
/// `naive` selects the paper's cubic BMatch baseline [16] (per-candidate
/// BFS on the mutable graph) instead of this library's improved
/// implementation.
inline void RunDirectLoop(benchmark::State& state, const Pattern& q,
                          const Fixture& f, bool naive = false) {
  size_t result_pairs = 0;
  for (auto _ : state) {
    Result<MatchResult> r =
        q.IsSimulationPattern()
            ? MatchSimulation(q, *f.snap)
            : (naive ? MatchBoundedSimulationNaive(q, f.g)
                     : MatchBoundedSimulation(q, *f.snap));
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    result_pairs = r->TotalMatches();
    benchmark::DoNotOptimize(r);
  }
  state.counters["result_pairs"] = static_cast<double>(result_pairs);
}

}  // namespace bench
}  // namespace gpmv
#endif  // GPMV_BENCH_HAVE_GBENCH

#endif  // GPMV_BENCH_BENCH_UTIL_H_
