/// Ablation (beyond the paper's figures): incremental view maintenance vs.
/// re-materialization under edge deletions — quantifying Section I's claim
/// that cached pattern views are cheap to keep fresh. Both variants
/// re-freeze the graph incrementally after each deletion (Graph::Freeze,
/// as the engine does) and compare
///   * Rematerialize: full ViewExtension::Materialize on that snapshot,
///   * Incremental: ViewCache::RefreshForUpdates, the engine's maintenance
///     path (relation-seeded refresh with the constant-time relevance
///     prescreen).

#include "bench_util.h"
#include "common/random.h"
#include "engine/view_cache.h"

namespace gpmv {
namespace bench {
namespace {

struct Workload {
  Graph g;
  ViewDefinition def;
  std::vector<NodePair> deletions;
};

Workload MakeWorkload(int64_t num_nodes) {
  Workload w;
  RandomGraphOptions go;
  go.num_nodes = Scaled(static_cast<size_t>(num_nodes));
  go.num_edges = 2 * go.num_nodes;
  go.num_labels = 10;
  go.seed = 97;
  w.g = GenerateRandomGraph(go);
  // Frozen once here; every per-iteration copy carries the snapshot, so the
  // timed re-freezes below are incremental.
  w.g.Freeze();
  RandomPatternOptions po;
  po.num_nodes = 3;
  po.num_edges = 3;
  po.label_pool = SyntheticLabels(10);
  po.seed = 11;
  w.def = ViewDefinition{"v", GenerateRandomPattern(po)};
  Rng rng(13);
  for (int i = 0; i < 64; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(w.g.num_nodes()));
    if (w.g.out_degree(u) == 0) continue;
    NodeId v = w.g.out_neighbors(u)[rng.NextBounded(w.g.out_degree(u))];
    w.deletions.emplace_back(u, v);
  }
  return w;
}

void BM_Rematerialize(benchmark::State& state) {
  Workload w = MakeWorkload(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Graph g = w.g;  // fresh copy so deletions repeat identically
    state.ResumeTiming();
    for (const NodePair& d : w.deletions) {
      if (!g.RemoveEdge(d.first, d.second).ok()) continue;
      auto ext = ViewExtension::Materialize(w.def, *g.Freeze());
      benchmark::DoNotOptimize(ext);
    }
  }
  state.counters["deletions"] = static_cast<double>(w.deletions.size());
}

void BM_Incremental(benchmark::State& state) {
  Workload w = MakeWorkload(state.range(0));
  size_t skipped = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Graph g = w.g;
    ViewCache cache;
    const uint32_t id = cache.Register(w.def);
    std::vector<std::vector<NodeId>> relation;
    Result<ViewExtension> ext = ViewExtension::Materialize(
        w.def, *g.Freeze(), /*seed=*/nullptr, &relation);
    if (!ext.ok()) state.SkipWithError("materialization failed");
    cache.Install(id, std::move(ext).value(), std::move(relation),
                  /*pin=*/false);
    state.ResumeTiming();
    for (const NodePair& d : w.deletions) {
      if (!g.RemoveEdge(d.first, d.second).ok()) continue;
      std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
      if (!cache.RefreshForUpdates(snap.get(), *snap, {d}, {}, {}).ok()) {
        state.SkipWithError("maintenance failed");
      }
    }
    skipped = cache.stats().refreshes_skipped;
  }
  state.counters["deletions"] = static_cast<double>(w.deletions.size());
  state.counters["prescreen_skips"] = static_cast<double>(skipped);
}

void Sizes(benchmark::internal::Benchmark* b) {
  for (int64_t n : {10000, 20000, 40000}) b->Args({n});
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Rematerialize)->Apply(Sizes);
BENCHMARK(BM_Incremental)->Apply(Sizes);

}  // namespace
}  // namespace bench
}  // namespace gpmv

BENCHMARK_MAIN();
