/// Ablation (beyond the paper's figures): the one-time cost of view
/// materialization and its footprint, across the three dataset stand-ins
/// and increasing bounds — what a deployment pays before MatchJoin can take
/// over. Reports pairs cached and the extension-to-graph ratio the paper
/// quotes (4-14%).

#include "bench_util.h"

namespace gpmv {
namespace bench {
namespace {

void ReportFootprint(benchmark::State& state, const Graph& g,
                     const std::vector<ViewExtension>& exts) {
  state.counters["pairs"] = static_cast<double>(TotalExtensionPairs(exts));
  state.counters["pct_of_edges"] =
      100.0 * static_cast<double>(TotalExtensionPairs(exts)) /
      static_cast<double>(g.num_edges());
}

void BM_MaterializeAmazon(benchmark::State& state) {
  Graph g = GenerateAmazonLike(Scaled(30000), 5);
  ViewSet views = AmazonViews(static_cast<uint32_t>(state.range(0)));
  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  std::vector<ViewExtension> exts;
  for (auto _ : state) {
    exts = std::move(MaterializeAll(views, *snap)).value();
    benchmark::DoNotOptimize(exts);
  }
  ReportFootprint(state, g, exts);
}

void BM_MaterializeCitation(benchmark::State& state) {
  Graph g = GenerateCitationLike(Scaled(30000), 6);
  ViewSet views = CitationViews(static_cast<uint32_t>(state.range(0)));
  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  std::vector<ViewExtension> exts;
  for (auto _ : state) {
    exts = std::move(MaterializeAll(views, *snap)).value();
    benchmark::DoNotOptimize(exts);
  }
  ReportFootprint(state, g, exts);
}

void BM_MaterializeYoutube(benchmark::State& state) {
  Graph g = GenerateYoutubeLike(Scaled(30000), 7);
  ViewSet views = YoutubeViews(static_cast<uint32_t>(state.range(0)));
  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  std::vector<ViewExtension> exts;
  for (auto _ : state) {
    exts = std::move(MaterializeAll(views, *snap)).value();
    benchmark::DoNotOptimize(exts);
  }
  ReportFootprint(state, g, exts);
}

void Bounds(benchmark::internal::Benchmark* b) {
  for (int64_t k : {1, 2, 3}) b->Args({k});
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_MaterializeAmazon)->Apply(Bounds);
BENCHMARK(BM_MaterializeCitation)->Apply(Bounds);
BENCHMARK(BM_MaterializeYoutube)->Apply(Bounds);

}  // namespace
}  // namespace bench
}  // namespace gpmv

BENCHMARK_MAIN();
