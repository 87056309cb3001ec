/// Fig. 8(d): scalability in |G| on synthetic graphs — |V| swept (paper:
/// 0.3M..1M; here 10x smaller by default), |E| = 2|V|, pattern fixed at
/// (4,6) — Match vs. MatchJoin_mnl vs. MatchJoin_min. Expected shape:
/// MatchJoin_min scales best and is ~49% of MatchJoin_mnl's time.

#include "bench_util.h"

namespace gpmv {
namespace bench {
namespace {

constexpr uint64_t kQuerySeed = 31;

Pattern Query() {
  RandomPatternOptions po;
  po.num_nodes = 4;
  po.num_edges = 6;
  po.label_pool = SyntheticLabels(10);
  po.seed = kQuerySeed;
  return GenerateRandomPattern(po);
}

Fixture BuildSynthetic(const std::string& key) {
  size_t num_nodes = static_cast<size_t>(std::stoull(key));
  RandomGraphOptions go;
  go.num_nodes = num_nodes;
  go.num_edges = 2 * num_nodes;
  go.num_labels = 10;
  go.seed = 17;
  Pattern q = Query();
  CoveringViewOptions co;
  co.edges_per_view = 2;
  co.num_distractors = 8;
  co.overlap_views = 6;
  co.seed = 23;
  return MakeFixture(GenerateRandomGraph(go), GenerateCoveringViews(q, co));
}

Fixture& SyntheticFixture(int64_t num_nodes) {
  return CachedFixture(std::to_string(Scaled(num_nodes)), &BuildSynthetic);
}

void BM_Match(benchmark::State& state) {
  Fixture& f = SyntheticFixture(state.range(0));
  Pattern q = Query();
  RunDirectLoop(state, q, f);
}

void BM_MatchJoinMnl(benchmark::State& state) {
  Fixture& f = SyntheticFixture(state.range(0));
  Pattern q = Query();
  auto mapping = MinimalContainment(q, f.views);
  if (!mapping.ok() || !mapping->contained) {
    state.SkipWithError("query not contained");
    return;
  }
  RunMatchJoinLoop(state, q, f, *mapping);
}

void BM_MatchJoinMin(benchmark::State& state) {
  Fixture& f = SyntheticFixture(state.range(0));
  Pattern q = Query();
  auto mapping = MinimumContainment(q, f.views);
  if (!mapping.ok() || !mapping->contained) {
    state.SkipWithError("query not contained");
    return;
  }
  RunMatchJoinLoop(state, q, f, *mapping);
}

void Sizes(benchmark::internal::Benchmark* b) {
  for (int64_t n = 30000; n <= 100000; n += 10000) b->Args({n});
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Match)->Apply(Sizes);
BENCHMARK(BM_MatchJoinMnl)->Apply(Sizes);
BENCHMARK(BM_MatchJoinMin)->Apply(Sizes);

}  // namespace
}  // namespace bench
}  // namespace gpmv

BENCHMARK_MAIN();
