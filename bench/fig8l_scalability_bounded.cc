/// Fig. 8(l): scalability of bounded matching in |G| — synthetic graphs,
/// |E| = 2|V|, pattern (4,6) with fe(e) = 3 — BMatch vs. BMatchJoin_mnl vs.
/// BMatchJoin_min. Expected shape: BMatchJoin_min scales best (paper: ~6%
/// of BMatch's time, gap widening with |G|).

#include "bench_util.h"

namespace gpmv {
namespace bench {
namespace {

constexpr uint64_t kQuerySeed = 71;

Pattern Query() {
  RandomPatternOptions po;
  po.num_nodes = 4;
  po.num_edges = 6;
  po.label_pool = SyntheticLabels(10);
  po.max_bound = 3;
  po.dag_only = true;  // acyclic queries have matches on sparse graphs
  po.seed = kQuerySeed;
  Pattern base = GenerateRandomPattern(po);
  // Pin every bound to 3 to match the paper's configuration.
  Pattern q;
  for (uint32_t u = 0; u < base.num_nodes(); ++u) {
    q.AddNode(base.node(u).label, base.node(u).pred, base.node(u).name);
  }
  for (const PatternEdge& e : base.edges()) (void)q.AddEdge(e.src, e.dst, 3);
  return q;
}

Fixture BuildSynthetic(const std::string& key) {
  size_t num_nodes = std::stoull(key);
  RandomGraphOptions go;
  go.num_nodes = num_nodes;
  go.num_edges = 2 * num_nodes;
  go.num_labels = 10;
  go.seed = 73;
  Pattern q = Query();
  CoveringViewOptions co;
  co.edges_per_view = 2;
  co.num_distractors = 4;
  co.overlap_views = 4;
  co.seed = 79;
  return MakeFixture(GenerateRandomGraph(go), GenerateCoveringViews(q, co));
}

Fixture& SyntheticFixture(int64_t num_nodes) {
  return CachedFixture(std::to_string(Scaled(num_nodes)), &BuildSynthetic);
}

void BM_BMatch(benchmark::State& state) {
  Fixture& f = SyntheticFixture(state.range(0));
  Pattern q = Query();
  RunDirectLoop(state, q, f, /*naive=*/true);
}

// This library's improved bounded matcher (multi-source reverse-BFS
// pruning) — not part of the paper's figure, shown for reference.
void BM_BMatchFast(benchmark::State& state) {
  Fixture& f = SyntheticFixture(state.range(0));
  Pattern q = Query();
  RunDirectLoop(state, q, f, /*naive=*/false);
}

void BM_BMatchJoinMnl(benchmark::State& state) {
  Fixture& f = SyntheticFixture(state.range(0));
  Pattern q = Query();
  auto mapping = MinimalContainment(q, f.views);
  if (!mapping.ok() || !mapping->contained) {
    state.SkipWithError("query not contained");
    return;
  }
  RunMatchJoinLoop(state, q, f, *mapping);
}

void BM_BMatchJoinMin(benchmark::State& state) {
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
  for (int64_t n = 10000; n <= 30000; n += 5000) b->Args({n});
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_BMatch)->Apply(Sizes);
BENCHMARK(BM_BMatchFast)->Apply(Sizes);
BENCHMARK(BM_BMatchJoinMnl)->Apply(Sizes);
BENCHMARK(BM_BMatchJoinMin)->Apply(Sizes);

}  // namespace
}  // namespace bench
}  // namespace gpmv

BENCHMARK_MAIN();
