/// Fig. 8(i): bounded pattern matching on Amazon with fe(e) = 2, |Qb| from
/// (4,4,2) to (8,16,2) — BMatch (no views) vs. BMatchJoin_mnl vs.
/// BMatchJoin_min. Expected shape: the view-based variants need a small
/// fraction of BMatch's time (paper: 10-14%) and grow far slower with
/// pattern size; min beats mnl.

#include "bench_util.h"

namespace gpmv {
namespace bench {
namespace {

constexpr uint32_t kBound = 2;

Fixture BuildAmazon(const std::string&) {
  return MakeFixture(GenerateAmazonLike(Scaled(40000), 4242),
                     AmazonViews(kBound));
}

Fixture& AmazonFixture() { return CachedFixture("amazonb", &BuildAmazon); }

Pattern QueryFor(int64_t vp, int64_t ep) {
  // All edges carry bound 2, as in the paper's setup.
  Pattern base = GenerateAmazonQuery(static_cast<uint32_t>(vp),
                                     static_cast<uint32_t>(ep), 1,
                                     static_cast<uint64_t>(vp * 100 + ep));
  Pattern q;
  for (uint32_t u = 0; u < base.num_nodes(); ++u) {
    q.AddNode(base.node(u).label, base.node(u).pred, base.node(u).name);
  }
  for (const PatternEdge& e : base.edges()) {
    (void)q.AddEdge(e.src, e.dst, kBound);
  }
  return q;
}

void BM_BMatch(benchmark::State& state) {
  Fixture& f = AmazonFixture();
  Pattern q = QueryFor(state.range(0), state.range(1));
  RunDirectLoop(state, q, f, /*naive=*/true);
}

// This library's improved bounded matcher (multi-source reverse-BFS
// pruning) — not part of the paper's figure, shown for reference.
void BM_BMatchFast(benchmark::State& state) {
  Fixture& f = AmazonFixture();
  Pattern q = QueryFor(state.range(0), state.range(1));
  RunDirectLoop(state, q, f, /*naive=*/false);
}

void BM_BMatchJoinMnl(benchmark::State& state) {
  Fixture& f = AmazonFixture();
  Pattern q = QueryFor(state.range(0), state.range(1));
  auto mapping = MinimalContainment(q, f.views);
  if (!mapping.ok() || !mapping->contained) {
    state.SkipWithError("query not contained");
    return;
  }
  RunMatchJoinLoop(state, q, f, *mapping);
}

void BM_BMatchJoinMin(benchmark::State& state) {
  Fixture& f = AmazonFixture();
  Pattern q = QueryFor(state.range(0), state.range(1));
  auto mapping = MinimumContainment(q, f.views);
  if (!mapping.ok() || !mapping->contained) {
    state.SkipWithError("query not contained");
    return;
  }
  RunMatchJoinLoop(state, q, f, *mapping);
}

void Sizes(benchmark::internal::Benchmark* b) {
  for (auto [vp, ep] : {std::pair<int64_t, int64_t>{4, 4}, {4, 6}, {4, 8},
                        {6, 6}, {6, 9}, {6, 12}, {8, 8}, {8, 12}, {8, 16}}) {
    b->Args({vp, ep});
  }
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
