/// Fig. 8(a): graph pattern matching on Amazon, varying |Qs| from (4,4) to
/// (8,16) — Match (no views) vs. MatchJoin with a minimal view subset vs.
/// MatchJoin with the greedy-minimum subset. Expected shape: both MatchJoin
/// variants beat Match (paper: 57% / 45% of its time on average) and are
/// less sensitive to |Qs|; min <= mnl.

#include "bench_util.h"

namespace gpmv {
namespace bench {
namespace {

Fixture BuildAmazon(const std::string&) {
  return MakeFixture(GenerateAmazonLike(Scaled(50000), 4242), AmazonViews(1));
}

Fixture& AmazonFixture() { return CachedFixture("amazon", &BuildAmazon); }

Pattern QueryFor(int64_t vp, int64_t ep) {
  return GenerateAmazonQuery(static_cast<uint32_t>(vp),
                             static_cast<uint32_t>(ep), 1,
                             static_cast<uint64_t>(vp * 100 + ep));
}

void BM_Match(benchmark::State& state) {
  Fixture& f = AmazonFixture();
  Pattern q = QueryFor(state.range(0), state.range(1));
  RunDirectLoop(state, q, f);
}

void BM_MatchJoinMnl(benchmark::State& state) {
  Fixture& f = AmazonFixture();
  Pattern q = QueryFor(state.range(0), state.range(1));
  auto mapping = MinimalContainment(q, f.views);
  if (!mapping.ok() || !mapping->contained) {
    state.SkipWithError("query not contained");
    return;
  }
  RunMatchJoinLoop(state, q, f, *mapping);
}

void BM_MatchJoinMin(benchmark::State& state) {
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

BENCHMARK(BM_Match)->Apply(Sizes);
BENCHMARK(BM_MatchJoinMnl)->Apply(Sizes);
BENCHMARK(BM_MatchJoinMin)->Apply(Sizes);

}  // namespace
}  // namespace bench
}  // namespace gpmv

BENCHMARK_MAIN();
