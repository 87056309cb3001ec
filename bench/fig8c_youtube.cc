/// Fig. 8(c): graph pattern matching on YouTube with the 12 predicate views
/// of Fig. 7, |Qs| from (4,8) to (8,16) — Match vs. MatchJoin_mnl vs.
/// MatchJoin_min. Queries are compositions of the cached views (glued at
/// shared conditions), mirroring the paper's setup where cached results
/// answer incoming queries.

#include "bench_util.h"

namespace gpmv {
namespace bench {
namespace {

Fixture BuildYoutube(const std::string&) {
  return MakeFixture(GenerateYoutubeLike(Scaled(150000), 999),
                     YoutubeViews(1));
}

Fixture& YoutubeFixture() { return CachedFixture("youtube", &BuildYoutube); }

Pattern QueryFor(int64_t ep) {
  return GenerateYoutubeQuery(static_cast<uint32_t>(ep), 1,
                              static_cast<uint64_t>(ep) * 7 + 1);
}

void BM_Match(benchmark::State& state) {
  Fixture& f = YoutubeFixture();
  Pattern q = QueryFor(state.range(0));
  RunDirectLoop(state, q, f);
}

void BM_MatchJoinMnl(benchmark::State& state) {
  Fixture& f = YoutubeFixture();
  Pattern q = QueryFor(state.range(0));
  auto mapping = MinimalContainment(q, f.views);
  if (!mapping.ok() || !mapping->contained) {
    state.SkipWithError("query not contained");
    return;
  }
  RunMatchJoinLoop(state, q, f, *mapping);
}

void BM_MatchJoinMin(benchmark::State& state) {
  Fixture& f = YoutubeFixture();
  Pattern q = QueryFor(state.range(0));
  auto mapping = MinimumContainment(q, f.views);
  if (!mapping.ok() || !mapping->contained) {
    state.SkipWithError("query not contained");
    return;
  }
  RunMatchJoinLoop(state, q, f, *mapping);
}

void Sizes(benchmark::internal::Benchmark* b) {
  for (int64_t ep : {8, 10, 12, 14, 16}) b->Args({ep});
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Match)->Apply(Sizes);
BENCHMARK(BM_MatchJoinMnl)->Apply(Sizes);
BENCHMARK(BM_MatchJoinMin)->Apply(Sizes);

}  // namespace
}  // namespace bench
}  // namespace gpmv

BENCHMARK_MAIN();
