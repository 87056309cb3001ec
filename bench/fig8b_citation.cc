/// Fig. 8(b): graph pattern matching on Citation, |Qs| from (4,8) to
/// (8,16) — Match vs. MatchJoin_mnl vs. MatchJoin_min. Same expected shape
/// as Fig. 8(a).

#include "bench_util.h"

namespace gpmv {
namespace bench {
namespace {

Fixture BuildCitation(const std::string&) {
  return MakeFixture(GenerateCitationLike(Scaled(100000), 777),
                     CitationViews(1));
}

Fixture& CitationFixture() { return CachedFixture("citation", &BuildCitation); }

Pattern QueryFor(int64_t vp, int64_t ep) {
  return GenerateCitationQuery(static_cast<uint32_t>(vp),
                               static_cast<uint32_t>(ep), 1,
                               static_cast<uint64_t>(vp * 37 + ep));
}

void BM_Match(benchmark::State& state) {
  Fixture& f = CitationFixture();
  Pattern q = QueryFor(state.range(0), state.range(1));
  RunDirectLoop(state, q, f);
}

void BM_MatchJoinMnl(benchmark::State& state) {
  Fixture& f = CitationFixture();
  Pattern q = QueryFor(state.range(0), state.range(1));
  auto mapping = MinimalContainment(q, f.views);
  if (!mapping.ok() || !mapping->contained) {
    state.SkipWithError("query not contained");
    return;
  }
  RunMatchJoinLoop(state, q, f, *mapping);
}

void BM_MatchJoinMin(benchmark::State& state) {
  Fixture& f = CitationFixture();
  Pattern q = QueryFor(state.range(0), state.range(1));
  auto mapping = MinimumContainment(q, f.views);
  if (!mapping.ok() || !mapping->contained) {
    state.SkipWithError("query not contained");
    return;
  }
  RunMatchJoinLoop(state, q, f, *mapping);
}

void Sizes(benchmark::internal::Benchmark* b) {
  for (auto [vp, ep] : {std::pair<int64_t, int64_t>{4, 8}, {5, 10}, {6, 12},
                        {7, 14}, {8, 16}}) {
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
