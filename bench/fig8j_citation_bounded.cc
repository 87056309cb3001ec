/// Fig. 8(j): bounded pattern matching on Citation with fe(e) = 3, |Qb|
/// from (4,8,3) to (8,16,3) — BMatch vs. BMatchJoin_mnl vs. BMatchJoin_min.
/// Same expected shape as Fig. 8(i); the paper plots this figure on a log
/// time axis because the gap is orders of magnitude.

#include "bench_util.h"

namespace gpmv {
namespace bench {
namespace {

constexpr uint32_t kBound = 3;

Fixture BuildCitation(const std::string&) {
  return MakeFixture(GenerateCitationLike(Scaled(15000), 777),
                     CitationViews(kBound));
}

Fixture& CitationFixture() {
  return CachedFixture("citationb", &BuildCitation);
}

Pattern QueryFor(int64_t vp, int64_t ep) {
  return GenerateCitationQuery(static_cast<uint32_t>(vp),
                               static_cast<uint32_t>(ep), kBound,
                               static_cast<uint64_t>(vp * 37 + ep));
}

void BM_BMatch(benchmark::State& state) {
  Fixture& f = CitationFixture();
  Pattern q = QueryFor(state.range(0), state.range(1));
  RunDirectLoop(state, q, f, /*naive=*/true);
}

// This library's improved bounded matcher (multi-source reverse-BFS
// pruning) — not part of the paper's figure, shown for reference.
void BM_BMatchFast(benchmark::State& state) {
  Fixture& f = CitationFixture();
  Pattern q = QueryFor(state.range(0), state.range(1));
  RunDirectLoop(state, q, f, /*naive=*/false);
}

void BM_BMatchJoinMnl(benchmark::State& state) {
  Fixture& f = CitationFixture();
  Pattern q = QueryFor(state.range(0), state.range(1));
  auto mapping = MinimalContainment(q, f.views);
  if (!mapping.ok() || !mapping->contained) {
    state.SkipWithError("query not contained");
    return;
  }
  RunMatchJoinLoop(state, q, f, *mapping);
}

void BM_BMatchJoinMin(benchmark::State& state) {
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

BENCHMARK(BM_BMatch)->Apply(Sizes);
BENCHMARK(BM_BMatchFast)->Apply(Sizes);
BENCHMARK(BM_BMatchJoinMnl)->Apply(Sizes);
BENCHMARK(BM_BMatchJoinMin)->Apply(Sizes);

}  // namespace
}  // namespace bench
}  // namespace gpmv

BENCHMARK_MAIN();
