/// Fig. 8(k): effect of the hop bound fe(e) — YouTube, pattern fixed at
/// (4,8), fe(e) swept 2..6 — BMatch vs. BMatchJoin_mnl vs. BMatchJoin_min.
/// Expected shape: BMatch degrades sharply with fe(e) (deeper BFS per
/// candidate), while the view-based variants stay near-flat (paper: 3% of
/// BMatch's time at fe = 3); min <= mnl.

#include "bench_util.h"

namespace gpmv {
namespace bench {
namespace {

Fixture BuildYoutube(const std::string& key) {
  uint32_t bound = static_cast<uint32_t>(std::stoul(key));
  // Large enough that a 6-hop ball stays a small fraction of the graph —
  // at toy sizes the ball saturates and direct BFS becomes artificially
  // cheap relative to the paper's 1.6M-node setting.
  return MakeFixture(GenerateYoutubeLike(Scaled(20000), 999),
                     YoutubeViews(bound));
}

Fixture& YoutubeFixture(int64_t bound) {
  return CachedFixture(std::to_string(bound), &BuildYoutube);
}

Pattern QueryFor(int64_t bound) {
  return GenerateYoutubeQuery(8, static_cast<uint32_t>(bound), 5);
}

void BM_BMatch(benchmark::State& state) {
  Fixture& f = YoutubeFixture(state.range(0));
  Pattern q = QueryFor(state.range(0));
  RunDirectLoop(state, q, f, /*naive=*/true);
}

// This library's improved bounded matcher (multi-source reverse-BFS
// pruning) — not part of the paper's figure, shown for reference.
void BM_BMatchFast(benchmark::State& state) {
  Fixture& f = YoutubeFixture(state.range(0));
  Pattern q = QueryFor(state.range(0));
  RunDirectLoop(state, q, f, /*naive=*/false);
}

void BM_BMatchJoinMnl(benchmark::State& state) {
  Fixture& f = YoutubeFixture(state.range(0));
  Pattern q = QueryFor(state.range(0));
  auto mapping = MinimalContainment(q, f.views);
  if (!mapping.ok() || !mapping->contained) {
    state.SkipWithError("query not contained");
    return;
  }
  RunMatchJoinLoop(state, q, f, *mapping);
}

void BM_BMatchJoinMin(benchmark::State& state) {
  Fixture& f = YoutubeFixture(state.range(0));
  Pattern q = QueryFor(state.range(0));
  auto mapping = MinimumContainment(q, f.views);
  if (!mapping.ok() || !mapping->contained) {
    state.SkipWithError("query not contained");
    return;
  }
  RunMatchJoinLoop(state, q, f, *mapping);
}

void Bounds(benchmark::internal::Benchmark* b) {
  for (int64_t k : {2, 3, 4, 5, 6}) b->Args({k});
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_BMatch)->Apply(Bounds);
BENCHMARK(BM_BMatchFast)->Apply(Bounds);
BENCHMARK(BM_BMatchJoinMnl)->Apply(Bounds);
BENCHMARK(BM_BMatchJoinMin)->Apply(Bounds);

}  // namespace
}  // namespace bench
}  // namespace gpmv

BENCHMARK_MAIN();
