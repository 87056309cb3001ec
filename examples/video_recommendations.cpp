/// \file video_recommendations.cpp
/// \brief YouTube-style scenario: a recommendation service keeps the 12
/// predicate views of Fig. 7 materialized over a large video graph and
/// answers incoming pattern queries (and bounded variants) from the cache,
/// comparing wall-clock time against direct evaluation.
///
///   ./build/examples/video_recommendations [num_videos]

#include <cstdio>
#include <cstdlib>

#include "common/stopwatch.h"
#include "core/containment.h"
#include "core/match_join.h"
#include "simulation/bounded.h"
#include "workload/datasets.h"

using namespace gpmv;

int main(int argc, char** argv) {
  const size_t num_videos =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60000;

  std::printf("Generating YouTube-like graph with %zu videos...\n",
              num_videos);
  Graph g = GenerateYoutubeLike(num_videos, 2024);
  std::printf("  %zu nodes, %zu related-video edges\n\n", g.num_nodes(),
              g.num_edges());

  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  ViewSet views = YoutubeViews(1);
  Stopwatch sw;
  auto exts = std::move(MaterializeAll(views, *snap)).value();
  std::printf("Materialized the 12 views of Fig. 7 in %.1f ms "
              "(%zu cached pairs, %.1f%% of |E|)\n\n",
              sw.ElapsedMillis(), TotalExtensionPairs(exts),
              100.0 * static_cast<double>(TotalExtensionPairs(exts)) /
                  static_cast<double>(g.num_edges()));

  double total_direct = 0, total_views = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Pattern q = GenerateYoutubeQuery(/*target_edges=*/8, /*bound=*/1, seed);

    ContainmentMapping mapping =
        std::move(MinimumContainment(q, views)).value();
    if (!mapping.contained) {
      std::printf("query %llu not answerable from the cache, skipping\n",
                  static_cast<unsigned long long>(seed));
      continue;
    }

    sw.Restart();
    MatchResult direct = std::move(MatchBoundedSimulation(q, *snap)).value();
    double t_direct = sw.ElapsedMillis();

    sw.Restart();
    MatchResult cached = std::move(MatchJoin(q, views, exts, mapping)).value();
    double t_views = sw.ElapsedMillis();

    total_direct += t_direct;
    total_views += t_views;
    std::printf(
        "query %llu (%zu nodes, %zu edges): direct %7.1f ms | views %6.1f ms "
        "(%zu of 12 views) | %zu matches | %s\n",
        static_cast<unsigned long long>(seed), q.num_nodes(), q.num_edges(),
        t_direct, t_views, mapping.selected.size(), cached.TotalMatches(),
        cached == direct ? "identical" : "MISMATCH");
  }
  if (total_views > 0) {
    std::printf("\nView-based answering used %.0f%% of the direct time.\n",
                100.0 * total_views / total_direct);
  }

  // A bounded query: "highly rated music within 2 recommendation hops of a
  // popular sports video".
  std::printf("\nBounded query (fe = 2) over bounded views:\n");
  ViewSet bviews = YoutubeViews(2);
  sw.Restart();
  auto bexts = std::move(MaterializeAll(bviews, *snap)).value();
  std::printf("  materialized bounded views in %.1f ms (%zu pairs)\n",
              sw.ElapsedMillis(), TotalExtensionPairs(bexts));

  Pattern qb = GenerateYoutubeQuery(6, 2, 42);
  ContainmentMapping bmapping =
      std::move(MinimumContainment(qb, bviews)).value();
  if (bmapping.contained) {
    sw.Restart();
    MatchResult direct = std::move(MatchBoundedSimulation(qb, *snap)).value();
    double t_direct = sw.ElapsedMillis();
    sw.Restart();
    MatchResult cached =
        std::move(MatchJoin(qb, bviews, bexts, bmapping)).value();
    double t_views = sw.ElapsedMillis();
    std::printf("  BMatch %7.1f ms | BMatchJoin %6.1f ms | %zu matches | %s\n",
                t_direct, t_views, cached.TotalMatches(),
                cached == direct ? "identical" : "MISMATCH");
  }
  return 0;
}
