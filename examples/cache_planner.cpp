/// \file cache_planner.cpp
/// \brief End-to-end "cache planning" scenario combining the Section VIII
/// extensions: given a workload of recurring pattern queries,
///   1. derive candidate views from the workload (view_selection.h),
///   2. pick a budgeted subset that answers as much as possible,
///   3. materialize the chosen views,
///   4. answer each query — exactly via MatchJoin when contained, and via
///      maximally contained rewriting (rewriting.h) when the budget left
///      gaps.
///
///   ./build/examples/cache_planner [budget]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/stopwatch.h"
#include "core/containment.h"
#include "core/match_join.h"
#include "core/rewriting.h"
#include "core/view_selection.h"
#include "simulation/simulation.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

using namespace gpmv;

int main(int argc, char** argv) {
  const size_t budget = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 6;

  // A shared data graph and a workload of recurring queries.
  RandomGraphOptions go;
  go.num_nodes = 50000;
  go.num_edges = 150000;
  go.num_labels = 6;
  go.seed = 2026;
  Graph g = GenerateRandomGraph(go);
  std::printf("data graph: %zu nodes, %zu edges\n", g.num_nodes(),
              g.num_edges());

  std::vector<Pattern> workload;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomPatternOptions po;
    po.num_nodes = 3 + seed % 3;
    po.num_edges = po.num_nodes + 1;
    po.label_pool = SyntheticLabels(6);
    po.seed = seed;
    workload.push_back(GenerateRandomPattern(po));
  }
  std::printf("workload: %zu recurring queries\n\n", workload.size());

  // 1-2. Candidate views from the workload, budgeted greedy selection.
  ViewSet candidates = CandidateViewsFromWorkload(workload);
  ViewSelectionOptions opts;
  opts.max_views = budget;
  ViewSelectionResult plan =
      std::move(SelectViews(workload, candidates, opts)).value();
  std::printf(
      "candidate library: %zu views; selected %zu within budget %zu\n"
      "fully answerable queries: %zu/%zu, covered edges %zu/%zu\n\n",
      candidates.card(), plan.selected.size(), budget, plan.answerable_count,
      workload.size(), plan.covered_edges, plan.total_edges);

  ViewSet cache;
  for (uint32_t vi : plan.selected) cache.Add(candidates.view(vi));

  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  // 3. Materialize the chosen cache.
  Stopwatch sw;
  auto exts = std::move(MaterializeAll(cache, *snap)).value();
  std::printf("materialized cache in %.1f ms (%zu pairs)\n\n",
              sw.ElapsedMillis(), TotalExtensionPairs(exts));

  // 4. Answer the workload from the cache.
  for (size_t i = 0; i < workload.size(); ++i) {
    const Pattern& q = workload[i];
    ContainmentMapping mapping =
        std::move(MinimumContainment(q, cache)).value();
    if (mapping.contained) {
      sw.Restart();
      MatchResult r = std::move(MatchJoin(q, cache, exts, mapping)).value();
      double t = sw.ElapsedMillis();
      MatchResult direct = std::move(MatchSimulation(q, *snap)).value();
      std::printf("query %zu: EXACT via %zu views, %6.1f ms, %zu pairs (%s)\n",
                  i, mapping.selected.size(), t, r.TotalMatches(),
                  r == direct ? "verified" : "MISMATCH");
    } else {
      PartialAnswer pa =
          std::move(MaximallyContainedRewriting(q, cache, exts)).value();
      std::printf(
          "query %zu: PARTIAL — %zu/%zu edges answerable from cache, "
          "%zu candidate pairs (sound over-approximation)\n",
          i, pa.covered_edges.size(), q.num_edges(),
          pa.result.TotalMatches());
    }
  }
  return 0;
}
