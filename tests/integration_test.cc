/// End-to-end integration tests: the full pipeline (generate -> serialize
/// -> materialize -> contain -> MatchJoin -> verify) and the dynamic
/// scenario the paper motivates — a cached-view layer kept fresh by
/// incremental maintenance while queries are answered from it.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/containment.h"
#include "core/match_join.h"
#include "core/rewriting.h"
#include "core/view_io.h"
#include "core/view_selection.h"
#include "engine/view_cache.h"
#include "graph/graph_io.h"
#include "pattern/pattern_io.h"
#include "simulation/bounded.h"
#include "simulation/simulation.h"
#include "workload/datasets.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

TEST(IntegrationTest, FileRoundTripPipeline) {
  // Everything through the serialization layer, as the CLI would do it.
  const std::string dir = ::testing::TempDir();
  Graph g0 = GenerateYoutubeLike(2000, 3);
  Pattern q0 = GenerateYoutubeQuery(6, 1, 4);
  ViewSet v0 = YoutubeViews(1);
  ASSERT_TRUE(WriteGraphFile(g0, dir + "/g.graph").ok());
  ASSERT_TRUE(WritePatternFile(q0, dir + "/q.pattern").ok());
  ASSERT_TRUE(WriteViewSetFile(v0, dir + "/v.views").ok());

  Graph g = std::move(ReadGraphFile(dir + "/g.graph")).value();
  Pattern q = std::move(ReadPatternFile(dir + "/q.pattern")).value();
  ViewSet views = std::move(ReadViewSetFile(dir + "/v.views")).value();

  auto exts = std::move(MaterializeAll(views, *g.Freeze())).value();
  auto mapping = std::move(MinimumContainment(q, views)).value();
  ASSERT_TRUE(mapping.contained);
  Result<MatchResult> joined = MatchJoin(q, views, exts, mapping);
  Result<MatchResult> direct = MatchBoundedSimulation(q, *g.Freeze());
  ASSERT_TRUE(joined.ok() && direct.ok());
  EXPECT_TRUE(*joined == *direct);
}

TEST(IntegrationTest, EvolvingGraphWithCachedViews) {
  // A long-lived cache: views installed once, the graph mutates, queries
  // keep being answered from the extensions ViewCache::RefreshForUpdates
  // maintains.
  RandomGraphOptions go;
  go.num_nodes = 150;
  go.num_edges = 450;
  go.num_labels = 4;
  go.seed = 21;
  Graph g = GenerateRandomGraph(go);

  RandomPatternOptions po;
  po.num_nodes = 4;
  po.num_edges = 5;
  po.label_pool = SyntheticLabels(4);
  po.seed = 22;
  Pattern q = GenerateRandomPattern(po);

  CoveringViewOptions co;
  co.edges_per_view = 2;
  co.num_distractors = 1;
  co.seed = 23;
  ViewSet views = GenerateCoveringViews(q, co);

  ViewCache cache;
  for (const ViewDefinition& def : views.views()) {
    const uint32_t id = cache.Register(def);
    std::vector<std::vector<NodeId>> relation;
    Result<ViewExtension> ext = ViewExtension::Materialize(
        def, *g.Freeze(), /*seed=*/nullptr, &relation);
    ASSERT_TRUE(ext.ok());
    cache.Install(id, std::move(ext).value(), std::move(relation),
                  /*pin=*/false);
  }
  auto mapping = std::move(CheckContainment(q, views)).value();
  ASSERT_TRUE(mapping.contained);

  Rng rng(24);
  for (int round = 0; round < 12; ++round) {
    // Mutate: one random deletion and one random insertion, each refreshed
    // as its own batch.
    for (int step = 0; step < 2; ++step) {
      NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
      if (u == v) continue;
      if (g.HasEdge(u, v)) {
        ASSERT_TRUE(g.RemoveEdge(u, v).ok());
        std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
        ASSERT_TRUE(
            cache.RefreshForUpdates(snap.get(), *snap, {{u, v}}, {}, {}).ok());
      } else {
        ASSERT_TRUE(g.AddEdge(u, v).ok());
        ASSERT_TRUE(
            cache.RefreshForUpdates(nullptr, *g.Freeze(), {}, {{u, v}}, {})
                .ok());
      }
    }
    // Answer from the maintained cache; must equal direct evaluation.
    Result<MatchResult> joined =
        MatchJoin(q, views, cache.extensions(), mapping);
    Result<MatchResult> direct = MatchSimulation(q, *g.Freeze());
    ASSERT_TRUE(joined.ok() && direct.ok());
    ASSERT_TRUE(*joined == *direct) << "round " << round;
  }
  EXPECT_TRUE(cache.CheckConsistency(/*expect_unpinned=*/true));
}

TEST(IntegrationTest, SelectionThenAnsweringOnDataset) {
  // Plan a cache for a YouTube workload with the selection module, then
  // answer: contained queries exactly, the rest via rewriting.
  Graph g = GenerateYoutubeLike(2500, 31);
  std::vector<Pattern> workload;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    workload.push_back(GenerateYoutubeQuery(6, 1, seed + 40));
  }
  ViewSet candidates = CandidateViewsFromWorkload(workload);
  ViewSelectionOptions opts;
  opts.max_views = 5;
  ViewSelectionResult plan =
      std::move(SelectViews(workload, candidates, opts)).value();
  ViewSet cache;
  for (uint32_t vi : plan.selected) cache.Add(candidates.view(vi));
  auto exts = std::move(MaterializeAll(cache, *g.Freeze())).value();

  size_t exact = 0, partial = 0;
  for (const Pattern& q : workload) {
    auto mapping = std::move(CheckContainment(q, cache)).value();
    Result<MatchResult> direct = MatchSimulation(q, *g.Freeze());
    ASSERT_TRUE(direct.ok());
    if (mapping.contained) {
      Result<MatchResult> joined = MatchJoin(q, cache, exts, mapping);
      ASSERT_TRUE(joined.ok());
      EXPECT_TRUE(*joined == *direct);
      ++exact;
    } else {
      Result<PartialAnswer> pa = MaximallyContainedRewriting(q, cache, exts);
      ASSERT_TRUE(pa.ok());
      if (direct->matched()) {
        for (uint32_t se = 0; se < pa->subquery.num_edges(); ++se) {
          const auto& approx = pa->result.edge_matches(se);
          for (const NodePair& p :
               direct->edge_matches(pa->original_edge_of[se])) {
            EXPECT_TRUE(
                std::binary_search(approx.begin(), approx.end(), p));
          }
        }
      }
      ++partial;
    }
  }
  EXPECT_EQ(exact, plan.answerable_count);
  EXPECT_EQ(exact + partial, workload.size());
}

TEST(IntegrationTest, BoundedPipelineOnCitation) {
  Graph g = GenerateCitationLike(3000, 51);
  ViewSet views = CitationViews(2);
  auto exts = std::move(MaterializeAll(views, *g.Freeze())).value();
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Pattern q = GenerateCitationQuery(4, 5, 2, seed + 60);
    auto mapping = std::move(MinimalContainment(q, views)).value();
    ASSERT_TRUE(mapping.contained) << seed;
    Result<MatchResult> joined = MatchJoin(q, views, exts, mapping);
    Result<MatchResult> direct = MatchBoundedSimulation(q, *g.Freeze());
    ASSERT_TRUE(joined.ok() && direct.ok());
    EXPECT_TRUE(*joined == *direct) << seed;
  }
}

}  // namespace
}  // namespace gpmv
