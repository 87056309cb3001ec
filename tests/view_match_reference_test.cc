/// Differential tests of the view-matching kernel and the planner against
/// the reference models in reference_view_match.h:
///   * over 240 seeded random query/view sets (plain, bounded and `*`
///     edges; DAG and cyclic shapes; self-loops; wildcard view nodes;
///     predicates; views that match nothing), ComputeAllViewMatches and
///     ComputeViewMatch equal ReferenceViewMatch view by view;
///   * on random patterns, minimization's similarity classes equal
///     ReferenceSimilarityClasses;
///   * over random graphs' statistics and view sets, PlanQuery returns the
///     same plan, field for field, as ReferencePlanQuery.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "core/containment.h"
#include "core/minimization.h"
#include "core/view_match.h"
#include "engine/planner.h"
#include "graph/statistics.h"
#include "reference_view_match.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

/// How often the generators produced each feature the kernel must handle.
struct Coverage {
  size_t self_loops = 0;
  size_t star_edges = 0;
  size_t bounded_edges = 0;
  size_t cyclic_queries = 0;
  size_t dag_queries = 0;
  size_t wildcard_view_nodes = 0;
  size_t predicates = 0;
  size_t matched_views = 0;
  size_t empty_views = 0;
};

enum class Flavor { kPlain, kBounded, kStar };

uint32_t RandomBound(Rng& rng, Flavor flavor) {
  if (flavor == Flavor::kPlain) return 1;
  if (flavor == Flavor::kStar && rng.NextBool(0.3)) return kUnbounded;
  return 1 + static_cast<uint32_t>(rng.NextBounded(4));
}

Predicate RandomPredicate(Rng& rng) {
  Predicate p;
  switch (rng.NextBounded(5)) {
    case 0:
      break;
    case 4:
      // Not provable from bounds: a node with it does not even simulate
      // itself.
      p.Ne("r", static_cast<int64_t>(rng.NextBounded(5)));
      break;
    case 1:
      p.Ge("r", static_cast<int64_t>(rng.NextBounded(5)));
      break;
    case 2:
      p.Le("r", static_cast<int64_t>(rng.NextBounded(5)));
      break;
    default:
      p.Ge("r", static_cast<int64_t>(rng.NextBounded(3)))
          .Le("r", static_cast<int64_t>(2 + rng.NextBounded(3)));
      break;
  }
  return p;
}

std::string RandomLabel(Rng& rng, const std::vector<std::string>& labels) {
  return labels[rng.NextBounded(labels.size())];
}

/// A random query: a connecting tree plus extra edges, acyclic (edges from
/// lower to higher index) or free (self-loops and back edges allowed).
Pattern RandomQuery(Rng& rng, Flavor flavor, bool dag,
                    const std::vector<std::string>& labels, Coverage* cov) {
  Pattern q;
  const uint32_t n = 1 + static_cast<uint32_t>(rng.NextBounded(6));
  for (uint32_t u = 0; u < n; ++u) {
    q.AddNode(RandomLabel(rng, labels), RandomPredicate(rng),
              "q" + std::to_string(u));
  }
  for (uint32_t v = 1; v < n; ++v) {
    uint32_t p = static_cast<uint32_t>(rng.NextBounded(v));
    if (!dag && rng.NextBool(0.5)) {
      (void)q.AddEdge(v, p, RandomBound(rng, flavor));
    } else {
      (void)q.AddEdge(p, v, RandomBound(rng, flavor));
    }
  }
  const uint64_t extra = rng.NextBounded(n + 1);
  for (uint64_t i = 0; i < extra; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.NextBounded(n));
    uint32_t b = static_cast<uint32_t>(rng.NextBounded(n));
    if (dag) {
      if (a == b) continue;
      if (a > b) std::swap(a, b);
    }
    (void)q.AddEdge(a, b, RandomBound(rng, flavor));
  }
  if (!dag && rng.NextBool(0.3)) {
    uint32_t a = static_cast<uint32_t>(rng.NextBounded(n));
    (void)q.AddEdge(a, a, RandomBound(rng, flavor));
  }
  if (cov != nullptr) {
    (q.IsDag() ? cov->dag_queries : cov->cyclic_queries) += 1;
    for (const PatternEdge& e : q.edges()) {
      cov->self_loops += e.src == e.dst ? 1 : 0;
      cov->star_edges += e.bound == kUnbounded ? 1 : 0;
      cov->bounded_edges += (e.bound != 1 && e.bound != kUnbounded) ? 1 : 0;
    }
    for (uint32_t u = 0; u < q.num_nodes(); ++u) {
      cov->predicates += q.node(u).pred.IsTrivial() ? 0 : 1;
    }
  }
  return q;
}

/// A view built from a random subset of q's edges: node conditions are kept,
/// weakened to a wildcard, or replaced; bounds are kept, loosened,
/// tightened or turned into `*`. Such views often match q, partly or fully.
Pattern DerivedView(Rng& rng, const Pattern& q, Coverage* cov) {
  Pattern view;
  std::vector<uint32_t> local(q.num_nodes(), kInvalidNode);
  auto node_of = [&](uint32_t u) {
    if (local[u] == kInvalidNode) {
      const PatternNode& qn = q.node(u);
      std::string label = qn.label;
      if (rng.NextBool(0.2)) {
        label.clear();
        if (cov != nullptr) ++cov->wildcard_view_nodes;
      }
      Predicate pred = rng.NextBool(0.6) ? qn.pred : RandomPredicate(rng);
      local[u] = view.AddNode(label, pred, "w" + std::to_string(u));
    }
    return local[u];
  };
  const uint64_t take = 1 + rng.NextBounded(3);
  for (uint64_t i = 0; i < take && q.num_edges() > 0; ++i) {
    const PatternEdge& qe = q.edge(
        static_cast<uint32_t>(rng.NextBounded(q.num_edges())));
    uint32_t bound = qe.bound;
    switch (rng.NextBounded(5)) {
      case 0:
        bound = kUnbounded;
        break;
      case 1:
        if (bound != kUnbounded) bound += 1 + rng.NextBounded(2);
        break;
      case 2:
        if (bound != kUnbounded && bound > 1) bound -= 1;
        break;
      default:
        break;
    }
    uint32_t a = node_of(qe.src);
    uint32_t b = node_of(qe.dst);
    (void)view.AddEdge(a, b, bound);
  }
  if (view.num_nodes() == 0) view.AddNode(RandomLabel(rng, {"A", "B"}));
  return view;
}

/// The views of one differential instance: derived views, independent
/// random views, and one view whose label no query node carries.
ViewSet RandomViews(Rng& rng, const Pattern& q,
                    const std::vector<std::string>& labels, Coverage* cov) {
  ViewSet views;
  const uint64_t derived = 1 + rng.NextBounded(4);
  for (uint64_t i = 0; i < derived; ++i) {
    views.Add("d" + std::to_string(i), DerivedView(rng, q, cov));
  }
  const uint64_t random = 1 + rng.NextBounded(3);
  for (uint64_t i = 0; i < random; ++i) {
    const Flavor f = static_cast<Flavor>(rng.NextBounded(3));
    Pattern v = RandomQuery(rng, f, rng.NextBool(0.5), labels, nullptr);
    views.Add("r" + std::to_string(i), std::move(v));
  }
  Pattern dead;
  uint32_t z = dead.AddNode("Z");
  uint32_t a = dead.AddNode(RandomLabel(rng, labels));
  (void)dead.AddEdge(a, z, RandomBound(rng, Flavor::kStar));
  views.Add("dead", std::move(dead));
  return views;
}

TEST(ViewMatchReferenceTest, AllViewMatchesEqualReferencePerView) {
  const std::vector<std::string> labels = {"A", "B", "C"};
  Coverage cov;
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const Flavor flavor = static_cast<Flavor>(seed % 3);
    const bool dag = (seed / 3) % 2 == 0;
    const Pattern q = RandomQuery(rng, flavor, dag, labels, &cov);
    const ViewSet views = RandomViews(rng, q, labels, &cov);

    Result<std::vector<ViewMatchResult>> all = ComputeAllViewMatches(q, views);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    ASSERT_EQ(all->size(), views.card());
    bool some_empty = false;
    for (uint32_t v = 0; v < views.card(); ++v) {
      SCOPED_TRACE("view=" + views.view(v).name);
      const Pattern& vp = views.view(v).pattern;
      Result<ViewMatchResult> ref = testutil::ReferenceViewMatch(vp, q);
      ASSERT_TRUE(ref.ok());
      EXPECT_EQ((*all)[v].per_view_edge, ref->per_view_edge);
      EXPECT_EQ((*all)[v].covered, ref->covered);
      Result<ViewMatchResult> one = ComputeViewMatch(vp, q);
      ASSERT_TRUE(one.ok());
      EXPECT_EQ(one->per_view_edge, ref->per_view_edge);
      EXPECT_EQ(one->covered, ref->covered);
      (ref->covered.empty() ? cov.empty_views : cov.matched_views) += 1;
      some_empty = some_empty || ref->covered.empty();
    }
    EXPECT_TRUE(some_empty);
  }
  // The generators reached every feature the kernel distinguishes.
  EXPECT_GT(cov.self_loops, 20u);
  EXPECT_GT(cov.star_edges, 20u);
  EXPECT_GT(cov.bounded_edges, 20u);
  EXPECT_GT(cov.cyclic_queries, 20u);
  EXPECT_GT(cov.dag_queries, 20u);
  EXPECT_GT(cov.wildcard_view_nodes, 20u);
  EXPECT_GT(cov.predicates, 20u);
  EXPECT_GT(cov.matched_views, 100u);
  EXPECT_GT(cov.empty_views, 240u);
}

/// `q` plus a twin of one node: same condition, same in- and out-edges, so
/// the two are mutually similar whenever the node simulates itself (the
/// Fig. 1 situation minimization collapses).
Pattern WithTwin(Rng& rng, const Pattern& q) {
  Pattern out;
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    out.AddNode(q.node(u).label, q.node(u).pred, q.node(u).name);
  }
  for (const PatternEdge& e : q.edges()) (void)out.AddEdge(e.src, e.dst, e.bound);
  const uint32_t v = static_cast<uint32_t>(rng.NextBounded(q.num_nodes()));
  const uint32_t twin = out.AddNode(q.node(v).label, q.node(v).pred, "twin");
  for (const PatternEdge& e : q.edges()) {
    if (e.src == v && e.dst == v) {
      (void)out.AddEdge(twin, twin, e.bound);
    } else if (e.dst == v) {
      (void)out.AddEdge(e.src, twin, e.bound);
    } else if (e.src == v) {
      (void)out.AddEdge(twin, e.dst, e.bound);
    }
  }
  return out;
}

TEST(ViewMatchReferenceTest, SimilarityClassesEqualReference) {
  const std::vector<std::string> labels = {"A", "B"};
  size_t collapsed = 0;
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 31);
    const Flavor flavor = static_cast<Flavor>(seed % 3);
    Pattern q = RandomQuery(rng, flavor, (seed / 3) % 2 == 0, labels, nullptr);
    if (seed % 2 == 0) q = WithTwin(rng, q);
    const std::vector<uint32_t> want = testutil::ReferenceSimilarityClasses(q);
    EXPECT_EQ(SimilarityClasses(q), want);
    Result<MinimizedPattern> min = MinimizePattern(q);
    ASSERT_TRUE(min.ok());
    collapsed += min->changed ? 1 : 0;
  }
  EXPECT_GT(collapsed, 20u);
}

void ExpectSamePlan(const QueryPlan& got, const QueryPlan& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.minimized.node_map, want.minimized.node_map);
  EXPECT_EQ(got.minimized.edge_map, want.minimized.edge_map);
  EXPECT_EQ(got.views_needed, want.views_needed);
  EXPECT_EQ(got.mapping.contained, want.mapping.contained);
  EXPECT_EQ(got.mapping.selected, want.mapping.selected);
  EXPECT_EQ(got.mapping.lambda, want.mapping.lambda);
  EXPECT_EQ(got.partial_lambda, want.partial_lambda);
  EXPECT_EQ(got.est_direct_cost, want.est_direct_cost);
  EXPECT_EQ(got.est_view_cost, want.est_view_cost);
}

TEST(ViewMatchReferenceTest, PlanQueryEqualsReferencePlanner) {
  // Query labels include one the graphs may lack (zero candidates) and a
  // wildcard (every node a candidate).
  const std::vector<std::string> labels = {"L0", "L1", "L2", "L3", ""};
  size_t kinds[3] = {0, 0, 0};
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 7919);
    RandomGraphOptions go;
    go.num_nodes = 40 + seed % 40;
    go.num_edges = go.num_nodes * (2 + seed % 3);
    go.num_labels = 3 + seed % 2;
    go.label_skew = (seed % 2 == 0) ? 0.8 : 0.0;
    go.seed = seed;
    Graph g = GenerateRandomGraph(go);
    const GraphStatistics gs = ComputeStatistics(g);

    const Flavor flavor = static_cast<Flavor>(seed % 3);
    const Pattern q =
        RandomQuery(rng, flavor, (seed / 3) % 2 == 0, labels, nullptr);
    ViewSet views;
    if (seed % 2 == 0 && q.num_edges() > 0 && q.HasNoIsolatedNode()) {
      CoveringViewOptions co;
      co.edges_per_view = 1 + seed % 2;
      co.num_distractors = 2;
      co.overlap_views = 1;
      co.seed = seed;
      views = GenerateCoveringViews(q, co);
    } else {
      views = RandomViews(rng, q, labels, nullptr);
    }
    // Some extensions live, the rest cold.
    Result<std::vector<ViewExtension>> live = MaterializeAll(views, *g.Freeze());
    ASSERT_TRUE(live.ok());
    std::vector<ViewExtension> exts(views.card());
    std::vector<uint8_t> materialized(views.card(), 0);
    for (uint32_t v = 0; v < views.card(); ++v) {
      if (rng.NextBool(0.6)) {
        exts[v] = (*live)[v];
        materialized[v] = 1;
      }
    }

    for (double advantage : {4.0, 1.0, 0.25, 0.0}) {
      const std::vector<uint8_t>* flag_sets[] = {&materialized, nullptr};
      for (const std::vector<uint8_t>* flags : flag_sets) {
        PlannerOptions opts;
        opts.view_cost_advantage = advantage;
        opts.historical = advantage == 1.0 && seed % 5 == 0;
        Result<QueryPlan> got = PlanQuery(q, views, exts, gs, opts, flags);
        Result<QueryPlan> want =
            testutil::ReferencePlanQuery(q, views, exts, gs, opts, flags);
        ASSERT_EQ(got.ok(), want.ok());
        if (!got.ok()) continue;
        ExpectSamePlan(*got, *want);
        ++kinds[static_cast<int>(got->kind)];
      }
    }
  }
  EXPECT_GT(kinds[static_cast<int>(PlanKind::kMatchJoin)], 10u);
  EXPECT_GT(kinds[static_cast<int>(PlanKind::kPartialViews)], 10u);
  EXPECT_GT(kinds[static_cast<int>(PlanKind::kDirect)], 10u);
}

}  // namespace
}  // namespace gpmv
