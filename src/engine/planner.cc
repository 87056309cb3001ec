#include "engine/planner.h"

#include <algorithm>
#include <string>

#include "graph/traversal.h"  // kUnbounded

namespace gpmv {

namespace {

/// Cost charged per merged view pair (merge + fixpoint rescans).
constexpr double kJoinPairFactor = 2.0;

/// Cap on the BFS depth a bounded edge contributes to a cost estimate
/// (`*` bounds count as the cap).
constexpr uint32_t kBoundedCostCap = 8;

/// Edges one candidate's bounded BFS ball may scan: the geometric series
/// sum_{i=1..d} max(deg, 1)^i at depth d = min(bound, kBoundedCostCap),
/// clamped to |E| — no walk scans more than the whole graph. The first
/// layer absorbs the old flat degree term, and on sparse graphs (deg <= 1)
/// the series degenerates to the depth itself, keeping the estimate
/// strictly monotone in the bound.
double BallEdges(uint32_t bound, const GraphStatistics& gs) {
  const uint32_t depth =
      bound == kUnbounded ? kBoundedCostCap : std::min(bound, kBoundedCostCap);
  const double deg = std::max(1.0, gs.avg_out_degree);
  double sum = 0.0;
  double layer = 1.0;
  for (uint32_t i = 0; i < depth; ++i) {
    layer *= deg;
    sum += layer;
    if (sum >= static_cast<double>(gs.num_edges) && deg > 1.0) break;
  }
  const double whole_graph =
      std::max(static_cast<double>(depth), static_cast<double>(gs.num_edges));
  return std::max(1.0, std::min(sum, whole_graph));
}

/// Nodes carrying `label` in the graph `gs` describes (0 when absent), read
/// straight off the histogram: graphs carry a handful of labels, so a scan
/// is cheaper than building a map on every plan.
double LabelCount(const GraphStatistics& gs, const std::string& label) {
  for (const auto& [name, count] : gs.label_histogram) {
    if (name == label) return static_cast<double>(count);
  }
  return 0.0;
}

/// Candidate-set size estimate of one pattern node (a wildcard matches
/// every node).
double EstimateCandidates(const PatternNode& pn, const GraphStatistics& gs) {
  return pn.label.empty() ? static_cast<double>(gs.num_nodes)
                          : LabelCount(gs, pn.label);
}

/// Estimated pairs a cold view edge materializes: candidate sources times
/// the per-candidate ball size, never more than |E| for unit bounds.
double EstimateViewEdgePairs(const Pattern& view, uint32_t e,
                             const GraphStatistics& gs) {
  const PatternEdge& pe = view.edge(e);
  const double pairs =
      EstimateCandidates(view.node(pe.src), gs) * BallEdges(pe.bound, gs);
  if (pe.bound == 1) return std::min(pairs, static_cast<double>(gs.num_edges));
  return pairs;
}

MinimizedPattern IdentityMinimization(const Pattern& q) {
  MinimizedPattern m;
  m.pattern = q;
  m.node_map.resize(q.num_nodes());
  for (uint32_t u = 0; u < q.num_nodes(); ++u) m.node_map[u] = u;
  m.edge_map.resize(q.num_edges());
  for (uint32_t e = 0; e < q.num_edges(); ++e) m.edge_map[e] = e;
  m.changed = false;
  return m;
}

}  // namespace

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kMatchJoin:
      return "match_join";
    case PlanKind::kPartialViews:
      return "partial_views";
    case PlanKind::kDirect:
      return "direct";
  }
  return "unknown";
}

double EstimateDirectCost(const Pattern& q, const GraphStatistics& gs) {
  double cost = 0.0;
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    cost += EstimateCandidates(q.node(u), gs);
  }
  for (uint32_t e = 0; e < q.num_edges(); ++e) {
    const PatternEdge& pe = q.edge(e);
    cost += EstimateCandidates(q.node(pe.src), gs) * BallEdges(pe.bound, gs);
  }
  return cost;
}

Result<QueryPlan> PlanQuery(const Pattern& q, const ViewSet& views,
                            const std::vector<ViewExtension>& exts,
                            const GraphStatistics& gs,
                            const PlannerOptions& opts,
                            const std::vector<uint8_t>* materialized) {
  if (exts.size() != views.card()) {
    return Status::InvalidArgument("one extension slot per view required");
  }
  if (materialized != nullptr && materialized->size() != views.card()) {
    return Status::InvalidArgument("one materialized flag per view required");
  }
  QueryPlan plan;
  if (q.num_edges() > 0) {
    Result<MinimizedPattern> min = MinimizePattern(q);
    GPMV_RETURN_NOT_OK(min.status());
    plan.minimized = std::move(min).value();
  } else {
    plan.minimized = IdentityMinimization(q);
  }
  const Pattern& mq = plan.minimized.pattern;
  plan.est_direct_cost = EstimateDirectCost(mq, gs);

  // Degenerate queries (no edges, isolated nodes) and a disabled cost
  // advantage always evaluate directly; so do an empty registry and
  // historical (AS OF) plans, whose views describe the wrong cut.
  if (opts.historical || mq.num_edges() == 0 || !mq.HasNoIsolatedNode() ||
      opts.view_cost_advantage <= 0.0 || views.card() == 0) {
    plan.kind = PlanKind::kDirect;
    return plan;
  }

  // Is view `v`'s extension live in the cache? With explicit flags this
  // also recognizes a cached view that matched nothing; the structural
  // fallback cannot, and treats it as cold.
  auto is_live = [&](uint32_t v) {
    return materialized != nullptr ? (*materialized)[v] != 0
                                   : exts[v].num_view_edges() > 0;
  };
  auto cold_view_cost = [&](uint32_t v) {
    return EstimateDirectCost(views.view(v).pattern, gs);
  };
  auto view_edge_pairs = [&](const ViewEdgeRef& ref) {
    if (is_live(ref.view)) {
      return static_cast<double>(exts[ref.view].edge(ref.edge).pairs.size());
    }
    return EstimateViewEdgePairs(views.view(ref.view).pattern, ref.edge, gs);
  };

  // One pass of view matching serves both the containment check and, when
  // Q is not contained, the partial cover.
  Result<std::vector<ViewMatchResult>> vms = ComputeAllViewMatches(mq, views);
  GPMV_RETURN_NOT_OK(vms.status());
  ContainmentMapping mapping = MinimumContainmentFromMatches(mq, *vms);

  if (mapping.contained) {
    double est = 0.0;
    for (uint32_t v : mapping.selected) {
      if (!is_live(v)) est += cold_view_cost(v);
    }
    for (const auto& refs : mapping.lambda) {
      for (const ViewEdgeRef& ref : refs) {
        est += kJoinPairFactor * view_edge_pairs(ref);
      }
    }
    plan.est_view_cost = est;
    if (est <= opts.view_cost_advantage * plan.est_direct_cost) {
      plan.kind = PlanKind::kMatchJoin;
      plan.mapping = std::move(mapping);
      plan.views_needed = plan.mapping.selected;
      return plan;
    }
    plan.kind = PlanKind::kDirect;
    return plan;
  }

  // Not contained: can a subset of edges still be served from views?
  plan.partial_lambda.assign(mq.num_edges(), {});
  for (uint32_t v = 0; v < views.card(); ++v) {
    const ViewMatchResult& vm = (*vms)[v];
    for (uint32_t ev = 0; ev < vm.per_view_edge.size(); ++ev) {
      for (uint32_t qe : vm.per_view_edge[ev]) {
        plan.partial_lambda[qe].push_back(ViewEdgeRef{v, ev});
      }
    }
  }
  size_t covered = 0;
  double est = 0.0;
  std::vector<uint32_t> needed;
  for (uint32_t e = 0; e < mq.num_edges(); ++e) {
    if (plan.partial_lambda[e].empty()) continue;
    ++covered;
    for (const ViewEdgeRef& ref : plan.partial_lambda[e]) {
      est += view_edge_pairs(ref);
      needed.push_back(ref.view);
    }
  }
  if (covered == 0) {
    plan.kind = PlanKind::kDirect;
    plan.partial_lambda.clear();
    return plan;
  }
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  for (uint32_t v : needed) {
    if (!is_live(v)) est += cold_view_cost(v);
  }
  // The fallback still walks G, but only from view-restricted candidates;
  // charge it the direct cost scaled by the uncovered fraction.
  est += plan.est_direct_cost *
         static_cast<double>(mq.num_edges() - covered + 1) /
         static_cast<double>(mq.num_edges() + 1);
  plan.est_view_cost = est;
  if (est <= opts.view_cost_advantage * plan.est_direct_cost) {
    plan.kind = PlanKind::kPartialViews;
    plan.views_needed = std::move(needed);
  } else {
    plan.kind = PlanKind::kDirect;
    plan.partial_lambda.clear();
  }
  return plan;
}

}  // namespace gpmv
