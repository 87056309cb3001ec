/// \file reference_view_match.h
/// \brief Reference models for view matching and query planning, kept in
/// the test suite so the library has one implementation of each.
///
///  * ReferenceViewMatch — M^Q_V computed the direct way, one view at a
///    time: Q's nonempty weighted distances and reachability are rebuilt as
///    nested matrices for every view (BFS reachability, Floyd-Warshall plus
///    one edge step for the distances), then the same fixpoint as the
///    paper's simulation of V over Q.
///  * ReferencePlanQuery — the planner's decision procedure written out on
///    top of ReferenceViewMatch: view matches computed per view (twice when
///    Q is not contained, once for containment and once for the partial
///    cover), and label counts from a hash map built on every plan.
///
///  * ReferenceSimilarityClasses — minimization's similarity classes from
///    the same per-call matrices, the pattern simulated over itself.
///
/// The library versions (core/view_match.h, core/minimization.h,
/// engine/planner.h) share Q's side across views and read the histogram
/// directly; the differential tests require identical results.

#ifndef GPMV_TESTS_REFERENCE_VIEW_MATCH_H_
#define GPMV_TESTS_REFERENCE_VIEW_MATCH_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/containment.h"
#include "core/minimization.h"
#include "core/view.h"
#include "core/view_match.h"
#include "engine/planner.h"
#include "graph/statistics.h"
#include "pattern/pattern.h"

namespace gpmv {
namespace testutil {

namespace reference_detail {

/// ndist[u][u'] = least total bound of a path with >= 1 edge from u to u'
/// (kInfDistance if none).
inline std::vector<std::vector<uint64_t>> NonemptyDistances(const Pattern& q) {
  std::vector<std::vector<uint64_t>> dist = q.WeightedDistances();
  const size_t n = q.num_nodes();
  std::vector<std::vector<uint64_t>> ndist(
      n, std::vector<uint64_t>(n, kInfDistance));
  for (const PatternEdge& e : q.edges()) {
    uint64_t w = (e.bound == kUnbounded) ? kInfDistance : e.bound;
    if (w == kInfDistance) continue;
    for (size_t t = 0; t < n; ++t) {
      if (dist[e.dst][t] == kInfDistance) continue;
      uint64_t via = w + dist[e.dst][t];
      if (via < ndist[e.src][t]) ndist[e.src][t] = via;
    }
  }
  return ndist;
}

/// reach[u][u'] — a nonempty path from u to u' over edges of any bound.
inline std::vector<std::vector<char>> NonemptyReachability(const Pattern& q) {
  const size_t n = q.num_nodes();
  std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
  const auto adj = q.Adjacency();
  for (size_t s = 0; s < n; ++s) {
    std::vector<uint32_t> stack(adj[s].begin(), adj[s].end());
    while (!stack.empty()) {
      uint32_t v = stack.back();
      stack.pop_back();
      if (reach[s][v]) continue;
      reach[s][v] = 1;
      for (uint32_t w : adj[v]) {
        if (!reach[s][w]) stack.push_back(w);
      }
    }
  }
  return reach;
}

inline bool DistanceWithin(uint64_t ndist, bool reachable,
                           uint32_t view_bound) {
  if (view_bound == kUnbounded) return reachable;
  return ndist != kInfDistance && ndist <= static_cast<uint64_t>(view_bound);
}

inline bool BoundCovered(uint32_t query_bound, uint32_t view_bound) {
  if (view_bound == kUnbounded) return true;
  if (query_bound == kUnbounded) return false;
  return query_bound <= view_bound;
}

}  // namespace reference_detail

/// M^Q_V for one view, rebuilding Q's side on every call.
inline Result<ViewMatchResult> ReferenceViewMatch(const Pattern& view,
                                                  const Pattern& q) {
  using namespace reference_detail;
  if (view.num_nodes() == 0 || q.num_nodes() == 0) {
    return Status::InvalidArgument("empty pattern");
  }
  const size_t nv = view.num_nodes();
  const size_t nq = q.num_nodes();

  std::vector<std::vector<char>> rel(nv, std::vector<char>(nq, 0));
  for (size_t w = 0; w < nv; ++w) {
    for (size_t u = 0; u < nq; ++u) {
      rel[w][u] = QueryNodeMatchesViewNode(q.node(static_cast<uint32_t>(u)),
                                           view.node(static_cast<uint32_t>(w)))
                      ? 1
                      : 0;
    }
  }

  const std::vector<std::vector<uint64_t>> ndist = NonemptyDistances(q);
  const std::vector<std::vector<char>> reach = NonemptyReachability(q);

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t w = 0; w < nv; ++w) {
      for (size_t u = 0; u < nq; ++u) {
        if (!rel[w][u]) continue;
        bool ok = true;
        for (uint32_t ev : view.out_edges(static_cast<uint32_t>(w))) {
          const PatternEdge& ve = view.edge(ev);
          bool found = false;
          for (size_t u2 = 0; u2 < nq && !found; ++u2) {
            found = rel[ve.dst][u2] &&
                    DistanceWithin(ndist[u][u2], reach[u][u2] != 0, ve.bound);
          }
          if (!found) {
            ok = false;
            break;
          }
        }
        if (!ok) {
          rel[w][u] = 0;
          changed = true;
        }
      }
    }
  }

  ViewMatchResult result;
  result.per_view_edge.assign(view.num_edges(), {});
  for (size_t w = 0; w < nv; ++w) {
    bool any = false;
    for (size_t u = 0; u < nq; ++u) any = any || rel[w][u];
    if (!any) return result;
  }
  for (uint32_t ev = 0; ev < view.num_edges(); ++ev) {
    const PatternEdge& ve = view.edge(ev);
    auto& covered_edges = result.per_view_edge[ev];
    for (uint32_t e = 0; e < q.num_edges(); ++e) {
      const PatternEdge& qe = q.edge(e);
      if (rel[ve.src][qe.src] && rel[ve.dst][qe.dst] &&
          BoundCovered(qe.bound, ve.bound)) {
        covered_edges.push_back(e);
      }
    }
    for (uint32_t e : covered_edges) result.covered.push_back(e);
  }
  std::sort(result.covered.begin(), result.covered.end());
  result.covered.erase(
      std::unique(result.covered.begin(), result.covered.end()),
      result.covered.end());
  return result;
}

/// Every view's ReferenceViewMatch against `q`, in registry order.
inline Result<std::vector<ViewMatchResult>> ReferenceAllViewMatches(
    const Pattern& q, const ViewSet& views) {
  std::vector<ViewMatchResult> matches;
  for (const ViewDefinition& def : views.views()) {
    Result<ViewMatchResult> vm = ReferenceViewMatch(def.pattern, q);
    GPMV_RETURN_NOT_OK(vm.status());
    matches.push_back(std::move(vm).value());
  }
  return matches;
}

/// The mutual-similarity classes of minimization.h, from a self-simulation
/// fixpoint over the nested reference matrices.
inline std::vector<uint32_t> ReferenceSimilarityClasses(const Pattern& q) {
  using namespace reference_detail;
  const size_t n = q.num_nodes();
  const std::vector<std::vector<uint64_t>> ndist = NonemptyDistances(q);
  const std::vector<std::vector<char>> reach = NonemptyReachability(q);
  // rel[v][u]: node v simulates node u.
  std::vector<std::vector<char>> rel(n, std::vector<char>(n, 0));
  for (size_t v = 0; v < n; ++v) {
    for (size_t u = 0; u < n; ++u) {
      rel[v][u] = QueryNodeMatchesViewNode(q.node(static_cast<uint32_t>(u)),
                                           q.node(static_cast<uint32_t>(v)))
                      ? 1
                      : 0;
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t v = 0; v < n; ++v) {
      for (size_t u = 0; u < n; ++u) {
        if (!rel[v][u]) continue;
        bool ok = true;
        for (uint32_t ev : q.out_edges(static_cast<uint32_t>(v))) {
          const PatternEdge& pe = q.edge(ev);
          bool found = false;
          for (size_t u2 = 0; u2 < n && !found; ++u2) {
            found = rel[pe.dst][u2] &&
                    DistanceWithin(ndist[u][u2], reach[u][u2] != 0, pe.bound);
          }
          if (!found) {
            ok = false;
            break;
          }
        }
        if (!ok) {
          rel[v][u] = 0;
          changed = true;
        }
      }
    }
  }
  auto same_condition = [](const PatternNode& a, const PatternNode& b) {
    return a.label == b.label && a.pred.Implies(b.pred) &&
           b.pred.Implies(a.pred);
  };
  std::vector<uint32_t> cls(n, static_cast<uint32_t>(-1));
  uint32_t next = 0;
  for (uint32_t u = 0; u < n; ++u) {
    if (cls[u] != static_cast<uint32_t>(-1)) continue;
    cls[u] = next;
    for (uint32_t v = u + 1; v < n; ++v) {
      if (cls[v] != static_cast<uint32_t>(-1)) continue;
      if (rel[u][v] && rel[v][u] && same_condition(q.node(u), q.node(v))) {
        cls[v] = next;
      }
    }
    ++next;
  }
  return cls;
}

namespace reference_detail {

constexpr double kJoinPairFactor = 2.0;
constexpr uint32_t kBoundedCostCap = 8;

inline double BallEdges(uint32_t bound, const GraphStatistics& gs) {
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

using LabelCounts = std::unordered_map<std::string, size_t>;

inline LabelCounts BuildLabelCounts(const GraphStatistics& gs) {
  LabelCounts counts;
  for (const auto& [label, count] : gs.label_histogram) {
    counts.emplace(label, count);
  }
  return counts;
}

inline std::vector<double> EstimateCandidates(const Pattern& q,
                                              const GraphStatistics& gs,
                                              const LabelCounts& label_count) {
  std::vector<double> cand(q.num_nodes());
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    const PatternNode& pn = q.node(u);
    if (pn.label.empty()) {
      cand[u] = static_cast<double>(gs.num_nodes);
    } else {
      auto it = label_count.find(pn.label);
      cand[u] = it == label_count.end() ? 0.0 : static_cast<double>(it->second);
    }
  }
  return cand;
}

inline double DirectCost(const Pattern& q, const GraphStatistics& gs,
                         const LabelCounts& label_count) {
  std::vector<double> cand = EstimateCandidates(q, gs, label_count);
  double cost = 0.0;
  for (uint32_t u = 0; u < q.num_nodes(); ++u) cost += cand[u];
  for (uint32_t e = 0; e < q.num_edges(); ++e) {
    const PatternEdge& pe = q.edge(e);
    cost += cand[pe.src] * BallEdges(pe.bound, gs);
  }
  return cost;
}

inline double ViewEdgePairs(const Pattern& view, uint32_t e,
                            const std::vector<double>& cand,
                            const GraphStatistics& gs) {
  const PatternEdge& pe = view.edge(e);
  const double pairs = cand[pe.src] * BallEdges(pe.bound, gs);
  if (pe.bound == 1) return std::min(pairs, static_cast<double>(gs.num_edges));
  return pairs;
}

}  // namespace reference_detail

/// PlanQuery's contract evaluated the direct way (see the file comment).
inline Result<QueryPlan> ReferencePlanQuery(
    const Pattern& q, const ViewSet& views,
    const std::vector<ViewExtension>& exts, const GraphStatistics& gs,
    const PlannerOptions& opts = {},
    const std::vector<uint8_t>* materialized = nullptr) {
  using namespace reference_detail;
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
    plan.minimized.pattern = q;
    for (uint32_t u = 0; u < q.num_nodes(); ++u) {
      plan.minimized.node_map.push_back(u);
    }
    for (uint32_t e = 0; e < q.num_edges(); ++e) {
      plan.minimized.edge_map.push_back(e);
    }
    plan.minimized.changed = false;
  }
  const Pattern& mq = plan.minimized.pattern;
  const LabelCounts label_count = BuildLabelCounts(gs);
  plan.est_direct_cost = DirectCost(mq, gs, label_count);
  if (opts.historical || mq.num_edges() == 0 || !mq.HasNoIsolatedNode() ||
      opts.view_cost_advantage <= 0.0 || views.card() == 0) {
    plan.kind = PlanKind::kDirect;
    return plan;
  }
  auto is_live = [&](uint32_t v) {
    return materialized != nullptr ? (*materialized)[v] != 0
                                   : exts[v].num_view_edges() > 0;
  };
  auto cold_view_cost = [&](uint32_t v) {
    return DirectCost(views.view(v).pattern, gs, label_count);
  };
  auto view_edge_pairs = [&](const ViewEdgeRef& ref) {
    if (is_live(ref.view)) {
      return static_cast<double>(exts[ref.view].edge(ref.edge).pairs.size());
    }
    const Pattern& vp = views.view(ref.view).pattern;
    std::vector<double> cand = EstimateCandidates(vp, gs, label_count);
    return ViewEdgePairs(vp, ref.edge, cand, gs);
  };

  Result<std::vector<ViewMatchResult>> contain_vms =
      ReferenceAllViewMatches(mq, views);
  GPMV_RETURN_NOT_OK(contain_vms.status());
  ContainmentMapping mapping = MinimumContainmentFromMatches(mq, *contain_vms);
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

  Result<std::vector<ViewMatchResult>> vms = ReferenceAllViewMatches(mq, views);
  GPMV_RETURN_NOT_OK(vms.status());
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

}  // namespace testutil
}  // namespace gpmv

#endif  // GPMV_TESTS_REFERENCE_VIEW_MATCH_H_
