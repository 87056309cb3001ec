/// \file planner.h
/// \brief Query planning for the view-cache engine: decide per query whether
/// to answer from materialized views (MatchJoin, Section III / VI-A), from
/// partial views plus a seeded fallback on G (maximally contained rewriting,
/// Section VIII), or directly on G ((bounded) simulation), using cost
/// estimates derived from graph/statistics.
///
/// Planning pipeline:
///  1. minimize the query via the similarity quotient (minimization.h) —
///     every downstream step works on the smaller equivalent query, and the
///     engine expands match sets back through edge_map;
///  2. compute the view match of every registered view once
///     (ComputeAllViewMatches: one query-side context for all views) and run
///     minimum containment over those matches;
///  3. contained -> compare the estimated MatchJoin cost (merged view pairs,
///     plus materialization for cold views) against the estimated direct
///     cost (candidates x degree, scaled by edge bounds; candidate counts
///     are read straight off GraphStatistics::label_histogram);
///     pick kMatchJoin or kDirect;
///  4. not contained -> the same view matches give the partial cover; if
///     some query edges are covered, pick kPartialViews:
///     the engine merges the covering view pairs into per-node candidate
///     seeds and runs direct evaluation restricted to them (sound: dropping
///     pattern edges only grows match sets, so view-derived candidates
///     over-approximate the true relation); otherwise kDirect.
///
/// The planner never touches extension *contents* — only whether a view is
/// materialized (for the cold-materialization cost term) — so it runs under
/// the engine's shared registry lock.

#ifndef GPMV_ENGINE_PLANNER_H_
#define GPMV_ENGINE_PLANNER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/containment.h"
#include "core/minimization.h"
#include "core/view.h"
#include "graph/statistics.h"
#include "pattern/pattern.h"

namespace gpmv {

/// How a query will be evaluated.
enum class PlanKind {
  kMatchJoin,     ///< Q ⊑ V: answer from view extensions only
  kPartialViews,  ///< partial cover: view-seeded direct evaluation
  kDirect,        ///< (bounded) simulation on G
};

const char* PlanKindName(PlanKind kind);

/// Planner knobs.
struct PlannerOptions {
  /// Choose a view plan when est_view_cost <= advantage * est_direct_cost.
  /// > 1 biases toward views (they also spare G's memory bandwidth);
  /// 0 disables view plans entirely (cost-model kill switch).
  double view_cost_advantage = 4.0;
  /// Plan for a *historical* (`AS OF`) cut: the query still minimizes (the
  /// quotient is state-independent), but containment/view plans are
  /// skipped — materialized extensions describe only the head, so a
  /// time-travel query always walks its pinned snapshot directly (kDirect).
  bool historical = false;
};

/// The chosen plan plus everything the engine needs to execute it.
struct QueryPlan {
  PlanKind kind = PlanKind::kDirect;
  /// Quotiented query; execution runs on minimized.pattern and results are
  /// expanded back through minimized.edge_map.
  MinimizedPattern minimized;
  /// kMatchJoin: the contained mapping driving MatchJoin.
  ContainmentMapping mapping;
  /// kPartialViews: per minimized-query edge, the covering view edges
  /// (empty for uncovered edges). Unused otherwise.
  std::vector<std::vector<ViewEdgeRef>> partial_lambda;
  /// Distinct views the plan reads, ascending (empty for kDirect).
  std::vector<uint32_t> views_needed;
  /// Cost estimates (abstract units; comparable within one plan call).
  double est_direct_cost = 0.0;
  double est_view_cost = 0.0;
};

/// Estimated cost of evaluating `q` directly on a graph with statistics
/// `gs`: per-edge candidate-set x degree work, scaled by the edge-bound BFS
/// factor. Exposed for tests.
double EstimateDirectCost(const Pattern& q, const GraphStatistics& gs);

/// Plans `q` against the registered `views`. `exts` must be parallel to
/// `views` (the engine's extension vector). `materialized` (parallel to
/// `views` when given) says which extensions are live in the cache; cold
/// views get their materialization cost charged to the view plan. Without
/// it, an extension with no view edges is treated as cold — which cannot
/// tell a cached view that matched nothing from a truly cold one, so pass
/// the flags when a cache is involved.
Result<QueryPlan> PlanQuery(const Pattern& q, const ViewSet& views,
                            const std::vector<ViewExtension>& exts,
                            const GraphStatistics& gs,
                            const PlannerOptions& opts = {},
                            const std::vector<uint8_t>* materialized = nullptr);

}  // namespace gpmv

#endif  // GPMV_ENGINE_PLANNER_H_
