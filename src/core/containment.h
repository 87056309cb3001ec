/// \file containment.h
/// \brief Pattern containment Q ⊑ V and the three containment problems
/// (paper Sections III, IV, V and VI-B).
///
/// Q ⊑ V holds iff every query edge's match set is covered, on every data
/// graph, by the union of match sets of view edges — equivalently (Prop.
/// 7/11) iff Ep = ∪_V M^Q_V. The functions here decide containment and
/// produce the mapping λ : Ep → P(view edges) that MatchJoin consumes:
///
///  * CheckContainment   — `contain`/`Bcontain`: all views, quadratic time;
///  * MinimalContainment — `minimal`/`Bminimal`: an inclusion-minimal subset
///    (dropping any selected view breaks containment), quadratic time;
///  * MinimumContainment — `minimum`/`Bminimum`: greedy O(log |Ep|)-
///    approximation of the NP-complete minimum subset (Theorem 6);
///  * ExactMinimumContainment — exhaustive optimum for small view sets,
///    used by tests and the Fig. 8(h) harness to gauge the approximation.
///
/// Every problem starts from the same first phase, ComputeAllViewMatches:
/// one QueryMatchContext per query computes Q's distances and reachability
/// once and matches every view against them, so Q's side costs three flat
/// arrays per query instead of two |Q|×|Q| matrices per view. Callers
/// that need the matches as well (the engine's planner) compute them once
/// and hand them to MinimumContainmentFromMatches.
///
/// A query with an isolated node is reported as not contained: edge-level
/// coverage can never witness matches for such a node (the paper assumes
/// connected patterns).

#ifndef GPMV_CORE_CONTAINMENT_H_
#define GPMV_CORE_CONTAINMENT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/view.h"
#include "core/view_match.h"
#include "pattern/pattern.h"

namespace gpmv {

/// Reference to one edge of one view.
struct ViewEdgeRef {
  uint32_t view = 0;
  uint32_t edge = 0;

  bool operator==(const ViewEdgeRef& o) const {
    return view == o.view && edge == o.edge;
  }
  bool operator<(const ViewEdgeRef& o) const {
    return view != o.view ? view < o.view : edge < o.edge;
  }
};

/// Outcome of a containment analysis.
struct ContainmentMapping {
  /// Does Q ⊑ (selected subset of) V hold?
  bool contained = false;
  /// Indices of the views used (sorted ascending).
  std::vector<uint32_t> selected;
  /// λ: for each query edge, the covering view edges (within `selected`).
  /// Meaningful only when `contained`.
  std::vector<std::vector<ViewEdgeRef>> lambda;
};

/// Decides Q ⊑ V using every view (algorithm `contain`).
Result<ContainmentMapping> CheckContainment(const Pattern& q,
                                            const ViewSet& views);

/// Finds an inclusion-minimal covering subset (algorithm `minimal`, Fig. 5).
/// Not contained -> `contained == false`, empty selection.
Result<ContainmentMapping> MinimalContainment(const Pattern& q,
                                              const ViewSet& views);

/// Greedy set-cover approximation of the minimum covering subset
/// (algorithm `minimum`). card(selected) ≤ log(|Ep|) · card(optimum).
Result<ContainmentMapping> MinimumContainment(const Pattern& q,
                                              const ViewSet& views);

/// The greedy of MinimumContainment over view matches the caller already
/// holds (`matches` as ComputeAllViewMatches returns them for `q`), so a
/// caller that also needs the matches themselves computes them once.
ContainmentMapping MinimumContainmentFromMatches(
    const Pattern& q, const std::vector<ViewMatchResult>& matches);

/// Exhaustive minimum (exponential in card(V); requires card(V) ≤ 24).
Result<ContainmentMapping> ExactMinimumContainment(const Pattern& q,
                                                   const ViewSet& views);

/// Shared first phase: the view match of every view against `q`, through
/// one QueryMatchContext (Q's side is computed once, not once per view).
Result<std::vector<ViewMatchResult>> ComputeAllViewMatches(
    const Pattern& q, const ViewSet& views);

}  // namespace gpmv

#endif  // GPMV_CORE_CONTAINMENT_H_
