/// \file view_match.h
/// \brief View matches M^Q_V — the core device behind containment checking
/// (paper Sections IV, V-A and VI-B).
///
/// Treating the query Q itself as a (weighted) data graph, we simulate the
/// view pattern V over it. A view node w matches a query node u when u's
/// search condition is at least as strict: equal label (or view wildcard)
/// and query predicate ⇒ view predicate. The match set SeV of view edge
/// eV = (w, w') then consists of the *query edges* e = (u, u') whose
/// endpoints are related to (w, w') — these are exactly the query edges
/// whose data-level matches are guaranteed, on every graph G, to be found
/// inside SeV of the materialized view (Prop. 7).
///
/// For bounded patterns the relation uses weighted distances in Q (edge
/// weight = its bound, `*` = infinite), and eV with bound kV covers query
/// edge e only when fe(e) ≤ kV. The latter is a sound strengthening of the
/// paper's weighted-distance rule — see DESIGN.md §4; on all examples of the
/// paper (Fig. 6, Example 9) the two coincide.
///
/// The query side of that simulation — Q's nonempty weighted distances and
/// nonempty reachability — depends on Q alone, so QueryMatchContext
/// computes it once per query (flat |Q|×|Q| arrays) and then matches any
/// number of views against it, reusing one relation buffer. Containment
/// (containment.h), view selection and rewriting build one context per
/// query; ComputeViewMatch is the one-view convenience over it, and
/// minimization (minimization.h) simulates a pattern over itself with it.

#ifndef GPMV_CORE_VIEW_MATCH_H_
#define GPMV_CORE_VIEW_MATCH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "pattern/pattern.h"

namespace gpmv {

/// The view match from one view to a query.
struct ViewMatchResult {
  /// per_view_edge[eV] = indices of query edges in SeV (sorted).
  std::vector<std::vector<uint32_t>> per_view_edge;
  /// M^Q_V: union of all SeV — sorted indices of covered query edges.
  std::vector<uint32_t> covered;
};

/// Query-side state of view matching for one query `q`, which must outlive
/// the context. Not thread-safe (Match reuses a member buffer); build one
/// per thread.
class QueryMatchContext {
 public:
  explicit QueryMatchContext(const Pattern& q);

  /// M^Q_V for view pattern `view` over the context's query. Handles both
  /// plain (all bounds 1) and bounded patterns; a plain view applied to a
  /// bounded query (and vice versa) is handled by the same weighted rule.
  /// InvalidArgument when either pattern is empty.
  Result<ViewMatchResult> Match(const Pattern& view);

  /// Computes the maximum simulation of `view`'s nodes over the query's
  /// (the relation behind Match), in full: rows may end empty. Minimization
  /// runs it with the query itself as the view.
  void Simulate(const Pattern& view) { (void)Relate(view, false); }

  /// After Simulate: does view node `w` simulate query node `u`?
  bool Simulates(uint32_t w, uint32_t u) const {
    return rel_[w * n_ + u] != 0;
  }

 private:
  /// Fills rel_ with the maximum simulation of `view` over the query and
  /// returns whether every view node simulates some query node. With
  /// `stop_at_empty_row` it returns false as soon as a row empties, leaving
  /// rel_ incomplete (Match needs no more).
  bool Relate(const Pattern& view, bool stop_at_empty_row);

  const Pattern& q_;
  size_t n_;
  /// ndist_[u*n+t]: least total bound of a path with >= 1 edge from u to t
  /// (kInfDistance if none; `*` edges contribute none). The diagonal holds
  /// the cheapest cycle through u.
  std::vector<uint64_t> ndist_;
  /// reach_[u*n+t]: is there a nonempty path u ~> t over edges of any
  /// bound (including `*`)? A `*` view bound needs exactly this.
  std::vector<char> reach_;
  /// rel_[w*n+u]: view node w can (still) simulate query node u.
  std::vector<char> rel_;
};

/// Computes M^Q_V for view pattern `view` over query `q` (one view; use a
/// QueryMatchContext to match many views against one query).
Result<ViewMatchResult> ComputeViewMatch(const Pattern& view,
                                         const Pattern& q);

/// True iff the data-node condition of query node `qu` is at least as
/// strict as that of view node `vw` (label equality or view wildcard, and
/// predicate implication). Exposed for tests.
bool QueryNodeMatchesViewNode(const PatternNode& qu, const PatternNode& vw);

}  // namespace gpmv

#endif  // GPMV_CORE_VIEW_MATCH_H_
