/// \file bmatch_join.h
/// \brief BMatchJoin — answering *bounded* pattern queries using views
/// (paper Section VI-A, Theorem 9).
///
/// BMatchJoin is MatchJoin plus the distance index I(V): view extensions
/// materialize, for every pair (v, v'), the exact shortest distance d from
/// v to v' in G, and the merge step keeps a pair for query edge e only when
/// d ≤ fe(e). In this library I(V) *is* the distance column of each
/// ViewEdgeExtension, stored parallel to the pairs, so the shared engine in
/// match_join.cc reads d without any hashing or a second table. The view
/// cache keeps the column exact under updates (MergeBoundedInsertDelta for
/// insertions, DeltaBoundedDelete for deletions; core/maintenance.h).

#ifndef GPMV_CORE_BMATCH_JOIN_H_
#define GPMV_CORE_BMATCH_JOIN_H_

#include "core/match_join.h"

namespace gpmv {

/// Computes Qb(G) from view extensions only; `qb` may carry arbitrary edge
/// bounds (a plain pattern is accepted as the fe(e) = 1 special case).
/// Bound checking reads the distances materialized inside the extensions,
/// i.e. the I(V) lookup (see file comment).
Result<MatchResult> BMatchJoin(const Pattern& qb, const ViewSet& views,
                               const std::vector<ViewExtension>& exts,
                               const ContainmentMapping& mapping,
                               const MatchJoinOptions& opts = {},
                               MatchJoinStats* stats = nullptr);

}  // namespace gpmv

#endif  // GPMV_CORE_BMATCH_JOIN_H_
