/// \file maintenance.h
/// \brief Incremental maintenance of materialized view extensions.
///
/// Section I argues the view-based approach is practical because cached
/// pattern views can be maintained incrementally under graph updates
/// (citing [15], Fan et al., SIGMOD 2011). This module provides a working
/// maintenance layer with the following contract:
///
///  * *Edge deletions* are handled decrementally: the maximum (bounded)
///    simulation relation can only shrink under deletions, so the cached
///    relation is re-refined seeded from its previous value — no label
///    scan, no candidate re-enumeration — and the match sets re-extracted.
///    For plain simulation views a constant-time prescreen skips deletions
///    that touch no matched node.
///  * *Edge insertions* are handled with the localized delta of [15]
///    (simulation/delta.h): the affected area around the inserted edges'
///    endpoints is computed from the cached relation's reach, a delta
///    fixpoint adds-then-re-verifies matches inside that area only, and the
///    new match pairs merge into the cached extension — no from-scratch
///    MatchJoin, cost proportional to the area's edge volume. Bounded views
///    take the same route through DeltaBoundedInsert plus a bounded merge:
///    an inserted edge (a, b) can shorten paths between untouched pairs, so
///    the merge additionally sweeps the bound-radius balls around each
///    inserted edge and add-or-min-updates the (pair, distance) columns —
///    distances stay exact shortest nonempty path lengths throughout. The
///    path re-materializes instead (counted in InsertMaintenanceStats::
///    rematerialize_fallbacks) when the delta cannot apply: views whose
///    cached relation is empty, or an affected area larger than
///    `max_area_fraction`·|V| — the boundedness caveat of [15].
///
/// Mixed batches run deletions first, then the insert delta (each phase
/// against its own frozen snapshot); a view that would re-materialize for
/// the insert phase anyway skips the deletion refresh entirely.
///
/// The engine's view cache drives these routines once per update batch
/// (ViewCache::RefreshForUpdates): callers mutate the Graph, freeze it, and
/// hand the frozen snapshots in. The deletion refresh and the fallback are
/// ViewExtension::Materialize — seeded from the cached relation, or from
/// the label candidates — which runs the fixpoint once.

#ifndef GPMV_CORE_MAINTENANCE_H_
#define GPMV_CORE_MAINTENANCE_H_

#include <vector>

#include "common/status.h"
#include "core/distance_index.h"
#include "core/view.h"
#include "simulation/delta.h"

namespace gpmv {

/// Insert-path knobs; see file comment and simulation/delta.h.
struct InsertMaintenanceOptions {
  /// Kill switch: false always re-materializes on insertions (the
  /// pre-delta behavior; bench/update_latency's baseline).
  bool enable_delta = true;
  /// Affected-area fallback threshold (DeltaInsertOptions).
  double max_area_fraction = 0.25;
};

/// Counters of the insert maintenance path, aggregated per update batch by
/// the engine (the `delta.*` metrics).
struct InsertMaintenanceStats {
  size_t delta_refreshes = 0;          ///< views maintained via the delta
  size_t rematerialize_fallbacks = 0;  ///< views re-materialized instead
  size_t affected_nodes = 0;           ///< Σ affected-area sizes
  size_t delta_relation_added = 0;     ///< Σ nodes added to sim sets
  size_t delta_matches_added = 0;      ///< Σ match pairs merged into exts

  /// Bounded-view slice of the above (counted in addition, not instead):
  size_t bounded_delta_refreshes = 0;  ///< bounded views kept via the delta
  size_t bounded_matches_added = 0;    ///< Σ bounded pairs added/shortened

  /// Fallback-reason breakdown (sums to rematerialize_fallbacks):
  size_t fallback_not_simulation = 0;  ///< (legacy) bounded-delta disabled
  size_t fallback_unmatched = 0;       ///< cached relation had empty sets
  size_t fallback_area_too_large = 0;  ///< affected area over the threshold
  size_t fallback_disabled = 0;        ///< enable_delta was false

  void Merge(const InsertMaintenanceStats& other) {
    delta_refreshes += other.delta_refreshes;
    rematerialize_fallbacks += other.rematerialize_fallbacks;
    affected_nodes += other.affected_nodes;
    delta_relation_added += other.delta_relation_added;
    delta_matches_added += other.delta_matches_added;
    bounded_delta_refreshes += other.bounded_delta_refreshes;
    bounded_matches_added += other.bounded_matches_added;
    fallback_not_simulation += other.fallback_not_simulation;
    fallback_unmatched += other.fallback_unmatched;
    fallback_area_too_large += other.fallback_area_too_large;
    fallback_disabled += other.fallback_disabled;
  }
};

/// Insert-path refresh: brings `ext`/`relation` (valid for the graph
/// *before* `inserted` was added) up to date with `g`, the frozen snapshot
/// *after* the insertions. Tries DeltaBoundedInsert (which handles plain
/// patterns via DeltaSimulationInsert) and merges the new match pairs into
/// the extension in place; falls back to a full unseeded
/// ViewExtension::Materialize when the delta cannot apply (see file
/// comment).
/// `stats` (optional) accumulates — callers zero it per batch. For bounded
/// views a non-null `dindex` receives every added or shortened
/// (pair, distance) via AddOrShorten, keeping the engine's distance index
/// in lockstep without a rebuild; on the re-materialize fallback the caller
/// must refresh `dindex` itself (the merge never ran).
Status RefreshViewExtensionInserted(const ViewDefinition& def,
                                    const GraphSnapshot& g,
                                    const std::vector<NodePair>& inserted,
                                    const InsertMaintenanceOptions& opts,
                                    ViewExtension* ext,
                                    std::vector<std::vector<NodeId>>* relation,
                                    InsertMaintenanceStats* stats = nullptr,
                                    DistanceIndex* dindex = nullptr);

/// Constant-time prescreen for *plain simulation* views: removing edge
/// (u, v) can only shrink the extension when (u, v) was itself a match pair
/// of some view edge, because only match pairs support the relation.
/// `relation` must be the view's cached node relation (sorted sets). Always
/// true for bounded views — the deleted edge may be interior to a matched
/// path, which this screen cannot see.
bool DeletionMayAffectView(const ViewDefinition& def,
                           const std::vector<std::vector<NodeId>>& relation,
                           NodeId u, NodeId v);

}  // namespace gpmv

#endif  // GPMV_CORE_MAINTENANCE_H_
