/// \file maintenance.h
/// \brief Incremental maintenance of materialized view extensions.
///
/// Section I argues the view-based approach is practical because cached
/// pattern views can be maintained incrementally under graph updates
/// (citing [15], Fan et al., SIGMOD 2011). This module provides a working
/// maintenance layer with the following contract:
///
///  * *Edge deletions* are handled decrementally, after one sound
///    prescreen for plain and bounded views alike (DeletionMayAffectView,
///    simulation/delta.h):
///    a view is refreshed only if some pattern edge (s, t, k) has a member
///    of rel(s) within the post-delete reverse (k-1)-ball of a deleted
///    edge's tail (k = 1: the deleted edge itself joined rel(s) to
///    rel(t)). A view that passes is repaired locally by
///    DeltaBoundedDelete (simulation/delta.h): the affected sources are
///    re-checked, removals cascade through the reverse balls of the
///    removed nodes, and the extension is patched row by row — removed
///    sources and pairs to removed targets dropped, re-checked rows
///    recomputed with exact distances, and the snapshots of nodes left in
///    no pair pruned. The seeded full refresh (ViewExtension::Materialize
///    seeded from the cached relation) runs only as the fallback: the
///    dirty area over `max_area_fraction`·|V|, a relation that empties
///    (the view stops matching), or `enable_delta` off.
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
///    path re-materializes instead (counted in MaintenanceStats::
///    rematerialize_fallbacks) when the delta cannot apply: views whose
///    cached relation is empty, or an affected area larger than
///    `max_area_fraction`·|V| — the boundedness caveat of [15].
///
/// Mixed batches run deletions first, then the insert delta (each phase
/// against its own frozen snapshot); a view that would re-materialize for
/// the insert phase anyway skips the deletion refresh entirely.
///
/// The distance columns both directions keep exact are the paper's distance
/// index I(V) (core/bmatch_join.h); no separate table is maintained.
///
/// The engine's view cache drives these routines once per update batch
/// (ViewCache::RefreshForUpdates): callers mutate the Graph, freeze it, and
/// hand the frozen snapshots in, plus the one DeltaScratch it lends to
/// every call.

#ifndef GPMV_CORE_MAINTENANCE_H_
#define GPMV_CORE_MAINTENANCE_H_

#include <vector>

#include "common/status.h"
#include "core/view.h"
#include "simulation/delta.h"

namespace gpmv {

/// Maintenance knobs for both directions; see file comment and
/// simulation/delta.h.
struct MaintenanceOptions {
  /// Kill switch: false re-materializes instead of running either delta
  /// (the pre-delta behavior; bench/update_latency's baseline). The
  /// deletion prescreen still applies.
  bool enable_delta = true;
  /// Affected-area fallback threshold (DeltaOptions), for insertions and
  /// deletions alike.
  double max_area_fraction = 0.25;
};

/// Counters of the maintenance paths, aggregated per update batch by the
/// engine (the `delta.*` metrics). The insert-path counters and the
/// deletion counters are kept apart: `delta_refreshes` and
/// `rematerialize_fallbacks` count insert-phase refreshes only.
struct MaintenanceStats {
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

  /// Deletion phase, per view and batch:
  size_t delete_refreshes = 0;  ///< repaired locally by DeltaBoundedDelete
  size_t delete_fallbacks = 0;  ///< seeded full refresh instead
  size_t delete_skips = 0;      ///< prescreen proved the view unaffected

  void Merge(const MaintenanceStats& other) {
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
    delete_refreshes += other.delete_refreshes;
    delete_fallbacks += other.delete_fallbacks;
    delete_skips += other.delete_skips;
  }
};

/// Insert-path refresh: brings `ext`/`relation` (valid for the graph
/// *before* `inserted` was added) up to date with `g`, the frozen snapshot
/// *after* the insertions. Tries DeltaBoundedInsert (which handles plain
/// patterns via DeltaSimulationInsert) and merges the new match pairs into
/// the extension in place; falls back to a full unseeded
/// ViewExtension::Materialize when the delta cannot apply (see file
/// comment).
/// `stats` (optional) accumulates — callers zero it per batch.
Status RefreshViewExtensionInserted(const ViewDefinition& def,
                                    const GraphSnapshot& g,
                                    const std::vector<NodePair>& inserted,
                                    const MaintenanceOptions& opts,
                                    DeltaScratch* scratch, ViewExtension* ext,
                                    std::vector<std::vector<NodeId>>* relation,
                                    MaintenanceStats* stats = nullptr);

/// Deletion-path refresh for a view that passed DeletionMayAffectView:
/// brings `ext`/`relation` up to date with `g`, the frozen snapshot after
/// the deletions, through DeltaBoundedDelete, pruning the snapshots of
/// nodes left in no pair; falls back to ViewExtension::Materialize seeded
/// from `relation` (see file comment). Either way the surviving pairs'
/// distance columns stay exact shortest-path lengths.
Status RefreshViewExtensionDeleted(const ViewDefinition& def,
                                   const GraphSnapshot& g,
                                   const std::vector<NodePair>& deleted,
                                   const MaintenanceOptions& opts,
                                   DeltaScratch* scratch, ViewExtension* ext,
                                   std::vector<std::vector<NodeId>>* relation,
                                   MaintenanceStats* stats = nullptr);

}  // namespace gpmv

#endif  // GPMV_CORE_MAINTENANCE_H_
