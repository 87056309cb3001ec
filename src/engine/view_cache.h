/// \file view_cache.h
/// \brief The materialized-view cache of the query engine: a registry of
/// view definitions whose extensions V(G) are materialized lazily, kept
/// fresh by incremental maintenance, and evicted LRU under a byte budget.
///
/// Concurrency contract — the cache is a passive structure governed by the
/// engine's registry lock (a shared_mutex owned by QueryEngine):
///
///  * methods marked [shared] are called with the registry lock held in
///    shared mode; several query threads run them concurrently, so the
///    recency list, pin counts, and counters they touch are protected by an
///    internal metadata mutex;
///  * methods marked [exclusive] mutate extension payloads (install, evict,
///    refresh, register) and require the registry lock in exclusive mode —
///    no reader can be inside extensions() data while they run.
///
/// A *pinned* entry (pin_count > 0) is in use by an in-flight query and is
/// never evicted; queries pin every view their plan reads and unpin on
/// completion, which is what makes "evict under budget" safe next to
/// concurrent MatchJoin runs. Eviction resets the extension to an empty
/// placeholder (the vector stays parallel to the definitions, which is the
/// shape MatchJoin consumes) and the accounting counters stay consistent:
/// bytes_cached always equals the sum of ApproxBytes over materialized
/// entries plus their cached relations.

#ifndef GPMV_ENGINE_VIEW_CACHE_H_
#define GPMV_ENGINE_VIEW_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/maintenance.h"
#include "core/view.h"
#include "graph/graph.h"

namespace gpmv {

/// Cache sizing knobs.
struct ViewCacheOptions {
  /// Byte budget for materialized extensions (+ cached relations).
  size_t budget_bytes = 64u << 20;
};

/// Observability counters; bytes/materialized reflect the current state,
/// the rest are monotone totals.
struct ViewCacheStats {
  size_t hits = 0;        ///< TryPinMaterialized found a live extension
  size_t misses = 0;      ///< TryPinMaterialized found none
  size_t evictions = 0;   ///< entries reset by EnforceBudget/Evict
  size_t installs = 0;    ///< extensions installed (first materialization too)
  size_t duplicate_installs = 0;  ///< lost install races (work discarded)
  size_t refreshes = 0;           ///< maintenance refreshes applied
  size_t refreshes_skipped = 0;   ///< deletion prescreen skipped a refresh
  size_t bytes_cached = 0;        ///< current footprint
  size_t materialized = 0;        ///< currently live extensions
  size_t registered = 0;          ///< view definitions in the registry
};

/// Registry of view definitions + LRU-evicted materialized extensions.
class ViewCache {
 public:
  explicit ViewCache(ViewCacheOptions opts = {});

  /// [exclusive] Registers a definition; returns its dense view id.
  uint32_t Register(ViewDefinition def);

  /// [shared] The registered definitions (ids are indices).
  const ViewSet& views() const { return views_; }

  /// [shared] Extensions parallel to views(); evicted/cold entries are empty
  /// placeholders. Stable reference while the registry lock is held.
  const std::vector<ViewExtension>& extensions() const { return exts_; }

  /// [shared] If view `v` is materialized: pin it, mark it recently used,
  /// count a hit, return true. Otherwise count a miss and return false.
  bool TryPinMaterialized(uint32_t v);

  /// [shared] Drops one pin acquired by TryPinMaterialized / Install(pin).
  void Unpin(uint32_t v);

  /// [exclusive] Installs a freshly materialized extension (and the node
  /// relation that seeds decremental maintenance). Returns true on install;
  /// false when the view is already materialized (a concurrent query won the
  /// race — the argument is discarded and only counted). When `pin`, the
  /// entry is pinned either way. Runs EnforceBudget internally.
  bool Install(uint32_t v, ViewExtension ext,
               std::vector<std::vector<NodeId>> relation, bool pin);

  /// [exclusive] Evicts view `v` now if materialized and unpinned.
  bool Evict(uint32_t v);

  /// [exclusive] Evicts least-recently-used unpinned entries until
  /// bytes_cached <= budget; returns the number evicted.
  size_t EnforceBudget();

  /// [exclusive] Maintenance sweep after a graph-update batch, two-phased
  /// per materialized view (core/maintenance.h), with the cache's one
  /// DeltaScratch lent to every routine of the sweep:
  ///
  ///  * deletions (against `after_deletions`, the snapshot frozen after the
  ///    batch's deletions and before its insertions; null when the batch
  ///    deleted nothing): the ball prescreen DeletionMayAffectView skips
  ///    every view — plain or bounded — that no deleted edge can affect;
  ///    the rest are repaired locally by DeltaBoundedDelete, with the
  ///    seeded full refresh only as its fallback (dirty area over the cap,
  ///    a relation that empties, delta disabled);
  ///  * insertions (against `final_snap`, the batch's final snapshot):
  ///    localized delta-insert — plain views via DeltaSimulationInsert,
  ///    bounded views via DeltaBoundedInsert + the bounded ball merge —
  ///    re-materializing only on fallback. A view the insert phase would
  ///    re-materialize anyway (delta disabled) skips its deletion refresh
  ///    and re-materializes once against `final_snap`.
  ///
  /// Both phases keep every bounded extension's distance column — the
  /// paper's distance index I(V) — exact shortest-path lengths in the new
  /// graph. Byte accounting is updated per touched entry in O(#view edges);
  /// `delta_stats` (optional) accumulates the counters of both phases.
  Status RefreshForUpdates(const GraphSnapshot* after_deletions,
                           const GraphSnapshot& final_snap,
                           const std::vector<NodePair>& deleted,
                           const std::vector<NodePair>& inserted,
                           const MaintenanceOptions& opts,
                           MaintenanceStats* delta_stats = nullptr);

  /// [shared] Is `v` currently materialized? (Racy snapshot — use
  /// TryPinMaterialized to act on the answer.)
  bool IsMaterialized(uint32_t v) const;

  /// [shared] Materialization flag per registered view (one consistent
  /// snapshot; advisory, as above — feeds the planner's cost model).
  std::vector<uint8_t> MaterializedSnapshot() const;

  ViewCacheStats stats() const;
  size_t budget_bytes() const { return opts_.budget_bytes; }

  /// [exclusive] Test/debug invariant check: bytes_cached equals the
  /// recomputed footprint of the materialized entries (each extension's
  /// running snapshot total equal to a full recount), the LRU list holds
  /// exactly the materialized views, stats_.materialized matches, and —
  /// when `expect_unpinned` — every pin has been released.
  bool CheckConsistency(bool expect_unpinned) const;

 private:
  struct Entry {
    bool materialized = false;
    uint32_t pin_count = 0;
    size_t bytes = 0;
    /// Node relation at materialization time; seeds decremental refresh.
    std::vector<std::vector<NodeId>> relation;
    /// Position in lru_ when materialized.
    std::list<uint32_t>::iterator lru_pos;
  };

  static size_t EntryBytes(const ViewExtension& ext,
                           const std::vector<std::vector<NodeId>>& relation);

  /// Callers hold meta_mu_; EvictLocked additionally expects `v` already
  /// unlinked from lru_.
  void EvictLocked(uint32_t v);
  size_t EnforceBudgetLocked();

  ViewCacheOptions opts_;
  ViewSet views_;
  std::vector<ViewExtension> exts_;
  /// Traversal buffers lent to every maintenance routine (exclusive use,
  /// like the extensions); sized to the last refreshed snapshot.
  std::optional<DeltaScratch> scratch_;

  mutable std::mutex meta_mu_;
  std::vector<Entry> entries_;
  std::list<uint32_t> lru_;  ///< most-recently-used at the front
  ViewCacheStats stats_;
};

}  // namespace gpmv

#endif  // GPMV_ENGINE_VIEW_CACHE_H_
