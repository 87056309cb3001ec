#include "engine/view_cache.h"

#include <utility>

#include "core/maintenance.h"

namespace gpmv {

ViewCache::ViewCache(ViewCacheOptions opts) : opts_(opts) {}

uint32_t ViewCache::Register(ViewDefinition def) {
  uint32_t id = static_cast<uint32_t>(views_.card());
  views_.Add(std::move(def));
  exts_.emplace_back();
  std::lock_guard<std::mutex> lk(meta_mu_);
  entries_.emplace_back();
  ++stats_.registered;
  return id;
}

bool ViewCache::TryPinMaterialized(uint32_t v) {
  std::lock_guard<std::mutex> lk(meta_mu_);
  Entry& e = entries_[v];
  if (!e.materialized) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  ++e.pin_count;
  lru_.splice(lru_.begin(), lru_, e.lru_pos);  // mark most recently used
  return true;
}

void ViewCache::Unpin(uint32_t v) {
  std::lock_guard<std::mutex> lk(meta_mu_);
  Entry& e = entries_[v];
  GPMV_DCHECK(e.pin_count > 0);
  --e.pin_count;
}

bool ViewCache::Install(uint32_t v, ViewExtension ext,
                        std::vector<std::vector<NodeId>> relation, bool pin) {
  std::lock_guard<std::mutex> lk(meta_mu_);
  Entry& e = entries_[v];
  if (e.materialized) {
    // A concurrent query materialized this view while we computed; keep the
    // installed copy (it is at least as fresh — installs and refreshes both
    // happen under the exclusive registry lock).
    ++stats_.duplicate_installs;
    if (pin) {
      ++e.pin_count;
      lru_.splice(lru_.begin(), lru_, e.lru_pos);
    }
    return false;
  }
  exts_[v] = std::move(ext);
  e.relation = std::move(relation);
  e.bytes = EntryBytes(exts_[v], e.relation);
  e.materialized = true;
  if (pin) ++e.pin_count;
  lru_.push_front(v);
  e.lru_pos = lru_.begin();
  stats_.bytes_cached += e.bytes;
  ++stats_.materialized;
  ++stats_.installs;
  EnforceBudgetLocked();
  return true;
}

bool ViewCache::Evict(uint32_t v) {
  std::lock_guard<std::mutex> lk(meta_mu_);
  Entry& e = entries_[v];
  if (!e.materialized || e.pin_count > 0) return false;
  lru_.erase(e.lru_pos);
  EvictLocked(v);
  return true;
}

size_t ViewCache::EnforceBudget() {
  std::lock_guard<std::mutex> lk(meta_mu_);
  return EnforceBudgetLocked();
}

size_t ViewCache::EnforceBudgetLocked() {
  size_t evicted = 0;
  // Walk from the least-recently-used end, skipping pinned entries.
  auto it = lru_.end();
  while (stats_.bytes_cached > opts_.budget_bytes && it != lru_.begin()) {
    --it;
    uint32_t v = *it;
    if (entries_[v].pin_count > 0) continue;
    it = lru_.erase(it);  // next candidate is the element before this slot
    EvictLocked(v);
    ++evicted;
  }
  return evicted;
}

/// Caller holds meta_mu_ and has already unlinked `v` from lru_.
void ViewCache::EvictLocked(uint32_t v) {
  Entry& e = entries_[v];
  GPMV_DCHECK(e.materialized && e.pin_count == 0);
  stats_.bytes_cached -= e.bytes;
  e.bytes = 0;
  e.materialized = false;
  exts_[v] = ViewExtension();
  e.relation.clear();
  e.relation.shrink_to_fit();
  --stats_.materialized;
  ++stats_.evictions;
}

Status ViewCache::RefreshForUpdates(const GraphSnapshot* after_deletions,
                                    const GraphSnapshot& final_snap,
                                    const std::vector<NodePair>& deleted,
                                    const std::vector<NodePair>& inserted,
                                    const MaintenanceOptions& opts,
                                    MaintenanceStats* delta_stats) {
  std::lock_guard<std::mutex> lk(meta_mu_);
  const GraphSnapshot& del_snap =
      after_deletions != nullptr ? *after_deletions : final_snap;
  // One set of |V|-sized traversal buffers for every sweep (edge updates
  // never change the node count, so both snapshots fit).
  const size_t num_nodes = final_snap.num_nodes();
  if (!scratch_.has_value() || scratch_->num_nodes() != num_nodes) {
    scratch_.emplace(num_nodes);
  }
  DeltaScratch& scratch = *scratch_;
  MaintenanceStats batch_stats;
  for (uint32_t v = 0; v < entries_.size(); ++v) {
    Entry& e = entries_[v];
    if (!e.materialized) continue;
    const ViewDefinition& def = views_.view(v);
    const size_t bytes_before = e.bytes;
    bool touched = false;
    bool deletion_skipped = false;

    // A view the insert phase will re-materialize anyway (delta disabled)
    // does so once, against the final snapshot — its deletion refresh
    // would be wasted.
    const bool insert_rematerializes = !inserted.empty() && !opts.enable_delta;

    if (!deleted.empty() && !insert_rematerializes) {
      if (DeletionMayAffectView(def.pattern, e.relation, del_snap, deleted,
                                &scratch)) {
        // Decremental, against the post-deletion snapshot (insertions are
        // not in the graph yet from this phase's point of view).
        GPMV_RETURN_NOT_OK(RefreshViewExtensionDeleted(
            def, del_snap, deleted, opts, &scratch, &exts_[v], &e.relation,
            &batch_stats));
        touched = true;
      } else {
        ++batch_stats.delete_skips;
        deletion_skipped = true;
      }
    }
    if (!inserted.empty()) {
      GPMV_RETURN_NOT_OK(RefreshViewExtensionInserted(
          def, final_snap, inserted, opts, &scratch, &exts_[v], &e.relation,
          &batch_stats));
      touched = true;
    }
    if (touched) {
      stats_.bytes_cached -= bytes_before;
      e.bytes = EntryBytes(exts_[v], e.relation);
      stats_.bytes_cached += e.bytes;
      ++stats_.refreshes;
    } else if (deletion_skipped) {
      // Only count a skip when the *whole batch* left the view untouched —
      // a prescreen skip followed by an insert-phase refresh is a refresh.
      ++stats_.refreshes_skipped;
    }
  }
  if (delta_stats != nullptr) delta_stats->Merge(batch_stats);
  EnforceBudgetLocked();
  return Status::OK();
}

bool ViewCache::IsMaterialized(uint32_t v) const {
  std::lock_guard<std::mutex> lk(meta_mu_);
  return entries_[v].materialized;
}

std::vector<uint8_t> ViewCache::MaterializedSnapshot() const {
  std::lock_guard<std::mutex> lk(meta_mu_);
  std::vector<uint8_t> flags(entries_.size());
  for (uint32_t v = 0; v < entries_.size(); ++v) {
    flags[v] = entries_[v].materialized ? 1 : 0;
  }
  return flags;
}

bool ViewCache::CheckConsistency(bool expect_unpinned) const {
  std::lock_guard<std::mutex> lk(meta_mu_);
  size_t bytes = 0;
  size_t materialized = 0;
  for (uint32_t v = 0; v < entries_.size(); ++v) {
    const Entry& e = entries_[v];
    if (expect_unpinned && e.pin_count != 0) return false;
    if (!e.materialized) {
      if (e.bytes != 0) return false;
      continue;
    }
    ++materialized;
    if (e.bytes != EntryBytes(exts_[v], e.relation)) return false;
    // The O(1) running snapshot total must match a full recount.
    if (exts_[v].ApproxBytes() != exts_[v].RecountApproxBytes()) return false;
    bytes += e.bytes;
  }
  if (bytes != stats_.bytes_cached) return false;
  if (materialized != stats_.materialized) return false;
  if (lru_.size() != materialized) return false;
  for (uint32_t v : lru_) {
    if (!entries_[v].materialized) return false;
  }
  return stats_.installs - stats_.evictions == stats_.materialized;
}

ViewCacheStats ViewCache::stats() const {
  std::lock_guard<std::mutex> lk(meta_mu_);
  return stats_;
}

size_t ViewCache::EntryBytes(const ViewExtension& ext,
                             const std::vector<std::vector<NodeId>>& relation) {
  size_t bytes = ext.ApproxBytes();
  for (const auto& s : relation) bytes += s.size() * sizeof(NodeId);
  return bytes;
}

}  // namespace gpmv
