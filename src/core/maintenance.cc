#include "core/maintenance.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "graph/traversal.h"
#include "simulation/bounded.h"

namespace gpmv {

namespace {

/// Merges the insert delta into a plain-simulation extension in place: new
/// match pairs of view edge (s, t) are exactly the inserted edges landing
/// in rel'(s) × rel'(t) plus the edges incident to newly added relation
/// members — old pairs never leave under insertions, and since every new
/// pair has a new edge or a new endpoint, the three sources cover all of
/// them and are disjoint from the old sorted list.
size_t MergeInsertDelta(const ViewDefinition& def, const GraphSnapshot& g,
                        const std::vector<NodePair>& inserted,
                        const std::vector<std::vector<NodeId>>& relation,
                        const std::vector<std::vector<NodeId>>& added,
                        ViewExtension* ext) {
  size_t pairs_added = 0;
  auto contains = [](const std::vector<NodeId>& sorted, NodeId v) {
    return std::binary_search(sorted.begin(), sorted.end(), v);
  };
  for (uint32_t e = 0; e < def.pattern.num_edges(); ++e) {
    const PatternEdge& pe = def.pattern.edge(e);
    const std::vector<NodeId>& rs = relation[pe.src];
    const std::vector<NodeId>& rt = relation[pe.dst];
    std::vector<NodePair> fresh;
    for (const NodePair& p : inserted) {
      if (contains(rs, p.first) && contains(rt, p.second)) fresh.push_back(p);
    }
    for (NodeId v : added[pe.src]) {
      for (NodeId w : g.out_neighbors(v)) {
        if (contains(rt, w)) fresh.emplace_back(v, w);
      }
    }
    for (NodeId w : added[pe.dst]) {
      for (NodeId v : g.in_neighbors(w)) {
        if (contains(rs, v)) fresh.emplace_back(v, w);
      }
    }
    if (fresh.empty()) continue;
    std::sort(fresh.begin(), fresh.end());
    fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());

    ViewEdgeExtension& vee = (*ext->mutable_edges())[e];
    // Guard the sorted-unique invariant against re-notified edges: a pair
    // is only new if it is not cached yet (an `inserted` entry for an edge
    // that already existed would otherwise duplicate its match pair).
    fresh.erase(std::remove_if(fresh.begin(), fresh.end(),
                               [&](const NodePair& p) {
                                 return std::binary_search(
                                     vee.pairs.begin(), vee.pairs.end(), p);
                               }),
                fresh.end());
    if (fresh.empty()) continue;
    std::vector<NodePair> merged;
    merged.reserve(vee.pairs.size() + fresh.size());
    std::merge(vee.pairs.begin(), vee.pairs.end(), fresh.begin(), fresh.end(),
               std::back_inserter(merged));
    vee.pairs = std::move(merged);
    // Plain simulation views: every match is one data edge, distance 1.
    vee.distances.assign(vee.pairs.size(), 1);
    pairs_added += fresh.size();
    for (const NodePair& p : fresh) {
      ext->EnsureSnapshot(g, p.first);
      ext->EnsureSnapshot(g, p.second);
    }
  }
  return pairs_added;
}

/// Merges the insert delta into a *bounded* extension in place. Unlike the
/// plain case, an inserted edge (a, b) can create or shorten match pairs
/// between members the delta never touched, so fresh (pair, distance)
/// candidates come from three sources per view edge (s, t, k):
///   (a) newly added sources v ∈ Δ(s): forward bounded BFS from out(v)
///       gives the exact shortest nonempty distance to every x ∈ rel'(t)
///       within k;
///   (b) newly added targets x ∈ Δ(t): symmetric reverse BFS from in(x);
///   (c) per inserted edge (a, b): every path using an inserted edge splits
///       as v ~> a → b ~> x with both halves in the post-insert graph, so
///       the reverse (k-1)-ball of a crossed with the forward (k-1)-ball of
///       b yields drev(v) + 1 + dfwd(x) — minimized over inserted edges
///       this is the exact new distance for any old-member pair whose
///       shortest path crosses the insertions.
/// Candidates add-or-min into the sorted (pairs, distances) columns, which
/// keeps every stored distance an exact shortest nonempty path length.
size_t MergeBoundedInsertDelta(const ViewDefinition& def,
                               const GraphSnapshot& g,
                               const std::vector<NodePair>& inserted,
                               const std::vector<std::vector<NodeId>>& relation,
                               const std::vector<std::vector<NodeId>>& added,
                               DeltaScratch* bfs, ViewExtension* ext) {
  size_t pairs_changed = 0;
  auto contains = [](const std::vector<NodeId>& sorted, NodeId v) {
    return std::binary_search(sorted.begin(), sorted.end(), v);
  };
  auto inner = [](uint32_t bound) {
    return bound == kUnbounded ? kUnbounded : bound - 1;
  };
  BfsScratch& scratch = bfs->rev();
  BfsScratch& fwd = bfs->fwd();
  for (uint32_t e = 0; e < def.pattern.num_edges(); ++e) {
    const PatternEdge& pe = def.pattern.edge(e);
    const std::vector<NodeId>& rs = relation[pe.src];
    const std::vector<NodeId>& rt = relation[pe.dst];
    const uint32_t k = pe.bound;
    std::vector<std::pair<NodePair, uint32_t>> fresh;
    // (a) new sources: exact forward distances to targets within k.
    for (NodeId v : added[pe.src]) {
      scratch.Run(g, g.out_neighbors(v), inner(k), /*forward=*/true);
      for (NodeId x : scratch.reached()) {
        if (contains(rt, x)) fresh.push_back({{v, x}, scratch.dist(x) + 1});
      }
    }
    // (b) new targets: exact reverse distances from sources within k.
    for (NodeId x : added[pe.dst]) {
      scratch.Run(g, g.in_neighbors(x), inner(k), /*forward=*/false);
      for (NodeId v : scratch.reached()) {
        if (contains(rs, v)) fresh.push_back({{v, x}, scratch.dist(v) + 1});
      }
    }
    // (c) shortened/created old-member pairs through each inserted edge.
    for (const NodePair& ab : inserted) {
      scratch.RunSingle(g, ab.first, inner(k), /*forward=*/false);
      fwd.RunSingle(g, ab.second, inner(k), /*forward=*/true);
      std::vector<std::pair<NodeId, uint32_t>> targets;
      for (NodeId x : fwd.reached()) {
        if (contains(rt, x)) targets.emplace_back(x, fwd.dist(x));
      }
      if (targets.empty()) continue;
      for (NodeId v : scratch.reached()) {
        if (!contains(rs, v)) continue;
        const uint32_t head = scratch.dist(v) + 1;
        for (const auto& [x, dx] : targets) {
          if (k == kUnbounded || head + dx <= k) {
            fresh.push_back({{v, x}, head + dx});
          }
        }
      }
    }
    if (fresh.empty()) continue;
    // Sort by pair keeping the minimum distance per pair.
    std::sort(fresh.begin(), fresh.end());
    size_t out = 0;
    for (size_t i = 0; i < fresh.size(); ++i) {
      if (out > 0 && fresh[out - 1].first == fresh[i].first) continue;
      fresh[out++] = fresh[i];
    }
    fresh.resize(out);

    // Lockstep add-or-min merge with the sorted extension columns.
    ViewEdgeExtension& vee = (*ext->mutable_edges())[e];
    std::vector<NodePair> merged_pairs;
    std::vector<uint32_t> merged_dists;
    merged_pairs.reserve(vee.pairs.size() + fresh.size());
    merged_dists.reserve(vee.pairs.size() + fresh.size());
    size_t i = 0, j = 0;
    bool edge_changed = false;
    while (i < vee.pairs.size() || j < fresh.size()) {
      if (j == fresh.size() ||
          (i < vee.pairs.size() && vee.pairs[i] < fresh[j].first)) {
        merged_pairs.push_back(vee.pairs[i]);
        merged_dists.push_back(vee.distances[i]);
        ++i;
      } else if (i == vee.pairs.size() || fresh[j].first < vee.pairs[i]) {
        merged_pairs.push_back(fresh[j].first);
        merged_dists.push_back(fresh[j].second);
        ext->EnsureSnapshot(g, fresh[j].first.first);
        ext->EnsureSnapshot(g, fresh[j].first.second);
        ++pairs_changed;
        edge_changed = true;
        ++j;
      } else {
        merged_pairs.push_back(vee.pairs[i]);
        if (fresh[j].second < vee.distances[i]) {
          merged_dists.push_back(fresh[j].second);
          ++pairs_changed;
          edge_changed = true;
        } else {
          merged_dists.push_back(vee.distances[i]);
        }
        ++i;
        ++j;
      }
    }
    if (edge_changed) {
      vee.pairs = std::move(merged_pairs);
      vee.distances = std::move(merged_dists);
    }
  }
  return pairs_changed;
}

}  // namespace

Status RefreshViewExtensionInserted(const ViewDefinition& def,
                                    const GraphSnapshot& g,
                                    const std::vector<NodePair>& inserted,
                                    const MaintenanceOptions& opts,
                                    DeltaScratch* scratch, ViewExtension* ext,
                                    std::vector<std::vector<NodeId>>* relation,
                                    MaintenanceStats* stats) {
  MaintenanceStats local;
  if (stats == nullptr) stats = &local;
  if (opts.enable_delta) {
    DeltaOptions dopts;
    dopts.max_area_fraction = opts.max_area_fraction;
    DeltaInsertStats dstats;
    std::vector<std::vector<NodeId>> added;
    GPMV_RETURN_NOT_OK(DeltaBoundedInsert(def.pattern, g, inserted, dopts,
                                          scratch, relation, &added,
                                          &dstats));
    if (dstats.applied) {
      ++stats->delta_refreshes;
      stats->affected_nodes += dstats.affected_nodes;
      stats->delta_relation_added += dstats.relation_added;
      if (def.pattern.IsSimulationPattern()) {
        stats->delta_matches_added +=
            MergeInsertDelta(def, g, inserted, *relation, added, ext);
      } else {
        ++stats->bounded_delta_refreshes;
        const size_t changed = MergeBoundedInsertDelta(
            def, g, inserted, *relation, added, scratch, ext);
        stats->delta_matches_added += changed;
        stats->bounded_matches_added += changed;
      }
      return Status::OK();
    }
    switch (dstats.fallback) {
      case DeltaInsertFallback::kNotSimulationPattern:
        ++stats->fallback_not_simulation;
        break;
      case DeltaInsertFallback::kUnmatchedRelation:
        ++stats->fallback_unmatched;
        break;
      case DeltaInsertFallback::kAreaTooLarge:
        ++stats->fallback_area_too_large;
        break;
      case DeltaInsertFallback::kNone:
        break;
    }
  } else {
    ++stats->fallback_disabled;
  }
  ++stats->rematerialize_fallbacks;
  Result<ViewExtension> fresh =
      ViewExtension::Materialize(def, g, /*seed=*/nullptr, relation);
  GPMV_RETURN_NOT_OK(fresh.status());
  *ext = std::move(fresh).value();
  return Status::OK();
}

Status RefreshViewExtensionDeleted(const ViewDefinition& def,
                                   const GraphSnapshot& g,
                                   const std::vector<NodePair>& deleted,
                                   const MaintenanceOptions& opts,
                                   DeltaScratch* scratch, ViewExtension* ext,
                                   std::vector<std::vector<NodeId>>* relation,
                                   MaintenanceStats* stats) {
  MaintenanceStats local;
  if (stats == nullptr) stats = &local;
  if (opts.enable_delta) {
    DeltaOptions dopts;
    dopts.max_area_fraction = opts.max_area_fraction;
    DeltaDeleteStats dstats;
    std::vector<NodeId> orphaned;
    GPMV_RETURN_NOT_OK(DeltaBoundedDelete(def.pattern, g, deleted, dopts,
                                          scratch, relation,
                                          ext->mutable_edges(), &orphaned,
                                          &dstats));
    if (dstats.applied) {
      for (NodeId v : orphaned) ext->DropSnapshot(v);
      ++stats->delete_refreshes;
      return Status::OK();
    }
  }
  // Seeded full refresh: sound because the relation can only have shrunk.
  ++stats->delete_fallbacks;
  Result<ViewExtension> fresh =
      ViewExtension::Materialize(def, g, /*seed=*/relation, relation);
  GPMV_RETURN_NOT_OK(fresh.status());
  *ext = std::move(fresh).value();
  return Status::OK();
}

}  // namespace gpmv
