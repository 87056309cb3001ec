/// \file view.h
/// \brief View definitions V and materialized view extensions V(G)
/// (paper Section II-B).
///
/// A view definition is itself a (bounded) pattern query; its extension in a
/// data graph G is the materialized query result V(G), stored per view edge
/// as the sorted list of matching node pairs together with their exact
/// shortest-path distances (always 1 for plain simulation views).
///
/// Extensions also snapshot the labels and attributes of every node that
/// appears in some match. This is what lets MatchJoin answer a query whose
/// node conditions are *stricter* than the view's (predicate views, Fig. 7)
/// without ever touching G: the initial union of view matches is filtered
/// against the query's own conditions using the snapshots. With plain label
/// equality the filter never removes anything.

#ifndef GPMV_CORE_VIEW_H_
#define GPMV_CORE_VIEW_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "pattern/pattern.h"
#include "simulation/match_result.h"

namespace gpmv {

/// A named view definition (a pattern query).
struct ViewDefinition {
  std::string name;
  Pattern pattern;
};

/// A set V = {V1, ..., Vn} of view definitions.
class ViewSet {
 public:
  ViewSet() = default;

  ViewSet& Add(ViewDefinition def) {
    defs_.push_back(std::move(def));
    return *this;
  }
  ViewSet& Add(const std::string& name, Pattern pattern) {
    return Add(ViewDefinition{name, std::move(pattern)});
  }

  /// card(V): number of view definitions.
  size_t card() const { return defs_.size(); }

  /// |V|: total size (nodes + edges) of all view definitions (Table I).
  size_t Size() const;

  const ViewDefinition& view(size_t i) const { return defs_[i]; }
  const std::vector<ViewDefinition>& views() const { return defs_; }

 private:
  std::vector<ViewDefinition> defs_;
};

/// Labels + attributes of one node captured at materialization time.
struct NodeSnapshot {
  std::vector<std::string> labels;  // sorted label names
  AttributeSet attrs;

  bool HasLabel(const std::string& label) const;
};

/// The materialized result V(G) of one view.
class ViewExtension {
 public:
  /// Evaluates `def` on `g` and materializes the result. Plain and bounded
  /// views alike run the bounded-simulation fixpoint (a plain edge is the
  /// case fe(e) = 1) exactly once, then extract match pairs, distances and
  /// the label/attribute node snapshots from the same frozen snapshot. A
  /// view that does not match G yields an extension with matched() == false
  /// and empty edges — still usable (it contributes nothing).
  ///
  /// `seed` optionally replaces the label candidates: seeding with the
  /// view's relation before an edge deletion is the decremental refresh
  /// (sound only when the relation can have shrunk). A non-null `relation`
  /// receives the maximum node relation the extension was extracted from —
  /// what the view cache keeps to seed that refresh and the insert delta.
  /// `seed` and `relation` may point at the same vector.
  static Result<ViewExtension> Materialize(
      const ViewDefinition& def, const GraphSnapshot& g,
      const std::vector<std::vector<NodeId>>* seed = nullptr,
      std::vector<std::vector<NodeId>>* relation = nullptr);

  bool matched() const { return matched_; }
  size_t num_view_edges() const { return edges_.size(); }
  const ViewEdgeExtension& edge(uint32_t e) const { return edges_[e]; }

  /// Snapshot of node `v`; nullptr when v appears in no match of this view.
  const NodeSnapshot* snapshot(NodeId v) const;

  /// |V(G)| contribution: total number of materialized pairs.
  size_t TotalPairs() const;

  /// Number of snapshotted nodes; equals the number of distinct pair
  /// endpoints, which every maintenance path preserves.
  size_t num_snapshots() const { return snapshots_.size(); }

  /// Rough memory footprint in bytes (pairs, distances and snapshots); used
  /// to report view-to-graph size ratios as in Section VII and for the
  /// view cache's byte budget. O(#view edges): the snapshot share is a
  /// running total kept by EnsureSnapshot / DropSnapshot.
  size_t ApproxBytes() const;

  /// ApproxBytes recomputed from scratch by walking every snapshot — the
  /// reference the running total is checked against.
  size_t RecountApproxBytes() const;

  /// Internal/maintenance accessors.
  std::vector<ViewEdgeExtension>* mutable_edges() { return &edges_; }
  void set_matched(bool m) { matched_ = m; }

  /// Captures node `v`'s labels + attributes if not snapshotted yet — used
  /// at materialization and when delta maintenance adds match pairs.
  void EnsureSnapshot(const GraphSnapshot& g, NodeId v);

  /// Forgets node `v`'s snapshot (no-op if absent) — used when deletion
  /// maintenance leaves `v` in no match pair.
  void DropSnapshot(NodeId v);

 private:
  bool matched_ = false;
  std::vector<ViewEdgeExtension> edges_;
  std::unordered_map<NodeId, NodeSnapshot> snapshots_;
  size_t snapshot_bytes_ = 0;  ///< Σ SnapshotBytes over snapshots_
};

/// Materializes every view of `views` on `g`.
Result<std::vector<ViewExtension>> MaterializeAll(const ViewSet& views,
                                                  const GraphSnapshot& g);

/// Total number of pairs across a collection of extensions (|V(G)|).
size_t TotalExtensionPairs(const std::vector<ViewExtension>& exts);

}  // namespace gpmv

#endif  // GPMV_CORE_VIEW_H_
