/// \file traversal.h
/// \brief Bounded breadth-first traversals used by bounded simulation
/// (Section VI) and by view materialization.
///
/// Bounded simulation needs two primitives:
///  * multi-source *reverse* bounded BFS — "which nodes can reach the set T
///    within k hops?" (used to prune candidate matches), and
///  * single-source *forward* bounded BFS — "which nodes does v reach within
///    k hops, and at what distance?" (used to extract match sets and their
///    distance columns, the paper's distance index I(V)).
///
/// `kUnbounded` encodes the paper's `*` bound (reachability at any length).
/// The scratch object reuses its O(|V|) buffers across calls so that the
/// fixpoint loops do not reallocate.

#ifndef GPMV_GRAPH_TRAVERSAL_H_
#define GPMV_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"
#include "graph/snapshot.h"

namespace gpmv {

/// Hop bound; kUnbounded represents the paper's `*`.
inline constexpr uint32_t kUnbounded = std::numeric_limits<uint32_t>::max();

/// Reusable BFS workspace bound to one graph size.
class BfsScratch {
 public:
  explicit BfsScratch(size_t num_nodes) : dist_(num_nodes, kNotSeen) {}

  /// Distance of `v` from the sources of the last traversal; kNotSeen if
  /// unreached.
  uint32_t dist(NodeId v) const { return dist_[v]; }
  bool Reached(NodeId v) const { return dist_[v] != kNotSeen; }

  /// Nodes reached by the last traversal, in BFS order (sources first,
  /// distance 0 included).
  const std::vector<NodeId>& reached() const { return reached_; }

  /// Multi-source BFS following `forward` (out-edges) or reverse (in-edges)
  /// direction, stopping at distance `bound` (kUnbounded = no limit).
  void Run(const Graph& g, const std::vector<NodeId>& sources, uint32_t bound,
           bool forward);

  /// CSR-snapshot variants (the hot path of bounded simulation): identical
  /// semantics, adjacency read from the frozen arrays.
  void Run(const GraphSnapshot& g, const std::vector<NodeId>& sources,
           uint32_t bound, bool forward);
  void Run(const GraphSnapshot& g, NodeSpan sources, uint32_t bound,
           bool forward);

  /// Single-source variant.
  void RunSingle(const Graph& g, NodeId source, uint32_t bound, bool forward);
  void RunSingle(const GraphSnapshot& g, NodeId source, uint32_t bound,
                 bool forward);

  static constexpr uint32_t kNotSeen = std::numeric_limits<uint32_t>::max();

 private:
  void Clear();

  std::vector<uint32_t> dist_;
  std::vector<NodeId> reached_;
  std::vector<NodeId> queue_;
};

}  // namespace gpmv

#endif  // GPMV_GRAPH_TRAVERSAL_H_
