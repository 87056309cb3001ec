/// \file match_result.h
/// \brief The result of evaluating a (bounded) pattern query on a graph.
///
/// Following the paper (Section II-A), the result Q(G) of a query with edge
/// set Ep is the set {(e, Se) | e ∈ Ep} derived from the unique maximum
/// match relation So, where Se is the match set of pattern edge e:
///  * graph simulation: Se ⊆ E(G) — data edges;
///  * bounded simulation: Se ⊆ V(G) × V(G) — node pairs (v, v') connected by
///    a nonempty path of length ≤ fe(e).
/// Q(G) = ∅ (matched() == false) when some pattern node has no match.
///
/// We also retain the node-level relation (sim sets) because view
/// materialization and the containment machinery need it.

#ifndef GPMV_SIMULATION_MATCH_RESULT_H_
#define GPMV_SIMULATION_MATCH_RESULT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "pattern/pattern.h"

namespace gpmv {

/// One match of a pattern edge: a data node pair (for simulation patterns
/// always an actual data edge).
using NodePair = std::pair<NodeId, NodeId>;

/// Matches of one (view) pattern edge in G as parallel sorted columns — the
/// layout a materialized view extension stores (core/view.h) and the
/// deletion delta (simulation/delta.h) patches in place.
struct ViewEdgeExtension {
  /// Matching node pairs, sorted ascending.
  std::vector<NodePair> pairs;
  /// Parallel to `pairs`: exact shortest-path distance realizing the match
  /// (1 for plain simulation views).
  std::vector<uint32_t> distances;
};

/// Result of Q(G); see file comment.
class MatchResult {
 public:
  MatchResult() = default;

  /// An empty (failed) result shaped for `pattern`.
  static MatchResult Empty(const Pattern& pattern);

  /// True iff Q E_sim G (every pattern node and edge has a match).
  bool matched() const { return matched_; }
  void set_matched(bool m) { matched_ = m; }

  size_t num_pattern_edges() const { return edge_matches_.size(); }

  const std::vector<NodePair>& edge_matches(uint32_t e) const {
    return edge_matches_[e];
  }
  std::vector<NodePair>* mutable_edge_matches(uint32_t e) {
    return &edge_matches_[e];
  }

  const std::vector<NodeId>& node_matches(uint32_t u) const {
    return node_matches_[u];
  }
  std::vector<NodeId>* mutable_node_matches(uint32_t u) {
    return &node_matches_[u];
  }

  void Resize(size_t num_nodes, size_t num_edges) {
    node_matches_.resize(num_nodes);
    edge_matches_.resize(num_edges);
  }

  /// |Q(G)|: total number of entries across all match sets Se (Table I).
  size_t TotalMatches() const;

  /// Rebuilds node_matches from the edge match sets: a node matches pattern
  /// node u iff it appears in Q(G) at u's position. All matchers (direct and
  /// view-based) use this convention so results compare structurally; for
  /// pattern nodes with out-edges it coincides with the maximum relation.
  void DeriveNodeMatches(const Pattern& pattern);

  /// Sorts and deduplicates all match sets; canonical form for comparison.
  void Normalize();

  /// Structural equality on normalized results.
  bool operator==(const MatchResult& other) const;

  /// Renders match sets with node names resolved via `pattern` and `g`
  /// (mirrors the tables in the paper's examples).
  std::string ToString(const Pattern& pattern, const Graph& g) const;

 private:
  bool matched_ = false;
  std::vector<std::vector<NodePair>> edge_matches_;
  std::vector<std::vector<NodeId>> node_matches_;
};

}  // namespace gpmv

#endif  // GPMV_SIMULATION_MATCH_RESULT_H_
