/// \file bounded.h
/// \brief Bounded simulation — the `BMatch` baseline of the paper
/// ([16]; Section VI).
///
/// A bounded pattern edge e = (u, u') with fe(e) = k matches a *nonempty
/// path* of length ≤ k (any length for `*`). The maximum relation is
/// computed by a fixpoint that prunes candidates using multi-source reverse
/// bounded BFS; match sets (node pairs with their exact shortest distances)
/// are extracted with forward bounded BFS per candidate source. The
/// extraction distances become the view extensions' distance columns,
/// which are the distance index I(V) that BMatchJoin reads (Section VI-A).
///
/// All traversals run over a frozen CSR snapshot (freeze once with
/// `Graph::Freeze` and reuse it). Only `MatchBoundedSimulationNaive` and its
/// `ComputeCandidateSets(const Graph&)` stay on the mutable graph — the
/// independent cubic reference the equivalence property tests compare
/// against.

#ifndef GPMV_SIMULATION_BOUNDED_H_
#define GPMV_SIMULATION_BOUNDED_H_

#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "pattern/pattern.h"
#include "simulation/match_result.h"

namespace gpmv {

/// Label/predicate candidate sets cand(u) for each pattern node, with no
/// structural pruning. Candidates are listed in ascending node id.
Status ComputeCandidateSets(const Pattern& q, const Graph& g,
                            std::vector<std::vector<NodeId>>* cand);
Status ComputeCandidateSets(const Pattern& q, const GraphSnapshot& g,
                            std::vector<std::vector<NodeId>>* cand);

/// Single-pattern-node slice of ComputeCandidateSets (same label/predicate
/// logic, ascending output) — the unit the edge-cut library
/// (shard/shard_sim.h) fans out per pattern node while building a
/// candidate space.
void ComputeCandidateSet(const Pattern& q, uint32_t u, const GraphSnapshot& g,
                         std::vector<NodeId>* cand);

/// Computes the maximum bounded-simulation node relation sim(u) per pattern
/// node. All-empty sets signal "no match". A non-null `seed` replaces the
/// label-index candidates (see ComputeSimulationRelation); each seed set
/// must be sorted.
Status ComputeBoundedSimulationRelation(
    const Pattern& qb, const GraphSnapshot& g,
    std::vector<std::vector<NodeId>>* sim,
    const std::vector<std::vector<NodeId>>* seed = nullptr);

/// Extracts Qb(G) from a final relation `sim` (as computed by
/// ComputeBoundedSimulationRelation on the same `g`): per pattern edge the
/// sorted match pairs, and — when `distances` is non-null — parallel exact
/// shortest nonempty path lengths. No fixpoint runs here.
Result<MatchResult> ExtractBoundedMatches(
    const Pattern& qb, const GraphSnapshot& g,
    const std::vector<std::vector<NodeId>>& sim,
    std::vector<std::vector<uint32_t>>* distances = nullptr);

/// Computes Qb(G) via bounded simulation. If `distances` is non-null it is
/// filled parallel to the result's edge matches: (*distances)[e][i] is the
/// shortest-path length realizing edge_matches(e)[i] (1 for plain edges).
/// Accepts plain simulation patterns as the special case fe(e) = 1.
/// `seed` optionally replaces the candidate sets (see
/// ComputeBoundedSimulationRelation).
Result<MatchResult> MatchBoundedSimulation(
    const Pattern& qb, const GraphSnapshot& g,
    std::vector<std::vector<uint32_t>>* distances = nullptr,
    const std::vector<std::vector<NodeId>>* seed = nullptr);

/// The paper's cubic baseline ([16]): a recompute-from-scratch fixpoint
/// that re-validates every candidate with its own forward bounded BFS per
/// iteration — O(|Q||G|²)-style behavior. Produces exactly the same result
/// as MatchBoundedSimulation (property-tested); it exists as the `BMatch`
/// baseline the evaluation figures compare against and as the snapshot-free
/// reference implementation for the dense-path equivalence tests.
Result<MatchResult> MatchBoundedSimulationNaive(
    const Pattern& qb, const Graph& g,
    std::vector<std::vector<uint32_t>>* distances = nullptr);

}  // namespace gpmv

#endif  // GPMV_SIMULATION_BOUNDED_H_
