/// \file simulation.h
/// \brief Graph pattern matching via graph simulation — the `Match` baseline
/// of the paper ([16], [21]; Section II-A).
///
/// A graph G matches pattern Qs via simulation iff there is a relation
/// S ⊆ Vp × V such that every pattern node has a match and for every
/// (u, v) ∈ S and pattern edge (u, u') there is a data edge (v, v') with
/// (u', v') ∈ S. There is a unique maximum such S; Qs(G) is derived from it.
///
/// The implementation is the counter-based refinement in the spirit of
/// Henzinger-Henzinger-Kopke [21], run over a frozen CSR snapshot with all
/// state keyed by dense candidate ranks (simulation/refinement.h). Every
/// entry point takes a `GraphSnapshot`: callers freeze once (`Graph::Freeze`)
/// and query many times, as the engine does.

#ifndef GPMV_SIMULATION_SIMULATION_H_
#define GPMV_SIMULATION_SIMULATION_H_

#include "common/status.h"
#include "graph/snapshot.h"
#include "pattern/pattern.h"
#include "simulation/match_result.h"

namespace gpmv {

/// Computes Qs(G) via graph simulation.
///
/// Fails with InvalidArgument when `qs` has a non-unit edge bound (use
/// MatchBoundedSimulation) or is empty.
Result<MatchResult> MatchSimulation(const Pattern& qs, const GraphSnapshot& g);

/// Computes only the maximum node relation sim(u) per pattern node (no edge
/// match extraction); used internally and by the dual/strong extensions.
/// `sim` is resized to qs.num_nodes(); empty overall result is signalled by
/// all-empty sets.
///
/// If `seed` is non-null it is used instead of the label index as the
/// initial candidate sets. Seeding with a superset of the maximum relation
/// (e.g. the relation before an edge deletion) yields the exact maximum
/// relation — the basis of decremental view maintenance.
Status ComputeSimulationRelation(
    const Pattern& qs, const GraphSnapshot& g,
    std::vector<std::vector<NodeId>>* sim,
    const std::vector<std::vector<NodeId>>* seed = nullptr);

}  // namespace gpmv

#endif  // GPMV_SIMULATION_SIMULATION_H_
