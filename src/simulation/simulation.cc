#include "simulation/simulation.h"

#include "simulation/refinement.h"

namespace gpmv {

Status ComputeSimulationRelation(const Pattern& qs, const GraphSnapshot& g,
                                 std::vector<std::vector<NodeId>>* sim,
                                 const std::vector<std::vector<NodeId>>* seed) {
  CandidateSpace space;
  GPMV_RETURN_NOT_OK(BuildCandidateSpace(qs, g, seed, &space));
  return RefineSimulation(qs, g, space, /*dual=*/false, sim);
}

Result<MatchResult> MatchSimulation(const Pattern& qs,
                                    const GraphSnapshot& g) {
  if (!qs.IsSimulationPattern()) {
    return Status::InvalidArgument(
        "pattern has non-unit bounds; use MatchBoundedSimulation");
  }
  std::vector<std::vector<NodeId>> sim;
  GPMV_RETURN_NOT_OK(ComputeSimulationRelation(qs, g, &sim));
  return ExtractSimulationMatches(qs, g, sim);
}

}  // namespace gpmv
