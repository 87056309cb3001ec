#include "simulation/dual.h"

#include "simulation/refinement.h"

namespace gpmv {

Status ComputeDualSimulationRelation(const Pattern& q, const GraphSnapshot& g,
                                     std::vector<std::vector<NodeId>>* sim) {
  CandidateSpace space;
  GPMV_RETURN_NOT_OK(BuildCandidateSpace(q, g, /*seed=*/nullptr, &space));
  return RefineSimulation(q, g, space, /*dual=*/true, sim);
}

Result<MatchResult> MatchDualSimulation(const Pattern& q,
                                        const GraphSnapshot& g) {
  if (!q.IsSimulationPattern()) {
    return Status::InvalidArgument("dual simulation needs unit bounds");
  }
  std::vector<std::vector<NodeId>> sim;
  GPMV_RETURN_NOT_OK(ComputeDualSimulationRelation(q, g, &sim));
  return ExtractSimulationMatches(q, g, sim);
}

}  // namespace gpmv
