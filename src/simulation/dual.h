/// \file dual.h
/// \brief Dual simulation (Ma et al. [28]) — extension named in Section VIII.
///
/// Dual simulation strengthens graph simulation with a parent condition:
/// for (u, v) in the relation, every *outgoing* pattern edge (u, u') needs a
/// data edge (v, v') with (u', v') related, and every *incoming* pattern
/// edge (u'', u) needs a data edge (v'', v) with (u'', v'') related. The
/// maximum dual relation is unique and contained in the maximum simulation
/// relation. The paper notes all view techniques carry over; we provide the
/// matcher so views can be materialized under dual semantics as well.
///
/// Implemented on the shared rank-indexed refinement engine
/// (simulation/refinement.h) over a frozen CSR snapshot.

#ifndef GPMV_SIMULATION_DUAL_H_
#define GPMV_SIMULATION_DUAL_H_

#include <vector>

#include "common/status.h"
#include "graph/snapshot.h"
#include "pattern/pattern.h"
#include "simulation/match_result.h"

namespace gpmv {

/// Computes the maximum dual-simulation node relation; all-empty signals
/// "no match".
Status ComputeDualSimulationRelation(const Pattern& q, const GraphSnapshot& g,
                                     std::vector<std::vector<NodeId>>* sim);

/// Computes Q(G) under dual simulation (edge match sets are data edges whose
/// endpoints are dual-related). Requires a plain simulation pattern.
Result<MatchResult> MatchDualSimulation(const Pattern& q,
                                        const GraphSnapshot& g);

}  // namespace gpmv

#endif  // GPMV_SIMULATION_DUAL_H_
