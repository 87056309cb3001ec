/// \file strong.h
/// \brief Strong simulation (Ma et al. [28]) — extension named in
/// Section VIII.
///
/// Strong simulation adds locality to dual simulation: Q strongly matches G
/// at center w if the ball B(w, dQ) — the subgraph induced by all nodes
/// within undirected distance dQ of w, where dQ is the pattern's diameter —
/// dual-matches Q with w appearing in the relation. Each matching ball
/// yields a "maximum perfect subgraph".
///
/// For bounded patterns we take dQ as the undirected *weighted* diameter
/// (edge weight = bound); a pattern containing a `*` edge makes the ball the
/// whole graph, degrading gracefully to dual simulation.

#ifndef GPMV_SIMULATION_STRONG_H_
#define GPMV_SIMULATION_STRONG_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/snapshot.h"
#include "pattern/pattern.h"

namespace gpmv {

/// One strong-simulation match: the ball center and the dual relation on
/// the ball, reported in *global* node ids.
struct StrongMatch {
  NodeId center = kInvalidNode;
  /// relation[u] = matches of pattern node u inside the ball (sorted).
  std::vector<std::vector<NodeId>> relation;
};

/// Computes all strong-simulation matches (up to `max_matches`).
/// Intended for moderate graphs; each candidate center costs a ball
/// extraction plus a dual-simulation run. Ball collection and subgraph
/// induction walk the frozen CSR snapshot.
Result<std::vector<StrongMatch>> MatchStrongSimulation(
    const Pattern& q, const GraphSnapshot& g, size_t max_matches = SIZE_MAX);

/// The ball radius used for `q` (undirected weighted diameter;
/// kInfDistance when the pattern has a `*` edge on every undirected path
/// realizing the diameter).
uint64_t StrongSimulationRadius(const Pattern& q);

}  // namespace gpmv

#endif  // GPMV_SIMULATION_STRONG_H_
