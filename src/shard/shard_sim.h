/// \file shard_sim.h
/// \brief Sharded (dual-)simulation: per-shard candidate-rank fixpoints plus
/// a cross-shard merge fixpoint for boundary nodes.
///
/// The single-snapshot refinement engine (simulation/refinement.h) deletes
/// violating (pattern node, candidate) pairs until stable. This engine runs
/// the same deletion fixpoint *partitioned by data-node ownership* over a
/// `ShardedSnapshot`:
///
///  1. *Local fixpoint* (one task per shard, fanned out on a thread pool):
///     each shard initializes support counters for the candidates it owns
///     by walking its slice's full owned rows, removes zero-support owned
///     candidates, and cascades removals through owned neighbors with the
///     usual counter-decrement worklist. Candidates owned by other shards
///     are assumed alive — an over-approximation, so nothing valid is ever
///     deleted.
///  2. *Cross-shard merge rounds*: when a removal's propagation walk (the
///     removed node's full slice rows) reaches a candidate another shard
///     owns, the origin emits a targeted (pattern edge, rank) support
///     decrement to that owner instead of decrementing; decrements are
///     routed at a barrier and applied in O(1) each, cascading locally
///     again. Rounds repeat until no shard emits anything. Routing work is
///     exactly the cross-shard share of the decrement work an unsharded
///     refinement does locally — shards never scan traffic that does not
///     concern them.
///
/// Because the state only ever shrinks and every genuine violation is
/// eventually witnessed by the owner of the violating candidate, the rounds
/// converge to the unique maximum (dual-)simulation relation — *bit
/// identical* to RefineSimulation on the parent snapshot, for every shard
/// count (the shard parity property tests assert this).
/// Per-shard work is deterministic, so counters and results do not depend
/// on thread scheduling.
///
/// Wall-clock: counter initialization and cascade work — the bulk of a
/// direct evaluation — split K ways and run concurrently; the serial
/// residue is candidate-set construction plus the per-round exchange
/// (proportional to removals crossing shard boundaries). perfbench's replay
/// measures it (`shard.direct_us`) against the one-thread fixpoint
/// (`simulation.direct_us`); the query engine does not shard.

#ifndef GPMV_SHARD_SHARD_SIM_H_
#define GPMV_SHARD_SHARD_SIM_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "pattern/pattern.h"
#include "shard/sharded_snapshot.h"
#include "simulation/candidate_space.h"
#include "simulation/match_result.h"

namespace gpmv {

class ThreadPool;

/// Observability counters for one sharded evaluation. Deterministic for a
/// given (pattern, sharded snapshot, seed) triple.
struct ShardSimStats {
  size_t shards = 0;    ///< fan-out width K
  size_t rounds = 0;    ///< parallel phases run (1 = no cross-shard work)
  size_t removals = 0;  ///< candidate deletions across all shards
  /// Owner-computed support decrements routed across shard boundaries at
  /// round barriers — the communication volume of the merge fixpoint
  /// (equals the cross-shard portion of the work an unsharded refinement
  /// would do locally).
  size_t messages = 0;
  /// Frontier entries handed across shard boundaries by the bounded
  /// evaluation's level-synchronized BFS (one entry per cross-shard edge
  /// whose head was expanded) — the bounded analogue of `messages`.
  size_t frontier_msgs = 0;
};

/// Refines `space` to the maximum (dual-)simulation relation of `q` over
/// the sharded snapshot's graph version, fanning out per shard on `pool`
/// (serial when nullptr). Writes per-pattern-node sim sets (sorted; all
/// empty signals "no match") exactly as RefineSimulation does. Requires a
/// unit-bound pattern; `space` must have been built with a dense inverse
/// over the parent snapshot's node universe.
Status ShardedRefineSimulation(const Pattern& q, const ShardedSnapshot& ss,
                               const CandidateSpace& space, bool dual,
                               ThreadPool* pool,
                               std::vector<std::vector<NodeId>>* sim,
                               ShardSimStats* stats = nullptr);

/// Computes Q(G) under (dual-)simulation by sharded fan-out: candidate
/// space from the parent snapshot (restricted to `seed` when non-null),
/// sharded refinement, then per-shard
/// edge-match extraction stitched into one normalized MatchResult. For
/// unit-bound patterns the result equals MatchBoundedSimulation /
/// MatchDualSimulation on the parent snapshot; non-unit bounds are
/// rejected here — they fan out through ShardedMatchBoundedSimulation
/// below, whose BFS frontier hand-off carries distance-bounded
/// reachability across edge-cuts.
Result<MatchResult> ShardedMatchSimulation(
    const Pattern& q, const ShardedSnapshot& ss, ThreadPool* pool,
    bool dual = false, const std::vector<std::vector<NodeId>>* seed = nullptr,
    ShardSimStats* stats = nullptr);

/// Computes Qb(G) under *bounded* simulation by sharded fan-out. The
/// decrement exchange of the unit-bound engine generalizes to a
/// level-synchronized multi-source BFS with merge-round *frontier
/// hand-off*: each level, every shard expands the frontier nodes it owns
/// through its slice's full rows; discoveries it owns advance locally,
/// discoveries owned elsewhere are routed to their owner at the level
/// barrier (counted in ShardSimStats::frontier_msgs) and deduplicated
/// against the owner's distance labels — so distance-bounded reachability
/// crosses edge-cut boundaries exactly level by level. The relation
/// fixpoint mirrors ComputeBoundedSimulationRelation edge for edge (same
/// order, same filter), and per-shard forward-BFS extraction over owned
/// sources stitches into the same canonical MatchResult: the output is
/// bit-identical to MatchBoundedSimulation on the parent snapshot for
/// every shard count (shard_parity_test asserts this).
/// Plain patterns delegate to ShardedMatchSimulation (non-dual).
Result<MatchResult> ShardedMatchBoundedSimulation(
    const Pattern& qb, const ShardedSnapshot& ss, ThreadPool* pool,
    const std::vector<std::vector<NodeId>>* seed = nullptr,
    ShardSimStats* stats = nullptr);

}  // namespace gpmv

#endif  // GPMV_SHARD_SHARD_SIM_H_
