/// \file match_join.h
/// \brief MatchJoin — answering (bounded) pattern queries using materialized
/// views (paper Fig. 2, Section III; BMatchJoin, Section VI-A).
///
/// Given Q ⊑ V with mapping λ, MatchJoin computes Q(G) from V(G) alone:
///
///  1. *Merge*: Se := ∪_{e' ∈ λ(e)} Se', filtered to pairs that satisfy the
///     query's own node conditions (checked against extension snapshots)
///     and, for bounded edges, whose materialized distance d ≤ fe(e) — the
///     distance-index lookup of BMatchJoin. V(G) pairs are real graph
///     edges/paths, so the union is a superset of the true match set.
///  2. *Fixpoint*: repeatedly delete pairs (v, x) of Se, e = (u, u2), whose
///     source v no longer covers every pattern edge out of u or whose
///     target x no longer covers every pattern edge out of u2 (the
///     simulation condition, lines 5-11 of Fig. 2), until stable. The
///     survivors are exactly Q(G).
///
/// Scheduling implements the paper's bottom-up optimization: pattern edges
/// are processed in ascending SCC-rank order (rank of the target node) via
/// a priority worklist, so child match sets stabilize before parents are
/// scanned; with `use_rank_order = false` the engine degrades to the
/// repeated-full-pass fixpoint (`MatchJoin_nopt` in Fig. 8(f)). Per-edge
/// visit counts are reported in MatchJoinStats.
///
/// The fixpoint state is keyed by *dense candidate ranks*
/// (simulation/candidate_space.h): after the merge, every pattern node's
/// candidates get ranks 0..c-1, match sets become rank pairs, and the
/// out/in support counters become flat arrays — profiling showed the
/// previous per-edge `unordered_map<NodeId, uint32_t>` counters dominating
/// the engine's warm path. `use_dense_ranks = false` selects that original
/// hash-map engine, kept as the equivalence-test reference and microbench
/// baseline.
///
/// The same engine serves plain and bounded patterns: a plain edge is just
/// fe(e) = 1 and simulation views materialize d = 1. `BMatchJoin` (in
/// bmatch_join.h) is the bounded entry point.

#ifndef GPMV_CORE_MATCH_JOIN_H_
#define GPMV_CORE_MATCH_JOIN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/containment.h"
#include "core/view.h"
#include "pattern/pattern.h"
#include "simulation/match_result.h"

namespace gpmv {

/// Which matching semantics the fixpoint enforces.
enum class JoinSemantics {
  kSimulation,      ///< forward-only (the paper's default)
  kDualSimulation,  ///< forward + backward ([28]; Section VIII extension)
};

/// Knobs for the MatchJoin engine.
struct MatchJoinOptions {
  /// Process edges bottom-up by SCC rank (Section III optimization). When
  /// false, run repeated full passes in edge order until a fixpoint.
  bool use_rank_order = true;
  /// Matching semantics (see DualMatchJoin).
  JoinSemantics semantics = JoinSemantics::kSimulation;
  /// Run the fixpoint on dense candidate ranks (candidate_space.h): match
  /// sets become rank pairs and the per-edge out/in support counters flat
  /// uint32 arrays indexed by rank — O(1) unhashed access on the warm path.
  /// When false, fall back to the pre-refactor engine keyed by NodeId
  /// through unordered_maps; it computes identical results and exists as
  /// the reference baseline for the equivalence property tests and the
  /// dense-vs-hash microbench (bench/fixpoint_microbench.cc).
  bool use_dense_ranks = true;
};

/// Observability counters for tests, the Fig. 8(f) ablation, and the
/// engine's perf telemetry (summed into the `join.*` metrics, which
/// engine_throughput prints).
struct MatchJoinStats {
  size_t initial_pairs = 0;       ///< pairs after merge + filters
  size_t removed_pairs = 0;       ///< deletions during the fixpoint
  size_t match_set_visits = 0;    ///< match-set scans (Lemma 2 metric)
  size_t filtered_by_condition = 0;  ///< pairs dropped by query conditions
  size_t filtered_by_distance = 0;   ///< pairs dropped by d > fe(e)
  /// Fixpoint scheduling steps: worklist pops under rank order, full sweeps
  /// under the unoptimized schedule. A regression here means the fixpoint
  /// converges more slowly (more re-scans per query).
  size_t fixpoint_iterations = 0;
  /// Support counters that drained to zero during the fixpoint — each one
  /// is a (pattern node, candidate) invalidation cascading into pair
  /// removals; tracks how much of the merged input the fixpoint discards.
  size_t counters_zeroed = 0;
  /// Dense ranks allocated across pattern nodes (0 on the hash-map path);
  /// the footprint of the rank-indexed fixpoint state.
  size_t candidate_ranks = 0;
};

/// Computes Q(G) from view extensions only.
///
/// `mapping` must come from a containment check of `q` against `views` with
/// contained == true; `exts` must hold one extension per view of `views`
/// (extensions of unselected views are not read and may be empty).
Result<MatchResult> MatchJoin(const Pattern& q, const ViewSet& views,
                              const std::vector<ViewExtension>& exts,
                              const ContainmentMapping& mapping,
                              const MatchJoinOptions& opts = {},
                              MatchJoinStats* stats = nullptr);

/// Answers `q` under *dual simulation* from the same (simulation-
/// materialized) view extensions and (simulation-based) containment mapping:
/// the dual relation is contained in the simulation relation, so the merged
/// view pairs over-approximate it on every graph, and a fixpoint that also
/// enforces the backward (parent) condition converges to exactly the dual
/// result — Section VIII's claim that the techniques carry over to dual
/// simulation, made concrete. Requires a unit-bound pattern.
Result<MatchResult> DualMatchJoin(const Pattern& q, const ViewSet& views,
                                  const std::vector<ViewExtension>& exts,
                                  const ContainmentMapping& mapping,
                                  const MatchJoinOptions& opts = {},
                                  MatchJoinStats* stats = nullptr);

}  // namespace gpmv

#endif  // GPMV_CORE_MATCH_JOIN_H_
