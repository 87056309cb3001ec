/// \file delta.h
/// \brief Localized delta-simulation under edge updates — the incremental
/// counterpart of the removal fixpoint in refinement.h, after the
/// algorithms of Fan et al. (SIGMOD 2011, "Incremental graph pattern
/// matching") that the source paper delegates maintenance to. Insertions
/// (DeltaSimulationInsert / DeltaBoundedInsert) are described first;
/// deletions (DeltaBoundedDelete) at the end of this comment.
///
/// Insertions only grow the maximum simulation relation: every member of
/// the cached relation stays a member, and any *new* member must be
/// reachable from the change. Concretely, a node can newly enter sim(u)
/// only by a chain v0 -> v1 -> ... -> vk of pre-existing data edges where
/// every vi is itself newly added along a pattern path from u and vk is the
/// source of an inserted edge (the base case: the inserted edge supplies
/// the missing successor). The chain follows pattern edges, so for DAG
/// patterns its length is bounded by the pattern's longest path — which
/// makes the *affected area* (all nodes that could newly enter any sim set)
/// a reverse BFS of that depth from the inserted-edge sources. For cyclic
/// patterns the chain can wind around pattern cycles, so the BFS is
/// depth-unbounded and only the area cap below keeps it local.
///
/// The delta fixpoint then works entirely inside the area:
///  1. *add* optimistically — every area node satisfying a pattern node's
///     search condition and not already in its sim set becomes a delta
///     candidate, rank-indexed through a CandidateSpace over the delta
///     sets only (never the |V| universe);
///  2. *re-verify* — the rank-indexed removal machinery of refinement.h
///     (RankRemovalState) prunes delta candidates lacking a successor in
///     sim(u') ∪ Δ(u') for some pattern edge (u, u'); cached members count
///     as permanent support (they never leave under insertions), so only
///     delta-candidate removals cascade.
///
/// Cost is proportional to the affected area's edge volume, not |G|. The
/// boundedness caveat of the paper applies: when the area exceeds
/// `max_area_fraction` of |V| (or the cached relation is unusable — see
/// DeltaInsertFallback), the caller must re-materialize from scratch
/// instead; DeltaSimulationInsert reports the fallback and leaves the
/// relation untouched.
///
/// Deletions only shrink the maximum (bounded) simulation relation, and a
/// member x of sim(s) can lose support along pattern edge (s, t, k) in only
/// two ways: a path of length <= k from x crossed a deleted edge, or a
/// witness of x left sim(t). In the first case the prefix of that path up
/// to its first deleted edge (a, b) survives, so x lies in the
/// post-deletion reverse (k-1)-ball of a (for k = 1: x = a, and b was a
/// member of sim(t)). DeltaBoundedDelete seeds a worklist with exactly
/// those sources, re-checks each with one forward bounded BFS, cascades
/// every removal to the sources within the removed node's reverse k'-ball,
/// and patches the cached match columns row by row. Its cost is the dirty
/// area (balls plus cascade), not |G|.

#ifndef GPMV_SIMULATION_DELTA_H_
#define GPMV_SIMULATION_DELTA_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "graph/snapshot.h"
#include "graph/traversal.h"
#include "pattern/pattern.h"
#include "simulation/match_result.h"  // NodePair

namespace gpmv {

/// Why DeltaSimulationInsert declined to apply the delta.
enum class DeltaInsertFallback : uint8_t {
  kNone = 0,               ///< delta applied
  kNotSimulationPattern,   ///< pattern has a bound > 1 (paths, not edges)
  kUnmatchedRelation,      ///< cached relation is empty (collapsed); the
                           ///< pre-collapse maximum is lost, so additions
                           ///< cannot be localized
  kAreaTooLarge,           ///< affected area exceeded max_area_fraction·|V|
};

const char* DeltaInsertFallbackName(DeltaInsertFallback f);

/// Knobs for the locality heuristic (insertions and deletions alike).
struct DeltaOptions {
  /// Re-materialize instead when the affected area exceeds this fraction of
  /// |V| (0 forces the fallback, >= 1 never falls back on area size).
  double max_area_fraction = 0.25;
};

/// |V|-sized traversal buffers shared by every delta routine. The owner
/// (the view cache, across update batches) keeps one for the snapshot size
/// and lends it to each call, so no call allocates or fills |V|-sized
/// scratch per view or per batch. Each buffer is allocated on first use (a
/// plain-view insert batch never touches the BFS pair); every routine
/// leaves marks() all-clear.
class DeltaScratch {
 public:
  explicit DeltaScratch(size_t num_nodes) : num_nodes_(num_nodes) {}

  size_t num_nodes() const { return num_nodes_; }

  BfsScratch& fwd() {
    if (!fwd_.has_value()) fwd_.emplace(num_nodes_);
    return *fwd_;
  }
  BfsScratch& rev() {
    if (!rev_.has_value()) rev_.emplace(num_nodes_);
    return *rev_;
  }
  DenseBitset& marks() {
    if (marks_.size() != num_nodes_) marks_.Reset(num_nodes_);
    return marks_;
  }

 private:
  size_t num_nodes_;
  std::optional<BfsScratch> fwd_;
  std::optional<BfsScratch> rev_;
  DenseBitset marks_;
};

/// Outcome counters of one DeltaSimulationInsert call.
struct DeltaInsertStats {
  bool applied = false;
  DeltaInsertFallback fallback = DeltaInsertFallback::kNone;
  size_t affected_nodes = 0;   ///< area size (nodes visited when capped)
  size_t candidates = 0;       ///< optimistic additions before re-verify
  size_t relation_added = 0;   ///< additions surviving re-verify
};

/// Updates `rel` — the cached maximum simulation relation of `q` on the
/// graph *before* the insertions — to the maximum relation on `g` (the
/// frozen snapshot *after* inserting `inserted`), touching only the
/// affected area. `q` must be a plain simulation pattern with every sim
/// set of `rel` non-empty; otherwise, or when the area cap trips, the call
/// returns OK with stats->applied == false and `rel` untouched (the caller
/// re-materializes). On success `added` holds the per-pattern-node newly
/// added members (sorted ascending, disjoint from the old sets) and `rel`
/// the merged relation — exactly what a from-scratch computation on `g`
/// would produce (property-tested in tests/delta_insert_test.cc).
Status DeltaSimulationInsert(const Pattern& q, const GraphSnapshot& g,
                             const std::vector<NodePair>& inserted,
                             const DeltaOptions& opts, DeltaScratch* scratch,
                             std::vector<std::vector<NodeId>>* rel,
                             std::vector<std::vector<NodeId>>* added,
                             DeltaInsertStats* stats);

/// Bounded-pattern counterpart of DeltaSimulationInsert: updates the cached
/// maximum *bounded* simulation relation of `qb` under edge insertions.
/// Bounded simulation is equally monotone under insertions (new edges only
/// add paths, so every cached member keeps its witnesses), which gives the
/// same add-then-re-verify shape — but an addition chain hop now covers up
/// to fe(e) graph hops, so the affected area is a reverse BFS of the
/// pattern's *bound-weighted* longest-path depth (unbounded around pattern
/// cycles or `*` bounds, kept local only by the area cap), and re-verify
/// checks each delta candidate with a forward bounded BFS per pattern edge
/// (witness within fe(e) hops in rel(u') ∪ Δ(u')) instead of the rank
/// cascade over direct successors. Plain simulation patterns delegate to
/// DeltaSimulationInsert, making this a superset entry point. Fallback and
/// stats semantics match DeltaSimulationInsert; equivalence against
/// from-scratch ComputeBoundedSimulationRelation is property-tested in
/// tests/bounded_delta_test.cc.
Status DeltaBoundedInsert(const Pattern& qb, const GraphSnapshot& g,
                          const std::vector<NodePair>& inserted,
                          const DeltaOptions& opts, DeltaScratch* scratch,
                          std::vector<std::vector<NodeId>>* rel,
                          std::vector<std::vector<NodeId>>* added,
                          DeltaInsertStats* stats);

/// Why DeltaBoundedDelete declined to apply the delta.
enum class DeltaDeleteFallback : uint8_t {
  kNone = 0,         ///< delta applied
  kRelationEmptied,  ///< some sim set emptied: the view no longer matches
  kAreaTooLarge,     ///< dirty area exceeded max_area_fraction·|V|
};

/// Outcome of one DeltaBoundedDelete call.
struct DeltaDeleteStats {
  bool applied = false;
  DeltaDeleteFallback fallback = DeltaDeleteFallback::kNone;
};

/// The deletion prescreen, one for plain and bounded views alike: true
/// iff some pattern edge (s, t, k) has a deletion seed — a member of
/// rel(s) within the reverse (k-1)-ball of a deleted edge's tail on `g`,
/// the snapshot after the deletions (for k = 1: the tail a ∈ rel(s) with
/// head b ∈ rel(t)). When false, no member can lose support and no match
/// pair or distance can change, so `rel` and its extension stand as they
/// are. One reverse BFS per deleted edge, none for plain patterns.
bool DeletionMayAffectView(const Pattern& qb,
                           const std::vector<std::vector<NodeId>>& rel,
                           const GraphSnapshot& g,
                           const std::vector<NodePair>& deleted,
                           DeltaScratch* scratch);

/// Updates the cached maximum (bounded) simulation relation `rel` of `qb`
/// and its match columns `edges` (one ViewEdgeExtension per pattern edge,
/// as extracted on the graph *before* the deletions) to the graph `g`, the
/// frozen snapshot *after* deleting `deleted`. See the file comment for the
/// seed / re-check / cascade shape. In the patched columns, removed
/// sources lose their rows, pairs to removed targets are dropped, and the
/// rows (pairs and distances) of every seeded source that survives are
/// recomputed on `g`. `orphaned` receives, sorted, every node that was a
/// pair endpoint before and is in no pair now.
///
/// `deleted` may over-approximate the real deletions (absent edges or
/// self-loops only widen the seeds). Plain simulation patterns are the
/// fe(e) = 1 case. A relation with an empty set (an unmatched view) cannot
/// shrink further: the call applies trivially. When the dirty area exceeds
/// the cap or a sim set would empty, the call returns OK with
/// stats->applied == false and `rel` / `edges` untouched (the caller
/// re-materializes). Equality with a from-scratch materialization is
/// property-tested in tests/bounded_delta_test.cc.
Status DeltaBoundedDelete(const Pattern& qb, const GraphSnapshot& g,
                          const std::vector<NodePair>& deleted,
                          const DeltaOptions& opts, DeltaScratch* scratch,
                          std::vector<std::vector<NodeId>>* rel,
                          std::vector<ViewEdgeExtension>* edges,
                          std::vector<NodeId>* orphaned,
                          DeltaDeleteStats* stats);

}  // namespace gpmv

#endif  // GPMV_SIMULATION_DELTA_H_
