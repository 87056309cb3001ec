/// \file candidate_space.h
/// \brief Dense candidate ranks per pattern node.
///
/// Every matching fixpoint in this library maintains per-(pattern node,
/// data node) state — membership bits, support counters, match-set
/// occurrence counts. Keying that state by NodeId forces either hash maps
/// (the pre-refactor MatchJoin engine: an unordered_map lookup per pair per
/// scan dominated the engine's warm path) or O(|Q|·|V|) arrays (the
/// pre-refactor simulation engines: zero-filled per call even when
/// candidates were sparse).
///
/// `CandidateSpace` assigns each pattern node u's candidate set a *dense
/// rank*: candidates are sorted ascending and numbered 0..|cand(u)|-1. All
/// fixpoint state then lives in flat arrays indexed by rank — O(1)
/// unhashed access, proportional to the candidate count rather than |V| —
/// and rank->node / node->rank translate in O(1) via the stored forward and
/// inverse maps. The inverse map is one |V|-sized array per pattern node
/// (uint32), filled once at build; `kNoRank` marks non-candidates, which is
/// also how fixpoints test candidate membership in O(1).
///
/// Rank ↔ node id mapping contract:
///
///  * ranks are *per pattern node*: rank r of u and rank r of u' are
///    unrelated; always pair a rank with its pattern node;
///  * `node(u, rank(u, v)) == v` for every candidate v of u, and
///    `rank(u, node(u, r)) == r` for every r < size(u) — except after
///    `AssignPreranked` in sparse mode with caller-ordered candidates,
///    where rank() is unusable for that node (see its comment);
///  * via `Assign`/`AssignPreranked`-from-sorted-input, rank order equals
///    ascending node-id order, so iterating ranks 0..size(u)-1 yields a
///    sorted candidate list — matchers rely on this to emit sorted sim
///    sets without re-sorting (shard/shard_sim.h additionally relies on
///    it to give each shard's owned ranks a deterministic order);
///  * a built space is immutable-in-practice: every accessor is const and
///    any number of threads may translate concurrently (shard/shard_sim.h
///    shares one space across all per-shard fixpoint tasks of a query).

#ifndef GPMV_SIMULATION_CANDIDATE_SPACE_H_
#define GPMV_SIMULATION_CANDIDATE_SPACE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace gpmv {

/// See file comment.
class CandidateSpace {
 public:
  static constexpr uint32_t kNoRank = static_cast<uint32_t>(-1);

  /// Clears and re-shapes for `num_pattern_nodes` pattern nodes over a
  /// graph universe of node ids [0, num_graph_nodes).
  ///
  /// With `dense_inverse` (the default), node->rank lookups are O(1)
  /// through one |V|-sized array per pattern node — right for fixpoints
  /// that translate ranks inside their inner loops (the simulation
  /// refinement resolves a rank per traversed data edge). Without it, no
  /// per-universe arrays are allocated and rank() binary-searches the
  /// sorted candidate list — right when ranks are resolved only during
  /// setup (MatchJoin translates each merged pair once, then runs entirely
  /// on ranks; zero-filling |V|-sized arrays per query would dominate).
  void Reset(size_t num_pattern_nodes, size_t num_graph_nodes,
             bool dense_inverse = true);

  /// Assigns pattern node u's candidates (deduplicated and sorted
  /// internally; ids must be < num_graph_nodes). Overwrites any previous
  /// assignment for u.
  void Assign(uint32_t u, std::vector<NodeId> candidates);

  /// Installs candidates whose dense numbering the caller already fixed:
  /// rank r = candidates[r], no sorting, no deduplication (the caller
  /// guarantees uniqueness — e.g. first-appearance numbering during
  /// MatchJoin's pair translation, which keeps init O(pairs) instead of
  /// O(pairs log pairs)). With a dense inverse the inverse is updated; in
  /// sparse mode rank() must not be called for u afterwards (its binary
  /// search needs ascending order) — such callers keep their own map.
  void AssignPreranked(uint32_t u, std::vector<NodeId> candidates);

  /// Fan-out building (shard/shard_sim.h): shapes the space like
  /// Reset(dense_inverse = true) but defers the per-pattern-node inverse
  /// fills to AssignPrerankedConcurrent, which distinct threads may call
  /// for *distinct* `u` concurrently (each touches only u's slots, and the
  /// |V|-sized kNoRank fill — the expensive part of a dense Reset — runs
  /// inside the per-node call). Call FinishConcurrentAssign after joining;
  /// until then total_ranks() is unspecified. Every pattern node must be
  /// assigned before rank() is consulted.
  void ResetForConcurrentAssign(size_t num_pattern_nodes,
                                size_t num_graph_nodes);
  void AssignPrerankedConcurrent(uint32_t u, std::vector<NodeId> candidates);
  void FinishConcurrentAssign();

  size_t num_pattern_nodes() const { return nodes_.size(); }

  /// |cand(u)|.
  uint32_t size(uint32_t u) const {
    return static_cast<uint32_t>(nodes_[u].size());
  }

  /// Total ranks across all pattern nodes (the fixpoint state footprint).
  size_t total_ranks() const { return total_ranks_; }

  /// Candidates of u in rank order (ascending node id).
  const std::vector<NodeId>& nodes(uint32_t u) const { return nodes_[u]; }

  NodeId node(uint32_t u, uint32_t rank) const { return nodes_[u][rank]; }

  /// Rank of `v` in u's candidate set; kNoRank when v is not a candidate.
  /// O(1) with a dense inverse, O(log c) otherwise.
  uint32_t rank(uint32_t u, NodeId v) const {
    if (!inv_.empty()) return inv_[u][v];
    const std::vector<NodeId>& ns = nodes_[u];
    auto it = std::lower_bound(ns.begin(), ns.end(), v);
    return (it != ns.end() && *it == v)
               ? static_cast<uint32_t>(it - ns.begin())
               : kNoRank;
  }

 private:
  size_t num_graph_nodes_ = 0;
  size_t total_ranks_ = 0;
  std::vector<std::vector<NodeId>> nodes_;    // u -> rank -> node
  std::vector<std::vector<uint32_t>> inv_;    // u -> node -> rank (optional)
};

}  // namespace gpmv

#endif  // GPMV_SIMULATION_CANDIDATE_SPACE_H_
