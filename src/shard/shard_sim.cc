#include "shard/shard_sim.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <utility>

#include "common/bitset.h"
#include "common/exec_context.h"
#include "engine/executor.h"     // ParallelInvoke
#include "simulation/bounded.h"  // ComputeCandidateSet
#include "simulation/refinement.h"

namespace gpmv {

namespace {

/// One owned-candidate deletion, queued for local cascading.
struct Removal {
  uint32_t u = 0;     ///< pattern node
  uint32_t rank = 0;  ///< global candidate rank in cand(u)
};

/// One targeted support decrement routed to the owner of the affected
/// candidate at a round barrier. The *origin* shard computes it while
/// walking the removed node's full rows (the same walk that decrements its
/// own counters), so the receiver applies it in O(1) — no replica lookup,
/// no re-walk, and shards never scan messages that do not concern them.
struct Decrement {
  uint32_t er = 0;    ///< pattern edge << 1 | (1 = parent/pred condition)
  uint32_t rank = 0;  ///< global rank of the candidate losing a supporter
};

/// Per-shard private fixpoint state. Counters and bitsets span the *global*
/// rank domain (only owned entries are initialized/meaningful; `owned_mask`
/// guards every local decrement), which keeps indexing uniform across
/// shards at the cost of K× word storage — fine for the rank counts real
/// queries produce.
struct ShardState {
  const ShardSlice* slice = nullptr;
  std::vector<std::vector<uint32_t>> owned_ranks;  ///< u -> ascending ranks
  std::vector<DenseBitset> owned_mask;             ///< u -> rank owned here
  std::vector<DenseBitset> alive;  ///< u -> owned rank still in sim
  std::vector<std::vector<uint32_t>> succ;  ///< e -> src-rank support
  std::vector<std::vector<uint32_t>> pred;  ///< e -> dst-rank support (dual)
  std::deque<Removal> worklist;             ///< local cascade queue
  /// Outgoing decrements per destination shard, flushed at the barrier.
  std::vector<std::vector<Decrement>> outbox;
  /// Owned removals this phase, per pattern node — the barrier's
  /// global-emptiness accounting.
  std::vector<uint32_t> phase_removed;
};

class ShardSim {
 public:
  ShardSim(const Pattern& q, const ShardedSnapshot& ss,
           const CandidateSpace& space, bool dual)
      : q_(q), ss_(ss), space_(space), dual_(dual) {}

  /// Runs the sharded fixpoint. Returns false when some pattern node ran
  /// out of candidates (all-empty result); on true, the owner-merged
  /// `final_alive()` bitsets hold the exact maximum relation.
  bool Run(ThreadPool* pool, ShardSimStats* stats);

  /// Per-shard edge-match extraction into `pairs[s][e]` (owned sources
  /// only); caller stitches shards together.
  void ExtractShardMatches(
      ThreadPool* pool,
      std::vector<std::vector<std::vector<NodePair>>>* pairs) const;

  /// Sorted sim sets from the owner-merged relation.
  void CollectSim(std::vector<std::vector<NodeId>>* sim) const;

  /// Why Run returned false: OK for the ordinary all-empty result, or the
  /// deadline checkpoint that fired at a merge-round barrier. Callers must
  /// propagate a non-OK status instead of reporting an empty relation.
  const Status& run_status() const { return run_status_; }

 private:
  void InitShard(uint32_t s);
  void ProcessInbox(uint32_t s, const std::vector<Decrement>& inbox);
  void RemoveLocal(ShardState& st, uint32_t u, uint32_t rank);
  void Propagate(ShardState& st, uint32_t u2, NodeId w);
  void Drain(ShardState& st);
  /// Owner-authoritative merge of every shard's owned alive bits.
  void BuildFinalAlive();

  const Pattern& q_;
  const ShardedSnapshot& ss_;
  const CandidateSpace& space_;
  const bool dual_;
  std::vector<ShardState> states_;
  std::vector<DenseBitset> final_alive_;  ///< u -> rank, after Run
  Status run_status_;
};

void ShardSim::RemoveLocal(ShardState& st, uint32_t u, uint32_t rank) {
  if (!st.alive[u].test(rank)) return;
  st.alive[u].reset(rank);
  st.worklist.push_back(Removal{u, rank});
  ++st.phase_removed[u];
}

void ShardSim::Propagate(ShardState& st, uint32_t u2, NodeId w) {
  // Owner-side propagation: walk w's full slice rows once; owned
  // candidates' counters decrement in place (cascading locally), foreign
  // candidates' decrements are routed to their owner for the next round.
  const NodeSpan sources = st.slice->in_neighbors(w);
  // Child condition: every candidate predecessor of w loses one supporting
  // successor on each pattern edge into u2.
  for (uint32_t e : q_.in_edges(u2)) {
    const uint32_t u = q_.edge(e).src;
    std::vector<uint32_t>& sc = st.succ[e];
    for (NodeId v : sources) {
      const uint32_t r = space_.rank(u, v);
      if (r == CandidateSpace::kNoRank) continue;
      if (st.owned_mask[u].test(r)) {
        if (--sc[r] == 0 && st.alive[u].test(r)) RemoveLocal(st, u, r);
      } else {
        st.outbox[ss_.owner(v)].push_back(Decrement{e << 1, r});
      }
    }
  }
  if (!dual_) return;
  // Parent condition: every candidate successor of w loses one supporting
  // predecessor on each pattern edge out of u2.
  const NodeSpan targets = st.slice->out_neighbors(w);
  for (uint32_t e : q_.out_edges(u2)) {
    const uint32_t u3 = q_.edge(e).dst;
    std::vector<uint32_t>& pc = st.pred[e];
    for (NodeId x : targets) {
      const uint32_t r3 = space_.rank(u3, x);
      if (r3 == CandidateSpace::kNoRank) continue;
      if (st.owned_mask[u3].test(r3)) {
        if (--pc[r3] == 0 && st.alive[u3].test(r3)) RemoveLocal(st, u3, r3);
      } else {
        st.outbox[ss_.owner(x)].push_back(Decrement{(e << 1) | 1u, r3});
      }
    }
  }
}

void ShardSim::Drain(ShardState& st) {
  while (!st.worklist.empty()) {
    const Removal rm = st.worklist.front();
    st.worklist.pop_front();
    Propagate(st, rm.u, space_.node(rm.u, rm.rank));
  }
}

void ShardSim::InitShard(uint32_t s) {
  ShardState& st = states_[s];
  st.slice = &ss_.slice(s);
  const size_t np = q_.num_nodes();
  const size_t ne = q_.num_edges();
  st.owned_ranks.resize(np);
  st.owned_mask.resize(np);
  st.alive.resize(np);
  st.phase_removed.assign(np, 0);
  st.outbox.resize(ss_.num_shards());
  for (uint32_t u = 0; u < np; ++u) {
    const uint32_t c = space_.size(u);
    st.alive[u].Reset(c, /*value=*/true);
    st.owned_mask[u].Reset(c);
    std::vector<uint32_t>& mine = st.owned_ranks[u];
    mine.reserve(c / ss_.num_shards() + 8);
    for (uint32_t r = 0; r < c; ++r) {
      if (st.slice->Owns(space_.node(u, r))) {
        mine.push_back(r);
        st.owned_mask[u].set(r);
      }
    }
  }
  // Initial support counters over owned candidates, from the slice's full
  // owned rows (neighbors of any ownership count — the conditions are
  // global, only the *state* is partitioned).
  st.succ.resize(ne);
  if (dual_) st.pred.resize(ne);
  for (uint32_t e = 0; e < ne; ++e) {
    const uint32_t u = q_.edge(e).src;
    const uint32_t u2 = q_.edge(e).dst;
    std::vector<uint32_t>& sc = st.succ[e];
    sc.assign(space_.size(u), 0);
    for (uint32_t r : st.owned_ranks[u]) {
      for (NodeId w : st.slice->out_neighbors(space_.node(u, r))) {
        if (space_.rank(u2, w) != CandidateSpace::kNoRank) ++sc[r];
      }
    }
    if (dual_) {
      std::vector<uint32_t>& pc = st.pred[e];
      pc.assign(space_.size(u2), 0);
      for (uint32_t r2 : st.owned_ranks[u2]) {
        for (NodeId v : st.slice->in_neighbors(space_.node(u2, r2))) {
          if (space_.rank(u, v) != CandidateSpace::kNoRank) ++pc[r2];
        }
      }
    }
  }
  // Queue initially violating owned candidates and cascade locally.
  for (uint32_t e = 0; e < ne; ++e) {
    const uint32_t u = q_.edge(e).src;
    const uint32_t u2 = q_.edge(e).dst;
    for (uint32_t r : st.owned_ranks[u]) {
      if (st.succ[e][r] == 0) RemoveLocal(st, u, r);
    }
    if (dual_) {
      for (uint32_t r2 : st.owned_ranks[u2]) {
        if (st.pred[e][r2] == 0) RemoveLocal(st, u2, r2);
      }
    }
  }
  Drain(st);
}

void ShardSim::ProcessInbox(uint32_t s, const std::vector<Decrement>& inbox) {
  ShardState& st = states_[s];
  for (const Decrement& d : inbox) {
    const uint32_t e = d.er >> 1;
    const bool parent_cond = (d.er & 1u) != 0;
    const uint32_t u = parent_cond ? q_.edge(e).dst : q_.edge(e).src;
    std::vector<uint32_t>& c = parent_cond ? st.pred[e] : st.succ[e];
    if (--c[d.rank] == 0 && st.alive[u].test(d.rank)) {
      RemoveLocal(st, u, d.rank);
    }
  }
  Drain(st);
}

bool ShardSim::Run(ThreadPool* pool, ShardSimStats* stats) {
  const uint32_t k = ss_.num_shards();
  const size_t np = q_.num_nodes();
  states_.assign(k, ShardState{});
  if (stats != nullptr) stats->shards = k;

  // Remaining candidates per pattern node, settled at the barrier so an
  // emptied sim set short-circuits the remaining rounds.
  std::vector<size_t> global_alive(np);
  for (uint32_t u = 0; u < np; ++u) global_alive[u] = space_.size(u);

  std::vector<std::function<void()>> tasks;
  tasks.reserve(k);
  for (uint32_t s = 0; s < k; ++s) {
    tasks.push_back([this, s] { InitShard(s); });
  }
  ParallelInvoke(pool, std::move(tasks));
  if (stats != nullptr) ++stats->rounds;

  std::vector<std::vector<Decrement>> inbox(k);
  for (;;) {
    // Each round barrier is a cancellation checkpoint: the deadline is only
    // consulted here, where no shard task is in flight and the partial
    // state can be dropped whole (per-shard state is private, so an
    // aborted round never leaks into results).
    run_status_ = exec::CheckDeadline();
    if (!run_status_.ok()) return false;
    // Barrier: settle the emptiness accounting and route every shard's
    // outgoing decrements to their destination inboxes.
    for (uint32_t s = 0; s < k; ++s) {
      std::vector<uint32_t>& removed = states_[s].phase_removed;
      for (uint32_t u = 0; u < np; ++u) {
        if (removed[u] == 0) continue;
        if (stats != nullptr) stats->removals += removed[u];
        if (global_alive[u] <= removed[u]) return false;  // all-empty
        global_alive[u] -= removed[u];
        removed[u] = 0;
      }
    }
    size_t routed = 0;
    for (uint32_t t = 0; t < k; ++t) {
      inbox[t].clear();
      for (uint32_t s = 0; s < k; ++s) {
        std::vector<Decrement>& out = states_[s].outbox[t];
        inbox[t].insert(inbox[t].end(), out.begin(), out.end());
        out.clear();
      }
      routed += inbox[t].size();
    }
    if (routed == 0) {
      BuildFinalAlive();
      return true;
    }
    if (stats != nullptr) stats->messages += routed;
    std::vector<std::function<void()>> round;
    round.reserve(k);
    for (uint32_t s = 0; s < k; ++s) {
      round.push_back([this, s, &inbox] { ProcessInbox(s, inbox[s]); });
    }
    ParallelInvoke(pool, std::move(round));
    if (stats != nullptr) ++stats->rounds;
  }
}

void ShardSim::BuildFinalAlive() {
  const size_t np = q_.num_nodes();
  final_alive_.resize(np);
  for (uint32_t u = 0; u < np; ++u) {
    final_alive_[u].Reset(space_.size(u));
    for (const ShardState& st : states_) {
      for (uint32_t r : st.owned_ranks[u]) {
        if (st.alive[u].test(r)) final_alive_[u].set(r);
      }
    }
  }
}

void ShardSim::CollectSim(std::vector<std::vector<NodeId>>* sim) const {
  const size_t np = q_.num_nodes();
  sim->assign(np, {});
  for (uint32_t u = 0; u < np; ++u) {
    std::vector<NodeId>& su = (*sim)[u];
    for (uint32_t r = 0; r < space_.size(u); ++r) {
      if (final_alive_[u].test(r)) su.push_back(space_.node(u, r));
    }
  }
}

void ShardSim::ExtractShardMatches(
    ThreadPool* pool,
    std::vector<std::vector<std::vector<NodePair>>>* pairs) const {
  const uint32_t k = ss_.num_shards();
  const size_t ne = q_.num_edges();
  pairs->assign(k, std::vector<std::vector<NodePair>>(ne));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(k);
  for (uint32_t s = 0; s < k; ++s) {
    tasks.push_back([this, s, pairs] {
      const ShardState& st = states_[s];
      for (uint32_t e = 0; e < q_.num_edges(); ++e) {
        const uint32_t src = q_.edge(e).src;
        const uint32_t dst = q_.edge(e).dst;
        std::vector<NodePair>& out = (*pairs)[s][e];
        for (uint32_t r : st.owned_ranks[src]) {
          if (!final_alive_[src].test(r)) continue;
          const NodeId v = space_.node(src, r);
          for (NodeId w : st.slice->out_neighbors(v)) {
            const uint32_t r2 = space_.rank(dst, w);
            if (r2 != CandidateSpace::kNoRank && final_alive_[dst].test(r2)) {
              out.emplace_back(v, w);
            }
          }
        }
      }
    });
  }
  ParallelInvoke(pool, std::move(tasks));
}

/// BuildCandidateSpace with the per-pattern-node work (label scan,
/// predicate checks, and the |V|-sized dense-inverse fill) fanned out on
/// `pool` — the construction is the serial prologue of every sharded
/// query, so it shards by pattern node the way the fixpoint shards by data
/// node. Produces exactly the space BuildCandidateSpace builds.
Status BuildCandidateSpaceFanOut(const Pattern& q, const GraphSnapshot& g,
                                 const std::vector<std::vector<NodeId>>* seed,
                                 ThreadPool* pool, CandidateSpace* space) {
  const size_t np = q.num_nodes();
  if (np == 0) return Status::InvalidArgument("empty pattern");
  if (seed != nullptr && seed->size() != np) {
    return Status::InvalidArgument("seed relation shape mismatch");
  }
  space->ResetForConcurrentAssign(np, g.num_nodes());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(np);
  for (uint32_t u = 0; u < np; ++u) {
    tasks.push_back([&, u] {
      std::vector<NodeId> cu;
      if (seed != nullptr) {
        // External seeds: sort defensively and deduplicate, as Assign does.
        cu = (*seed)[u];
        std::sort(cu.begin(), cu.end());
        cu.erase(std::unique(cu.begin(), cu.end()), cu.end());
      } else {
        // Candidate sets come out ascending and unique; rank = position.
        ComputeCandidateSet(q, u, g, &cu);
      }
      space->AssignPrerankedConcurrent(u, std::move(cu));
    });
  }
  ParallelInvoke(pool, std::move(tasks));
  space->FinishConcurrentAssign();
  return Status::OK();
}

}  // namespace

Status ShardedRefineSimulation(const Pattern& q, const ShardedSnapshot& ss,
                               const CandidateSpace& space, bool dual,
                               ThreadPool* pool,
                               std::vector<std::vector<NodeId>>* sim,
                               ShardSimStats* stats) {
  const size_t np = q.num_nodes();
  if (np == 0) return Status::InvalidArgument("empty pattern");
  if (!q.IsSimulationPattern()) {
    return Status::InvalidArgument(
        "sharded refinement requires unit edge bounds");
  }
  sim->assign(np, {});
  for (uint32_t u = 0; u < np; ++u) {
    if (space.size(u) == 0) return Status::OK();  // all-empty result
  }
  ShardSim engine(q, ss, space, dual);
  if (!engine.Run(pool, stats)) {
    GPMV_RETURN_NOT_OK(engine.run_status());
    return Status::OK();  // ordinary all-empty result
  }
  engine.CollectSim(sim);
  return Status::OK();
}

Result<MatchResult> ShardedMatchSimulation(
    const Pattern& q, const ShardedSnapshot& ss, ThreadPool* pool, bool dual,
    const std::vector<std::vector<NodeId>>* seed, ShardSimStats* stats) {
  if (q.num_nodes() == 0) return Status::InvalidArgument("empty pattern");
  if (!q.IsSimulationPattern()) {
    return Status::InvalidArgument(
        "sharded evaluation requires unit edge bounds");
  }
  CandidateSpace space;
  GPMV_RETURN_NOT_OK(
      BuildCandidateSpaceFanOut(q, ss.parent(), seed, pool, &space));
  MatchResult result = MatchResult::Empty(q);
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    if (space.size(u) == 0) return result;
  }
  ShardSim engine(q, ss, space, dual);
  if (!engine.Run(pool, stats)) {
    GPMV_RETURN_NOT_OK(engine.run_status());
    return result;  // ordinary all-empty result
  }

  // Stitch per-shard owned-source matches; shards partition the sources,
  // so concatenation is duplicate-free and in ascending source order.
  std::vector<std::vector<std::vector<NodePair>>> pairs;
  engine.ExtractShardMatches(pool, &pairs);
  for (uint32_t e = 0; e < q.num_edges(); ++e) {
    std::vector<NodePair>* se = result.mutable_edge_matches(e);
    size_t total = 0;
    for (uint32_t s = 0; s < ss.num_shards(); ++s) total += pairs[s][e].size();
    se->reserve(total);
    for (uint32_t s = 0; s < ss.num_shards(); ++s) {
      se->insert(se->end(), pairs[s][e].begin(), pairs[s][e].end());
    }
    // The maximum relation guarantees non-empty match sets, but mirror the
    // unsharded extraction's guard.
    if (se->empty()) return MatchResult::Empty(q);
    // Shards partition the sources into ascending intervals and each emits
    // ascending sources over sorted CSR rows, so the stitched set is
    // duplicate-free and sorted, making this sort a no-op check. Together
    // this equals Normalize() on the same set.
    if (!std::is_sorted(se->begin(), se->end())) {
      std::sort(se->begin(), se->end());
    }
  }
  result.set_matched(true);
  result.DeriveNodeMatches(q);
  return result;
}

namespace {

/// BFS hop budget certifying a nonempty path of length <= bound via an
/// out-neighbor (mirrors bounded.cc).
uint32_t BoundedInnerBound(uint32_t bound) {
  return bound == kUnbounded ? kUnbounded : bound - 1;
}

/// Level-synchronized multi-source BFS over a ShardedSnapshot — the
/// frontier hand-off that carries distance-bounded reachability across
/// edge-cut boundaries. Every distance label is written only by the node's
/// owner: during a level each shard expands the frontier nodes it owns
/// through its slice's full rows, labels owned discoveries in place, and
/// routes foreign discoveries to their owner's inbox; the level barrier
/// applies inbox arrivals serially (deduplicated against the labels), so
/// parallel phases never touch another shard's labels. The reached set and
/// distances equal an unsharded BfsScratch::Run over the parent snapshot
/// for any shard count/partitioning. Buffers are reused across Run calls.
class ShardedBoundedBfs {
 public:
  ShardedBoundedBfs(const ShardedSnapshot& ss, ThreadPool* pool)
      : ss_(ss),
        pool_(pool),
        dist_(ss.parent().num_nodes(), BfsScratch::kNotSeen),
        frontier_(ss.num_shards()),
        next_local_(ss.num_shards()),
        outbox_(static_cast<size_t>(ss.num_shards()) * ss.num_shards()) {}

  /// Multi-source BFS following `forward` (out-edges) or reverse (in-edges)
  /// direction, stopping at distance `bound` (kUnbounded = no limit).
  /// Counts parallel levels into stats->rounds and handed-off frontier
  /// entries into stats->frontier_msgs.
  void Run(const std::vector<NodeId>& sources, uint32_t bound, bool forward,
           ShardSimStats* stats) {
    const uint32_t k = ss_.num_shards();
    for (NodeId v : touched_) dist_[v] = BfsScratch::kNotSeen;
    touched_.clear();
    for (auto& f : frontier_) f.clear();
    for (NodeId v : sources) {
      if (dist_[v] != BfsScratch::kNotSeen) continue;
      dist_[v] = 0;
      touched_.push_back(v);
      frontier_[ss_.owner(v)].push_back(v);
    }
    size_t handed_off = 0;
    for (uint32_t level = 0; level < bound; ++level) {
      bool any = false;
      for (const auto& f : frontier_) any = any || !f.empty();
      if (!any) break;
      std::vector<std::function<void()>> tasks;
      tasks.reserve(k);
      for (uint32_t s = 0; s < k; ++s) {
        tasks.push_back([this, s, k, level, forward] {
          const ShardSlice& slice = ss_.slice(s);
          std::vector<NodeId>& next = next_local_[s];
          next.clear();
          for (NodeId v : frontier_[s]) {
            const NodeSpan nbrs =
                forward ? slice.out_neighbors(v) : slice.in_neighbors(v);
            for (NodeId w : nbrs) {
              const uint32_t o = ss_.owner(w);
              if (o == s) {
                if (dist_[w] == BfsScratch::kNotSeen) {
                  dist_[w] = level + 1;
                  next.push_back(w);
                }
              } else {
                outbox_[static_cast<size_t>(s) * k + o].push_back(w);
              }
            }
          }
        });
      }
      ParallelInvoke(pool_, std::move(tasks));
      if (stats != nullptr) ++stats->rounds;
      // Barrier: owned discoveries become the next frontier; routed
      // arrivals are applied serially by (conceptual) owner, deduplicated
      // against the labels they own.
      for (uint32_t t = 0; t < k; ++t) {
        frontier_[t].swap(next_local_[t]);
        touched_.insert(touched_.end(), frontier_[t].begin(),
                        frontier_[t].end());
        for (uint32_t s = 0; s < k; ++s) {
          std::vector<NodeId>& out = outbox_[static_cast<size_t>(s) * k + t];
          handed_off += out.size();
          for (NodeId w : out) {
            if (dist_[w] == BfsScratch::kNotSeen) {
              dist_[w] = level + 1;
              touched_.push_back(w);
              frontier_[t].push_back(w);
            }
          }
          out.clear();
        }
      }
    }
    if (stats != nullptr) stats->frontier_msgs += handed_off;
  }

  bool Reached(NodeId v) const { return dist_[v] != BfsScratch::kNotSeen; }

 private:
  const ShardedSnapshot& ss_;
  ThreadPool* pool_;
  std::vector<uint32_t> dist_;
  std::vector<NodeId> touched_;
  std::vector<std::vector<NodeId>> frontier_;    ///< per owner shard
  std::vector<std::vector<NodeId>> next_local_;  ///< per shard, owned finds
  std::vector<std::vector<NodeId>> outbox_;      ///< [origin * K + owner]
};

/// Sharded mirror of ComputeBoundedSimulationRelation: identical edge
/// order and filter predicate, with the reverse bounded BFS replaced by
/// the frontier hand-off and the per-candidate filter fanned out over
/// owning shards — the fixpoint (and therefore the relation) is
/// bit-identical to the unsharded computation.
Status ShardedComputeBoundedRelation(const Pattern& qb,
                                     const ShardedSnapshot& ss,
                                     ThreadPool* pool,
                                     const std::vector<std::vector<NodeId>>* seed,
                                     std::vector<std::vector<NodeId>>* sim,
                                     ShardSimStats* stats) {
  const size_t np = qb.num_nodes();
  const GraphSnapshot& g = ss.parent();
  if (seed != nullptr) {
    if (seed->size() != np) {
      return Status::InvalidArgument("seed relation shape mismatch");
    }
    *sim = *seed;
  } else {
    sim->assign(np, {});
    std::vector<std::function<void()>> tasks;
    tasks.reserve(np);
    for (uint32_t u = 0; u < np; ++u) {
      tasks.push_back([&, u] { ComputeCandidateSet(qb, u, g, &(*sim)[u]); });
    }
    ParallelInvoke(pool, std::move(tasks));
  }
  for (uint32_t u = 0; u < np; ++u) {
    if ((*sim)[u].empty()) {
      sim->assign(np, {});
      return Status::OK();
    }
  }

  const uint32_t k = ss.num_shards();
  ShardedBoundedBfs bfs(ss, pool);
  // Survivor marks are bytes, not bits: range cut points need not fall on
  // word boundaries, and byte stores from different threads never tear (a
  // shared bitset word would).
  std::vector<uint8_t> keep(g.num_nodes(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t e = 0; e < qb.num_edges(); ++e) {
      // Per-edge pass = one merge round here: BFS + fan-out filter between
      // two serial points, same checkpoint granularity as ShardSim::Run.
      GPMV_RETURN_NOT_OK(exec::CheckDeadline());
      const PatternEdge& pe = qb.edge(e);
      auto& su = (*sim)[pe.src];
      const auto& st = (*sim)[pe.dst];
      // Which nodes reach sim(dst) by a nonempty path of length <= bound?
      bfs.Run(st, BoundedInnerBound(pe.bound), /*forward=*/false, stats);
      for (NodeId v : su) keep[v] = 0;
      std::vector<std::function<void()>> tasks;
      tasks.reserve(k);
      for (uint32_t s = 0; s < k; ++s) {
        tasks.push_back([&, s] {
          const ShardSlice& slice = ss.slice(s);
          for (NodeId v : su) {
            if (!slice.Owns(v)) continue;
            for (NodeId w : slice.out_neighbors(v)) {
              if (bfs.Reached(w)) {
                keep[v] = 1;
                break;
              }
            }
          }
        });
      }
      ParallelInvoke(pool, std::move(tasks));
      if (stats != nullptr) ++stats->rounds;
      size_t kept = 0;
      for (NodeId v : su) {
        if (keep[v] != 0) su[kept++] = v;
      }
      if (kept != su.size()) {
        if (stats != nullptr) stats->removals += su.size() - kept;
        su.resize(kept);
        changed = true;
        if (su.empty()) {
          sim->assign(np, {});
          return Status::OK();
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<MatchResult> ShardedMatchBoundedSimulation(
    const Pattern& qb, const ShardedSnapshot& ss, ThreadPool* pool,
    const std::vector<std::vector<NodeId>>* seed, ShardSimStats* stats) {
  if (qb.num_nodes() == 0) return Status::InvalidArgument("empty pattern");
  if (qb.IsSimulationPattern()) {
    // Unit bounds: the decrement-exchange engine is strictly cheaper.
    return ShardedMatchSimulation(qb, ss, pool, /*dual=*/false, seed, stats);
  }
  const uint32_t k = ss.num_shards();
  if (stats != nullptr) stats->shards = k;
  std::vector<std::vector<NodeId>> sim;
  GPMV_RETURN_NOT_OK(
      ShardedComputeBoundedRelation(qb, ss, pool, seed, &sim, stats));
  MatchResult result = MatchResult::Empty(qb);
  bool all_nonempty = !sim.empty();
  for (const auto& su : sim) all_nonempty = all_nonempty && !su.empty();
  if (!all_nonempty) return result;

  const GraphSnapshot& g = ss.parent();
  std::vector<DenseBitset> in_sim(qb.num_nodes());
  for (uint32_t u = 0; u < qb.num_nodes(); ++u) {
    in_sim[u].Reset(g.num_nodes());
    for (NodeId v : sim[u]) in_sim[u].set(v);
  }

  // Per-shard extraction over owned sources: the same per-candidate
  // forward bounded BFS as ExtractBoundedMatches, run on the parent
  // snapshot (paths cross shard boundaries freely); shards partition the
  // sources, so stitching + sorting reproduces the canonical order.
  std::vector<std::vector<std::vector<NodePair>>> pairs(
      k, std::vector<std::vector<NodePair>>(qb.num_edges()));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(k);
  for (uint32_t s = 0; s < k; ++s) {
    tasks.push_back([&, s] {
      const ShardSlice& slice = ss.slice(s);
      BfsScratch scratch(g.num_nodes());
      for (uint32_t e = 0; e < qb.num_edges(); ++e) {
        const PatternEdge& pe = qb.edge(e);
        std::vector<NodePair>& out = pairs[s][e];
        for (NodeId v : sim[pe.src]) {
          if (!slice.Owns(v)) continue;
          scratch.Run(g, g.out_neighbors(v), BoundedInnerBound(pe.bound),
                      /*forward=*/true);
          for (NodeId x : scratch.reached()) {
            if (in_sim[pe.dst].test(x)) out.emplace_back(v, x);
          }
        }
      }
    });
  }
  ParallelInvoke(pool, std::move(tasks));

  for (uint32_t e = 0; e < qb.num_edges(); ++e) {
    std::vector<NodePair>* se = result.mutable_edge_matches(e);
    size_t total = 0;
    for (uint32_t s = 0; s < k; ++s) total += pairs[s][e].size();
    se->reserve(total);
    for (uint32_t s = 0; s < k; ++s) {
      se->insert(se->end(), pairs[s][e].begin(), pairs[s][e].end());
    }
    if (se->empty()) return MatchResult::Empty(qb);
    if (!std::is_sorted(se->begin(), se->end())) {
      std::sort(se->begin(), se->end());
    }
  }
  result.set_matched(true);
  result.DeriveNodeMatches(qb);
  return result;
}

}  // namespace gpmv
