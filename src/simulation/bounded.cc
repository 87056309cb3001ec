#include "simulation/bounded.h"

#include <algorithm>

#include "common/bitset.h"
#include "common/exec_context.h"
#include "graph/traversal.h"

namespace gpmv {

Status ComputeCandidateSets(const Pattern& q, const Graph& g,
                            std::vector<std::vector<NodeId>>* cand) {
  if (q.num_nodes() == 0) return Status::InvalidArgument("empty pattern");
  cand->assign(q.num_nodes(), {});
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    const PatternNode& pn = q.node(u);
    LabelId lid = pn.label.empty() ? kInvalidLabel : g.FindLabel(pn.label);
    auto& cu = (*cand)[u];
    if (!pn.label.empty()) {
      if (lid == kInvalidLabel) continue;
      for (NodeId v : g.NodesWithLabel(lid)) {
        if (pn.MatchesData(g, v, lid)) cu.push_back(v);
      }
      std::sort(cu.begin(), cu.end());
    } else {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (pn.MatchesData(g, v, lid)) cu.push_back(v);
      }
    }
  }
  return Status::OK();
}

void ComputeCandidateSet(const Pattern& q, uint32_t u, const GraphSnapshot& g,
                         std::vector<NodeId>* cand) {
  const PatternNode& pn = q.node(u);
  LabelId lid = pn.label.empty() ? kInvalidLabel : g.FindLabel(pn.label);
  cand->clear();
  if (!pn.label.empty()) {
    if (lid == kInvalidLabel) return;
    // Label ranges are stored ascending, so the set comes out sorted.
    for (NodeId v : g.NodesWithLabel(lid)) {
      if (pn.MatchesData(g, v, lid)) cand->push_back(v);
    }
  } else {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (pn.MatchesData(g, v, lid)) cand->push_back(v);
    }
  }
}

Status ComputeCandidateSets(const Pattern& q, const GraphSnapshot& g,
                            std::vector<std::vector<NodeId>>* cand) {
  if (q.num_nodes() == 0) return Status::InvalidArgument("empty pattern");
  cand->assign(q.num_nodes(), {});
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    ComputeCandidateSet(q, u, g, &(*cand)[u]);
  }
  return Status::OK();
}

namespace {

/// BFS hop budget that certifies "some out-neighbor of v reaches the target
/// set within bound-1 hops", i.e. v reaches it by a nonempty path within
/// `bound` hops.
uint32_t InnerBound(uint32_t bound) {
  return bound == kUnbounded ? kUnbounded : bound - 1;
}

}  // namespace

Status ComputeBoundedSimulationRelation(
    const Pattern& qb, const GraphSnapshot& g,
    std::vector<std::vector<NodeId>>* sim,
    const std::vector<std::vector<NodeId>>* seed) {
  if (seed != nullptr) {
    if (seed->size() != qb.num_nodes()) {
      return Status::InvalidArgument("seed relation shape mismatch");
    }
    *sim = *seed;
  } else {
    GPMV_RETURN_NOT_OK(ComputeCandidateSets(qb, g, sim));
  }
  const size_t np = qb.num_nodes();
  for (uint32_t u = 0; u < np; ++u) {
    if ((*sim)[u].empty()) {
      sim->assign(np, {});
      return Status::OK();
    }
  }

  BfsScratch scratch(g.num_nodes());
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t e = 0; e < qb.num_edges(); ++e) {
      // One BFS + filter pass per pattern edge is the unit of work here, so
      // a per-edge deadline checkpoint bounds overrun to a single pass.
      // Partial *sim is abandoned on error, never returned.
      GPMV_RETURN_NOT_OK(exec::CheckDeadline());
      const PatternEdge& pe = qb.edge(e);
      auto& su = (*sim)[pe.src];
      const auto& st = (*sim)[pe.dst];
      // Which nodes reach sim(dst) by a nonempty path of length <= bound?
      // Exactly those with an out-neighbor within bound-1 reverse hops.
      scratch.Run(g, st, InnerBound(pe.bound), /*forward=*/false);
      size_t kept = 0;
      for (NodeId v : su) {
        bool ok = false;
        for (NodeId w : g.out_neighbors(v)) {
          if (scratch.Reached(w)) {
            ok = true;
            break;
          }
        }
        if (ok) su[kept++] = v;
      }
      if (kept != su.size()) {
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

Result<MatchResult> ExtractBoundedMatches(
    const Pattern& qb, const GraphSnapshot& g,
    const std::vector<std::vector<NodeId>>& sim,
    std::vector<std::vector<uint32_t>>* distances) {
  MatchResult result = MatchResult::Empty(qb);
  if (distances != nullptr) distances->assign(qb.num_edges(), {});
  bool all_nonempty = !sim.empty();
  for (const auto& su : sim) all_nonempty = all_nonempty && !su.empty();
  if (!all_nonempty) return result;

  std::vector<DenseBitset> in_sim(qb.num_nodes());
  for (uint32_t u = 0; u < qb.num_nodes(); ++u) {
    in_sim[u].Reset(g.num_nodes());
    for (NodeId v : sim[u]) in_sim[u].set(v);
  }

  BfsScratch scratch(g.num_nodes());
  for (uint32_t e = 0; e < qb.num_edges(); ++e) {
    // Extraction runs one BFS per candidate — the most expensive tail of a
    // bounded query — so it honors the deadline at the same per-edge grain
    // as the fixpoint above.
    GPMV_RETURN_NOT_OK(exec::CheckDeadline());
    const PatternEdge& pe = qb.edge(e);
    auto* se = result.mutable_edge_matches(e);
    std::vector<uint32_t>* de =
        distances != nullptr ? &(*distances)[e] : nullptr;
    for (NodeId v : sim[pe.src]) {
      // Shortest nonempty path v ~> x has length 1 + (shortest path from an
      // out-neighbor of v to x), so BFS from out(v) with budget bound-1.
      scratch.Run(g, g.out_neighbors(v), InnerBound(pe.bound),
                  /*forward=*/true);
      for (NodeId x : scratch.reached()) {
        if (!in_sim[pe.dst].test(x)) continue;
        se->emplace_back(v, x);
        if (de != nullptr) de->push_back(scratch.dist(x) + 1);
      }
    }
    if (se->empty()) {
      if (distances != nullptr) distances->assign(qb.num_edges(), {});
      return MatchResult::Empty(qb);
    }
    // Sort pairs (and distances in lockstep) into canonical order.
    std::vector<size_t> order(se->size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return (*se)[a] < (*se)[b];
    });
    std::vector<NodePair> sorted_pairs(se->size());
    for (size_t i = 0; i < order.size(); ++i) sorted_pairs[i] = (*se)[order[i]];
    *se = std::move(sorted_pairs);
    if (de != nullptr) {
      std::vector<uint32_t> sorted_dist(de->size());
      for (size_t i = 0; i < order.size(); ++i) sorted_dist[i] = (*de)[order[i]];
      *de = std::move(sorted_dist);
    }
  }
  result.set_matched(true);
  result.DeriveNodeMatches(qb);
  return result;
}

Result<MatchResult> MatchBoundedSimulation(
    const Pattern& qb, const GraphSnapshot& g,
    std::vector<std::vector<uint32_t>>* distances,
    const std::vector<std::vector<NodeId>>* seed) {
  std::vector<std::vector<NodeId>> sim;
  GPMV_RETURN_NOT_OK(ComputeBoundedSimulationRelation(qb, g, &sim, seed));
  return ExtractBoundedMatches(qb, g, sim, distances);
}

namespace {

/// Pre-refactor extraction kept verbatim on the mutable graph, used only by
/// the naive baseline so the equivalence property tests compare the
/// snapshot-based fast path against a fully independent pipeline (candidate
/// enumeration, fixpoint, *and* extraction).
Result<MatchResult> ExtractBoundedMatchesOnGraph(
    const Pattern& qb, const Graph& g,
    const std::vector<std::vector<NodeId>>& sim,
    std::vector<std::vector<uint32_t>>* distances) {
  MatchResult result = MatchResult::Empty(qb);
  if (distances != nullptr) distances->assign(qb.num_edges(), {});
  bool all_nonempty = !sim.empty();
  for (const auto& su : sim) all_nonempty = all_nonempty && !su.empty();
  if (!all_nonempty) return result;

  std::vector<std::vector<char>> in_sim(qb.num_nodes(),
                                        std::vector<char>(g.num_nodes(), 0));
  for (uint32_t u = 0; u < qb.num_nodes(); ++u) {
    for (NodeId v : sim[u]) in_sim[u][v] = 1;
  }

  BfsScratch scratch(g.num_nodes());
  for (uint32_t e = 0; e < qb.num_edges(); ++e) {
    const PatternEdge& pe = qb.edge(e);
    auto* se = result.mutable_edge_matches(e);
    std::vector<uint32_t>* de =
        distances != nullptr ? &(*distances)[e] : nullptr;
    for (NodeId v : sim[pe.src]) {
      scratch.Run(g, g.out_neighbors(v), InnerBound(pe.bound),
                  /*forward=*/true);
      for (NodeId x : scratch.reached()) {
        if (!in_sim[pe.dst][x]) continue;
        se->emplace_back(v, x);
        if (de != nullptr) de->push_back(scratch.dist(x) + 1);
      }
    }
    if (se->empty()) {
      if (distances != nullptr) distances->assign(qb.num_edges(), {});
      return MatchResult::Empty(qb);
    }
    std::vector<size_t> order(se->size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return (*se)[a] < (*se)[b];
    });
    std::vector<NodePair> sorted_pairs(se->size());
    for (size_t i = 0; i < order.size(); ++i) sorted_pairs[i] = (*se)[order[i]];
    *se = std::move(sorted_pairs);
    if (de != nullptr) {
      std::vector<uint32_t> sorted_dist(de->size());
      for (size_t i = 0; i < order.size(); ++i) sorted_dist[i] = (*de)[order[i]];
      *de = std::move(sorted_dist);
    }
  }
  result.set_matched(true);
  result.DeriveNodeMatches(qb);
  return result;
}

}  // namespace

Result<MatchResult> MatchBoundedSimulationNaive(
    const Pattern& qb, const Graph& g,
    std::vector<std::vector<uint32_t>>* distances) {
  // The pre-refactor reference: runs entirely on the mutable graph so the
  // equivalence property tests exercise an independent code path.
  std::vector<std::vector<NodeId>> sim;
  GPMV_RETURN_NOT_OK(ComputeCandidateSets(qb, g, &sim));
  const size_t np = qb.num_nodes();
  bool any_empty = false;
  for (const auto& su : sim) any_empty = any_empty || su.empty();
  if (any_empty) {
    sim.assign(np, {});
    return ExtractBoundedMatchesOnGraph(qb, g, sim, distances);
  }

  // Literal fixpoint of [16]: every iteration re-checks every candidate of
  // every pattern edge with its own bounded BFS.
  BfsScratch scratch(g.num_nodes());
  std::vector<std::vector<char>> in_sim(np,
                                        std::vector<char>(g.num_nodes(), 0));
  auto rebuild_bitmap = [&](uint32_t u) {
    std::fill(in_sim[u].begin(), in_sim[u].end(), 0);
    for (NodeId v : sim[u]) in_sim[u][v] = 1;
  };
  for (uint32_t u = 0; u < np; ++u) rebuild_bitmap(u);

  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t e = 0; e < qb.num_edges(); ++e) {
      const PatternEdge& pe = qb.edge(e);
      auto& su = sim[pe.src];
      size_t kept = 0;
      for (NodeId v : su) {
        // Per-candidate forward BFS — the cubic term.
        scratch.Run(g, g.out_neighbors(v), InnerBound(pe.bound),
                    /*forward=*/true);
        bool ok = false;
        for (NodeId x : scratch.reached()) {
          if (in_sim[pe.dst][x]) {
            ok = true;
            break;
          }
        }
        if (ok) su[kept++] = v;
      }
      if (kept != su.size()) {
        su.resize(kept);
        rebuild_bitmap(pe.src);
        changed = true;
        if (su.empty()) {
          sim.assign(np, {});
          return ExtractBoundedMatchesOnGraph(qb, g, sim, distances);
        }
      }
    }
  }
  return ExtractBoundedMatchesOnGraph(qb, g, sim, distances);
}

}  // namespace gpmv
