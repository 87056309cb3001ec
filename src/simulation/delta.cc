#include "simulation/delta.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "graph/traversal.h"  // kUnbounded
#include "simulation/candidate_space.h"
#include "simulation/refinement.h"

namespace gpmv {

const char* DeltaInsertFallbackName(DeltaInsertFallback f) {
  switch (f) {
    case DeltaInsertFallback::kNone:
      return "none";
    case DeltaInsertFallback::kNotSimulationPattern:
      return "not_simulation_pattern";
    case DeltaInsertFallback::kUnmatchedRelation:
      return "unmatched_relation";
    case DeltaInsertFallback::kAreaTooLarge:
      return "area_too_large";
  }
  return "unknown";
}

namespace {

/// Longest path length (in edges) of a DAG pattern; the depth bound of the
/// addition chains. Kahn order + relaxation, O(|Vp| + |Ep|).
uint32_t LongestPatternPath(const Pattern& q) {
  const size_t np = q.num_nodes();
  std::vector<uint32_t> indeg(np, 0);
  for (uint32_t e = 0; e < q.num_edges(); ++e) ++indeg[q.edge(e).dst];
  std::vector<uint32_t> order;
  order.reserve(np);
  for (uint32_t u = 0; u < np; ++u) {
    if (indeg[u] == 0) order.push_back(u);
  }
  std::vector<uint32_t> depth(np, 0);
  uint32_t longest = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const uint32_t u = order[i];
    for (uint32_t e : q.out_edges(u)) {
      const uint32_t u2 = q.edge(e).dst;
      depth[u2] = std::max(depth[u2], depth[u] + 1);
      longest = std::max(longest, depth[u2]);
      if (--indeg[u2] == 0) order.push_back(u2);
    }
  }
  return longest;
}

bool Contains(const std::vector<NodeId>& sorted, NodeId v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

/// Bound-weighted longest path of a DAG pattern: each edge contributes its
/// hop bound, so the result limits how far (in graph hops) an addition
/// chain can extend from an inserted edge. kUnbounded when any edge on a
/// longest path carries a `*` bound.
uint32_t BoundWeightedLongestPath(const Pattern& q) {
  const size_t np = q.num_nodes();
  std::vector<uint32_t> indeg(np, 0);
  for (uint32_t e = 0; e < q.num_edges(); ++e) ++indeg[q.edge(e).dst];
  std::vector<uint32_t> order;
  order.reserve(np);
  for (uint32_t u = 0; u < np; ++u) {
    if (indeg[u] == 0) order.push_back(u);
  }
  std::vector<uint64_t> depth(np, 0);
  uint64_t longest = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const uint32_t u = order[i];
    for (uint32_t e : q.out_edges(u)) {
      const PatternEdge& pe = q.edge(e);
      const uint64_t step =
          pe.bound == kUnbounded ? kUnbounded : depth[u] + pe.bound;
      depth[pe.dst] = std::max(depth[pe.dst], step);
      longest = std::max(longest, depth[pe.dst]);
      if (--indeg[pe.dst] == 0) order.push_back(pe.dst);
    }
  }
  return longest >= kUnbounded ? kUnbounded
                               : static_cast<uint32_t>(longest);
}

/// Area cap in nodes: max_area_fraction·|V| (|V| when the fraction is >= 1).
size_t AreaCap(const DeltaOptions& opts, const GraphSnapshot& g) {
  return opts.max_area_fraction >= 1.0
             ? g.num_nodes()
             : static_cast<size_t>(opts.max_area_fraction *
                                   static_cast<double>(g.num_nodes()));
}

/// Multi-source reverse BFS collecting every node that can reach an
/// inserted-edge source within `depth_limit` hops — the affected area.
/// Returns false (leaving `area` at the nodes visited so far) when more
/// than `cap` nodes are reached. `visited` is all-clear on entry and on
/// return.
bool CollectAffectedArea(const GraphSnapshot& g,
                         const std::vector<NodePair>& inserted,
                         uint32_t depth_limit, size_t cap,
                         DenseBitset* visited, std::vector<NodeId>* area) {
  area->clear();
  auto visit = [&](NodeId v) {
    if (visited->test(v)) return true;
    visited->set(v);
    area->push_back(v);
    return area->size() <= cap;
  };
  bool within = true;
  for (const NodePair& p : inserted) {
    if (!(within = visit(p.first))) break;
  }
  size_t frontier_begin = 0;
  for (uint32_t depth = 0; within && depth < depth_limit; ++depth) {
    const size_t frontier_end = area->size();
    if (frontier_begin == frontier_end) break;
    for (size_t i = frontier_begin; within && i < frontier_end; ++i) {
      for (NodeId p : g.in_neighbors((*area)[i])) {
        if (!(within = visit(p))) break;
      }
    }
    frontier_begin = frontier_end;
  }
  for (NodeId v : *area) visited->reset(v);
  return within;
}

}  // namespace

Status DeltaSimulationInsert(const Pattern& q, const GraphSnapshot& g,
                             const std::vector<NodePair>& inserted,
                             const DeltaOptions& opts, DeltaScratch* scratch,
                             std::vector<std::vector<NodeId>>* rel,
                             std::vector<std::vector<NodeId>>* added,
                             DeltaInsertStats* stats) {
  const size_t np = q.num_nodes();
  const size_t ne = q.num_edges();
  if (np == 0) return Status::InvalidArgument("empty pattern");
  if (rel->size() != np) {
    return Status::InvalidArgument("cached relation shape mismatch");
  }
  *stats = DeltaInsertStats{};
  added->assign(np, {});
  if (inserted.empty()) {  // nothing to do; the cached relation stands
    stats->applied = true;
    return Status::OK();
  }
  if (!q.IsSimulationPattern()) {
    stats->fallback = DeltaInsertFallback::kNotSimulationPattern;
    return Status::OK();
  }
  for (uint32_t u = 0; u < np; ++u) {
    if ((*rel)[u].empty()) {
      stats->fallback = DeltaInsertFallback::kUnmatchedRelation;
      return Status::OK();
    }
  }

  // Affected area: reverse BFS from the inserted sources, depth-bounded by
  // the pattern's longest path for DAGs (addition chains follow pattern
  // edges), unbounded — cap-limited only — around pattern cycles.
  const uint32_t depth_limit =
      q.IsDag() ? LongestPatternPath(q) : kUnbounded;
  std::vector<NodeId> area;
  if (!CollectAffectedArea(g, inserted, depth_limit, AreaCap(opts, g),
                           &scratch->marks(), &area)) {
    stats->fallback = DeltaInsertFallback::kAreaTooLarge;
    stats->affected_nodes = area.size();
    return Status::OK();
  }
  stats->affected_nodes = area.size();

  // Optimistic additions: area nodes that satisfy a pattern node's search
  // condition and are not cached members yet. Ranked through a sparse
  // CandidateSpace over the delta sets only (the area is small; |V|-sized
  // inverse arrays would dominate).
  std::vector<std::vector<NodeId>> delta(np);
  for (uint32_t u = 0; u < np; ++u) {
    const PatternNode& pn = q.node(u);
    const LabelId lid =
        pn.label.empty() ? kInvalidLabel : g.FindLabel(pn.label);
    if (!pn.label.empty() && lid == kInvalidLabel) continue;
    for (NodeId v : area) {
      if (pn.MatchesData(g, v, lid) && !Contains((*rel)[u], v)) {
        delta[u].push_back(v);
      }
    }
  }
  CandidateSpace space;
  space.Reset(np, g.num_nodes(), /*dense_inverse=*/false);
  for (uint32_t u = 0; u < np; ++u) {
    stats->candidates += delta[u].size();
    space.Assign(u, std::move(delta[u]));
  }

  // Re-verify: the removal fixpoint of refinement.h restricted to the
  // delta candidates. succ_count[e][r] counts successors of the rank-r
  // delta candidate of src(e) alive in rel(dst) ∪ Δ(dst); cached members
  // are permanent support under insertions, so only Δ removals cascade.
  RankRemovalState st;
  st.Init(space);
  std::vector<std::vector<uint32_t>> succ_count(ne);
  for (uint32_t e = 0; e < ne; ++e) {
    const uint32_t u = q.edge(e).src;
    const uint32_t u2 = q.edge(e).dst;
    std::vector<uint32_t>& sc = succ_count[e];
    sc.assign(space.size(u), 0);
    for (uint32_t r = 0; r < space.size(u); ++r) {
      for (NodeId w : g.out_neighbors(space.node(u, r))) {
        if (Contains((*rel)[u2], w) ||
            space.rank(u2, w) != CandidateSpace::kNoRank) {
          ++sc[r];
        }
      }
      if (sc[r] == 0) st.Remove(u, r);
    }
  }
  while (!st.removals.empty()) {
    auto [u2, r2] = st.removals.front();
    st.removals.pop_front();
    const NodeId w = space.node(u2, r2);
    for (uint32_t e : q.in_edges(u2)) {
      const uint32_t u = q.edge(e).src;
      std::vector<uint32_t>& sc = succ_count[e];
      for (NodeId v : g.in_neighbors(w)) {
        const uint32_t r = space.rank(u, v);
        if (r == CandidateSpace::kNoRank) continue;
        if (--sc[r] == 0 && st.alive[u].test(r)) st.Remove(u, r);
      }
    }
  }

  // Merge the survivors: ranks are ascending node ids, so each added set
  // comes out sorted and the union is a linear merge.
  for (uint32_t u = 0; u < np; ++u) {
    std::vector<NodeId>& au = (*added)[u];
    au.reserve(st.alive_count[u]);
    for (uint32_t r = 0; r < space.size(u); ++r) {
      if (st.alive[u].test(r)) au.push_back(space.node(u, r));
    }
    stats->relation_added += au.size();
    if (au.empty()) continue;
    std::vector<NodeId> merged;
    merged.reserve((*rel)[u].size() + au.size());
    std::merge((*rel)[u].begin(), (*rel)[u].end(), au.begin(), au.end(),
               std::back_inserter(merged));
    (*rel)[u] = std::move(merged);
  }
  stats->applied = true;
  return Status::OK();
}

namespace {

/// BFS hop budget certifying a nonempty path of length <= bound from v via
/// one of its out-neighbors (mirrors bounded.cc).
uint32_t InnerBound(uint32_t bound) {
  return bound == kUnbounded ? kUnbounded : bound - 1;
}

}  // namespace

Status DeltaBoundedInsert(const Pattern& qb, const GraphSnapshot& g,
                          const std::vector<NodePair>& inserted,
                          const DeltaOptions& opts, DeltaScratch* scratch,
                          std::vector<std::vector<NodeId>>* rel,
                          std::vector<std::vector<NodeId>>* added,
                          DeltaInsertStats* stats) {
  if (qb.IsSimulationPattern()) {
    return DeltaSimulationInsert(qb, g, inserted, opts, scratch, rel, added,
                                 stats);
  }
  const size_t np = qb.num_nodes();
  const size_t ne = qb.num_edges();
  if (np == 0) return Status::InvalidArgument("empty pattern");
  if (rel->size() != np) {
    return Status::InvalidArgument("cached relation shape mismatch");
  }
  *stats = DeltaInsertStats{};
  added->assign(np, {});
  if (inserted.empty()) {
    stats->applied = true;
    return Status::OK();
  }
  for (uint32_t u = 0; u < np; ++u) {
    if ((*rel)[u].empty()) {
      stats->fallback = DeltaInsertFallback::kUnmatchedRelation;
      return Status::OK();
    }
  }

  // Affected area: one addition-chain hop along pattern edge e covers up to
  // fe(e) graph hops, so the reverse BFS depth is the bound-weighted longest
  // pattern path — unbounded (cap-limited only) for cyclic patterns or `*`.
  const uint32_t depth_limit =
      qb.IsDag() ? BoundWeightedLongestPath(qb) : kUnbounded;
  std::vector<NodeId> area;
  if (!CollectAffectedArea(g, inserted, depth_limit, AreaCap(opts, g),
                           &scratch->marks(), &area)) {
    stats->fallback = DeltaInsertFallback::kAreaTooLarge;
    stats->affected_nodes = area.size();
    return Status::OK();
  }
  stats->affected_nodes = area.size();

  // Optimistic additions: area nodes satisfying a pattern node's search
  // condition that are not cached members.
  std::vector<std::vector<NodeId>> delta(np);
  for (uint32_t u = 0; u < np; ++u) {
    const PatternNode& pn = qb.node(u);
    const LabelId lid =
        pn.label.empty() ? kInvalidLabel : g.FindLabel(pn.label);
    if (!pn.label.empty() && lid == kInvalidLabel) continue;
    for (NodeId v : area) {
      if (pn.MatchesData(g, v, lid) && !Contains((*rel)[u], v)) {
        delta[u].push_back(v);
      }
    }
    std::sort(delta[u].begin(), delta[u].end());
    stats->candidates += delta[u].size();
  }

  // Re-verify fixpoint: a delta candidate v of u survives iff for every
  // pattern edge (u, u', k) some node of rel(u') ∪ Δ(u') lies within a
  // nonempty path of <= k hops from v. Cached members are permanent support
  // (bounded simulation is monotone under insertions), so only Δ removals
  // cascade; each check is a forward bounded BFS from out(v) — the bounded
  // analogue of the successor-count cascade, priced by the (capped) area.
  // A pass checks against the Δ sets as they stood at its start and
  // compacts afterwards; the loop ends on a pass with no removal, whose
  // checks were therefore exact.
  BfsScratch& bfs = scratch->fwd();
  std::vector<uint8_t> keep;
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t e = 0; e < ne; ++e) {
      const PatternEdge& pe = qb.edge(e);
      std::vector<NodeId>& du = delta[pe.src];
      keep.assign(du.size(), 0);
      for (size_t i = 0; i < du.size(); ++i) {
        bfs.Run(g, g.out_neighbors(du[i]), InnerBound(pe.bound),
                /*forward=*/true);
        for (NodeId x : bfs.reached()) {
          if (Contains(delta[pe.dst], x) || Contains((*rel)[pe.dst], x)) {
            keep[i] = 1;
            break;
          }
        }
      }
      size_t kept = 0;
      for (size_t i = 0; i < du.size(); ++i) {
        if (keep[i]) du[kept++] = du[i];
      }
      if (kept != du.size()) {
        du.resize(kept);
        changed = true;
      }
    }
  }

  // Merge the survivors (both sides sorted ascending).
  for (uint32_t u = 0; u < np; ++u) {
    std::vector<NodeId>& au = (*added)[u];
    au = std::move(delta[u]);
    stats->relation_added += au.size();
    if (au.empty()) continue;
    std::vector<NodeId> merged;
    merged.reserve((*rel)[u].size() + au.size());
    std::merge((*rel)[u].begin(), (*rel)[u].end(), au.begin(), au.end(),
               std::back_inserter(merged));
    (*rel)[u] = std::move(merged);
  }
  stats->applied = true;
  return Status::OK();
}

namespace {

/// Distinct nodes visited by the reverse balls of one deletion delta,
/// marked in the lent bitset (cleared again on destruction).
class DirtyArea {
 public:
  DirtyArea(DenseBitset* marks, size_t cap) : marks_(marks), cap_(cap) {}
  ~DirtyArea() {
    for (NodeId v : nodes_) marks_->reset(v);
  }
  DirtyArea(const DirtyArea&) = delete;
  DirtyArea& operator=(const DirtyArea&) = delete;

  /// Adds `nodes`; false once the area exceeds the cap.
  bool Add(const std::vector<NodeId>& nodes) {
    for (NodeId v : nodes) {
      if (marks_->test(v)) continue;
      marks_->set(v);
      nodes_.push_back(v);
    }
    return nodes_.size() <= cap_;
  }

 private:
  DenseBitset* marks_;
  size_t cap_;
  std::vector<NodeId> nodes_;
};

/// Calls seed(e, x) for every deletion seed (file comment): per deleted
/// edge (a, b), the members x of rel(s) of each bounded pattern edge
/// e = (s, t, k) within k - 1 reverse hops of a on `g` (one reverse BFS per
/// deleted edge, at the largest such depth), and for each k = 1 edge the
/// tail a itself when a ∈ rel(s) and b ∈ rel(t). Stops early, returning
/// false, when seed returns false or the balls overflow `area` (when
/// non-null).
template <typename SeedFn>
bool ForEachDeletionSeed(const Pattern& qb,
                         const std::vector<std::vector<NodeId>>& rel,
                         const GraphSnapshot& g,
                         const std::vector<NodePair>& deleted,
                         DeltaScratch* scratch, DirtyArea* area,
                         SeedFn&& seed) {
  uint32_t depth = 0;
  bool bounded = false;
  for (uint32_t e = 0; e < qb.num_edges(); ++e) {
    const uint32_t k = qb.edge(e).bound;
    if (k <= 1) continue;
    bounded = true;
    depth = std::max(depth, InnerBound(k));
  }
  for (const NodePair& d : deleted) {
    for (uint32_t e = 0; e < qb.num_edges(); ++e) {
      const PatternEdge& pe = qb.edge(e);
      if (pe.bound != 1 || !Contains(rel[pe.src], d.first) ||
          !Contains(rel[pe.dst], d.second)) {
        continue;
      }
      if (area != nullptr && !area->Add({d.first})) return false;
      if (!seed(e, d.first)) return false;
    }
    if (!bounded) continue;
    BfsScratch& rev = scratch->rev();
    rev.RunSingle(g, d.first, depth, /*forward=*/false);
    if (area != nullptr && !area->Add(rev.reached())) return false;
    for (NodeId x : rev.reached()) {
      const uint32_t dx = rev.dist(x);
      for (uint32_t e = 0; e < qb.num_edges(); ++e) {
        const PatternEdge& pe = qb.edge(e);
        if (pe.bound <= 1 || dx > InnerBound(pe.bound) ||
            !Contains(rel[pe.src], x)) {
          continue;
        }
        if (!seed(e, x)) return false;
      }
    }
  }
  return true;
}

/// [lo, hi) of source `x`'s row in sorted `pairs`, searching from `from`.
std::pair<size_t, size_t> RowRange(const std::vector<NodePair>& pairs,
                                   size_t from, NodeId x) {
  auto lo = std::lower_bound(pairs.begin() + from, pairs.end(),
                             NodePair{x, 0});
  auto hi = std::partition_point(
      lo, pairs.end(), [x](const NodePair& p) { return p.first == x; });
  return {static_cast<size_t>(lo - pairs.begin()),
          static_cast<size_t>(hi - pairs.begin())};
}

}  // namespace

bool DeletionMayAffectView(const Pattern& qb,
                           const std::vector<std::vector<NodeId>>& rel,
                           const GraphSnapshot& g,
                           const std::vector<NodePair>& deleted,
                           DeltaScratch* scratch) {
  bool found = false;
  ForEachDeletionSeed(qb, rel, g, deleted, scratch, /*area=*/nullptr,
                      [&](uint32_t, NodeId) {
                        found = true;
                        return false;
                      });
  return found;
}

Status DeltaBoundedDelete(const Pattern& qb, const GraphSnapshot& g,
                          const std::vector<NodePair>& deleted,
                          const DeltaOptions& opts, DeltaScratch* scratch,
                          std::vector<std::vector<NodeId>>* rel,
                          std::vector<ViewEdgeExtension>* edges,
                          std::vector<NodeId>* orphaned,
                          DeltaDeleteStats* stats) {
  const size_t np = qb.num_nodes();
  const size_t ne = qb.num_edges();
  if (np == 0) return Status::InvalidArgument("empty pattern");
  if (rel->size() != np || edges->size() != ne) {
    return Status::InvalidArgument("cached relation shape mismatch");
  }
  *stats = DeltaDeleteStats{};
  orphaned->clear();
  for (uint32_t u = 0; u < np; ++u) {
    if ((*rel)[u].empty()) {  // unmatched: nothing left to shrink
      stats->applied = true;
      return Status::OK();
    }
  }

  // Per pattern edge: the seeded sources' rows re-derived on `g` (targets
  // drawn from the old rel(t), exact distances; computed on first check),
  // the sources whose row changes, and the worklist membership.
  struct FreshRow {
    bool computed = false;
    std::vector<std::pair<NodeId, uint32_t>> targets;  // sorted by node
  };
  struct EdgeState {
    std::unordered_map<NodeId, FreshRow> fresh;
    std::unordered_set<NodeId> dirty;
    std::unordered_set<NodeId> queued;
  };
  std::vector<EdgeState> es(ne);
  std::vector<std::unordered_set<NodeId>> removed(np);
  auto alive = [&](uint32_t u, NodeId x) {
    return Contains((*rel)[u], x) && removed[u].count(x) == 0;
  };
  std::deque<std::pair<uint32_t, NodeId>> work;
  auto enqueue = [&](uint32_t e, NodeId x) {
    es[e].dirty.insert(x);
    if (es[e].queued.insert(x).second) work.emplace_back(e, x);
  };

  BfsScratch& fwd = scratch->fwd();
  BfsScratch& rev = scratch->rev();
  DirtyArea area(&scratch->marks(), AreaCap(opts, g));
  auto too_large = [&] {
    stats->fallback = DeltaDeleteFallback::kAreaTooLarge;
    return Status::OK();
  };
  if (!ForEachDeletionSeed(qb, *rel, g, deleted, scratch, &area,
                           [&](uint32_t e, NodeId x) {
                             es[e].fresh.try_emplace(x);
                             enqueue(e, x);
                             return true;
                           })) {
    return too_large();
  }

  // Re-check: x keeps its place in sim(s) iff some target of its row for
  // e = (s, t, k) is still in sim(t). A seeded source's row is re-derived
  // by one forward BFS on `g`; any other source's k-ball is untouched by
  // the deletions, so its cached row is already its row on `g`.
  while (!work.empty()) {
    const auto [e, x] = work.front();
    work.pop_front();
    EdgeState& st = es[e];
    st.queued.erase(x);
    const PatternEdge& pe = qb.edge(e);
    if (removed[pe.src].count(x) != 0) continue;
    bool supported = false;
    auto fit = st.fresh.find(x);
    if (fit != st.fresh.end()) {
      FreshRow& row = fit->second;
      if (!row.computed) {
        fwd.Run(g, g.out_neighbors(x), InnerBound(pe.bound),
                /*forward=*/true);
        for (NodeId y : fwd.reached()) {
          if (Contains((*rel)[pe.dst], y)) {
            row.targets.emplace_back(y, fwd.dist(y) + 1);
          }
        }
        std::sort(row.targets.begin(), row.targets.end());
        row.computed = true;
      }
      for (const auto& [y, d] : row.targets) {
        if (removed[pe.dst].count(y) == 0) {
          supported = true;
          break;
        }
      }
    } else {
      const std::vector<NodePair>& pairs = (*edges)[e].pairs;
      const auto [lo, hi] = RowRange(pairs, 0, x);
      for (size_t i = lo; i < hi && !supported; ++i) {
        supported = removed[pe.dst].count(pairs[i].second) == 0;
      }
    }
    if (supported) continue;

    // x leaves sim(s): its own rows go, and every source whose row holds x
    // — exactly the members within x's reverse k'-ball on `g` — is
    // re-checked for that in-edge (s', s, k').
    removed[pe.src].insert(x);
    if (removed[pe.src].size() == (*rel)[pe.src].size()) {
      stats->fallback = DeltaDeleteFallback::kRelationEmptied;
      return Status::OK();
    }
    for (uint32_t e2 : qb.out_edges(pe.src)) es[e2].dirty.insert(x);
    for (uint32_t e2 : qb.in_edges(pe.src)) {
      const PatternEdge& p2 = qb.edge(e2);
      rev.Run(g, g.in_neighbors(x), InnerBound(p2.bound), /*forward=*/false);
      if (!area.Add(rev.reached())) return too_large();
      for (NodeId x2 : rev.reached()) {
        if (alive(p2.src, x2)) enqueue(e2, x2);
      }
    }
  }

  // Patch each edge's columns in place. Under deletions every new row is a
  // subset of its old row (rel only shrinks, distances only grow), so a
  // write cursor never passes the read cursor: untouched row ranges slide
  // down, dirty rows are rewritten (removed source: dropped; seeded: the
  // fresh row; otherwise: the cached row minus removed targets), and the
  // columns are truncated. Targets of dropped pairs become orphan
  // candidates.
  std::vector<NodeId> candidates;
  for (uint32_t u = 0; u < np; ++u) {
    candidates.insert(candidates.end(), removed[u].begin(), removed[u].end());
  }
  for (uint32_t e = 0; e < ne; ++e) {
    EdgeState& st = es[e];
    if (st.dirty.empty()) continue;
    const PatternEdge& pe = qb.edge(e);
    std::vector<NodeId> dirty(st.dirty.begin(), st.dirty.end());
    std::sort(dirty.begin(), dirty.end());
    std::vector<NodePair>& pairs = (*edges)[e].pairs;
    std::vector<uint32_t>& dists = (*edges)[e].distances;
    size_t w = 0;  // write cursor
    size_t r = 0;  // read cursor, w <= r
    auto put = [&](const NodePair& p, uint32_t d) {
      pairs[w] = p;
      dists[w] = d;
      ++w;
    };
    for (NodeId x : dirty) {
      const auto [lo, hi] = RowRange(pairs, r, x);
      for (; r < lo; ++r) put(pairs[r], dists[r]);
      auto fit = st.fresh.find(x);
      if (removed[pe.src].count(x) != 0) {
        for (size_t i = lo; i < hi; ++i) candidates.push_back(pairs[i].second);
      } else if (fit != st.fresh.end()) {
        GPMV_DCHECK(fit->second.computed);
        // Old targets missing from the fresh row first (both sorted by
        // target), then the fresh row over the old one.
        size_t i = lo;
        size_t kept = 0;
        for (const auto& [y, d] : fit->second.targets) {
          if (removed[pe.dst].count(y) != 0) continue;
          for (; i < hi && pairs[i].second != y; ++i) {
            candidates.push_back(pairs[i].second);
          }
          ++i;
          ++kept;
        }
        for (; i < hi; ++i) candidates.push_back(pairs[i].second);
        GPMV_DCHECK(kept <= hi - lo);
        for (const auto& [y, d] : fit->second.targets) {
          if (removed[pe.dst].count(y) == 0) put({x, y}, d);
        }
      } else {
        for (size_t i = lo; i < hi; ++i) {
          if (removed[pe.dst].count(pairs[i].second) != 0) {
            candidates.push_back(pairs[i].second);
          } else {
            put(pairs[i], dists[i]);
          }
        }
      }
      r = hi;
    }
    for (; r < pairs.size(); ++r) put(pairs[r], dists[r]);
    pairs.resize(w);
    dists.resize(w);
  }

  // A candidate stays an endpoint if it is still a source (a surviving
  // member of a pattern node with out-edges always keeps a row), or a
  // target: some surviving source of an in-edge reaches it within bound.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (NodeId w : candidates) {
    bool endpoint = false;
    for (uint32_t u = 0; u < np && !endpoint; ++u) {
      endpoint = !qb.out_edges(u).empty() && alive(u, w);
    }
    for (uint32_t e = 0; e < ne && !endpoint; ++e) {
      const PatternEdge& pe = qb.edge(e);
      if (!alive(pe.dst, w)) continue;
      rev.Run(g, g.in_neighbors(w), InnerBound(pe.bound), /*forward=*/false);
      for (NodeId x : rev.reached()) {
        if (alive(pe.src, x)) {
          endpoint = true;
          break;
        }
      }
    }
    if (!endpoint) orphaned->push_back(w);
  }

  for (uint32_t u = 0; u < np; ++u) {
    if (removed[u].empty()) continue;
    std::vector<NodeId>& ru = (*rel)[u];
    ru.erase(std::remove_if(ru.begin(), ru.end(),
                            [&](NodeId x) { return removed[u].count(x); }),
             ru.end());
  }
  stats->applied = true;
  return Status::OK();
}

}  // namespace gpmv
