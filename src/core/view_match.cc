#include "core/view_match.h"

#include <algorithm>

namespace gpmv {

bool QueryNodeMatchesViewNode(const PatternNode& qu, const PatternNode& vw) {
  if (!vw.label.empty() && vw.label != qu.label) return false;
  return qu.pred.Implies(vw.pred);
}

namespace {

/// Does a query-node distance certify a view-edge bound?
bool DistanceWithin(uint64_t ndist, bool reachable, uint32_t view_bound) {
  if (view_bound == kUnbounded) return reachable;
  return ndist != kInfDistance && ndist <= static_cast<uint64_t>(view_bound);
}

/// Does query-edge bound fe(e) fit under view-edge bound kV? (`*` only
/// under `*`.)
bool BoundCovered(uint32_t query_bound, uint32_t view_bound) {
  if (view_bound == kUnbounded) return true;
  if (query_bound == kUnbounded) return false;
  return query_bound <= view_bound;
}

}  // namespace

QueryMatchContext::QueryMatchContext(const Pattern& q)
    : q_(q),
      n_(q.num_nodes()),
      ndist_(n_ * n_, kInfDistance),
      reach_(n_ * n_, 0) {
  const size_t n = n_;
  for (const PatternEdge& e : q.edges()) {
    const size_t i = e.src * n + e.dst;
    reach_[i] = 1;
    if (e.bound != kUnbounded && e.bound < ndist_[i]) ndist_[i] = e.bound;
  }
  // Floyd-Warshall (distances) and Warshall (reachability) over the edges
  // alone: the diagonal starts infinite, so every path stays nonempty and
  // the diagonal ends as the cheapest cycle. Patterns are tiny.
  for (size_t k = 0; k < n; ++k) {
    const uint64_t* dk = &ndist_[k * n];
    const char* rk = &reach_[k * n];
    for (size_t i = 0; i < n; ++i) {
      uint64_t* di = &ndist_[i * n];
      char* ri = &reach_[i * n];
      if (ri[k]) {
        for (size_t j = 0; j < n; ++j) ri[j] |= rk[j];
      }
      if (di[k] == kInfDistance) continue;
      for (size_t j = 0; j < n; ++j) {
        if (dk[j] == kInfDistance) continue;
        const uint64_t via = di[k] + dk[j];
        if (via < di[j]) di[j] = via;
      }
    }
  }
}

bool QueryMatchContext::Relate(const Pattern& view, bool stop_at_empty_row) {
  const size_t nv = view.num_nodes();
  const size_t n = n_;
  // Most views that fail to match Q fail on the node conditions alone,
  // before any fixpoint work.
  rel_.assign(nv * n, 0);
  for (size_t w = 0; w < nv; ++w) {
    bool any = false;
    for (size_t u = 0; u < n; ++u) {
      const bool m =
          QueryNodeMatchesViewNode(q_.node(static_cast<uint32_t>(u)),
                                   view.node(static_cast<uint32_t>(w)));
      rel_[w * n + u] = m ? 1 : 0;
      any = any || m;
    }
    if (!any && stop_at_empty_row) return false;
  }

  // Fixpoint: (w, u) needs, for every view edge (w, w', kV), some u' with
  // (w', u') related and a nonempty path u ~> u' within kV. Patterns are
  // tiny, so plain iteration suffices.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t w = 0; w < nv; ++w) {
      for (size_t u = 0; u < n; ++u) {
        if (!rel_[w * n + u]) continue;
        const uint64_t* du = &ndist_[u * n];
        const char* ru = &reach_[u * n];
        for (uint32_t ev : view.out_edges(static_cast<uint32_t>(w))) {
          const PatternEdge& ve = view.edge(ev);
          const char* rel_dst = &rel_[ve.dst * n];
          bool found = false;
          for (size_t u2 = 0; u2 < n && !found; ++u2) {
            found = rel_dst[u2] && DistanceWithin(du[u2], ru[u2] != 0, ve.bound);
          }
          if (!found) {
            rel_[w * n + u] = 0;
            changed = true;
            break;
          }
        }
      }
    }
  }

  // A row that started empty is still empty here.
  for (size_t w = 0; w < nv; ++w) {
    const char* row = &rel_[w * n];
    if (std::find(row, row + n, 1) == row + n) return false;
  }
  return true;
}

Result<ViewMatchResult> QueryMatchContext::Match(const Pattern& view) {
  if (view.num_nodes() == 0 || n_ == 0) {
    return Status::InvalidArgument("empty pattern");
  }
  const size_t n = n_;
  ViewMatchResult result;
  result.per_view_edge.resize(view.num_edges());
  // The view itself must match Q (every view node nonempty); otherwise the
  // view match is empty by definition (V !E_sim Q).
  if (!Relate(view, /*stop_at_empty_row=*/true)) return result;

  for (uint32_t ev = 0; ev < view.num_edges(); ++ev) {
    const PatternEdge& ve = view.edge(ev);
    auto& covered_edges = result.per_view_edge[ev];
    for (uint32_t e = 0; e < q_.num_edges(); ++e) {
      const PatternEdge& qe = q_.edge(e);
      if (rel_[ve.src * n + qe.src] && rel_[ve.dst * n + qe.dst] &&
          BoundCovered(qe.bound, ve.bound)) {
        covered_edges.push_back(e);
      }
    }
    result.covered.insert(result.covered.end(), covered_edges.begin(),
                          covered_edges.end());
  }
  std::sort(result.covered.begin(), result.covered.end());
  result.covered.erase(std::unique(result.covered.begin(), result.covered.end()),
                       result.covered.end());
  return result;
}

Result<ViewMatchResult> ComputeViewMatch(const Pattern& view,
                                         const Pattern& q) {
  return QueryMatchContext(q).Match(view);
}

}  // namespace gpmv
