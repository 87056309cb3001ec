#include "core/containment.h"

#include <algorithm>

namespace gpmv {

namespace {

/// Builds λ restricted to `selected` (sorted view indices) from per-view
/// matches; also sets `contained` by checking full edge coverage.
ContainmentMapping BuildMapping(const Pattern& q,
                                const std::vector<ViewMatchResult>& matches,
                                std::vector<uint32_t> selected) {
  ContainmentMapping m;
  m.lambda.assign(q.num_edges(), {});
  std::sort(selected.begin(), selected.end());
  for (uint32_t vi : selected) {
    const ViewMatchResult& vm = matches[vi];
    for (uint32_t ev = 0; ev < vm.per_view_edge.size(); ++ev) {
      for (uint32_t qe : vm.per_view_edge[ev]) {
        m.lambda[qe].push_back(ViewEdgeRef{vi, ev});
      }
    }
  }
  m.contained = q.num_edges() > 0 && q.HasNoIsolatedNode();
  for (const auto& refs : m.lambda) {
    if (refs.empty()) {
      m.contained = false;
      break;
    }
  }
  if (m.contained) {
    m.selected = std::move(selected);
  } else {
    m.lambda.assign(q.num_edges(), {});
  }
  return m;
}

}  // namespace

Result<std::vector<ViewMatchResult>> ComputeAllViewMatches(
    const Pattern& q, const ViewSet& views) {
  QueryMatchContext ctx(q);
  std::vector<ViewMatchResult> matches;
  matches.reserve(views.card());
  for (const ViewDefinition& def : views.views()) {
    Result<ViewMatchResult> vm = ctx.Match(def.pattern);
    GPMV_RETURN_NOT_OK(vm.status());
    matches.push_back(std::move(vm).value());
  }
  return matches;
}

Result<ContainmentMapping> CheckContainment(const Pattern& q,
                                            const ViewSet& views) {
  Result<std::vector<ViewMatchResult>> matches = ComputeAllViewMatches(q, views);
  GPMV_RETURN_NOT_OK(matches.status());
  std::vector<uint32_t> all(views.card());
  for (uint32_t i = 0; i < views.card(); ++i) all[i] = i;
  return BuildMapping(q, *matches, std::move(all));
}

Result<ContainmentMapping> MinimalContainment(const Pattern& q,
                                              const ViewSet& views) {
  Result<std::vector<ViewMatchResult>> matches_or =
      ComputeAllViewMatches(q, views);
  GPMV_RETURN_NOT_OK(matches_or.status());
  const std::vector<ViewMatchResult>& matches = *matches_or;
  const size_t ne = q.num_edges();

  // Phase 1 (Fig. 5 lines 2-7): add views that contribute uncovered edges,
  // maintaining M(e) = selected views covering e; stop once E = Ep.
  std::vector<char> covered(ne, 0);
  size_t covered_count = 0;
  std::vector<std::vector<uint32_t>> covering_views(ne);  // the index M
  std::vector<uint32_t> selected;
  for (uint32_t vi = 0; vi < views.card() && covered_count < ne; ++vi) {
    bool contributes = false;
    for (uint32_t e : matches[vi].covered) {
      if (!covered[e]) {
        contributes = true;
        break;
      }
    }
    if (!contributes) continue;
    selected.push_back(vi);
    for (uint32_t e : matches[vi].covered) {
      covering_views[e].push_back(vi);
      if (!covered[e]) {
        covered[e] = 1;
        ++covered_count;
      }
    }
  }
  if (covered_count < ne || ne == 0 || !q.HasNoIsolatedNode()) {
    return ContainmentMapping{};  // Qs not contained in V (line 8)
  }

  // Phase 2 (lines 9-11): drop views that became redundant.
  for (size_t i = selected.size(); i-- > 0;) {
    uint32_t vj = selected[i];
    bool needed = false;
    for (uint32_t e : matches[vj].covered) {
      if (covering_views[e].size() == 1) {
        GPMV_DCHECK(covering_views[e][0] == vj);
        needed = true;
        break;
      }
    }
    if (needed) continue;
    selected.erase(selected.begin() + static_cast<ptrdiff_t>(i));
    for (uint32_t e : matches[vj].covered) {
      auto& cv = covering_views[e];
      cv.erase(std::remove(cv.begin(), cv.end(), vj), cv.end());
    }
  }
  return BuildMapping(q, matches, std::move(selected));
}

Result<ContainmentMapping> MinimumContainment(const Pattern& q,
                                              const ViewSet& views) {
  Result<std::vector<ViewMatchResult>> matches =
      ComputeAllViewMatches(q, views);
  GPMV_RETURN_NOT_OK(matches.status());
  return MinimumContainmentFromMatches(q, *matches);
}

ContainmentMapping MinimumContainmentFromMatches(
    const Pattern& q, const std::vector<ViewMatchResult>& matches) {
  const size_t ne = q.num_edges();
  const uint32_t nv = static_cast<uint32_t>(matches.size());

  std::vector<char> covered(ne, 0);
  size_t covered_count = 0;
  std::vector<char> used(nv, 0);
  std::vector<uint32_t> selected;

  // Greedy set cover: repeatedly take the view covering the most still-
  // uncovered edges (the paper's α(V) ranking; |Ep| is a common factor).
  while (covered_count < ne) {
    uint32_t best = kInvalidNode;
    size_t best_gain = 0;
    for (uint32_t vi = 0; vi < nv; ++vi) {
      if (used[vi]) continue;
      size_t gain = 0;
      for (uint32_t e : matches[vi].covered) gain += covered[e] ? 0 : 1;
      if (gain > best_gain) {
        best_gain = gain;
        best = vi;
      }
    }
    if (best == kInvalidNode) break;  // no progress possible: Q !⊑ V
    used[best] = 1;
    selected.push_back(best);
    for (uint32_t e : matches[best].covered) {
      if (!covered[e]) {
        covered[e] = 1;
        ++covered_count;
      }
    }
  }
  if (covered_count < ne) return ContainmentMapping{};
  return BuildMapping(q, matches, std::move(selected));
}

Result<ContainmentMapping> ExactMinimumContainment(const Pattern& q,
                                                   const ViewSet& views) {
  if (views.card() > 24) {
    return Status::NotSupported("exact minimum limited to card(V) <= 24");
  }
  if (q.num_edges() > 64) {
    return Status::NotSupported("exact minimum limited to |Ep| <= 64");
  }
  Result<std::vector<ViewMatchResult>> matches_or =
      ComputeAllViewMatches(q, views);
  GPMV_RETURN_NOT_OK(matches_or.status());
  const std::vector<ViewMatchResult>& matches = *matches_or;

  const uint64_t full = q.num_edges() == 64
                            ? ~uint64_t{0}
                            : ((uint64_t{1} << q.num_edges()) - 1);
  std::vector<uint64_t> mask(views.card(), 0);
  for (uint32_t vi = 0; vi < views.card(); ++vi) {
    for (uint32_t e : matches[vi].covered) mask[vi] |= uint64_t{1} << e;
  }

  uint32_t best_subset_bits = 0;
  bool found = false;
  size_t best_size = views.card() + 1;
  const uint32_t limit = uint32_t{1} << views.card();
  for (uint32_t bits = 1; bits < limit; ++bits) {
    size_t size = static_cast<size_t>(__builtin_popcount(bits));
    if (size >= best_size) continue;
    uint64_t cover = 0;
    for (uint32_t vi = 0; vi < views.card(); ++vi) {
      if (bits & (uint32_t{1} << vi)) cover |= mask[vi];
    }
    if (cover == full) {
      best_size = size;
      best_subset_bits = bits;
      found = true;
    }
  }
  if (!found || q.num_edges() == 0) return ContainmentMapping{};
  std::vector<uint32_t> selected;
  for (uint32_t vi = 0; vi < views.card(); ++vi) {
    if (best_subset_bits & (uint32_t{1} << vi)) selected.push_back(vi);
  }
  return BuildMapping(q, matches, std::move(selected));
}

}  // namespace gpmv
