#include "core/view_selection.h"

#include <algorithm>
#include <set>
#include <string>

#include "core/view_match.h"

namespace gpmv {

namespace {

/// Fixed-width bitset over query edges (queries are small; one word is the
/// common case).
class EdgeBits {
 public:
  explicit EdgeBits(size_t bits = 0) : words_((bits + 63) / 64, 0) {}

  void Set(uint32_t i) { words_[i / 64] |= uint64_t{1} << (i % 64); }

  size_t CountNewlyCovered(const EdgeBits& covered) const {
    size_t n = 0;
    for (size_t w = 0; w < words_.size(); ++w) {
      n += static_cast<size_t>(
          __builtin_popcountll(words_[w] & ~covered.words_[w]));
    }
    return n;
  }

  void Merge(const EdgeBits& other) {
    for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  }

  size_t Count() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

  bool CoversAll(size_t bits) const { return Count() == bits; }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace

Result<ViewSelectionResult> SelectViews(const std::vector<Pattern>& workload,
                                        const ViewSet& candidates,
                                        const ViewSelectionOptions& opts) {
  const size_t nq = workload.size();
  const size_t nc = candidates.card();

  // coverage[c][i] — edges of query i that candidate c covers. One
  // query-side context per workload query serves every candidate.
  std::vector<std::vector<EdgeBits>> coverage(nc, std::vector<EdgeBits>(nq));
  for (size_t i = 0; i < nq; ++i) {
    QueryMatchContext ctx(workload[i]);
    for (uint32_t c = 0; c < nc; ++c) {
      EdgeBits bits(workload[i].num_edges());
      Result<ViewMatchResult> vm = ctx.Match(candidates.view(c).pattern);
      GPMV_RETURN_NOT_OK(vm.status());
      for (uint32_t e : vm->covered) bits.Set(e);
      coverage[c][i] = std::move(bits);
    }
  }

  std::vector<EdgeBits> covered;
  covered.reserve(nq);
  size_t total_edges = 0;
  for (const Pattern& q : workload) {
    covered.emplace_back(q.num_edges());
    total_edges += q.num_edges();
  }
  // Queries the edge-coverage machinery can never answer (isolated nodes,
  // no edges) are excluded from the answerable objective.
  std::vector<char> eligible(nq, 0);
  for (size_t i = 0; i < nq; ++i) {
    eligible[i] = workload[i].num_edges() > 0 &&
                  workload[i].HasNoIsolatedNode();
  }

  auto answerable_now = [&](size_t i) {
    return eligible[i] && covered[i].CoversAll(workload[i].num_edges());
  };

  ViewSelectionResult result;
  std::vector<char> used(nc, 0);
  while (result.selected.size() < opts.max_views) {
    uint32_t best = static_cast<uint32_t>(-1);
    size_t best_queries = 0, best_edges = 0;
    for (uint32_t c = 0; c < nc; ++c) {
      if (used[c]) continue;
      size_t new_queries = 0, new_edges = 0;
      for (size_t i = 0; i < nq; ++i) {
        size_t gain = coverage[c][i].CountNewlyCovered(covered[i]);
        if (gain == 0) continue;
        new_edges += gain;
        if (eligible[i] && !answerable_now(i) &&
            covered[i].Count() + gain == workload[i].num_edges()) {
          ++new_queries;
        }
      }
      if (new_edges == 0) continue;
      if (new_queries > best_queries ||
          (new_queries == best_queries && new_edges > best_edges)) {
        best = c;
        best_queries = new_queries;
        best_edges = new_edges;
      }
    }
    if (best == static_cast<uint32_t>(-1)) break;  // no further gain
    used[best] = 1;
    result.selected.push_back(best);
    for (size_t i = 0; i < nq; ++i) covered[i].Merge(coverage[best][i]);
  }

  result.answerable.resize(nq);
  for (size_t i = 0; i < nq; ++i) {
    result.answerable[i] = answerable_now(i);
    result.answerable_count += result.answerable[i] ? 1 : 0;
    result.covered_edges += covered[i].Count();
  }
  result.total_edges = total_edges;
  return result;
}

namespace {

/// Canonical signature of a small pattern (nodes renamed positionally).
std::string Signature(const Pattern& p) {
  std::string sig;
  for (uint32_t u = 0; u < p.num_nodes(); ++u) {
    sig += p.node(u).label + "|" + p.node(u).pred.ToString() + ";";
  }
  for (const PatternEdge& e : p.edges()) {
    sig += std::to_string(e.src) + ">" + std::to_string(e.dst) + "@" +
           std::to_string(e.bound) + ";";
  }
  return sig;
}

Pattern EdgePattern(const Pattern& q, uint32_t e) {
  Pattern p;
  const PatternEdge& pe = q.edge(e);
  uint32_t a = p.AddNode(q.node(pe.src).label, q.node(pe.src).pred, "n0");
  uint32_t b = pe.src == pe.dst
                   ? a
                   : p.AddNode(q.node(pe.dst).label, q.node(pe.dst).pred, "n1");
  (void)p.AddEdge(a, b, pe.bound);
  return p;
}

Pattern EdgePairPattern(const Pattern& q, uint32_t e1, uint32_t e2) {
  Pattern p;
  std::vector<std::pair<uint32_t, uint32_t>> node_map;  // (query node, local)
  auto local = [&](uint32_t u) {
    for (auto& [qu, lu] : node_map) {
      if (qu == u) return lu;
    }
    uint32_t lu = p.AddNode(q.node(u).label, q.node(u).pred,
                            "n" + std::to_string(node_map.size()));
    node_map.emplace_back(u, lu);
    return lu;
  };
  for (uint32_t e : {e1, e2}) {
    const PatternEdge& pe = q.edge(e);
    uint32_t a = local(pe.src);
    uint32_t b = local(pe.dst);
    (void)p.AddEdge(a, b, pe.bound);
  }
  return p;
}

}  // namespace

ViewSet CandidateViewsFromWorkload(const std::vector<Pattern>& workload) {
  ViewSet candidates;
  std::set<std::string> seen;
  size_t counter = 0;
  auto add = [&](Pattern p) {
    std::string sig = Signature(p);
    if (seen.insert(sig).second) {
      candidates.Add("cand" + std::to_string(counter++), std::move(p));
    }
  };
  for (const Pattern& q : workload) {
    for (uint32_t e = 0; e < q.num_edges(); ++e) add(EdgePattern(q, e));
    // Adjacent pairs: edges sharing any endpoint.
    for (uint32_t e1 = 0; e1 < q.num_edges(); ++e1) {
      for (uint32_t e2 = e1 + 1; e2 < q.num_edges(); ++e2) {
        const PatternEdge& a = q.edge(e1);
        const PatternEdge& b = q.edge(e2);
        bool adjacent = a.src == b.src || a.src == b.dst || a.dst == b.src ||
                        a.dst == b.dst;
        if (adjacent) add(EdgePairPattern(q, e1, e2));
      }
    }
  }
  return candidates;
}

}  // namespace gpmv
