#include "core/minimization.h"

#include <algorithm>

#include "core/view_match.h"

namespace gpmv {

namespace {

bool SameCondition(const PatternNode& a, const PatternNode& b) {
  return a.label == b.label && a.pred.Implies(b.pred) && b.pred.Implies(a.pred);
}

}  // namespace

std::vector<uint32_t> SimilarityClasses(const Pattern& q) {
  const size_t n = q.num_nodes();
  // Self-simulation: node v simulates node u when every data node matching
  // u also matches v, on every graph — the view-match relation with the
  // pattern playing both roles.
  QueryMatchContext self(q);
  self.Simulate(q);
  std::vector<uint32_t> cls(n, static_cast<uint32_t>(-1));
  uint32_t next = 0;
  for (uint32_t u = 0; u < n; ++u) {
    if (cls[u] != static_cast<uint32_t>(-1)) continue;
    cls[u] = next;
    for (uint32_t v = u + 1; v < n; ++v) {
      if (cls[v] != static_cast<uint32_t>(-1)) continue;
      // Mutual similarity with identical search conditions (merging nodes
      // with weaker/stronger conditions is unsound for the quotient's
      // candidate filter).
      if (self.Simulates(u, v) && self.Simulates(v, u) &&
          SameCondition(q.node(u), q.node(v))) {
        cls[v] = next;
      }
    }
    ++next;
  }
  return cls;
}

Result<MinimizedPattern> MinimizePattern(const Pattern& q) {
  if (q.num_nodes() == 0) {
    return Status::InvalidArgument("empty pattern");
  }
  MinimizedPattern out;
  out.node_map = SimilarityClasses(q);
  uint32_t num_classes =
      q.num_nodes() == 0
          ? 0
          : *std::max_element(out.node_map.begin(), out.node_map.end()) + 1;

  if (num_classes == q.num_nodes()) {
    // Nothing collapses.
    out.pattern = q;
    out.edge_map.resize(q.num_edges());
    for (uint32_t e = 0; e < q.num_edges(); ++e) out.edge_map[e] = e;
    out.changed = false;
    return out;
  }

  // Build the quotient: one node per class (representative's condition),
  // deduplicated edges between classes. Conflicting bounds between the same
  // class pair would change match-set semantics — bail out to the original.
  Pattern quotient;
  std::vector<uint32_t> representative(num_classes, kInvalidNode);
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    uint32_t c = out.node_map[u];
    if (representative[c] == kInvalidNode) {
      representative[c] = u;
      const PatternNode& n = q.node(u);
      quotient.AddNode(n.label, n.pred, n.name);
    }
  }
  // (class src, class dst) -> (quotient edge id, bound).
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> edge_ids(
      num_classes);
  out.edge_map.assign(q.num_edges(), 0);
  for (uint32_t e = 0; e < q.num_edges(); ++e) {
    const PatternEdge& pe = q.edge(e);
    uint32_t cs = out.node_map[pe.src];
    uint32_t cd = out.node_map[pe.dst];
    uint32_t found = kInvalidNode;
    for (auto& [dst, id] : edge_ids[cs]) {
      if (dst == cd) {
        found = id;
        break;
      }
    }
    if (found != kInvalidNode) {
      if (quotient.edge(found).bound != pe.bound) {
        // Conflicting bounds: conservatively refuse to minimize.
        out.pattern = q;
        out.edge_map.resize(q.num_edges());
        for (uint32_t i = 0; i < q.num_edges(); ++i) out.edge_map[i] = i;
        for (uint32_t u = 0; u < q.num_nodes(); ++u) out.node_map[u] = u;
        out.changed = false;
        return out;
      }
      out.edge_map[e] = found;
      continue;
    }
    uint32_t id = static_cast<uint32_t>(quotient.num_edges());
    GPMV_RETURN_NOT_OK(quotient.AddEdge(cs, cd, pe.bound));
    edge_ids[cs].emplace_back(cd, id);
    out.edge_map[e] = id;
  }
  out.pattern = std::move(quotient);
  out.changed = true;
  return out;
}

}  // namespace gpmv
