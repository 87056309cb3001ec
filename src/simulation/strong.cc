#include "simulation/strong.h"

#include <algorithm>

#include "simulation/dual.h"

namespace gpmv {

uint64_t StrongSimulationRadius(const Pattern& q) {
  const size_t n = q.num_nodes();
  if (n == 0) return 0;
  std::vector<std::vector<uint64_t>> dist(n,
                                          std::vector<uint64_t>(n, kInfDistance));
  for (size_t u = 0; u < n; ++u) dist[u][u] = 0;
  for (const PatternEdge& e : q.edges()) {
    uint64_t w = (e.bound == kUnbounded) ? kInfDistance : e.bound;
    if (w < dist[e.src][e.dst]) dist[e.src][e.dst] = dist[e.dst][e.src] = w;
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (dist[i][k] == kInfDistance) continue;
      for (size_t j = 0; j < n; ++j) {
        if (dist[k][j] == kInfDistance) continue;
        uint64_t via = dist[i][k] + dist[k][j];
        if (via < dist[i][j]) dist[i][j] = via;
      }
    }
  }
  uint64_t diameter = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (dist[i][j] == kInfDistance) return kInfDistance;  // disconnected / `*`
      diameter = std::max(diameter, dist[i][j]);
    }
  }
  return diameter;
}

namespace {

/// Reusable per-ball scratch: O(|V|) arrays cleared via the touched lists
/// rather than refilled, so scanning many candidate centers stays linear in
/// the balls actually visited.
struct BallScratch {
  std::vector<uint64_t> dist;      // kInfDistance = unseen
  std::vector<NodeId> local_of;    // global -> local id; kInvalidNode = absent

  explicit BallScratch(size_t n)
      : dist(n, kInfDistance), local_of(n, kInvalidNode) {}
};

/// Undirected bounded BFS collecting the ball around `center` (sorted).
std::vector<NodeId> CollectBall(const GraphSnapshot& g, NodeId center,
                                uint64_t radius, BallScratch* scratch) {
  std::vector<NodeId> ball;
  if (radius == kInfDistance) {
    ball.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) ball[v] = v;
    return ball;
  }
  std::vector<NodeId> queue{center};
  scratch->dist[center] = 0;
  size_t head = 0;
  while (head < queue.size()) {
    NodeId v = queue[head++];
    uint64_t d = scratch->dist[v];
    if (d >= radius) continue;
    auto visit = [&](NodeId w) {
      if (scratch->dist[w] == kInfDistance) {
        scratch->dist[w] = d + 1;
        queue.push_back(w);
      }
    };
    for (NodeId w : g.out_neighbors(v)) visit(w);
    for (NodeId w : g.in_neighbors(v)) visit(w);
  }
  for (NodeId v : queue) scratch->dist[v] = kInfDistance;  // reset touched
  ball = std::move(queue);
  std::sort(ball.begin(), ball.end());
  return ball;
}

/// Builds the subgraph of `g` induced by sorted `nodes`, filling
/// scratch->local_of for the mapping (caller resets the touched entries).
Graph InducedSubgraph(const GraphSnapshot& g, const std::vector<NodeId>& nodes,
                      BallScratch* scratch) {
  Graph sub;
  for (NodeId v : nodes) {
    std::vector<std::string> labels;
    labels.reserve(g.labels(v).size());
    for (LabelId l : g.labels(v)) labels.push_back(g.LabelName(l));
    scratch->local_of[v] = sub.AddNode(labels, g.attrs(v));
  }
  for (NodeId v : nodes) {
    for (NodeId w : g.out_neighbors(v)) {
      if (scratch->local_of[w] != kInvalidNode) {
        sub.AddEdgeIfAbsent(scratch->local_of[v], scratch->local_of[w]);
      }
    }
  }
  return sub;
}

}  // namespace

Result<std::vector<StrongMatch>> MatchStrongSimulation(const Pattern& q,
                                                       const GraphSnapshot& g,
                                                       size_t max_matches) {
  if (q.num_nodes() == 0) return Status::InvalidArgument("empty pattern");
  std::vector<StrongMatch> matches;
  const uint64_t radius = StrongSimulationRadius(q);

  // Candidate centers: nodes matching at least one pattern node condition.
  std::vector<char> is_candidate(g.num_nodes(), 0);
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    const PatternNode& pn = q.node(u);
    LabelId lid = pn.label.empty() ? kInvalidLabel : g.FindLabel(pn.label);
    if (!pn.label.empty()) {
      if (lid == kInvalidLabel) continue;
      for (NodeId v : g.NodesWithLabel(lid)) {
        if (pn.MatchesData(g, v, lid)) is_candidate[v] = 1;
      }
    } else {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (pn.MatchesData(g, v, lid)) is_candidate[v] = 1;
      }
    }
  }

  BallScratch scratch(g.num_nodes());
  for (NodeId w = 0; w < g.num_nodes() && matches.size() < max_matches; ++w) {
    if (!is_candidate[w]) continue;
    std::vector<NodeId> ball = CollectBall(g, w, radius, &scratch);
    Graph sub = InducedSubgraph(g, ball, &scratch);

    std::vector<std::vector<NodeId>> sim;
    Status st = ComputeDualSimulationRelation(q, *sub.Freeze(), &sim);
    NodeId local_center = scratch.local_of[w];
    for (NodeId v : ball) scratch.local_of[v] = kInvalidNode;  // reset
    GPMV_RETURN_NOT_OK(st);
    bool nonempty = !sim.empty();
    for (const auto& su : sim) nonempty = nonempty && !su.empty();
    if (!nonempty) continue;

    // The center must appear in the relation.
    bool center_matched = false;
    for (const auto& su : sim) {
      if (std::binary_search(su.begin(), su.end(), local_center)) {
        center_matched = true;
        break;
      }
    }
    if (!center_matched) continue;

    StrongMatch m;
    m.center = w;
    m.relation.resize(q.num_nodes());
    for (uint32_t u = 0; u < q.num_nodes(); ++u) {
      for (NodeId lv : sim[u]) m.relation[u].push_back(ball[lv]);
      std::sort(m.relation[u].begin(), m.relation[u].end());
    }
    matches.push_back(std::move(m));
  }
  return matches;
}

}  // namespace gpmv
