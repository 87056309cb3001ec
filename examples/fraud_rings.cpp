/// \file fraud_rings.cpp
/// \brief Stronger matching semantics in action (Section VIII extensions):
/// finding suspicious transaction rings. Plain simulation over-reports
/// (forward-only evidence), dual simulation requires both directions, and
/// strong simulation additionally localizes matches to balls — each refines
/// the previous, mirroring Ma et al. [28]. Dual answers are also computed
/// from cached views via DualMatchJoin.
///
///   ./build/examples/fraud_rings

#include <cstdio>

#include "common/random.h"
#include "core/containment.h"
#include "core/match_join.h"
#include "pattern/pattern_builder.h"
#include "simulation/dual.h"
#include "simulation/simulation.h"
#include "simulation/strong.h"

using namespace gpmv;

int main() {
  // A toy payments graph: accounts (A), mules (M), cash-out points (X).
  // One genuine ring A -> M -> X -> A plus lots of benign partial chains.
  Graph g;
  Rng rng(7);
  NodeId ring_a = g.AddNode("A"), ring_m = g.AddNode("M"),
         ring_x = g.AddNode("X");
  (void)g.AddEdge(ring_a, ring_m);
  (void)g.AddEdge(ring_m, ring_x);
  (void)g.AddEdge(ring_x, ring_a);
  // Benign background: chains that never close the loop.
  for (int i = 0; i < 40; ++i) {
    NodeId a = g.AddNode("A"), m = g.AddNode("M"), x = g.AddNode("X");
    (void)g.AddEdge(a, m);
    if (rng.NextBool(0.7)) (void)g.AddEdge(m, x);
    // Some X's pay out to *other* rings' accounts, creating forward-only
    // evidence that fools plain simulation.
    if (rng.NextBool(0.4)) (void)g.AddEdge(x, ring_a);
  }

  Pattern ring = PatternBuilder()
                     .Node("A").Node("M").Node("X")
                     .Edge("A", "M").Edge("M", "X").Edge("X", "A")
                     .Build();
  std::printf("payments graph: %zu accounts, %zu transfers\n",
              g.num_nodes(), g.num_edges());
  std::printf("ring pattern: A -> M -> X -> A\n\n");

  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  MatchResult sim = std::move(MatchSimulation(ring, *snap)).value();
  std::printf("graph simulation:   %zu candidate transfers (over-reports: "
              "forward evidence only)\n",
              sim.TotalMatches());

  MatchResult dual = std::move(MatchDualSimulation(ring, *snap)).value();
  std::printf("dual simulation:    %zu transfers (parents required)\n",
              dual.TotalMatches());

  auto strong = std::move(MatchStrongSimulation(ring, *snap)).value();
  std::printf("strong simulation:  %zu matching balls (locality enforced)\n",
              strong.size());
  for (const StrongMatch& m : strong) {
    std::printf("  ball at %s: ring members", g.DescribeNode(m.center).c_str());
    for (uint32_t u = 0; u < m.relation.size(); ++u) {
      for (NodeId v : m.relation[u]) {
        std::printf(" %s", g.DescribeNode(v).c_str());
      }
    }
    std::printf("\n");
  }

  // The dual answer is also computable from cached views (Section VIII).
  ViewSet views;
  views.Add("am", PatternBuilder().Node("A").Node("M").Edge("A", "M").Build());
  views.Add("mx", PatternBuilder().Node("M").Node("X").Edge("M", "X").Build());
  views.Add("xa", PatternBuilder().Node("X").Node("A").Edge("X", "A").Build());
  auto exts = std::move(MaterializeAll(views, *snap)).value();
  auto mapping = std::move(CheckContainment(ring, views)).value();
  if (mapping.contained) {
    MatchResult via_views =
        std::move(DualMatchJoin(ring, views, exts, mapping)).value();
    std::printf("\nDualMatchJoin from cached single-edge views: %zu transfers "
                "(%s direct dual evaluation)\n",
                via_views.TotalMatches(),
                via_views == dual ? "identical to" : "DIFFERS from");
    return via_views == dual ? 0 : 1;
  }
  return 0;
}
