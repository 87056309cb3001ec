/// \file quickstart.cpp
/// \brief Five-minute tour of the library: build a graph, define a pattern
/// query and views, materialize, check containment, and answer the query
/// without touching the graph.
///
///   ./build/examples/quickstart

#include <cstdio>

#include "core/containment.h"
#include "core/match_join.h"
#include "core/view.h"
#include "pattern/pattern_builder.h"
#include "simulation/simulation.h"

using namespace gpmv;

int main() {
  // 1. A tiny labeled data graph: two project teams.
  Graph g;
  NodeId mgr1 = g.AddNode("Manager");
  NodeId dev1 = g.AddNode("Dev");
  NodeId qa1 = g.AddNode("QA");
  NodeId mgr2 = g.AddNode("Manager");
  NodeId dev2 = g.AddNode("Dev");
  (void)g.AddEdge(mgr1, dev1);
  (void)g.AddEdge(dev1, qa1);
  (void)g.AddEdge(mgr2, dev2);  // second team has no QA

  // 2. A pattern query: a manager whose dev is covered by QA.
  Pattern q = PatternBuilder()
                  .Node("Manager")
                  .Node("Dev")
                  .Node("QA")
                  .Edge("Manager", "Dev")
                  .Edge("Dev", "QA")
                  .Build();
  std::printf("Query:\n%s\n", q.ToString().c_str());

  // 3. Two cached views, each covering part of the query.
  ViewSet views;
  views.Add("manages", PatternBuilder()
                           .Node("Manager")
                           .Node("Dev")
                           .Edge("Manager", "Dev")
                           .Build());
  views.Add("qa_covers", PatternBuilder()
                             .Node("Dev")
                             .Node("QA")
                             .Edge("Dev", "QA")
                             .Build());

  // 4. Freeze G once, then materialize the views from that snapshot (the
  // only scan of G).
  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  std::vector<ViewExtension> exts =
      std::move(MaterializeAll(views, *snap)).value();
  std::printf("Materialized %zu views, %zu cached pairs total\n\n",
              exts.size(), TotalExtensionPairs(exts));

  // 5. Is the query answerable from the views alone? (Theorem 1)
  ContainmentMapping mapping = std::move(CheckContainment(q, views)).value();
  if (!mapping.contained) {
    std::printf("Query is NOT contained in the views; evaluate directly.\n");
    return 1;
  }
  std::printf("Q is contained in the views (lambda covers all %zu edges).\n",
              q.num_edges());

  // 6. Answer the query from the cached extensions only.
  MatchResult via_views =
      std::move(MatchJoin(q, views, exts, mapping)).value();
  std::printf("\nQ(G) computed from views:\n%s",
              via_views.ToString(q, g).c_str());

  // 7. Sanity: identical to evaluating directly on G.
  MatchResult direct = std::move(MatchSimulation(q, *snap)).value();
  std::printf("\nDirect evaluation agrees: %s\n",
              via_views == direct ? "yes" : "NO (bug!)");
  return via_views == direct ? 0 : 1;
}
