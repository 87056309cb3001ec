/// \file team_finder.cpp
/// \brief The paper's running example (Fig. 1): a human-resource manager
/// builds a team by matching a collaboration pattern — PM with a DBA and a
/// PRG under a DBA/PRG supervision cycle — over a recommendation network,
/// using two cached views instead of scanning the network.
///
///   ./build/examples/team_finder

#include <cstdio>

#include "core/containment.h"
#include "core/match_join.h"
#include "simulation/simulation.h"
#include "workload/paper_fixtures.h"

using namespace gpmv;

namespace {

void PrintPeople(const Graph& g, const std::vector<NodeId>& ids) {
  for (size_t i = 0; i < ids.size(); ++i) {
    const AttrValue* name = g.attrs(ids[i]).Get("name");
    std::printf("%s%s", i ? ", " : "",
                name != nullptr ? name->as_string().c_str() : "?");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  Fig1Fixture f = MakeFig1();
  std::printf("Recommendation network: %zu people, %zu collaboration edges\n",
              f.g.num_nodes(), f.g.num_edges());
  std::printf("Team pattern Qs:\n%s\n", f.qs.ToString().c_str());

  std::shared_ptr<const GraphSnapshot> snap = f.g.Freeze();
  // Cache the two views of Fig. 1(b).
  auto exts = std::move(MaterializeAll(f.views, *snap)).value();
  std::printf("Cached views: V1 (PM leads DBA+PRG) with %zu pairs, "
              "V2 (DBA/PRG cycle) with %zu pairs\n\n",
              exts[0].TotalPairs(), exts[1].TotalPairs());

  // Decide answerability and build lambda (Example 3).
  ContainmentMapping mapping =
      std::move(CheckContainment(f.qs, f.views)).value();
  std::printf("Qs contained in {V1, V2}: %s\n\n",
              mapping.contained ? "yes" : "no");

  // Answer using views only (Example 2's table).
  MatchJoinStats stats;
  MatchResult team = std::move(
      MatchJoin(f.qs, f.views, exts, mapping, MatchJoinOptions{}, &stats))
      .value();
  std::printf("Qs(G) via MatchJoin (%zu merged pairs, %zu removed):\n%s\n",
              stats.initial_pairs, stats.removed_pairs,
              team.ToString(f.qs, f.g).c_str());

  // Who can fill each role?
  const char* roles[] = {"PM", "DBA1", "PRG1", "DBA2", "PRG2"};
  for (const char* role : roles) {
    uint32_t u = f.qs.NodeByName(role);
    std::printf("candidates for %-5s: ", role);
    PrintPeople(f.g, team.node_matches(u));
  }

  // Cross-check against the direct evaluation.
  MatchResult direct = std::move(MatchSimulation(f.qs, *snap)).value();
  std::printf("\nView-based answer %s the direct evaluation.\n",
              team == direct ? "matches" : "DIFFERS FROM");
  return team == direct ? 0 : 1;
}
