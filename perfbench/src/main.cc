/// \file main.cc
/// \brief The benchmark's own binary:
///
///   perfbench gen    --workload W --dir D            write the inputs
///   perfbench load   ...                             socket load (loadgen.cc)
///   perfbench replay ...                             traced run (replay.cc)
///
/// `gen` writes the graph, the query pool and the covering views (the
/// fixed dataset, see MakeInputs) into D, and prints one JSON object with
/// the input sizes, the workload's fixed rates and the server flags it runs
/// with.

#include <cstdio>
#include <map>
#include <string>

#include "core/view_io.h"
#include "graph/graph_io.h"
#include "workload.h"

namespace perfbench {
int LoadMain(const std::map<std::string, std::string>& args);
int ReplayMain(const std::map<std::string, std::string>& args);
}  // namespace perfbench

namespace {

using namespace perfbench;

int GenMain(const std::map<std::string, std::string>& args) {
  const WorkloadSpec* spec =
      FindWorkload(args.count("--workload") ? args.at("--workload") : "");
  if (spec == nullptr || !args.count("--dir")) {
    std::fprintf(stderr, "gen: --workload and --dir are required\n");
    return 2;
  }
  const std::string dir = args.at("--dir");
  Inputs in = MakeInputs();
  gpmv::ViewSet pool;
  for (size_t i = 0; i < in.queries.size(); ++i) {
    pool.Add("q" + std::to_string(i), in.queries[i]);
  }
  if (!gpmv::WriteGraphFile(in.graph, GraphPath(dir)).ok() ||
      !gpmv::WriteViewSetFile(pool, QueriesPath(dir)).ok() ||
      !gpmv::WriteViewSetFile(in.views, ViewsPath(dir)).ok()) {
    std::fprintf(stderr, "gen: cannot write into %s\n", dir.c_str());
    return 1;
  }
  JsonObject o;
  o.Num("graph_nodes", static_cast<double>(in.graph.num_nodes()));
  o.Num("graph_edges", static_cast<double>(in.graph.num_edges()));
  o.Num("distinct_queries", static_cast<double>(in.queries.size()));
  o.Num("views", static_cast<double>(in.views.card()));
  o.Num("open_rate", spec->open_rate);
  o.Num("probe_rate", spec->probe_rate);
  o.Num("seed_capacity_rps", spec->seed_capacity_rps);
  o.Bool("write_probe", spec->write_probe());
  o.Raw("server_args", "[\"--views\",\"" + ViewsPath(dir) +
                           "\",\"--warm\",\"--result-cache-mb\",\"" +
                           std::to_string(kResultCacheMb) + "\"]");
  std::printf("%s\n", o.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench <gen|load|replay> [--flag value]...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (cmd == "gen") return GenMain(args);
  if (cmd == "load") return LoadMain(args);
  if (cmd == "replay") return ReplayMain(args);
  std::fprintf(stderr, "perfbench: unknown command '%s'\n", cmd.c_str());
  return 2;
}
