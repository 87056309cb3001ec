/// \file workload.h
/// \brief The benchmark's workloads: their fixed parameters, the seeded
/// input generator (graph, query pool, covering views), the seeded request
/// sequence, and the small helpers (clock, percentiles, JSON) the load
/// generator and the traced replay share.
///
/// The dataset (graph, query pool, views) is fixed; the request sequence
/// is a pure function of (workload, seed), so the socket run and the
/// in-process traced replay see identical traffic.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/view.h"
#include "graph/graph.h"
#include "pattern/pattern.h"

namespace perfbench {

using gpmv::NodeId;

/// What distinguishes one workload from another. Both serve the same
/// inputs (see MakeInputs) from the same server configuration; they differ
/// in traffic only (README.md explains each choice).
struct WorkloadSpec {
  const char* name;
  /// Share of updates in the open- and closed-loop phases (half of them
  /// deletes). 0 = read-only: update latency and freshness are measured in
  /// a separate write-probe phase after the read phases instead.
  double update_share;
  /// Fixed offered rates (requests/s) of the open-loop phase and of the
  /// write-probe phase, constants so that they do not float with the code
  /// under test, and the closed-loop capacity the seed commit measured.
  double open_rate;
  double probe_rate;
  double seed_capacity_rps;

  bool write_probe() const { return update_share == 0.0; }
};

/// Server flag: the full-result memo's budget (1 MiB, against a working
/// set of about 1.7 MiB for the 400-query pool).
constexpr size_t kResultCacheMb = 1;

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The generated dataset, the same for every workload and every run.
struct Inputs {
  gpmv::Graph graph;
  std::vector<gpmv::Pattern> queries;  ///< the distinct query pool
  /// Covering views: each query edge as a one-edge view, deduplicated
  /// across the pool, so every query is contained in the set.
  gpmv::ViewSet views;
};

/// Generates the dataset from the constant kDatasetSeed. It does not
/// depend on the run's seed: the seeds of a set of runs sample the run's
/// request sequence (arrival times, query draws, updated edges) and the
/// host's noise, not dataset-to-dataset differences (README.md).
Inputs MakeInputs();

/// Input file names inside the run directory.
std::string GraphPath(const std::string& dir);
std::string QueriesPath(const std::string& dir);
std::string ViewsPath(const std::string& dir);

/// One request of the generated sequence.
struct Op {
  enum class Kind : uint8_t { kQuery, kInsert, kDelete };
  Kind kind = Kind::kQuery;
  uint32_t query = 0;  ///< pool index (kQuery, and the probe follow-up)
  NodeId u = 0;
  NodeId v = 0;
  bool probe = false;  ///< freshness probe: on the ack, a follow-up query
                       ///< carrying min_applied_ts = the acked ts
};

/// The edges a request source may delete: a seeded, disjoint slice
/// (`part` of `nparts`) of the initial graph's edges.
std::vector<std::pair<NodeId, NodeId>> OwnedEdges(const gpmv::Graph& g,
                                                  uint64_t seed, size_t part,
                                                  size_t nparts);

/// Deterministic request source. Queries follow the Zipf popularity;
/// deletes are drawn from edges this source knows are present (its owned
/// slice plus its own inserts), inserts are random node pairs. Every update
/// is a freshness probe.
class OpSource {
 public:
  OpSource(size_t num_nodes, size_t num_queries,
           std::vector<std::pair<NodeId, NodeId>> owned, double update_share,
           uint64_t seed);
  Op Next();

 private:
  size_t num_nodes_;
  size_t num_queries_;
  std::vector<std::pair<NodeId, NodeId>> present_;
  double update_share_;
  gpmv::Rng rng_;
};

/// Request-stream seeds of the phases (so the replay can rebuild them).
enum class Phase : uint8_t { kOpen = 0, kClosed = 1, kProbe = 2 };
uint64_t PhaseSeed(uint64_t seed, Phase phase, size_t conn);
/// Delete-slice layout: the open phase owns part 0, closed connection c
/// part 1 + c, the probe phase the last part.
constexpr size_t kMaxConns = 16;
constexpr size_t kEdgeParts = kMaxConns + 2;
size_t EdgePart(Phase phase, size_t conn);

/// The request source of `phase` (of closed-loop connection `conn`), and
/// an open-loop phase's arrival offsets: seconds from the phase start,
/// exponential gaps at `rate`/s.
OpSource MakePhaseSource(const WorkloadSpec& spec, const gpmv::Graph& g,
                         size_t num_queries, uint64_t seed, Phase phase,
                         size_t conn);
std::vector<double> ArrivalOffsets(uint64_t seed, Phase phase, double rate,
                                   double seconds);

// ------------------------------------------------------------- helpers

using Clock = std::chrono::steady_clock;
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `v`. A failed request enters
/// as +infinity, so it misses every latency limit.
double Percentile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

/// Minimal JSON object writer (numbers, strings, nested raw JSON).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
