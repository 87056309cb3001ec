/// \file test_util.h
/// \brief Shared helpers for the gpmv test suite: a brute-force simulation
/// oracle, match-set expectation helpers, small graph builders, a view kept
/// fresh through the view cache's maintenance path, and the
/// deterministic-schedule concurrency harness (PhaseBarrier +
/// ScheduleDriver + seed plumbing) the stress suites run on.
///
/// Reproducing a seeded stress failure: every randomized/stress test logs
/// its seed through SCOPED_TRACE (look for `seed=N` in the failure output)
/// and draws it from StressSeeds(); re-run the failing test binary with
/// GPMV_STRESS_SEED=N to pin the harness to exactly that schedule/stream.
/// docs/TESTING.md walks through the workflow.

#ifndef GPMV_TESTS_TEST_UTIL_H_
#define GPMV_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/maintenance.h"
#include "core/view.h"
#include "engine/view_cache.h"
#include "graph/graph.h"
#include "graph/traversal.h"
#include "pattern/pattern.h"
#include "simulation/match_result.h"

namespace gpmv {
namespace testutil {

/// O(n^2)-ish reference implementation of the maximum graph-simulation
/// relation: recompute-from-scratch fixpoint, no counters, no worklists.
/// Only for small graphs.
inline std::vector<std::vector<NodeId>> OracleSimulation(const Pattern& q,
                                                         const Graph& g) {
  const size_t np = q.num_nodes();
  std::vector<std::vector<char>> in_sim(np,
                                        std::vector<char>(g.num_nodes(), 0));
  for (uint32_t u = 0; u < np; ++u) {
    const PatternNode& pn = q.node(u);
    LabelId lid = pn.label.empty() ? kInvalidLabel : g.FindLabel(pn.label);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (pn.MatchesData(g, v, lid)) in_sim[u][v] = 1;
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t u = 0; u < np; ++u) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!in_sim[u][v]) continue;
        for (uint32_t e : q.out_edges(u)) {
          uint32_t u2 = q.edge(e).dst;
          bool has = false;
          for (NodeId w : g.out_neighbors(v)) {
            if (in_sim[u2][w]) {
              has = true;
              break;
            }
          }
          if (!has) {
            in_sim[u][v] = 0;
            changed = true;
            break;
          }
        }
      }
    }
  }
  std::vector<std::vector<NodeId>> sim(np);
  for (uint32_t u = 0; u < np; ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (in_sim[u][v]) sim[u].push_back(v);
    }
  }
  return sim;
}

/// Reference Q(G) built from OracleSimulation (empty when some pattern node
/// has no match).
inline MatchResult OracleMatch(const Pattern& q, const Graph& g) {
  auto sim = OracleSimulation(q, g);
  MatchResult r = MatchResult::Empty(q);
  for (const auto& su : sim) {
    if (su.empty()) return r;
  }
  std::vector<std::vector<char>> in_sim(q.num_nodes(),
                                        std::vector<char>(g.num_nodes(), 0));
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    for (NodeId v : sim[u]) in_sim[u][v] = 1;
  }
  for (uint32_t e = 0; e < q.num_edges(); ++e) {
    const PatternEdge& pe = q.edge(e);
    auto* se = r.mutable_edge_matches(e);
    for (NodeId v : sim[pe.src]) {
      for (NodeId w : g.out_neighbors(v)) {
        if (in_sim[pe.dst][w]) se->emplace_back(v, w);
      }
    }
    if (se->empty()) return MatchResult::Empty(q);
  }
  r.set_matched(true);
  r.Normalize();
  r.DeriveNodeMatches(q);
  return r;
}

/// Sorted copy of a pair list (canonical form for EXPECT_EQ).
inline std::vector<NodePair> Sorted(std::vector<NodePair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

/// Builds a chain graph lab[0] -> lab[1] -> ... and returns it.
inline Graph ChainGraph(const std::vector<std::string>& labels) {
  Graph g;
  for (const std::string& l : labels) g.AddNode(l);
  for (NodeId v = 0; v + 1 < g.num_nodes(); ++v) {
    (void)g.AddEdge(v, v + 1);
  }
  return g;
}

/// Builds a chain pattern lab[0] -> lab[1] -> ... with unit bounds.
inline Pattern ChainPattern(const std::vector<std::string>& labels) {
  Pattern p;
  for (size_t i = 0; i < labels.size(); ++i) {
    p.AddNode(labels[i], Predicate(), labels[i] + std::to_string(i));
  }
  for (uint32_t u = 0; u + 1 < p.num_nodes(); ++u) {
    (void)p.AddEdge(u, u + 1);
  }
  return p;
}

/// True iff `ext` snapshots exactly its pair endpoints: every endpoint has
/// a snapshot and there are no others.
inline bool SnapshotsMatchEndpoints(const ViewExtension& ext) {
  std::vector<NodeId> endpoints;
  for (uint32_t e = 0; e < ext.num_view_edges(); ++e) {
    for (const NodePair& p : ext.edge(e).pairs) {
      endpoints.push_back(p.first);
      endpoints.push_back(p.second);
    }
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  for (NodeId v : endpoints) {
    if (ext.snapshot(v) == nullptr) return false;
  }
  return ext.num_snapshots() == endpoints.size();
}

/// Exact equality of two extensions: matched flag, per view edge the pairs
/// and their distances, and — on both sides — a snapshot key set equal to
/// the pair endpoints (so the key sets agree too).
inline bool SameExtension(const ViewExtension& a, const ViewExtension& b) {
  if (a.matched() != b.matched()) return false;
  if (a.num_view_edges() != b.num_view_edges()) return false;
  for (uint32_t e = 0; e < a.num_view_edges(); ++e) {
    if (a.edge(e).pairs != b.edge(e).pairs) return false;
    if (a.edge(e).distances != b.edge(e).distances) return false;
  }
  return SnapshotsMatchEndpoints(a) && SnapshotsMatchEndpoints(b);
}

/// One view kept fresh the way the engine keeps its cached views: a
/// ViewCache holding only this view, refreshed through
/// ViewCache::RefreshForUpdates after each edge update. Callers mutate the
/// graph first, then report the update; every refresh reads the graph's
/// (incrementally re-)frozen snapshot.
class CachedView {
 public:
  explicit CachedView(ViewDefinition def, MaintenanceOptions opts = {})
      : opts_(opts) {
    cache_.Register(std::move(def));
  }

  /// Materializes the view on `g` and installs it in the cache.
  Status Install(Graph& g) {
    std::vector<std::vector<NodeId>> relation;
    Result<ViewExtension> ext = ViewExtension::Materialize(
        definition(), *g.Freeze(), /*seed=*/nullptr, &relation);
    GPMV_RETURN_NOT_OK(ext.status());
    cache_.Install(0, std::move(ext).value(), std::move(relation),
                   /*pin=*/false);
    return Status::OK();
  }

  /// Refreshes after edge (u, v) was removed from `g`.
  Status Removed(Graph& g, NodeId u, NodeId v) {
    std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
    return cache_.RefreshForUpdates(snap.get(), *snap, {{u, v}}, {}, opts_,
                                    &maintenance_stats_);
  }

  /// Refreshes after edge (u, v) was inserted into `g`.
  Status Inserted(Graph& g, NodeId u, NodeId v) {
    return cache_.RefreshForUpdates(nullptr, *g.Freeze(), {}, {{u, v}}, opts_,
                                    &maintenance_stats_);
  }

  /// Applies one batch the way the engine does — every `deleted` edge
  /// removed (absent ones skipped), a freeze, every `inserted` edge added
  /// (present ones skipped), a freeze — and refreshes. The lists are
  /// reported as given, so absent deletions and present insertions reach
  /// maintenance as over-approximations.
  Status Batch(Graph& g, const std::vector<NodePair>& deleted,
               const std::vector<NodePair>& inserted) {
    for (const NodePair& p : deleted) (void)g.RemoveEdge(p.first, p.second);
    std::shared_ptr<const GraphSnapshot> after_deletions;
    if (!deleted.empty()) after_deletions = g.Freeze();
    for (const NodePair& p : inserted) {
      (void)g.AddEdgeIfAbsent(p.first, p.second);
    }
    std::shared_ptr<const GraphSnapshot> final_snap = g.Freeze();
    return cache_.RefreshForUpdates(after_deletions.get(), *final_snap,
                                    deleted, inserted, opts_,
                                    &maintenance_stats_);
  }

  const ViewDefinition& definition() const { return cache_.views().view(0); }
  const ViewExtension& extension() const { return cache_.extensions()[0]; }
  /// Refresh and prescreen-skip counts (`refreshes`, `refreshes_skipped`).
  ViewCacheStats stats() const { return cache_.stats(); }
  /// The cache's accounting invariants (ViewCache::CheckConsistency).
  bool CheckConsistency() const {
    return cache_.CheckConsistency(/*expect_unpinned=*/true);
  }
  /// Delta, fallback and skip counts of both phases, summed over every
  /// refresh.
  const MaintenanceStats& maintenance_stats() const {
    return maintenance_stats_;
  }

 private:
  MaintenanceOptions opts_;
  ViewCache cache_;
  MaintenanceStats maintenance_stats_;
};

// ---------------------------------------------------------------------------
// Deterministic-schedule concurrency harness
// ---------------------------------------------------------------------------

/// Seeds for a randomized/stress test: the given defaults, unless the
/// GPMV_STRESS_SEED environment variable pins a single seed (the reproduce-
/// from-CI-logs knob; see the file comment).
inline std::vector<uint64_t> StressSeeds(std::vector<uint64_t> defaults) {
  const char* env = std::getenv("GPMV_STRESS_SEED");
  if (env != nullptr && *env != '\0') {
    return {std::strtoull(env, nullptr, 10)};
  }
  return defaults;
}

/// Reusable phase barrier: `participants` threads call Arrive() to enter
/// the next phase together; nobody proceeds until everyone arrived. Used to
/// pin stress tests to a known structure (e.g. "all producers and all
/// readers start racing at once, then all quiesce before verification")
/// instead of relying on spawn-order luck.
class PhaseBarrier {
 public:
  explicit PhaseBarrier(size_t participants) : participants_(participants) {}

  void Arrive() {
    std::unique_lock<std::mutex> lk(mu_);
    const uint64_t gen = generation_;
    if (++arrived_ == participants_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lk, [&] { return generation_ != gen; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const size_t participants_;
  size_t arrived_ = 0;
  uint64_t generation_ = 0;
};

/// Seeded interleaving driver: N logical workers, each a step function
/// `bool step(size_t k)` (return false when out of work). The driver runs
/// every worker on its own thread but releases exactly one step at a time,
/// picking the next worker from a seeded RNG — so the *interleaving of
/// logical operations* (submits, update batches, stats reads, stream
/// pushes) is a pure function of the seed and reproduces exactly, while
/// whatever each step triggers inside the engine (worker pools, the stream
/// applier) still runs genuinely concurrently underneath. A failing
/// schedule replays from its logged seed (StressSeeds + GPMV_STRESS_SEED).
class ScheduleDriver {
 public:
  explicit ScheduleDriver(uint64_t seed) : rng_(seed) {}

  /// Registers a worker; call before Run(). Returns its index.
  size_t AddWorker(std::function<bool(size_t)> step_fn) {
    workers_.push_back(Worker{std::move(step_fn), 0, false});
    return workers_.size() - 1;
  }

  /// Runs the schedule to completion (every worker returned false).
  void Run() {
    std::vector<std::thread> threads;
    threads.reserve(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i) {
      threads.emplace_back([this, i] { WorkerLoop(i); });
    }
    std::vector<size_t> live;
    for (size_t i = 0; i < workers_.size(); ++i) live.push_back(i);
    while (!live.empty()) {
      const size_t pick = static_cast<size_t>(rng_.NextBounded(live.size()));
      const size_t w = live[pick];
      bool more;
      {
        std::unique_lock<std::mutex> lk(mu_);
        current_ = static_cast<long>(w);
        cv_.notify_all();
        cv_.wait(lk, [&] { return current_ == kNone; });
        more = !workers_[w].done;
      }
      if (!more) {
        live[pick] = live.back();
        live.pop_back();
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      finished_ = true;
      cv_.notify_all();
    }
    for (std::thread& t : threads) t.join();
  }

 private:
  static constexpr long kNone = -1;

  struct Worker {
    std::function<bool(size_t)> step;
    size_t steps_run;
    bool done;
  };

  void WorkerLoop(size_t w) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] {
          return finished_ || current_ == static_cast<long>(w);
        });
        if (finished_) return;
      }
      // Run the step outside the driver lock: the step may block on engine
      // internals (queue backpressure, futures) without wedging the driver.
      Worker& worker = workers_[w];
      const bool more = !worker.done && worker.step(worker.steps_run);
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++worker.steps_run;
        if (!more) worker.done = true;
        current_ = kNone;
        cv_.notify_all();
      }
      if (!more) return;
    }
  }

  Rng rng_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Worker> workers_;
  long current_ = kNone;
  bool finished_ = false;
};

}  // namespace testutil
}  // namespace gpmv

#endif  // GPMV_TESTS_TEST_UTIL_H_
