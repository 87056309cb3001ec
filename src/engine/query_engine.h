/// \file query_engine.h
/// \brief The concurrent view-cache query engine: owns a graph snapshot, a
/// registry of view definitions with lazily materialized extensions, and
/// answers pattern queries end-to-end the way the paper envisions views
/// being used — as a cache layer serving a query stream without touching G
/// whenever containment allows it.
///
/// Components:
///  * planner.h      — per-query choice of MatchJoin / partial-views /
///                     direct, with cost estimates from graph/statistics;
///  * view_cache.h   — byte-accounted LRU cache of materialized extensions
///                     with pinning and hit/miss/eviction counters;
///  * executor.h     — fixed worker pool + bounded queue behind Submit();
///  * result_cache.h — full-result memo per (minimized query, graph
///                     version), consulted before any view is pinned;
///  * core/maintenance — ApplyUpdates() routes edge insert/delete batches
///                     through incremental maintenance so cached extensions
///                     stay fresh instead of being invalidated: deletions
///                     pass one ball prescreen for plain and bounded views
///                     and repair the rest locally (DeltaBoundedDelete),
///                     insertions run the localized delta-simulation path
///                     (simulation/delta.h); either re-materializes only
///                     when its area outgrows the locality threshold.
///
/// Concurrency model: one shared_mutex (the *registry lock*) protects the
/// graph and every extension payload. Query execution — planning, MatchJoin,
/// direct simulation, and even cold-view materialization (a pure read of G)
/// — runs under the lock in *shared* mode, so independent queries proceed
/// concurrently; installing a computed extension, evicting, registering
/// views, and update batches take it *exclusively*. Queries pin every view
/// their plan reads, which keeps LRU eviction from pulling extensions out
/// from under a running MatchJoin. A graph version counter detects the
/// race where an update batch lands between computing a cold extension and
/// installing it; the install is discarded and recomputed.
///
/// MVCC snapshot chain (graph/mvcc.h): commits no longer overwrite a single
/// published-snapshot slot — every commit appends an immutable `SnapshotCut`
/// (frozen graph + per-slice version vector + min-derived watermark) to a
/// retained `SnapshotChain`. Head queries read the chain head (the
/// `snapshot_` shared_ptr *is* the head cut's graph; copying it under the
/// shared lock is the implicit head pin); `AS OF ts` queries pin the newest
/// retained prefix-consistent cut with watermark <= ts via `SnapshotRef`
/// and evaluate it entirely *outside* the registry lock (historical cuts
/// are immutable). A pinned old cut survives GC until its last pin drops;
/// unpinned cuts age out of the retained window on publish. Streamed
/// commits are slice-aware: the N appliers of an ApplierPool (stream/
/// applier_pool.h) commit disjoint slice sets independently — each slice's
/// clock advances monotonically at its chain-head commit, and the global
/// `applied_through_ts` derives from the *minimum* over slice clocks, so a
/// lagging applier can never publish a watermark hole. Read-your-writes:
/// `QueryOptions::min_applied_ts` blocks the query (bounded by
/// `ryw_timeout_ms`) until the published watermark covers the caller's last
/// submitted op.

#ifndef GPMV_ENGINE_QUERY_ENGINE_H_
#define GPMV_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "core/maintenance.h"
#include "core/match_join.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "engine/result_cache.h"
#include "engine/view_cache.h"
#include "graph/graph.h"
#include "graph/mvcc.h"
#include "graph/snapshot.h"
#include "graph/statistics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/pattern.h"
#include "simulation/match_result.h"

namespace gpmv {

/// One edge mutation of an update batch.
struct EdgeUpdate {
  enum class Kind { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  NodeId u = 0;
  NodeId v = 0;

  static EdgeUpdate Insert(NodeId u, NodeId v) {
    return EdgeUpdate{Kind::kInsert, u, v};
  }
  static EdgeUpdate Delete(NodeId u, NodeId v) {
    return EdgeUpdate{Kind::kDelete, u, v};
  }
};

/// Observability knobs (src/obs/). The engine always owns a
/// MetricsRegistry; `enabled` only controls whether the hot paths record
/// into it (the `--no-metrics` overhead baseline of bench/engine_throughput
/// — with it false the engine's counters and histograms stay at zero, and
/// only the collector gauges of component-owned stats move).
struct ObsOptions {
  bool enabled = true;
  /// Attach the finished span tree to every QueryResponse (`--trace`).
  bool trace = false;
  /// Queries slower than this (total wall ms) serialize their span tree to
  /// the slow-query log; <= 0 disables the log.
  double slow_query_ms = 0.0;
  /// Slow-query JSON-lines file (appended); empty = no file sink.
  std::string slow_query_path;
  /// Extra slow-query sink (tests, CLI echo); receives each JSON line.
  std::function<void(const std::string&)> slow_query_sink;
};

/// Engine configuration.
struct EngineOptions {
  ThreadPoolOptions pool;
  ViewCacheOptions cache;
  PlannerOptions planner;
  /// Maintenance knobs for insertions and deletions (delta kill switch +
  /// affected-area fallback threshold); see core/maintenance.h.
  MaintenanceOptions maintenance;
  /// Full-result memoization (result_cache.h); budget_bytes 0 disables.
  ResultCacheOptions result_cache;
  /// Observability: tracing, slow-query log, metrics kill switch.
  ObsOptions obs;
  /// Snapshot-chain retention (graph/mvcc.h): how many historical cuts
  /// stay pinnable for `AS OF` behind the head.
  SnapshotChainOptions mvcc;
  /// Fault injector threaded through every failure domain (common/fault.h):
  /// streamed applies (`stream.apply`), incremental re-freeze
  /// (`snapshot.refreeze`) and — propagated into the worker pool — task
  /// admission (`executor.task`). Not
  /// owned; nullptr (the default) compiles the checks down to a null test.
  FaultInjector* fault = nullptr;
};

/// Per-query consistency knobs; default-constructed = "read the head".
struct QueryOptions {
  /// Read-your-writes: block until the published watermark covers this
  /// stream timestamp (0 = no wait). A client that pushed an op with ts T
  /// passes T here and is guaranteed to read a state containing it.
  uint64_t min_applied_ts = 0;
  /// Upper bound on the read-your-writes wait; exceeding it fails the
  /// query with kDeadlineExceeded instead of blocking forever behind a
  /// stalled applier.
  double ryw_timeout_ms = 2000.0;
  /// Time-travel: answer against the newest retained prefix-consistent cut
  /// whose watermark is <= as_of_ts (0 = head). Historical queries plan
  /// direct (views reflect only the head), read
  /// the pinned immutable cut outside the registry lock, and memoize under
  /// the historical cut's version.
  uint64_t as_of_ts = 0;
  /// Query deadline (0 = none): cooperative cancellation checkpoints in the
  /// read-your-writes wait, the planner hand-off and the fixpoint loops
  /// fail the query with a *clean* kDeadlineExceeded
  /// — pins unwound, nothing partial memoized, caches undisturbed. The
  /// expiry is advisory inside the loops; Execute converts it at the edge,
  /// so a result returned OK is always complete.
  double deadline_ms = 0.0;
};

/// Outcome of one query.
struct QueryResponse {
  Status status;        ///< evaluation outcome; result is valid only when ok
  MatchResult result;   ///< Q(G), normalized to the original (unminimized) Q
  PlanKind plan = PlanKind::kDirect;
  std::vector<uint32_t> views_used;  ///< view ids the plan read
  bool warm = false;    ///< view plan with every needed extension cached
  bool result_cached = false;  ///< answered from the full-result cache
  bool as_of = false;  ///< answered against a pinned historical cut
  /// A stream slice was quarantined when this query read: the answer comes
  /// from the newest published cut, which may permanently miss the
  /// quarantined slice's retained ops (degraded-mode serving,
  /// docs/ROBUSTNESS.md).
  bool degraded = false;
  /// Version of the frozen snapshot the query read end-to-end. Monotone
  /// across queries (the concurrency stress suite asserts it): updates only
  /// ever advance the published snapshot.
  uint64_t snapshot_version = 0;
  /// Stream timestamp the snapshot had applied through when the query read
  /// it (0 when no streamed op was applied yet) — the bounded-staleness
  /// handle: a reader that pushed op ts and sees applied_through_ts >= ts
  /// has read-your-writes.
  uint64_t applied_through_ts = 0;
  double plan_ms = 0.0;
  double exec_ms = 0.0;
  /// Monotone per-engine trace id, assigned to every query (cheap: one
  /// relaxed fetch_add) whether or not tracing is on — so a slow-query log
  /// line is joinable to the response that produced it.
  uint64_t trace_id = 0;
  /// The finished span tree (ObsOptions::trace only; nullptr otherwise).
  std::shared_ptr<const obs::TraceSpan> trace;
};

/// See file comment.
class QueryEngine {
 public:
  explicit QueryEngine(Graph g, EngineOptions opts = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Registers a view definition; extensions materialize lazily on first
  /// use (or eagerly via WarmViews). Returns the dense view id.
  Result<uint32_t> RegisterView(const std::string& name, Pattern pattern);

  /// Materializes every registered view that is currently cold, subject to
  /// the cache budget (LRU applies if they do not all fit).
  Status WarmViews();

  /// Answers `q` synchronously in the calling thread. Safe to call from any
  /// number of threads concurrently, and concurrently with Submit,
  /// ApplyUpdates, RegisterView and WarmViews: the query holds the registry
  /// lock in shared mode and reads one frozen snapshot version end-to-end.
  /// `qopts` adds per-query consistency: a read-your-writes floor
  /// (min_applied_ts) and/or a historical cut (as_of_ts).
  QueryResponse Query(const Pattern& q, const QueryOptions& qopts = {});

  /// Answers `q` on the worker pool; blocks only when the task queue is
  /// full (backpressure) and fails only once the pool is shut down. Safe
  /// from any thread. On OK, the worker that ran the query calls `done`
  /// exactly once with the response (on a refusal it is never called); a
  /// query observes the graph version current when its *execution* starts,
  /// not when it was submitted — updates applied while it sat queued are
  /// visible to it. `done` runs on the worker, so it must not block.
  Status Submit(Pattern q, QueryOptions qopts,
                std::function<void(QueryResponse)> done);

  /// Submit with a future the worker satisfies instead of a callback.
  Result<std::future<QueryResponse>> Submit(Pattern q,
                                            QueryOptions qopts = {});

  /// Applies an edge insert/delete batch to the graph, then routes every
  /// materialized extension through incremental maintenance in two phases:
  /// *deletions first* (ball prescreen, then the local decremental repair
  /// of DeltaBoundedDelete, against a snapshot frozen after the
  /// deletions), *then the
  /// insertions* (localized delta-simulation — affected-area fixpoint +
  /// extension merge, simulation/delta.h — against the final snapshot,
  /// re-materializing only on a delta fallback). A batch therefore has
  /// *set semantics*: its deletions are applied before its insertions
  /// regardless of interleaving, so deleting and re-inserting the same
  /// edge in one batch leaves the edge present. Unknown node ids fail the
  /// batch up front; deleting an absent edge is a no-op.
  ///
  /// Thread safety: callable from any thread, concurrently with queries
  /// and other ApplyUpdates calls. The batch is atomic from a query's
  /// perspective — the graph mutation, version bump, incremental re-freezes
  /// and extension maintenance happen under the exclusive registry lock, so
  /// every query sees either the whole batch or none of it (the mid-batch
  /// post-deletion snapshot is never published).
  Status ApplyUpdates(const std::vector<EdgeUpdate>& batch) {
    return ApplyStreamBatchSlice(batch, /*through_ts=*/0, /*slice=*/0);
  }

  /// The one commit path: ApplyUpdates' two-phase apply, plus — for a
  /// streamed micro-batch (`through_ts != 0`, called by each applier of an
  /// ApplierPool) — per-slice watermark bookkeeping: `slice`'s clock
  /// advances to `through_ts` (monotone; slice commits serialize at the
  /// chain head), and the *global* applied_through_ts derives from the
  /// minimum over all slice clocks, so a lagging applier can never publish
  /// a hole: the watermark waits at its oldest unapplied op. Micro-batches
  /// keep the exclusive section short, so Submit/Query never stall behind
  /// a bulk ingest. A streamed batch must already be coalesced to at most
  /// one op per edge (UpdateStream::Coalesce) for the engine's batch
  /// set-semantics to coincide with stream order. Every commit appends a
  /// SnapshotCut to the chain.
  Status ApplyStreamBatchSlice(const std::vector<EdgeUpdate>& batch,
                               uint64_t through_ts, size_t slice);

  /// Declares the stream slice topology (ApplierPool startup): resets the
  /// slice clock to `num_slices` slices, each seeded to the currently
  /// published watermark — so min-over-slices stays equal to it, and a new
  /// pool's ticket source (which resumes from the watermark) can't have
  /// its read-your-writes waits satisfied by stale history. Only valid
  /// while no streamed ops are in flight; the published watermark itself
  /// never regresses.
  void ConfigureStreamSlices(size_t num_slices);

  /// Heartbeat: record that slice `slice` can never again receive an op
  /// with ts <= `ts` (its router proved the queue empty past that point),
  /// without applying a batch. Advances the slice clock, possibly the
  /// min-derived watermark, and republishes the chain head's watermark —
  /// this is what keeps an *idle* slice from pinning the global watermark
  /// at its last commit forever.
  void AdvanceStreamSlice(size_t slice, uint64_t ts);

  /// Per-slice applied-through clock snapshot (tests assert monotonicity
  /// per component and min-derivation of the watermark).
  VersionVector stream_slice_versions() const {
    return slice_clock_.Current();
  }

  /// Blocks until applied_through_ts() >= ts (the read-your-writes wait).
  /// kDeadlineExceeded after `timeout_ms`.
  Status WaitForWatermark(uint64_t ts, double timeout_ms);

  /// Pins the chain head (RAII; see graph/mvcc.h). Mostly for tests — head
  /// queries pin implicitly by copying the snapshot shared_ptr.
  SnapshotRef PinSnapshot() { return chain_.PinHead(); }

  /// Pins the newest retained prefix-consistent cut with watermark <= ts —
  /// the `AS OF` target. NotFound when the retained window no longer
  /// covers ts.
  Result<SnapshotRef> PinSnapshotAsOf(uint64_t ts) {
    return chain_.PinAsOf(ts);
  }

  /// Quarantine signal from a stream applier (stream/applier_pool.h):
  /// while any slice is flagged, queries report `degraded` and unreachable
  /// read-your-writes floors are served from the head cut instead of
  /// waiting out their timeout.
  /// Callers keep transitions balanced (flag on quarantine, clear on revive
  /// or on the quarantined applier's teardown).
  void SetSliceQuarantined(size_t slice, bool quarantined);

  /// Stream slices currently quarantined (0 = healthy). Lock-free.
  size_t quarantined_slices() const {
    return quarantined_slices_.load(std::memory_order_acquire);
  }

  /// Stream timestamp the *published* snapshot has applied through (0
  /// before any streamed batch). Monotone; readable lock-free from any
  /// thread.
  uint64_t applied_through_ts() const {
    return applied_through_ts_.load(std::memory_order_acquire);
  }

  /// Workload-driven admission (view_selection.h): derives candidate views
  /// from the observed query history, greedily selects at most `max_views`,
  /// and registers the ones not structurally present yet. Returns how many
  /// were registered; they materialize lazily (or via WarmViews).
  Result<size_t> AdmitFromWorkload(size_t max_views);

  /// Full cache-accounting audit under the exclusive registry lock; with
  /// `expect_unpinned`, also verifies every query released its pins.
  bool CheckCacheConsistency(bool expect_unpinned = true) const;

  /// The engine's metrics registry — its only stats read path. Exporters
  /// (obs/exporter.h), the CLI, the benches and tests take a snapshot and
  /// read metrics by their tools/metrics_schema.json names. Valid for the
  /// engine's lifetime.
  obs::MetricsRegistry* metrics() { return &metrics_; }
  const obs::MetricsRegistry* metrics() const { return &metrics_; }

  /// Lines the slow-query log has written (0 when disabled).
  size_t slow_query_lines() const {
    return slow_log_ != nullptr ? slow_log_->lines_written() : 0;
  }

  GraphStatistics graph_statistics() const;
  size_t num_worker_threads() const { return pool_.num_threads(); }
  size_t num_views() const;
  size_t num_graph_nodes() const;
  size_t num_graph_edges() const;

 private:
  /// `queue_wait_ms >= 0` is the Submit-to-execution delay of a pooled
  /// query (recorded as query.queue_wait_us + a queue.wait span); direct
  /// Query() calls pass -1 (no queue involved).
  QueryResponse Execute(const Pattern& q, const QueryOptions& qopts = {},
                        double queue_wait_ms = -1.0);

  /// Time-travel execution: pins the AS OF cut, plans in historical mode
  /// (direct only — views reflect the head), evaluates the pinned
  /// immutable snapshot *outside* the registry lock, and memoizes under
  /// the cut's version with an AS OF-segregated cache key (so historical
  /// probes never stale-drop the head's memo entry).
  QueryResponse ExecuteAsOf(const Pattern& q, const QueryOptions& qopts,
                            double queue_wait_ms);

  /// Appends the current (snapshot_, slice clock) state as a SnapshotCut;
  /// caller holds the registry lock at least shared. Returns the new
  /// watermark. Notifies read-your-writes waiters when it advanced.
  uint64_t PublishCut();

  /// Pins every view in `needed`, materializing cold ones (may drop and
  /// reacquire `lk` around installs). Pinned ids accumulate in `pinned`
  /// even on failure so the caller can unwind; `warm` clears if any view
  /// had to be materialized.
  Status PinOrMaterialize(const std::vector<uint32_t>& needed,
                          std::shared_lock<std::shared_mutex>& lk,
                          std::vector<uint32_t>* pinned, bool* warm);

  /// kPartialViews execution: merge covering view pairs into per-node
  /// candidate seeds, then direct evaluation restricted to them.
  Result<MatchResult> ExecutePartial(const QueryPlan& plan,
                                     const GraphSnapshot& snap);

  /// Maps a minimized-query result back to the original query's shape.
  static MatchResult ExpandMinimized(const MinimizedPattern& min,
                                     const Pattern& original,
                                     MatchResult result);

  void RecordWorkload(const Pattern& q);

  /// Resolves every metric handle from metrics_ (constructor) and
  /// registers the component-stats collectors.
  void InitMetrics();

  /// Builds + records the trace/slow-query tail of one Execute call.
  void FinishTrace(obs::Trace* trace, QueryResponse* resp);

  EngineOptions opts_;

  /// The unified metrics registry (obs/metrics.h). Declared before every
  /// component that records into it — in particular before the pools, whose
  /// workers may touch handles until their Shutdown() joins.
  obs::MetricsRegistry metrics_;

  /// Registry handles, resolved once at construction (see InitMetrics).
  /// Raw pointers into metrics_; never null after the constructor ran.
  struct MetricHandles {
    // engine scalars
    obs::Counter* queries;
    obs::Counter* queries_failed;
    obs::Counter* queries_warm;
    obs::Counter* plans_match_join;
    obs::Counter* plans_partial;
    obs::Counter* plans_direct;
    obs::Counter* update_batches;
    obs::Counter* edges_inserted;
    obs::Counter* edges_deleted;
    obs::Counter* slow_queries;
    // MatchJoin fixpoint (join.*)
    obs::Counter* join_initial_pairs;
    obs::Counter* join_removed_pairs;
    obs::Counter* join_match_set_visits;
    obs::Counter* join_filtered_by_condition;
    obs::Counter* join_filtered_by_distance;
    obs::Counter* join_fixpoint_iterations;
    obs::Counter* join_counters_zeroed;
    obs::Counter* join_candidate_ranks;
    // maintenance (delta.*): insert path, then the deletion path
    obs::Counter* delta_refreshes;
    obs::Counter* delta_fallbacks;
    obs::Counter* delta_affected_nodes;
    obs::Counter* delta_relation_added;
    obs::Counter* delta_matches_added;
    obs::Counter* delta_bounded_refreshes;
    obs::Counter* delta_bounded_matches_added;
    obs::Counter* delta_fallback_not_simulation;
    obs::Counter* delta_fallback_unmatched;
    obs::Counter* delta_fallback_area_too_large;
    obs::Counter* delta_fallback_disabled;
    obs::Counter* delta_delete_refreshes;
    obs::Counter* delta_delete_fallbacks;
    obs::Counter* delta_delete_skips;
    obs::Gauge* stream_appliers;  // Set (configured slice count)
    // MVCC chain (graph/mvcc.h); chain depth / pins / GC total surface as
    // collector gauges read straight off the chain.
    obs::Counter* mvcc_asof_queries;
    obs::Counter* mvcc_asof_misses;
    obs::Counter* mvcc_ryw_waits;
    obs::Counter* mvcc_ryw_timeouts;
    // failure domains (docs/ROBUSTNESS.md)
    obs::Counter* deadline_exceeded;
    obs::Counter* shed_queries;
    obs::Counter* degraded_queries;
    // latency histograms (microseconds)
    obs::Histogram* query_latency_us;
    obs::Histogram* query_plan_us;
    obs::Histogram* query_exec_us;
    obs::Histogram* query_queue_wait_us;
    obs::Histogram* update_apply_us;
    obs::Histogram* update_lock_wait_us;
    obs::Histogram* update_delete_phase_us;
    obs::Histogram* update_insert_phase_us;
  };
  MetricHandles h_ = {};

  /// Monotone trace-id source (every query gets one; see QueryResponse).
  std::atomic<uint64_t> next_trace_id_{1};
  /// Threshold-gated slow-query sink; nullptr when disabled.
  std::unique_ptr<obs::SlowQueryLog> slow_log_;

  /// Registry lock; see file comment.
  mutable std::shared_mutex mu_;
  Graph graph_;
  /// Statistics snapshot for the planner. After an update batch only the
  /// planner-read fields (num_nodes/num_edges/avg_out_degree/
  /// label_histogram) are kept exact in O(1); degree-profile details go
  /// stale until graph_statistics() recomputes them (stats_dirty_).
  mutable GraphStatistics gstats_;
  mutable std::atomic<bool> stats_dirty_{false};
  uint64_t graph_version_ = 0;
  /// Streamed-op watermark of the published snapshot: the *minimum* over
  /// the per-slice clocks (slice_clock_), re-derived at every slice commit
  /// and heartbeat — a lagging applier holds it back instead of letting a
  /// faster slice publish a hole. Monotone; atomic so FlushAndWait-style
  /// pollers can read it without the registry lock. Advancing it notifies
  /// watermark_cv_ (read-your-writes waiters).
  std::atomic<uint64_t> applied_through_ts_{0};
  /// Stream slices currently quarantined (SetSliceQuarantined): queries
  /// read it lock-free to decide degraded serving / the degraded marker.
  std::atomic<size_t> quarantined_slices_{0};
  /// Per-slice applied-through clocks; see graph/mvcc.h. One slice until
  /// an ApplierPool calls ConfigureStreamSlices.
  SliceClock slice_clock_;
  /// Retained chain of committed cuts; every ApplyStreamBatchSlice commit
  /// appends, heartbeats republish the head watermark, AS OF queries pin.
  SnapshotChain chain_;
  /// Read-your-writes wait channel: waiters block here until the watermark
  /// atomic covers their floor.
  std::mutex watermark_mu_;
  std::condition_variable watermark_cv_;
  /// The frozen CSR snapshot of `graph_` at `graph_version_`, shared by
  /// every in-flight query (reads happen under the shared lock; the update
  /// path re-freezes — incrementally, thanks to the graph's dirty-row
  /// tracking — under the exclusive lock). Concurrent queries therefore
  /// never re-walk mutable adjacency vectors.
  std::shared_ptr<const GraphSnapshot> snapshot_;
  ViewCache cache_;
  /// Full-result memo, consulted after planning and before any pin; keys
  /// carry the snapshot version, so updates invalidate by version compare.
  ResultCache result_cache_;

  /// Workload history (never held together with mu_): the last
  /// kWorkloadHistoryLimit queries, feeding AdmitFromWorkload.
  static constexpr size_t kWorkloadHistoryLimit = 256;
  mutable std::mutex agg_mu_;
  std::deque<Pattern> workload_;

  /// Last member: destroyed (and joined) first, while the rest is alive.
  ThreadPool pool_;
};

}  // namespace gpmv

#endif  // GPMV_ENGINE_QUERY_ENGINE_H_
