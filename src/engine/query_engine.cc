#include "engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/exec_context.h"
#include "common/stopwatch.h"
#include "core/maintenance.h"
#include "core/match_join.h"
#include "core/view_selection.h"
#include "pattern/pattern_io.h"
#include "simulation/bounded.h"

namespace gpmv {

namespace {

/// Retries of the compute-then-install dance before giving up; only
/// concurrent update batches landing mid-materialization consume attempts.
constexpr int kMaxInstallRetries = 8;

/// Sorted intersection helper for candidate seeding.
std::vector<NodeId> Intersect(const std::vector<NodeId>& a,
                              const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Query-pool options with the per-task executor histograms wired in (the
/// pool is constructed in the init list, before InitMetrics runs).
ThreadPoolOptions QueryPoolOptions(const EngineOptions& opts,
                                   obs::MetricsRegistry* metrics) {
  ThreadPoolOptions po = opts.pool;
  po.fault = opts.fault;
  if (opts.obs.enabled) {
    po.obs.queue_wait_us = metrics->FindOrCreateHistogram("exec.queue_wait_us");
    po.obs.run_us = metrics->FindOrCreateHistogram("exec.run_us");
  }
  return po;
}

uint64_t ToMicros(double ms) {
  return ms <= 0.0 ? 0 : static_cast<uint64_t>(ms * 1000.0);
}

}  // namespace

QueryEngine::QueryEngine(Graph g, EngineOptions opts)
    : opts_(opts),
      graph_(std::move(g)),
      gstats_(ComputeStatistics(graph_)),
      chain_(opts.mvcc),
      snapshot_(graph_.Freeze()),
      cache_(opts.cache),
      result_cache_(opts.result_cache),
      pool_(QueryPoolOptions(opts, &metrics_)) {
  InitMetrics();
  // Seed the chain with the initial frozen state so AS OF before the first
  // streamed op (watermark 0) pins the pre-stream graph.
  SnapshotCut cut;
  cut.version = snapshot_->version();
  cut.slices = slice_clock_.Current();
  cut.watermark = 0;
  cut.max_applied_ts = 0;
  cut.snapshot = snapshot_;
  chain_.Publish(std::move(cut));
}

void QueryEngine::InitMetrics() {
  obs::MetricsRegistry& m = metrics_;
  h_.queries = m.FindOrCreateCounter("engine.queries");
  h_.queries_failed = m.FindOrCreateCounter("engine.queries_failed");
  h_.queries_warm = m.FindOrCreateCounter("engine.queries_warm");
  h_.plans_match_join = m.FindOrCreateCounter("engine.plans.match_join");
  h_.plans_partial = m.FindOrCreateCounter("engine.plans.partial");
  h_.plans_direct = m.FindOrCreateCounter("engine.plans.direct");
  h_.update_batches = m.FindOrCreateCounter("engine.update_batches");
  h_.edges_inserted = m.FindOrCreateCounter("engine.edges_inserted");
  h_.edges_deleted = m.FindOrCreateCounter("engine.edges_deleted");
  h_.slow_queries = m.FindOrCreateCounter("engine.slow_queries");
  h_.join_initial_pairs = m.FindOrCreateCounter("join.initial_pairs");
  h_.join_removed_pairs = m.FindOrCreateCounter("join.removed_pairs");
  h_.join_match_set_visits = m.FindOrCreateCounter("join.match_set_visits");
  h_.join_filtered_by_condition =
      m.FindOrCreateCounter("join.filtered_by_condition");
  h_.join_filtered_by_distance =
      m.FindOrCreateCounter("join.filtered_by_distance");
  h_.join_fixpoint_iterations =
      m.FindOrCreateCounter("join.fixpoint_iterations");
  h_.join_counters_zeroed = m.FindOrCreateCounter("join.counters_zeroed");
  h_.join_candidate_ranks = m.FindOrCreateCounter("join.candidate_ranks");
  h_.delta_refreshes = m.FindOrCreateCounter("delta.refreshes");
  h_.delta_fallbacks = m.FindOrCreateCounter("delta.fallbacks");
  h_.delta_affected_nodes = m.FindOrCreateCounter("delta.affected_nodes");
  h_.delta_relation_added = m.FindOrCreateCounter("delta.relation_added");
  h_.delta_matches_added = m.FindOrCreateCounter("delta.matches_added");
  h_.delta_bounded_refreshes =
      m.FindOrCreateCounter("delta.bounded_refreshes");
  h_.delta_bounded_matches_added =
      m.FindOrCreateCounter("delta.bounded_matches_added");
  h_.delta_fallback_not_simulation =
      m.FindOrCreateCounter("delta.fallback_not_simulation");
  h_.delta_fallback_unmatched =
      m.FindOrCreateCounter("delta.fallback_unmatched");
  h_.delta_fallback_area_too_large =
      m.FindOrCreateCounter("delta.fallback_area_too_large");
  h_.delta_fallback_disabled =
      m.FindOrCreateCounter("delta.fallback_disabled");
  h_.delta_delete_refreshes = m.FindOrCreateCounter("delta.delete_refreshes");
  h_.delta_delete_fallbacks = m.FindOrCreateCounter("delta.delete_fallbacks");
  h_.delta_delete_skips = m.FindOrCreateCounter("delta.delete_skips");
  h_.stream_appliers = m.FindOrCreateGauge("stream.appliers");
  h_.stream_appliers->Set(1.0);
  h_.mvcc_asof_queries = m.FindOrCreateCounter("mvcc.asof_queries");
  h_.mvcc_asof_misses = m.FindOrCreateCounter("mvcc.asof_misses");
  h_.mvcc_ryw_waits = m.FindOrCreateCounter("mvcc.ryw_waits");
  h_.mvcc_ryw_timeouts = m.FindOrCreateCounter("mvcc.ryw_timeouts");
  h_.deadline_exceeded = m.FindOrCreateCounter("engine.deadline_exceeded");
  h_.shed_queries = m.FindOrCreateCounter("engine.shed_queries");
  h_.degraded_queries = m.FindOrCreateCounter("engine.degraded_queries");
  h_.query_latency_us = m.FindOrCreateHistogram("query.latency_us");
  h_.query_plan_us = m.FindOrCreateHistogram("query.plan_us");
  h_.query_exec_us = m.FindOrCreateHistogram("query.exec_us");
  h_.query_queue_wait_us = m.FindOrCreateHistogram("query.queue_wait_us");
  h_.update_apply_us = m.FindOrCreateHistogram("update.apply_us");
  h_.update_lock_wait_us = m.FindOrCreateHistogram("update.lock_wait_us");
  h_.update_delete_phase_us =
      m.FindOrCreateHistogram("update.delete_phase_us");
  h_.update_insert_phase_us =
      m.FindOrCreateHistogram("update.insert_phase_us");

  // stream.* (stream/applier_pool.h) and net.* (src/net/server.h) are
  // registered up front like everything else so the names are present —
  // and schema-pinnable — in every exporter artifact, streamed or not,
  // socket-served or file-driven; the applier pool and the server resolve
  // the same handles by name.
  for (const char* name :
       {"stream.ops_ingested", "stream.ops_applied", "stream.ops_coalesced",
        "stream.ops_dropped", "stream.batches_applied",
        "stream.apply_failures", "stream.flushes", "stream.retries",
        "stream.quarantines", "stream.revives"}) {
    m.FindOrCreateCounter(name);
  }
  for (const char* name :
       {"stream.redo_depth", "stream.queue_depth", "stream.queue_depth_max",
        "stream.max_batch_size", "stream.publish_lag_ms_max",
        "stream.publish_lag_ms_total", "stream.applied_through_ts"}) {
    m.FindOrCreateGauge(name);
  }
  m.FindOrCreateHistogram("stream.batch_size");
  for (const char* name :
       {"net.connections_accepted", "net.connections_closed",
        "net.frames_received", "net.frames_sent", "net.queries",
        "net.updates", "net.protocol_errors", "net.errors_sent",
        "net.backpressure_parks", "net.backpressure_deadline",
        "net.bytes_read", "net.bytes_written", "net.flushes"}) {
    m.FindOrCreateCounter(name);
  }
  m.FindOrCreateGauge("net.open_connections");
  m.FindOrCreateHistogram("net.request_us");
  m.FindOrCreateHistogram("net.flush_bytes");
  // The file exporter's constructor also registers this, but a socket-only
  // run has no exporter — pre-register so stats frames served over the
  // wire validate against the same required_metrics pins.
  m.FindOrCreateCounter("obs.export_failures");

  // Component-owned stats (each guarded by its component's own lock)
  // surface as derived gauges in every snapshot. Running inside the gate
  // puts them in the same consistent cut as the raw metrics; none of the
  // component locks is ever held while a writer takes the gate, so the
  // ordering cannot deadlock.
  metrics_.AddCollector([this](obs::MetricsSnapshot* s) {
    const ViewCacheStats cs = cache_.stats();
    s->AddGauge("cache.hits", static_cast<double>(cs.hits));
    s->AddGauge("cache.misses", static_cast<double>(cs.misses));
    s->AddGauge("cache.evictions", static_cast<double>(cs.evictions));
    s->AddGauge("cache.installs", static_cast<double>(cs.installs));
    s->AddGauge("cache.duplicate_installs",
                static_cast<double>(cs.duplicate_installs));
    s->AddGauge("cache.refreshes", static_cast<double>(cs.refreshes));
    s->AddGauge("cache.refreshes_skipped",
                static_cast<double>(cs.refreshes_skipped));
    s->AddGauge("cache.bytes_cached", static_cast<double>(cs.bytes_cached));
    s->AddGauge("cache.materialized", static_cast<double>(cs.materialized));
    s->AddGauge("cache.registered", static_cast<double>(cs.registered));
    const double cache_lookups = static_cast<double>(cs.hits + cs.misses);
    s->AddGauge("cache.hit_rate",
                cache_lookups == 0.0 ? 0.0 : cs.hits / cache_lookups);
    const ResultCacheStats rs = result_cache_.stats();
    s->AddGauge("result_cache.hits", static_cast<double>(rs.hits));
    s->AddGauge("result_cache.misses", static_cast<double>(rs.misses));
    s->AddGauge("result_cache.stale_drops",
                static_cast<double>(rs.stale_drops));
    s->AddGauge("result_cache.inserts", static_cast<double>(rs.inserts));
    s->AddGauge("result_cache.evictions", static_cast<double>(rs.evictions));
    s->AddGauge("result_cache.bytes_cached",
                static_cast<double>(rs.bytes_cached));
    s->AddGauge("result_cache.entries", static_cast<double>(rs.entries));
    const double rc_lookups = static_cast<double>(rs.hits + rs.misses);
    s->AddGauge("result_cache.hit_rate",
                rc_lookups == 0.0 ? 0.0 : rs.hits / rc_lookups);
    // MVCC chain state (its own mutex; never held while taking the gate).
    s->AddGauge("mvcc.chain_depth", static_cast<double>(chain_.depth()));
    s->AddGauge("mvcc.pinned_cuts", static_cast<double>(chain_.pinned_cuts()));
    s->AddGauge("mvcc.gc_collected",
                static_cast<double>(chain_.gc_collected()));
    const ThreadPoolStats ps = pool_.stats();
    s->AddGauge("pool.submitted", static_cast<double>(ps.submitted));
    s->AddGauge("pool.executed", static_cast<double>(ps.executed));
    s->AddGauge("pool.rejected", static_cast<double>(ps.rejected));
    s->AddGauge("pool.max_queue_depth",
                static_cast<double>(ps.max_queue_depth));
  });

  if (opts_.obs.enabled &&
      (opts_.obs.slow_query_ms > 0.0 &&
       (!opts_.obs.slow_query_path.empty() || opts_.obs.slow_query_sink))) {
    obs::SlowQueryLog::Options so;
    so.threshold_ms = opts_.obs.slow_query_ms;
    so.path = opts_.obs.slow_query_path;
    so.sink = opts_.obs.slow_query_sink;
    slow_log_ = std::make_unique<obs::SlowQueryLog>(std::move(so));
  }
}

QueryEngine::~QueryEngine() { pool_.Shutdown(); }

Result<uint32_t> QueryEngine::RegisterView(const std::string& name,
                                           Pattern pattern) {
  if (pattern.num_edges() == 0) {
    return Status::InvalidArgument("view pattern has no edges");
  }
  std::unique_lock<std::shared_mutex> lk(mu_);
  return cache_.Register(ViewDefinition{name, std::move(pattern)});
}

Status QueryEngine::WarmViews() {
  std::unique_lock<std::shared_mutex> lk(mu_);
  for (uint32_t v = 0; v < cache_.views().card(); ++v) {
    if (cache_.IsMaterialized(v)) continue;
    std::vector<std::vector<NodeId>> relation;
    Result<ViewExtension> ext = ViewExtension::Materialize(
        cache_.views().view(v), *snapshot_, /*seed=*/nullptr, &relation);
    GPMV_RETURN_NOT_OK(ext.status());
    cache_.Install(v, std::move(ext).value(), std::move(relation),
                   /*pin=*/false);
  }
  return Status::OK();
}

QueryResponse QueryEngine::Query(const Pattern& q, const QueryOptions& qopts) {
  return Execute(q, qopts);
}

Status QueryEngine::Submit(Pattern q, QueryOptions qopts,
                           std::function<void(QueryResponse)> done) {
  // The stopwatch rides into the task by value: when a worker picks the
  // task up, its elapsed time *is* the queue wait.
  Stopwatch queued;
  Status st = pool_.Submit(
      [this, query = std::move(q), qopts, queued, done = std::move(done)] {
        done(Execute(query, qopts, queued.ElapsedMillis()));
      });
  // Admission control (ThreadPoolOptions::shed_when_saturated) surfaces as
  // kResourceExhausted: the query was shed, not executed — count it so
  // overload is visible even though no QueryResponse exists for it.
  if (opts_.obs.enabled && st.code() == Status::Code::kResourceExhausted) {
    h_.shed_queries->Add(1);
  }
  return st;
}

Result<std::future<QueryResponse>> QueryEngine::Submit(Pattern q,
                                                       QueryOptions qopts) {
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> fut = promise->get_future();
  GPMV_RETURN_NOT_OK(Submit(std::move(q), qopts, [promise](QueryResponse r) {
    promise->set_value(std::move(r));
  }));
  return fut;
}

Status QueryEngine::WaitForWatermark(uint64_t ts, double timeout_ms) {
  if (applied_through_ts() >= ts) return Status::OK();
  std::unique_lock<std::mutex> lk(watermark_mu_);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(timeout_ms * 1000.0));
  const bool covered = watermark_cv_.wait_until(
      lk, deadline, [&] { return applied_through_ts() >= ts; });
  if (covered) return Status::OK();
  return Status::DeadlineExceeded(
      "read-your-writes wait: watermark " +
      std::to_string(applied_through_ts()) + " never reached ts " +
      std::to_string(ts));
}

QueryResponse QueryEngine::Execute(const Pattern& q, const QueryOptions& qopts,
                                   double queue_wait_ms) {
  // Thread-local execution context for this query: the deadline the
  // cooperative checkpoints (here and in the fixpoints) test. Works without
  // plumbing because the fixpoints run on this thread.
  exec::Scope exec_scope(qopts.deadline_ms);
  bool degraded = false;
  // Read-your-writes floor: block (bounded) until the published cut covers
  // the caller's last submitted op, before any lock is taken.
  if (qopts.min_applied_ts != 0 &&
      applied_through_ts() < qopts.min_applied_ts) {
    if (quarantined_slices() > 0) {
      // Degraded serving: a quarantined slice pins the watermark, so the
      // floor may simply never be reached — answer from the newest
      // published cut now, explicitly marked, instead of burning the
      // timeout against a watermark that will not move. (A healthy-but-
      // slow applier does not trigger this: the wait below still covers
      // the ordinary lag case.)
      degraded = true;
      if (opts_.obs.enabled) h_.degraded_queries->Add(1);
    } else {
      if (opts_.obs.enabled) h_.mvcc_ryw_waits->Add(1);
      // The wait honors whichever bound is tighter: the RYW timeout or
      // the query deadline.
      double timeout_ms = qopts.ryw_timeout_ms;
      bool deadline_bound = false;
      if (exec::DeadlineActive()) {
        const double remaining = exec::DeadlineRemainingMs();
        if (remaining < timeout_ms) {
          timeout_ms = remaining;
          deadline_bound = true;
        }
      }
      Status wait = WaitForWatermark(qopts.min_applied_ts, timeout_ms);
      if (!wait.ok()) {
        if (opts_.obs.enabled) {
          if (deadline_bound) {
            h_.deadline_exceeded->Add(1);
          } else {
            h_.mvcc_ryw_timeouts->Add(1);
          }
        }
        QueryResponse resp;
        resp.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
        resp.status = deadline_bound
                          ? Status::DeadlineExceeded("query deadline exceeded "
                                                     "during read-your-writes "
                                                     "wait")
                          : wait;
        resp.degraded = quarantined_slices() > 0;
        return resp;
      }
    }
  }
  if (qopts.as_of_ts != 0) return ExecuteAsOf(q, qopts, queue_wait_ms);
  RecordWorkload(q);
  QueryResponse resp;
  resp.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  MatchJoinStats join_stats;

  // Tracing is on when asked for explicitly or when the slow-query log
  // might need the span tree; the trace is private to this thread until
  // Finish() publishes it immutable.
  const bool tracing =
      opts_.obs.enabled &&
      (opts_.obs.trace || (slow_log_ != nullptr && slow_log_->enabled()));
  std::unique_ptr<obs::Trace> trace;
  if (tracing) {
    trace = std::make_unique<obs::Trace>(resp.trace_id, "query");
  }
  obs::Trace* tr = trace.get();
  if (tr != nullptr && queue_wait_ms >= 0.0) {
    obs::SpanScope wait(tr, "queue.wait");
    wait.Attr("wait_ms", queue_wait_ms);
  }
  Stopwatch total_sw;

  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    Stopwatch sw;
    obs::SpanScope plan_span(tr, "plan");
    const std::vector<uint8_t> live = cache_.MaterializedSnapshot();
    Result<QueryPlan> planned = PlanQuery(q, cache_.views(),
                                          cache_.extensions(), gstats_,
                                          opts_.planner, &live);
    if (!planned.ok()) {
      resp.status = planned.status();
      plan_span.AttrBool("ok", false);
    } else {
      QueryPlan plan = std::move(planned).value();
      resp.plan = plan.kind;
      resp.views_used = plan.views_needed;
      resp.plan_ms = sw.ElapsedMillis();
      sw.Restart();
      plan_span.Attr("kind", std::string(PlanKindName(plan.kind)));
      plan_span.Attr("views_needed",
                     static_cast<uint64_t>(plan.views_needed.size()));
      plan_span.Close();

      // The version pair the response reports: re-read below if pinning
      // dropped the lock across an update batch.
      resp.snapshot_version = snapshot_->version();
      resp.applied_through_ts = applied_through_ts();

      // Full-result cache: a repeat of the same minimized query against the
      // same graph version skips pinning, materialization and the fixpoint.
      // The cache stores the *minimized-shape* result, so queries sharing a
      // minimized form share one entry and expand through their own map.
      std::string rc_key;
      if (result_cache_.enabled()) {
        obs::SpanScope rc_span(tr, "result_cache.lookup");
        rc_key = PatternToText(plan.minimized.pattern);
        MatchResult cached;
        if (result_cache_.Lookup(rc_key, snapshot_->version(), &cached)) {
          resp.result_cached = true;
          resp.result = ExpandMinimized(plan.minimized, q, std::move(cached));
        }
        rc_span.AttrBool("hit", resp.result_cached);
      }

      std::vector<uint32_t> pinned;
      bool warm = true;
      // Cooperative deadline checkpoints: post-plan (nothing pinned yet),
      // post-pin (the unconditional unwind below releases the pins), and
      // the post-fixpoint conversion — a deadline failure is always clean:
      // pins released, nothing partial memoized, caches undisturbed. A
      // memo hit above still serves (the cached answer is complete).
      Status st = exec::CheckDeadline();
      if (st.ok() && !resp.result_cached) {
        obs::SpanScope pin_span(tr, "view_cache.pin");
        st = PinOrMaterialize(plan.views_needed, lk, &pinned, &warm);
        pin_span.Attr("views", static_cast<uint64_t>(pinned.size()));
        pin_span.AttrBool("warm", warm);
        if (st.ok()) st = exec::CheckDeadline();
      }
      if (resp.result_cached) {
        // Served from the memo above; nothing to pin or evaluate.
      } else if (st.ok()) {
        resp.warm = warm && plan.kind != PlanKind::kDirect;
        // Every plan kind reads the same frozen snapshot: queries never walk
        // the mutable adjacency vectors, even while other workers run.
        const GraphSnapshot& snap = *snapshot_;
        resp.snapshot_version = snap.version();
        resp.applied_through_ts = applied_through_ts();
        obs::SpanScope fix_span(tr, "fixpoint");
        // Evaluate in the minimized shape; the memo stores that shape (so
        // all queries with the same quotient share it) and expansion back
        // to q's shape happens once at the end.
        Result<MatchResult> r = [&]() -> Result<MatchResult> {
          switch (plan.kind) {
            case PlanKind::kMatchJoin:
              return MatchJoin(plan.minimized.pattern, cache_.views(),
                               cache_.extensions(), plan.mapping, {},
                               &join_stats);
            case PlanKind::kPartialViews:
              return ExecutePartial(plan, snap);
            case PlanKind::kDirect:
              break;
          }
          return MatchBoundedSimulation(plan.minimized.pattern, snap);
        }();
        if (r.ok()) {
          // The fixpoints exit early on advisory expiry; whatever they
          // returned is then incomplete — convert it here, at the edge.
          Status dl = exec::CheckDeadline();
          if (!dl.ok()) r = dl;
        }
        if (plan.kind == PlanKind::kMatchJoin) {
          fix_span.Attr("iterations",
                        static_cast<uint64_t>(join_stats.fixpoint_iterations));
          fix_span.Attr("candidate_ranks",
                        static_cast<uint64_t>(join_stats.candidate_ranks));
        }
        fix_span.Close();
        if (r.ok()) {
          if (result_cache_.enabled()) {
            // snap is the state actually read (re-read after pinning, which
            // may have dropped the lock across an update batch).
            result_cache_.Insert(rc_key, snap.version(), *r);
          }
          resp.result = ExpandMinimized(plan.minimized, q, std::move(r).value());
        } else {
          resp.status = r.status();
        }
      } else {
        resp.status = st;
      }
      for (uint32_t v : pinned) cache_.Unpin(v);
      resp.exec_ms = sw.ElapsedMillis();
    }
  }
  // Degraded marker: set whenever a quarantine was active at read time —
  // both when the RYW wait was skipped above and for plain head reads,
  // whose answer may be missing the quarantined slice's retained ops.
  resp.degraded = degraded || quarantined_slices() > 0;

  if (opts_.obs.enabled) {
    // The counter tail updates as one group under the snapshot gate
    // (shared mode — concurrent queries never block each other here), so a
    // racing TakeSnapshot() sees a query's counters all-or-nothing.
    auto group = metrics_.Group();
    h_.queries->Add(1);
    if (!resp.status.ok()) h_.queries_failed->Add(1);
    if (resp.status.code() == Status::Code::kDeadlineExceeded) {
      h_.deadline_exceeded->Add(1);
    }
    if (resp.warm) h_.queries_warm->Add(1);
    switch (resp.plan) {
      case PlanKind::kMatchJoin:
        h_.plans_match_join->Add(1);
        break;
      case PlanKind::kPartialViews:
        h_.plans_partial->Add(1);
        break;
      case PlanKind::kDirect:
        h_.plans_direct->Add(1);
        break;
    }
    h_.join_initial_pairs->Add(join_stats.initial_pairs);
    h_.join_removed_pairs->Add(join_stats.removed_pairs);
    h_.join_match_set_visits->Add(join_stats.match_set_visits);
    h_.join_filtered_by_condition->Add(join_stats.filtered_by_condition);
    h_.join_filtered_by_distance->Add(join_stats.filtered_by_distance);
    h_.join_fixpoint_iterations->Add(join_stats.fixpoint_iterations);
    h_.join_counters_zeroed->Add(join_stats.counters_zeroed);
    h_.join_candidate_ranks->Add(join_stats.candidate_ranks);
    h_.query_plan_us->Record(ToMicros(resp.plan_ms));
    h_.query_exec_us->Record(ToMicros(resp.exec_ms));
    h_.query_latency_us->Record(ToMicros(total_sw.ElapsedMillis()));
    if (queue_wait_ms >= 0.0) {
      h_.query_queue_wait_us->Record(ToMicros(queue_wait_ms));
    }
  }
  if (tr != nullptr) FinishTrace(tr, &resp);
  return resp;
}

QueryResponse QueryEngine::ExecuteAsOf(const Pattern& q,
                                       const QueryOptions& qopts,
                                       double queue_wait_ms) {
  (void)queue_wait_ms;
  RecordWorkload(q);
  QueryResponse resp;
  resp.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  resp.as_of = true;
  Stopwatch total_sw;

  // Pin the newest retained prefix-consistent cut at or before as_of_ts;
  // the pin keeps GC away until this query returns.
  Result<SnapshotRef> pinned = chain_.PinAsOf(qopts.as_of_ts);
  if (!pinned.ok()) {
    if (opts_.obs.enabled) {
      auto group = metrics_.Group();
      h_.queries->Add(1);
      h_.queries_failed->Add(1);
      h_.mvcc_asof_queries->Add(1);
      h_.mvcc_asof_misses->Add(1);
    }
    resp.status = pinned.status();
    return resp;
  }
  SnapshotRef ref = std::move(pinned).value();
  const SnapshotCut& cut = ref.cut();
  resp.snapshot_version = cut.version;
  resp.applied_through_ts = cut.watermark;

  // Plan in historical mode under the shared lock (the planner reads the
  // view registry and statistics); the plan is always kDirect, so nothing
  // else below needs the registry — evaluation runs lock-free against the
  // pinned immutable cut.
  Stopwatch sw;
  Result<QueryPlan> planned = [&]() {
    std::shared_lock<std::shared_mutex> lk(mu_);
    PlannerOptions popts = opts_.planner;
    popts.historical = true;
    const std::vector<uint8_t> live = cache_.MaterializedSnapshot();
    return PlanQuery(q, cache_.views(), cache_.extensions(), gstats_, popts,
                     &live);
  }();
  if (!planned.ok()) {
    resp.status = planned.status();
  } else {
    QueryPlan plan = std::move(planned).value();
    resp.plan = plan.kind;
    resp.plan_ms = sw.ElapsedMillis();
    sw.Restart();
    // Memoize under the historical cut's version, in an AS OF-segregated
    // key: the memo's version-compare invalidation would otherwise let a
    // historical probe stale-drop the head's entry (and vice versa).
    std::string rc_key;
    if (result_cache_.enabled()) {
      rc_key = PatternToText(plan.minimized.pattern) + "\n#asof";
      MatchResult cached;
      if (result_cache_.Lookup(rc_key, cut.version, &cached)) {
        resp.result_cached = true;
        resp.result = ExpandMinimized(plan.minimized, q, std::move(cached));
      }
    }
    if (!resp.result_cached) {
      Result<MatchResult> r = [&]() -> Result<MatchResult> {
        GPMV_RETURN_NOT_OK(exec::CheckDeadline());
        return MatchBoundedSimulation(plan.minimized.pattern, *cut.snapshot);
      }();
      if (r.ok()) {
        // Same edge conversion as Execute: an advisory mid-fixpoint expiry
        // means the result is incomplete — fail clean, memoize nothing.
        Status dl = exec::CheckDeadline();
        if (!dl.ok()) r = dl;
      }
      if (r.ok()) {
        if (result_cache_.enabled()) {
          result_cache_.Insert(rc_key, cut.version, *r);
        }
        resp.result = ExpandMinimized(plan.minimized, q, std::move(r).value());
      } else {
        resp.status = r.status();
      }
    }
    resp.exec_ms = sw.ElapsedMillis();
  }
  ref.Release();

  if (opts_.obs.enabled) {
    auto group = metrics_.Group();
    h_.queries->Add(1);
    h_.mvcc_asof_queries->Add(1);
    if (!resp.status.ok()) h_.queries_failed->Add(1);
    if (resp.status.code() == Status::Code::kDeadlineExceeded) {
      h_.deadline_exceeded->Add(1);
    }
    h_.plans_direct->Add(1);
    h_.query_plan_us->Record(ToMicros(resp.plan_ms));
    h_.query_exec_us->Record(ToMicros(resp.exec_ms));
    h_.query_latency_us->Record(ToMicros(total_sw.ElapsedMillis()));
  }
  return resp;
}

void QueryEngine::FinishTrace(obs::Trace* trace, QueryResponse* resp) {
  obs::TraceSpan* root = trace->root();
  root->Attr("plan", std::string(PlanKindName(resp->plan)));
  root->Attr("snapshot_version", resp->snapshot_version);
  root->AttrBool("ok", resp->status.ok());
  root->AttrBool("warm", resp->warm);
  root->AttrBool("result_cached", resp->result_cached);
  const double total_ms = trace->ElapsedMs();
  std::shared_ptr<const obs::TraceSpan> tree = trace->Finish();
  if (opts_.obs.trace) resp->trace = tree;
  if (slow_log_ != nullptr && slow_log_->enabled() &&
      total_ms >= slow_log_->threshold_ms()) {
    slow_log_->Log(obs::TraceToJsonLine(trace->id(), total_ms, *tree));
    h_.slow_queries->Add(1);
  }
}

Status QueryEngine::PinOrMaterialize(const std::vector<uint32_t>& needed,
                                     std::shared_lock<std::shared_mutex>& lk,
                                     std::vector<uint32_t>* pinned,
                                     bool* warm) {
  for (uint32_t v : needed) {
    if (cache_.TryPinMaterialized(v)) {
      pinned->push_back(v);
      continue;
    }
    *warm = false;
    bool installed = false;
    for (int attempt = 0; attempt < kMaxInstallRetries && !installed;
         ++attempt) {
      // Materialize under the shared lock from the frozen snapshot, so
      // other queries keep running meanwhile.
      const uint64_t version = graph_version_;
      std::vector<std::vector<NodeId>> relation;
      Result<ViewExtension> ext = ViewExtension::Materialize(
          cache_.views().view(v), *snapshot_, /*seed=*/nullptr, &relation);
      GPMV_RETURN_NOT_OK(ext.status());
      lk.unlock();
      {
        std::unique_lock<std::shared_mutex> ul(mu_);
        if (graph_version_ == version) {
          // Install (or lose the race to a concurrent query — either way
          // the view is live) and pin before anyone can evict it.
          cache_.Install(v, std::move(ext).value(), std::move(relation),
                         /*pin=*/true);
          pinned->push_back(v);
          installed = true;
        }
        // else: an update batch landed while we computed; recompute from
        // the fresh graph.
      }
      lk.lock();
    }
    if (!installed) {
      // Update batches kept landing mid-computation (a streaming burst):
      // materialize once more under the exclusive lock, where none can, so
      // churn delays this query instead of failing it.
      lk.unlock();
      Status st;
      {
        std::unique_lock<std::shared_mutex> ul(mu_);
        std::vector<std::vector<NodeId>> relation;
        Result<ViewExtension> ext = ViewExtension::Materialize(
            cache_.views().view(v), *snapshot_, /*seed=*/nullptr, &relation);
        st = ext.status();
        if (st.ok()) {
          cache_.Install(v, std::move(ext).value(), std::move(relation),
                         /*pin=*/true);
          pinned->push_back(v);
        }
      }
      lk.lock();
      GPMV_RETURN_NOT_OK(st);
    }
  }
  return Status::OK();
}

Result<MatchResult> QueryEngine::ExecutePartial(const QueryPlan& plan,
                                                const GraphSnapshot& snap) {
  const Pattern& mq = plan.minimized.pattern;
  std::vector<std::vector<NodeId>> seed;
  GPMV_RETURN_NOT_OK(ComputeCandidateSets(mq, snap, &seed));
  const std::vector<ViewExtension>& exts = cache_.extensions();

  // Tighten each node's candidates with the merged sources of every covered
  // out-edge: a node in the maximum relation must witness all its out-edges,
  // and view pairs over-approximate each witness set (distance-filtered to
  // the query's own bound). In-edges stay unconstrained — forward simulation
  // does not force relation members to appear as targets.
  for (uint32_t u = 0; u < mq.num_nodes(); ++u) {
    for (uint32_t e : mq.out_edges(u)) {
      if (plan.partial_lambda[e].empty()) continue;
      const PatternEdge& pe = mq.edge(e);
      std::vector<NodeId> sources;
      for (const ViewEdgeRef& ref : plan.partial_lambda[e]) {
        const ViewEdgeExtension& vee = exts[ref.view].edge(ref.edge);
        for (size_t i = 0; i < vee.pairs.size(); ++i) {
          if (pe.bound != kUnbounded && vee.distances[i] > pe.bound) continue;
          sources.push_back(vee.pairs[i].first);
        }
      }
      std::sort(sources.begin(), sources.end());
      sources.erase(std::unique(sources.begin(), sources.end()),
                    sources.end());
      seed[u] = Intersect(seed[u], sources);
    }
  }
  return MatchBoundedSimulation(mq, snap, /*distances=*/nullptr, &seed);
}

MatchResult QueryEngine::ExpandMinimized(const MinimizedPattern& min,
                                         const Pattern& original,
                                         MatchResult result) {
  if (!min.changed) {
    result.Normalize();
    return result;
  }
  MatchResult out = MatchResult::Empty(original);
  if (!result.matched()) return out;
  for (uint32_t e = 0; e < original.num_edges(); ++e) {
    *out.mutable_edge_matches(e) = result.edge_matches(min.edge_map[e]);
  }
  out.set_matched(true);
  out.Normalize();
  out.DeriveNodeMatches(original);
  return out;
}

void QueryEngine::ConfigureStreamSlices(size_t num_slices) {
  const size_t n = std::max<size_t>(1, num_slices);
  slice_clock_.Reset(n);
  // Seed every fresh slice clock from the already-published watermark:
  // applied_through_ts_ never regresses, so zeroed clocks on an engine
  // with prior streamed history would leave the stale watermark standing
  // while a new ApplierPool hands out tickets from 1 — min_applied_ts
  // waits for those tickets would be satisfied by history instead of by
  // the ops they name. Seeding keeps min-over-slices == published
  // watermark, and the pool resumes its ticket source from the same value.
  const uint64_t wm = applied_through_ts();
  for (size_t i = 0; wm > 0 && i < n; ++i) slice_clock_.Advance(i, wm);
  if (opts_.obs.enabled) h_.stream_appliers->Set(static_cast<double>(n));
}

uint64_t QueryEngine::PublishCut() {
  // Caller holds mu_ at least shared, so snapshot_ is stable. Derive the
  // watermark as the min over slice clocks and advance the atomic
  // monotonically (CAS loop: concurrent heartbeats under the shared lock
  // may race here; max semantics make every interleaving correct).
  const VersionVector vv = slice_clock_.Current();
  const uint64_t min_wm = vv.MinSlice();
  uint64_t prev = applied_through_ts_.load(std::memory_order_relaxed);
  bool advanced = false;
  while (min_wm > prev) {
    if (applied_through_ts_.compare_exchange_weak(prev, min_wm,
                                                  std::memory_order_release,
                                                  std::memory_order_relaxed)) {
      advanced = true;
      break;
    }
  }
  const uint64_t wm = std::max(min_wm, prev);
  SnapshotCut cut;
  cut.version = snapshot_->version();
  cut.slices = vv;
  cut.watermark = wm;
  cut.max_applied_ts = vv.MaxSlice();
  cut.snapshot = snapshot_;
  chain_.Publish(std::move(cut));
  if (advanced) {
    // Empty-critical-section handshake: a waiter that sampled the old
    // watermark is guaranteed to be inside wait() before the notify.
    { std::lock_guard<std::mutex> wlk(watermark_mu_); }
    watermark_cv_.notify_all();
  }
  return wm;
}

void QueryEngine::SetSliceQuarantined(size_t slice, bool quarantined) {
  (void)slice;  // the count is what serving decisions need
  if (quarantined) {
    quarantined_slices_.fetch_add(1, std::memory_order_acq_rel);
  } else {
    quarantined_slices_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void QueryEngine::AdvanceStreamSlice(size_t slice, uint64_t ts) {
  if (slice >= slice_clock_.num_slices()) return;
  slice_clock_.Advance(slice, ts);
  // Republish the head's watermark against the (unchanged) snapshot; the
  // chain resolves races with a concurrent real commit by version.
  std::shared_lock<std::shared_mutex> lk(mu_);
  PublishCut();
}

Status QueryEngine::ApplyStreamBatchSlice(const std::vector<EdgeUpdate>& batch,
                                          uint64_t through_ts, size_t slice) {
  if (slice >= slice_clock_.num_slices()) {
    return Status::InvalidArgument(
        "stream slice " + std::to_string(slice) +
        " out of range; call ConfigureStreamSlices first");
  }
  // `stream.apply` fault point: fail a streamed commit *before* any
  // mutation or lock — the batch is untouched, so the applier's in-place
  // retry (stream/applier_pool.h) is sound by construction.
  if (through_ts != 0 && GPMV_FAULT_POINT(opts_.fault, "stream.apply")) {
    return FaultInjector::InjectedFault("stream.apply");
  }
  size_t inserted_count = 0;
  size_t deleted_count = 0;
  MaintenanceStats delta_stats;
  double delete_phase_ms = 0.0;
  double insert_phase_ms = 0.0;
  double lock_wait_ms = 0.0;
  Stopwatch apply_sw;
  {
    std::unique_lock<std::shared_mutex> lk(mu_);
    lock_wait_ms = apply_sw.ElapsedMillis();
    Stopwatch phase_sw;
    for (const EdgeUpdate& up : batch) {
      if (up.u >= graph_.num_nodes() || up.v >= graph_.num_nodes()) {
        return Status::InvalidArgument("update references unknown node");
      }
    }
    // Phase 1 — deletions (batches have set semantics: all deletions land
    // before any insertion; see the header contract). The intermediate
    // freeze gives the decremental refresh a snapshot that contains none
    // of the batch's insertions; it is never published to queries.
    std::vector<NodePair> deleted;
    std::vector<NodePair> inserted;
    for (const EdgeUpdate& up : batch) {
      if (up.kind != EdgeUpdate::Kind::kDelete) continue;
      Status st = graph_.RemoveEdge(up.u, up.v);
      if (st.ok()) {
        deleted.emplace_back(up.u, up.v);
        ++deleted_count;
      } else if (st.code() != Status::Code::kNotFound) {
        return st;
      }
    }
    std::shared_ptr<const GraphSnapshot> after_deletions;
    if (!deleted.empty()) after_deletions = graph_.Freeze();
    delete_phase_ms = phase_sw.ElapsedMillis();
    phase_sw.Restart();
    // Phase 2 — insertions.
    for (const EdgeUpdate& up : batch) {
      if (up.kind != EdgeUpdate::Kind::kInsert) continue;
      if (graph_.AddEdgeIfAbsent(up.u, up.v)) {
        inserted.emplace_back(up.u, up.v);
        ++inserted_count;
      }
    }
    ++graph_version_;
    // `snapshot.refreeze` fault point: losing the incremental-freeze fast
    // path degrades this freeze to a full row rebuild — identical snapshot,
    // just slower — so refreeze faults can never corrupt what queries read.
    if (GPMV_FAULT_POINT(opts_.fault, "snapshot.refreeze")) {
      graph_.InvalidateIncrementalFreeze();
    }
    // Re-freeze (incrementally — the graph tracked which adjacency rows the
    // batch touched) and publish the new snapshot version to queries before
    // refreshing cached extensions from it.
    snapshot_ = graph_.Freeze();
    GPMV_RETURN_NOT_OK(cache_.RefreshForUpdates(after_deletions.get(),
                                                *snapshot_, deleted, inserted,
                                                opts_.maintenance,
                                                &delta_stats));
    // Edge updates change neither node count nor label histogram, so the
    // fields the planner reads stay exact in O(1); the degree-profile
    // details are recomputed lazily by graph_statistics().
    insert_phase_ms = phase_sw.ElapsedMillis();
    gstats_.num_edges = graph_.num_edges();
    gstats_.avg_out_degree =
        graph_.num_nodes() == 0
            ? 0.0
            : static_cast<double>(graph_.num_edges()) /
                  static_cast<double>(graph_.num_nodes());
    stats_dirty_ = true;
    if (through_ts != 0) {
      // Streamed batch: advance this slice's clock — only now, after the
      // whole batch (including extension maintenance above) succeeded, so
      // a failed batch never advances the watermark past ops its caller
      // will report as dropped. The *global* watermark is re-derived in
      // PublishCut as the min over slice clocks: with one slice this is
      // exactly the old single-atomic behavior, with N appliers a lagging
      // slice holds it back instead of letting a faster one publish a
      // hole. Monotone per slice, and never regressed by a manual
      // ApplyUpdates interleaved between stream batches.
      slice_clock_.Advance(slice, through_ts);
    }
    // Every commit (streamed or not) appends a cut to the snapshot chain;
    // heartbeat republish races resolve by version inside the chain.
    PublishCut();
  }
  if (opts_.obs.enabled) {
    auto group = metrics_.Group();
    h_.update_batches->Add(1);
    h_.edges_inserted->Add(inserted_count);
    h_.edges_deleted->Add(deleted_count);
    h_.delta_refreshes->Add(delta_stats.delta_refreshes);
    h_.delta_fallbacks->Add(delta_stats.rematerialize_fallbacks);
    h_.delta_affected_nodes->Add(delta_stats.affected_nodes);
    h_.delta_relation_added->Add(delta_stats.delta_relation_added);
    h_.delta_matches_added->Add(delta_stats.delta_matches_added);
    h_.delta_bounded_refreshes->Add(delta_stats.bounded_delta_refreshes);
    h_.delta_bounded_matches_added->Add(delta_stats.bounded_matches_added);
    h_.delta_fallback_not_simulation->Add(
        delta_stats.fallback_not_simulation);
    h_.delta_fallback_unmatched->Add(delta_stats.fallback_unmatched);
    h_.delta_fallback_area_too_large->Add(
        delta_stats.fallback_area_too_large);
    h_.delta_fallback_disabled->Add(delta_stats.fallback_disabled);
    h_.delta_delete_refreshes->Add(delta_stats.delete_refreshes);
    h_.delta_delete_fallbacks->Add(delta_stats.delete_fallbacks);
    h_.delta_delete_skips->Add(delta_stats.delete_skips);
    h_.update_apply_us->Record(ToMicros(apply_sw.ElapsedMillis()));
    h_.update_lock_wait_us->Record(ToMicros(lock_wait_ms));
    h_.update_delete_phase_us->Record(ToMicros(delete_phase_ms));
    h_.update_insert_phase_us->Record(ToMicros(insert_phase_ms));
  }
  return Status::OK();
}

Result<size_t> QueryEngine::AdmitFromWorkload(size_t max_views) {
  std::vector<Pattern> history;
  {
    std::lock_guard<std::mutex> lk(agg_mu_);
    history.assign(workload_.begin(), workload_.end());
  }
  if (history.empty() || max_views == 0) return size_t{0};

  ViewSet candidates = CandidateViewsFromWorkload(history);
  if (candidates.card() == 0) return size_t{0};
  ViewSelectionOptions sel_opts;
  sel_opts.max_views = max_views;
  Result<ViewSelectionResult> sel =
      SelectViews(history, candidates, sel_opts);
  GPMV_RETURN_NOT_OK(sel.status());

  std::unique_lock<std::shared_mutex> lk(mu_);
  std::unordered_set<std::string> existing;
  for (const ViewDefinition& def : cache_.views().views()) {
    existing.insert(PatternToText(def.pattern));
  }
  size_t added = 0;
  for (uint32_t ci : sel->selected) {
    const ViewDefinition& cand = candidates.view(ci);
    std::string text = PatternToText(cand.pattern);
    if (!existing.insert(std::move(text)).second) continue;
    cache_.Register(ViewDefinition{
        "auto_" + std::to_string(cache_.views().card()), cand.pattern});
    ++added;
  }
  return added;
}

void QueryEngine::RecordWorkload(const Pattern& q) {
  std::lock_guard<std::mutex> lk(agg_mu_);
  workload_.push_back(q);
  if (workload_.size() > kWorkloadHistoryLimit) workload_.pop_front();
}

bool QueryEngine::CheckCacheConsistency(bool expect_unpinned) const {
  std::unique_lock<std::shared_mutex> lk(mu_);
  return cache_.CheckConsistency(expect_unpinned);
}

GraphStatistics QueryEngine::graph_statistics() const {
  if (stats_dirty_.load(std::memory_order_acquire)) {
    std::unique_lock<std::shared_mutex> lk(mu_);
    if (stats_dirty_.load(std::memory_order_relaxed)) {
      gstats_ = ComputeStatistics(graph_);
      stats_dirty_.store(false, std::memory_order_release);
    }
    return gstats_;
  }
  std::shared_lock<std::shared_mutex> lk(mu_);
  return gstats_;
}

size_t QueryEngine::num_views() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return cache_.views().card();
}

size_t QueryEngine::num_graph_nodes() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return graph_.num_nodes();
}

size_t QueryEngine::num_graph_edges() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return graph_.num_edges();
}

}  // namespace gpmv
