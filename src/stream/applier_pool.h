/// \file applier_pool.h
/// \brief The streaming-update front door: K concurrent appliers over
/// disjoint slice sets, the front half of the MVCC snapshot chain
/// (graph/mvcc.h, QueryEngine::ApplyStreamBatchSlice). K = 1 is the single
/// applier; there is no other streaming path.
///
/// Topology: one pool owns K = `num_appliers` slices, each an UpdateStream
/// plus one applier thread that drains it and commits through the engine's
/// slice-aware path. Ops route by edge: `SliceOf(u, v) = hash(u, v) % K`,
/// so *every op on one edge lands in one slice* — per-edge last-op-wins
/// coalescing and per-slice FIFO order then reproduce sequential semantics
/// exactly, while ops on different edges commute across slices (the
/// stream's ordering contract only promises per-edge order). Appliers
/// drain, coalesce and validate concurrently; their commits serialize only
/// at the engine's chain head.
///
/// Adaptive micro-batching: an applier drains whatever is queued, up to a
/// moving cap. While an apply is in flight the queue accumulates, so batch
/// size tracks the ingest-rate/apply-latency ratio by itself; the cap
/// steers publish lag — an apply slower than `max_lag_ms` halves it (AIMD),
/// a fast one lets it grow back toward `max_batch`. Every handled batch is
/// recorded into the engine's `stream.*` metrics as one registry group, so
/// a concurrent snapshot never sees a torn batch: `stream.ops_ingested ==
/// ops_applied + ops_coalesced + ops_dropped` holds in every snapshot.
///
/// Timestamps: one *global* ticket source spans all K streams — Push grabs
/// a ticket under the pool mutex, then enqueues under a *per-slice* routing
/// mutex, so each slice stream sees a strictly increasing subsequence. The
/// pool mutex is never held across the (blocking, backpressured) enqueue:
/// the applier threads refresh the watermark under it after every batch, so
/// a producer parked on a full slice queue holding it would deadlock the
/// very drain that frees the queue. Ticket density is what makes the
/// min-over-slices watermark meaningful: once the ticket source passed T,
/// no op with ts <= T can appear anywhere (a ticket burned by a raced Stop
/// leaves a gap, but only post-stop, where it merely keeps the watermark
/// conservative). On an engine with prior streamed history the ticket
/// source resumes from the published watermark instead of 1, matching the
/// slice-clock seeding in QueryEngine::ConfigureStreamSlices — stale
/// watermarks must not satisfy read-your-writes waits for new tickets.
///
/// Watermark liveness (the stalled/idle-slice problem): the engine derives
/// applied_through_ts as the minimum over slice clocks, so a slice that
/// simply never receives ops would pin the watermark forever. After every
/// handled batch the pool refreshes: any slice whose applier has consumed
/// everything ever routed to it is *provably quiet* through the global
/// last-assigned ts (tickets bump the slice's routed tail under the pool
/// mutex before the op is enqueued, so a mid-flight op is already visible
/// in that tail) and its clock heartbeats forward
/// (QueryEngine::AdvanceStreamSlice). A slice with a pending op keeps its
/// clock — and therefore the global watermark — exactly at its last
/// applied ts: a lagging applier can never publish a hole.
///
/// Failure contract — retry, quarantine, revive (docs/ROBUSTNESS.md): a
/// failed micro-batch apply is *retried in place* with capped, jittered
/// exponential backoff (StreamRetryOptions); the engine's apply validates
/// all-or-nothing before mutating, so re-applying a failed batch is always
/// sound. A batch that exhausts its attempts (or fails deterministically:
/// kInvalidArgument never retries) *quarantines* its slice: the batch moves
/// to a per-slice redo log, the applier parks instead of draining, and the
/// slice's sticky status becomes kResourceExhausted. A quarantined slice is
/// never heartbeated, so its clock pins the watermark at its last
/// successful apply; FlushAndWait returns the quarantine status, blocking
/// Push feels queue backpressure, and TryPush fast-fails kQuarantined.
/// Nothing is dropped while quarantined: a retained batch's ops count into
/// the stream counters only when its redo entry resolves. ReviveSlice
/// replays the redo log and the next refresh heartbeats the healed slice
/// back up to the global ts. The *only* drop path is Stop() on a
/// quarantined slice, which discards the redo log and the queued remainder
/// as explicit `stream.ops_dropped`.

#ifndef GPMV_STREAM_APPLIER_POOL_H_
#define GPMV_STREAM_APPLIER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "engine/query_engine.h"
#include "stream/update_stream.h"

namespace gpmv {

/// Bounded-retry policy for failed micro-batch applies.
struct StreamRetryOptions {
  /// Total apply attempts per batch before quarantine (clamped to >= 1;
  /// 1 = no retries). kInvalidArgument failures (deterministic validation
  /// errors) quarantine immediately regardless.
  size_t max_attempts = 4;
  /// First backoff delay; doubles per retry (jittered to [50%, 100%] of
  /// nominal), capped at backoff_max_ms. 0 retries immediately.
  double backoff_base_ms = 1.0;
  double backoff_max_ms = 50.0;
  /// Jitter RNG seed (mixed with the slice index so K appliers draw
  /// distinct streams).
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ULL;
};

struct ApplierPoolOptions {
  /// Concurrent appliers / stream slices (clamped to >= 1).
  size_t num_appliers = 2;
  /// Upper bound on ops per micro-batch (post-coalesce batches are
  /// smaller).
  size_t max_batch = 256;
  /// Target publish-lag bound: an apply slower than this halves the drain
  /// cap, a faster one doubles it back (never above max_batch, never below
  /// 1). 0 disables adaptation (the cap stays at max_batch).
  double max_lag_ms = 20.0;
  /// Failed-apply retry policy (see file comment).
  StreamRetryOptions retry;
  /// Per-slice queue sizing.
  UpdateStreamOptions stream;
};

/// See file comment.
class ApplierPool {
 public:
  /// Configures the engine's slice topology and starts all K applier
  /// threads. `engine` must outlive this object (or its Stop()).
  ApplierPool(QueryEngine* engine, ApplierPoolOptions opts = {});
  ~ApplierPool();

  ApplierPool(const ApplierPool&) = delete;
  ApplierPool& operator=(const ApplierPool&) = delete;

  /// Routes `op` to its edge's slice with the next global timestamp.
  /// Blocks while that slice's queue is at capacity (backpressure holds
  /// only that slice's routing mutex — producers for other slices and the
  /// appliers' watermark refresh keep running; per-slice FIFO of the
  /// global ticket order is preserved). Returns the assigned ts, 0 once
  /// stopped.
  uint64_t Push(EdgeUpdate op);

  /// Outcome of the non-blocking TryPush admission path.
  enum class TryPushResult {
    kOk = 0,       ///< accepted; `*ts_out` holds the assigned ts
    kWouldBlock,   ///< slice queue at capacity; no ticket was assigned
    kQuarantined,  ///< slice applier quarantined; retry after ReviveSlice
    kStopped,      ///< pool stopped
  };

  /// Non-blocking Push — the net server's admission path, which must never
  /// block its event-loop thread. A quarantined slice fails fast, and the
  /// target slice's queue depth is probed under the slice routing mutex
  /// *before* a ticket is assigned, so neither refusal burns a ticket: the
  /// caller parks the op and retries it later without marching the global
  /// ticket source (and with it every watermark target) forward on each
  /// attempt.
  TryPushResult TryPush(EdgeUpdate op, uint64_t* ts_out = nullptr);

  /// Blocks until every op pushed before the call is applied-and-published
  /// or retained behind a quarantine, then heartbeats every quiet slice so
  /// the published watermark reaches the global last-assigned ts. Returns
  /// the first slice's quarantine status (OK while all healthy).
  Status FlushAndWait();

  /// Replays slice `i`'s quarantined redo log from the calling thread (the
  /// slice's applier stays parked meanwhile) with the configured retry
  /// policy, then refreshes the watermark so the healed slice clock
  /// catches back up. On failure the unreplayed remainder stays
  /// quarantined and the cause is returned. OK and a no-op on a healthy
  /// slice.
  Status ReviveSlice(size_t i);

  /// True while slice `i`'s applier is quarantined (redo retained, thread
  /// parked). Non-blocking.
  bool slice_quarantined(size_t i) const;

  /// Closes every stream, drains remainders, joins all applier threads.
  /// Idempotent: every call returns the first sticky failure (a slice
  /// quarantined when it was stopped keeps its kResourceExhausted).
  Status Stop();

  size_t num_appliers() const { return slices_.size(); }
  /// Last globally assigned stream timestamp. Before the first Push this
  /// is the engine watermark the ticket source resumed from (0 on a
  /// fresh engine).
  uint64_t last_assigned_ts() const;
  /// Total ops routed to slice `i` so far.
  uint64_t ops_routed(size_t i) const;

  /// The routing function, exposed for tests and oracles: every op on edge
  /// (u, v) maps to the same slice, so per-slice FIFO preserves per-edge
  /// order.
  static size_t SliceOf(NodeId u, NodeId v, size_t k);

 private:
  class Slice;           ///< one stream + its applier thread (.cc)
  struct StreamMetrics;  ///< the engine's stream.* handles (.cc)

  /// Assigns the next global ticket to slice `s` and enqueues `op` under
  /// it (blocking for space when `block`). On refusal — pool stopped, or
  /// the stream closed underneath — un-routes the op and returns 0. The
  /// caller holds route_mu_[s].
  uint64_t Route(size_t s, EdgeUpdate op, bool block);

  /// Heartbeat pass (see file comment): advances the clock of every slice
  /// that has consumed everything ever routed to it.
  void RefreshWatermark();

  QueryEngine* engine_;
  ApplierPoolOptions opts_;
  std::unique_ptr<StreamMetrics> metrics_;

  mutable std::mutex mu_;  ///< routing: ticket source + per-slice tails
  /// Per-slice enqueue sequencing (see Push): acquired *before* mu_ and
  /// held across the blocking enqueue, which mu_ never is. Lock order:
  /// route_mu_[s] -> mu_ -> a slice's own mutex; RefreshWatermark takes
  /// only mu_ (then each slice's).
  std::unique_ptr<std::mutex[]> route_mu_;
  uint64_t next_ts_ = 1;  ///< re-seeded from the engine watermark + 1
  std::vector<uint64_t> last_routed_;  ///< last ts routed to each slice
  std::vector<uint64_t> routed_count_;
  bool stopped_ = false;

  /// Last member: slice threads (which touch everything above) are joined
  /// first on destruction.
  std::vector<std::unique_ptr<Slice>> slices_;
};

}  // namespace gpmv

#endif  // GPMV_STREAM_APPLIER_POOL_H_
