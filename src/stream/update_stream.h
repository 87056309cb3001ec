/// \file update_stream.h
/// \brief One slice's ingest queue: a bounded multi-producer /
/// single-consumer queue of timestamped edge operations, fed by
/// ApplierPool (stream/applier_pool.h) and drained by that slice's applier
/// thread into adaptive micro-batches.
///
/// Ordering contract — the stream's observable semantics are *sequential*:
/// the final graph equals the one obtained by applying every accepted op in
/// timestamp (enqueue) order, one at a time. Edge inserts/deletes on
/// distinct edges commute and edge presence is a per-edge property, so this
/// is equivalently "for every edge, the op with the highest timestamp
/// wins". The drain path exploits exactly that: a drained micro-batch is
/// *coalesced* per edge (only the last op on each (u, v) survives), which
/// both shrinks the batch and makes the engine's batch set-semantics
/// (deletions applied before insertions — see QueryEngine::ApplyUpdates)
/// coincide with sequential order, since a coalesced batch carries at most
/// one op per edge. Note the consequence for equivalence oracles: a stream
/// containing *contradicting* ops on one edge (insert then delete, or vice
/// versa) matches the single-batch oracle only after the same last-op-wins
/// canonicalization — applying the raw op list as one set-semantics batch
/// would resurrect a deleted edge. tests/stream_equivalence_test.cc pins
/// both formulations.
///
/// Timestamps (tickets) come from the pool's global ticket source; each
/// queue sees a strictly increasing subsequence of them, and they double as
/// the bounded-staleness watermark ("applied-through") the applier stamps
/// onto published snapshots.
///
/// Concurrency: any number of producer threads may enqueue (Push blocks
/// while the queue is at capacity — backpressure, like the executor's
/// bounded task queue; TryPush never waits); exactly one consumer drains.
/// Close() makes further enqueues fail and lets the consumer drain the
/// remainder; Drain returns false only once the stream is closed *and*
/// empty.

#ifndef GPMV_STREAM_UPDATE_STREAM_H_
#define GPMV_STREAM_UPDATE_STREAM_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "engine/query_engine.h"

namespace gpmv {

/// Queue sizing knobs.
struct UpdateStreamOptions {
  /// Maximum enqueued (not yet drained) ops before Push blocks.
  size_t queue_capacity = 4096;
};

/// Why an enqueue was refused. Push can report kClosed / kStaleTicket;
/// TryPush adds kWouldBlock.
enum class PushError {
  kNone = 0,      ///< accepted
  kClosed,        ///< stream was closed
  kStaleTicket,   ///< ts not above every ts this stream has accepted
  kWouldBlock,    ///< TryPush with the queue at capacity
};

/// Result of one Drain call; `batch` is already coalesced (at most one op
/// per edge, each edge's last-enqueued op).
struct StreamDrainResult {
  std::vector<EdgeUpdate> batch;
  uint64_t through_ts = 0;     ///< highest timestamp popped (pre-coalesce)
  size_t ops_popped = 0;       ///< queue elements consumed (pre-coalesce)
  size_t depth_after = 0;      ///< queue depth left behind
  double oldest_wait_ms = 0.0; ///< queue wait of the oldest popped op
};

/// See file comment.
class UpdateStream {
 public:
  explicit UpdateStream(UpdateStreamOptions opts = {});

  UpdateStream(const UpdateStream&) = delete;
  UpdateStream& operator=(const UpdateStream&) = delete;

  /// Enqueues `op` under ticket `ts`, blocking while the queue is at
  /// capacity. `ts` must exceed every ticket this stream has accepted.
  /// Ticket order is validated *before* waiting for space — a stale ticket
  /// is refused at once rather than parking the producer on a full queue
  /// only to be refused once space frees up.
  PushError Push(EdgeUpdate op, uint64_t ts);

  /// Non-blocking Push: kWouldBlock instead of waiting for space. The net
  /// server's admission path (through ApplierPool::TryPush) — it parks the
  /// op per connection instead of blocking its event loop. A stale ticket
  /// is reported before a full queue.
  PushError TryPush(EdgeUpdate op, uint64_t ts);

  /// Stops accepting ops (enqueues fail from now on) and wakes a blocked
  /// Drain so the consumer can finish the remainder. Idempotent.
  void Close();

  /// Consumer side (single-threaded): blocks until at least one op is
  /// queued or the stream is closed; pops up to `max_ops` ops, coalesces
  /// them per edge (last op wins), and fills `*out`. Returns false — with
  /// an empty `out->batch` — only when the stream is closed and empty.
  bool Drain(size_t max_ops, StreamDrainResult* out);

  /// Highest ticket accepted so far (0 before the first op): the quiesce
  /// target of a flush.
  uint64_t last_ts() const;

  size_t depth() const;

  /// Configured queue capacity (constant after construction).
  size_t capacity() const { return opts_.queue_capacity; }

  /// Enqueue-side depth high-water mark (stream.queue_depth_max).
  size_t max_depth() const;

  /// Last-op-wins canonicalization, exposed for oracles and the applier
  /// alike: keeps, for every (u, v), only the op appearing last in `ops`.
  /// The result carries at most one op per edge, so applying it as a single
  /// set-semantics batch reproduces the sequential application of `ops`.
  static std::vector<EdgeUpdate> Coalesce(const std::vector<EdgeUpdate>& ops);

 private:
  struct Element {
    EdgeUpdate op;
    uint64_t ts;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  /// Shared body of Push / TryPush.
  PushError Enqueue(EdgeUpdate op, uint64_t ts, bool block);

  UpdateStreamOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Element> queue_;
  uint64_t last_ts_ = 0;
  size_t max_depth_ = 0;
  bool closed_ = false;
};

}  // namespace gpmv

#endif  // GPMV_STREAM_UPDATE_STREAM_H_
