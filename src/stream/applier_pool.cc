#include "stream/applier_pool.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <string>
#include <thread>
#include <utility>

#include "common/random.h"
#include "common/stopwatch.h"

namespace gpmv {

namespace {

/// 64-bit finalizer (splitmix64): decorrelates the packed (u, v) key from
/// node-id locality so slices load-balance on real graphs.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

/// The engine's stream.* metrics, resolved once per pool. Every update that
/// settles ops runs inside one registry Group(), so a snapshot sees each
/// batch whole or not at all.
struct ApplierPool::StreamMetrics {
  explicit StreamMetrics(obs::MetricsRegistry* m)
      : registry(m),
        ops_ingested(m->FindOrCreateCounter("stream.ops_ingested")),
        ops_applied(m->FindOrCreateCounter("stream.ops_applied")),
        ops_coalesced(m->FindOrCreateCounter("stream.ops_coalesced")),
        ops_dropped(m->FindOrCreateCounter("stream.ops_dropped")),
        batches_applied(m->FindOrCreateCounter("stream.batches_applied")),
        apply_failures(m->FindOrCreateCounter("stream.apply_failures")),
        retries(m->FindOrCreateCounter("stream.retries")),
        quarantines(m->FindOrCreateCounter("stream.quarantines")),
        revives(m->FindOrCreateCounter("stream.revives")),
        flushes(m->FindOrCreateCounter("stream.flushes")),
        queue_depth(m->FindOrCreateGauge("stream.queue_depth")),
        queue_depth_max(m->FindOrCreateGauge("stream.queue_depth_max")),
        redo_depth(m->FindOrCreateGauge("stream.redo_depth")),
        max_batch_size(m->FindOrCreateGauge("stream.max_batch_size")),
        publish_lag_max(m->FindOrCreateGauge("stream.publish_lag_ms_max")),
        publish_lag_total(m->FindOrCreateGauge("stream.publish_lag_ms_total")),
        applied_through(m->FindOrCreateGauge("stream.applied_through_ts")),
        batch_size(m->FindOrCreateHistogram("stream.batch_size")) {}

  /// Settles `popped` queue elements that coalesced to `kept` ops, the
  /// kept ones as applied or as explicit drops.
  void Settle(size_t popped, size_t kept, bool applied) {
    ops_ingested->Add(popped);
    ops_coalesced->Add(popped - kept);
    (applied ? ops_applied : ops_dropped)->Add(kept);
  }

  /// One committed micro-batch: its ops, size, publish lag and watermark.
  void RecordApplied(size_t popped, size_t kept, uint64_t through_ts,
                     double publish_lag_ms) {
    Settle(popped, kept, /*applied=*/true);
    batches_applied->Add(1);
    batch_size->Record(kept);
    max_batch_size->SetMax(static_cast<double>(kept));
    publish_lag_max->SetMax(publish_lag_ms);
    publish_lag_total->Add(publish_lag_ms);
    applied_through->SetMax(static_cast<double>(through_ts));
  }

  obs::MetricsRegistry* registry;
  obs::Counter* ops_ingested;
  obs::Counter* ops_applied;
  obs::Counter* ops_coalesced;
  obs::Counter* ops_dropped;
  obs::Counter* batches_applied;
  obs::Counter* apply_failures;
  obs::Counter* retries;
  obs::Counter* quarantines;
  obs::Counter* revives;
  obs::Counter* flushes;
  obs::Gauge* queue_depth;      ///< live depth after the last drain
  obs::Gauge* queue_depth_max;  ///< enqueue-side high-water mark
  obs::Gauge* redo_depth;       ///< live redo-log depth
  obs::Gauge* max_batch_size;
  obs::Gauge* publish_lag_max;    ///< ms
  obs::Gauge* publish_lag_total;  ///< ms; mean = total / batches_applied
  obs::Gauge* applied_through;
  obs::Histogram* batch_size;   ///< post-coalesce ops per applied batch
};

/// One slice: its queue and the applier thread that drains it into
/// micro-batches, retries failed commits, and parks behind a redo log when
/// quarantined (see the file comment of applier_pool.h).
class ApplierPool::Slice {
 public:
  Slice(ApplierPool* pool, size_t index)
      : stream(pool->opts_.stream),
        pool_(pool),
        index_(index),
        jitter_rng_(pool->opts_.retry.jitter_seed ^
                    (index * 0x9e3779b97f4a7c15ULL + index)) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Slice() { (void)Stop(); }

  Slice(const Slice&) = delete;
  Slice& operator=(const Slice&) = delete;

  /// Blocks until every op accepted before the call is consumed, or the
  /// slice quarantined; returns the sticky status. The target is captured
  /// at entry, so later pushes don't extend the wait.
  Status Flush() {
    const uint64_t target = stream.last_ts();
    std::unique_lock<std::mutex> lk(mu_);
    consumed_cv_.wait(
        lk, [&] { return consumed_ts_ >= target || quarantined_; });
    return status_;
  }

  Status Revive();

  /// Closes the stream, drains the remainder, joins the thread; returns
  /// the sticky status. On a quarantined slice this *discards* the redo
  /// log and queued remainder as explicit drops. Idempotent.
  Status Stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
    }
    state_cv_.notify_all();
    stream.Close();
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopped_) return status_;
      stopped_ = true;
    }
    if (thread_.joinable()) thread_.join();
    std::lock_guard<std::mutex> lk(mu_);
    return status_;
  }

  Status status() const {
    std::lock_guard<std::mutex> lk(mu_);
    return status_;
  }
  bool quarantined() const {
    std::lock_guard<std::mutex> lk(mu_);
    return quarantined_;
  }
  /// Timestamp through which ops have been consumed (applied, or
  /// discarded by a quarantined Stop). Does not advance past a retained
  /// (quarantined) batch.
  uint64_t consumed_through_ts() const {
    std::lock_guard<std::mutex> lk(mu_);
    return consumed_ts_;
  }

  UpdateStream stream;

 private:
  /// One retained failed micro-batch plus what settling its ops needs.
  struct RedoEntry {
    std::vector<EdgeUpdate> batch;  ///< coalesced, as originally drained
    uint64_t through_ts = 0;
    size_t ops_popped = 0;  ///< pre-coalesce queue elements it covered
  };

  void Loop();
  /// Applies one batch with bounded, jittered-backoff retries, recording
  /// failed attempts and performed retries; aborts the backoff early
  /// (returning the last error) when Stop is requested.
  Status ApplyWithRetry(const std::vector<EdgeUpdate>& batch, uint64_t ts);
  /// Jittered exponential backoff before retry number `attempt` (1-based).
  /// False when interrupted by Stop.
  bool BackoffWait(size_t attempt);
  /// Shutdown path: settles the redo log and drains the closed stream,
  /// counting everything as explicit drops.
  void DiscardRemainder();
  Status QuarantineStatus(const Status& cause) const {
    return Status::ResourceExhausted("stream slice " + std::to_string(index_) +
                                     " quarantined: " + cause.ToString());
  }

  ApplierPool* pool_;
  const size_t index_;
  /// Backoff jitter stream. Touched only by whichever thread currently
  /// runs applies (the applier thread, or a Revive caller while the
  /// applier is parked) — handoffs synchronize through mu_.
  Rng jitter_rng_;

  mutable std::mutex mu_;
  std::condition_variable consumed_cv_;
  /// Park/backoff wake channel: notified by Stop() and Revive().
  std::condition_variable state_cv_;
  uint64_t consumed_ts_ = 0;  ///< watermark: drained-and-settled through here
  Status status_;             ///< sticky: OK, or the quarantine status
  std::deque<RedoEntry> redo_;
  bool quarantined_ = false;
  bool reviving_ = false;
  bool quit_ = false;  ///< Stop requested: interrupts parks and backoffs
  bool stopped_ = false;

  std::thread thread_;  ///< last member: joined by Stop()/dtor
};

bool ApplierPool::Slice::BackoffWait(size_t attempt) {
  const StreamRetryOptions& retry = pool_->opts_.retry;
  double ms = retry.backoff_base_ms;
  for (size_t i = 1; i < attempt && ms < retry.backoff_max_ms; ++i) {
    ms *= 2.0;
  }
  ms = std::min(ms, retry.backoff_max_ms);
  // Jitter to [50%, 100%] of nominal: K appliers retrying the same outage
  // decorrelate instead of thundering onto the registry lock together.
  ms *= 0.5 + 0.5 * jitter_rng_.NextDouble();
  std::unique_lock<std::mutex> lk(mu_);
  if (ms <= 0.0) return !quit_;
  return !state_cv_.wait_for(lk,
                             std::chrono::duration<double, std::milli>(ms),
                             [this] { return quit_; });
}

Status ApplierPool::Slice::ApplyWithRetry(const std::vector<EdgeUpdate>& batch,
                                          uint64_t ts) {
  StreamMetrics& m = *pool_->metrics_;
  Status st;
  for (size_t attempt = 1; attempt <= pool_->opts_.retry.max_attempts;
       ++attempt) {
    if (attempt > 1) {
      if (!BackoffWait(attempt - 1)) break;  // Stop requested mid-backoff
      m.retries->Add(1);
    }
    st = pool_->engine_->ApplyStreamBatchSlice(batch, ts, index_);
    if (st.ok()) return st;
    m.apply_failures->Add(1);
    // Validation failures (unknown node) are deterministic: the batch can
    // never succeed, so burn no backoff on it — quarantine immediately and
    // let Revive (after the operator fixes the world) or Stop resolve it.
    if (st.code() == Status::Code::kInvalidArgument) break;
  }
  return st;
}

void ApplierPool::Slice::Loop() {
  StreamMetrics& m = *pool_->metrics_;
  const ApplierPoolOptions& opts = pool_->opts_;
  size_t cap = opts.max_batch;
  StreamDrainResult d;
  for (;;) {
    {
      // Quarantined appliers park instead of draining: every queued op is
      // *retained* behind the failed batch (FIFO order is the redo
      // contract), and the stalled queue is the producers' backpressure.
      std::unique_lock<std::mutex> lk(mu_);
      state_cv_.wait(lk, [this] { return !quarantined_ || quit_; });
      if (quarantined_ && quit_) break;
    }
    if (!stream.Drain(cap, &d)) break;

    Stopwatch sw;
    Status st = ApplyWithRetry(d.batch, d.through_ts);
    const double apply_ms = sw.ElapsedMillis();
    // Metrics land before the consumed watermark moves, so a flush that
    // returns always sees its batch in the stream counters.
    m.queue_depth_max->SetMax(static_cast<double>(stream.max_depth()));
    if (st.ok()) {
      {
        auto group = m.registry->Group();
        m.RecordApplied(d.ops_popped, d.batch.size(), d.through_ts,
                        d.oldest_wait_ms + apply_ms);
      }
      std::lock_guard<std::mutex> lk(mu_);
      consumed_ts_ = std::max(consumed_ts_, d.through_ts);
    } else {
      // Retries exhausted (or a deterministic failure): quarantine. The
      // batch is retained in the redo log and its ops settle only when the
      // entry resolves (Revive replay or Stop discard). consumed_ts_ stays
      // put: the slice clock pins the watermark at the last successful
      // apply (no holes).
      std::lock_guard<std::mutex> lk(mu_);
      redo_.push_back(RedoEntry{d.batch, d.through_ts, d.ops_popped});
      m.quarantines->Add(1);
      m.redo_depth->Set(static_cast<double>(redo_.size()));
      pool_->engine_->SetSliceQuarantined(index_, true);
      quarantined_ = true;
      status_ = QuarantineStatus(st);
    }
    // Live depth, not a high-water mark: exporter snapshots between drains
    // see how far the applier is behind right now.
    m.queue_depth->Set(static_cast<double>(d.depth_after));
    consumed_cv_.notify_all();
    pool_->RefreshWatermark();

    if (st.ok() && opts.max_lag_ms > 0.0) {
      // AIMD-flavored cap steering: a slow apply halves the next drain so
      // publish lag recovers; a fast one doubles it back toward max_batch
      // (larger batches amortize the freeze + maintenance sweep).
      if (apply_ms > opts.max_lag_ms) {
        cap = std::max<size_t>(1, cap / 2);
      } else {
        cap = std::min(opts.max_batch, cap * 2);
      }
    }
  }
  {
    // A Revive may still be replaying the redo log it swapped out; let it
    // finish (Stop's quit_ interrupts its backoffs) so the discard below
    // settles whatever it put back, never racing its accounting.
    std::unique_lock<std::mutex> lk(mu_);
    state_cv_.wait(lk, [this] { return !reviving_; });
  }
  DiscardRemainder();
}

void ApplierPool::Slice::DiscardRemainder() {
  StreamMetrics& m = *pool_->metrics_;
  std::lock_guard<std::mutex> lk(mu_);
  auto group = m.registry->Group();
  for (const RedoEntry& e : redo_) {
    m.Settle(e.ops_popped, e.batch.size(), /*applied=*/false);
    consumed_ts_ = std::max(consumed_ts_, e.through_ts);
  }
  redo_.clear();
  // The stream is closed by now (Drain returned false or Stop closed it);
  // whatever producers managed to enqueue behind the quarantine drains
  // here as explicit drops, so flushes and accounting never hang.
  StreamDrainResult d;
  while (stream.Drain(pool_->opts_.max_batch, &d)) {
    m.Settle(d.ops_popped, d.batch.size(), /*applied=*/false);
    consumed_ts_ = std::max(consumed_ts_, d.through_ts);
  }
  // The quarantine is resolved (by dropping); balance the engine's
  // quarantined-slice count so a torn-down slice stops flagging queries
  // as degraded. The sticky status stays kResourceExhausted for Stop().
  if (quarantined_) pool_->engine_->SetSliceQuarantined(index_, false);
  quarantined_ = false;
  m.redo_depth->Set(0.0);
  consumed_cv_.notify_all();
}

Status ApplierPool::Slice::Revive() {
  std::deque<RedoEntry> redo;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (reviving_) {
      return Status::ResourceExhausted("revive already in progress");
    }
    if (!quarantined_ || quit_) return status_;
    reviving_ = true;
    redo.swap(redo_);
  }

  // Replay on the calling thread; the applier stays parked (quarantined_
  // is still set), so slice commits never race.
  StreamMetrics& m = *pool_->metrics_;
  Status st;
  uint64_t replayed_ts = 0;
  while (!redo.empty()) {
    const RedoEntry& e = redo.front();
    st = ApplyWithRetry(e.batch, e.through_ts);
    if (!st.ok()) break;
    {
      auto group = m.registry->Group();
      m.RecordApplied(e.ops_popped, e.batch.size(), e.through_ts, 0.0);
    }
    replayed_ts = std::max(replayed_ts, e.through_ts);
    redo.pop_front();
  }

  Status out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    consumed_ts_ = std::max(consumed_ts_, replayed_ts);
    if (redo.empty()) {
      quarantined_ = false;
      status_ = Status::OK();
      m.revives->Add(1);
      pool_->engine_->SetSliceQuarantined(index_, false);
    } else {
      // Nothing enqueues into redo_ while quarantined (the applier is
      // parked), so the swap-back preserves FIFO replay order.
      redo_.swap(redo);
      status_ = QuarantineStatus(st);
    }
    m.redo_depth->Set(static_cast<double>(redo_.size()));
    reviving_ = false;
    out = status_;
  }
  state_cv_.notify_all();
  consumed_cv_.notify_all();
  return out;
}

size_t ApplierPool::SliceOf(NodeId u, NodeId v, size_t k) {
  if (k <= 1) return 0;
  const uint64_t key =
      (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(v);
  return static_cast<size_t>(Mix64(key) % k);
}

ApplierPool::ApplierPool(QueryEngine* engine, ApplierPoolOptions opts)
    : engine_(engine),
      opts_(opts),
      metrics_(std::make_unique<StreamMetrics>(engine->metrics())) {
  if (opts_.num_appliers == 0) opts_.num_appliers = 1;
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  if (opts_.retry.max_attempts == 0) opts_.retry.max_attempts = 1;
  const size_t k = opts_.num_appliers;
  engine_->ConfigureStreamSlices(k);
  // Continue the engine's ticket sequence rather than restarting at 1: on
  // an engine with prior streamed history the published watermark never
  // regresses, so fresh tickets below it would make min_applied_ts waits
  // trivially (and wrongly) satisfied before the new ops are applied.
  // ConfigureStreamSlices seeded every slice clock to this same value.
  next_ts_ = engine_->applied_through_ts() + 1;
  route_mu_ = std::make_unique<std::mutex[]>(k);
  last_routed_.assign(k, 0);
  routed_count_.assign(k, 0);
  slices_.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    slices_.push_back(std::make_unique<Slice>(this, i));
  }
}

ApplierPool::~ApplierPool() { (void)Stop(); }

uint64_t ApplierPool::Route(size_t s, EdgeUpdate op, bool block) {
  uint64_t ts, prev_tail;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return 0;
    ts = next_ts_++;
    prev_tail = last_routed_[s];
    last_routed_[s] = ts;
    ++routed_count_[s];
  }
  UpdateStream& stream = slices_[s]->stream;
  const PushError err = block ? stream.Push(op, ts) : stream.TryPush(op, ts);
  if (err == PushError::kNone) return ts;
  // Closed underneath (Stop raced): the op was never accepted, so un-route
  // it — the caller holds the slice mutex, so nobody else has touched this
  // slice's tail. The global ticket is burned (next_ts_ may have moved
  // on), which is fine post-Stop: a gap can only make the watermark
  // conservative, never let it cover a dropped op.
  std::lock_guard<std::mutex> lk(mu_);
  last_routed_[s] = prev_tail;
  --routed_count_[s];
  return 0;
}

uint64_t ApplierPool::Push(EdgeUpdate op) {
  const size_t s = SliceOf(op.u, op.v, slices_.size());
  // The slice's routing mutex covers ticket assignment *through* enqueue,
  // so two producers racing ops onto one slice cannot enqueue out of
  // ticket order (each slice stream must see a strictly increasing ts
  // subsequence). The pool mutex itself is only held for the non-blocking
  // ticket grab — never across the enqueue — so the applier threads'
  // RefreshWatermark can always acquire it: backpressure on a full slice
  // queue must never wedge the consumer whose drain relieves it.
  std::lock_guard<std::mutex> slk(route_mu_[s]);
  return Route(s, op, /*block=*/true);
}

ApplierPool::TryPushResult ApplierPool::TryPush(EdgeUpdate op,
                                                uint64_t* ts_out) {
  const size_t s = SliceOf(op.u, op.v, slices_.size());
  // Quarantine fast path: the consumer is parked, so admitting into (or
  // even probing) its queue is pointless.
  if (slices_[s]->quarantined()) return TryPushResult::kQuarantined;
  std::lock_guard<std::mutex> slk(route_mu_[s]);
  // Depth probe before the ticket grab. route_mu_ serializes this slice's
  // producers and the consumer only shrinks the queue, so "space now"
  // still holds at the enqueue — Route's TryPush cannot would-block.
  const UpdateStream& stream = slices_[s]->stream;
  if (stream.depth() >= stream.capacity()) return TryPushResult::kWouldBlock;
  const uint64_t ts = Route(s, op, /*block=*/false);
  if (ts == 0) return TryPushResult::kStopped;
  if (ts_out != nullptr) *ts_out = ts;
  return TryPushResult::kOk;
}

void ApplierPool::RefreshWatermark() {
  // Ticket assignment bumps last_routed_ under the pool mutex *before*
  // the op is enqueued (the enqueue runs outside mu_, serialized per
  // slice by route_mu_), so "applier i consumed through everything ever
  // routed to slice i" still proves slice i quiet through the global
  // last-assigned ts: a mid-flight op would have bumped last_routed_[i]
  // past anything its applier can have consumed. Quiet slices heartbeat
  // forward; a slice with a pending (or mid-flight) op keeps its clock
  // (and the min-derived watermark) put.
  std::lock_guard<std::mutex> lk(mu_);
  const uint64_t global = next_ts_ - 1;
  if (global == 0) return;
  for (size_t i = 0; i < slices_.size(); ++i) {
    // A quarantined applier retains (rather than applies) its failed
    // batch: its slice clock must stay at the last successful apply,
    // pinning the published watermark there — never heartbeat it. After
    // a successful ReviveSlice the status is OK again and the next
    // refresh lets the slice catch back up.
    if (!slices_[i]->status().ok()) continue;
    if (last_routed_[i] == global) continue;  // its own commit advances it
    if (slices_[i]->consumed_through_ts() >= last_routed_[i]) {
      engine_->AdvanceStreamSlice(i, global);
    }
  }
}

Status ApplierPool::FlushAndWait() {
  Status out;
  for (auto& s : slices_) {
    Status st = s->Flush();
    if (out.ok() && !st.ok()) out = st;
  }
  metrics_->flushes->Add(1);
  // All per-slice queues drained: every *healthy* slice is quiet through
  // the global ts, so the published watermark catches up to it here — or,
  // when an applier is quarantined, stays pinned at its last successful
  // apply (its ops are retained in the redo log, not applied).
  RefreshWatermark();
  return out;
}

Status ApplierPool::ReviveSlice(size_t i) {
  if (i >= slices_.size()) {
    return Status::InvalidArgument("no such stream slice");
  }
  Status st = slices_[i]->Revive();
  // On success the slice clock advanced through the replayed commits; the
  // refresh heartbeats it the rest of the way (it is quiet now — its queue
  // was empty behind the quarantine, or the parked applier resumes and the
  // per-batch refresh takes over).
  RefreshWatermark();
  return st;
}

bool ApplierPool::slice_quarantined(size_t i) const {
  return i < slices_.size() && slices_[i]->quarantined();
}

Status ApplierPool::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopped_ = true;
  }
  // Every call asks every slice: a slice's Stop is idempotent and keeps
  // returning its sticky status, so a repeated Stop reports the same
  // first failure.
  Status out;
  for (auto& s : slices_) {
    Status st = s->Stop();
    if (out.ok() && !st.ok()) out = st;
  }
  return out;
}

uint64_t ApplierPool::last_assigned_ts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return next_ts_ - 1;
}

uint64_t ApplierPool::ops_routed(size_t i) const {
  std::lock_guard<std::mutex> lk(mu_);
  return routed_count_[i];
}

}  // namespace gpmv
