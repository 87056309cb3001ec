/// \file stream_test.cc
/// \brief Unit tests for the streaming-update subsystem: UpdateStream queue
/// semantics (tickets, backpressure, close, last-op-wins coalescing), the
/// single-applier pool against a live engine (micro-batching, the
/// FlushAndWait quiesce contract, applied-through watermarks on query
/// responses, retry / quarantine handling, stream.* metrics plumbing), and
/// ApplierPool routing/admission/watermark regressions (backpressure vs.
/// the watermark-refresh lock, failed-slice watermark pinning, TryPush
/// admission, ticket resumption on an engine with prior streamed history).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "stream/applier_pool.h"
#include "stream/update_stream.h"
#include "test_util.h"

namespace gpmv {
namespace {

using testutil::ChainGraph;
using testutil::ChainPattern;

TEST(UpdateStreamTest, DrainCoalescesLastOpWinsPerEdge) {
  UpdateStream stream;
  stream.Push(EdgeUpdate::Insert(0, 1), 1);
  stream.Push(EdgeUpdate::Delete(0, 1), 2);
  stream.Push(EdgeUpdate::Insert(0, 1), 3);  // contradicting trio: insert wins
  stream.Push(EdgeUpdate::Delete(2, 3), 4);  // distinct edge survives alongside

  StreamDrainResult d;
  ASSERT_TRUE(stream.Drain(16, &d));
  EXPECT_EQ(d.ops_popped, 4u);
  EXPECT_EQ(d.through_ts, 4u);
  EXPECT_EQ(d.depth_after, 0u);
  ASSERT_EQ(d.batch.size(), 2u);
  EXPECT_EQ(d.batch[0].kind, EdgeUpdate::Kind::kInsert);
  EXPECT_EQ(d.batch[0].u, 0u);
  EXPECT_EQ(d.batch[0].v, 1u);
  EXPECT_EQ(d.batch[1].kind, EdgeUpdate::Kind::kDelete);
  EXPECT_EQ(d.batch[1].u, 2u);
}

TEST(UpdateStreamTest, CoalesceHelperKeepsLastOpAndFirstOrder) {
  std::vector<EdgeUpdate> ops = {
      EdgeUpdate::Insert(5, 6), EdgeUpdate::Insert(1, 2),
      EdgeUpdate::Delete(5, 6), EdgeUpdate::Insert(5, 6),
      EdgeUpdate::Delete(1, 2)};
  std::vector<EdgeUpdate> c = UpdateStream::Coalesce(ops);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].u, 5u);
  EXPECT_EQ(c[0].kind, EdgeUpdate::Kind::kInsert);
  EXPECT_EQ(c[1].u, 1u);
  EXPECT_EQ(c[1].kind, EdgeUpdate::Kind::kDelete);
}

TEST(UpdateStreamTest, DrainRespectsMaxOpsAndLeavesRemainder) {
  UpdateStream stream;
  for (NodeId i = 0; i < 5; ++i) {
    stream.Push(EdgeUpdate::Insert(i, i + 1), i + 1);
  }
  StreamDrainResult d;
  ASSERT_TRUE(stream.Drain(2, &d));
  EXPECT_EQ(d.ops_popped, 2u);
  EXPECT_EQ(d.through_ts, 2u);
  EXPECT_EQ(d.depth_after, 3u);
  ASSERT_TRUE(stream.Drain(100, &d));
  EXPECT_EQ(d.ops_popped, 3u);
  EXPECT_EQ(d.through_ts, 5u);
}

TEST(UpdateStreamTest, BoundedQueueBlocksProducerUntilDrained) {
  UpdateStreamOptions opts;
  opts.queue_capacity = 2;
  UpdateStream stream(opts);
  stream.Push(EdgeUpdate::Insert(0, 1), 1);
  stream.Push(EdgeUpdate::Insert(1, 2), 2);

  EXPECT_EQ(stream.TryPush(EdgeUpdate::Insert(2, 3), 3),
            PushError::kWouldBlock);

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    // Blocks until the drain below.
    EXPECT_EQ(stream.Push(EdgeUpdate::Insert(2, 3), 3), PushError::kNone);
    third_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(stream.depth(), 2u);

  StreamDrainResult d;
  ASSERT_TRUE(stream.Drain(16, &d));
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(stream.max_depth(), 2u);
  EXPECT_EQ(stream.last_ts(), 3u);
}

TEST(UpdateStreamTest, CloseFailsPushAndDrainsRemainder) {
  UpdateStream stream;
  stream.Push(EdgeUpdate::Insert(0, 1), 1);
  stream.Close();
  EXPECT_EQ(stream.Push(EdgeUpdate::Insert(1, 2), 2), PushError::kClosed);
  EXPECT_EQ(stream.TryPush(EdgeUpdate::Insert(1, 2), 2), PushError::kClosed);

  StreamDrainResult d;
  ASSERT_TRUE(stream.Drain(16, &d));  // the pre-close op still drains
  EXPECT_EQ(d.batch.size(), 1u);
  EXPECT_FALSE(stream.Drain(16, &d));  // closed and empty: consumer done
  EXPECT_TRUE(d.batch.empty());
}

TEST(UpdateStreamTest, DrainBlocksUntilPushArrives) {
  UpdateStream stream;
  std::atomic<bool> drained{false};
  std::thread consumer([&] {
    StreamDrainResult d;
    ASSERT_TRUE(stream.Drain(16, &d));
    EXPECT_EQ(d.batch.size(), 1u);
    drained = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drained.load());
  stream.Push(EdgeUpdate::Insert(0, 1), 1);
  consumer.join();
  EXPECT_TRUE(drained.load());
}

TEST(UpdateStreamTest, StaleTicketRejectedWithoutBlockingOnFullQueue) {
  // Regression: the ticketed push used to wait for queue space BEFORE
  // validating ticket order, so a stale ticket against a full queue blocked
  // forever (nobody draining -> deadlock; the suite timeout caught nothing
  // because the process just hung). Order is validated first now: a stale
  // ticket on a full queue returns immediately.
  UpdateStreamOptions opts;
  opts.queue_capacity = 1;
  UpdateStream stream(opts);
  EXPECT_EQ(stream.capacity(), 1u);
  ASSERT_EQ(stream.Push(EdgeUpdate::Insert(0, 1), 10), PushError::kNone);
  ASSERT_EQ(stream.depth(), 1u);  // full

  EXPECT_EQ(stream.Push(EdgeUpdate::Insert(1, 2), 10),
            PushError::kStaleTicket);
  EXPECT_EQ(stream.Push(EdgeUpdate::Insert(1, 2), 5), PushError::kStaleTicket);
  // The queued op and the stream's ts high-water mark are untouched.
  EXPECT_EQ(stream.depth(), 1u);
  EXPECT_EQ(stream.last_ts(), 10u);
}

TEST(UpdateStreamTest, PushDistinguishesFailureReasons) {
  // The blocking push names why it refused: a stale ticket (a permanent
  // ordering error) versus a closed stream — including for a producer that
  // was already parked on a full queue when the stream closed.
  UpdateStreamOptions opts;
  opts.queue_capacity = 1;
  UpdateStream stream(opts);
  ASSERT_EQ(stream.Push(EdgeUpdate::Insert(0, 1), 7), PushError::kNone);

  EXPECT_EQ(stream.Push(EdgeUpdate::Insert(1, 2), 7), PushError::kStaleTicket);

  std::atomic<bool> returned{false};
  PushError parked_err = PushError::kNone;
  std::thread producer([&] {
    parked_err = stream.Push(EdgeUpdate::Insert(1, 2), 8);  // queue full
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  stream.Close();
  producer.join();
  EXPECT_EQ(parked_err, PushError::kClosed);
  EXPECT_EQ(stream.last_ts(), 7u);  // the refused ticket left no trace
  EXPECT_EQ(stream.Push(EdgeUpdate::Insert(1, 2), 9), PushError::kClosed);
}

TEST(UpdateStreamTest, TryPushWithTsReportsEveryReason) {
  UpdateStreamOptions opts;
  opts.queue_capacity = 1;
  UpdateStream stream(opts);

  EXPECT_EQ(stream.TryPush(EdgeUpdate::Insert(0, 1), 3), PushError::kNone);

  // Queue full, fresh ticket: kWouldBlock — the net server's parked-op
  // path keys off this to pause reads instead of blocking the loop.
  EXPECT_EQ(stream.TryPush(EdgeUpdate::Insert(1, 2), 4),
            PushError::kWouldBlock);

  // Stale beats full: order violations are permanent, report them first.
  EXPECT_EQ(stream.TryPush(EdgeUpdate::Insert(1, 2), 3),
            PushError::kStaleTicket);

  stream.Close();
  EXPECT_EQ(stream.TryPush(EdgeUpdate::Insert(1, 2), 9), PushError::kClosed);
}

// ---------------------------------------------------------------------------
// The single applier (a K=1 pool) against a live engine
// ---------------------------------------------------------------------------

struct ApplierFixture {
  Graph graph = ChainGraph({"A", "B", "C", "D"});
  EngineOptions opts;
  ApplierPoolOptions po;

  ApplierFixture() {
    opts.pool.num_threads = 2;
    po.num_appliers = 1;
  }
};

obs::MetricsSnapshot Metrics(const QueryEngine& engine) {
  return engine.metrics()->TakeSnapshot();
}

/// The zero-silent-drops identity: every ingested op was applied,
/// coalesced away, or explicitly dropped.
void ExpectOpsBalanced(const obs::MetricsSnapshot& m) {
  EXPECT_EQ(m.CounterValue("stream.ops_ingested"),
            m.CounterValue("stream.ops_applied") +
                m.CounterValue("stream.ops_coalesced") +
                m.CounterValue("stream.ops_dropped"));
}

TEST(StreamApplierTest, AppliesStreamedOpsAndStampsWatermark) {
  ApplierFixture f;
  QueryEngine engine(f.graph, f.opts);
  ApplierPool pool(&engine, f.po);

  // 0->2 and 1->3 are absent in the chain; stream them in.
  pool.Push(EdgeUpdate::Insert(0, 2));
  pool.Push(EdgeUpdate::Insert(1, 3));
  ASSERT_TRUE(pool.FlushAndWait().ok());

  EXPECT_EQ(engine.num_graph_edges(), 5u);
  EXPECT_EQ(engine.applied_through_ts(), 2u);

  const obs::MetricsSnapshot m = Metrics(engine);
  EXPECT_EQ(m.CounterValue("stream.ops_ingested"), 2u);
  EXPECT_EQ(m.CounterValue("stream.ops_applied"), 2u);
  EXPECT_EQ(m.CounterValue("stream.ops_coalesced"), 0u);
  EXPECT_EQ(m.CounterValue("stream.ops_dropped"), 0u);
  EXPECT_GE(m.CounterValue("stream.batches_applied"), 1u);
  EXPECT_EQ(m.GaugeValue("stream.applied_through_ts"), 2.0);
  EXPECT_EQ(m.CounterValue("stream.flushes"), 1u);
  EXPECT_GE(m.CounterValue("engine.update_batches"), 1u);
  EXPECT_EQ(m.CounterValue("engine.edges_inserted"), 2u);
  ASSERT_TRUE(pool.Stop().ok());
}

TEST(StreamApplierTest, QueryResponsesCarryVersionAndWatermark) {
  ApplierFixture f;
  QueryEngine engine(f.graph, f.opts);
  ApplierPool pool(&engine, f.po);

  Pattern q = ChainPattern({"A", "B"});
  QueryResponse before = engine.Query(q);
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.applied_through_ts, 0u);

  const uint64_t ts = pool.Push(EdgeUpdate::Insert(0, 2));
  ASSERT_TRUE(pool.FlushAndWait().ok());

  QueryResponse after = engine.Query(q);
  ASSERT_TRUE(after.status.ok());
  // Read-your-writes through the watermark: the snapshot the query read
  // has applied through our push's timestamp, and versions are monotone.
  EXPECT_GE(after.applied_through_ts, ts);
  EXPECT_GT(after.snapshot_version, before.snapshot_version);
  ASSERT_TRUE(pool.Stop().ok());
}

TEST(StreamApplierTest, FlushOnEmptyStreamReturnsImmediately) {
  ApplierFixture f;
  QueryEngine engine(f.graph, f.opts);
  ApplierPool pool(&engine, f.po);
  EXPECT_TRUE(pool.FlushAndWait().ok());
  EXPECT_EQ(engine.applied_through_ts(), 0u);
  EXPECT_TRUE(pool.Stop().ok());
  // Stop is idempotent and keeps returning the final status.
  EXPECT_TRUE(pool.Stop().ok());
}

TEST(StreamApplierTest, ContradictingOpsFollowStreamOrderNotSetSemantics) {
  ApplierFixture f;
  QueryEngine engine(f.graph, f.opts);
  ApplierPool pool(&engine, f.po);

  // insert then delete of the same (absent) edge: sequential semantics end
  // with the edge absent. (A raw one-batch set-semantics apply would end
  // with it present — the coalescing discipline is what keeps the stream
  // faithful to enqueue order; see update_stream.h.)
  pool.Push(EdgeUpdate::Insert(0, 3));
  pool.Push(EdgeUpdate::Delete(0, 3));
  ASSERT_TRUE(pool.FlushAndWait().ok());
  EXPECT_EQ(engine.num_graph_edges(), 3u);

  // And the reverse pair on an existing edge: delete then re-insert keeps it.
  pool.Push(EdgeUpdate::Delete(0, 1));
  pool.Push(EdgeUpdate::Insert(0, 1));
  ASSERT_TRUE(pool.FlushAndWait().ok());
  EXPECT_EQ(engine.num_graph_edges(), 3u);
  ASSERT_TRUE(pool.Stop().ok());
}

TEST(StreamApplierTest, QuarantineRetainsOpsUntilStopSettlesThemAsDrops) {
  ApplierFixture f;
  QueryEngine engine(f.graph, f.opts);
  ApplierPool pool(&engine, f.po);

  // Node 99 does not exist: the micro-batch fails validation up front —
  // a deterministic failure, so the applier quarantines without burning
  // backoff retries, and producers see kResourceExhausted backpressure.
  pool.Push(EdgeUpdate::Insert(0, 99));
  Status st = pool.FlushAndWait();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted);
  EXPECT_TRUE(pool.slice_quarantined(0));
  EXPECT_EQ(Metrics(engine).GaugeValue("stream.redo_depth"), 1.0);

  // Later (valid) ops are *retained* behind the quarantine — not applied,
  // but not silently dropped either — and flush still returns.
  pool.Push(EdgeUpdate::Insert(0, 2));
  EXPECT_EQ(pool.FlushAndWait().code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(engine.num_graph_edges(), 3u);  // chain untouched

  obs::MetricsSnapshot m = Metrics(engine);
  // Deferred accounting: the quarantined batch's ops count only when the
  // redo entry resolves, so no snapshot ever shows a silent drop.
  EXPECT_EQ(m.CounterValue("stream.ops_dropped"), 0u);
  EXPECT_EQ(m.CounterValue("stream.ops_applied"), 0u);
  EXPECT_EQ(m.CounterValue("stream.apply_failures"), 1u);
  EXPECT_EQ(m.CounterValue("stream.quarantines"), 1u);
  EXPECT_EQ(m.GaugeValue("stream.applied_through_ts"), 0.0);
  EXPECT_EQ(engine.quarantined_slices(), 1u);

  // Only Stop() on a quarantined applier gives up the retained ops —
  // settled as *explicit* drops, keeping the accounting identity intact.
  EXPECT_FALSE(pool.Stop().ok());
  m = Metrics(engine);
  EXPECT_EQ(m.CounterValue("stream.ops_dropped"), 2u);
  ExpectOpsBalanced(m);
  EXPECT_EQ(m.GaugeValue("stream.redo_depth"), 0.0);
  EXPECT_EQ(engine.quarantined_slices(), 0u);  // teardown balances the flag
}

TEST(StreamApplierTest, TransientFaultRetriesInPlaceAndSucceeds) {
  ApplierFixture f;
  FaultInjector fault(71);
  FaultPointSpec spec;
  spec.fire_on = {1};  // only the first commit attempt fails
  fault.Arm("stream.apply", spec);
  f.opts.fault = &fault;
  QueryEngine engine(f.graph, f.opts);
  f.po.retry.max_attempts = 3;
  f.po.retry.backoff_base_ms = 0.1;
  f.po.retry.backoff_max_ms = 0.5;
  ApplierPool pool(&engine, f.po);

  pool.Push(EdgeUpdate::Insert(0, 2));
  ASSERT_TRUE(pool.FlushAndWait().ok());
  EXPECT_FALSE(pool.slice_quarantined(0));
  EXPECT_EQ(engine.num_graph_edges(), 4u);
  EXPECT_EQ(engine.applied_through_ts(), 1u);

  const obs::MetricsSnapshot m = Metrics(engine);
  EXPECT_EQ(m.CounterValue("stream.apply_failures"), 1u);
  EXPECT_GE(m.CounterValue("stream.retries"), 1u);
  EXPECT_EQ(m.CounterValue("stream.quarantines"), 0u);
  EXPECT_EQ(m.CounterValue("stream.ops_dropped"), 0u);
  EXPECT_EQ(fault.fired("stream.apply"), 1u);
  ASSERT_TRUE(pool.Stop().ok());
}

TEST(StreamApplierTest, StatsInvariantsHoldAfterBurst) {
  ApplierFixture f;
  QueryEngine engine(f.graph, f.opts);
  f.po.stream.queue_capacity = 64;
  f.po.max_batch = 8;
  ApplierPool pool(&engine, f.po);

  // Toggle the same edge many times: heavy coalescing; an odd toggle count
  // ends on an insert.
  constexpr size_t kToggles = 101;
  for (size_t i = 0; i < kToggles; ++i) {
    pool.Push(i % 2 == 0 ? EdgeUpdate::Insert(0, 2)
                         : EdgeUpdate::Delete(0, 2));
  }
  ASSERT_TRUE(pool.FlushAndWait().ok());
  EXPECT_EQ(engine.num_graph_edges(), 4u);  // 3 chain edges + 0->2

  const obs::MetricsSnapshot m = Metrics(engine);
  EXPECT_EQ(m.CounterValue("stream.ops_ingested"), kToggles);
  ExpectOpsBalanced(m);
  EXPECT_EQ(m.GaugeValue("stream.applied_through_ts"),
            static_cast<double>(kToggles));
  EXPECT_LE(m.GaugeValue("stream.max_batch_size"),
            static_cast<double>(f.po.max_batch));
  // One histogram record per applied batch, of its true (post-coalesce)
  // size, so the sizes sum to the applied ops.
  const obs::HistogramSnapshot* sizes = m.FindHistogram("stream.batch_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count, m.CounterValue("stream.batches_applied"));
  EXPECT_EQ(sizes->sum, m.CounterValue("stream.ops_applied"));
  EXPECT_GE(m.GaugeValue("stream.publish_lag_ms_max"), 0.0);
  ASSERT_TRUE(pool.Stop().ok());
}

TEST(StreamApplierTest, DestructorStopsCleanlyWithPendingOps) {
  ApplierFixture f;
  QueryEngine engine(f.graph, f.opts);
  {
    ApplierPool pool(&engine, f.po);
    for (int i = 0; i < 16; ++i) {
      pool.Push(i % 2 == 0 ? EdgeUpdate::Insert(0, 2)
                           : EdgeUpdate::Delete(0, 2));
    }
    // No flush: the destructor closes the stream and drains the remainder.
  }
  EXPECT_EQ(Metrics(engine).CounterValue("stream.ops_ingested"), 16u);
  EXPECT_EQ(engine.num_graph_edges(), 3u);  // 16 toggles end on delete
}

TEST(StreamApplierTest, BatchBucketPartitionsPowersOfTwo) {
  // stream.batch_size records each applied batch's true size into the
  // registry's power-of-two buckets (bucket 0 holds sizes <= 1, bucket b
  // holds [2^b, 2^(b+1))). Batch sizes are made deterministic by parking
  // the applier: the first batch (one op) quarantines, five more ops queue
  // up behind it, and after revival the replayed batch (size 1) is
  // followed by one drain of all five (size 5 -> bucket 2).
  ApplierFixture f;
  FaultInjector fault(74);
  FaultPointSpec spec;
  spec.fire_on = {1};
  fault.Arm("stream.apply", spec);
  f.opts.fault = &fault;
  QueryEngine engine(f.graph, f.opts);
  f.po.retry.max_attempts = 1;
  ApplierPool pool(&engine, f.po);

  ASSERT_NE(pool.Push(EdgeUpdate::Insert(0, 2)), 0u);
  ASSERT_EQ(pool.FlushAndWait().code(), Status::Code::kResourceExhausted);
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 3}, {1, 3}, {2, 0}, {3, 0}, {3, 1}}) {
    ASSERT_NE(pool.Push(EdgeUpdate::Insert(u, v)), 0u);
  }
  ASSERT_TRUE(pool.ReviveSlice(0).ok());
  ASSERT_TRUE(pool.FlushAndWait().ok());

  const obs::MetricsSnapshot m = Metrics(engine);
  const obs::HistogramSnapshot* sizes = m.FindHistogram("stream.batch_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count, 2u);
  EXPECT_EQ(sizes->sum, 6u);  // true sizes, not bucket representatives
  ASSERT_GE(sizes->buckets.size(), 3u);
  EXPECT_EQ(sizes->buckets[0], 1u);
  EXPECT_EQ(sizes->buckets[1], 0u);
  EXPECT_EQ(sizes->buckets[2], 1u);
  EXPECT_EQ(m.GaugeValue("stream.max_batch_size"), 5.0);
  ASSERT_TRUE(pool.Stop().ok());
}

// ---------------------------------------------------------------------------
// ApplierPool routing, admission and watermark regressions
// ---------------------------------------------------------------------------

TEST(ApplierPoolTest, PushAssignsDenseMonotoneTimestamps) {
  ApplierFixture f;
  QueryEngine engine(f.graph, f.opts);
  f.po.num_appliers = 2;
  ApplierPool pool(&engine, f.po);
  EXPECT_EQ(pool.last_assigned_ts(), 0u);
  EXPECT_EQ(pool.Push(EdgeUpdate::Insert(0, 2)), 1u);
  EXPECT_EQ(pool.Push(EdgeUpdate::Delete(0, 2)), 2u);
  EXPECT_EQ(pool.Push(EdgeUpdate::Insert(1, 3)), 3u);
  EXPECT_EQ(pool.last_assigned_ts(), 3u);
  EXPECT_EQ(pool.ops_routed(0) + pool.ops_routed(1), 3u);
  ASSERT_TRUE(pool.Stop().ok());
}

TEST(ApplierPoolTest, BackpressureNeverWedgesWatermarkRefresh) {
  ApplierFixture f;
  QueryEngine engine(f.graph, f.opts);
  f.po.num_appliers = 2;
  f.po.stream.queue_capacity = 1;  // every second push hits backpressure
  f.po.max_batch = 1;              // a watermark refresh after every op
  ApplierPool pool(&engine, f.po);

  // Two producers, each toggling its own edge, against single-op queues.
  // Regression: Push used to hold the pool mutex across the blocking
  // enqueue, deadlocking against the applier thread's RefreshWatermark
  // (which needs that mutex before the applier can drain again) as soon
  // as a slice queue filled.
  constexpr uint64_t kOpsPerProducer = 128;  // even: toggles end on delete
  auto produce = [&pool](NodeId u, NodeId v) {
    for (uint64_t i = 0; i < kOpsPerProducer; ++i) {
      EdgeUpdate op = (i % 2 == 0) ? EdgeUpdate::Insert(u, v)
                                   : EdgeUpdate::Delete(u, v);
      EXPECT_NE(pool.Push(op), 0u);
    }
  };
  std::thread t1([&produce] { produce(0, 2); });
  std::thread t2([&produce] { produce(1, 3); });
  t1.join();
  t2.join();

  ASSERT_TRUE(pool.FlushAndWait().ok());
  EXPECT_EQ(pool.last_assigned_ts(), 2 * kOpsPerProducer);
  EXPECT_EQ(engine.applied_through_ts(), 2 * kOpsPerProducer);
  EXPECT_EQ(engine.num_graph_edges(), 3u);  // both edges toggled away
  EXPECT_EQ(Metrics(engine).CounterValue("stream.ops_ingested"),
            2 * kOpsPerProducer);
  ASSERT_TRUE(pool.Stop().ok());
}

TEST(ApplierPoolTest, QuarantinedApplierPinsWatermark) {
  ApplierFixture f;
  QueryEngine engine(f.graph, f.opts);
  f.po.num_appliers = 2;
  ApplierPool pool(&engine, f.po);

  // Node 99 does not exist: the op's micro-batch fails validation up
  // front and leaves its slice's applier quarantined.
  const size_t bad_slice = ApplierPool::SliceOf(0, 99, 2);
  ASSERT_EQ(pool.Push(EdgeUpdate::Insert(0, 99)), 1u);
  Status flush = pool.FlushAndWait();
  EXPECT_EQ(flush.code(), Status::Code::kResourceExhausted);
  EXPECT_TRUE(pool.slice_quarantined(bad_slice));

  // A valid op routed to the *other* slice still applies. (Any new edge
  // over the chain's 4 nodes will do, as long as it hashes elsewhere.)
  const std::vector<std::pair<NodeId, NodeId>> candidates = {
      {0, 2}, {0, 3}, {1, 3}, {2, 0}, {3, 0}, {3, 1},
      {1, 0}, {2, 1}, {3, 2}};
  EdgeUpdate good = EdgeUpdate::Insert(0, 2);
  bool found = false;
  for (const auto& [u, v] : candidates) {
    if (ApplierPool::SliceOf(u, v, 2) != bad_slice) {
      good = EdgeUpdate::Insert(u, v);
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  ASSERT_EQ(pool.Push(good), 2u);
  EXPECT_FALSE(pool.FlushAndWait().ok());  // quarantine still surfaces
  EXPECT_EQ(engine.num_graph_edges(), 4u);  // healthy slice applied it

  // Regression: a failed applier that kept *consuming* (discarding) ops
  // would let the pool's heartbeat advance its slice clock — publishing a
  // watermark covering an op that never applied. The quarantined slice is
  // never heartbeated, so the watermark pins at its last successful apply
  // (here: ts 0) while the retained op waits in the redo log.
  EXPECT_EQ(engine.applied_through_ts(), 0u);
  EXPECT_EQ(engine.stream_slice_versions().MinSlice(), 0u);

  // So a read-your-writes wait on the retained ticket times out rather
  // than acking a hole.
  EXPECT_EQ(engine.WaitForWatermark(1, 20.0).code(),
            Status::Code::kDeadlineExceeded);
  EXPECT_FALSE(pool.Stop().ok());
}

TEST(ApplierPoolTest, ReviveReplaysRedoLogAndUnpinsWatermark) {
  ApplierFixture f;
  FaultInjector fault(72);
  FaultPointSpec spec;
  spec.fire_on = {1};  // exactly the first streamed commit fails
  fault.Arm("stream.apply", spec);
  f.opts.fault = &fault;
  QueryEngine engine(f.graph, f.opts);
  f.po.retry.max_attempts = 1;  // no in-place retry: straight to redo
  ApplierPool pool(&engine, f.po);

  ASSERT_EQ(pool.Push(EdgeUpdate::Insert(0, 2)), 1u);
  EXPECT_EQ(pool.FlushAndWait().code(), Status::Code::kResourceExhausted);
  ASSERT_TRUE(pool.slice_quarantined(0));
  EXPECT_EQ(engine.applied_through_ts(), 0u);  // watermark pinned
  EXPECT_EQ(engine.quarantined_slices(), 1u);

  // While quarantined, responses carry the degraded marker.
  Pattern q = ChainPattern({"A", "B"});
  QueryResponse during = engine.Query(q);
  ASSERT_TRUE(during.status.ok());
  EXPECT_TRUE(during.degraded);

  // The schedule only fired on hit 1, so revival replays the redo log
  // cleanly, reintegrates the slice clock, and the watermark catches up.
  ASSERT_TRUE(pool.ReviveSlice(0).ok());
  EXPECT_FALSE(pool.slice_quarantined(0));
  EXPECT_EQ(engine.quarantined_slices(), 0u);
  ASSERT_TRUE(pool.FlushAndWait().ok());
  EXPECT_EQ(engine.applied_through_ts(), 1u);
  EXPECT_EQ(engine.num_graph_edges(), 4u);

  // Read-your-writes on the replayed ticket now succeeds.
  QueryOptions qo;
  qo.min_applied_ts = 1;
  QueryResponse after = engine.Query(q, qo);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.degraded);
  EXPECT_GE(after.applied_through_ts, 1u);

  const obs::MetricsSnapshot m = Metrics(engine);
  EXPECT_EQ(m.CounterValue("stream.quarantines"), 1u);
  EXPECT_EQ(m.CounterValue("stream.revives"), 1u);
  EXPECT_EQ(m.CounterValue("stream.ops_dropped"), 0u);
  ExpectOpsBalanced(m);
  ASSERT_TRUE(pool.Stop().ok());  // healthy again: clean stop
}

TEST(ApplierPoolTest, StopKeepsReturningTheQuarantineFailure) {
  // Regression: a second Stop() returned OK even after the first returned
  // the quarantine failure, although Stop promises the first sticky
  // failure on every call.
  ApplierFixture f;
  FaultInjector fault(75);
  FaultPointSpec spec;
  spec.probability = 1.0;  // every streamed commit fails
  fault.Arm("stream.apply", spec);
  f.opts.fault = &fault;
  QueryEngine engine(f.graph, f.opts);
  f.po.retry.max_attempts = 1;
  ApplierPool pool(&engine, f.po);

  ASSERT_NE(pool.Push(EdgeUpdate::Insert(0, 2)), 0u);
  EXPECT_EQ(pool.FlushAndWait().code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(pool.Stop().code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(pool.Stop().code(), Status::Code::kResourceExhausted);
}

TEST(ApplierPoolTest, TryPushFastFailsOnQuarantinedSlice) {
  ApplierFixture f;
  QueryEngine engine(f.graph, f.opts);
  ApplierPool pool(&engine, f.po);

  ASSERT_EQ(pool.Push(EdgeUpdate::Insert(0, 99)), 1u);  // validation fails
  EXPECT_FALSE(pool.FlushAndWait().ok());
  ASSERT_TRUE(pool.slice_quarantined(0));

  // Producers get explicit backpressure instead of feeding a parked slice,
  // and the refusal burns no ticket.
  uint64_t ts = 0;
  EXPECT_EQ(pool.TryPush(EdgeUpdate::Insert(0, 2), &ts),
            ApplierPool::TryPushResult::kQuarantined);
  EXPECT_EQ(ts, 0u);
  EXPECT_EQ(pool.last_assigned_ts(), 1u);
  EXPECT_EQ(pool.ops_routed(0), 1u);
  EXPECT_FALSE(pool.Stop().ok());
}

TEST(ApplierPoolTest, TryPushWouldBlockOnFullSliceBurnsNoTicket) {
  ApplierFixture f;
  FaultInjector fault(73);
  FaultPointSpec spec;
  spec.probability = 1.0;  // every commit attempt fails: applier stays busy
  fault.Arm("stream.apply", spec);
  f.opts.fault = &fault;
  QueryEngine engine(f.graph, f.opts);
  f.po.stream.queue_capacity = 1;
  f.po.retry.max_attempts = 1000;  // keeps retrying for the whole test
  f.po.retry.backoff_base_ms = 20.0;
  f.po.retry.backoff_max_ms = 50.0;
  ApplierPool pool(&engine, f.po);

  // First op drains immediately and wedges the applier in its retry loop;
  // the second fills the single-slot queue.
  ASSERT_NE(pool.Push(EdgeUpdate::Insert(0, 2)), 0u);
  ASSERT_NE(pool.Push(EdgeUpdate::Insert(1, 3)), 0u);

  // The third would block in Push; TryPush refuses it at once, before a
  // ticket is assigned, so retrying later leaves no watermark hole.
  uint64_t ts = 0;
  EXPECT_EQ(pool.TryPush(EdgeUpdate::Insert(2, 0), &ts),
            ApplierPool::TryPushResult::kWouldBlock);
  EXPECT_EQ(ts, 0u);
  EXPECT_EQ(pool.last_assigned_ts(), 2u);
  EXPECT_EQ(pool.ops_routed(0), 2u);

  EXPECT_FALSE(pool.Stop().ok());  // retries exhausted by shutdown
  // Whatever was accepted is accounted — nothing silently vanishes.
  ExpectOpsBalanced(Metrics(engine));
}

TEST(ApplierPoolTest, TryPushAfterStopReturnsStopped) {
  ApplierFixture f;
  QueryEngine engine(f.graph, f.opts);
  ApplierPool pool(&engine, f.po);
  uint64_t ts = 0;
  ASSERT_EQ(pool.TryPush(EdgeUpdate::Insert(0, 2), &ts),
            ApplierPool::TryPushResult::kOk);
  EXPECT_EQ(ts, 1u);
  ASSERT_TRUE(pool.Stop().ok());

  ts = 0;
  EXPECT_EQ(pool.TryPush(EdgeUpdate::Insert(1, 3), &ts),
            ApplierPool::TryPushResult::kStopped);
  EXPECT_EQ(ts, 0u);
  EXPECT_EQ(pool.last_assigned_ts(), 1u);
  EXPECT_EQ(pool.ops_routed(0), 1u);
}

TEST(ApplierPoolTest, PoolOnEngineWithHistoryResumesTickets) {
  ApplierFixture f;
  QueryEngine engine(f.graph, f.opts);
  uint64_t history_ts = 0;
  {
    ApplierPoolOptions po;
    po.num_appliers = 2;
    ApplierPool pool(&engine, po);
    ASSERT_NE(pool.Push(EdgeUpdate::Insert(0, 2)), 0u);
    ASSERT_NE(pool.Push(EdgeUpdate::Delete(0, 2)), 0u);
    ASSERT_NE(pool.Push(EdgeUpdate::Insert(0, 2)), 0u);
    ASSERT_TRUE(pool.FlushAndWait().ok());
    history_ts = pool.last_assigned_ts();
    EXPECT_EQ(history_ts, 3u);
    EXPECT_EQ(engine.applied_through_ts(), history_ts);
    ASSERT_TRUE(pool.Stop().ok());
  }

  // A second pool (different width) on the same engine: the published
  // watermark must survive the reconfigure with the fresh slice clocks
  // seeded to it, and tickets must resume *above* it. Regression: tickets
  // used to restart at 1, so a min_applied_ts wait on a fresh ticket was
  // instantly satisfied by the stale watermark before the op applied.
  ApplierPoolOptions po2;
  po2.num_appliers = 3;
  ApplierPool pool2(&engine, po2);
  EXPECT_EQ(engine.applied_through_ts(), history_ts);
  EXPECT_EQ(engine.stream_slice_versions().MinSlice(), history_ts);

  const uint64_t ts = pool2.Push(EdgeUpdate::Insert(0, 3));
  EXPECT_EQ(ts, history_ts + 1);
  ASSERT_TRUE(pool2.FlushAndWait().ok());
  EXPECT_EQ(engine.applied_through_ts(), history_ts + 1);
  EXPECT_EQ(engine.num_graph_edges(), 5u);  // chain + 0->2 + 0->3
  ASSERT_TRUE(pool2.Stop().ok());
}

}  // namespace
}  // namespace gpmv
