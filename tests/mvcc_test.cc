/// \file mvcc_test.cc
/// \brief Unit + integration coverage for the MVCC snapshot chain
/// (graph/mvcc.h) and its engine wiring (engine/query_engine.h):
///
///  * version-vector cut arithmetic (CoveredBy / Merge / Min / Max and the
///    width-mismatch rule);
///  * SliceClock monotonicity and the min-derived watermark;
///  * SnapshotChain publish ordering, pin/GC lifecycle (a pinned cut
///    survives the retained window until its last pin releases), and the
///    prefix-consistency rule gating `AS OF` targets;
///  * the stalled-applier watermark regression: with K slices the engine's
///    applied_through_ts derives from the *minimum* over slice clocks, so a
///    lagging slice holds the watermark back instead of publishing a hole;
///  * read-your-writes (QueryOptions::min_applied_ts): the wait resolves
///    once the watermark covers the client's op, and times out with
///    kDeadlineExceeded behind a stalled stream;
///  * `AS OF ts` ≡ prefix-replay ground truth: for every stream timestamp
///    T, a historical query against the retained cut at T must be
///    bit-identical to a fresh engine that replayed exactly the op prefix
///    <= T — with delta maintenance on and off.
///
/// Deterministic throughout (no seeds): every stream is a fixed op list
/// committed at explicit timestamps.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "graph/mvcc.h"
#include "test_util.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace gpmv {
namespace {

// ---------------------------------------------------------------------------
// VersionVector / SliceClock arithmetic
// ---------------------------------------------------------------------------

VersionVector VV(const std::vector<uint64_t>& ts) {
  VersionVector v(ts.size());
  for (size_t i = 0; i < ts.size(); ++i) v.set_slice(i, ts[i]);
  return v;
}

TEST(VersionVectorTest, CutArithmetic) {
  const VersionVector a = VV({3, 0, 7});
  const VersionVector b = VV({3, 2, 7});
  const VersionVector c = VV({1, 5, 2});

  EXPECT_TRUE(a.CoveredBy(b));
  EXPECT_FALSE(b.CoveredBy(a));
  EXPECT_TRUE(a.CoveredBy(a));  // reflexive
  EXPECT_FALSE(b.CoveredBy(c));
  EXPECT_FALSE(c.CoveredBy(b));  // incomparable cuts: neither covers

  const VersionVector m = VersionVector::Merge(b, c);
  EXPECT_EQ(m, VV({3, 5, 7}));  // componentwise least upper bound
  EXPECT_TRUE(b.CoveredBy(m));
  EXPECT_TRUE(c.CoveredBy(m));

  EXPECT_EQ(a.MinSlice(), 0u);
  EXPECT_EQ(a.MaxSlice(), 7u);
  EXPECT_EQ(c.MinSlice(), 1u);
  EXPECT_EQ(VersionVector().MinSlice(), 0u);
  EXPECT_EQ(VersionVector().MaxSlice(), 0u);
  EXPECT_EQ(a.ToString(), "[3, 0, 7]");

  // Different widths = a slice-topology change: never comparable.
  EXPECT_FALSE(VV({1, 2}).CoveredBy(VV({1, 2, 3})));
  EXPECT_FALSE(VV({1, 2, 3}).CoveredBy(VV({1, 2})));
}

TEST(SliceClockTest, MonotonePerSliceMinDerivedWatermark) {
  SliceClock clock(3);
  EXPECT_EQ(clock.num_slices(), 3u);
  EXPECT_EQ(clock.Watermark(), 0u);

  EXPECT_EQ(clock.Advance(0, 5), 0u);  // min still pinned by slices 1, 2
  EXPECT_EQ(clock.Advance(1, 3), 0u);
  EXPECT_EQ(clock.Advance(2, 4), 3u);  // last slice moves: min over {5,3,4}
  EXPECT_EQ(clock.MaxApplied(), 5u);

  // Stale advances are no-ops (commits to one slice serialize at the chain
  // head, so a late heartbeat must never regress the clock).
  EXPECT_EQ(clock.Advance(0, 2), 3u);
  EXPECT_EQ(clock.Current(), VV({5, 3, 4}));

  clock.Reset(2);
  EXPECT_EQ(clock.num_slices(), 2u);
  EXPECT_EQ(clock.Watermark(), 0u);
}

// ---------------------------------------------------------------------------
// SnapshotChain: publish ordering, pins, GC
// ---------------------------------------------------------------------------

SnapshotCut MakeCut(uint64_t version, const std::vector<uint64_t>& slices,
                    const std::shared_ptr<const GraphSnapshot>& snap) {
  SnapshotCut cut;
  cut.version = version;
  cut.slices = VV(slices);
  cut.watermark = cut.slices.MinSlice();
  cut.max_applied_ts = cut.slices.MaxSlice();
  cut.snapshot = snap;
  return cut;
}

TEST(SnapshotChainTest, PublishOrderingAndRetainedWindow) {
  Graph g = testutil::ChainGraph({"A", "B", "C"});
  const std::shared_ptr<const GraphSnapshot> snap = g.Freeze();

  SnapshotChainOptions co;
  co.retain = 2;
  SnapshotChain chain(co);
  EXPECT_FALSE(chain.PinHead().valid());  // nothing published yet

  for (uint64_t v = 1; v <= 6; ++v) {
    chain.Publish(MakeCut(v, {v}, snap));
  }
  // Head + `retain` historical cuts survive; the rest were collected.
  EXPECT_EQ(chain.head_version(), 6u);
  EXPECT_EQ(chain.head_watermark(), 6u);
  EXPECT_EQ(chain.depth(), 3u);
  EXPECT_EQ(chain.gc_collected(), 3u);

  // A same-version publish may only advance the watermark (a heartbeat
  // racing a commit): higher wins, lower is dropped.
  chain.Publish(MakeCut(6, {8}, snap));
  EXPECT_EQ(chain.head_watermark(), 8u);
  chain.Publish(MakeCut(6, {7}, snap));
  EXPECT_EQ(chain.head_watermark(), 8u);
  // An older version is a late writer that lost the race: dropped.
  chain.Publish(MakeCut(3, {9}, snap));
  EXPECT_EQ(chain.head_version(), 6u);
  EXPECT_EQ(chain.depth(), 3u);
}

TEST(SnapshotChainTest, PinAsOfPicksNewestPrefixConsistentCut) {
  Graph g = testutil::ChainGraph({"A", "B"});
  const std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  SnapshotChain chain;

  chain.Publish(MakeCut(1, {2, 2}, snap));  // watermark 2, prefix-consistent
  chain.Publish(MakeCut(2, {4, 3}, snap));  // watermark 3, NOT consistent
  chain.Publish(MakeCut(3, {5, 5}, snap));  // watermark 5, prefix-consistent

  // ts 4: the hole-y version-2 cut is skipped even though its watermark
  // fits; the newest *prefix-consistent* cut <= 4 is version 1.
  Result<SnapshotRef> r4 = chain.PinAsOf(4);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r4->cut().version, 1u);
  EXPECT_EQ(r4->cut().watermark, 2u);

  Result<SnapshotRef> r5 = chain.PinAsOf(5);
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(r5->cut().version, 3u);

  // ts 1 predates every retained prefix-consistent cut.
  Result<SnapshotRef> r1 = chain.PinAsOf(1);
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), Status::Code::kNotFound);
}

TEST(SnapshotChainTest, PinnedCutSurvivesGcUntilReleased) {
  Graph g = testutil::ChainGraph({"A", "B"});
  const std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  SnapshotChainOptions co;
  co.retain = 1;
  SnapshotChain chain(co);

  chain.Publish(MakeCut(1, {1}, snap));
  Result<SnapshotRef> pin = chain.PinAsOf(1);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(chain.pinned_cuts(), 1u);

  // Publish far past the retained window: the pinned version-1 cut must
  // survive every GC pass while the pin is live.
  for (uint64_t v = 2; v <= 8; ++v) chain.Publish(MakeCut(v, {v}, snap));
  EXPECT_EQ(chain.depth(), 3u);  // head + retain + the pinned straggler
  EXPECT_EQ(pin->cut().version, 1u);
  EXPECT_NE(pin->cut().snapshot, nullptr);

  const uint64_t collected_before = chain.gc_collected();
  pin->Release();
  EXPECT_EQ(chain.pinned_cuts(), 0u);
  EXPECT_EQ(chain.depth(), 2u);  // release re-ran GC
  EXPECT_EQ(chain.gc_collected(), collected_before + 1);
  EXPECT_FALSE(pin->valid());
  pin->Release();  // idempotent
}

TEST(SnapshotChainTest, SnapshotRefMoveTransfersThePin) {
  Graph g = testutil::ChainGraph({"A"});
  SnapshotChain chain;
  chain.Publish(MakeCut(1, {1}, g.Freeze()));

  SnapshotRef a = chain.PinHead();
  ASSERT_TRUE(a.valid());
  SnapshotRef b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): post-move test
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(chain.pinned_cuts(), 1u);
  b.Release();
  EXPECT_EQ(chain.pinned_cuts(), 0u);
}

// ---------------------------------------------------------------------------
// Engine wiring: min-derived watermark, RYW, AS OF
// ---------------------------------------------------------------------------

Graph SmallGraph() {
  RandomGraphOptions go;
  go.num_nodes = 120;
  go.num_edges = 360;
  go.num_labels = 5;
  go.seed = 404;
  return GenerateRandomGraph(go);
}

/// The stalled-applier regression: a slice that has not applied through ts
/// T pins the published watermark below T no matter how far other slices
/// ran ahead — applied_through_ts is min-derived, never a hole.
TEST(EngineWatermarkTest, LaggingSliceHoldsTheWatermarkBack) {
  QueryEngine engine(SmallGraph());
  engine.ConfigureStreamSlices(2);
  EXPECT_EQ(engine.applied_through_ts(), 0u);

  // Slice 0 commits through ts 2 while slice 1 is still at 0: the global
  // watermark must stay 0 (ops ts 1 could still be in flight to slice 1).
  ASSERT_TRUE(
      engine.ApplyStreamBatchSlice({EdgeUpdate::Insert(0, 1)}, 2, 0).ok());
  EXPECT_EQ(engine.applied_through_ts(), 0u);
  EXPECT_EQ(engine.stream_slice_versions(), VV({2, 0}));

  // Slice 1 catches up through 3: the watermark is min(2, 3) = 2 — the
  // fast slice's ts-3 op is applied but not yet *covered*.
  ASSERT_TRUE(
      engine.ApplyStreamBatchSlice({EdgeUpdate::Insert(1, 2)}, 3, 1).ok());
  EXPECT_EQ(engine.applied_through_ts(), 2u);

  // The router proves slice 0 quiet through 3 (heartbeat): watermark 3.
  engine.AdvanceStreamSlice(0, 3);
  EXPECT_EQ(engine.applied_through_ts(), 3u);
  EXPECT_EQ(engine.stream_slice_versions(), VV({3, 3}));

  // Stale heartbeats never regress anything.
  engine.AdvanceStreamSlice(0, 1);
  EXPECT_EQ(engine.applied_through_ts(), 3u);

  EXPECT_TRUE(engine.WaitForWatermark(3, 10.0).ok());
  const Status timeout = engine.WaitForWatermark(10, 30.0);
  EXPECT_EQ(timeout.code(), Status::Code::kDeadlineExceeded);
}

TEST(EngineReadYourWritesTest, QueryWaitsForTheWatermarkThenReads) {
  QueryEngine engine(SmallGraph());
  const Pattern probe = testutil::ChainPattern({"L0", "L1"});

  // The commit lands strictly after the query started waiting.
  std::thread committer([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(
        engine.ApplyStreamBatchSlice({EdgeUpdate::Insert(0, 1)}, 1, 0).ok());
  });
  QueryOptions qo;
  qo.min_applied_ts = 1;
  qo.ryw_timeout_ms = 5000.0;
  QueryResponse resp = engine.Query(probe, qo);
  committer.join();
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_GE(resp.applied_through_ts, 1u);
  const obs::MetricsSnapshot m = engine.metrics()->TakeSnapshot();
  EXPECT_GE(m.CounterValue("mvcc.ryw_waits"), 1u);
  EXPECT_EQ(m.CounterValue("mvcc.ryw_timeouts"), 0u);
}

TEST(EngineReadYourWritesTest, StalledStreamTimesOutWithDeadlineExceeded) {
  QueryEngine engine(SmallGraph());
  QueryOptions qo;
  qo.min_applied_ts = 99;  // never arrives
  qo.ryw_timeout_ms = 40.0;
  QueryResponse resp = engine.Query(testutil::ChainPattern({"L0", "L1"}), qo);
  EXPECT_FALSE(resp.status.ok());
  EXPECT_EQ(resp.status.code(), Status::Code::kDeadlineExceeded);
  // The wait fails before evaluation starts, so it counts as a RYW
  // timeout, not a failed evaluation.
  EXPECT_EQ(engine.metrics()->TakeSnapshot().CounterValue("mvcc.ryw_timeouts"),
            1u);
}

// ---------------------------------------------------------------------------
// AS OF ≡ prefix-replay ground truth
// ---------------------------------------------------------------------------

/// Fixed op stream with per-edge churn (edge (0,1) is inserted, deleted,
/// and re-inserted), so distinct prefixes produce distinct graphs.
std::vector<EdgeUpdate> AsOfOps() {
  return {EdgeUpdate::Insert(0, 1), EdgeUpdate::Insert(1, 2),
          EdgeUpdate::Delete(0, 1), EdgeUpdate::Insert(0, 1),
          EdgeUpdate::Insert(2, 3), EdgeUpdate::Delete(1, 2),
          EdgeUpdate::Insert(3, 4), EdgeUpdate::Insert(4, 5),
          EdgeUpdate::Delete(0, 1), EdgeUpdate::Insert(5, 6)};
}

std::vector<Pattern> AsOfProbes() {
  std::vector<Pattern> probes;
  for (uint64_t i = 1; i <= 3; ++i) {
    RandomPatternOptions po;
    po.num_nodes = 3;
    po.num_edges = 3;
    po.label_pool = SyntheticLabels(5);
    po.seed = 90 + i;
    probes.push_back(GenerateRandomPattern(po));
  }
  return probes;
}

class AsOfReplayTest : public ::testing::TestWithParam<bool> {
 protected:
  bool enable_delta() const { return GetParam(); }

  std::unique_ptr<QueryEngine> MakeEngine(const Graph& g) const {
    EngineOptions opts;
    opts.pool.num_threads = 2;
    opts.maintenance.enable_delta = enable_delta();
    opts.mvcc.retain = 64;  // retain the whole stream for AS OF probing
    auto engine = std::make_unique<QueryEngine>(g, opts);
    // A registered view gives head queries a view plan while AS OF must
    // still plan direct (views reflect only the head).
    EXPECT_TRUE(
        engine->RegisterView("v01", testutil::ChainPattern({"L0", "L1"}))
            .ok());
    EXPECT_TRUE(engine->WarmViews().ok());
    return engine;
  }
};

TEST_P(AsOfReplayTest, HistoricalCutsMatchPrefixReplayGroundTruth) {
  const Graph base = SmallGraph();
  const std::vector<EdgeUpdate> ops = AsOfOps();
  const std::vector<Pattern> probes = AsOfProbes();

  // Stream every op as its own slice-0 commit at ts 1..N: each publishes a
  // prefix-consistent cut with watermark exactly its ts.
  std::unique_ptr<QueryEngine> streamed = MakeEngine(base);
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(
        streamed->ApplyStreamBatchSlice({ops[i]}, i + 1, 0).ok());
  }
  ASSERT_EQ(streamed->applied_through_ts(), ops.size());

  for (uint64_t t = 1; t <= ops.size(); ++t) {
    SCOPED_TRACE("as_of=" + std::to_string(t));
    // Ground truth: a fresh engine that replayed exactly the prefix <= t.
    std::unique_ptr<QueryEngine> replay = MakeEngine(base);
    for (uint64_t i = 0; i < t; ++i) {
      ASSERT_TRUE(replay->ApplyUpdates({ops[i]}).ok());
    }
    for (const Pattern& q : probes) {
      QueryOptions qo;
      qo.as_of_ts = t;
      QueryResponse hist = streamed->Query(q, qo);
      ASSERT_TRUE(hist.status.ok()) << hist.status.ToString();
      EXPECT_TRUE(hist.as_of);
      EXPECT_EQ(hist.applied_through_ts, t);
      EXPECT_EQ(hist.plan, PlanKind::kDirect);  // historical: no views

      QueryResponse truth = replay->Query(q);
      ASSERT_TRUE(truth.status.ok()) << truth.status.ToString();
      hist.result.Normalize();
      truth.result.Normalize();
      EXPECT_TRUE(hist.result == truth.result)
          << "AS OF " << t << " diverged from prefix replay";
    }
  }

  // Head queries are unaffected by all the historical probing.
  for (const Pattern& q : probes) {
    QueryResponse head = streamed->Query(q);
    ASSERT_TRUE(head.status.ok());
    EXPECT_FALSE(head.as_of);
    EXPECT_EQ(head.applied_through_ts, ops.size());
  }
  const obs::MetricsSnapshot m = streamed->metrics()->TakeSnapshot();
  EXPECT_EQ(m.GaugeValue("mvcc.pinned_cuts"), 0.0);  // every AS OF pin released
  EXPECT_GE(m.CounterValue("mvcc.asof_queries"), ops.size() * probes.size());
  EXPECT_TRUE(streamed->CheckCacheConsistency(/*expect_unpinned=*/true));
}

INSTANTIATE_TEST_SUITE_P(
    Delta, AsOfReplayTest, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool>& info) {
      return std::string(info.param ? "delta" : "nodelta");
    });

TEST(AsOfTest, TargetOutsideRetainedWindowFailsNotFound) {
  EngineOptions opts;
  opts.mvcc.retain = 1;  // aggressive GC: only head + 1 historical cut
  QueryEngine engine(SmallGraph(), opts);
  const std::vector<EdgeUpdate> ops = AsOfOps();
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(engine.ApplyStreamBatchSlice({ops[i]}, i + 1, 0).ok());
  }

  QueryOptions qo;
  qo.as_of_ts = 1;  // long since collected
  QueryResponse resp = engine.Query(testutil::ChainPattern({"L0", "L1"}), qo);
  EXPECT_FALSE(resp.status.ok());
  EXPECT_EQ(resp.status.code(), Status::Code::kNotFound);
  const obs::MetricsSnapshot m = engine.metrics()->TakeSnapshot();
  EXPECT_EQ(m.CounterValue("mvcc.asof_misses"), 1u);
  EXPECT_GT(m.GaugeValue("mvcc.gc_collected"), 0.0);

  // The newest retained historical cut still works.
  qo.as_of_ts = ops.size() - 1;
  QueryResponse ok = engine.Query(testutil::ChainPattern({"L0", "L1"}), qo);
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
}

TEST(AsOfTest, HistoricalResultsMemoizeUnderTheirOwnCut) {
  EngineOptions opts;
  opts.mvcc.retain = 16;
  opts.result_cache.budget_bytes = 1 << 20;
  QueryEngine engine(SmallGraph(), opts);
  const std::vector<EdgeUpdate> ops = AsOfOps();
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(engine.ApplyStreamBatchSlice({ops[i]}, i + 1, 0).ok());
  }
  const Pattern probe = testutil::ChainPattern({"L0", "L1"});

  QueryOptions qo;
  qo.as_of_ts = 4;
  QueryResponse first = engine.Query(probe, qo);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.result_cached);
  QueryResponse second = engine.Query(probe, qo);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.result_cached);  // memoized under the ts-4 cut
  second.result.Normalize();
  first.result.Normalize();
  EXPECT_TRUE(second.result == first.result);

  // A *head* query of the same pattern is keyed separately: answering it
  // (and memoizing the head result) must not collide with, or be staled
  // by, the historical entry.
  QueryResponse head = engine.Query(probe);
  ASSERT_TRUE(head.status.ok());
  EXPECT_FALSE(head.as_of);
  QueryResponse head2 = engine.Query(probe);
  ASSERT_TRUE(head2.status.ok());
  EXPECT_TRUE(head2.result_cached);
  QueryResponse third = engine.Query(probe, qo);
  ASSERT_TRUE(third.status.ok());
  EXPECT_TRUE(third.result_cached);  // historical entry survived
}

}  // namespace
}  // namespace gpmv
