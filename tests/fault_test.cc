/// \file fault_test.cc
/// \brief Unit tests for the failure-domain machinery outside the stream
/// path (which tests/stream_test.cc owns): FaultInjector schedule /
/// probability / spec-parsing semantics, exporter write-failure accounting
/// (the pinned obs.export_failures counter + retry-next-interval contract),
/// executor admission control (shed_when_saturated and the executor.task
/// fault point), and query deadlines (clean kDeadlineExceeded, no leaked
/// pins, no cache drift).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "engine/executor.h"
#include "engine/query_engine.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace gpmv {
namespace {

using testutil::ChainGraph;
using testutil::ChainPattern;

// ---------------------------------------------------------------------------
// FaultInjector semantics
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, FireOnScheduleFiresExactlyTheListedHits) {
  FaultInjector fault(1);
  FaultPointSpec spec;
  spec.fire_on = {2, 4};
  fault.Arm("stream.apply", spec);

  std::vector<bool> decisions;
  for (int i = 0; i < 5; ++i) decisions.push_back(fault.ShouldFail("stream.apply"));
  EXPECT_EQ(decisions, (std::vector<bool>{false, true, false, true, false}));
  EXPECT_EQ(fault.hits("stream.apply"), 5u);
  EXPECT_EQ(fault.fired("stream.apply"), 2u);
  EXPECT_EQ(fault.total_fired(), 2u);

  // Unarmed points never fire but the disarmed fast path still answers.
  EXPECT_FALSE(fault.ShouldFail("snapshot.refreeze"));
}

TEST(FaultInjectorTest, ProbabilityStreamIsDeterministicPerSeedAndPoint) {
  auto decisions = [](uint64_t seed) {
    FaultInjector fault(seed);
    FaultPointSpec spec;
    spec.probability = 0.5;
    fault.Arm("stream.apply", spec);
    std::vector<bool> out;
    for (int i = 0; i < 64; ++i) out.push_back(fault.ShouldFail("stream.apply"));
    return out;
  };
  // Same seed reproduces the exact decision stream — (seed, schedule) pairs
  // are replayable, which is what makes chaos failures debuggable.
  EXPECT_EQ(decisions(7), decisions(7));

  // Degenerate probabilities behave as advertised.
  FaultInjector fault(9);
  FaultPointSpec never, always;
  never.probability = 0.0;
  always.probability = 1.0;
  fault.Arm("a", never);
  fault.Arm("b", always);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(fault.ShouldFail("a"));
    EXPECT_TRUE(fault.ShouldFail("b"));
  }
}

TEST(FaultInjectorTest, LimitCapsTotalFiresAndDisarmStopsFiring) {
  FaultInjector fault(3);
  FaultPointSpec spec;
  spec.probability = 1.0;
  spec.limit = 2;
  fault.Arm("executor.task", spec);
  int fired = 0;
  for (int i = 0; i < 10; ++i) fired += fault.ShouldFail("executor.task") ? 1 : 0;
  EXPECT_EQ(fired, 2);

  FaultPointSpec unlimited;
  unlimited.probability = 1.0;
  fault.Arm("executor.task", unlimited);  // re-arm resets counters
  EXPECT_TRUE(fault.ShouldFail("executor.task"));
  fault.Disarm("executor.task");
  EXPECT_FALSE(fault.ShouldFail("executor.task"));
  EXPECT_GE(fault.fired("executor.task"), 1u);  // counters stay readable
}

TEST(FaultInjectorTest, ArmFromSpecParsesSchedulesAndProbabilities) {
  FaultInjector fault(5);
  ASSERT_TRUE(
      fault.ArmFromSpec("stream.apply@2+4;exporter.write%1.0").ok());

  EXPECT_FALSE(fault.ShouldFail("stream.apply"));
  EXPECT_TRUE(fault.ShouldFail("stream.apply"));
  EXPECT_FALSE(fault.ShouldFail("stream.apply"));
  EXPECT_TRUE(fault.ShouldFail("stream.apply"));
  EXPECT_TRUE(fault.ShouldFail("exporter.write"));

  EXPECT_FALSE(fault.ArmFromSpec("nodelim").ok());
  EXPECT_FALSE(fault.ArmFromSpec("p%notanumber").ok());
  EXPECT_FALSE(fault.ArmFromSpec("p%1.5").ok());  // probability out of range
  EXPECT_FALSE(fault.ArmFromSpec("p@zero").ok());
  EXPECT_FALSE(fault.ArmFromSpec("@3").ok());  // empty point name
}

TEST(FaultInjectorTest, InjectedFaultStatusNamesThePoint) {
  Status st = FaultInjector::InjectedFault("stream.apply");
  EXPECT_EQ(st.code(), Status::Code::kIOError);
  EXPECT_NE(st.ToString().find("injected fault: stream.apply"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Exporter write failures
// ---------------------------------------------------------------------------

TEST(ExporterFaultTest, WriteFailureCountsPinnedMetricAndRetriesNextTick) {
  FaultInjector fault(11);
  FaultPointSpec spec;
  spec.fire_on = {1};  // exactly the first snapshot write fails
  fault.Arm("exporter.write", spec);

  obs::MetricsRegistry reg;
  reg.FindOrCreateCounter("engine.queries")->Add(3);
  const std::string path = ::testing::TempDir() + "fault_exporter.jsonl";
  {
    obs::MetricsExporter::Options eo;
    eo.path = path;
    eo.interval_ms = 5;
    eo.fault = &fault;
    obs::MetricsExporter exporter(&reg, eo);
    ASSERT_TRUE(exporter.ok());
    // Let a few intervals elapse so the failed first write is followed by
    // successful retries.
    while (exporter.snapshots_written() < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    exporter.Stop();
    EXPECT_EQ(exporter.export_failures(), 1u);
    EXPECT_GE(exporter.snapshots_written(), 3u);
  }

  // The dropped sample is gone but later lines landed, and the pinned
  // counter rode along in them.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  EXPECT_NE(contents.find("\"obs.export_failures\":1"), std::string::npos)
      << contents;
  EXPECT_EQ(fault.fired("exporter.write"), 1u);
}

// ---------------------------------------------------------------------------
// Executor admission control
// ---------------------------------------------------------------------------

TEST(ExecutorShedTest, SaturatedQueueFastFailsWhenShedding) {
  ThreadPoolOptions opts;
  opts.num_threads = 1;
  opts.queue_capacity = 1;
  opts.shed_when_saturated = true;
  ThreadPool pool(opts);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  auto blocker = [&] {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
  };
  ASSERT_TRUE(pool.Submit(blocker).ok());  // occupies the single worker
  // Wait until the worker dequeued the blocker, then fill the queue.
  while (pool.stats().executed < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pool.Submit(blocker).ok());  // fills the single queue slot

  Status st = pool.Submit([] {});
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted);
  EXPECT_GE(pool.stats().rejected, 1u);

  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  pool.Shutdown();
}

TEST(ExecutorShedTest, ExecutorTaskFaultRejectsAdmission) {
  FaultInjector fault(13);
  FaultPointSpec spec;
  spec.fire_on = {1};
  fault.Arm("executor.task", spec);

  ThreadPoolOptions opts;
  opts.num_threads = 1;
  opts.fault = &fault;
  ThreadPool pool(opts);

  std::atomic<int> ran{0};
  Status st = pool.Submit([&ran] { ++ran; });
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted);
  ASSERT_TRUE(pool.Submit([&ran] { ++ran; }).ok());
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(pool.stats().rejected, 1u);
}

// ---------------------------------------------------------------------------
// Query deadlines
// ---------------------------------------------------------------------------

TEST(DeadlineTest, ExpiredDeadlineFailsCleanlyWithoutCacheDrift) {
  Graph g = ChainGraph({"A", "B", "C", "D"});
  EngineOptions opts;
  opts.pool.num_threads = 2;
  QueryEngine engine(g, opts);
  ASSERT_TRUE(engine.RegisterView("ab", ChainPattern({"A", "B"})).ok());
  ASSERT_TRUE(engine.WarmViews().ok());

  Pattern q = ChainPattern({"A", "B", "C"});
  QueryOptions qo;
  qo.deadline_ms = 0.000001;  // effectively pre-expired
  QueryResponse resp = engine.Query(q, qo);
  EXPECT_EQ(resp.status.code(), Status::Code::kDeadlineExceeded);

  // Clean failure: pins unwound, nothing partial cached, metrics counted.
  EXPECT_TRUE(engine.CheckCacheConsistency(/*expect_unpinned=*/true));
  EXPECT_GE(engine.metrics()->TakeSnapshot().CounterValue(
                "engine.deadline_exceeded"),
            1u);

  // The same query without a deadline is untouched by the aborted run.
  QueryResponse ok = engine.Query(q);
  ASSERT_TRUE(ok.status.ok());
  EXPECT_TRUE(ok.result.matched());
}

TEST(DeadlineTest, DeadlineBoundsReadYourWritesWait) {
  Graph g = ChainGraph({"A", "B"});
  EngineOptions opts;
  opts.pool.num_threads = 1;
  QueryEngine engine(g, opts);

  // No applier will ever advance the watermark to 5; the deadline must cut
  // the wait far below the 2000 ms read-your-writes default.
  QueryOptions qo;
  qo.min_applied_ts = 5;
  qo.deadline_ms = 30.0;
  const auto start = std::chrono::steady_clock::now();
  QueryResponse resp = engine.Query(ChainPattern({"A", "B"}), qo);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(resp.status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_LT(waited_ms, 1000.0);
  EXPECT_GE(engine.metrics()->TakeSnapshot().CounterValue(
                "engine.deadline_exceeded"),
            1u);
}

}  // namespace
}  // namespace gpmv
