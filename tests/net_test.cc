/// \file net_test.cc
/// \brief The net front-end suites: protocol codec round trips and
/// robustness (truncated frames, oversized lengths, garbage bytes — all
/// sockets-free against the pure-byte-buffer codecs), EventLoop unit tests
/// (posting, timers, fd watching), and live-server tests over real TCP
/// connections on an ephemeral port (request/response semantics,
/// per-request vs framing errors, mid-frame disconnects, slow readers,
/// read-your-writes, ingest backpressure error frames, shutdown, write
/// coalescing, per-connection result order without cross-connection
/// head-of-line blocking, completions that outlive the server). The
/// malformed-input cases pin the ISSUE contract: a hostile or broken
/// client must never crash or wedge the server, only lose its own
/// connection.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "engine/query_engine.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/server.h"
#include "pattern/pattern_io.h"
#include "stream/applier_pool.h"
#include "test_util.h"

namespace gpmv {
namespace net {
namespace {

using testutil::ChainGraph;
using testutil::ChainPattern;

// ------------------------------------------------------------------ codec

std::string EncodeOne(FrameKind kind, Status::Code status, uint64_t id,
                      const std::string& payload) {
  std::string wire;
  EncodeFrame(kind, status, id, payload, &wire);
  return wire;
}

TEST(NetProtocolTest, FrameRoundTripsThroughParser) {
  std::string wire = EncodeOne(FrameKind::kQuery, Status::Code::kOk, 7, "pp");
  EncodeFrame(FrameKind::kUpdate, Status::Code::kOk, 8,
              std::string("123456789"), &wire);
  EncodeFrame(FrameKind::kStats, Status::Code::kOk, 9, std::string(), &wire);

  FrameParser p(/*require_requests=*/true);
  p.Feed(reinterpret_cast<const uint8_t*>(wire.data()), wire.size());
  ASSERT_TRUE(p.ok());

  Frame f;
  ASSERT_TRUE(p.Next(&f));
  EXPECT_EQ(f.kind, FrameKind::kQuery);
  EXPECT_EQ(f.request_id, 7u);
  EXPECT_EQ(f.payload.size(), 2u);
  ASSERT_TRUE(p.Next(&f));
  EXPECT_EQ(f.kind, FrameKind::kUpdate);
  EXPECT_EQ(f.request_id, 8u);
  ASSERT_TRUE(p.Next(&f));
  EXPECT_EQ(f.kind, FrameKind::kStats);
  EXPECT_TRUE(f.payload.empty());
  EXPECT_FALSE(p.Next(&f));
  EXPECT_EQ(p.pending_bytes(), 0u);
}

TEST(NetProtocolTest, ByteAtATimeFeedingYieldsIdenticalFrames) {
  const std::string wire =
      EncodeOne(FrameKind::kQuery, Status::Code::kOk, 42, "hello pattern");
  FrameParser p(/*require_requests=*/true);
  for (char c : wire) {
    p.Feed(reinterpret_cast<const uint8_t*>(&c), 1);
  }
  Frame f;
  ASSERT_TRUE(p.Next(&f));
  EXPECT_EQ(f.request_id, 42u);
  EXPECT_EQ(std::string(f.payload.begin(), f.payload.end()),
            "hello pattern");
}

TEST(NetProtocolTest, TruncatedFrameStaysPendingWithoutError) {
  const std::string wire =
      EncodeOne(FrameKind::kQuery, Status::Code::kOk, 1, "abcdef");
  FrameParser p(/*require_requests=*/true);
  // Everything but the last byte: no frame, no error, bytes counted.
  p.Feed(reinterpret_cast<const uint8_t*>(wire.data()), wire.size() - 1);
  Frame f;
  EXPECT_FALSE(p.Next(&f));
  EXPECT_TRUE(p.ok());
  EXPECT_EQ(p.pending_bytes(), wire.size() - 1);
  const uint8_t last = static_cast<uint8_t>(wire.back());
  p.Feed(&last, 1);
  EXPECT_TRUE(p.Next(&f));
}

TEST(NetProtocolTest, OversizedDeclaredLengthLatchesError) {
  // Header declaring a payload over kMaxPayloadBytes must fail without any
  // allocation of that size.
  std::string wire = EncodeOne(FrameKind::kQuery, Status::Code::kOk, 1, "x");
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(&wire[0], &huge, sizeof(huge));
  FrameParser p(/*require_requests=*/true);
  p.Feed(reinterpret_cast<const uint8_t*>(wire.data()), wire.size());
  Frame f;
  EXPECT_FALSE(p.Next(&f));
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.error().code(), Status::Code::kCorruption);
  // Latched: further feeds are ignored.
  const std::string good =
      EncodeOne(FrameKind::kStats, Status::Code::kOk, 2, "");
  p.Feed(reinterpret_cast<const uint8_t*>(good.data()), good.size());
  EXPECT_FALSE(p.Next(&f));
}

TEST(NetProtocolTest, UnknownKindAndNonzeroReservedLatch) {
  {
    std::string wire =
        EncodeOne(FrameKind::kQuery, Status::Code::kOk, 1, "");
    wire[4] = 99;  // kind byte
    FrameParser p(true);
    p.Feed(reinterpret_cast<const uint8_t*>(wire.data()), wire.size());
    EXPECT_FALSE(p.ok());
  }
  {
    std::string wire =
        EncodeOne(FrameKind::kQuery, Status::Code::kOk, 1, "");
    wire[6] = 1;  // reserved bytes must be zero
    FrameParser p(true);
    p.Feed(reinterpret_cast<const uint8_t*>(wire.data()), wire.size());
    EXPECT_FALSE(p.ok());
  }
}

TEST(NetProtocolTest, DirectionalityIsEnforced) {
  // A response kind on the server-side parser is a protocol error...
  const std::string resp =
      EncodeOne(FrameKind::kQueryResult, Status::Code::kOk, 1, "");
  FrameParser server_side(/*require_requests=*/true);
  server_side.Feed(reinterpret_cast<const uint8_t*>(resp.data()),
                   resp.size());
  EXPECT_FALSE(server_side.ok());
  // ...and a request kind on the client side likewise.
  const std::string req =
      EncodeOne(FrameKind::kQuery, Status::Code::kOk, 1, "p");
  FrameParser client_side(/*require_requests=*/false);
  client_side.Feed(reinterpret_cast<const uint8_t*>(req.data()), req.size());
  EXPECT_FALSE(client_side.ok());
}

TEST(NetProtocolTest, GarbageBytesNeverCrashAndMemoryStaysBounded) {
  Rng rng(20260808);
  for (int iter = 0; iter < 200; ++iter) {
    FrameParser p(iter % 2 == 0);
    std::vector<uint8_t> junk(1 + rng.NextBounded(512));
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng.NextBounded(256));
    for (size_t off = 0; off < junk.size();) {
      const size_t n = std::min<size_t>(1 + rng.NextBounded(64),
                                        junk.size() - off);
      p.Feed(junk.data() + off, n);
      off += n;
      Frame f;
      while (p.Next(&f)) {
        // A complete frame out of garbage is fine — payload validation is
        // the typed decoders' job; they must only not crash either.
        (void)DecodeQueryRequest(f.payload);
        (void)DecodeUpdateRequest(f.payload);
        (void)DecodeQueryResult(f.payload);
        (void)DecodeUpdateAck(f.payload);
      }
    }
    EXPECT_LT(p.pending_bytes(), kFrameHeaderBytes + 600u);
  }
}

TEST(NetProtocolTest, MutatedValidStreamNeverCrashes) {
  QueryRequest q;
  q.min_applied_ts = 5;
  q.pattern_text = PatternToText(ChainPattern({"A", "B", "C"}));
  std::string wire;
  EncodeFrame(FrameKind::kQuery, Status::Code::kOk, 1,
              EncodeQueryRequest(q), &wire);
  EncodeFrame(FrameKind::kUpdate, Status::Code::kOk, 2,
              EncodeUpdateRequest(EdgeUpdate::Insert(3, 4)), &wire);

  Rng rng(7);
  for (int iter = 0; iter < 300; ++iter) {
    std::string s = wire;
    switch (rng.NextBounded(3)) {
      case 0:
        s.resize(rng.NextBounded(s.size()));
        break;
      case 1:
        for (int i = 0; i < 4 && !s.empty(); ++i) {
          s[rng.NextBounded(s.size())] =
              static_cast<char>(rng.NextBounded(256));
        }
        break;
      case 2:
        s.insert(rng.NextBounded(s.size()),
                 std::string(1 + rng.NextBounded(16), '\x7f'));
        break;
    }
    FrameParser p(true);
    p.Feed(reinterpret_cast<const uint8_t*>(s.data()), s.size());
    Frame f;
    while (p.Next(&f)) {
      (void)DecodeQueryRequest(f.payload);
      (void)DecodeUpdateRequest(f.payload);
    }
  }
}

TEST(NetProtocolTest, QueryRequestPayloadRoundTrips) {
  QueryRequest q;
  q.min_applied_ts = 123;
  q.as_of_ts = 456;
  q.pattern_text = "node A label=X\n";
  const std::string payload = EncodeQueryRequest(q);
  Result<QueryRequest> back = DecodeQueryRequest(
      std::vector<uint8_t>(payload.begin(), payload.end()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->min_applied_ts, 123u);
  EXPECT_EQ(back->as_of_ts, 456u);
  EXPECT_EQ(back->pattern_text, q.pattern_text);

  // Shorter than the two leading u64s, or with no pattern text: clean
  // per-request errors.
  EXPECT_FALSE(DecodeQueryRequest(std::vector<uint8_t>(7, 0)).ok());
  EXPECT_FALSE(DecodeQueryRequest(std::vector<uint8_t>(16, 0)).ok());
}

TEST(NetProtocolTest, UpdateRequestPayloadRoundTrips) {
  for (const EdgeUpdate& op :
       {EdgeUpdate::Insert(17, 99), EdgeUpdate::Delete(0, 123456)}) {
    const std::string payload = EncodeUpdateRequest(op);
    Result<EdgeUpdate> back = DecodeUpdateRequest(
        std::vector<uint8_t>(payload.begin(), payload.end()));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->kind, op.kind);
    EXPECT_EQ(back->u, op.u);
    EXPECT_EQ(back->v, op.v);
  }
  EXPECT_FALSE(DecodeUpdateRequest(std::vector<uint8_t>(8, 0)).ok());
  EXPECT_FALSE(DecodeUpdateRequest(std::vector<uint8_t>(10, 0)).ok());
  std::vector<uint8_t> bad_kind(9, 0);
  bad_kind[0] = 7;
  EXPECT_FALSE(DecodeUpdateRequest(bad_kind).ok());
}

TEST(NetProtocolTest, QueryResultRoundTripsAndRejectsTruncation) {
  // A real response from a real engine, so the encoded match sets exercise
  // the normalized layout end to end.
  QueryEngine engine(ChainGraph({"A", "B", "C"}), EngineOptions{});
  Result<std::future<QueryResponse>> fut =
      engine.Submit(ChainPattern({"A", "B"}), QueryOptions{});
  ASSERT_TRUE(fut.ok());
  QueryResponse resp = fut->get();
  ASSERT_TRUE(resp.status.ok());
  resp.result.Normalize();

  const std::string payload = EncodeQueryResult(resp);
  Result<QueryResultFrame> back = DecodeQueryResult(
      std::vector<uint8_t>(payload.begin(), payload.end()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->matched, resp.result.matched());
  ASSERT_EQ(back->edge_matches.size(), resp.result.num_pattern_edges());
  for (uint32_t e = 0; e < resp.result.num_pattern_edges(); ++e) {
    EXPECT_EQ(back->edge_matches[e], resp.result.edge_matches(e));
  }

  // Every strict prefix must fail cleanly, never read out of bounds.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(
        DecodeQueryResult(std::vector<uint8_t>(payload.begin(),
                                               payload.begin() +
                                                   static_cast<ptrdiff_t>(
                                                       cut)))
            .ok());
  }
  // An absurd declared edge count must fail before any giant reserve.
  std::vector<uint8_t> lying(payload.begin(), payload.end());
  lying[18] = 0xff;
  lying[19] = 0xff;
  lying[20] = 0xff;
  lying[21] = 0xff;
  EXPECT_FALSE(DecodeQueryResult(lying).ok());
}

TEST(NetProtocolTest, UpdateAckRoundTrips) {
  const std::string payload = EncodeUpdateAck(0xdeadbeefcafeULL);
  Result<uint64_t> back = DecodeUpdateAck(
      std::vector<uint8_t>(payload.begin(), payload.end()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, 0xdeadbeefcafeULL);
  EXPECT_FALSE(DecodeUpdateAck(std::vector<uint8_t>(7, 0)).ok());
}

// -------------------------------------------------------------- event loop

TEST(NetEventLoopTest, PostedTasksRunOnLoopTick) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::atomic<int> ran{0};
  std::thread poster([&] {
    for (int i = 0; i < 5; ++i) loop.Post([&] { ++ran; });
  });
  poster.join();
  loop.RunOnce(50);
  EXPECT_EQ(ran.load(), 5);
}

TEST(NetEventLoopTest, TimersFireInOrderAndCancelWorks) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::vector<int> order;
  loop.RunAfter(20.0, [&] { order.push_back(2); });
  loop.RunAfter(1.0, [&] { order.push_back(1); });
  const uint64_t cancelled = loop.RunAfter(2.0, [&] { order.push_back(9); });
  loop.CancelTimer(cancelled);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (order.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    loop.RunOnce(10);
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(NetEventLoopTest, WatchDispatchesPipeReadability) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<int> events{0};
  ASSERT_TRUE(loop.Watch(fds[0], EPOLLIN, [&](uint32_t) { ++events; }).ok());
  EXPECT_EQ(loop.watched_fds(), 1u);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  loop.RunOnce(1000);
  EXPECT_EQ(events.load(), 1);
  loop.Unwatch(fds[0]);
  EXPECT_EQ(loop.watched_fds(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetEventLoopTest, AfterPassHookRunsLastInEveryPass) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::vector<std::string> order;
  loop.SetAfterPass([&] { order.push_back("pass"); });
  loop.Post([&] { order.push_back("task"); });
  loop.RunAfter(0.0, [&] { order.push_back("timer"); });
  loop.RunOnce(50);
  EXPECT_EQ(order, (std::vector<std::string>{"task", "timer", "pass"}));
  loop.RunOnce(0);  // an idle pass still ends with the hook
  EXPECT_EQ(order,
            (std::vector<std::string>{"task", "timer", "pass", "pass"}));
}

TEST(NetEventLoopTest, RequestStopMakesRunReturn) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::thread runner([&] { loop.Run(); });
  loop.RequestStop();
  runner.join();
  EXPECT_TRUE(loop.stop_requested());
}

// ------------------------------------------------------------- live server

/// Minimal blocking protocol client against 127.0.0.1:<port>.
class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  bool SendRaw(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool Send(FrameKind kind, uint64_t id, const std::string& payload) {
    std::string wire;
    EncodeFrame(kind, Status::Code::kOk, id, payload, &wire);
    return SendRaw(wire);
  }

  bool Recv(Frame* out) {
    for (;;) {
      if (parser_.Next(out)) return true;
      if (!parser_.ok()) return false;
      uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      parser_.Feed(buf, static_cast<size_t>(n));
    }
  }

  /// True once the server closes the connection (EOF with nothing pending).
  bool WaitEof() {
    Frame f;
    return !Recv(&f);
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  FrameParser parser_{/*require_requests=*/false};
};

/// Engine + pool + server on an ephemeral port, Run() on its own thread.
class NetServerTest : public ::testing::Test {
 protected:
  void Start(ServerOptions so = {}, bool with_pool = true,
             ApplierPoolOptions po = {}, FaultInjector* fault = nullptr,
             EngineOptions eo = {}) {
    eo.pool.shed_when_saturated = true;
    eo.fault = fault;
    engine_ = std::make_unique<QueryEngine>(ChainGraph({"A", "B", "C", "D"}),
                                            eo);
    if (with_pool) pool_ = std::make_unique<ApplierPool>(engine_.get(), po);
    so.port = 0;
    so.fault = fault;
    server_ = std::make_unique<Server>(engine_.get(), pool_.get(), so);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
    runner_ = std::thread([this] { server_->Run(); });
  }

  void TearDown() override {
    if (server_) server_->RequestStop();
    if (runner_.joinable()) runner_.join();
    server_.reset();
    if (pool_) (void)pool_->Stop();
    pool_.reset();
    engine_.reset();
  }

  std::string QueryPayload(const std::string& text, uint64_t min_ts = 0) {
    QueryRequest q;
    q.min_applied_ts = min_ts;
    q.pattern_text = text;
    return EncodeQueryRequest(q);
  }

  obs::MetricsSnapshot Metrics() { return engine_->metrics()->TakeSnapshot(); }

  /// Polls `pred` for up to 5 s; true once it holds.
  static bool Eventually(const std::function<bool()>& pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!pred()) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<ApplierPool> pool_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
  // Injector for the fault tests. A fixture member (not a test-body local)
  // because it must outlive TearDown(): body locals destruct before TearDown
  // stops the server/pool threads that are still consulting the injector.
  FaultInjector fault_;
};

TEST_F(NetServerTest, QueryAnswersMatchDirectSubmission) {
  Start();
  const Pattern pattern = ChainPattern({"A", "B"});

  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  ASSERT_TRUE(c.Send(FrameKind::kQuery, 5,
                     QueryPayload(PatternToText(pattern))));
  Frame f;
  ASSERT_TRUE(c.Recv(&f));
  ASSERT_EQ(f.kind, FrameKind::kQueryResult);
  EXPECT_EQ(f.request_id, 5u);
  Result<QueryResultFrame> served = DecodeQueryResult(f.payload);
  ASSERT_TRUE(served.ok());

  Result<std::future<QueryResponse>> fut =
      engine_->Submit(ChainPattern({"A", "B"}), QueryOptions{});
  ASSERT_TRUE(fut.ok());
  QueryResponse direct = fut->get();
  ASSERT_TRUE(direct.status.ok());
  direct.result.Normalize();
  EXPECT_EQ(served->matched, direct.result.matched());
  ASSERT_EQ(served->edge_matches.size(), direct.result.num_pattern_edges());
  for (uint32_t e = 0; e < direct.result.num_pattern_edges(); ++e) {
    EXPECT_EQ(served->edge_matches[e], direct.result.edge_matches(e));
  }
}

TEST_F(NetServerTest, UpdateAckThenReadYourWrites) {
  Start();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));

  // Insert A -> C (node 0 -> node 2): a new chain A->C appears.
  ASSERT_TRUE(c.Send(FrameKind::kUpdate, 1,
                     EncodeUpdateRequest(EdgeUpdate::Insert(0, 2))));
  Frame f;
  ASSERT_TRUE(c.Recv(&f));
  ASSERT_EQ(f.kind, FrameKind::kUpdateAck);
  Result<uint64_t> ts = DecodeUpdateAck(f.payload);
  ASSERT_TRUE(ts.ok());
  EXPECT_GT(*ts, 0u);

  // The same connection's next query must observe the acked write: the
  // server raises min_applied_ts to the acked ts (no explicit floor here).
  ASSERT_TRUE(c.Send(FrameKind::kQuery, 2,
                     QueryPayload(PatternToText(ChainPattern({"A", "C"})))));
  ASSERT_TRUE(c.Recv(&f));
  ASSERT_EQ(f.kind, FrameKind::kQueryResult);
  Result<QueryResultFrame> r = DecodeQueryResult(f.payload);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->applied_through_ts, *ts);
  EXPECT_TRUE(r->matched);
  ASSERT_EQ(r->edge_matches.size(), 1u);
  EXPECT_EQ(r->edge_matches[0],
            (std::vector<NodePair>{{0u, 2u}}));
}

TEST_F(NetServerTest, ExplicitMinAppliedTsFloorIsHonored) {
  Start();
  TestClient writer, reader;
  ASSERT_TRUE(writer.Connect(server_->port()));
  ASSERT_TRUE(reader.Connect(server_->port()));

  ASSERT_TRUE(writer.Send(FrameKind::kUpdate, 1,
                          EncodeUpdateRequest(EdgeUpdate::Insert(1, 3))));
  Frame f;
  ASSERT_TRUE(writer.Recv(&f));
  ASSERT_EQ(f.kind, FrameKind::kUpdateAck);
  const uint64_t ts = *DecodeUpdateAck(f.payload);

  // A *different* connection reads another client's write by carrying the
  // ts as an explicit floor in the query frame.
  ASSERT_TRUE(reader.Send(
      FrameKind::kQuery, 2,
      QueryPayload(PatternToText(ChainPattern({"B", "D"})), ts)));
  ASSERT_TRUE(reader.Recv(&f));
  ASSERT_EQ(f.kind, FrameKind::kQueryResult);
  Result<QueryResultFrame> r = DecodeQueryResult(f.payload);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->applied_through_ts, ts);
  EXPECT_TRUE(r->matched);
}

TEST_F(NetServerTest, StatsFramesCarryGaplessServerGlobalSeq) {
  Start();
  auto seq_of = [](const Frame& f) {
    const std::string line(f.payload.begin(), f.payload.end());
    const size_t pos = line.find("\"seq\":");
    EXPECT_NE(pos, std::string::npos) << line;
    return std::strtoull(line.c_str() + pos + 6, nullptr, 10);
  };
  TestClient a, b;
  ASSERT_TRUE(a.Connect(server_->port()));
  ASSERT_TRUE(b.Connect(server_->port()));
  Frame f;
  ASSERT_TRUE(a.Send(FrameKind::kStats, 1, ""));
  ASSERT_TRUE(a.Recv(&f));
  ASSERT_EQ(f.kind, FrameKind::kStatsResult);
  const uint64_t s1 = seq_of(f);
  ASSERT_TRUE(b.Send(FrameKind::kStats, 1, ""));
  ASSERT_TRUE(b.Recv(&f));
  const uint64_t s2 = seq_of(f);
  ASSERT_TRUE(a.Send(FrameKind::kStats, 2, ""));
  ASSERT_TRUE(a.Recv(&f));
  const uint64_t s3 = seq_of(f);
  // Server-global and gapless across connections.
  EXPECT_EQ(s2, s1 + 1);
  EXPECT_EQ(s3, s2 + 1);
}

TEST_F(NetServerTest, MalformedPayloadIsPerRequestErrorConnectionSurvives) {
  Start();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));

  // Query payload shorter than its fixed header: per-request error.
  ASSERT_TRUE(c.Send(FrameKind::kQuery, 1, std::string(3, 'x')));
  Frame f;
  ASSERT_TRUE(c.Recv(&f));
  EXPECT_EQ(f.kind, FrameKind::kError);
  EXPECT_EQ(f.status, Status::Code::kInvalidArgument);

  // Unparseable pattern text: also per-request.
  ASSERT_TRUE(c.Send(FrameKind::kQuery, 2,
                     QueryPayload("this is not a pattern\n")));
  ASSERT_TRUE(c.Recv(&f));
  EXPECT_EQ(f.kind, FrameKind::kError);
  EXPECT_EQ(f.request_id, 2u);

  // The connection is still fully serviceable.
  ASSERT_TRUE(c.Send(FrameKind::kQuery, 3,
                     QueryPayload(PatternToText(ChainPattern({"A", "B"})))));
  ASSERT_TRUE(c.Recv(&f));
  EXPECT_EQ(f.kind, FrameKind::kQueryResult);
  EXPECT_EQ(f.request_id, 3u);
}

TEST_F(NetServerTest, FramingErrorGetsErrorFrameThenClose) {
  Start();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  std::string wire = EncodeOne(FrameKind::kQuery, Status::Code::kOk, 1, "");
  wire[4] = 77;  // unknown kind: unrecoverable framing error
  ASSERT_TRUE(c.SendRaw(wire));
  Frame f;
  ASSERT_TRUE(c.Recv(&f));
  EXPECT_EQ(f.kind, FrameKind::kError);
  EXPECT_EQ(f.status, Status::Code::kCorruption);
  EXPECT_TRUE(c.WaitEof());
}

TEST_F(NetServerTest, OversizedDeclaredLengthCloses) {
  Start();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  std::string wire = EncodeOne(FrameKind::kQuery, Status::Code::kOk, 1, "");
  const uint32_t huge = 0x7fffffffu;
  std::memcpy(&wire[0], &huge, sizeof(huge));
  ASSERT_TRUE(c.SendRaw(wire));
  Frame f;
  ASSERT_TRUE(c.Recv(&f));
  EXPECT_EQ(f.kind, FrameKind::kError);
  EXPECT_TRUE(c.WaitEof());
}

TEST_F(NetServerTest, MidFrameDisconnectLeavesServerServing) {
  Start();
  {
    TestClient half;
    ASSERT_TRUE(half.Connect(server_->port()));
    // 7 bytes of a 16-byte header, then vanish.
    ASSERT_TRUE(half.SendRaw(std::string(7, '\x01')));
  }
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  ASSERT_TRUE(c.Send(FrameKind::kQuery, 1,
                     QueryPayload(PatternToText(ChainPattern({"A", "B"})))));
  Frame f;
  ASSERT_TRUE(c.Recv(&f));
  EXPECT_EQ(f.kind, FrameKind::kQueryResult);
}

TEST_F(NetServerTest, PipelinedQueriesComeBackInOrder) {
  // A client that fires a burst without reading: the per-connection
  // out-buffer absorbs it and responses arrive in submission order.
  Start();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  const std::string payload =
      QueryPayload(PatternToText(ChainPattern({"A", "B"})));
  constexpr uint64_t kBurst = 50;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    ASSERT_TRUE(c.Send(FrameKind::kQuery, id, payload));
  }
  for (uint64_t id = 1; id <= kBurst; ++id) {
    Frame f;
    ASSERT_TRUE(c.Recv(&f));
    // Shed responses are legal under burst; order must still hold.
    EXPECT_TRUE(f.kind == FrameKind::kQueryResult ||
                (f.kind == FrameKind::kError &&
                 f.status == Status::Code::kResourceExhausted));
    EXPECT_EQ(f.request_id, id);
  }
}

TEST_F(NetServerTest, BlockedQueryDoesNotDelayOtherConnections) {
  // Connection A's query waits on a read-your-writes floor far above the
  // watermark (healthy pool, so the engine waits out its 2 s ryw timeout)
  // on one worker; connection B's plain query runs on the other and its
  // result must not queue behind A's.
  EngineOptions eo;
  eo.pool.num_threads = 2;
  Start(ServerOptions{}, /*with_pool=*/true, ApplierPoolOptions{},
        /*fault=*/nullptr, eo);
  const std::string text = PatternToText(ChainPattern({"A", "B"}));
  TestClient a, b;
  ASSERT_TRUE(a.Connect(server_->port()));
  ASSERT_TRUE(b.Connect(server_->port()));
  ASSERT_TRUE(
      a.Send(FrameKind::kQuery, 1, QueryPayload(text, uint64_t{1} << 40)));
  ASSERT_TRUE(Eventually(
      [&] { return Metrics().CounterValue("mvcc.ryw_waits") >= 1; }));

  const auto sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(b.Send(FrameKind::kQuery, 2, QueryPayload(text)));
  Frame f;
  ASSERT_TRUE(b.Recv(&f));
  const double b_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - sent)
                          .count();
  EXPECT_EQ(f.kind, FrameKind::kQueryResult);
  EXPECT_EQ(f.request_id, 2u);
  EXPECT_LT(b_ms, 500.0);

  ASSERT_TRUE(a.Recv(&f));
  EXPECT_EQ(f.kind, FrameKind::kError);
  EXPECT_EQ(f.status, Status::Code::kDeadlineExceeded);
  EXPECT_EQ(f.request_id, 1u);
}

TEST_F(NetServerTest, EarlyResultWaitsForItsConnectionsEarlierQuery) {
  // Query 1 waits on a read-your-writes floor (the first stream ts) while
  // query 2 of the same connection finishes on the other worker; query 2's
  // result must still leave after query 1's, once another connection's
  // update lifts the watermark.
  EngineOptions eo;
  eo.pool.num_threads = 2;
  Start(ServerOptions{}, /*with_pool=*/true, ApplierPoolOptions{},
        /*fault=*/nullptr, eo);
  const std::string text = PatternToText(ChainPattern({"A", "B"}));
  TestClient reader, writer;
  ASSERT_TRUE(reader.Connect(server_->port()));
  ASSERT_TRUE(writer.Connect(server_->port()));
  ASSERT_TRUE(reader.Send(FrameKind::kQuery, 1, QueryPayload(text, 1)));
  ASSERT_TRUE(Eventually(
      [&] { return Metrics().CounterValue("mvcc.ryw_waits") >= 1; }));
  ASSERT_TRUE(reader.Send(FrameKind::kQuery, 2, QueryPayload(text)));
  ASSERT_TRUE(Eventually([&] {
    const obs::MetricsSnapshot m = Metrics();
    const obs::HistogramSnapshot* h = m.FindHistogram("net.request_us");
    return h != nullptr && h->count == 1;  // query 2 is done
  }));

  ASSERT_TRUE(writer.Send(FrameKind::kUpdate, 1,
                          EncodeUpdateRequest(EdgeUpdate::Insert(0, 2))));
  Frame f;
  ASSERT_TRUE(writer.Recv(&f));
  ASSERT_EQ(f.kind, FrameKind::kUpdateAck);
  ASSERT_EQ(*DecodeUpdateAck(f.payload), 1u);
  for (uint64_t id = 1; id <= 2; ++id) {
    ASSERT_TRUE(reader.Recv(&f));
    EXPECT_EQ(f.kind, FrameKind::kQueryResult);
    EXPECT_EQ(f.request_id, id);
  }
}

TEST_F(NetServerTest, PipelinedFramesShareFlushes) {
  // 50 update frames in one write to a query-only server: the loop answers
  // each with kNotSupported within one pass, and the pass-end flush sends
  // the answers together instead of one write per frame.
  Start(ServerOptions{}, /*with_pool=*/false);
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  const obs::MetricsSnapshot before = Metrics();
  constexpr uint64_t kBurst = 50;
  std::string burst;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    EncodeFrame(FrameKind::kUpdate, Status::Code::kOk, id,
                EncodeUpdateRequest(EdgeUpdate::Insert(0, 3)), &burst);
  }
  ASSERT_TRUE(c.SendRaw(burst));
  for (uint64_t id = 1; id <= kBurst; ++id) {
    Frame f;
    ASSERT_TRUE(c.Recv(&f));
    EXPECT_EQ(f.kind, FrameKind::kError);
    EXPECT_EQ(f.status, Status::Code::kNotSupported);
    EXPECT_EQ(f.request_id, id);
  }
  auto delta = [&](const char* name) {
    return Metrics().CounterValue(name) - before.CounterValue(name);
  };
  // A flush is counted after its write returns, so it may land after the
  // client has read the bytes.
  ASSERT_TRUE(Eventually([&] { return delta("net.flushes") >= 1; }));
  EXPECT_EQ(delta("net.frames_sent"), kBurst);
  EXPECT_LE(delta("net.flushes"), 5u);
}

TEST_F(NetServerTest, ServerDestroyedWithQueryInFlightDropsTheResult) {
  // The engine's only worker is held inside a completion callback, so the
  // served query queues behind it. The server shuts down (its drain
  // backstop cuts the connection still owed that result) and is destroyed
  // while the engine lives on; only then does the query run. Its late
  // completion must find the server detached rather than post to a
  // destroyed loop (ASan/TSan would report it).
  EngineOptions eo;
  eo.pool.num_threads = 1;
  Start(ServerOptions{}, /*with_pool=*/false, ApplierPoolOptions{},
        /*fault=*/nullptr, eo);
  std::promise<void> held;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ASSERT_TRUE(engine_
                  ->Submit(ChainPattern({"A", "B"}), QueryOptions{},
                           [&held, gate](QueryResponse) {
                             held.set_value();
                             gate.wait();
                           })
                  .ok());
  held.get_future().wait();

  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  ASSERT_TRUE(c.Send(FrameKind::kQuery, 1,
                     QueryPayload(PatternToText(ChainPattern({"A", "B"})))));
  ASSERT_TRUE(
      Eventually([&] { return Metrics().CounterValue("net.queries") == 1; }));
  server_->RequestStop();
  runner_.join();
  server_.reset();
  EXPECT_TRUE(c.WaitEof());

  release.set_value();
  // The completion records net.request_us on the worker before it finds
  // the server gone.
  ASSERT_TRUE(Eventually([&] {
    const obs::MetricsSnapshot m = Metrics();
    const obs::HistogramSnapshot* h = m.FindHistogram("net.request_us");
    return h != nullptr && h->count == 1;
  }));
  EXPECT_EQ(Metrics().CounterValue("net.frames_sent"), 0u);
}

TEST_F(NetServerTest, UpdateWithoutPoolIsNotSupported) {
  Start(ServerOptions{}, /*with_pool=*/false);
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  ASSERT_TRUE(c.Send(FrameKind::kUpdate, 9,
                     EncodeUpdateRequest(EdgeUpdate::Insert(0, 3))));
  Frame f;
  ASSERT_TRUE(c.Recv(&f));
  EXPECT_EQ(f.kind, FrameKind::kError);
  EXPECT_EQ(f.status, Status::Code::kNotSupported);
  EXPECT_EQ(f.request_id, 9u);
}

TEST_F(NetServerTest, ShutdownFrameAcksDrainsAndStopsRun) {
  Start();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  ASSERT_TRUE(c.Send(FrameKind::kShutdown, 3, ""));
  Frame f;
  ASSERT_TRUE(c.Recv(&f));
  EXPECT_EQ(f.kind, FrameKind::kOk);
  EXPECT_EQ(f.request_id, 3u);
  EXPECT_TRUE(c.WaitEof());
  runner_.join();  // Run() must return on its own
  EXPECT_GE(server_->connections_accepted(), 1u);
}

TEST_F(NetServerTest, RequestStopClosesIdleConnections) {
  Start();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  // Ensure the server has registered the connection before stopping.
  Frame f;
  ASSERT_TRUE(c.Send(FrameKind::kStats, 1, ""));
  ASSERT_TRUE(c.Recv(&f));
  server_->RequestStop();
  EXPECT_TRUE(c.WaitEof());
  runner_.join();
}

#if GPMV_FAULT_INJECTION

TEST_F(NetServerTest, BackpressureDeadlineSurfacesAsErrorFrame) {
  // One slice with a 1-slot queue whose applier fails every commit with a
  // long retry backoff: the queue stays full, admission parks, and the
  // short push deadline converts the parked op into kDeadlineExceeded on
  // exactly this client.
  FaultPointSpec spec;
  spec.probability = 1.0;
  fault_.Arm("stream.apply", spec);

  ApplierPoolOptions po;
  po.num_appliers = 1;
  po.stream.queue_capacity = 1;
  po.retry.max_attempts = 100000;
  po.retry.backoff_base_ms = 50.0;
  po.retry.backoff_max_ms = 100.0;

  ServerOptions so;
  so.push_retry_ms = 2.0;
  so.push_deadline_ms = 40.0;
  Start(so, /*with_pool=*/true, po, &fault_);

  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  bool saw_deadline = false;
  for (uint64_t id = 1; id <= 64 && !saw_deadline; ++id) {
    ASSERT_TRUE(c.Send(FrameKind::kUpdate, id,
                       EncodeUpdateRequest(EdgeUpdate::Insert(0, 2))));
    Frame f;
    ASSERT_TRUE(c.Recv(&f));
    if (f.kind == FrameKind::kError) {
      EXPECT_EQ(f.status, Status::Code::kDeadlineExceeded);
      saw_deadline = true;
    } else {
      ASSERT_EQ(f.kind, FrameKind::kUpdateAck);
    }
  }
  EXPECT_TRUE(saw_deadline);

  // The connection survives backpressure: it still gets well-formed
  // responses. (The query itself may legitimately fail — this connection's
  // read-your-writes floor covers acked ops the faulted applier can never
  // apply — but the server must answer, not hang up.)
  ASSERT_TRUE(c.Send(FrameKind::kQuery, 1000,
                     QueryPayload(PatternToText(ChainPattern({"A", "B"})))));
  Frame f;
  ASSERT_TRUE(c.Recv(&f));
  EXPECT_TRUE(f.kind == FrameKind::kQueryResult ||
              f.kind == FrameKind::kError);
  EXPECT_EQ(f.request_id, 1000u);
}

TEST_F(NetServerTest, QuarantinedSliceFailsFastWithResourceExhausted) {
  // First commit fails with no retries: the slice quarantines, and
  // subsequent admissions fail fast (kResourceExhausted) instead of
  // burning the push deadline.
  FaultPointSpec spec;
  spec.fire_on = {1};
  fault_.Arm("stream.apply", spec);

  ApplierPoolOptions po;
  po.num_appliers = 1;
  po.retry.max_attempts = 1;

  Start(ServerOptions{}, /*with_pool=*/true, po, &fault_);

  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  // The first op is acked on admission, then its apply fails and the slice
  // quarantines; keep pushing until the fast-fail path reports it.
  bool saw_exhausted = false;
  for (uint64_t id = 1; id <= 256 && !saw_exhausted; ++id) {
    ASSERT_TRUE(c.Send(FrameKind::kUpdate, id,
                       EncodeUpdateRequest(EdgeUpdate::Insert(0, 3))));
    Frame f;
    ASSERT_TRUE(c.Recv(&f));
    if (f.kind == FrameKind::kError) {
      EXPECT_EQ(f.status, Status::Code::kResourceExhausted);
      saw_exhausted = true;
    } else {
      ASSERT_EQ(f.kind, FrameKind::kUpdateAck);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(saw_exhausted);
}

TEST_F(NetServerTest, AcceptFaultDropsOnlyThatConnection) {
  FaultPointSpec spec;
  spec.fire_on = {1};
  fault_.Arm("net.accept", spec);
  Start(ServerOptions{}, /*with_pool=*/true, ApplierPoolOptions{}, &fault_);

  TestClient dropped;
  ASSERT_TRUE(dropped.Connect(server_->port()));
  (void)dropped.Send(FrameKind::kStats, 1, "");
  EXPECT_TRUE(dropped.WaitEof());

  TestClient ok;
  ASSERT_TRUE(ok.Connect(server_->port()));
  ASSERT_TRUE(ok.Send(FrameKind::kStats, 1, ""));
  Frame f;
  ASSERT_TRUE(ok.Recv(&f));
  EXPECT_EQ(f.kind, FrameKind::kStatsResult);
}

#endif  // GPMV_FAULT_INJECTION

}  // namespace
}  // namespace net
}  // namespace gpmv
