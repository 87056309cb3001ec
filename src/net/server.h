/// \file server.h
/// \brief The async network serving front end: a single-threaded epoll
/// event-loop server (net/event_loop.h) speaking the length-prefixed binary
/// protocol (net/protocol.h), multiplexing many client connections onto the
/// existing engine — queries through `QueryEngine::Submit` on the worker
/// pool, update ops through `ApplierPool::TryPush` into the MVCC ingest
/// slices, stats straight off the metrics registry.
///
/// Thread topology (three kinds of thread, two owned here):
///
///   * the **loop thread** (the caller of Run) owns every Connection and
///     all socket I/O. It never blocks on engine work: query submission
///     uses the executor's shed-when-saturated admission (a saturated pool
///     fast-fails kResourceExhausted instead of parking the loop), and op
///     admission uses the pool's non-blocking TryPush.
///   * the **waiter thread** (owned) turns query futures into response
///     frames: it blocks on each future in submission order, encodes the
///     response off-loop, and Posts the bytes back to the loop for
///     buffered sending. FIFO handling means one connection's responses
///     arrive in its submission order.
///   * the engine's own worker/applier threads, untouched.
///
/// Write path — small-packet coalescing after Galois's
/// NetworkInterfaceBuffered: response bytes append to a per-connection
/// buffer which flushes when it crosses 8 KiB (COMM_MIN) or when a 1 ms
/// (COMM_DELAY) loop timer expires, whichever first.
/// A partial write arms EPOLLOUT and the remainder streams out as the
/// socket drains — a slow reader backpressures only its own buffer.
///
/// Read path — per-connection ingest backpressure: when an op's slice
/// queue is full, the op is *parked* on its connection, the connection's
/// EPOLLIN is paused (TCP backpressure propagates to that client alone),
/// and a retry timer re-attempts admission until it succeeds or
/// `push_deadline_ms` elapses — then the client gets a kDeadlineExceeded
/// error frame and reading resumes. A quarantined slice fails fast with
/// kResourceExhausted (retryable after revival) rather than burning the
/// deadline (ApplierPool::TryPush reports kQuarantined before any ticket
/// is assigned).
///
/// Read-your-writes: each connection tracks the highest stream ts it was
/// acked and every subsequent query on that connection carries
/// `QueryOptions::min_applied_ts >= ` that ts (the query frame's own
/// min_applied_ts field can raise the floor further — e.g. a client
/// reading another client's writes). So an ack'd update is visible to the
/// same client's next query, bounded by the engine's ryw timeout.
///
/// Shutdown: a kShutdown frame (or RequestStop) acks kOk, stops accepting,
/// fails parked ops, drains in-flight queries, flushes every connection,
/// then closes everything and returns from Run — the CI smoke job asserts
/// this clean exit.
///
/// Fault points (common/fault.h): `net.accept` drops a just-accepted
/// connection, `net.read` fails a socket read, `net.write` fails a flush
/// write; all three surface as abrupt connection closes, which is exactly
/// what the protocol-robustness suite exercises.

#ifndef GPMV_NET_SERVER_H_
#define GPMV_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/fault.h"
#include "common/status.h"
#include "engine/query_engine.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "stream/applier_pool.h"

namespace gpmv {
namespace net {

struct ServerOptions {
  /// TCP port to bind; 0 picks an ephemeral port — `port()` reports the
  /// actual one (tests bind 0 to avoid collisions).
  uint16_t port = 0;
  /// Parked-op admission: retry cadence and total deadline before the
  /// client gets kDeadlineExceeded.
  double push_retry_ms = 1.0;
  double push_deadline_ms = 1000.0;
  /// Not owned; nullptr disables the net.* fault points.
  FaultInjector* fault = nullptr;
};

/// See file comment.
class Server {
 public:
  /// `engine` must outlive the server. `pool` may be null — update frames
  /// then fail with kNotSupported (query-only serving).
  Server(QueryEngine* engine, ApplierPool* pool, ServerOptions opts = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens + starts the waiter thread. After OK, port() is live
  /// and Run() will serve.
  Status Start();

  /// Serves until a kShutdown frame or RequestStop; returns only after
  /// every connection is flushed and closed.
  void Run();

  /// Thread-safe, idempotent: makes Run wind down as if a kShutdown frame
  /// had arrived.
  void RequestStop();

  /// Bound port (useful when opts.port was 0). 0 before Start.
  uint16_t port() const { return bound_port_; }

  /// Lifetime accept count (tests).
  uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    FrameParser parser{/*require_requests=*/true};

    /// Coalesced out-buffer: [sent, out.size()) is unsent. `sent` only
    /// grows; the buffer compacts when fully drained.
    std::string out;
    size_t sent = 0;
    bool want_write = false;    ///< EPOLLOUT armed
    uint64_t flush_timer = 0;   ///< pending COMM_DELAY timer id (0 = none)

    bool reading_paused = false;
    /// Parked update op (slice queue full): frames decoded behind it stay
    /// inside `parser` until it resolves.
    bool parked = false;
    EdgeUpdate parked_op;
    uint64_t parked_request_id = 0;
    std::chrono::steady_clock::time_point parked_deadline;
    uint64_t retry_timer = 0;

    uint64_t last_update_ts = 0;  ///< read-your-writes floor
    size_t inflight_queries = 0;
    /// Protocol error latched or peer half-closed: close once drained.
    bool draining = false;
  };

  /// One submitted query awaiting its future, in FIFO order.
  struct PendingQuery {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    std::future<QueryResponse> future;
    std::chrono::steady_clock::time_point submitted;
  };

  void OnAcceptable();
  void OnConnEvent(uint64_t conn_id, uint32_t events);
  void ReadFrom(Connection* c);
  void ProcessFrames(Connection* c);
  void Dispatch(Connection* c, const Frame& f);
  void HandleQuery(Connection* c, const Frame& f);
  void HandleUpdate(Connection* c, const Frame& f);
  void HandleStats(Connection* c, const Frame& f);
  void HandleShutdown(Connection* c, const Frame& f);
  /// Parked-op retry tick: re-attempts admission, acks or errors.
  void RetryParked(uint64_t conn_id);
  void FinishParked(Connection* c);

  /// Appends an encoded frame and applies the coalescing policy.
  void SendFrame(Connection* c, FrameKind kind, Status::Code status,
                 uint64_t request_id, const std::string& payload);
  void SendError(Connection* c, uint64_t request_id, const Status& st);
  /// Writes as much of the out-buffer as the socket takes now.
  void Flush(Connection* c);
  void UpdateReadInterest(Connection* c);
  /// Closes a draining connection once its responses are answered and
  /// written out. May invalidate `c`.
  void MaybeCloseDrained(Connection* c);
  void CloseConn(uint64_t conn_id);

  /// Waiter-thread body and its loop-side completion.
  void WaiterMain();
  void OnQueryDone(uint64_t conn_id, uint64_t request_id,
                   std::string encoded, bool is_error,
                   Status::Code error_code);

  void BeginShutdown();
  /// Stops the loop once shutdown started, queries drained, buffers empty.
  void MaybeFinishShutdown();

  QueryEngine* engine_;
  ApplierPool* pool_;
  ServerOptions opts_;

  EventLoop loop_;
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  bool started_ = false;

  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;
  std::atomic<uint64_t> accepted_{0};

  bool shutting_down_ = false;  ///< loop thread only

  /// Waiter-thread queue.
  std::thread waiter_;
  std::mutex wq_mu_;
  std::condition_variable wq_cv_;
  std::deque<PendingQuery> wq_;
  bool wq_stop_ = false;

  /// Stats frames: server-global gapless seq + steady ms since Start, so
  /// a socket-served artifact satisfies the exporter schema checker.
  uint64_t stats_seq_ = 0;
  std::chrono::steady_clock::time_point start_time_;

  /// Metric handles (resolved by name from the engine registry; the names
  /// are registered up front in QueryEngine::InitMetrics so they are
  /// pinned in every exporter artifact).
  obs::Counter* m_accepted_ = nullptr;
  obs::Counter* m_closed_ = nullptr;
  obs::Counter* m_frames_in_ = nullptr;
  obs::Counter* m_frames_out_ = nullptr;
  obs::Counter* m_queries_ = nullptr;
  obs::Counter* m_updates_ = nullptr;
  obs::Counter* m_protocol_errors_ = nullptr;
  obs::Counter* m_errors_sent_ = nullptr;
  obs::Counter* m_parks_ = nullptr;
  obs::Counter* m_park_deadline_ = nullptr;
  obs::Counter* m_bytes_in_ = nullptr;
  obs::Counter* m_bytes_out_ = nullptr;
  obs::Counter* m_flushes_ = nullptr;
  obs::Gauge* m_open_conns_ = nullptr;
  obs::Histogram* m_request_us_ = nullptr;
  obs::Histogram* m_flush_bytes_ = nullptr;
};

}  // namespace net
}  // namespace gpmv

#endif  // GPMV_NET_SERVER_H_
