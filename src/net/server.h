/// \file server.h
/// \brief The async network serving front end: a single-threaded epoll
/// event-loop server (net/event_loop.h) speaking the length-prefixed binary
/// protocol (net/protocol.h), multiplexing many client connections onto the
/// existing engine — queries through `QueryEngine::Submit` on the worker
/// pool, update ops through `ApplierPool::TryPush` into the MVCC ingest
/// slices, stats straight off the metrics registry.
///
/// Thread topology (the server owns no thread):
///
///   * the **loop thread** (the caller of Run) owns every Connection and
///     all socket I/O. It never blocks on engine work: query submission
///     uses the executor's shed-when-saturated admission (a saturated pool
///     fast-fails kResourceExhausted instead of parking the loop), and op
///     admission uses the pool's non-blocking TryPush.
///   * the engine's worker that ran a query completes it: it records
///     `net.request_us`, encodes the response off-loop and Posts the bytes
///     to the loop. A per-connection reorder slot keeps one connection's
///     results in its submission order; other connections never wait.
///
/// Write path — small-packet coalescing after Galois's
/// NetworkInterfaceBuffered: response bytes append to a per-connection
/// buffer flushed at the end of the loop pass that produced them, or at
/// once past 8 KiB (COMM_MIN). A partial write arms EPOLLOUT and the remainder streams out as the
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
/// this clean exit. A peer that never drains is cut after a 2 s backstop;
/// a query still running then finishes in the engine and is dropped.
///
/// Fault points (common/fault.h): `net.accept` drops a just-accepted
/// connection, `net.read` fails a socket read, `net.write` fails a flush
/// write; all three surface as abrupt connection closes, which is exactly
/// what the protocol-robustness suite exercises.

#ifndef GPMV_NET_SERVER_H_
#define GPMV_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

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
  /// then fail with kNotSupported (query-only serving). Queries still
  /// running in the engine when the server is destroyed finish there and
  /// their results are dropped.
  Server(QueryEngine* engine, ApplierPool* pool, ServerOptions opts = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens. After OK, port() is live and Run() will serve.
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
  /// A finished query's response frame, encoded on the worker.
  struct QueryReply {
    uint64_t request_id = 0;
    FrameKind kind = FrameKind::kQueryResult;
    Status::Code status = Status::Code::kOk;
    std::string payload;
  };

  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    FrameParser parser{/*require_requests=*/true};

    /// Coalesced out-buffer: [sent, out.size()) is unsent. `sent` only
    /// grows; the buffer compacts when fully drained.
    std::string out;
    size_t sent = 0;
    bool want_write = false;  ///< EPOLLOUT armed
    bool dirty = false;       ///< listed for the pass-end flush

    bool reading_paused = false;
    /// Parked update op (slice queue full): frames decoded behind it stay
    /// inside `parser` until it resolves.
    bool parked = false;
    EdgeUpdate parked_op;
    uint64_t parked_request_id = 0;
    std::chrono::steady_clock::time_point parked_deadline;
    uint64_t retry_timer = 0;

    uint64_t last_update_ts = 0;  ///< read-your-writes floor
    /// Reorder slot: entry i is executed query `next_reply_seq + i`, empty
    /// until its worker delivers; the size is the in-flight count.
    std::deque<std::optional<QueryReply>> replies;
    uint64_t next_reply_seq = 0;
    /// Protocol error latched or peer half-closed: close once drained.
    bool draining = false;
  };

  /// Shared with every in-flight completion; ~Server detaches it, so a
  /// completion that outlives the server is dropped, not posted. A
  /// completion Posts while holding `mu`, so the detach waits it out.
  struct Inbox {
    std::mutex mu;
    Server* server = nullptr;
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

  /// Appends an encoded frame and applies the coalescing policy: flush now
  /// past 8 KiB (may close the connection), else list it for the pass-end
  /// flush.
  void SendFrame(Connection* c, FrameKind kind, Status::Code status,
                 uint64_t request_id, const std::string& payload);
  void SendError(Connection* c, uint64_t request_id, const Status& st);
  /// Writes as much of the out-buffer as the socket takes now.
  void Flush(Connection* c);
  /// The loop's after-pass hook: flushes every connection listed dirty.
  void FlushDirty();
  void UpdateReadInterest(Connection* c);
  /// Closes a draining connection once its responses are answered and
  /// written out. May invalidate `c`.
  void MaybeCloseDrained(Connection* c);
  void CloseConn(uint64_t conn_id);
  /// Closes every connection at once (shutdown's last step).
  void CloseAll();

  /// Worker side of a query completion: the response frame's fields.
  static QueryReply EncodeReply(uint64_t request_id, QueryResponse resp);
  /// Loop side: fills the query's reorder slot and sends every reply now
  /// at the head of the connection's order.
  void OnQueryDone(uint64_t conn_id, uint64_t seq, QueryReply reply);

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
  /// Connections with unsent bytes awaiting the pass-end flush.
  std::vector<uint64_t> dirty_;

  std::shared_ptr<Inbox> inbox_;

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
