#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/exporter.h"
#include "pattern/pattern_io.h"

namespace gpmv {
namespace net {

namespace {

/// Hard backstop on the shutdown drain: a peer that stops reading must not
/// wedge the clean-exit path — its connection is cut after this long.
constexpr double kShutdownDrainMs = 2000.0;

constexpr int kListenBacklog = 128;
/// Write coalescing (COMM_MIN): flush a connection's out-buffer at once at
/// this many bytes; below it, at the end of the loop pass.
constexpr size_t kFlushBytes = 8 * 1024;
/// Accepted connections beyond this are closed at once.
constexpr size_t kMaxConnections = 1024;

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Server::Server(QueryEngine* engine, ApplierPool* pool, ServerOptions opts)
    : engine_(engine),
      pool_(pool),
      opts_(opts),
      inbox_(std::make_shared<Inbox>()) {
  inbox_->server = this;
}

Server::~Server() {
  {
    // Late completions from now on are dropped on the worker.
    std::lock_guard<std::mutex> lk(inbox_->mu);
    inbox_->server = nullptr;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status Server::Start() {
  if (started_) return Status::Internal("server already started");

  obs::MetricsRegistry& m = *engine_->metrics();
  m_accepted_ = m.FindOrCreateCounter("net.connections_accepted");
  m_closed_ = m.FindOrCreateCounter("net.connections_closed");
  m_frames_in_ = m.FindOrCreateCounter("net.frames_received");
  m_frames_out_ = m.FindOrCreateCounter("net.frames_sent");
  m_queries_ = m.FindOrCreateCounter("net.queries");
  m_updates_ = m.FindOrCreateCounter("net.updates");
  m_protocol_errors_ = m.FindOrCreateCounter("net.protocol_errors");
  m_errors_sent_ = m.FindOrCreateCounter("net.errors_sent");
  m_parks_ = m.FindOrCreateCounter("net.backpressure_parks");
  m_park_deadline_ = m.FindOrCreateCounter("net.backpressure_deadline");
  m_bytes_in_ = m.FindOrCreateCounter("net.bytes_read");
  m_bytes_out_ = m.FindOrCreateCounter("net.bytes_written");
  m_flushes_ = m.FindOrCreateCounter("net.flushes");
  m_open_conns_ = m.FindOrCreateGauge("net.open_connections");
  m_request_us_ = m.FindOrCreateHistogram("net.request_us");
  m_flush_bytes_ = m.FindOrCreateHistogram("net.flush_bytes");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(opts_.port);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  socklen_t alen = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &alen) != 0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  bound_port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }

  GPMV_RETURN_NOT_OK(loop_.Init());
  GPMV_RETURN_NOT_OK(
      loop_.Watch(listen_fd_, EPOLLIN, [this](uint32_t) { OnAcceptable(); }));
  loop_.SetAfterPass([this] { FlushDirty(); });

  start_time_ = std::chrono::steady_clock::now();
  started_ = true;
  return Status::OK();
}

void Server::Run() {
  loop_.Run();
  // Hard-close whatever survived (normally nothing — MaybeFinishShutdown
  // closed every connection already).
  CloseAll();
}

void Server::RequestStop() {
  if (!started_) return;
  loop_.Post([this] { BeginShutdown(); });
}

// ------------------------------------------------------------------ accept

void Server::OnAcceptable() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the next EPOLLIN retries
    }
    if (GPMV_FAULT_POINT(opts_.fault, "net.accept") ||
        conns_.size() >= kMaxConnections || shutting_down_) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    // The server coalesces its own writes (one write per loop pass, or at
    // COMM_MIN); Nagle on top of that would only delay the flushed packet.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    const uint64_t id = conn->id;
    Status st = loop_.Watch(fd, EPOLLIN, [this, id](uint32_t events) {
      OnConnEvent(id, events);
    });
    if (!st.ok()) {
      ::close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    m_accepted_->Add(1);
    m_open_conns_->Set(static_cast<double>(conns_.size()));
  }
}

// -------------------------------------------------------------- read path

void Server::OnConnEvent(uint64_t conn_id, uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* c = it->second.get();
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConn(conn_id);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    Flush(c);
    if (conns_.find(conn_id) == conns_.end()) return;  // Flush closed it
  }
  if ((events & EPOLLIN) != 0) ReadFrom(c);
}

void Server::ReadFrom(Connection* c) {
  const uint64_t conn_id = c->id;
  uint8_t buf[64 * 1024];
  for (;;) {
    if (c->reading_paused || c->draining) return;
    if (GPMV_FAULT_POINT(opts_.fault, "net.read")) {
      CloseConn(conn_id);
      return;
    }
    const ssize_t n = ::read(c->fd, buf, sizeof(buf));
    if (n > 0) {
      m_bytes_in_->Add(static_cast<uint64_t>(n));
      c->parser.Feed(buf, static_cast<size_t>(n));
      if (!c->parser.ok()) {
        // Framing error: unrecoverable for this connection. Best-effort
        // error frame, then drain-and-close. (Drain first: SendError can
        // flush and close the connection on a write fault.)
        m_protocol_errors_->Add(1);
        c->draining = true;
        const Status perr = c->parser.error();
        SendError(c, 0, perr);
        auto it = conns_.find(conn_id);
        if (it == conns_.end()) return;
        c = it->second.get();
        UpdateReadInterest(c);
        MaybeCloseDrained(c);
        return;
      }
      ProcessFrames(c);
      if (conns_.find(conn_id) == conns_.end()) return;
      continue;
    }
    if (n == 0) {
      // Peer half-closed: no more requests, but in-flight responses still
      // go out before we close.
      c->draining = true;
      UpdateReadInterest(c);
      MaybeCloseDrained(c);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(conn_id);
    return;
  }
}

void Server::ProcessFrames(Connection* c) {
  const uint64_t conn_id = c->id;
  Frame f;
  while (!c->parked && !c->draining && c->parser.Next(&f)) {
    Dispatch(c, f);
    if (conns_.find(conn_id) == conns_.end()) return;
  }
}

void Server::Dispatch(Connection* c, const Frame& f) {
  m_frames_in_->Add(1);
  switch (f.kind) {
    case FrameKind::kQuery:
      HandleQuery(c, f);
      return;
    case FrameKind::kUpdate:
      HandleUpdate(c, f);
      return;
    case FrameKind::kStats:
      HandleStats(c, f);
      return;
    case FrameKind::kShutdown:
      HandleShutdown(c, f);
      return;
    default:
      // Unreachable: the parser only surfaces request kinds.
      SendError(c, f.request_id,
                Status::InvalidArgument("unexpected frame kind"));
      return;
  }
}

void Server::HandleQuery(Connection* c, const Frame& f) {
  Result<QueryRequest> req = DecodeQueryRequest(f.payload);
  if (!req.ok()) {
    SendError(c, f.request_id, req.status());
    return;
  }
  Result<Pattern> pattern = PatternFromText(req->pattern_text);
  if (!pattern.ok()) {
    SendError(c, f.request_id, pattern.status());
    return;
  }
  QueryOptions qo;
  // Read-your-writes: this connection's acked updates, or any higher floor
  // the client asked for explicitly.
  qo.min_applied_ts = std::max(req->min_applied_ts, c->last_update_ts);
  qo.as_of_ts = req->as_of_ts;
  const uint64_t seq = c->next_reply_seq + c->replies.size();
  const auto submitted = std::chrono::steady_clock::now();
  // Runs on the worker: it may outlive this server (see Inbox).
  auto done = [inbox = inbox_, request_us = m_request_us_, conn_id = c->id,
               seq, request_id = f.request_id,
               submitted](QueryResponse resp) {
    request_us->Record(static_cast<uint64_t>(MsSince(submitted) * 1000.0));
    QueryReply reply = EncodeReply(request_id, std::move(resp));
    std::lock_guard<std::mutex> lk(inbox->mu);
    Server* s = inbox->server;
    if (s == nullptr) return;
    s->loop_.Post([s, conn_id, seq, reply = std::move(reply)]() mutable {
      s->OnQueryDone(conn_id, seq, std::move(reply));
    });
  };
  Status st = engine_->Submit(std::move(pattern).value(), qo, std::move(done));
  if (!st.ok()) {
    // Shed by admission control (or shut down) — the loop thread never
    // blocks on a saturated pool.
    SendError(c, f.request_id, st);
    return;
  }
  m_queries_->Add(1);
  c->replies.emplace_back();
}

void Server::HandleUpdate(Connection* c, const Frame& f) {
  Result<EdgeUpdate> op = DecodeUpdateRequest(f.payload);
  if (!op.ok()) {
    SendError(c, f.request_id, op.status());
    return;
  }
  if (pool_ == nullptr) {
    SendError(c, f.request_id,
              Status::NotSupported("server is serving queries only"));
    return;
  }
  uint64_t ts = 0;
  switch (pool_->TryPush(*op, &ts)) {
    case ApplierPool::TryPushResult::kOk:
      c->last_update_ts = std::max(c->last_update_ts, ts);
      m_updates_->Add(1);
      SendFrame(c, FrameKind::kUpdateAck, Status::Code::kOk, f.request_id,
                EncodeUpdateAck(ts));
      return;
    case ApplierPool::TryPushResult::kQuarantined:
      SendError(c, f.request_id,
                Status::ResourceExhausted(
                    "update slice quarantined; retry after revival"));
      return;
    case ApplierPool::TryPushResult::kStopped:
      SendError(c, f.request_id, Status::Internal("ingest stopped"));
      return;
    case ApplierPool::TryPushResult::kWouldBlock:
      break;
  }
  // Slice queue full: park the op on this connection and pause its reads —
  // backpressure lands on this client alone. Frames already decoded queue
  // up behind the parked op inside the parser.
  m_parks_->Add(1);
  c->parked = true;
  c->parked_op = *op;
  c->parked_request_id = f.request_id;
  c->parked_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(opts_.push_deadline_ms));
  UpdateReadInterest(c);
  const uint64_t id = c->id;
  c->retry_timer =
      loop_.RunAfter(opts_.push_retry_ms, [this, id] { RetryParked(id); });
}

void Server::RetryParked(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* c = it->second.get();
  c->retry_timer = 0;
  if (!c->parked) return;
  // A SendFrame/SendError can flush and (on a write fault) close the
  // connection, invalidating `c` — resolve the outcome first, send, then
  // re-look-up before FinishParked.
  uint64_t ts = 0;
  Status fail;
  bool acked = false;
  bool resolved = true;
  switch (pool_->TryPush(c->parked_op, &ts)) {
    case ApplierPool::TryPushResult::kOk:
      acked = true;
      break;
    case ApplierPool::TryPushResult::kQuarantined:
      fail = Status::ResourceExhausted(
          "update slice quarantined; retry after revival");
      break;
    case ApplierPool::TryPushResult::kStopped:
      fail = Status::Internal("ingest stopped");
      break;
    case ApplierPool::TryPushResult::kWouldBlock:
      if (std::chrono::steady_clock::now() >= c->parked_deadline) {
        m_park_deadline_->Add(1);
        fail = Status::DeadlineExceeded(
            "update not admitted within the push deadline "
            "(slice backpressure)");
      } else {
        resolved = false;
      }
      break;
  }
  if (!resolved) {
    c->retry_timer = loop_.RunAfter(
        opts_.push_retry_ms, [this, conn_id] { RetryParked(conn_id); });
    return;
  }
  if (acked) {
    c->last_update_ts = std::max(c->last_update_ts, ts);
    m_updates_->Add(1);
    SendFrame(c, FrameKind::kUpdateAck, Status::Code::kOk,
              c->parked_request_id, EncodeUpdateAck(ts));
  } else {
    SendError(c, c->parked_request_id, fail);
  }
  it = conns_.find(conn_id);
  if (it != conns_.end()) FinishParked(it->second.get());
}

void Server::FinishParked(Connection* c) {
  c->parked = false;
  if (c->retry_timer != 0) {
    loop_.CancelTimer(c->retry_timer);
    c->retry_timer = 0;
  }
  const uint64_t conn_id = c->id;
  // Drain the frames that queued up behind the parked op, then resume
  // reading from the socket.
  ProcessFrames(c);
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  c = it->second.get();
  UpdateReadInterest(c);
  MaybeCloseDrained(c);  // peer may have half-closed while the op was parked
}

void Server::HandleStats(Connection* c, const Frame& f) {
  const std::string line = obs::SnapshotToJsonLine(
      engine_->metrics()->TakeSnapshot(), ++stats_seq_,
      MsSince(start_time_));
  SendFrame(c, FrameKind::kStatsResult, Status::Code::kOk, f.request_id,
            line);
}

void Server::HandleShutdown(Connection* c, const Frame& f) {
  SendFrame(c, FrameKind::kOk, Status::Code::kOk, f.request_id,
            std::string());
  BeginShutdown();
}

// ------------------------------------------------------------- write path

void Server::SendFrame(Connection* c, FrameKind kind, Status::Code status,
                       uint64_t request_id, const std::string& payload) {
  EncodeFrame(kind, status, request_id, payload, &c->out);
  m_frames_out_->Add(1);
  if (c->out.size() - c->sent >= kFlushBytes) {
    Flush(c);  // may close the connection; caller must re-look-up
  } else if (!c->dirty && !c->want_write) {
    // An armed EPOLLOUT already owns the flush.
    c->dirty = true;
    dirty_.push_back(c->id);
  }
}

void Server::SendError(Connection* c, uint64_t request_id,
                       const Status& st) {
  m_errors_sent_->Add(1);
  SendFrame(c, FrameKind::kError, st.code(), request_id, st.message());
}

void Server::Flush(Connection* c) {
  const uint64_t conn_id = c->id;
  size_t written = 0;
  while (c->sent < c->out.size()) {
    if (GPMV_FAULT_POINT(opts_.fault, "net.write")) {
      CloseConn(conn_id);
      return;
    }
    const ssize_t n = ::write(c->fd, c->out.data() + c->sent,
                              c->out.size() - c->sent);
    if (n > 0) {
      c->sent += static_cast<size_t>(n);
      written += static_cast<size_t>(n);
      m_bytes_out_->Add(static_cast<uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket full: a slow reader. Arm EPOLLOUT and stream the rest out
      // as the peer drains — only this connection waits.
      if (!c->want_write) {
        c->want_write = true;
        UpdateReadInterest(c);
      }
      break;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn_id);
    return;
  }
  if (written > 0) {
    m_flushes_->Add(1);
    m_flush_bytes_->Record(written);
  }
  if (c->sent == c->out.size()) {
    c->out.clear();
    c->sent = 0;
    if (c->want_write) {
      c->want_write = false;
      UpdateReadInterest(c);
    }
    MaybeCloseDrained(c);  // may close; nothing touches c afterwards
  }
  MaybeFinishShutdown();
}

void Server::FlushDirty() {
  // Flush never sends a frame, so dirty_ does not grow under the loop.
  for (uint64_t id : dirty_) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // closed during the pass
    it->second->dirty = false;
    Flush(it->second.get());
  }
  dirty_.clear();
}

void Server::UpdateReadInterest(Connection* c) {
  uint32_t events = 0;
  if (!c->reading_paused && !c->draining && !c->parked && !shutting_down_) {
    events |= EPOLLIN;
  }
  if (c->want_write) events |= EPOLLOUT;
  loop_.Modify(c->fd, events);
}

void Server::MaybeCloseDrained(Connection* c) {
  // A parked op still owes its client an ack/error even after the peer
  // half-closed its write side — it resolves (or deadlines) first.
  if (c->draining && !c->parked && c->replies.empty() &&
      c->sent == c->out.size()) {
    CloseConn(c->id);
  }
}

void Server::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* c = it->second.get();
  if (c->retry_timer != 0) loop_.CancelTimer(c->retry_timer);
  loop_.Unwatch(c->fd);
  ::close(c->fd);
  conns_.erase(it);
  m_closed_->Add(1);
  m_open_conns_->Set(static_cast<double>(conns_.size()));
  MaybeFinishShutdown();
}

// ------------------------------------------------------ query completion

Server::QueryReply Server::EncodeReply(uint64_t request_id,
                                       QueryResponse resp) {
  QueryReply reply;
  reply.request_id = request_id;
  if (resp.status.ok()) {
    // Normalized match sets make equal results bit-identical on the wire
    // (the loadgen equivalence check relies on it).
    resp.result.Normalize();
    reply.payload = EncodeQueryResult(resp);
  } else {
    reply.kind = FrameKind::kError;
    reply.status = resp.status.code();
    reply.payload = resp.status.message();
  }
  return reply;
}

void Server::OnQueryDone(uint64_t conn_id, uint64_t seq, QueryReply reply) {
  auto it = conns_.find(conn_id);
  // Connection gone while the query ran: the result is dropped.
  if (it == conns_.end()) return;
  Connection* c = it->second.get();
  GPMV_DCHECK(seq - c->next_reply_seq < c->replies.size());
  c->replies[seq - c->next_reply_seq] = std::move(reply);
  while (!c->replies.empty() && c->replies.front().has_value()) {
    QueryReply r = std::move(*c->replies.front());
    c->replies.pop_front();
    ++c->next_reply_seq;
    if (r.kind == FrameKind::kError) m_errors_sent_->Add(1);
    SendFrame(c, r.kind, r.status, r.request_id, r.payload);
    if (conns_.find(conn_id) == conns_.end()) return;  // a write fault
  }
  // Whatever was sent is flushed by the pass-end flush (or already was),
  // and that flush closes a drained connection and finishes a shutdown.
}

// -------------------------------------------------------------- shutdown

void Server::BeginShutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  loop_.Unwatch(listen_fd_);
  // Collect ids first: failing a parked op / flushing may close conns.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (auto& [id, c] : conns_) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Connection* c = it->second.get();
    c->draining = true;
    if (c->parked) {
      // Fail the parked op *before* sending (SendError can flush and, on a
      // write fault, close the connection under us).
      c->parked = false;
      if (c->retry_timer != 0) {
        loop_.CancelTimer(c->retry_timer);
        c->retry_timer = 0;
      }
      const uint64_t rid = c->parked_request_id;
      SendError(c, rid, Status::Internal("server shutting down"));
      it = conns_.find(id);
      if (it == conns_.end()) continue;
      c = it->second.get();
    }
    UpdateReadInterest(c);
    Flush(c);  // writes what is buffered; closes an idle connection
  }
  // Backstop: a peer that never drains its socket cannot hold the exit.
  loop_.RunAfter(kShutdownDrainMs, [this] {
    CloseAll();
    loop_.RequestStop();
  });
  MaybeFinishShutdown();
}

void Server::MaybeFinishShutdown() {
  if (!shutting_down_) return;
  for (auto& [id, c] : conns_) {
    if (!c->replies.empty() || c->sent != c->out.size()) return;
  }
  // Everything answered and drained: close the remainder and stop.
  CloseAll();
  loop_.RequestStop();
}

void Server::CloseAll() {
  if (conns_.empty()) return;  // the gauge already reads 0
  for (auto& [id, c] : conns_) {
    if (c->retry_timer != 0) loop_.CancelTimer(c->retry_timer);
    loop_.Unwatch(c->fd);
    ::close(c->fd);
    m_closed_->Add(1);
  }
  conns_.clear();
  m_open_conns_->Set(0.0);
}

}  // namespace net
}  // namespace gpmv
