/// \file loadgen.cc
/// \brief `perfbench load`: drives a running `gpmv_cli serve --port` over
/// the wire protocol (net/protocol.h) through the workload's phases, then
/// checks every distinct query against an in-process oracle.
///
///   perfbench load --workload W --seed N --dir D --port P --conns C
///       --open-s S --closed-s S [--probe-s S] [--pin-cpu N]
///
/// After an untimed closed-loop warm-up, the run is kRounds rounds, each a
/// slice of every phase in the order closed, open, probe, so that every
/// metric samples the whole run rather than one stretch of it (the host's
/// speed drifts over tens of seconds). Between phases the generator waits
/// until every acked update is visible.
/// Phases:
///   closed  — C connection threads, each keeping kClosedWindow requests
///             in flight; completions per second is the capacity.
///   open    — open loop at the workload's fixed rate: one thread sends
///             each request at its scheduled time on connection (i mod C)
///             and reads every connection in between (RunOpenLoop). A
///             request is timed from its *scheduled* send time; the
///             generator's lateness behind it is reported (late_p99_ms,
///             over every send).
///   probe   — (read-only workloads) open-loop updates at the probe rate,
///             each followed on ack by a freshness query, then an untimed
///             closed-loop burst that refills the result cache.
/// A request that fails, is shed or pushed back, or never returns enters
/// the latency samples as +infinity. After the phases, every acked update
/// is replayed in ack-ts order (last op per edge wins, as
/// UpdateStream::Coalesce) on an oracle engine without views, and every
/// distinct query, sent with min_applied_ts = the max acked ts, must be
/// byte-identical to the oracle's answer.
///
/// Prints one JSON object on stdout (run.py turns it into metrics).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/view_io.h"
#include "engine/query_engine.h"
#include "graph/graph_io.h"
#include "net/protocol.h"
#include "pattern/pattern_io.h"
#include "stream/update_stream.h"
#include "workload.h"

namespace perfbench {

using gpmv::EdgeUpdate;
using gpmv::Status;
namespace net = gpmv::net;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Requests each closed-loop connection keeps in flight.
constexpr size_t kClosedWindow = 8;
/// Rounds the phases are interleaved in.
constexpr size_t kRounds = 5;
/// Length of a closed-loop slice whose completion rate is one sample of
/// peak_rps.
constexpr double kSliceSeconds = 0.5;
/// Untimed closed-loop warm-up before the first round: a freshly started
/// server ran the first round's closed slices at half the later rate.
constexpr double kWarmupSeconds = 2.0;
/// Untimed closed-loop burst after each probe slice. The probe's updates
/// leave every result-cache entry stale; refilled here, the next round
/// measures the read-only steady state (the closed slices ran about a
/// quarter slower right after a probe slice).
constexpr double kRewarmSeconds = 0.5;

/// Blocking protocol client over one TCP connection.
class Client {
 public:
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

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
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // A wedged server fails the read instead of hanging the benchmark.
    timeval tv{20, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return true;
  }

  bool SendRaw(const std::string& wire) {
    size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads what the socket has (blocking once) into the parser; false on
  /// disconnect or framing error.
  bool Pump() {
    uint8_t buf[16384];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    parser_.Feed(buf, static_cast<size_t>(n));
    return parser_.ok();
  }

  bool Next(net::Frame* f) { return parser_.Next(f); }

  bool Recv(net::Frame* f) {
    while (!parser_.Next(f)) {
      if (!Pump()) return false;
    }
    return true;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  net::FrameParser parser_{/*require_requests=*/false};
};

std::string Frame(net::FrameKind kind, uint64_t id, const std::string& body) {
  std::string wire;
  net::EncodeFrame(kind, Status::Code::kOk, id, body, &wire);
  return wire;
}

EdgeUpdate ToUpdate(const Op& op) {
  return op.kind == Op::Kind::kDelete ? EdgeUpdate::Delete(op.u, op.v)
                                      : EdgeUpdate::Insert(op.u, op.v);
}

/// Outcome counters and samples of one phase (or of the whole run).
struct Tally {
  std::vector<double> query_ms;   ///< scheduled send -> response
  std::vector<double> ack_ms;     ///< scheduled send -> kUpdateAck
  std::vector<double> fresh_ms;   ///< scheduled send -> follow-up result
  std::vector<double> rtt_ms;     ///< actual send -> query response
  std::vector<double> late_ms;    ///< sender lateness behind schedule
  size_t attempted = 0;
  size_t completed = 0;
  size_t shed = 0;        ///< queries refused (kResourceExhausted)
  size_t pushbacks = 0;   ///< updates refused (deadline / quarantine)
  size_t failed = 0;      ///< other error responses, disconnects
  size_t timed_out = 0;   ///< never answered within the drain window
  size_t ryw_violations = 0;
  std::string first_failure;

  size_t errors() const {
    return shed + pushbacks + failed + timed_out + ryw_violations;
  }
  void Fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
};

struct AckedOp {
  uint64_t ts;
  EdgeUpdate op;
};

/// What a connection is waiting for, in submission order.
struct Pending {
  enum class Kind : uint8_t { kQuery, kUpdate, kFresh };
  Kind kind;
  uint64_t id;
  Clock::time_point sched;
  Clock::time_point sent;
  uint64_t floor;  ///< highest ack ts this connection had when sending
  Op op;
};

struct Shared {
  const WorkloadSpec* spec;
  std::vector<std::string> query_text;
  std::mutex acked_mu;
  std::vector<AckedOp> acked;
};

/// One client connection and the requests it is waiting for. Used by one
/// thread at a time.
struct Conn {
  Client client;
  /// Keyed by request id: the server answers a connection's updates from
  /// the loop thread and its queries from the waiter thread, so an ack can
  /// overtake an earlier query's result.
  std::unordered_map<uint64_t, Pending> pending;
  uint64_t acked_max = 0;
  uint64_t next_id = 1;
  bool dead = false;
};

std::string QueryBody(const std::string& text, uint64_t min_applied_ts) {
  net::QueryRequest q;
  q.min_applied_ts = min_applied_ts;
  q.pattern_text = text;
  return net::EncodeQueryRequest(q);
}

/// Sends `op` on `c` and records it as pending.
void SendOp(Shared* sh, Conn* c, const Op& op, Clock::time_point sched,
            Tally* t) {
  Pending p;
  p.id = c->next_id++;
  p.sched = sched;
  p.floor = c->acked_max;
  p.op = op;
  std::string wire;
  if (op.kind == Op::Kind::kQuery) {
    p.kind = Pending::Kind::kQuery;
    wire = Frame(net::FrameKind::kQuery, p.id,
                 QueryBody(sh->query_text[op.query], 0));
  } else {
    p.kind = Pending::Kind::kUpdate;
    wire = Frame(net::FrameKind::kUpdate, p.id,
                 net::EncodeUpdateRequest(ToUpdate(op)));
  }
  ++t->attempted;
  p.sent = Clock::now();
  if (c->dead || !c->client.SendRaw(wire)) {
    c->dead = true;
    t->Fail("send failed");
    if (op.kind == Op::Kind::kQuery) {
      t->query_ms.push_back(kInf);
    } else {
      t->ack_ms.push_back(kInf);
    }
    return;
  }
  c->pending.emplace(p.id, p);
}

/// Handles one response frame of a connection.
void HandleResponse(Shared* sh, Conn* c, const net::Frame& f, Tally* t) {
  const Clock::time_point now = Clock::now();
  auto it = c->pending.find(f.request_id);
  if (it == c->pending.end()) {
    t->Fail("response to an unknown request id");
    return;
  }
  const Pending p = it->second;
  c->pending.erase(it);
  const bool refused = f.kind == net::FrameKind::kError &&
                       (f.status == Status::Code::kResourceExhausted ||
                        f.status == Status::Code::kDeadlineExceeded);
  if (p.kind == Pending::Kind::kUpdate) {
    if (f.kind == net::FrameKind::kUpdateAck) {
      gpmv::Result<uint64_t> ts = net::DecodeUpdateAck(f.payload);
      if (!ts.ok() || *ts == 0) {
        t->Fail("bad update ack");
        t->ack_ms.push_back(kInf);
        if (p.op.probe) t->fresh_ms.push_back(kInf);
        return;
      }
      ++t->completed;
      t->ack_ms.push_back(MsBetween(p.sched, now));
      c->acked_max = std::max(c->acked_max, *ts);
      {
        std::lock_guard<std::mutex> alk(sh->acked_mu);
        sh->acked.push_back({*ts, ToUpdate(p.op)});
      }
      if (p.op.probe) {
        // Write-to-visible: a follow-up query carrying the acked ts.
        Pending q;
        q.kind = Pending::Kind::kFresh;
        q.id = c->next_id++;
        q.sched = p.sched;
        q.floor = *ts;
        q.op = p.op;
        ++t->attempted;
        q.sent = Clock::now();
        if (!c->client.SendRaw(
                Frame(net::FrameKind::kQuery, q.id,
                      QueryBody(sh->query_text[p.op.query], *ts)))) {
          c->dead = true;
          t->Fail("fresh send failed");
          t->fresh_ms.push_back(kInf);
          return;
        }
        c->pending.emplace(q.id, q);
      }
      return;
    }
    if (refused) {
      ++t->pushbacks;
    } else {
      t->Fail("unexpected update response");
    }
    t->ack_ms.push_back(kInf);
    if (p.op.probe) t->fresh_ms.push_back(kInf);
    return;
  }
  std::vector<double>* lat =
      p.kind == Pending::Kind::kFresh ? &t->fresh_ms : &t->query_ms;
  if (f.kind != net::FrameKind::kQueryResult) {
    if (refused && f.status == Status::Code::kResourceExhausted) {
      ++t->shed;
    } else {
      t->Fail("query error: " +
              std::string(f.payload.begin(), f.payload.end()));
    }
    lat->push_back(kInf);
    return;
  }
  gpmv::Result<net::QueryResultFrame> r = net::DecodeQueryResult(f.payload);
  if (!r.ok()) {
    t->Fail("undecodable query result");
    lat->push_back(kInf);
    return;
  }
  if (r->applied_through_ts < p.floor) {
    ++t->ryw_violations;
    lat->push_back(kInf);
    return;
  }
  ++t->completed;
  lat->push_back(MsBetween(p.sched, now));
  t->rtt_ms.push_back(MsBetween(p.sent, now));
}

/// Runs the calling thread on CPU `cpu` (none when negative) until the
/// scope ends, then restores its previous CPU set.
class PinThread {
 public:
  explicit PinThread(int cpu) {
    if (cpu < 0 || ::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinThread() {
    if (pinned_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// The open loop shared by the open and probe phases: one thread
/// that sends each request at its scheduled time and reads every
/// connection in between. It busy-polls (poll with a zero timeout) while
/// the next send is less than kSpinWindow away: waking a sleeping thread on
/// an idle core here can take milliseconds, which would make the generator
/// run late and add the wake-up to every measured response. The price is
/// one busy core: `pin_cpu`, which run.py keeps free of the server.
/// Unpinned, the scheduler puts the server threads that a send wakes on
/// the sender's core, and the generator then loses whole time slices
/// (4 ms) to them: on a 4-vCPU host 10-20 % of `stream_mixed`'s sends ran
/// more than 0.3 ms late.
void RunOpenLoop(Shared* sh, std::vector<std::unique_ptr<Conn>>* conns,
                 OpSource* source, const std::vector<double>& offsets,
                 int pin_cpu, Tally* t) {
  constexpr auto kSpinWindow = std::chrono::milliseconds(25);
  constexpr auto kDrainWindow = std::chrono::seconds(20);
  PinThread pin(pin_cpu);
  std::vector<pollfd> fds;
  for (auto& c : *conns) fds.push_back({c->client.fd(), POLLIN, 0});
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point drain_deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(
                   offsets.empty() ? 0.0 : offsets.back())) +
      kDrainWindow;
  size_t next = 0;
  for (;;) {
    const Clock::time_point now = Clock::now();
    int timeout_ms = 0;
    if (next < offsets.size()) {
      const Clock::time_point sched =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(offsets[next]));
      if (now >= sched) {
        t->late_ms.push_back(MsBetween(sched, now));
        SendOp(sh, (*conns)[next % conns->size()].get(), source->Next(),
               sched, t);
        ++next;
        continue;
      }
      if (sched - now > kSpinWindow) {
        timeout_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                sched - now - kSpinWindow)
                .count());
      }
    } else {
      bool any_pending = false;
      for (auto& c : *conns) {
        if (!c->dead && !c->pending.empty()) any_pending = true;
      }
      if (!any_pending || now > drain_deadline) break;
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) <= 0) continue;
    for (size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn* c = (*conns)[i].get();
      if (!c->client.Pump()) {
        c->dead = true;
        fds[i].fd = -1;
        continue;
      }
      net::Frame f;
      while (c->client.Next(&f)) HandleResponse(sh, c, f, t);
    }
  }

  // Whatever is still pending never came back: over every limit.
  for (auto& c : *conns) {
    for (const auto& [id, p] : c->pending) {
      ++t->timed_out;
      if (p.kind == Pending::Kind::kQuery) t->query_ms.push_back(kInf);
      if (p.kind == Pending::Kind::kUpdate) t->ack_ms.push_back(kInf);
      if (p.kind == Pending::Kind::kFresh ||
          (p.kind == Pending::Kind::kUpdate && p.op.probe)) {
        t->fresh_ms.push_back(kInf);
      }
    }
    c->pending.clear();
  }
}

/// Closed loop: one connection per source keeps kClosedWindow requests in
/// flight for `seconds`. Appends to `rates` each kSliceSeconds slice's
/// completions per second; peak_rps is their median over the run (a host
/// stall costs the slice it hits, not the figure).
void RunClosedLoop(Shared* sh, std::vector<OpSource>* sources, uint16_t port,
                   double seconds, Tally* total, std::vector<double>* rates) {
  const size_t nconns = sources->size();
  const size_t buckets = std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / kSliceSeconds)));
  std::vector<Tally> tallies(nconns);
  std::vector<std::vector<size_t>> done_in_bucket(
      nconns, std::vector<size_t>(buckets, 0));
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < nconns; ++w) {
    threads.emplace_back([&, w] {
      Tally& t = tallies[w];
      OpSource& source = (*sources)[w];
      auto conn = std::make_unique<Conn>();
      if (!conn->client.Connect(port)) {
        t.Fail("connect failed");
        return;
      }
      auto send_next = [&] {
        const Op op = source.Next();
        SendOp(sh, conn.get(), op, Clock::now(), &t);
      };
      for (size_t i = 0; i < kClosedWindow; ++i) send_next();
      while (!conn->dead && !conn->pending.empty()) {
        net::Frame f;
        if (!conn->client.Recv(&f)) {
          conn->dead = true;
          break;
        }
        const size_t before = t.completed;
        HandleResponse(sh, conn.get(), f, &t);
        const Clock::time_point now = Clock::now();
        if (now < stop) {
          const size_t b = static_cast<size_t>(
              MsBetween(start, now) / (seconds * 1000.0) * buckets);
          done_in_bucket[w][std::min(b, buckets - 1)] +=
              t.completed - before;
          // A freshness follow-up takes a window slot of its own.
          while (conn->pending.size() < kClosedWindow) send_next();
        }
      }
      t.timed_out += conn->pending.size();
    });
  }
  for (std::thread& th : threads) th.join();
  std::vector<double> slice_rates(buckets, 0.0);
  for (size_t w = 0; w < nconns; ++w) {
    Tally& t = tallies[w];
    for (size_t b = 0; b < buckets; ++b) {
      slice_rates[b] += static_cast<double>(done_in_bucket[w][b]) *
                        buckets / seconds;
    }
    total->attempted += t.attempted;
    total->completed += t.completed;
    total->shed += t.shed;
    total->pushbacks += t.pushbacks;
    total->failed += t.failed;
    total->timed_out += t.timed_out;
    total->ryw_violations += t.ryw_violations;
    if (total->first_failure.empty()) total->first_failure = t.first_failure;
  }
  rates->insert(rates->end(), slice_rates.begin(), slice_rates.end());
}

/// One kStats snapshot line over a fresh connection ("" on failure).
std::string FetchStats(uint16_t port) {
  Client c;
  net::Frame f;
  if (!c.Connect(port) ||
      !c.SendRaw(Frame(net::FrameKind::kStats, 1, "")) || !c.Recv(&f) ||
      f.kind != net::FrameKind::kStatsResult) {
    return "";
  }
  return std::string(f.payload.begin(), f.payload.end());
}

/// Waits until every update acked so far is visible: one query over a
/// fresh connection carrying the highest acked ts. Keeps one phase's
/// apply backlog out of the next phase. False on failure.
bool Settle(Shared* sh, uint16_t port) {
  uint64_t max_ts = 0;
  {
    std::lock_guard<std::mutex> lk(sh->acked_mu);
    for (const AckedOp& a : sh->acked) max_ts = std::max(max_ts, a.ts);
  }
  if (max_ts == 0) return true;
  Client c;
  net::Frame f;
  return c.Connect(port) &&
         c.SendRaw(Frame(net::FrameKind::kQuery, 1,
                         QueryBody(sh->query_text[0], max_ts))) &&
         c.Recv(&f) && f.kind == net::FrameKind::kQueryResult;
}

/// The arrivals of `offsets` (seconds from the start of a phase of
/// `seconds`) that fall in round `round`, relative to the round's start.
std::vector<double> RoundSlice(const std::vector<double>& offsets,
                               double seconds, size_t round) {
  const double len = seconds / kRounds;
  const double lo = len * static_cast<double>(round);
  const double hi = round + 1 == kRounds ? seconds : lo + len;
  std::vector<double> out;
  for (double t : offsets) {
    if (t >= lo && t < hi) out.push_back(t - lo);
  }
  return out;
}

/// Answer bytes without plan/version fields (see net_loadgen's check).
std::string Canonical(bool matched,
                      const std::vector<std::vector<gpmv::NodePair>>& edges) {
  std::string out(1, matched ? 1 : 0);
  for (const auto& pairs : edges) {
    const uint32_t n = static_cast<uint32_t>(pairs.size());
    out.append(reinterpret_cast<const char*>(&n), sizeof(n));
    for (const gpmv::NodePair& p : pairs) {
      out.append(reinterpret_cast<const char*>(&p.first), sizeof(p.first));
      out.append(reinterpret_cast<const char*>(&p.second), sizeof(p.second));
    }
  }
  return out;
}

/// The oracle check (see file comment). Returns "" when every query
/// matches, else the first mismatch.
std::string OracleCheck(Shared* sh, gpmv::Graph graph, uint16_t port,
                        size_t threads, size_t* checked) {
  std::vector<AckedOp> acked = sh->acked;
  std::sort(acked.begin(), acked.end(),
            [](const AckedOp& a, const AckedOp& b) { return a.ts < b.ts; });
  uint64_t max_ts = 0;
  std::vector<EdgeUpdate> ordered;
  for (const AckedOp& a : acked) {
    ordered.push_back(a.op);
    max_ts = std::max(max_ts, a.ts);
  }
  gpmv::EngineOptions eo;
  eo.pool.num_threads = threads;
  eo.result_cache.budget_bytes = 0;
  gpmv::QueryEngine oracle(std::move(graph), eo);
  if (!ordered.empty()) {
    Status st = oracle.ApplyUpdates(gpmv::UpdateStream::Coalesce(ordered));
    if (!st.ok()) return "oracle apply: " + st.ToString();
  }
  const size_t n = sh->query_text.size();
  std::vector<std::future<gpmv::QueryResponse>> want(n);
  for (size_t i = 0; i < n; ++i) {
    gpmv::Result<gpmv::Pattern> pat = gpmv::PatternFromText(sh->query_text[i]);
    if (!pat.ok()) return "check parse failed";
    auto fut = oracle.Submit(std::move(*pat));
    if (!fut.ok()) return "oracle submit: " + fut.status().ToString();
    want[i] = std::move(*fut);
  }
  // The served answers, pipelined with a bounded number in flight (well
  // under the executor's queue, so the check itself is never shed).
  constexpr size_t kInFlight = 64;
  std::vector<std::string> served(n);
  Client c;
  if (!c.Connect(port)) return "check connect failed";
  for (size_t sent = 0, got = 0; got < n; ++got) {
    for (; sent < n && sent - got < kInFlight; ++sent) {
      if (!c.SendRaw(Frame(net::FrameKind::kQuery, sent + 1,
                           QueryBody(sh->query_text[sent], max_ts)))) {
        return "check send failed";
      }
    }
    net::Frame f;
    if (!c.Recv(&f) || f.kind != net::FrameKind::kQueryResult ||
        f.request_id == 0 || f.request_id > n) {
      return "check query failed";
    }
    gpmv::Result<net::QueryResultFrame> r = net::DecodeQueryResult(f.payload);
    if (!r.ok()) return "check decode failed";
    served[f.request_id - 1] = Canonical(r->matched, r->edge_matches);
  }
  for (size_t i = 0; i < n; ++i) {
    gpmv::QueryResponse resp = want[i].get();
    if (!resp.status.ok()) return "oracle query: " + resp.status.ToString();
    resp.result.Normalize();
    std::vector<std::vector<gpmv::NodePair>> edges;
    for (uint32_t e = 0; e < resp.result.num_pattern_edges(); ++e) {
      edges.push_back(resp.result.edge_matches(e));
    }
    if (Canonical(resp.result.matched(), edges) != served[i]) {
      return "answer mismatch on query " + std::to_string(i);
    }
    ++*checked;
  }
  return "";
}

/// `<name>_p50_ms`, `<name>_p90_ms` and `<name>_p99_ms` over every sample
/// of the phase.
void AddPercentiles(JsonObject* o, const std::string& name,
                    const std::vector<double>& ms) {
  o->Num(name + "_p50_ms", Percentile(ms, 0.50));
  o->Num(name + "_p90_ms", Percentile(ms, 0.90));
  o->Num(name + "_p99_ms", Percentile(ms, 0.99));
}

void AddSummary(JsonObject* o, const std::string& prefix, Tally* t) {
  o->Num(prefix + "query_n", static_cast<double>(t->query_ms.size()));
  AddPercentiles(o, prefix + "query", t->query_ms);
  o->Num(prefix + "query_mean_rtt_ms", Mean(t->rtt_ms));
}

void Merge(Tally* into, const Tally& t) {
  into->attempted += t.attempted;
  into->completed += t.completed;
  into->shed += t.shed;
  into->pushbacks += t.pushbacks;
  into->failed += t.failed;
  into->timed_out += t.timed_out;
  into->ryw_violations += t.ryw_violations;
  if (into->first_failure.empty()) into->first_failure = t.first_failure;
}

}  // namespace

int LoadMain(const std::map<std::string, std::string>& args) {
  auto num = [&](const char* k, double def) {
    auto it = args.find(k);
    return it == args.end() ? def : std::stod(it->second);
  };
  const WorkloadSpec* spec = FindWorkload(args.count("--workload")
                                              ? args.at("--workload")
                                              : "");
  if (spec == nullptr || !args.count("--dir") || !args.count("--port")) {
    std::fprintf(stderr, "load: --workload, --dir and --port are required\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(num("--seed", 1));
  const std::string dir = args.at("--dir");
  const uint16_t port = static_cast<uint16_t>(num("--port", 0));
  const size_t conns = std::min<size_t>(
      kMaxConns, std::max<size_t>(1, static_cast<size_t>(num("--conns", 4))));
  const double open_s = num("--open-s", 10);
  const double closed_s = num("--closed-s", 5);
  const double probe_s = spec->write_probe() ? num("--probe-s", 5) : 0.0;
  const int pin_cpu = static_cast<int>(num("--pin-cpu", -1));

  gpmv::Result<gpmv::Graph> g = gpmv::ReadGraphFile(GraphPath(dir));
  gpmv::Result<gpmv::ViewSet> qs = gpmv::ReadViewSetFile(QueriesPath(dir));
  if (!g.ok() || !qs.ok()) {
    std::fprintf(stderr, "load: cannot read the generated inputs in %s\n",
                 dir.c_str());
    return 2;
  }
  Shared sh;
  sh.spec = spec;
  for (const gpmv::ViewDefinition& d : qs->views()) {
    sh.query_text.push_back(gpmv::PatternToText(d.pattern));
  }

  std::vector<std::unique_ptr<Conn>> open_conns;
  for (size_t i = 0; i < conns; ++i) {
    open_conns.push_back(std::make_unique<Conn>());
    if (!open_conns.back()->client.Connect(port)) {
      std::fprintf(stderr, "load: connect to port %u failed\n", port);
      return 1;
    }
  }

  // Each phase draws one request sequence for the whole run (the one the
  // traced replay replays), and the rounds take it in turns.
  const size_t nq = sh.query_text.size();
  OpSource open_src = MakePhaseSource(*spec, *g, nq, seed, Phase::kOpen, 0);
  OpSource probe_src = MakePhaseSource(*spec, *g, nq, seed, Phase::kProbe, 0);
  std::vector<OpSource> closed_src;
  for (size_t w = 0; w < conns; ++w) {
    closed_src.push_back(
        MakePhaseSource(*spec, *g, nq, seed, Phase::kClosed, w));
  }
  const std::vector<double> open_at =
      ArrivalOffsets(seed, Phase::kOpen, spec->open_rate, open_s);
  const std::vector<double> probe_at =
      probe_s > 0
          ? ArrivalOffsets(seed, Phase::kProbe, spec->probe_rate, probe_s)
          : std::vector<double>();

  Tally open, closed, probe;
  std::vector<double> slice_rates;
  // kStats snapshots around each open slice: [[before, after], ...].
  std::string stats_open = "[";
  std::vector<double> warmup_rates;
  RunClosedLoop(&sh, &closed_src, port, kWarmupSeconds, &closed,
                &warmup_rates);
  bool settled = Settle(&sh, port);
  for (size_t r = 0; r < kRounds; ++r) {
    RunClosedLoop(&sh, &closed_src, port, closed_s / kRounds, &closed,
                  &slice_rates);
    settled = Settle(&sh, port) && settled;
    const std::string before = FetchStats(port);
    RunOpenLoop(&sh, &open_conns, &open_src, RoundSlice(open_at, open_s, r),
                pin_cpu, &open);
    const std::string after = FetchStats(port);
    stats_open += std::string(r == 0 ? "" : ",") + "[" +
                  (before.empty() ? "null" : before) + "," +
                  (after.empty() ? "null" : after) + "]";
    settled = Settle(&sh, port) && settled;
    if (probe_s > 0) {
      RunOpenLoop(&sh, &open_conns, &probe_src,
                  RoundSlice(probe_at, probe_s, r), pin_cpu, &probe);
      settled = Settle(&sh, port) && settled;
      RunClosedLoop(&sh, &closed_src, port, kRewarmSeconds, &closed,
                    &warmup_rates);
    }
  }
  stats_open += "]";
  if (!settled) open.Fail("wait for the acked updates failed");
  const double peak_rps = Percentile(slice_rates, 0.5);
  const std::string stats_final = FetchStats(port);
  open_conns.clear();

  Tally all;
  Merge(&all, open);
  Merge(&all, closed);
  Merge(&all, probe);
  size_t checked = 0;
  // Shed queries and pushed-back updates were not applied; a failed or
  // lost request leaves the acked set unknown, so no oracle can be exact.
  std::string mismatch = "skipped: a request failed or never returned";
  if (all.failed + all.timed_out == 0) {
    mismatch = OracleCheck(&sh, std::move(*g), port, conns, &checked);
  }
  {
    // The write-to-visible and ack samples come from whichever phase
    // carries updates: the open phase (mixed traffic) or the probe phase.
    Tally& writes = spec->write_probe() ? probe : open;
    JsonObject o;
    o.Str("workload", spec->name);
    AddSummary(&o, "open.", &open);
    o.Num("write.ack_n", static_cast<double>(writes.ack_ms.size()));
    AddPercentiles(&o, "write.ack", writes.ack_ms);
    o.Num("write.fresh_n", static_cast<double>(writes.fresh_ms.size()));
    AddPercentiles(&o, "write.fresh", writes.fresh_ms);
    std::vector<double> late = open.late_ms;
    late.insert(late.end(), probe.late_ms.begin(), probe.late_ms.end());
    o.Num("late_p99_ms", Percentile(late, 0.99));
    o.Num("peak_rps", peak_rps);
    std::string slices = "[";
    for (size_t i = 0; i < slice_rates.size(); ++i) {
      slices += (i == 0 ? "" : ",") + std::to_string(slice_rates[i]);
    }
    o.Raw("closed.slice_rps", slices + "]");
    o.Num("attempted", static_cast<double>(all.attempted));
    o.Num("errors", static_cast<double>(all.errors()));
    o.Num("shed", static_cast<double>(all.shed));
    o.Num("pushbacks", static_cast<double>(all.pushbacks));
    o.Num("failed", static_cast<double>(all.failed));
    o.Num("timed_out", static_cast<double>(all.timed_out));
    o.Num("ryw_violations", static_cast<double>(all.ryw_violations));
    o.Num("acked_updates", static_cast<double>(sh.acked.size()));
    o.Str("first_failure", all.first_failure);
    o.Num("checked_queries", static_cast<double>(checked));
    o.Bool("oracle_ok", mismatch.empty());
    o.Str("oracle_error", mismatch);
    o.Raw("stats_open", stats_open);
    o.Raw("stats_final", stats_final.empty() ? "null" : stats_final);
    std::printf("%s\n", o.str().c_str());
  }
  return 0;
}

}  // namespace perfbench
