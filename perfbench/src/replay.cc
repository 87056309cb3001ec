/// \file replay.cc
/// \brief `perfbench replay`: the traced run. Replays the workload's seeded
/// request sequence in-process — the same steps `gpmv_cli serve --port`
/// takes per frame, called from here — and records spans in memory around
/// each layer's public entry points:
///
///   graph       ReadGraphFile, Graph::Freeze (setup; refreeze after
///               update chunks)
///   engine      QueryEngine construction, RegisterView + WarmViews,
///               QueryEngine::Submit (its ObsOptions::trace span tree is
///               grafted underneath: queue.wait, plan, result_cache.lookup,
///               view_cache.pin, fixpoint)
///   net         FrameParser + Decode* (decode), Encode* (encode)
///   pattern     PatternFromText
///   stream      ApplierPool::Push, FlushAndWait
///   mvcc        QueryEngine::WaitForWatermark (read-your-writes)
///   core        MinimizePattern, MinimalContainment, MatchJoin, BMatchJoin
///   simulation  MatchSimulation / MatchBoundedSimulation on the frozen
///               snapshot
///   shard       ShardedMatchBoundedSimulation on a ShardedSnapshot of it
///
/// Each span has a name, start, end, parent and request id. A layer's self
/// time is its duration minus the union of its children's intervals. The
/// request sequence runs three times on fresh engines: untraced, traced
/// (spans here plus engine tracing), untraced again; the tracing overhead
/// is the traced mean query time against the two untraced runs'.
///
///   perfbench replay --workload W --seed N --dir D --open-s S
///       [--probe-s S] [--threads T]
///
/// Prints one JSON object of per-layer figures on stdout; exits 1 when a
/// MatchJoin/BMatchJoin answer differs from direct evaluation.

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bmatch_join.h"
#include "core/containment.h"
#include "core/match_join.h"
#include "core/minimization.h"
#include "core/view_io.h"
#include "engine/query_engine.h"
#include "graph/graph_io.h"
#include "net/protocol.h"
#include "pattern/pattern_io.h"
#include "shard/shard_sim.h"
#include "shard/sharded_snapshot.h"
#include "simulation/bounded.h"
#include "simulation/simulation.h"
#include "stream/applier_pool.h"
#include "stream/update_stream.h"
#include "workload.h"

namespace perfbench {

namespace net = gpmv::net;

namespace {

/// In-memory span log. With `enabled` false every call is a no-op, which
/// is the untraced baseline.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
    uint64_t request;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  double NowUs() const { return MsBetween(t0_, Clock::now()) * 1000.0; }

  int Open(const std::string& name, int parent, uint64_t request) {
    if (!enabled_) return -1;
    const double now = NowUs();
    spans_.push_back({name, now, now, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) {
    if (id >= 0) spans_[id].end_us = NowUs();
  }
  int Add(const std::string& name, double start, double end, int parent,
          uint64_t request) {
    spans_.push_back({name, start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Self time per span name (µs summed over the log).
  std::map<std::string, double> SelfTimes() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) kids[s.parent].push_back({s.start_us, s.end_us});
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& k = kids[i];
      std::sort(k.begin(), k.end());
      double covered = 0.0, lo = 0.0, hi = -1.0;
      for (const auto& iv : k) {
        const double a = std::max(iv.first, spans_[i].start_us);
        const double b = std::min(iv.second, spans_[i].end_us);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
      out[spans_[i].name] +=
          std::max(0.0, spans_[i].end_us - spans_[i].start_us - covered);
    }
    return out;
  }

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog* log, const std::string& name, int parent, uint64_t request)
      : log_(log), id_(log->Open(name, parent, request)) {}
  ~Scope() { log_->Close(id_); }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Layer name of an engine trace span (obs/trace.h hierarchy).
std::string EngineLayer(const std::string& name, gpmv::PlanKind plan) {
  if (name == "query") return "engine.execute";
  if (name == "queue.wait") return "engine.queue_wait";
  if (name == "plan") return "engine.plan";
  if (name == "result_cache.lookup") return "engine.result_cache";
  if (name == "view_cache.pin") return "engine.view_cache_pin";
  if (name == "fixpoint") {
    return plan == gpmv::PlanKind::kDirect ? "simulation.fixpoint"
                                           : "core.fixpoint";
  }
  return "engine." + name;
}

void Graft(SpanLog* log, const gpmv::obs::TraceSpan& s, double base_us,
           int parent, uint64_t request, gpmv::PlanKind plan) {
  const double start = base_us + s.start_ms * 1000.0;
  const int id = log->Add(EngineLayer(s.name, plan), start,
                          start + s.dur_ms * 1000.0, parent, request);
  for (const auto& c : s.children) Graft(log, *c, base_us, id, request, plan);
}

/// Seconds spent in each start-up step.
struct SetupTimes {
  double load_s = 0, freeze_s = 0, engine_s = 0, warm_s = 0;
};

struct ServerLike {
  std::unique_ptr<gpmv::QueryEngine> engine;
  std::unique_ptr<gpmv::ApplierPool> pool;
  SetupTimes times;
};

/// The serve start-up sequence (gpmv_cli serve): load, freeze, construct,
/// register + warm views, start the ingest pool.
ServerLike Setup(const std::string& dir,
                 size_t threads, bool traced) {
  ServerLike s;
  Clock::time_point t = Clock::now();
  gpmv::Result<gpmv::Graph> g = gpmv::ReadGraphFile(GraphPath(dir));
  if (!g.ok()) return s;
  s.times.load_s = MsBetween(t, Clock::now()) / 1000.0;
  t = Clock::now();
  (void)g->Freeze();
  s.times.freeze_s = MsBetween(t, Clock::now()) / 1000.0;
  gpmv::EngineOptions eo;
  eo.pool.num_threads = threads;
  eo.pool.shed_when_saturated = true;
  eo.result_cache.budget_bytes = kResultCacheMb << 20;
  eo.obs.trace = traced;
  t = Clock::now();
  s.engine = std::make_unique<gpmv::QueryEngine>(std::move(*g), eo);
  s.times.engine_s = MsBetween(t, Clock::now()) / 1000.0;
  t = Clock::now();
  gpmv::Result<gpmv::ViewSet> vs = gpmv::ReadViewSetFile(ViewsPath(dir));
  if (!vs.ok()) return ServerLike{};
  for (const gpmv::ViewDefinition& d : vs->views()) {
    if (!s.engine->RegisterView(d.name, d.pattern).ok()) return ServerLike{};
  }
  if (!s.engine->WarmViews().ok()) return ServerLike{};
  s.times.warm_s = MsBetween(t, Clock::now()) / 1000.0;
  gpmv::ApplierPoolOptions po;
  po.num_appliers = 1;
  s.pool = std::make_unique<gpmv::ApplierPool>(s.engine.get(), po);
  return s;
}

struct ReplayTotals {
  double request_us = 0;  ///< Σ end-to-end in-process request time
  double query_request_us = 0;  ///< the same, over query requests only
  size_t requests = 0;
  size_t queries = 0;
  size_t updates = 0;
  size_t probes = 0;
  size_t failures = 0;
};

/// One request through the server-side steps, spans under `root`.
void QueryStep(ServerLike* s, SpanLog* log, int root, uint64_t req,
               const std::string& wire, ReplayTotals* tot) {
  net::QueryRequest qr;
  {
    Scope sp(log, "net.decode", root, req);
    net::FrameParser parser(/*require_requests=*/true);
    parser.Feed(reinterpret_cast<const uint8_t*>(wire.data()), wire.size());
    net::Frame f;
    if (!parser.Next(&f)) {
      ++tot->failures;
      return;
    }
    gpmv::Result<net::QueryRequest> d = net::DecodeQueryRequest(f.payload);
    if (!d.ok()) {
      ++tot->failures;
      return;
    }
    qr = std::move(*d);
  }
  gpmv::Result<gpmv::Pattern> pat = [&] {
    Scope sp(log, "pattern.parse", root, req);
    return gpmv::PatternFromText(qr.pattern_text);
  }();
  if (!pat.ok()) {
    ++tot->failures;
    return;
  }
  gpmv::QueryResponse resp;
  {
    Scope sp(log, "engine.submit", root, req);
    gpmv::QueryOptions qo;
    qo.min_applied_ts = qr.min_applied_ts;
    const double base = log->enabled() ? log->NowUs() : 0.0;
    auto fut = s->engine->Submit(std::move(*pat), qo);
    if (!fut.ok()) {
      ++tot->failures;
      return;
    }
    resp = fut->get();
    if (resp.trace) Graft(log, *resp.trace, base, sp.id(), req, resp.plan);
  }
  if (!resp.status.ok()) {
    ++tot->failures;
    return;
  }
  {
    Scope sp(log, "net.encode", root, req);
    resp.result.Normalize();
    std::string out;
    const std::string body = net::EncodeQueryResult(resp);
    net::EncodeFrame(net::FrameKind::kQueryResult, gpmv::Status::Code::kOk,
                     req, body, &out);
  }
  ++tot->queries;
}

void UpdateStep(ServerLike* s, SpanLog* log, int root, uint64_t req,
                const std::string& wire, const Op& op,
                const std::string& follow_up, ReplayTotals* tot) {
  gpmv::EdgeUpdate upd;
  {
    Scope sp(log, "net.decode", root, req);
    net::FrameParser parser(/*require_requests=*/true);
    parser.Feed(reinterpret_cast<const uint8_t*>(wire.data()), wire.size());
    net::Frame f;
    gpmv::Result<gpmv::EdgeUpdate> d =
        parser.Next(&f) ? net::DecodeUpdateRequest(f.payload)
                        : gpmv::Result<gpmv::EdgeUpdate>(
                              gpmv::Status::Corruption("no frame"));
    if (!d.ok()) {
      ++tot->failures;
      return;
    }
    upd = *d;
  }
  uint64_t ts = 0;
  {
    Scope sp(log, "stream.push", root, req);
    ts = s->pool->Push(upd);
  }
  {
    Scope sp(log, "net.encode", root, req);
    std::string out;
    net::EncodeFrame(net::FrameKind::kUpdateAck, gpmv::Status::Code::kOk, req,
                     net::EncodeUpdateAck(ts), &out);
  }
  ++tot->updates;
  if (!op.probe) return;
  {
    Scope sp(log, "mvcc.ryw_wait", root, req);
    if (!s->engine->WaitForWatermark(ts, 5000).ok()) ++tot->failures;
  }
  net::QueryRequest q;
  q.min_applied_ts = ts;
  q.pattern_text = follow_up;
  std::string qwire;
  net::EncodeFrame(net::FrameKind::kQuery, gpmv::Status::Code::kOk, req,
                   net::EncodeQueryRequest(q), &qwire);
  QueryStep(s, log, root, req, qwire, tot);
  ++tot->probes;
}

/// Replays `ops` sequentially; returns the totals.
ReplayTotals Replay(ServerLike* s, SpanLog* log, const std::vector<Op>& ops,
                    const std::vector<std::string>& texts) {
  ReplayTotals tot;
  uint64_t req = 0;
  for (const Op& op : ops) {
    ++req;
    std::string wire;
    if (op.kind == Op::Kind::kQuery) {
      net::QueryRequest q;
      q.pattern_text = texts[op.query];
      net::EncodeFrame(net::FrameKind::kQuery, gpmv::Status::Code::kOk, req,
                       net::EncodeQueryRequest(q), &wire);
    } else {
      const gpmv::EdgeUpdate u = op.kind == Op::Kind::kDelete
                                     ? gpmv::EdgeUpdate::Delete(op.u, op.v)
                                     : gpmv::EdgeUpdate::Insert(op.u, op.v);
      net::EncodeFrame(net::FrameKind::kUpdate, gpmv::Status::Code::kOk, req,
                       net::EncodeUpdateRequest(u), &wire);
    }
    const Clock::time_point t0 = Clock::now();
    {
      Scope root(log, "request", -1, req);
      if (op.kind == Op::Kind::kQuery) {
        QueryStep(s, log, root.id(), req, wire, &tot);
      } else {
        UpdateStep(s, log, root.id(), req, wire, op, texts[op.query], &tot);
      }
    }
    const double us = MsBetween(t0, Clock::now()) * 1000.0;
    tot.request_us += us;
    if (op.kind == Op::Kind::kQuery) tot.query_request_us += us;
    ++tot.requests;
  }
  {
    Scope sp(log, "stream.flush", -1, 0);
    if (!s->pool->FlushAndWait().ok()) ++tot.failures;
  }
  return tot;
}

/// Fastest of `reps` timings of `fn` (µs).
template <typename Fn>
double BestUs(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t = Clock::now();
    fn();
    best = std::min(best, MsBetween(t, Clock::now()) * 1000.0);
  }
  return best;
}

/// The core decomposition times the first kCoreQueries of the (randomly
/// ordered) pool.
constexpr size_t kCoreQueries = 150;
/// The replayed open phase is capped at this many requests (the probe
/// phase at a quarter of it), so a traced run stays short.
constexpr size_t kMaxRequests = 1500;

bool IsPlain(const gpmv::Pattern& q) {
  for (const gpmv::PatternEdge& e : q.edges()) {
    if (e.bound != 1) return false;
  }
  return true;
}

}  // namespace

int ReplayMain(const std::map<std::string, std::string>& args) {
  auto num = [&](const char* k, double def) {
    auto it = args.find(k);
    return it == args.end() ? def : std::stod(it->second);
  };
  const WorkloadSpec* spec =
      FindWorkload(args.count("--workload") ? args.at("--workload") : "");
  if (spec == nullptr || !args.count("--dir")) {
    std::fprintf(stderr, "replay: --workload and --dir are required\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(num("--seed", 1));
  const std::string dir = args.at("--dir");
  const size_t threads = static_cast<size_t>(num("--threads", 4));

  gpmv::Result<gpmv::Graph> graph = gpmv::ReadGraphFile(GraphPath(dir));
  gpmv::Result<gpmv::ViewSet> qs = gpmv::ReadViewSetFile(QueriesPath(dir));
  if (!graph.ok() || !qs.ok()) {
    std::fprintf(stderr, "replay: cannot read the generated inputs\n");
    return 2;
  }
  std::vector<gpmv::Pattern> queries;
  std::vector<std::string> texts;
  for (const gpmv::ViewDefinition& d : qs->views()) {
    queries.push_back(d.pattern);
    texts.push_back(gpmv::PatternToText(d.pattern));
  }

  // The same request sequence the socket run sends: the open phase's ops
  // (capped), then the write-probe phase's.
  std::vector<Op> ops;
  {
    const size_t n_open =
        std::min(kMaxRequests, ArrivalOffsets(seed, Phase::kOpen,
                                              spec->open_rate,
                                              num("--open-s", 10))
                                   .size());
    OpSource src = MakePhaseSource(*spec, *graph, queries.size(), seed,
                                   Phase::kOpen, 0);
    for (size_t i = 0; i < n_open; ++i) ops.push_back(src.Next());
    if (spec->write_probe()) {
      const size_t n_probe = std::min(
          kMaxRequests / 4,
          ArrivalOffsets(seed, Phase::kProbe, spec->probe_rate,
                         num("--probe-s", 5))
              .size());
      OpSource p = MakePhaseSource(*spec, *graph, queries.size(), seed,
                                   Phase::kProbe, 0);
      for (size_t i = 0; i < n_probe; ++i) ops.push_back(p.Next());
    }
  }

  // Untraced, traced, untraced again, each on a fresh server-like engine;
  // the two untraced runs bracket the traced one so warm-up does not read
  // as tracing overhead.
  SpanLog off(false);
  ReplayTotals base;
  auto untraced = [&]() -> bool {
    ServerLike s = Setup(dir, threads, /*traced=*/false);
    if (!s.engine) return false;
    const ReplayTotals r = Replay(&s, &off, ops, texts);
    s.pool->Stop();
    base.query_request_us += r.query_request_us;
    base.queries += r.queries;
    base.failures += r.failures;
    return true;
  };
  if (!untraced()) return 2;
  SpanLog log(true);
  ReplayTotals tr;
  SetupTimes setup;
  {
    ServerLike s = Setup(dir, threads, /*traced=*/true);
    if (!s.engine) return 2;
    tr = Replay(&s, &log, ops, texts);
    s.pool->Stop();
    setup = s.times;
  }
  if (!untraced()) return 2;
  const std::map<std::string, double> self = log.SelfTimes();
  auto self_of = [&](const std::string& name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double layers_us = 0.0;
  for (const auto& kv : self) {
    if (kv.first != "request" && kv.first != "stream.flush") {
      layers_us += kv.second;
    }
  }
  const double req_n = static_cast<double>(std::max<size_t>(tr.requests, 1));
  const double q_n = static_cast<double>(std::max<size_t>(tr.queries, 1));
  const double u_n = static_cast<double>(std::max<size_t>(tr.updates, 1));
  const double p_n = static_cast<double>(std::max<size_t>(tr.probes, 1));
  const double mean_traced = tr.request_us / req_n;
  const double mean_query_traced = tr.query_request_us / q_n;
  const double mean_query_base =
      base.query_request_us /
      static_cast<double>(std::max<size_t>(base.queries, 1));

  // Core decomposition over the distinct pool on the initial graph: the
  // paper's Fig. 8 comparison (MatchJoin/BMatchJoin vs Match on G) with the
  // minimization and containment steps the planner runs first.
  // The sharded fan-out (ShardedMatchBoundedSimulation over `threads`
  // shards) runs on the same queries, so the shard layer is measured on
  // every workload although the served workloads run unsharded.
  double minimize_us = 0, contain_us = 0, mj_us = 0, bmj_us = 0,
         direct_us = 0, direct_on_joined_us = 0, shard_us = 0;
  size_t mj_n = 0, bmj_n = 0, mismatches = 0, shard_rounds = 0,
         shard_messages = 0;
  {
    auto snap = graph->Freeze();
    gpmv::ThreadPoolOptions tpo;
    tpo.num_threads = threads;
    gpmv::ThreadPool shard_pool(tpo);
    gpmv::ShardingOptions so;
    so.num_shards = static_cast<uint32_t>(threads);
    const auto sharded = gpmv::ShardedSnapshot::Build(snap, so, &shard_pool);
    gpmv::Result<gpmv::ViewSet> served = gpmv::ReadViewSetFile(ViewsPath(dir));
    if (!served.ok()) return 2;
    const gpmv::ViewSet& views = *served;
    std::vector<gpmv::ViewExtension> exts;
    for (const gpmv::ViewDefinition& d : views.views()) {
      gpmv::Result<gpmv::ViewExtension> e =
          gpmv::ViewExtension::Materialize(d, *snap);
      if (!e.ok()) return 2;
      exts.push_back(std::move(*e));
    }
    for (size_t qi = 0; qi < std::min(queries.size(), kCoreQueries); ++qi) {
      const gpmv::Pattern& q = queries[qi];
      const bool plain = IsPlain(q);
      minimize_us += BestUs(3, [&] { (void)gpmv::MinimizePattern(q); });
      gpmv::Result<gpmv::ContainmentMapping> m =
          gpmv::ContainmentMapping();
      contain_us += BestUs(3, [&] { m = gpmv::MinimalContainment(q, views); });
      gpmv::Result<gpmv::MatchResult> direct = gpmv::MatchResult();
      const double d_us = BestUs(3, [&] {
        direct = plain ? gpmv::MatchSimulation(q, *snap)
                       : gpmv::MatchBoundedSimulation(q, *snap);
      });
      direct_us += d_us;
      if (!direct.ok()) {
        ++mismatches;
        continue;
      }
      direct->Normalize();
      gpmv::ShardSimStats stats;
      gpmv::Result<gpmv::MatchResult> fanned = gpmv::MatchResult();
      shard_us += BestUs(1, [&] {
        fanned = gpmv::ShardedMatchBoundedSimulation(q, *sharded, &shard_pool,
                                                     nullptr, &stats);
      });
      shard_rounds += stats.rounds;
      shard_messages += stats.messages + stats.frontier_msgs;
      if (!fanned.ok()) {
        ++mismatches;
      } else {
        fanned->Normalize();
        if (!(*fanned == *direct)) ++mismatches;
      }
      if (!m.ok() || !m->contained) continue;
      gpmv::Result<gpmv::MatchResult> joined = gpmv::MatchResult();
      const double j_us = BestUs(3, [&] {
        joined = plain ? gpmv::MatchJoin(q, views, exts, *m)
                       : gpmv::BMatchJoin(q, views, exts, *m);
      });
      (plain ? mj_us : bmj_us) += j_us;
      ++(plain ? mj_n : bmj_n);
      direct_on_joined_us += d_us;
      if (!joined.ok()) {
        ++mismatches;
        continue;
      }
      joined->Normalize();
      if (!(*joined == *direct)) ++mismatches;
    }
  }

  // Refreeze cost of the replayed update stream, in micro-batches of 8
  // coalesced ops on a private copy of the graph.
  double refreeze_us = 0;
  size_t refreezes = 0;
  {
    std::vector<gpmv::EdgeUpdate> chunk;
    auto flush = [&] {
      for (const gpmv::EdgeUpdate& u : gpmv::UpdateStream::Coalesce(chunk)) {
        if (u.kind == gpmv::EdgeUpdate::Kind::kInsert) {
          (void)graph->AddEdgeIfAbsent(u.u, u.v);
        } else {
          (void)graph->RemoveEdge(u.u, u.v);
        }
      }
      chunk.clear();
      refreeze_us += BestUs(1, [&] { (void)graph->Freeze(); });
      ++refreezes;
    };
    for (const Op& op : ops) {
      if (op.kind == Op::Kind::kQuery) continue;
      chunk.push_back(op.kind == Op::Kind::kDelete
                          ? gpmv::EdgeUpdate::Delete(op.u, op.v)
                          : gpmv::EdgeUpdate::Insert(op.u, op.v));
      if (chunk.size() == 8) flush();
    }
    if (!chunk.empty()) flush();
  }

  const double joined_us = mj_us + bmj_us;
  JsonObject o;
  o.Num("replay.requests", static_cast<double>(tr.requests));
  o.Num("replay.queries", static_cast<double>(tr.queries));
  o.Num("replay.updates", static_cast<double>(tr.updates));
  o.Num("replay.failures", static_cast<double>(tr.failures + base.failures));
  o.Num("replay.mean_request_us", mean_traced);
  o.Num("replay.mean_query_us", mean_query_traced);
  o.Num("replay.mean_query_untraced_us", mean_query_base);
  o.Num("net.codec_us", (self_of("net.decode") + self_of("net.encode")) / req_n);
  o.Num("pattern.parse_us", self_of("pattern.parse") / q_n);
  o.Num("engine.submit_us", self_of("engine.submit") / q_n);
  o.Num("engine.execute_us", self_of("engine.execute") / q_n);
  o.Num("engine.plan_us", self_of("engine.plan") / q_n);
  o.Num("engine.result_cache_us", self_of("engine.result_cache") / q_n);
  o.Num("engine.view_cache_pin_us", self_of("engine.view_cache_pin") / q_n);
  o.Num("engine.fixpoint_us",
        (self_of("core.fixpoint") + self_of("simulation.fixpoint")) / q_n);
  o.Num("stream.push_us", self_of("stream.push") / u_n);
  o.Num("mvcc.ryw_wait_us", self_of("mvcc.ryw_wait") / p_n);
  o.Num("residual_share",
        mean_traced > 0 ? (mean_traced - layers_us / req_n) / mean_traced : 0);
  o.Num("trace.overhead_share",
        mean_query_base > 0
            ? (mean_query_traced - mean_query_base) / mean_query_base
            : 0);
  const double nq = static_cast<double>(
      std::max<size_t>(std::min(queries.size(), kCoreQueries), 1));
  o.Num("core.minimize_us", minimize_us / nq);
  o.Num("core.containment_us", contain_us / nq);
  o.Num("core.match_join_us", mj_n ? mj_us / static_cast<double>(mj_n) : 0);
  o.Num("core.bmatch_join_us", bmj_n ? bmj_us / static_cast<double>(bmj_n) : 0);
  o.Num("simulation.direct_us", direct_us / nq);
  o.Num("shard.direct_us", shard_us / nq);
  o.Num("shard.merge_rounds_per_query", static_cast<double>(shard_rounds) / nq);
  o.Num("shard.messages_per_query", static_cast<double>(shard_messages) / nq);
  o.Num("core.match_join_over_direct",
        direct_on_joined_us > 0 ? joined_us / direct_on_joined_us : 0);
  o.Num("core.joined_queries", static_cast<double>(mj_n + bmj_n));
  o.Num("core.join_mismatches", static_cast<double>(mismatches));
  o.Num("graph.refreeze_us",
        refreezes ? refreeze_us / static_cast<double>(refreezes) : 0);
  o.Num("setup.load_s", setup.load_s);
  o.Num("setup.freeze_s", setup.freeze_s);
  o.Num("setup.engine_s", setup.engine_s);
  o.Num("setup.warm_views_s", setup.warm_s);
  std::printf("%s\n", o.str().c_str());
  return mismatches == 0 && tr.failures + base.failures == 0 ? 0 : 1;
}

}  // namespace perfbench
