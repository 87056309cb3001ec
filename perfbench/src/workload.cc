#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <tuple>

#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

namespace perfbench {

namespace {

// The workloads: name, update share | open rate, probe rate, seed
// closed-loop capacity.
const WorkloadSpec kWorkloads[] = {
    {"views_read", 0.0, 1500, 20, 11926},
    {"stream_mixed", 0.25, 60, 0, 1409},
};

// The dataset (README.md), generated from kDatasetSeed: a random graph,
// and a pool of connected DAG patterns over the first kQueryLabels labels
// (fewer labels, fewer distinct covering views) of 3-4 nodes with at most
// one extra edge; half of them carry bounds drawn from [1, 3].
constexpr uint64_t kDatasetSeed = 1;
constexpr size_t kGraphNodes = 5000;
constexpr size_t kGraphEdges = 15000;
constexpr size_t kGraphLabels = 16;
constexpr size_t kQueries = 400;
constexpr size_t kQueryLabels = 4;
constexpr uint32_t kMinQueryNodes = 3;
constexpr uint32_t kMaxQueryNodes = 4;
constexpr double kBoundedShare = 0.5;
constexpr uint32_t kMaxBound = 3;
/// Zipf exponent of query popularity over the pool.
constexpr double kZipf = 0.9;
/// Share of deletes among updates.
constexpr double kDeleteShare = 0.5;

gpmv::Pattern MakeQuery(bool bounded, gpmv::Rng* rng) {
  gpmv::RandomPatternOptions po;
  po.num_nodes = kMinQueryNodes + static_cast<uint32_t>(rng->NextBounded(
                                      kMaxQueryNodes - kMinQueryNodes + 1));
  po.num_edges = po.num_nodes - 1 + static_cast<uint32_t>(rng->NextBounded(2));
  po.label_pool = gpmv::SyntheticLabels(kQueryLabels);
  po.dag_only = true;
  po.max_bound = 1;
  po.seed = rng->Next();
  const gpmv::Pattern shape = gpmv::GenerateRandomPattern(po);
  gpmv::Pattern q;
  for (uint32_t u = 0; u < shape.num_nodes(); ++u) {
    q.AddNode(shape.node(u).label, {}, "n" + std::to_string(u));
  }
  for (const gpmv::PatternEdge& e : shape.edges()) {
    const uint32_t bound =
        bounded ? 1 + static_cast<uint32_t>(rng->NextBounded(kMaxBound)) : 1;
    (void)q.AddEdge(e.src, e.dst, bound);
  }
  return q;
}

gpmv::ViewSet CoveringViews(const std::vector<gpmv::Pattern>& queries) {
  std::set<std::tuple<std::string, std::string, uint32_t>> seen;
  gpmv::ViewSet views;
  for (const gpmv::Pattern& q : queries) {
    for (const gpmv::PatternEdge& e : q.edges()) {
      const std::string& a = q.node(e.src).label;
      const std::string& b = q.node(e.dst).label;
      if (!seen.insert({a, b, e.bound}).second) continue;
      gpmv::Pattern v;
      v.AddNode(a, {}, "x");
      v.AddNode(b, {}, "y");
      (void)v.AddEdge(0, 1, e.bound);
      views.Add("v" + std::to_string(views.card()), std::move(v));
    }
  }
  return views;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs() {
  const uint64_t seed = kDatasetSeed;
  Inputs in;
  gpmv::RandomGraphOptions go;
  go.num_nodes = kGraphNodes;
  go.num_edges = kGraphEdges;
  go.num_labels = kGraphLabels;
  go.seed = seed * 2654435761u + 17;
  in.graph = gpmv::GenerateRandomGraph(go);

  gpmv::Rng rng(seed * 40503u + 99);
  std::set<std::string> seen;
  while (in.queries.size() < kQueries) {
    gpmv::Pattern q = MakeQuery(rng.NextDouble() < kBoundedShare, &rng);
    std::string key;
    for (uint32_t u = 0; u < q.num_nodes(); ++u) key += q.node(u).label + ";";
    for (const gpmv::PatternEdge& e : q.edges()) {
      key += std::to_string(e.src) + ">" + std::to_string(e.dst) + "/" +
             std::to_string(e.bound) + ";";
    }
    if (seen.insert(key).second) in.queries.push_back(std::move(q));
  }
  in.views = CoveringViews(in.queries);
  return in;
}

std::string GraphPath(const std::string& dir) { return dir + "/graph.txt"; }
std::string QueriesPath(const std::string& dir) {
  return dir + "/queries.views";
}
std::string ViewsPath(const std::string& dir) { return dir + "/views.views"; }

std::vector<std::pair<NodeId, NodeId>> OwnedEdges(const gpmv::Graph& g,
                                                  uint64_t seed, size_t part,
                                                  size_t nparts) {
  std::vector<std::pair<NodeId, NodeId>> all;
  all.reserve(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.out_neighbors(u)) all.emplace_back(u, v);
  }
  gpmv::Rng rng(seed * 7368787u + 5);
  rng.Shuffle(&all);
  std::vector<std::pair<NodeId, NodeId>> mine;
  for (size_t i = part; i < all.size(); i += nparts) mine.push_back(all[i]);
  return mine;
}

OpSource::OpSource(size_t num_nodes, size_t num_queries,
                   std::vector<std::pair<NodeId, NodeId>> owned,
                   double update_share, uint64_t seed)
    : num_nodes_(num_nodes),
      num_queries_(num_queries),
      present_(std::move(owned)),
      update_share_(update_share),
      rng_(seed) {}

Op OpSource::Next() {
  Op op;
  if (rng_.NextDouble() >= update_share_) {
    op.kind = Op::Kind::kQuery;
    op.query = static_cast<uint32_t>(rng_.NextZipf(num_queries_, kZipf));
    return op;
  }
  op.probe = true;
  op.query = static_cast<uint32_t>(rng_.NextZipf(num_queries_, kZipf));
  if (!present_.empty() && rng_.NextDouble() < kDeleteShare) {
    const size_t i = rng_.NextBounded(present_.size());
    op.kind = Op::Kind::kDelete;
    op.u = present_[i].first;
    op.v = present_[i].second;
    present_[i] = present_.back();
    present_.pop_back();
    return op;
  }
  op.kind = Op::Kind::kInsert;
  op.u = static_cast<NodeId>(rng_.NextBounded(num_nodes_));
  op.v = static_cast<NodeId>(rng_.NextBounded(num_nodes_ - 1));
  if (op.v >= op.u) ++op.v;  // no self loops
  present_.emplace_back(op.u, op.v);
  return op;
}

uint64_t PhaseSeed(uint64_t seed, Phase phase, size_t conn) {
  return seed * 1000003u + static_cast<uint64_t>(phase) * 7919u + conn + 1;
}

size_t EdgePart(Phase phase, size_t conn) {
  switch (phase) {
    case Phase::kOpen:
      return 0;
    case Phase::kClosed:
      return 1 + conn;
    case Phase::kProbe:
      break;
  }
  return kEdgeParts - 1;
}

OpSource MakePhaseSource(const WorkloadSpec& spec, const gpmv::Graph& g,
                         size_t num_queries, uint64_t seed, Phase phase,
                         size_t conn) {
  const double share = phase == Phase::kProbe ? 1.0 : spec.update_share;
  return OpSource(g.num_nodes(), num_queries,
                  OwnedEdges(g, seed, EdgePart(phase, conn), kEdgeParts),
                  share, PhaseSeed(seed, phase, conn));
}

std::vector<double> ArrivalOffsets(uint64_t seed, Phase phase, double rate,
                                   double seconds) {
  gpmv::Rng rng(PhaseSeed(seed, phase, 999));
  std::vector<double> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    out.push_back(t);
  }
  return out;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + key + "\":";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  if (std::isinf(value) || std::isnan(value)) {
    body_ += "null";
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    body_ += buf;
  }
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    if (c == '\n') {
      body_ += "\\n";
      continue;
    }
    body_ += c;
  }
  body_ += "\"";
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

}  // namespace perfbench
