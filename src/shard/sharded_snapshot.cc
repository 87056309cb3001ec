#include "shard/sharded_snapshot.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "engine/executor.h"  // ParallelInvoke

namespace gpmv {

namespace {

/// Degree-balanced contiguous cut points: walks nodes accumulating
/// (out + in + 1) weight and cuts when the running sum crosses the next
/// K-quantile. The +1 keeps isolated-node tails from collapsing into one
/// shard. Deterministic in the snapshot contents.
std::vector<NodeId> ComputeRangeBounds(const GraphSnapshot& parent,
                                       uint32_t num_shards) {
  const size_t n = parent.num_nodes();
  std::vector<NodeId> bounds(num_shards + 1, static_cast<NodeId>(n));
  bounds[0] = 0;
  const uint64_t total = 2 * static_cast<uint64_t>(parent.num_edges()) +
                         static_cast<uint64_t>(n);
  uint64_t acc = 0;
  uint32_t next_cut = 1;
  for (NodeId v = 0; v < n && next_cut < num_shards; ++v) {
    acc += parent.out_degree(v) + parent.in_degree(v) + 1;
    while (next_cut < num_shards &&
           acc * num_shards >= total * next_cut) {
      bounds[next_cut++] = v + 1;
    }
  }
  return bounds;
}

}  // namespace

std::shared_ptr<const ShardSlice> ShardSlice::Build(const GraphSnapshot& parent,
                                                   NodeId begin, NodeId end,
                                                   uint32_t shard) {
  auto slice = std::make_shared<ShardSlice>();
  slice->shard_ = shard;
  slice->node_begin_ = begin;
  slice->node_end_ = end;
  const uint32_t owned = slice->num_owned();

  // Pass 1: copy the full rows of every owned node and collect boundary
  // references.
  slice->out_offsets_.assign(owned + 1, 0);
  slice->in_offsets_.assign(owned + 1, 0);
  std::vector<NodeId> boundary;
  for (uint32_t i = 0; i < owned; ++i) {
    const NodeId v = slice->owned_node(i);
    slice->out_offsets_[i + 1] =
        slice->out_offsets_[i] + static_cast<uint32_t>(parent.out_degree(v));
    slice->in_offsets_[i + 1] =
        slice->in_offsets_[i] + static_cast<uint32_t>(parent.in_degree(v));
  }
  slice->out_targets_.reserve(slice->out_offsets_[owned]);
  slice->in_sources_.reserve(slice->in_offsets_[owned]);
  for (uint32_t i = 0; i < owned; ++i) {
    const NodeId v = slice->owned_node(i);
    for (NodeId w : parent.out_neighbors(v)) {
      slice->out_targets_.push_back(w);
      if (!slice->Owns(w)) boundary.push_back(w);
    }
    for (NodeId w : parent.in_neighbors(v)) {
      slice->in_sources_.push_back(w);
      if (!slice->Owns(w)) boundary.push_back(w);
    }
  }
  std::sort(boundary.begin(), boundary.end());
  boundary.erase(std::unique(boundary.begin(), boundary.end()),
                 boundary.end());
  slice->replicas_ = std::move(boundary);
  return slice;
}

uint32_t ShardSlice::FindReplica(NodeId v) const {
  auto it = std::lower_bound(replicas_.begin(), replicas_.end(), v);
  return (it != replicas_.end() && *it == v)
             ? static_cast<uint32_t>(it - replicas_.begin())
             : kNoReplica;
}

size_t ShardSlice::ApproxBytes() const {
  return (out_offsets_.size() + in_offsets_.size()) * sizeof(uint32_t) +
         (out_targets_.size() + in_sources_.size() + replicas_.size()) *
             sizeof(NodeId);
}

std::shared_ptr<const ShardedSnapshot> ShardedSnapshot::Build(
    std::shared_ptr<const GraphSnapshot> parent, ShardingOptions opts,
    ThreadPool* pool) {
  const uint32_t k = std::max<uint32_t>(1, opts.num_shards);
  auto out = std::make_shared<ShardedSnapshot>();
  out->parent_ = std::move(parent);
  out->bounds_ = ComputeRangeBounds(*out->parent_, k);
  out->slices_.resize(k);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(k);
  for (uint32_t s = 0; s < k; ++s) {
    tasks.push_back([&, s] {
      out->slices_[s] = ShardSlice::Build(*out->parent_, out->bounds_[s],
                                          out->bounds_[s + 1], s);
    });
  }
  ParallelInvoke(pool, std::move(tasks));
  return out;
}

uint32_t ShardedSnapshot::owner(NodeId v) const {
  // First cut point strictly greater than v, minus one interval.
  auto it = std::upper_bound(bounds_.begin() + 1, bounds_.end(), v);
  return static_cast<uint32_t>(it - (bounds_.begin() + 1));
}

size_t ShardedSnapshot::total_replicas() const {
  size_t total = 0;
  for (const auto& s : slices_) total += s->num_replicas();
  return total;
}

size_t ShardedSnapshot::ApproxBytes() const {
  size_t total = bounds_.size() * sizeof(NodeId);
  for (const auto& s : slices_) total += s->ApproxBytes();
  return total;
}

}  // namespace gpmv
