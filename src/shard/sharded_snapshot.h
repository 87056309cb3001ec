/// \file sharded_snapshot.h
/// \brief Per-shard CSR slices of a frozen `GraphSnapshot` — the substrate
/// of the edge-cut sharded simulation (shard_sim.h).
///
/// A `ShardedSnapshot` partitions the node set of one frozen graph version
/// into K shards (edge-cut, Galois-style: every node has exactly one owner)
/// and materializes one compact `ShardSlice` per shard:
///
///  * the *full* out/in CSR rows of every owned node (neighbor ids stay
///    global), so a shard-local fixpoint can count supporters among all
///    neighbors of its nodes — and compute, at the owner, exactly which
///    decrements to route to which other shard (shard_sim.h) — without
///    touching the parent arrays;
///  * a *boundary replica table*: the sorted set of non-owned nodes the
///    owned rows reference — the shard's cross-coupling surface. Its size
///    bounds the fixpoint's cross-shard message volume (the
///    partitioning-quality metric);
///  * the node interval it owns, so ownership tests are O(1) per slice and
///    O(log K) across the snapshot.
///
/// Consistency contract: a `ShardedSnapshot` is immutable and stamped with
/// its parent snapshot's `version()` — the slices of one `ShardedSnapshot`
/// always describe one frozen graph version, so a query that fans out
/// across shards reads one consistent graph.
///
/// Partitioning: node ids are cut into K contiguous intervals balanced by
/// degree sum (good locality, contiguous candidate-rank ranges).
///
/// The query engine does not shard: it evaluates every graph walk on the
/// one frozen `GraphSnapshot`. This library remains as the measured
/// edge-cut baseline of perfbench's replay (`shard.*` rows).

#ifndef GPMV_SHARD_SHARDED_SNAPSHOT_H_
#define GPMV_SHARD_SHARDED_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/snapshot.h"

namespace gpmv {

class ThreadPool;

/// Partitioning knobs for `ShardedSnapshot::Build`.
struct ShardingOptions {
  /// Number of shards K; 0 and 1 both mean "one shard" (useful as the
  /// fan-out baseline — a single slice replicating the whole graph).
  uint32_t num_shards = 1;
};

/// One shard's immutable CSR slice; see file comment. Obtained from
/// `ShardedSnapshot::slice`; neighbor ids are global `NodeId`s.
class ShardSlice {
 public:
  static constexpr uint32_t kNoReplica = static_cast<uint32_t>(-1);

  /// Builds the slice of `parent` owning node ids [begin, end) as shard
  /// `shard`; ShardedSnapshot::Build chooses the intervals.
  static std::shared_ptr<const ShardSlice> Build(const GraphSnapshot& parent,
                                                 NodeId begin, NodeId end,
                                                 uint32_t shard);

  uint32_t shard() const { return shard_; }

  /// Owned nodes, exposed as local indices 0..num_owned()-1 in ascending
  /// global node id order.
  uint32_t num_owned() const { return node_end_ - node_begin_; }
  NodeId owned_node(uint32_t local) const { return node_begin_ + local; }
  bool Owns(NodeId v) const { return v >= node_begin_ && v < node_end_; }
  /// Local index of an owned node; precondition: Owns(v).
  uint32_t OwnedIndex(NodeId v) const { return v - node_begin_; }

  /// Full adjacency rows of an owned node (all neighbors, global ids,
  /// ascending). Precondition: Owns(v).
  NodeSpan out_neighbors(NodeId v) const {
    const uint32_t i = OwnedIndex(v);
    return {out_targets_.data() + out_offsets_[i],
            out_targets_.data() + out_offsets_[i + 1]};
  }
  NodeSpan in_neighbors(NodeId v) const {
    const uint32_t i = OwnedIndex(v);
    return {in_sources_.data() + in_offsets_[i],
            in_sources_.data() + in_offsets_[i + 1]};
  }

  /// Boundary replica table: non-owned nodes referenced by owned rows,
  /// sorted ascending by global id.
  uint32_t num_replicas() const {
    return static_cast<uint32_t>(replicas_.size());
  }
  NodeId replica(uint32_t i) const { return replicas_[i]; }
  /// Index of `v` in the replica table; kNoReplica when `v` is not
  /// referenced by this shard. O(log replicas).
  uint32_t FindReplica(NodeId v) const;

  /// Edge slots stored in the owned rows (each owned-incident edge counted
  /// once per direction it is stored in).
  size_t num_local_edges() const {
    return out_targets_.size() + in_sources_.size();
  }
  /// Rough memory footprint of the slice arrays in bytes.
  size_t ApproxBytes() const;

 private:
  uint32_t shard_ = 0;
  NodeId node_begin_ = 0;
  NodeId node_end_ = 0;

  std::vector<uint32_t> out_offsets_;  ///< num_owned + 1
  std::vector<NodeId> out_targets_;
  std::vector<uint32_t> in_offsets_;
  std::vector<NodeId> in_sources_;

  std::vector<NodeId> replicas_;  ///< sorted ascending
};

/// See file comment.
class ShardedSnapshot {
 public:
  /// Slices `parent` into opts.num_shards shards. Slice construction fans
  /// out on `pool` when given (nullptr builds serially).
  static std::shared_ptr<const ShardedSnapshot> Build(
      std::shared_ptr<const GraphSnapshot> parent, ShardingOptions opts,
      ThreadPool* pool = nullptr);

  /// The consistency token: the parent snapshot's version. Every slice
  /// describes exactly this frozen graph state.
  uint64_t version() const { return parent_->version(); }
  const GraphSnapshot& parent() const { return *parent_; }

  uint32_t num_shards() const {
    return static_cast<uint32_t>(slices_.size());
  }
  const ShardSlice& slice(uint32_t s) const { return *slices_[s]; }

  /// Owning shard of `v`: O(log K).
  uint32_t owner(NodeId v) const;

  size_t total_replicas() const;
  size_t ApproxBytes() const;

 private:
  std::shared_ptr<const GraphSnapshot> parent_;
  /// K+1 ascending cut points (bounds_[s] .. bounds_[s+1] is shard s's
  /// interval).
  std::vector<NodeId> bounds_;
  std::vector<std::shared_ptr<const ShardSlice>> slices_;
};

}  // namespace gpmv

#endif  // GPMV_SHARD_SHARDED_SNAPSHOT_H_
