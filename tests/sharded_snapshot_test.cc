/// \file sharded_snapshot_test.cc
/// \brief Structure tests of the per-shard CSR slices: ownership is a
/// partition, owned rows mirror the parent snapshot, replica tables hold
/// exactly the referenced boundary nodes with correctly restricted rows,
/// and a parallel Build matches the serial one.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "engine/executor.h"
#include "graph/snapshot.h"
#include "shard/sharded_snapshot.h"
#include "workload/graph_gen.h"

namespace gpmv {
namespace {

Graph MakeGraph(uint64_t seed, size_t nodes = 200, size_t edges = 700) {
  RandomGraphOptions go;
  go.num_nodes = nodes;
  go.num_edges = edges;
  go.num_labels = 5;
  go.seed = seed;
  return GenerateRandomGraph(go);
}

std::vector<NodeId> ToVector(NodeSpan span) {
  return std::vector<NodeId>(span.begin(), span.end());
}

/// Every structural invariant of one slice against its parent.
void CheckSlices(const ShardedSnapshot& ss) {
  const GraphSnapshot& parent = ss.parent();
  const size_t n = parent.num_nodes();

  // Ownership partitions the node set, consistently between owner() and
  // the slices' own tests.
  std::vector<uint32_t> owner_of(n);
  for (NodeId v = 0; v < n; ++v) {
    owner_of[v] = ss.owner(v);
    ASSERT_LT(owner_of[v], ss.num_shards());
    for (uint32_t s = 0; s < ss.num_shards(); ++s) {
      EXPECT_EQ(ss.slice(s).Owns(v), s == owner_of[v]);
    }
  }

  size_t total_owned = 0;
  for (uint32_t s = 0; s < ss.num_shards(); ++s) {
    const ShardSlice& slice = ss.slice(s);
    total_owned += slice.num_owned();
    std::set<NodeId> expect_replicas;
    for (uint32_t i = 0; i < slice.num_owned(); ++i) {
      const NodeId v = slice.owned_node(i);
      ASSERT_TRUE(slice.Owns(v));
      ASSERT_EQ(slice.OwnedIndex(v), i);
      // Owned rows are the parent's rows, verbatim.
      EXPECT_EQ(ToVector(slice.out_neighbors(v)),
                ToVector(parent.out_neighbors(v)));
      EXPECT_EQ(ToVector(slice.in_neighbors(v)),
                ToVector(parent.in_neighbors(v)));
      for (NodeId w : parent.out_neighbors(v)) {
        if (owner_of[w] != s) expect_replicas.insert(w);
      }
      for (NodeId w : parent.in_neighbors(v)) {
        if (owner_of[w] != s) expect_replicas.insert(w);
      }
    }
    // Replica table: exactly the boundary nodes, ascending.
    ASSERT_EQ(slice.num_replicas(), expect_replicas.size());
    uint32_t ri = 0;
    for (NodeId w : expect_replicas) {  // std::set iterates ascending
      ASSERT_EQ(slice.replica(ri), w);
      ASSERT_EQ(slice.FindReplica(w), ri);
      ++ri;
    }
    // Nodes this shard never references are not in the table.
    for (NodeId v = 0; v < n; ++v) {
      if (owner_of[v] == s || expect_replicas.count(v) != 0) continue;
      EXPECT_EQ(slice.FindReplica(v), ShardSlice::kNoReplica);
    }
  }
  EXPECT_EQ(total_owned, n);
}

TEST(ShardedSnapshotTest, RangeSlicesMirrorParent) {
  Graph g = MakeGraph(7);
  for (uint32_t k : {1u, 2u, 4u, 7u}) {
    ShardingOptions opts;
    opts.num_shards = k;
    auto ss = ShardedSnapshot::Build(g.Freeze(), opts);
    ASSERT_EQ(ss->num_shards(), k);
    EXPECT_EQ(ss->version(), g.Freeze()->version());
    CheckSlices(*ss);
  }
}

TEST(ShardedSnapshotTest, MoreShardsThanNodes) {
  Graph g = MakeGraph(3, /*nodes=*/5, /*edges=*/8);
  ShardingOptions opts;
  opts.num_shards = 7;
  auto ss = ShardedSnapshot::Build(g.Freeze(), opts);
  CheckSlices(*ss);
}

TEST(ShardedSnapshotTest, ParallelBuildMatchesSerial) {
  Graph g = MakeGraph(13);
  ShardingOptions opts;
  opts.num_shards = 4;
  ThreadPoolOptions po;
  po.num_threads = 3;
  ThreadPool pool(po);
  auto parallel = ShardedSnapshot::Build(g.Freeze(), opts, &pool);
  CheckSlices(*parallel);
}

TEST(ShardedSnapshotTest, ApproxBytesAndReplicaCountsArePositive) {
  Graph g = MakeGraph(31);
  ShardingOptions opts;
  opts.num_shards = 4;
  auto ss = ShardedSnapshot::Build(g.Freeze(), opts);
  EXPECT_GT(ss->ApproxBytes(), 0u);
  EXPECT_GT(ss->total_replicas(), 0u);
}

}  // namespace
}  // namespace gpmv
