/// \file snapshot.h
/// \brief Frozen, read-only CSR snapshots of a data graph.
///
/// The mutable `Graph` keeps per-node adjacency vectors so the maintenance
/// layer can insert and delete edges cheaply; the matching fixpoints, in
/// contrast, only ever *read* adjacency, and they read it millions of times
/// per query. `GraphSnapshot` freezes one version of a graph into dense,
/// index-addressed arrays (Galois-style CSR):
///
///  * out/in adjacency as offset + flat target arrays (each row sorted, so
///    `HasEdge` is a binary search over a cache-resident span);
///  * the label index (label -> nodes) and per-node label sets as two more
///    CSR structures, plus copies of the label table and node attributes, so
///    candidate enumeration and predicate evaluation never touch the
///    mutable graph;
///  * a version number identifying which graph state was frozen.
///
/// Snapshots are immutable after construction and are shared via
/// `shared_ptr`, which is what lets the concurrent query engine hand one
/// snapshot to any number of in-flight queries while an update batch builds
/// the next version. Edge updates never change the node section (labels,
/// label index, attributes), so re-freezing after an edge batch shares it
/// with the previous snapshot and only rewrites adjacency — and only the
/// rows of nodes the batch actually touched (`Graph::Freeze()` tracks the
/// dirty rows and copies unchanged spans wholesale).
///
/// Freeze/refreeze + version contract (what callers may rely on):
///
///  * `version()` identifies the exact graph state frozen: it equals
///    `Graph::version()` at freeze time, and two snapshots with equal
///    versions of the same graph are interchangeable. Snapshot versions
///    are strictly increasing along a graph's mutation history — they are
///    the system-wide consistency token (the engine keys its view-install
///    race detection and the full-result cache on them; see
///    docs/ARCHITECTURE.md).
///  * `Graph::Freeze()` is idempotent between mutations (returns the
///    cached snapshot) and incremental across edge-only mutations (shares
///    the node section, rebuilds only dirty adjacency rows). It must be
///    externally serialized against mutations and itself; the engine does
///    so under its exclusive registry lock.
///  * Everything on a built snapshot is a const read: any number of
///    threads may query one snapshot concurrently with no synchronization,
///    including while `Freeze()` builds a *newer* snapshot of the same
///    graph (the builder never mutates published snapshots).
///  * `Rebuild` requires `prev` to describe the same node set — callers go
///    through `Graph::Freeze()`, which proves this via
///    `node_section_version()` before taking the incremental path.

#ifndef GPMV_GRAPH_SNAPSHOT_H_
#define GPMV_GRAPH_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace gpmv {

/// Non-owning view over a contiguous range of values in a CSR flat array.
template <typename T>
class Span {
 public:
  Span() = default;
  Span(const T* begin, const T* end) : begin_(begin), end_(end) {}

  const T* begin() const { return begin_; }
  const T* end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  const T& operator[](size_t i) const { return begin_[i]; }
  const T& front() const { return *begin_; }
  const T& back() const { return *(end_ - 1); }

 private:
  const T* begin_ = nullptr;
  const T* end_ = nullptr;
};

using NodeSpan = Span<NodeId>;
using LabelSpan = Span<LabelId>;

/// See file comment.
class GraphSnapshot {
 public:
  /// Freezes the current state of `g` as version `version`. Prefer
  /// `Graph::Freeze()`, which caches the snapshot and re-freezes
  /// incrementally; `Build` is the const-safe full rebuild.
  static std::shared_ptr<const GraphSnapshot> Build(const Graph& g,
                                                    uint64_t version);

  /// Delta-aware re-freeze: rebuilds only the adjacency rows listed in
  /// `out_dirty` / `in_dirty` (out- resp. in-rows whose edges changed since
  /// `prev` was built), copying every other row — and the whole node
  /// section — from `prev`. Requires `prev` to describe the same node set
  /// (same node count, labels and attributes); `Graph::Freeze()` checks
  /// this via the node-section version before calling.
  static std::shared_ptr<const GraphSnapshot> Rebuild(
      const Graph& g, uint64_t version, const GraphSnapshot& prev,
      const std::vector<NodeId>& out_dirty,
      const std::vector<NodeId>& in_dirty);

  uint64_t version() const { return version_; }
  size_t num_nodes() const { return out_offsets_.size() - 1; }
  size_t num_edges() const { return out_targets_.size(); }
  size_t Size() const { return num_nodes() + num_edges(); }

  NodeSpan out_neighbors(NodeId v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }
  NodeSpan in_neighbors(NodeId v) const {
    return {in_sources_.data() + in_offsets_[v],
            in_sources_.data() + in_offsets_[v + 1]};
  }
  size_t out_degree(NodeId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  size_t in_degree(NodeId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Binary search in the (sorted) CSR out-row of `u`.
  bool HasEdge(NodeId u, NodeId v) const;

  LabelSpan labels(NodeId v) const {
    const auto& n = *nodes_;
    return {n.label_flat.data() + n.label_offsets[v],
            n.label_flat.data() + n.label_offsets[v + 1]};
  }
  bool HasLabel(NodeId v, LabelId label) const;
  const AttributeSet& attrs(NodeId v) const { return nodes_->attrs[v]; }

  size_t num_labels() const { return nodes_->label_names.size(); }
  const std::string& LabelName(LabelId id) const {
    return nodes_->label_names[id];
  }
  LabelId FindLabel(const std::string& name) const;

  /// All nodes carrying `label`, ascending (empty for unknown labels).
  NodeSpan NodesWithLabel(LabelId label) const;

  /// Version of the node section this snapshot froze; re-freezes that share
  /// the node section report the same value.
  uint64_t node_section_version() const { return nodes_->node_version; }

  /// True iff this snapshot shares its node section with `other` (i.e. one
  /// was re-frozen from the other across edge-only updates).
  bool SharesNodeSection(const GraphSnapshot& other) const {
    return nodes_ == other.nodes_;
  }

  /// Rough memory footprint of the CSR arrays in bytes (adjacency + label
  /// structures; attribute payloads excluded).
  size_t ApproxBytes() const;

 private:
  /// Everything edge updates cannot change, shared across re-freezes.
  struct NodeSection {
    std::vector<uint32_t> label_offsets;  // node -> labels CSR
    std::vector<LabelId> label_flat;
    std::vector<uint32_t> index_offsets;  // label -> nodes CSR
    std::vector<NodeId> index_flat;
    std::vector<std::string> label_names;
    std::unordered_map<std::string, LabelId> label_ids;
    std::vector<AttributeSet> attrs;
    uint64_t node_version = 0;
  };

  static std::shared_ptr<const NodeSection> BuildNodeSection(const Graph& g);

  uint64_t version_ = 0;
  std::vector<uint32_t> out_offsets_;  // |V| + 1
  std::vector<uint32_t> in_offsets_;   // |V| + 1
  std::vector<NodeId> out_targets_;    // |E|, rows sorted ascending
  std::vector<NodeId> in_sources_;     // |E|, rows sorted ascending
  std::shared_ptr<const NodeSection> nodes_;
};

}  // namespace gpmv

#endif  // GPMV_GRAPH_SNAPSHOT_H_
