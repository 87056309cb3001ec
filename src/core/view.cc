#include "core/view.h"

#include <algorithm>
#include <utility>

#include "simulation/bounded.h"

namespace gpmv {

size_t ViewSet::Size() const {
  size_t total = 0;
  for (const ViewDefinition& def : defs_) total += def.pattern.Size();
  return total;
}

bool NodeSnapshot::HasLabel(const std::string& label) const {
  return std::binary_search(labels.begin(), labels.end(), label);
}

Result<ViewExtension> ViewExtension::Materialize(
    const ViewDefinition& def, const GraphSnapshot& g,
    const std::vector<std::vector<NodeId>>* seed,
    std::vector<std::vector<NodeId>>* relation) {
  std::vector<std::vector<NodeId>> sim;
  GPMV_RETURN_NOT_OK(
      ComputeBoundedSimulationRelation(def.pattern, g, &sim, seed));
  std::vector<std::vector<uint32_t>> distances;
  Result<MatchResult> match =
      ExtractBoundedMatches(def.pattern, g, sim, &distances);
  GPMV_RETURN_NOT_OK(match.status());
  if (relation != nullptr) *relation = std::move(sim);

  ViewExtension ext;
  ext.edges_.resize(def.pattern.num_edges());
  ext.matched_ = match->matched();
  if (!ext.matched_) return ext;
  for (uint32_t e = 0; e < def.pattern.num_edges(); ++e) {
    ext.edges_[e].pairs = match->edge_matches(e);
    ext.edges_[e].distances = std::move(distances[e]);
    for (const NodePair& p : ext.edges_[e].pairs) {
      ext.EnsureSnapshot(g, p.first);
      ext.EnsureSnapshot(g, p.second);
    }
  }
  return ext;
}

namespace {

/// Footprint of one snapshot entry (key, struct, label and attribute
/// payloads).
size_t SnapshotBytes(const NodeSnapshot& snap) {
  size_t bytes = sizeof(NodeId) + sizeof(NodeSnapshot);
  for (const std::string& l : snap.labels) bytes += l.size();
  for (const auto& [name, value] : snap.attrs.entries()) {
    bytes += name.size() + sizeof(AttrValue);
    if (value.is_string()) bytes += value.as_string().size();
  }
  return bytes;
}

}  // namespace

void ViewExtension::EnsureSnapshot(const GraphSnapshot& g, NodeId v) {
  auto [it, inserted] = snapshots_.try_emplace(v);
  if (!inserted) return;
  NodeSnapshot& snap = it->second;
  snap.labels.reserve(g.labels(v).size());
  for (LabelId l : g.labels(v)) snap.labels.push_back(g.LabelName(l));
  std::sort(snap.labels.begin(), snap.labels.end());
  snap.attrs = g.attrs(v);
  snapshot_bytes_ += SnapshotBytes(snap);
}

void ViewExtension::DropSnapshot(NodeId v) {
  auto it = snapshots_.find(v);
  if (it == snapshots_.end()) return;
  snapshot_bytes_ -= SnapshotBytes(it->second);
  snapshots_.erase(it);
}

const NodeSnapshot* ViewExtension::snapshot(NodeId v) const {
  auto it = snapshots_.find(v);
  return it == snapshots_.end() ? nullptr : &it->second;
}

size_t ViewExtension::TotalPairs() const {
  size_t total = 0;
  for (const ViewEdgeExtension& e : edges_) total += e.pairs.size();
  return total;
}

size_t ViewExtension::ApproxBytes() const {
  size_t bytes = snapshot_bytes_;
  for (const ViewEdgeExtension& e : edges_) {
    bytes += e.pairs.size() * sizeof(NodePair);
    bytes += e.distances.size() * sizeof(uint32_t);
  }
  return bytes;
}

size_t ViewExtension::RecountApproxBytes() const {
  size_t bytes = ApproxBytes() - snapshot_bytes_;
  for (const auto& [v, snap] : snapshots_) bytes += SnapshotBytes(snap);
  return bytes;
}

Result<std::vector<ViewExtension>> MaterializeAll(const ViewSet& views,
                                                  const GraphSnapshot& g) {
  std::vector<ViewExtension> exts;
  exts.reserve(views.card());
  for (const ViewDefinition& def : views.views()) {
    Result<ViewExtension> ext = ViewExtension::Materialize(def, g);
    GPMV_RETURN_NOT_OK(ext.status());
    exts.push_back(std::move(ext).value());
  }
  return exts;
}

size_t TotalExtensionPairs(const std::vector<ViewExtension>& exts) {
  size_t total = 0;
  for (const ViewExtension& ext : exts) total += ext.TotalPairs();
  return total;
}

}  // namespace gpmv
