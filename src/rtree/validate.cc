#include "rtree/validate.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/string_util.h"
#include "rtree/node.h"

namespace nwc {

namespace {

struct WalkState {
  size_t objects = 0;
  size_t nodes = 0;
};

// The x/y/id arrays of a leaf must agree in length: a desync is silent
// until a reader (a kernel, or ComputeMbr) runs past the short array.
Status CheckLeafArrays(const RTreeNode& n) {
  const LeafObjects& objects = n.objects;
  if (objects.xs_size() != objects.ids_size() || objects.ys_size() != objects.ids_size()) {
    return Status::Internal(StrFormat("leaf node %u SoA arrays desynced: xs=%zu ys=%zu ids=%zu",
                                      n.id, objects.xs_size(), objects.ys_size(),
                                      objects.ids_size()));
  }
  return Status::Ok();
}

Status WalkSubtree(const RStarTree& tree, NodeId id, NodeId expected_parent, int expected_level,
                   WalkState& state) {
  if (!tree.IsLive(id)) {
    return Status::Internal(StrFormat("node %u referenced but not live", id));
  }
  const RTreeNode& n = tree.node(id);
  ++state.nodes;
  if (n.parent != expected_parent) {
    return Status::Internal(
        StrFormat("node %u parent is %u, expected %u", id, n.parent, expected_parent));
  }
  if (n.level != expected_level) {
    return Status::Internal(
        StrFormat("node %u level is %d, expected %d", id, n.level, expected_level));
  }
  if (n.is_leaf() && !n.children.empty()) {
    return Status::Internal(StrFormat("leaf node %u has children", id));
  }
  if (!n.is_leaf() && !n.objects.empty()) {
    return Status::Internal(StrFormat("internal node %u holds objects", id));
  }

  const size_t count = n.entry_count();
  const size_t max_entries = static_cast<size_t>(tree.options().max_entries);
  const size_t min_entries = static_cast<size_t>(tree.options().min_entries);
  if (count > max_entries) {
    return Status::Internal(StrFormat("node %u holds %zu entries (max %zu)", id, count,
                                      max_entries));
  }
  const bool is_root = id == tree.root();
  if (is_root) {
    if (!n.is_leaf() && count < 2) {
      return Status::Internal(StrFormat("internal root %u has %zu children", id, count));
    }
  } else if (count < min_entries) {
    return Status::Internal(StrFormat("node %u holds %zu entries (min %zu)", id, count,
                                      min_entries));
  }

  if (n.is_leaf()) {
    const Status arrays = CheckLeafArrays(n);
    if (!arrays.ok()) return arrays;
    state.objects += n.objects.size();
    return Status::Ok();
  }
  for (const ChildEntry& entry : n.children) {
    if (!tree.IsLive(entry.child)) {
      return Status::Internal(StrFormat("node %u references dead child %u", id, entry.child));
    }
    const RTreeNode& child = tree.node(entry.child);
    // ComputeMbr reads a leaf's arrays, so they must agree first.
    if (child.is_leaf()) {
      const Status arrays = CheckLeafArrays(child);
      if (!arrays.ok()) return arrays;
    }
    const Rect actual = child.ComputeMbr();
    if (actual != entry.mbr) {
      return Status::Internal(
          StrFormat("node %u stores a stale MBR for child %u", id, entry.child));
    }
    const Status child_status = WalkSubtree(tree, entry.child, id, expected_level - 1, state);
    if (!child_status.ok()) return child_status;
  }
  return Status::Ok();
}

}  // namespace

Status ValidateTree(const RStarTree& tree) {
  if (!tree.IsLive(tree.root())) {
    return Status::Internal("root node is not live");
  }
  WalkState state;
  const Status walk =
      WalkSubtree(tree, tree.root(), kInvalidNodeId, tree.node(tree.root()).level, state);
  if (!walk.ok()) return walk;
  if (state.objects != tree.size()) {
    return Status::Internal(StrFormat("tree reports size %zu but %zu objects are reachable",
                                      tree.size(), state.objects));
  }
  if (state.nodes != tree.node_count()) {
    return Status::Internal(StrFormat("tree reports %zu nodes but %zu are reachable",
                                      tree.node_count(), state.nodes));
  }
  return Status::Ok();
}

}  // namespace nwc
