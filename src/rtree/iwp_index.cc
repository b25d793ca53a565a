#include "rtree/iwp_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "rtree/queries.h"

namespace nwc {

namespace {

// Number of backward pointers per leaf for a tree of height h: the
// smallest r with h - 2^(r-2) <= 0, i.e. r = ceil(log2 h) + 2; a
// root-only tree needs just the single self/root pointer.
int BackwardPointerCountFor(int height) {
  if (height <= 0) return 1;
  int r = 2;
  while (height - (1 << (r - 2)) > 0) ++r;
  return r;
}

}  // namespace

IwpIndex::PointerTable IwpIndex::PointerTable::FromLists(
    const std::vector<std::vector<NodePointer>>& lists) {
  PointerTable table;
  table.offsets.reserve(lists.size() + 1);
  table.offsets.push_back(0);
  for (const std::vector<NodePointer>& list : lists) {
    table.pointers.insert(table.pointers.end(), list.begin(), list.end());
    table.offsets.push_back(static_cast<uint32_t>(table.pointers.size()));
  }
  return table;
}

IwpIndex IwpIndex::Build(const RStarTree& tree) {
  IwpIndex index;
  index.root_ = tree.root();
  const int h = tree.height();  // leaves are at paper-depth h
  const int r = BackwardPointerCountFor(h);

  // Collect all live nodes grouped by level, walking down from the root
  // (the arena may contain freed slots, so traverse rather than scan ids).
  std::vector<std::vector<NodeId>> by_level(static_cast<size_t>(h) + 1);
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const RTreeNode& n = tree.node(id);
    by_level[static_cast<size_t>(n.level)].push_back(id);
    for (const ChildEntry& entry : n.children) stack.push_back(entry.child);
  }

  // Backward pointers for each leaf: self, ancestors at exponentially
  // growing height offsets, then the root. Lists are indexed by node id
  // while building and flattened into the CSR tables at the end.
  std::vector<std::vector<NodePointer>> backward(tree.node_slot_count());
  std::vector<std::vector<NodePointer>> overlaps(tree.node_slot_count());
  for (const NodeId leaf_id : by_level[0]) {
    std::vector<NodePointer>& pointers = backward[leaf_id];
    pointers.reserve(static_cast<size_t>(r));
    pointers.push_back(NodePointer{leaf_id, tree.node(leaf_id).ComputeMbr()});
    for (int i = 2; i < r; ++i) {
      // bp_i targets the ancestor at paper-depth h - 2^(i-2), i.e. at
      // level 2^(i-2) above the leaf.
      const int target_level = 1 << (i - 2);
      NodeId ancestor = leaf_id;
      while (tree.node(ancestor).level < target_level) {
        ancestor = tree.node(ancestor).parent;
        assert(ancestor != kInvalidNodeId);
      }
      pointers.push_back(NodePointer{ancestor, tree.node(ancestor).ComputeMbr()});
    }
    if (r >= 2) {
      pointers.push_back(NodePointer{tree.root(), tree.node(tree.root()).ComputeMbr()});
    }
  }

  // Overlapping pointers for every backward-target node except the root:
  // same-level nodes with overlapping MBRs. Backward targets are the
  // leaves plus every node at a level of the form 2^(i-2) (any node at
  // such a level is an ancestor of its leaves, hence a target).
  std::vector<int> target_levels = {0};
  for (int i = 2; i < r; ++i) target_levels.push_back(1 << (i - 2));
  for (const int level : target_levels) {
    const std::vector<NodeId>& peers = by_level[static_cast<size_t>(level)];
    // Sweep over min_x so only x-overlapping pairs are compared.
    std::vector<std::pair<Rect, NodeId>> boxes;
    boxes.reserve(peers.size());
    for (const NodeId id : peers) boxes.emplace_back(tree.node(id).ComputeMbr(), id);
    std::sort(boxes.begin(), boxes.end(),
              [](const auto& a, const auto& b) { return a.first.min_x < b.first.min_x; });
    for (size_t i = 0; i < boxes.size(); ++i) {
      if (boxes[i].second == tree.root()) continue;
      std::vector<NodePointer>& pointers = overlaps[boxes[i].second];
      for (size_t j = i + 1; j < boxes.size(); ++j) {
        if (boxes[j].first.min_x > boxes[i].first.max_x) break;
        if (!boxes[i].first.Intersects(boxes[j].first)) continue;
        pointers.push_back(NodePointer{boxes[j].second, boxes[j].first});
        if (boxes[j].second != tree.root()) {
          overlaps[boxes[j].second].push_back(
              NodePointer{boxes[i].second, boxes[i].first});
        }
      }
    }
  }
  index.backward_ = PointerTable::FromLists(backward);
  index.overlaps_ = PointerTable::FromLists(overlaps);
  return index;
}

void IwpIndex::ResolveStartNodes(NodeId leaf, const Rect& window,
                                 std::vector<NodeId>* out) const {
  // Smallest i whose MBR covers the window; the root covers every window
  // that can contain objects, and search regions may extend beyond the
  // data space, so fall back to the root when nothing covers.
  const NodePointer* chosen = nullptr;
  for (const NodePointer& bp : BackwardPointers(leaf)) {
    if (bp.mbr.Contains(window)) {
      chosen = &bp;
      break;
    }
  }
  if (chosen == nullptr) {
    out->push_back(root_);
    return;
  }
  out->push_back(chosen->node);
  for (const NodePointer& op : OverlapPointers(chosen->node)) {
    if (op.mbr.Intersects(window)) out->push_back(op.node);
  }
}

void IwpIndex::WindowQuery(const RStarTree& tree, NodeId leaf, const Rect& window,
                           std::vector<DataObject>* out, IoCounter* io, IoPhase phase,
                           QueryControl* control) const {
  thread_local std::vector<NodeId> starts;
  starts.clear();
  ResolveStartNodes(leaf, window, &starts);
  WindowQueryFrom(tree, starts, window, out, io, phase, control);
}

}  // namespace nwc
