#include "rtree/rstar_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "rtree/rstar_split.h"

namespace nwc {

namespace {

Rect MbrOfObject(const DataObject& obj) { return Rect::FromPoint(obj.pos); }
Rect MbrOfChild(const ChildEntry& entry) { return entry.mbr; }

// R* "nearly minimum overlap cost" heuristic: for large fanouts, restrict
// the exact overlap-enlargement scan to this many least-area-enlargement
// candidates (Beckmann et al. suggest 32).
constexpr size_t kOverlapCandidateLimit = 32;

}  // namespace

Status RTreeOptions::Validate() const {
  if (max_entries < 4) {
    return Status::InvalidArgument(StrFormat("max_entries must be >= 4, got %d", max_entries));
  }
  if (min_entries < 1 || min_entries > max_entries / 2) {
    return Status::InvalidArgument(
        StrFormat("min_entries must be in [1, max_entries/2], got %d", min_entries));
  }
  if (!(reinsert_fraction >= 0.0 && reinsert_fraction <= 0.5)) {
    return Status::InvalidArgument(
        StrFormat("reinsert_fraction must be in [0, 0.5], got %f", reinsert_fraction));
  }
  return Status::Ok();
}

RStarTree::RStarTree(RTreeOptions options) : options_(options) {
  CheckOk(options_.Validate(), "RStarTree options");
  root_ = AllocateNode(/*level=*/0);
}

RStarTree RStarTree::FromParts(RTreeOptions options,
                               std::vector<std::unique_ptr<RTreeNode>> nodes, NodeId root,
                               size_t size) {
  RStarTree tree(options);
  tree.nodes_ = std::move(nodes);
  tree.free_list_.clear();
  for (NodeId id = 0; id < tree.nodes_.size(); ++id) {
    if (tree.nodes_[id] == nullptr) tree.free_list_.push_back(id);
  }
  tree.root_ = root;
  tree.size_ = size;
  return tree;
}

RStarTree RStarTree::Clone() const {
  std::vector<std::unique_ptr<RTreeNode>> nodes;
  nodes.reserve(nodes_.size());
  for (const std::unique_ptr<RTreeNode>& n : nodes_) {
    nodes.push_back(n == nullptr ? nullptr : std::make_unique<RTreeNode>(*n));
  }
  return FromParts(options_, std::move(nodes), root_, size_);
}

int RStarTree::height() const { return node(root_).level; }

Rect RStarTree::bounds() const { return node(root_).ComputeMbr(); }

size_t RStarTree::node_count() const { return nodes_.size() - free_list_.size(); }

const RTreeNode& RStarTree::node(NodeId id) const {
  assert(id < nodes_.size() && nodes_[id] != nullptr);
  return *nodes_[id];
}

const RTreeNode& RStarTree::AccessNode(NodeId id, IoCounter* io, IoPhase phase) const {
  if (io != nullptr) io->OnNodeAccess(phase, id);
  return node(id);
}

bool RStarTree::IsLive(NodeId id) const { return id < nodes_.size() && nodes_[id] != nullptr; }

RTreeNode* RStarTree::MutableNode(NodeId id) {
  assert(id < nodes_.size() && nodes_[id] != nullptr);
  return nodes_[id].get();
}

NodeId RStarTree::AllocateNode(int level) {
  NodeId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    nodes_[id] = std::make_unique<RTreeNode>();
  } else {
    id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(std::make_unique<RTreeNode>());
  }
  RTreeNode* n = nodes_[id].get();
  n->id = id;
  n->parent = kInvalidNodeId;
  n->level = level;
  return id;
}

void RStarTree::FreeNode(NodeId id) {
  assert(id < nodes_.size() && nodes_[id] != nullptr);
  nodes_[id].reset();
  free_list_.push_back(id);
}

void RStarTree::Insert(const DataObject& object) {
  std::vector<bool> levels_reinserted(static_cast<size_t>(height()) + 1, false);
  InsertAtLevel(MbrOfObject(object), &object, nullptr, /*target_level=*/0, levels_reinserted);
  ++size_;
}

NodeId RStarTree::ChooseSubtree(const Rect& entry_mbr, int target_level) {
  NodeId current = root_;
  while (node(current).level > target_level) {
    const RTreeNode& n = node(current);
    const std::vector<ChildEntry>& children = n.children;
    assert(!children.empty());

    size_t best = 0;
    if (n.level == 1 && target_level == 0) {
      // Children are leaves: R* picks the child needing the least *overlap*
      // enlargement, ties broken by area enlargement, then area. For large
      // fanouts, scan only the kOverlapCandidateLimit entries with least
      // area enlargement (the R* approximation).
      //
      // The scan is exact but short-cut. Every overlap term
      // OverlapArea(enlarged, j) - OverlapArea(child, j) is >= 0 in IEEE
      // arithmetic (enlarged contains child and rounding is monotone), so
      // the partial sum never decreases. Hence: a child that already
      // contains the entry adds exactly +0.0; a j that misses `enlarged`
      // adds +0.0 and is skipped; a sum past best_overlap is abandoned; and
      // once best_overlap is 0 only a strict (enlarge, area) win can still
      // be picked. Visiting order and the strict < keep exact ties on the
      // same child the exhaustive scan picks (rstar_insert_golden_test).
      const size_t count = children.size();
      std::vector<double> enlarge(count);
      std::vector<double> area(count);
      std::vector<size_t> candidates(count);
      for (size_t i = 0; i < count; ++i) {
        area[i] = children[i].mbr.Area();
        enlarge[i] = Rect::Union(children[i].mbr, entry_mbr).Area() - area[i];
        candidates[i] = i;
      }
      if (candidates.size() > kOverlapCandidateLimit) {
        std::nth_element(candidates.begin(),
                         candidates.begin() + static_cast<ptrdiff_t>(kOverlapCandidateLimit),
                         candidates.end(),
                         [&](size_t a, size_t b) { return enlarge[a] < enlarge[b]; });
        candidates.resize(kOverlapCandidateLimit);
      }
      double best_overlap = std::numeric_limits<double>::infinity();
      double best_enlarge = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (const size_t i : candidates) {
        const bool wins_tie =
            enlarge[i] < best_enlarge || (enlarge[i] == best_enlarge && area[i] < best_area);
        if (best_overlap == 0.0 && !wins_tie) continue;
        const Rect& child = children[i].mbr;
        const Rect enlarged = Rect::Union(child, entry_mbr);
        double overlap_delta = 0.0;
        // If `child` contains the entry, every term is x - x = +0.0; a
        // finite area rules out inf - inf.
        if (!(enlarged == child) || !std::isfinite(area[i])) {
          for (size_t j = 0; j < count; ++j) {
            if (j == i || !enlarged.Intersects(children[j].mbr)) continue;
            overlap_delta +=
                enlarged.OverlapArea(children[j].mbr) - child.OverlapArea(children[j].mbr);
            if (overlap_delta > best_overlap) break;
          }
        }
        if (overlap_delta < best_overlap || (overlap_delta == best_overlap && wins_tie)) {
          best_overlap = overlap_delta;
          best_enlarge = enlarge[i];
          best_area = area[i];
          best = i;
        }
      }
    } else {
      // Internal levels: least area enlargement, ties by smaller area.
      double best_enlarge = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < children.size(); ++i) {
        const double enlarge = children[i].mbr.EnlargementArea(entry_mbr);
        const double area = children[i].mbr.Area();
        if (enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area)) {
          best_enlarge = enlarge;
          best_area = area;
          best = i;
        }
      }
    }
    current = children[best].child;
  }
  return current;
}

void RStarTree::InsertAtLevel(const Rect& entry_mbr, const DataObject* object,
                              const ChildEntry* subtree, int target_level,
                              std::vector<bool>& levels_reinserted) {
  const NodeId target = ChooseSubtree(entry_mbr, target_level);
  RTreeNode* n = MutableNode(target);
  if (object != nullptr) {
    assert(n->is_leaf());
    n->objects.push_back(*object);
  } else {
    assert(subtree != nullptr && n->level == node(subtree->child).level + 1);
    n->children.push_back(*subtree);
    MutableNode(subtree->child)->parent = target;
  }
  AdjustPathMbrs(target);
  if (n->entry_count() > static_cast<size_t>(options_.max_entries)) {
    OverflowTreatment(target, levels_reinserted);
  }
}

void RStarTree::OverflowTreatment(NodeId node_id, std::vector<bool>& levels_reinserted) {
  const RTreeNode& n = node(node_id);
  const size_t level = static_cast<size_t>(n.level);
  if (levels_reinserted.size() <= level) levels_reinserted.resize(level + 1, false);
  if (node_id != root_ && options_.forced_reinsert && !levels_reinserted[level]) {
    levels_reinserted[level] = true;
    ReinsertEntries(node_id, levels_reinserted);
  } else {
    SplitNode(node_id, levels_reinserted);
  }
}

void RStarTree::ReinsertEntries(NodeId node_id, std::vector<bool>& levels_reinserted) {
  RTreeNode* n = MutableNode(node_id);
  const size_t count = n->entry_count();
  size_t p = static_cast<size_t>(std::lround(options_.reinsert_fraction * count));
  p = std::max<size_t>(1, std::min(p, count - static_cast<size_t>(options_.min_entries)));

  const Point center = n->ComputeMbr().Center();
  const auto center_dist = [&center](const Rect& r) {
    return SquaredDistance(center, r.Center());
  };

  if (n->is_leaf()) {
    // Sort ascending by distance-to-center; the p farthest go last.
    std::vector<DataObject> objects = n->objects.ToVector();
    std::sort(objects.begin(), objects.end(), [&](const DataObject& a, const DataObject& b) {
      return center_dist(MbrOfObject(a)) < center_dist(MbrOfObject(b));
    });
    std::vector<DataObject> removed(objects.end() - static_cast<ptrdiff_t>(p), objects.end());
    objects.resize(count - p);
    n->objects.Assign(objects);
    AdjustPathMbrs(node_id);
    // "Close reinsert": removed entries go back nearest-first.
    std::sort(removed.begin(), removed.end(), [&](const DataObject& a, const DataObject& b) {
      return center_dist(MbrOfObject(a)) < center_dist(MbrOfObject(b));
    });
    for (const DataObject& obj : removed) {
      InsertAtLevel(MbrOfObject(obj), &obj, nullptr, /*target_level=*/0, levels_reinserted);
    }
  } else {
    std::sort(n->children.begin(), n->children.end(),
              [&](const ChildEntry& a, const ChildEntry& b) {
                return center_dist(a.mbr) < center_dist(b.mbr);
              });
    std::vector<ChildEntry> removed(n->children.end() - static_cast<ptrdiff_t>(p),
                                    n->children.end());
    n->children.resize(count - p);
    AdjustPathMbrs(node_id);
    const int target_level = n->level;
    std::sort(removed.begin(), removed.end(), [&](const ChildEntry& a, const ChildEntry& b) {
      return center_dist(a.mbr) < center_dist(b.mbr);
    });
    for (const ChildEntry& entry : removed) {
      InsertAtLevel(entry.mbr, nullptr, &entry, target_level, levels_reinserted);
    }
  }
}

void RStarTree::SplitNode(NodeId node_id, std::vector<bool>& levels_reinserted) {
  RTreeNode* n = MutableNode(node_id);
  const int level = n->level;
  const NodeId sibling_id = AllocateNode(level);
  // AllocateNode may reallocate the arena vector; refresh the pointer.
  n = MutableNode(node_id);
  RTreeNode* sibling = MutableNode(sibling_id);

  const size_t m = static_cast<size_t>(options_.min_entries);
  if (n->is_leaf()) {
    SplitResult<DataObject> split = RStarSplit(n->objects.ToVector(), m, MbrOfObject);
    n->objects.Assign(split.first);
    sibling->objects.Assign(split.second);
  } else {
    SplitResult<ChildEntry> split = RStarSplit(std::move(n->children), m, MbrOfChild);
    n->children = std::move(split.first);
    sibling->children = std::move(split.second);
    for (const ChildEntry& entry : sibling->children) {
      MutableNode(entry.child)->parent = sibling_id;
    }
  }

  if (node_id == root_) {
    const NodeId new_root = AllocateNode(level + 1);
    n = MutableNode(node_id);
    sibling = MutableNode(sibling_id);
    RTreeNode* root_node = MutableNode(new_root);
    root_node->children.push_back(ChildEntry{n->ComputeMbr(), node_id});
    root_node->children.push_back(ChildEntry{sibling->ComputeMbr(), sibling_id});
    n->parent = new_root;
    sibling->parent = new_root;
    root_ = new_root;
    return;
  }

  const NodeId parent_id = n->parent;
  sibling->parent = parent_id;
  RTreeNode* parent = MutableNode(parent_id);
  parent->children.push_back(ChildEntry{sibling->ComputeMbr(), sibling_id});
  AdjustPathMbrs(node_id);
  AdjustPathMbrs(sibling_id);
  if (parent->entry_count() > static_cast<size_t>(options_.max_entries)) {
    OverflowTreatment(parent_id, levels_reinserted);
  }
}

void RStarTree::AdjustPathMbrs(NodeId node_id) {
  NodeId current = node_id;
  while (current != root_) {
    UpdateParentEntry(current);
    current = node(current).parent;
  }
}

void RStarTree::UpdateParentEntry(NodeId child) {
  const RTreeNode& child_node = node(child);
  const NodeId parent_id = child_node.parent;
  assert(parent_id != kInvalidNodeId);
  RTreeNode* parent = MutableNode(parent_id);
  for (ChildEntry& entry : parent->children) {
    if (entry.child == child) {
      entry.mbr = child_node.ComputeMbr();
      return;
    }
  }
  assert(false && "child entry missing from parent");
}

Status RStarTree::Delete(const DataObject& object) {
  const NodeId leaf_id = FindLeafFor(object, root_);
  if (leaf_id == kInvalidNodeId) {
    return Status::NotFound(
        StrFormat("object id=%u at (%f, %f) is not stored", object.id, object.pos.x,
                  object.pos.y));
  }
  RTreeNode* leaf = MutableNode(leaf_id);
  size_t index = leaf->objects.size();
  for (size_t i = 0; i < leaf->objects.size(); ++i) {
    if (leaf->objects[i] == object) {
      index = i;
      break;
    }
  }
  assert(index < leaf->objects.size());
  leaf->objects.EraseAt(index);
  --size_;
  CondenseTree(leaf_id);
  // Shrink the root while it is an internal node with a single child.
  while (node(root_).level > 0 && node(root_).children.size() == 1) {
    const NodeId old_root = root_;
    root_ = node(root_).children[0].child;
    MutableNode(root_)->parent = kInvalidNodeId;
    FreeNode(old_root);
  }
  return Status::Ok();
}

NodeId RStarTree::FindLeafFor(const DataObject& object, NodeId subtree) const {
  const RTreeNode& n = node(subtree);
  if (n.is_leaf()) {
    for (const DataObject& stored : n.objects) {
      if (stored == object) return subtree;
    }
    return kInvalidNodeId;
  }
  for (const ChildEntry& entry : n.children) {
    if (!entry.mbr.Contains(object.pos)) continue;
    const NodeId found = FindLeafFor(object, entry.child);
    if (found != kInvalidNodeId) return found;
  }
  return kInvalidNodeId;
}

void RStarTree::CondenseTree(NodeId leaf_id) {
  std::vector<DataObject> orphan_objects;
  // Orphaned subtrees, paired with the level of the node that held them
  // (the level they must be reinserted into).
  std::vector<std::pair<int, ChildEntry>> orphan_subtrees;

  NodeId current = leaf_id;
  while (current != root_) {
    RTreeNode* n = MutableNode(current);
    const NodeId parent_id = n->parent;
    if (n->entry_count() < static_cast<size_t>(options_.min_entries)) {
      // Remove the underfull node and queue its entries for reinsertion.
      RTreeNode* parent = MutableNode(parent_id);
      auto it = std::find_if(parent->children.begin(), parent->children.end(),
                             [current](const ChildEntry& e) { return e.child == current; });
      assert(it != parent->children.end());
      parent->children.erase(it);
      if (n->is_leaf()) {
        orphan_objects.insert(orphan_objects.end(), n->objects.begin(), n->objects.end());
      } else {
        for (const ChildEntry& entry : n->children) {
          orphan_subtrees.emplace_back(n->level, entry);
        }
      }
      FreeNode(current);
    } else {
      UpdateParentEntry(current);
    }
    current = parent_id;
  }

  // Reinsert higher subtrees first so the levels they target still exist.
  std::stable_sort(orphan_subtrees.begin(), orphan_subtrees.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [level, entry] : orphan_subtrees) {
    std::vector<bool> levels_reinserted(static_cast<size_t>(height()) + 1, false);
    InsertAtLevel(entry.mbr, nullptr, &entry, level, levels_reinserted);
  }
  for (const DataObject& obj : orphan_objects) {
    std::vector<bool> levels_reinserted(static_cast<size_t>(height()) + 1, false);
    InsertAtLevel(MbrOfObject(obj), &obj, nullptr, /*target_level=*/0, levels_reinserted);
  }
}

}  // namespace nwc
