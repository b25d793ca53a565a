#include "rtree/bulk_load.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>

#include "geometry/morton.h"

namespace nwc {

namespace {

// Sorts one leaf group along the Z-order (Morton) curve of its own bounding
// box, quantized to 16 bits per axis. Intra-leaf order is invisible to
// query results, but a space-filling order keeps spatially close points at
// adjacent SoA indices, which tightens the per-lane spread the SIMD window
// and distance kernels see. Ties (identical cells) fall back to object id
// so the packing is deterministic.
void SortLeafGroupZOrder(std::vector<DataObject>& group) {
  if (group.size() < 2) return;
  Rect bounds = Rect::Empty();
  for (const DataObject& obj : group) bounds.Expand(obj.pos);
  std::sort(group.begin(), group.end(), [&](const DataObject& a, const DataObject& b) {
    const uint32_t ka = LeafMortonKey(bounds, a.pos);
    const uint32_t kb = LeafMortonKey(bounds, b.pos);
    if (ka != kb) return ka < kb;
    return a.id < b.id;
  });
}

// Entries-per-node target for the given options, clamped to a legal range.
size_t NodeCapacity(const RTreeOptions& tree_options, const BulkLoadOptions& load_options) {
  const double raw = load_options.fill_factor * tree_options.max_entries;
  size_t capacity = static_cast<size_t>(std::llround(raw));
  capacity = std::max<size_t>(capacity, static_cast<size_t>(tree_options.min_entries));
  capacity = std::min<size_t>(capacity, static_cast<size_t>(tree_options.max_entries));
  return std::max<size_t>(capacity, 2);
}

// Groups `items` STR-style into runs of size `capacity`: sort by x-center,
// slice into ceil(sqrt(num_groups)) slabs, sort each slab by y-center.
template <typename Item, typename CenterX, typename CenterY>
std::vector<std::vector<Item>> StrPartition(std::vector<Item> items, size_t capacity,
                                            const CenterX& cx, const CenterY& cy) {
  const size_t n = items.size();
  const size_t num_groups = (n + capacity - 1) / capacity;
  const size_t num_slabs =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(num_groups))));
  const size_t slab_size = num_slabs * capacity;

  std::sort(items.begin(), items.end(),
            [&](const Item& a, const Item& b) { return cx(a) < cx(b); });

  std::vector<std::vector<Item>> groups;
  groups.reserve(num_groups);
  for (size_t slab_start = 0; slab_start < n; slab_start += slab_size) {
    const size_t slab_end = std::min(n, slab_start + slab_size);
    std::sort(items.begin() + static_cast<ptrdiff_t>(slab_start),
              items.begin() + static_cast<ptrdiff_t>(slab_end),
              [&](const Item& a, const Item& b) { return cy(a) < cy(b); });
    for (size_t start = slab_start; start < slab_end; start += capacity) {
      const size_t end = std::min(slab_end, start + capacity);
      groups.emplace_back(items.begin() + static_cast<ptrdiff_t>(start),
                          items.begin() + static_cast<ptrdiff_t>(end));
    }
  }
  return groups;
}

// STR can leave the trailing group of the final slab underfull. Restore the
// min-fill invariant by merging it into its predecessor when the union fits
// a node, or splitting the union evenly otherwise (the two groups are
// y-adjacent within one slab, so locality is preserved).
template <typename Item>
void FixUnderfullTail(std::vector<std::vector<Item>>& groups, size_t min_entries,
                      size_t max_entries) {
  if (groups.size() < 2 || groups.back().size() >= min_entries) return;
  std::vector<Item> tail = std::move(groups.back());
  groups.pop_back();
  std::vector<Item>& prev = groups.back();
  prev.insert(prev.end(), tail.begin(), tail.end());
  if (prev.size() <= max_entries) return;
  // max_entries >= 2 * min_entries, so an even split satisfies min fill.
  const size_t half = prev.size() / 2;
  std::vector<Item> second(prev.begin() + static_cast<ptrdiff_t>(half), prev.end());
  prev.resize(half);
  groups.push_back(std::move(second));
}

}  // namespace

uint32_t LeafMortonKey(const Rect& bounds, const Point& p) {
  const double spread_x = bounds.max_x - bounds.min_x;
  const double spread_y = bounds.max_y - bounds.min_y;
  const auto cell = [](double value, double lo, double spread) {
    if (spread <= 0.0) return uint32_t{0};
    const double t = (value - lo) / spread;
    return static_cast<uint32_t>(std::min(65535.0, std::max(0.0, t * 65535.0)));
  };
  const uint32_t gx = cell(p.x, bounds.min_x, spread_x);
  const uint32_t gy = cell(p.y, bounds.min_y, spread_y);
  return MortonKey16(gx, gy);
}

RStarTree BulkLoadStr(const std::vector<DataObject>& objects, RTreeOptions tree_options,
                      BulkLoadOptions load_options) {
  CheckOk(tree_options.Validate(), "BulkLoadStr options");
  if (objects.empty()) return RStarTree(tree_options);

  const size_t capacity = NodeCapacity(tree_options, load_options);

  std::vector<std::unique_ptr<RTreeNode>> nodes;
  const auto allocate = [&nodes](int level) {
    auto n = std::make_unique<RTreeNode>();
    n->id = static_cast<NodeId>(nodes.size());
    n->level = level;
    nodes.push_back(std::move(n));
    return nodes.back().get();
  };

  // Pack the leaf level.
  std::vector<std::vector<DataObject>> leaf_groups =
      StrPartition(objects, capacity, [](const DataObject& o) { return o.pos.x; },
                   [](const DataObject& o) { return o.pos.y; });
  FixUnderfullTail(leaf_groups, static_cast<size_t>(tree_options.min_entries),
                   static_cast<size_t>(tree_options.max_entries));
  std::vector<ChildEntry> level_entries;
  level_entries.reserve(leaf_groups.size());
  for (std::vector<DataObject>& group : leaf_groups) {
    RTreeNode* leaf = allocate(/*level=*/0);
    SortLeafGroupZOrder(group);
    leaf->objects.Assign(group);
    leaf->objects.MarkZOrderPacked();
    level_entries.push_back(ChildEntry{leaf->ComputeMbr(), leaf->id});
  }

  // Pack upper levels until one node remains.
  int level = 1;
  while (level_entries.size() > 1) {
    std::vector<std::vector<ChildEntry>> groups = StrPartition(
        std::move(level_entries), capacity,
        [](const ChildEntry& e) { return e.mbr.Center().x; },
        [](const ChildEntry& e) { return e.mbr.Center().y; });
    FixUnderfullTail(groups, static_cast<size_t>(tree_options.min_entries),
                     static_cast<size_t>(tree_options.max_entries));
    std::vector<ChildEntry> next_entries;
    next_entries.reserve(groups.size());
    for (std::vector<ChildEntry>& group : groups) {
      RTreeNode* parent = allocate(level);
      parent->children = std::move(group);
      next_entries.push_back(ChildEntry{parent->ComputeMbr(), parent->id});
    }
    level_entries = std::move(next_entries);
    ++level;
  }

  const NodeId root = level_entries[0].child;
  // Fill in parent pointers now that the topology is final.
  for (const std::unique_ptr<RTreeNode>& n : nodes) {
    if (n->is_leaf()) continue;
    for (const ChildEntry& entry : n->children) {
      nodes[entry.child]->parent = n->id;
    }
  }
  nodes[root]->parent = kInvalidNodeId;

  return RStarTree::FromParts(tree_options, std::move(nodes), root, objects.size());
}

}  // namespace nwc
