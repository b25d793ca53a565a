#include "rtree/iwp_index.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rtree/bulk_load.h"
#include "rtree/queries.h"

namespace nwc {
namespace {

std::vector<DataObject> RandomObjects(size_t count, uint64_t seed, double extent = 1000.0) {
  Rng rng(seed);
  std::vector<DataObject> objects;
  for (size_t i = 0; i < count; ++i) {
    objects.push_back(DataObject{static_cast<ObjectId>(i),
                                 Point{rng.NextDouble(0, extent), rng.NextDouble(0, extent)}});
  }
  return objects;
}

RStarTree BuildTree(size_t count, uint64_t seed, int max_entries = 8) {
  RTreeOptions options;
  options.max_entries = max_entries;
  options.min_entries = max_entries * 2 / 5;
  return BulkLoadStr(RandomObjects(count, seed), options);
}

std::vector<NodeId> AllLeaves(const RStarTree& tree) {
  std::vector<NodeId> leaves;
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const RTreeNode& n = tree.node(id);
    if (n.is_leaf()) {
      leaves.push_back(id);
    } else {
      for (const ChildEntry& entry : n.children) stack.push_back(entry.child);
    }
  }
  return leaves;
}

TEST(IwpIndexTest, BackwardPointerCountFollowsExponentialRule) {
  const RStarTree tree = BuildTree(4000, 71);
  const int h = tree.height();
  ASSERT_GE(h, 2);
  const IwpIndex index = IwpIndex::Build(tree);

  // r = ceil(log2 h) + 2.
  const int expected_r =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(h)))) + 2;
  for (const NodeId leaf : AllLeaves(tree)) {
    const std::span<const NodePointer> pointers = index.BackwardPointers(leaf);
    ASSERT_EQ(static_cast<int>(pointers.size()), expected_r);
    // bp_1 is the leaf itself, bp_r the root.
    EXPECT_EQ(pointers.front().node, leaf);
    EXPECT_EQ(pointers.back().node, tree.root());
    // Intermediate pointers target levels 2^(i-2) (= paper depth h-2^(i-2)).
    for (size_t i = 1; i + 1 < pointers.size(); ++i) {
      EXPECT_EQ(tree.node(pointers[i].node).level, 1 << (i - 1));
    }
    // Stored MBRs match the actual node MBRs.
    for (const NodePointer& bp : pointers) {
      EXPECT_EQ(bp.mbr, tree.node(bp.node).ComputeMbr());
    }
  }
}

TEST(IwpIndexTest, RootOnlyTree) {
  RStarTree tree;
  tree.Insert(DataObject{0, Point{1, 1}});
  const IwpIndex index = IwpIndex::Build(tree);
  const std::span<const NodePointer> pointers = index.BackwardPointers(tree.root());
  ASSERT_EQ(pointers.size(), 1u);
  EXPECT_EQ(pointers[0].node, tree.root());
}

TEST(IwpIndexTest, OverlapPointersAreSymmetricSameLevelOverlaps) {
  const RStarTree tree = BuildTree(3000, 72);
  const IwpIndex index = IwpIndex::Build(tree);
  for (const NodeId leaf : AllLeaves(tree)) {
    for (const NodePointer& op : index.OverlapPointers(leaf)) {
      const RTreeNode& other = tree.node(op.node);
      EXPECT_EQ(other.level, 0);
      EXPECT_NE(op.node, leaf);
      EXPECT_TRUE(op.mbr.Intersects(tree.node(leaf).ComputeMbr()));
      // Symmetry: the other node points back.
      const std::span<const NodePointer> reverse = index.OverlapPointers(op.node);
      EXPECT_TRUE(std::any_of(reverse.begin(), reverse.end(),
                              [leaf](const NodePointer& p) { return p.node == leaf; }));
    }
  }
}

TEST(IwpIndexTest, WindowQueryMatchesRootBasedQuery) {
  const std::vector<DataObject> objects = RandomObjects(5000, 73);
  RTreeOptions options;
  options.max_entries = 10;
  options.min_entries = 4;
  const RStarTree tree = BulkLoadStr(objects, options);
  const IwpIndex index = IwpIndex::Build(tree);
  const std::vector<NodeId> leaves = AllLeaves(tree);

  Rng rng(74);
  for (int trial = 0; trial < 200; ++trial) {
    // Windows anchored near a random leaf's area (the IWP use case), of
    // varying sizes including ones that exceed the leaf and its ancestors.
    const NodeId leaf = leaves[rng.NextUint64(leaves.size())];
    const Rect leaf_mbr = tree.node(leaf).ComputeMbr();
    const double cx = rng.NextDouble(leaf_mbr.min_x, leaf_mbr.max_x + 1e-9);
    const double cy = rng.NextDouble(leaf_mbr.min_y, leaf_mbr.max_y + 1e-9);
    const double half = rng.NextDouble(1.0, 200.0);
    const Rect window{cx - half, cy - half, cx + half, cy + half};

    auto sorted_ids = [](std::vector<DataObject> v) {
      std::vector<ObjectId> ids;
      for (const DataObject& o : v) ids.push_back(o.id);
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    std::vector<DataObject> hits;
    index.WindowQuery(tree, leaf, window, &hits, nullptr);
    EXPECT_EQ(sorted_ids(hits), sorted_ids(WindowQuery(tree, window, nullptr)))
        << "window " << window;
  }
}

TEST(IwpIndexTest, WindowQueryNeverReturnsDuplicates) {
  const RStarTree tree = BuildTree(3000, 75);
  const IwpIndex index = IwpIndex::Build(tree);
  const std::vector<NodeId> leaves = AllLeaves(tree);
  Rng rng(76);
  for (int trial = 0; trial < 100; ++trial) {
    const NodeId leaf = leaves[rng.NextUint64(leaves.size())];
    const Rect leaf_mbr = tree.node(leaf).ComputeMbr();
    const Rect window = leaf_mbr.Inflated(rng.NextDouble(0, 100), rng.NextDouble(0, 100));
    std::vector<DataObject> hits;
    index.WindowQuery(tree, leaf, window, &hits, nullptr);
    std::set<ObjectId> ids;
    for (const DataObject& obj : hits) {
      EXPECT_TRUE(ids.insert(obj.id).second) << "duplicate id " << obj.id;
    }
  }
}

TEST(IwpIndexTest, SmallWindowCostsLessIoThanRootQuery) {
  // The whole point of IWP: window queries near the object's leaf touch
  // fewer nodes than starting from the root.
  const RStarTree tree = BuildTree(20000, 77, /*max_entries=*/16);
  ASSERT_GE(tree.height(), 2);
  const IwpIndex index = IwpIndex::Build(tree);
  const std::vector<NodeId> leaves = AllLeaves(tree);

  Rng rng(78);
  uint64_t iwp_io = 0;
  uint64_t root_io = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId leaf = leaves[rng.NextUint64(leaves.size())];
    const Rect leaf_mbr = tree.node(leaf).ComputeMbr();
    const Point center = leaf_mbr.Center();
    const Rect window{center.x - 2, center.y - 2, center.x + 2, center.y + 2};
    IoCounter io_a;
    std::vector<DataObject> hits;
    index.WindowQuery(tree, leaf, window, &hits, &io_a);
    IoCounter io_b;
    WindowQuery(tree, window, &io_b);
    iwp_io += io_a.window_query_reads();
    root_io += io_b.window_query_reads();
  }
  EXPECT_LT(iwp_io, root_io);
}

TEST(IwpIndexTest, StorageAccounting) {
  const RStarTree tree = BuildTree(4000, 79);
  const IwpIndex index = IwpIndex::Build(tree);
  EXPECT_GT(index.backward_pointer_count(), 0u);
  EXPECT_EQ(index.StorageBytes(),
            (index.backward_pointer_count() + index.overlap_pointer_count()) * kPointerBytes);
}

TEST(IwpIndexTest, ResolveStartNodesFallsBackToRootForHugeWindows) {
  const RStarTree tree = BuildTree(2000, 80);
  const IwpIndex index = IwpIndex::Build(tree);
  const NodeId leaf = AllLeaves(tree).front();
  // A window exceeding the data space is covered by nothing but must still
  // be answerable: the root is the fallback start.
  std::vector<NodeId> starts;
  index.ResolveStartNodes(leaf, Rect{-1e9, -1e9, 1e9, 1e9}, &starts);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], tree.root());
}

}  // namespace
}  // namespace nwc
