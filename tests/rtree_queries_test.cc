#include "rtree/queries.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rtree/bulk_load.h"
#include "rtree/rstar_tree.h"

namespace nwc {
namespace {

std::vector<DataObject> RandomObjects(size_t count, uint64_t seed, double extent = 1000.0) {
  Rng rng(seed);
  std::vector<DataObject> objects;
  objects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    objects.push_back(DataObject{static_cast<ObjectId>(i),
                                 Point{rng.NextDouble(0, extent), rng.NextDouble(0, extent)}});
  }
  return objects;
}

RStarTree BuildTree(const std::vector<DataObject>& objects) {
  RTreeOptions options;
  options.max_entries = 10;
  options.min_entries = 4;
  RStarTree tree(options);
  for (const DataObject& obj : objects) tree.Insert(obj);
  return tree;
}

std::vector<ObjectId> SortedIds(std::vector<DataObject> objects) {
  std::vector<ObjectId> ids;
  ids.reserve(objects.size());
  for (const DataObject& obj : objects) ids.push_back(obj.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(WindowQueryTest, MatchesLinearScanOnRandomRects) {
  const std::vector<DataObject> objects = RandomObjects(800, 31);
  const RStarTree tree = BuildTree(objects);
  Rng rng(32);
  for (int trial = 0; trial < 100; ++trial) {
    const Rect window = Rect::FromCorners(
        Point{rng.NextDouble(-50, 1050), rng.NextDouble(-50, 1050)},
        Point{rng.NextDouble(-50, 1050), rng.NextDouble(-50, 1050)});
    std::vector<ObjectId> expected;
    for (const DataObject& obj : objects) {
      if (window.Contains(obj.pos)) expected.push_back(obj.id);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(SortedIds(WindowQuery(tree, window, nullptr)), expected);
  }
}

TEST(WindowQueryTest, ChargesIoPerVisitedNode) {
  const std::vector<DataObject> objects = RandomObjects(500, 35);
  const RStarTree tree = BuildTree(objects);
  IoCounter io;
  WindowQuery(tree, Rect{0, 0, 1000, 1000}, &io);
  // Covering window visits every node exactly once.
  EXPECT_EQ(io.window_query_reads(), tree.node_count());
  EXPECT_EQ(io.traversal_reads(), 0u);
}

TEST(WindowQueryTest, EmptyWindowVisitsOnlyRootPath) {
  const std::vector<DataObject> objects = RandomObjects(500, 36);
  const RStarTree tree = BuildTree(objects);
  IoCounter io;
  const auto result = WindowQuery(tree, Rect{-100, -100, -50, -50}, &io);
  EXPECT_TRUE(result.empty());
  EXPECT_EQ(io.window_query_reads(), 1u);  // only the root is read
}

TEST(WindowQueryFromTest, SubtreeQueryFindsSubtreeObjects) {
  const std::vector<DataObject> objects = RandomObjects(800, 44);
  RTreeOptions options;
  options.max_entries = 10;
  options.min_entries = 4;
  const RStarTree tree = BulkLoadStr(objects, options);
  ASSERT_GT(tree.height(), 0);

  // Query each root child's subtree with a window covering everything: we
  // must get exactly that subtree's objects.
  const RTreeNode& root = tree.node(tree.root());
  size_t total = 0;
  for (const ChildEntry& entry : root.children) {
    std::vector<DataObject> sub;
    WindowQueryFrom(tree, {&entry.child, 1}, Rect{0, 0, 1000, 1000}, &sub, nullptr);
    for (const DataObject& obj : sub) {
      EXPECT_TRUE(entry.mbr.Contains(obj.pos));
    }
    total += sub.size();
  }
  EXPECT_EQ(total, objects.size());
}

// Regression: WindowWalk recursed once per tree level, so a degenerate
// chain of one-child internal nodes — legal topology, and reachable
// through deserializing a corrupted or adversarial file — overflowed the
// machine stack. The walk is iterative now; this chain is ~200k levels
// deep, far beyond any thread stack's recursion budget (~8MB / ~100 bytes
// per frame), and must complete.
TEST(WindowQueryTest, SurvivesPathologicallyDeepChainTree) {
  constexpr NodeId kLevels = 200000;
  std::vector<std::unique_ptr<RTreeNode>> nodes;
  nodes.reserve(kLevels + 1);

  const DataObject only{42, Point{5.0, 5.0}};
  auto leaf = std::make_unique<RTreeNode>();
  leaf->id = 0;
  leaf->level = 0;
  leaf->objects.push_back(only);
  const Rect point_rect = Rect::FromPoint(only.pos);
  nodes.push_back(std::move(leaf));
  for (NodeId i = 1; i <= kLevels; ++i) {
    auto internal = std::make_unique<RTreeNode>();
    internal->id = i;
    internal->level = static_cast<int>(i);
    internal->children.push_back(ChildEntry{point_rect, i - 1});
    nodes[i - 1]->parent = i;
    nodes.push_back(std::move(internal));
  }

  RTreeOptions options;
  const RStarTree tree =
      RStarTree::FromParts(options, std::move(nodes), /*root=*/kLevels, /*size=*/1);

  IoCounter io;
  const std::vector<DataObject> hits =
      WindowQuery(tree, Rect{0, 0, 10, 10}, &io);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 42u);
  EXPECT_EQ(io.window_query_reads(), static_cast<uint64_t>(kLevels) + 1);
  EXPECT_EQ(WindowQuery(tree, Rect{0, 0, 10, 10}, nullptr).size(), 1u);
}

}  // namespace
}  // namespace nwc
