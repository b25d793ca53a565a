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

TEST(WindowQueryTest, CountMatchesQuery) {
  const std::vector<DataObject> objects = RandomObjects(500, 33);
  const RStarTree tree = BuildTree(objects);
  Rng rng(34);
  for (int trial = 0; trial < 50; ++trial) {
    const Rect window = Rect::FromCorners(
        Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)},
        Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)});
    EXPECT_EQ(WindowCount(tree, window, nullptr), WindowQuery(tree, window, nullptr).size());
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

TEST(KnnQueryTest, MatchesLinearScan) {
  const std::vector<DataObject> objects = RandomObjects(600, 37);
  const RStarTree tree = BuildTree(objects);
  Rng rng(38);
  for (int trial = 0; trial < 30; ++trial) {
    const Point q{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)};
    const size_t k = 1 + static_cast<size_t>(rng.NextUint64(20));

    std::vector<std::pair<double, ObjectId>> expected;
    for (const DataObject& obj : objects) {
      expected.emplace_back(Distance(q, obj.pos), obj.id);
    }
    std::sort(expected.begin(), expected.end());

    const std::vector<DataObject> found = KnnQuery(tree, q, k, nullptr);
    ASSERT_EQ(found.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(Distance(q, found[i].pos), expected[i].first, 1e-9)
          << "rank " << i << " differs";
    }
  }
}

TEST(KnnQueryTest, KLargerThanDatasetReturnsAll) {
  const std::vector<DataObject> objects = RandomObjects(20, 39);
  const RStarTree tree = BuildTree(objects);
  EXPECT_EQ(KnnQuery(tree, Point{0, 0}, 100, nullptr).size(), 20u);
}

TEST(KnnQueryTest, ZeroKReturnsNothing) {
  const std::vector<DataObject> objects = RandomObjects(20, 40);
  const RStarTree tree = BuildTree(objects);
  EXPECT_TRUE(KnnQuery(tree, Point{0, 0}, 0, nullptr).empty());
}

TEST(DistanceBrowserTest, YieldsNonDecreasingDistances) {
  const std::vector<DataObject> objects = RandomObjects(400, 41);
  const RStarTree tree = BuildTree(objects);
  const Point q{500, 500};
  DistanceBrowser browser(tree, q, nullptr);
  double previous = -1.0;
  size_t count = 0;
  while (browser.HasNext()) {
    const DistanceBrowser::BrowseItem item = browser.Next();
    EXPECT_GE(item.distance, previous - 1e-12);
    EXPECT_NEAR(item.distance, Distance(q, item.object.pos), 1e-12);
    previous = item.distance;
    ++count;
  }
  EXPECT_EQ(count, objects.size());
}

TEST(DistanceBrowserTest, ReportsHoldingLeaf) {
  const std::vector<DataObject> objects = RandomObjects(300, 42);
  const RStarTree tree = BuildTree(objects);
  DistanceBrowser browser(tree, Point{1, 1}, nullptr);
  while (browser.HasNext()) {
    const DistanceBrowser::BrowseItem item = browser.Next();
    ASSERT_TRUE(tree.IsLive(item.leaf));
    const RTreeNode& leaf = tree.node(item.leaf);
    ASSERT_TRUE(leaf.is_leaf());
    EXPECT_TRUE(std::any_of(leaf.objects.begin(), leaf.objects.end(),
                            [&](const DataObject& o) { return o == item.object; }));
  }
}

TEST(DistanceBrowserTest, IoBoundedByNodeCount) {
  const std::vector<DataObject> objects = RandomObjects(500, 43);
  const RStarTree tree = BuildTree(objects);
  IoCounter io;
  DistanceBrowser browser(tree, Point{500, 500}, &io);
  while (browser.HasNext()) browser.Next();
  EXPECT_EQ(io.traversal_reads(), tree.node_count());
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
  EXPECT_EQ(WindowCount(tree, Rect{0, 0, 10, 10}, nullptr), 1u);
}

// Regression: the browse queue broke distance ties in heap-layout order,
// so on tie-heavy data (grids, anything symmetric around q) the emission
// order depended on how the tree happened to be built. The comparator now
// breaks object ties by object id, which pins the order and makes it
// identical across tree layouts.
TEST(DistanceBrowserTest, TieHeavyGridBrowseOrderIsPinnedAcrossLayouts) {
  // 4 points at each of 25 distinct distances: every ring of the pattern
  // (±d, 0), (0, ±d) around q is an exact 4-way tie.
  const Point q{500.0, 500.0};
  std::vector<DataObject> objects;
  for (int ring = 1; ring <= 25; ++ring) {
    const double d = 10.0 * ring;
    const Point offsets[] = {{d, 0.0}, {-d, 0.0}, {0.0, d}, {0.0, -d}};
    for (const Point& offset : offsets) {
      objects.push_back(DataObject{static_cast<ObjectId>(objects.size()),
                                   Point{q.x + offset.x, q.y + offset.y}});
    }
  }

  const auto browse_ids = [&q](const RStarTree& tree) {
    std::vector<ObjectId> ids;
    double last_distance = 0.0;
    ObjectId last_id = 0;
    DistanceBrowser browser(tree, q, nullptr);
    while (browser.HasNext()) {
      const DistanceBrowser::BrowseItem item = browser.Next();
      if (!ids.empty()) {
        EXPECT_GE(item.distance, last_distance);
        // Within an exact tie run, ids must ascend.
        if (item.distance == last_distance) {
          EXPECT_GT(item.object.id, last_id);
        }
      }
      last_distance = item.distance;
      last_id = item.object.id;
      ids.push_back(item.object.id);
    }
    return ids;
  };

  // Two very different layouts of the same data: incremental R* inserts
  // (splits + reinserts) vs STR bulk load (Z-packed leaves).
  std::vector<ObjectId> insert_order;
  {
    const RStarTree tree = BuildTree(objects);
    insert_order = browse_ids(tree);
  }
  std::vector<ObjectId> bulk_order;
  {
    RTreeOptions options;
    options.max_entries = 16;
    options.min_entries = 6;
    const RStarTree tree = BulkLoadStr(objects, options);
    bulk_order = browse_ids(tree);
  }
  EXPECT_EQ(insert_order.size(), objects.size());
  EXPECT_EQ(insert_order, bulk_order);
}

}  // namespace
}  // namespace nwc
