#include "rtree/tree_stats.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "rtree/bulk_load.h"

namespace nwc {
namespace {

std::vector<DataObject> RandomObjects(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<DataObject> objects;
  for (size_t i = 0; i < count; ++i) {
    objects.push_back(DataObject{static_cast<ObjectId>(i),
                                 Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)}});
  }
  return objects;
}

TEST(TreeStatsTest, EmptyTree) {
  RStarTree tree;
  const TreeStats stats = ComputeTreeStats(tree);
  EXPECT_EQ(stats.object_count, 0u);
  EXPECT_EQ(stats.node_count, 1u);
  EXPECT_EQ(stats.height, 0);
  ASSERT_EQ(stats.levels.size(), 1u);
  EXPECT_EQ(stats.levels[0].node_count, 1u);
  EXPECT_EQ(stats.levels[0].entry_count, 0u);
}

TEST(TreeStatsTest, CountsAreConsistent) {
  RTreeOptions options;
  options.max_entries = 8;
  options.min_entries = 3;
  const RStarTree tree = BulkLoadStr(RandomObjects(2000, 11), options);
  const TreeStats stats = ComputeTreeStats(tree);

  EXPECT_EQ(stats.object_count, 2000u);
  EXPECT_EQ(stats.height, tree.height());
  EXPECT_EQ(stats.levels.size(), static_cast<size_t>(tree.height()) + 1);

  size_t total_nodes = 0;
  for (const LevelStats& level : stats.levels) total_nodes += level.node_count;
  EXPECT_EQ(total_nodes, tree.node_count());

  // Leaf entries are objects; each internal level's entries equal the node
  // count one level down; the root level has one node.
  EXPECT_EQ(stats.levels[0].entry_count, 2000u);
  for (size_t l = 1; l < stats.levels.size(); ++l) {
    EXPECT_EQ(stats.levels[l].entry_count, stats.levels[l - 1].node_count);
  }
  EXPECT_EQ(stats.levels.back().node_count, 1u);
}

TEST(TreeStatsTest, FillWithinBounds) {
  RTreeOptions options;
  options.max_entries = 10;
  options.min_entries = 4;
  const RStarTree tree = BulkLoadStr(RandomObjects(3000, 12), options);
  const TreeStats stats = ComputeTreeStats(tree);
  for (const LevelStats& level : stats.levels) {
    EXPECT_GT(level.avg_fill, 0.0);
    EXPECT_LE(level.avg_fill, 1.0);
  }
  // Leaf fill should be near the 0.7 bulk-load target.
  EXPECT_NEAR(stats.levels[0].avg_fill, 0.7, 0.15);
}

TEST(TreeStatsTest, ToStringMentionsEveryLevel) {
  const RStarTree tree = BulkLoadStr(RandomObjects(1000, 14), RTreeOptions{});
  const TreeStats stats = ComputeTreeStats(tree);
  const std::string text = stats.ToString();
  for (const LevelStats& level : stats.levels) {
    EXPECT_NE(text.find(StrFormat("level %d:", level.level)), std::string::npos);
  }
}

}  // namespace
}  // namespace nwc
