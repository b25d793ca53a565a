#include "rtree/rstar_split.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rtree/queries.h"
#include "rtree/rstar_tree.h"
#include "rtree/validate.h"

namespace nwc {
namespace {

Rect MbrOf(const DataObject& obj) { return Rect::FromPoint(obj.pos); }

std::vector<DataObject> RandomObjects(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<DataObject> objects;
  for (size_t i = 0; i < count; ++i) {
    objects.push_back(DataObject{static_cast<ObjectId>(i),
                                 Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)}});
  }
  return objects;
}

std::vector<ObjectId> AllIdsSorted(const SplitResult<DataObject>& split) {
  std::vector<ObjectId> ids;
  for (const DataObject& obj : split.first) ids.push_back(obj.id);
  for (const DataObject& obj : split.second) ids.push_back(obj.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(RStarSplitTest, PartitionIsCompleteAndRespectsMinFill) {
  Rng rng(500);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t count = 4 + rng.NextUint64(60);
    const size_t min_entries = 1 + rng.NextUint64(count / 2);
    const std::vector<DataObject> objects = RandomObjects(count, 600 + trial);
    const SplitResult<DataObject> split = RStarSplit(objects, min_entries, MbrOf);

    EXPECT_GE(split.first.size(), min_entries);
    EXPECT_GE(split.second.size(), min_entries);
    EXPECT_EQ(split.first.size() + split.second.size(), count);

    std::vector<ObjectId> expected;
    for (const DataObject& obj : objects) expected.push_back(obj.id);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(AllIdsSorted(split), expected);
  }
}

TEST(RStarSplitTest, HandlesCoincidentEntries) {
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 20; ++i) objects.push_back(DataObject{i, Point{5, 5}});
  const SplitResult<DataObject> split = RStarSplit(objects, 8, MbrOf);
  EXPECT_GE(split.first.size(), 8u);
  EXPECT_GE(split.second.size(), 8u);
  EXPECT_EQ(split.first.size() + split.second.size(), 20u);
}

TEST(RStarSplitTest, TwoEntriesSplitOneEach) {
  const std::vector<DataObject> objects = {DataObject{0, Point{1, 1}},
                                           DataObject{1, Point{9, 9}}};
  const SplitResult<DataObject> split = RStarSplit(objects, 1, MbrOf);
  EXPECT_EQ(split.first.size(), 1u);
  EXPECT_EQ(split.second.size(), 1u);
}

TEST(RStarSplitTest, SeparatesTwoObviousClusters) {
  // Two well-separated blobs must not be mixed.
  Rng rng(501);
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 12; ++i) {
    objects.push_back(DataObject{i, Point{rng.NextDouble(0, 5), rng.NextDouble(0, 5)}});
  }
  for (ObjectId i = 12; i < 24; ++i) {
    objects.push_back(DataObject{i, Point{rng.NextDouble(95, 100), rng.NextDouble(95, 100)}});
  }
  rng.Shuffle(objects);
  const SplitResult<DataObject> split = RStarSplit(objects, 6, MbrOf);
  Rect first = Rect::Empty();
  Rect second = Rect::Empty();
  for (const DataObject& obj : split.first) first.Expand(obj.pos);
  for (const DataObject& obj : split.second) second.Expand(obj.pos);
  EXPECT_FALSE(first.Intersects(second));
}

TEST(RStarSplitTest, InsertedTreeIsValidAndComplete) {
  RTreeOptions options;
  options.max_entries = 8;
  options.min_entries = 3;
  RStarTree tree(options);
  const std::vector<DataObject> objects = RandomObjects(1500, 700);
  for (const DataObject& obj : objects) tree.Insert(obj);
  ASSERT_TRUE(ValidateTree(tree).ok()) << ValidateTree(tree).ToString();
  EXPECT_EQ(WindowQuery(tree, tree.bounds(), nullptr).size(), objects.size());
}

}  // namespace
}  // namespace nwc
