#include "rtree/rstar_tree.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rtree/bulk_load.h"
#include "rtree/queries.h"
#include "rtree/validate.h"

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

RTreeOptions SmallNodeOptions() {
  RTreeOptions options;
  options.max_entries = 8;
  options.min_entries = 3;
  return options;
}

TEST(RTreeOptionsTest, ValidatesParameters) {
  EXPECT_TRUE(RTreeOptions{}.Validate().ok());
  RTreeOptions bad;
  bad.max_entries = 2;
  EXPECT_FALSE(bad.Validate().ok());
  bad = RTreeOptions{};
  bad.min_entries = bad.max_entries;  // > max/2
  EXPECT_FALSE(bad.Validate().ok());
  bad = RTreeOptions{};
  bad.reinsert_fraction = 0.9;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(RStarTreeTest, EmptyTree) {
  RStarTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 0);
  EXPECT_TRUE(tree.bounds().IsEmpty());
  EXPECT_EQ(tree.node_count(), 1u);  // the empty leaf root
  EXPECT_TRUE(ValidateTree(tree).ok());
}

TEST(RStarTreeTest, SingleInsert) {
  RStarTree tree;
  tree.Insert(DataObject{1, Point{5, 5}});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.bounds(), Rect::FromPoint(Point{5, 5}));
  EXPECT_TRUE(ValidateTree(tree).ok());
}

TEST(RStarTreeTest, InsertBeyondOneNodeSplits) {
  RStarTree tree(SmallNodeOptions());
  const std::vector<DataObject> objects = RandomObjects(50, 1);
  for (const DataObject& obj : objects) tree.Insert(obj);
  EXPECT_EQ(tree.size(), 50u);
  EXPECT_GE(tree.height(), 1);
  EXPECT_TRUE(ValidateTree(tree).ok()) << ValidateTree(tree).ToString();
}

TEST(RStarTreeTest, AllObjectsRetrievableAfterManyInserts) {
  RStarTree tree(SmallNodeOptions());
  const std::vector<DataObject> objects = RandomObjects(2000, 2);
  for (const DataObject& obj : objects) tree.Insert(obj);
  ASSERT_TRUE(ValidateTree(tree).ok()) << ValidateTree(tree).ToString();

  std::vector<DataObject> all = WindowQuery(tree, tree.bounds(), nullptr);
  ASSERT_EQ(all.size(), objects.size());
  std::sort(all.begin(), all.end(),
            [](const DataObject& a, const DataObject& b) { return a.id < b.id; });
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], objects[i]);
}

TEST(RStarTreeTest, DuplicatePositionsSupported) {
  RStarTree tree(SmallNodeOptions());
  for (ObjectId i = 0; i < 100; ++i) tree.Insert(DataObject{i, Point{1.0, 1.0}});
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_TRUE(ValidateTree(tree).ok()) << ValidateTree(tree).ToString();
  EXPECT_EQ(WindowQuery(tree, Rect{0, 0, 2, 2}, nullptr).size(), 100u);
}

TEST(RStarTreeTest, DeleteRemovesExactObject) {
  RStarTree tree(SmallNodeOptions());
  const std::vector<DataObject> objects = RandomObjects(300, 3);
  for (const DataObject& obj : objects) tree.Insert(obj);

  EXPECT_TRUE(tree.Delete(objects[42]).ok());
  EXPECT_EQ(tree.size(), objects.size() - 1);
  EXPECT_TRUE(ValidateTree(tree).ok()) << ValidateTree(tree).ToString();

  const std::vector<DataObject> all = WindowQuery(tree, tree.bounds(), nullptr);
  EXPECT_TRUE(std::none_of(all.begin(), all.end(),
                           [&](const DataObject& o) { return o == objects[42]; }));
}

TEST(RStarTreeTest, DeleteMissingReturnsNotFound) {
  RStarTree tree(SmallNodeOptions());
  tree.Insert(DataObject{1, Point{1, 1}});
  const Status status = tree.Delete(DataObject{2, Point{1, 1}});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(RStarTreeTest, DeleteAllLeavesEmptyValidTree) {
  RStarTree tree(SmallNodeOptions());
  const std::vector<DataObject> objects = RandomObjects(200, 4);
  for (const DataObject& obj : objects) tree.Insert(obj);
  for (const DataObject& obj : objects) {
    ASSERT_TRUE(tree.Delete(obj).ok());
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0);
  EXPECT_TRUE(ValidateTree(tree).ok()) << ValidateTree(tree).ToString();
}

TEST(RStarTreeTest, RandomizedInsertDeleteWorkloadStaysValid) {
  RStarTree tree(SmallNodeOptions());
  Rng rng(99);
  std::vector<DataObject> live;
  ObjectId next_id = 0;
  for (int step = 0; step < 3000; ++step) {
    const bool do_insert = live.empty() || rng.NextBernoulli(0.6);
    if (do_insert) {
      const DataObject obj{next_id++, Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)}};
      tree.Insert(obj);
      live.push_back(obj);
    } else {
      const size_t victim = static_cast<size_t>(rng.NextUint64(live.size()));
      ASSERT_TRUE(tree.Delete(live[victim]).ok());
      live[victim] = live.back();
      live.pop_back();
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(ValidateTree(tree).ok()) << ValidateTree(tree).ToString();
    }
  }
  ASSERT_TRUE(ValidateTree(tree).ok()) << ValidateTree(tree).ToString();
  EXPECT_EQ(tree.size(), live.size());
  std::vector<DataObject> all = WindowQuery(tree, Rect{-1, -1, 1001, 1001}, nullptr);
  EXPECT_EQ(all.size(), live.size());
}

TEST(RStarTreeTest, ForcedReinsertDisabledStillValid) {
  RTreeOptions options = SmallNodeOptions();
  options.forced_reinsert = false;
  RStarTree tree(options);
  for (const DataObject& obj : RandomObjects(1000, 5)) tree.Insert(obj);
  EXPECT_TRUE(ValidateTree(tree).ok()) << ValidateTree(tree).ToString();
  EXPECT_EQ(tree.size(), 1000u);
}

TEST(RStarTreeTest, AccessNodeCountsIo) {
  RStarTree tree;
  tree.Insert(DataObject{1, Point{1, 1}});
  IoCounter io;
  tree.AccessNode(tree.root(), &io, IoPhase::kTraversal);
  tree.AccessNode(tree.root(), &io, IoPhase::kWindowQuery);
  EXPECT_EQ(io.traversal_reads(), 1u);
  EXPECT_EQ(io.window_query_reads(), 1u);
  EXPECT_EQ(io.query_total(), 2u);
}

TEST(RStarTreeTest, ClusteredInsertionStaysBalanced) {
  // Heavily clustered input is the stress case for ChooseSubtree/split.
  RStarTree tree(SmallNodeOptions());
  Rng rng(6);
  for (ObjectId i = 0; i < 1500; ++i) {
    const double cx = (i % 3) * 300.0 + 100.0;
    tree.Insert(DataObject{i, Point{cx + rng.NextGaussian(0, 5), 500 + rng.NextGaussian(0, 5)}});
  }
  EXPECT_TRUE(ValidateTree(tree).ok()) << ValidateTree(tree).ToString();
}

TEST(RStarTreeTest, CloneDivergesIndependently) {
  const std::vector<DataObject> objects = RandomObjects(500, 7);
  RStarTree original = BulkLoadStr(objects, SmallNodeOptions());
  RStarTree clone = original.Clone();
  EXPECT_EQ(clone.size(), original.size());
  EXPECT_TRUE(ValidateTree(clone).ok());

  // Mutate only the clone; the original must not move.
  for (ObjectId i = 0; i < 100; ++i) {
    clone.Insert(DataObject{static_cast<ObjectId>(10000 + i), Point{i * 1.0, i * 1.0}});
  }
  ASSERT_TRUE(clone.Delete(objects.front()).ok());
  EXPECT_EQ(clone.size(), 500u + 100u - 1u);
  EXPECT_EQ(original.size(), 500u);
  EXPECT_TRUE(ValidateTree(original).ok());
  EXPECT_TRUE(ValidateTree(clone).ok());

  // Same logical content before divergence: every original object except
  // the deleted one is still retrievable from the original.
  IoCounter io;
  for (size_t i = 0; i < objects.size(); i += 50) {
    const auto hits =
        WindowQuery(original, Rect::FromPoint(objects[i].pos), &io, IoPhase::kWindowQuery);
    EXPECT_FALSE(hits.empty()) << "object " << i << " vanished from the original";
  }
}

// Walks down the leftmost spine to any leaf node id.
NodeId AnyLeaf(const RStarTree& tree) {
  NodeId id = tree.root();
  while (!tree.node(id).is_leaf()) id = tree.node(id).children.front().child;
  return id;
}

TEST(ValidateTreeTest, CatchesDesyncedLeafArrays) {
  RStarTree tree = BulkLoadStr(RandomObjects(200, 8), SmallNodeOptions());
  ASSERT_TRUE(ValidateTree(tree).ok());
  // Corrupt through the test backdoor: drop one y coordinate so the SoA
  // arrays disagree about the leaf's entry count.
  auto& leaf = const_cast<RTreeNode&>(tree.node(AnyLeaf(tree)));
  ASSERT_GE(leaf.objects.size(), 1u);
  LeafObjectsTestAccess::Ys(leaf.objects).pop_back();
  const Status status = ValidateTree(tree);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("SoA arrays desynced"), std::string::npos) << status.ToString();
}

TEST(ValidateTreeTest, CatchesFalseZOrderPackingClaim) {
  RStarTree tree = BulkLoadStr(RandomObjects(200, 9), SmallNodeOptions());
  // Find a leaf with enough spread that reversing its entries breaks the
  // Morton order, then claim it is still packed.
  NodeId victim = kInvalidNodeId;
  for (NodeId id = 0; id < tree.node_slot_count(); ++id) {
    if (!tree.IsLive(id) || !tree.node(id).is_leaf()) continue;
    const LeafObjects& candidate = tree.node(id).objects;
    if (candidate.size() < 4 || !candidate.zorder_packed()) continue;
    // Reversal only violates the claim when the leaf spans >1 Morton cell.
    const Rect bounds = tree.node(id).ComputeMbr();
    if (LeafMortonKey(bounds, candidate.position(0)) !=
        LeafMortonKey(bounds, candidate.position(candidate.size() - 1))) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNodeId);
  auto& leaf = const_cast<RTreeNode&>(tree.node(victim));
  std::reverse(LeafObjectsTestAccess::Xs(leaf.objects).begin(),
               LeafObjectsTestAccess::Xs(leaf.objects).end());
  std::reverse(LeafObjectsTestAccess::Ys(leaf.objects).begin(),
               LeafObjectsTestAccess::Ys(leaf.objects).end());
  std::reverse(LeafObjectsTestAccess::Ids(leaf.objects).begin(),
               LeafObjectsTestAccess::Ids(leaf.objects).end());
  LeafObjectsTestAccess::SetPacked(leaf.objects, true);
  EXPECT_FALSE(ValidateTree(tree).ok())
      << "reversed entries under a packed claim must fail validation";
}

TEST(RStarTreeTest, MutationsClearTheZOrderPackedClaim) {
  // Bulk loading marks leaves packed; any in-place mutation must drop the
  // claim (Z-order is relative to the leaf's own bounds, which move).
  RStarTree tree = BulkLoadStr(RandomObjects(200, 10), SmallNodeOptions());
  bool any_packed = false;
  for (NodeId id = 0; id < tree.node_slot_count(); ++id) {
    if (tree.IsLive(id) && tree.node(id).is_leaf() && tree.node(id).objects.zorder_packed()) {
      any_packed = true;
    }
  }
  EXPECT_TRUE(any_packed) << "bulk load should mark multi-entry leaves packed";

  LeafObjects objects;
  objects.push_back(DataObject{1, Point{0, 0}});
  objects.push_back(DataObject{2, Point{1, 1}});
  objects.MarkZOrderPacked();
  ASSERT_TRUE(objects.zorder_packed());
  objects.push_back(DataObject{3, Point{2, 2}});
  EXPECT_FALSE(objects.zorder_packed()) << "push_back must clear the claim";

  objects.MarkZOrderPacked();
  objects.EraseAt(0);
  EXPECT_FALSE(objects.zorder_packed()) << "EraseAt must clear the claim";

  objects.MarkZOrderPacked();
  objects.clear();
  EXPECT_FALSE(objects.zorder_packed()) << "clear must clear the claim";
}

}  // namespace
}  // namespace nwc
