#include "rtree/serialize.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rtree/bulk_load.h"
#include "rtree/queries.h"
#include "rtree/validate.h"

namespace nwc {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<DataObject> RandomObjects(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<DataObject> objects;
  for (size_t i = 0; i < count; ++i) {
    objects.push_back(DataObject{static_cast<ObjectId>(i),
                                 Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)}});
  }
  return objects;
}

std::vector<ObjectId> SortedIds(std::vector<DataObject> objects) {
  std::vector<ObjectId> ids;
  for (const DataObject& obj : objects) ids.push_back(obj.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(SerializeTest, RoundTripPreservesQueries) {
  const std::vector<DataObject> objects = RandomObjects(3000, 51);
  RTreeOptions options;
  options.max_entries = 12;
  options.min_entries = 5;
  RStarTree tree(options);
  for (const DataObject& obj : objects) tree.Insert(obj);

  const std::string path = TempPath("roundtrip.nwctree");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  Result<RStarTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->size(), tree.size());
  EXPECT_EQ(loaded->height(), tree.height());
  EXPECT_EQ(loaded->node_count(), tree.node_count());
  EXPECT_TRUE(ValidateTree(*loaded).ok()) << ValidateTree(*loaded).ToString();

  Rng rng(52);
  for (int trial = 0; trial < 30; ++trial) {
    const Rect window = Rect::FromCorners(
        Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)},
        Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)});
    EXPECT_EQ(SortedIds(WindowQuery(*loaded, window, nullptr)),
              SortedIds(WindowQuery(tree, window, nullptr)));
  }
}

TEST(SerializeTest, RoundTripAfterDeletions) {
  std::vector<DataObject> objects = RandomObjects(1000, 53);
  RTreeOptions options;
  options.max_entries = 10;
  options.min_entries = 4;
  RStarTree tree(options);
  for (const DataObject& obj : objects) tree.Insert(obj);
  // Deletions create freed arena slots; serialization must handle them.
  for (size_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(tree.Delete(objects[i]).ok());
  }

  const std::string path = TempPath("after_delete.nwctree");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  Result<RStarTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 600u);
  EXPECT_TRUE(ValidateTree(*loaded).ok()) << ValidateTree(*loaded).ToString();
}

TEST(SerializeTest, RoundTripEmptyTree) {
  RStarTree tree;
  const std::string path = TempPath("empty.nwctree");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  Result<RStarTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->empty());
}

TEST(SerializeTest, RoundTripBulkLoadedTree) {
  const std::vector<DataObject> objects = RandomObjects(5000, 54);
  const RStarTree tree = BulkLoadStr(objects, RTreeOptions{});
  const std::string path = TempPath("bulk.nwctree");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  Result<RStarTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 5000u);
  EXPECT_EQ(loaded->node_count(), tree.node_count());
}

TEST(SerializeTest, LoadMissingFileFails) {
  Result<RStarTree> loaded = LoadTree(TempPath("does_not_exist.nwctree"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SerializeTest, LoadGarbageFails) {
  const std::string path = TempPath("garbage.nwctree");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a tree file at all", f);
  std::fclose(f);
  Result<RStarTree> loaded = LoadTree(path);
  EXPECT_FALSE(loaded.ok());
}

// One empty root leaf, written field by field as SaveTree lays it out,
// with the header fields the corrupt-file tests below overwrite.
struct CraftedTree {
  double reinsert_fraction = 0.3;
  uint8_t split_byte = 0;
  uint64_t slot_count = 1;
  uint32_t root_entries = 0;
};

std::string WriteCraftedTree(const char* name, const CraftedTree& fields) {
  const std::string path = TempPath(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  const auto put = [f](const auto& value) { std::fwrite(&value, sizeof(value), 1, f); };
  put(uint64_t{0x4E57435452454531ULL});  // "NWCTREE1"
  put(int32_t{kMaxEntriesDefault});
  put(int32_t{kMaxEntriesDefault * 2 / 5});
  put(fields.reinsert_fraction);
  put(uint8_t{1});  // forced reinsert
  put(fields.split_byte);
  put(uint64_t{0});  // objects
  put(fields.slot_count);
  put(NodeId{0});  // root
  put(uint8_t{1});  // live
  put(int32_t{0});  // level
  put(kInvalidNodeId);
  put(fields.root_entries);
  std::fclose(f);
  return path;
}

TEST(SerializeTest, CraftedTreeLoads) {
  Result<RStarTree> loaded = LoadTree(WriteCraftedTree("crafted.nwctree", {}));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 0u);
}

TEST(SerializeTest, LoadHugeSlotCountFailsWithoutAllocating) {
  Result<RStarTree> loaded =
      LoadTree(WriteCraftedTree("slots.nwctree", {.slot_count = uint64_t{1} << 62}));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << loaded.status().ToString();
}

TEST(SerializeTest, LoadNanReinsertFractionFails) {
  Result<RStarTree> loaded = LoadTree(
      WriteCraftedTree("nan.nwctree", {.reinsert_fraction = std::nan("")}));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << loaded.status().ToString();
}

TEST(SerializeTest, LoadNonzeroSplitByteFails) {
  Result<RStarTree> loaded = LoadTree(WriteCraftedTree("split.nwctree", {.split_byte = 1}));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << loaded.status().ToString();
}

TEST(SerializeTest, LoadHugeNodeCountFailsWithoutAllocating) {
  Result<RStarTree> loaded =
      LoadTree(WriteCraftedTree("count.nwctree", {.root_entries = UINT32_MAX}));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << loaded.status().ToString();
}

TEST(SerializeTest, LoadTruncatedFails) {
  const std::vector<DataObject> objects = RandomObjects(500, 55);
  const RStarTree tree = BulkLoadStr(objects, RTreeOptions{});
  const std::string path = TempPath("truncated.nwctree");
  ASSERT_TRUE(SaveTree(tree, path).ok());
  // Truncate to half size.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  Result<RStarTree> loaded = LoadTree(path);
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace nwc
