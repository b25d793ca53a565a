#include "datasets/dataset.h"

#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"

namespace nwc {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(DatasetTest, BoundsOfEmptyDataset) {
  Dataset d;
  EXPECT_TRUE(d.Bounds().IsEmpty());
  EXPECT_EQ(d.size(), 0u);
}

TEST(DatasetTest, NormalizeToSpaceMapsBoundsExactly) {
  std::vector<DataObject> objects = {
      DataObject{0, Point{-10, 100}},
      DataObject{1, Point{30, 300}},
      DataObject{2, Point{10, 200}},
  };
  NormalizeToSpace(objects, NormalizedSpace());
  Rect bounds = Rect::Empty();
  for (const DataObject& obj : objects) bounds.Expand(obj.pos);
  EXPECT_NEAR(bounds.min_x, 0.0, 1e-9);
  EXPECT_NEAR(bounds.max_x, 10000.0, 1e-9);
  EXPECT_NEAR(bounds.min_y, 0.0, 1e-9);
  EXPECT_NEAR(bounds.max_y, 10000.0, 1e-9);
  // Midpoint maps to midpoint.
  EXPECT_NEAR(objects[2].pos.x, 5000.0, 1e-9);
  EXPECT_NEAR(objects[2].pos.y, 5000.0, 1e-9);
}

TEST(DatasetTest, NormalizeDegenerateAxisMapsToMidpoint) {
  std::vector<DataObject> objects = {DataObject{0, Point{5, 1}}, DataObject{1, Point{5, 2}}};
  NormalizeToSpace(objects, NormalizedSpace());
  EXPECT_NEAR(objects[0].pos.x, 5000.0, 1e-9);
  EXPECT_NEAR(objects[1].pos.x, 5000.0, 1e-9);
}

TEST(DatasetTest, CsvRoundTrip) {
  Dataset d = MakeUniform(500, 9);
  d.name = "roundtrip";
  const std::string path = TempPath("dataset.csv");
  ASSERT_TRUE(SaveDatasetCsv(d, path).ok());
  const Result<Dataset> loaded = LoadDatasetCsv(path, "roundtrip");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), d.size());
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(loaded->objects[i].id, d.objects[i].id);
    EXPECT_DOUBLE_EQ(loaded->objects[i].pos.x, d.objects[i].pos.x);
    EXPECT_DOUBLE_EQ(loaded->objects[i].pos.y, d.objects[i].pos.y);
  }
}

TEST(DatasetTest, LoadMissingCsvFails) {
  EXPECT_FALSE(LoadDatasetCsv(TempPath("missing.csv"), "x").ok());
}

TEST(DatasetTest, LoadMalformedCsvFails) {
  const std::string path = TempPath("malformed.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("id,x,y\n1;2;3\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadDatasetCsv(path, "bad").ok());
}

// Each field of a row parses whole: trailing text, a non-numeric or
// non-finite coordinate and an id that is signed or past UINT32_MAX all
// reject the file, naming the line, instead of loading a wrong value.
TEST(DatasetTest, LoadRejectsUnrepresentableFields) {
  const std::string path = TempPath("unrepresentable.csv");
  for (const char* row : {"2,11,abc", "5,14,15junk", "3,12,nan", "4,inf,13", "6,1,-inf",
                          "-5,1,2", "4294967297,1,2", "7,1,2,3", "8,,2"}) {
    SCOPED_TRACE(row);
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "id,x,y\n1,10,0\n%s\n", row);
    std::fclose(f);
    const Result<Dataset> loaded = LoadDatasetCsv(path, "bad");
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find(":3:"), std::string::npos) << loaded.status();
  }
}

// What the parser accepted before it parsed each field whole, it still
// accepts: blanks after a comma, CRLF line ends and the largest id.
TEST(DatasetTest, LoadAcceptsSpacedFieldsAndTheLargestId) {
  const std::string path = TempPath("spaced.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("id,x,y\n4294967295, 1.5,\t-2e3\r\n", f);
  std::fclose(f);
  const Result<Dataset> loaded = LoadDatasetCsv(path, "ok");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->objects[0], (DataObject{4294967295u, Point{1.5, -2000.0}}));
}

TEST(DatasetTest, StatsOnSinglePoint) {
  Dataset d;
  d.space = NormalizedSpace();
  d.objects = {DataObject{0, Point{1, 1}}};
  const DatasetStats stats = ComputeStats(d);
  EXPECT_EQ(stats.cardinality, 1u);
  EXPECT_DOUBLE_EQ(stats.top1pct_mass, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_occupied_cell_count, 1.0);
}

TEST(DatasetTest, StatsCardinality) {
  const Dataset d = MakeUniform(12345, 10);
  EXPECT_EQ(ComputeStats(d).cardinality, 12345u);
}

}  // namespace
}  // namespace nwc
