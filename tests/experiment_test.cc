#include "bench_util/experiment.h"

#include <cstdlib>

#include <gtest/gtest.h>

#include "bench_util/table_printer.h"
#include "datasets/generators.h"

namespace nwc {
namespace {

Dataset SmallClustered() {
  ClusteredSpec spec;
  spec.cardinality = 3000;
  spec.background_fraction = 0.2;
  for (int i = 0; i < 5; ++i) {
    spec.clusters.push_back(
        ClusterSpec{Point{1500.0 + i * 1500.0, 1500.0 + i * 1200.0}, 120.0, 120.0, 1.0});
  }
  return MakeClustered(spec, 42, "small");
}

TEST(ExperimentTest, AllSchemesListedInPaperOrder) {
  const std::vector<Scheme> schemes = AllSchemes();
  ASSERT_EQ(schemes.size(), 7u);
  EXPECT_EQ(schemes[0].name, "NWC");
  EXPECT_EQ(schemes[5].name, "NWC+");
  EXPECT_EQ(schemes[6].name, "NWC*");
  EXPECT_FALSE(schemes[0].options.use_srr);
  EXPECT_TRUE(schemes[6].options.use_srr && schemes[6].options.use_dip &&
              schemes[6].options.use_dep && schemes[6].options.use_iwp);
}

TEST(ExperimentTest, QueryCountEnvOverride) {
  unsetenv("NWC_QUERIES");
  EXPECT_EQ(QueryCountFromEnv(), kDefaultQueryCount);
  setenv("NWC_QUERIES", "3", 1);
  EXPECT_EQ(QueryCountFromEnv(), 3u);
  setenv("NWC_QUERIES", "junk", 1);
  EXPECT_EXIT(QueryCountFromEnv(), ::testing::ExitedWithCode(2), "NWC_QUERIES='junk'");
  for (const char* value : {"3x", "0", "-1", "+3", ""}) {
    setenv("NWC_QUERIES", value, 1);
    EXPECT_EXIT(QueryCountFromEnv(), ::testing::ExitedWithCode(2), "NWC_QUERIES") << value;
  }
  unsetenv("NWC_QUERIES");
}

TEST(ExperimentTest, DatasetScaleEnvOverrideAndRejection) {
  unsetenv("NWC_SCALE");
  EXPECT_EQ(DatasetScaleFromEnv(), 1.0);
  setenv("NWC_SCALE", "0.05", 1);
  EXPECT_EQ(DatasetScaleFromEnv(), 0.05);
  EXPECT_EQ(ScaledCardinality(1000), 50u);
  // A partial or out-of-range value stops the run instead of falling back
  // to full scale or clamping to 1.
  for (const char* value : {"0,05", "0.05x", "2", "0", "-0.5", "nan", ""}) {
    setenv("NWC_SCALE", value, 1);
    EXPECT_EXIT(DatasetScaleFromEnv(), ::testing::ExitedWithCode(2), "NWC_SCALE") << value;
  }
  unsetenv("NWC_SCALE");
}

TEST(ExperimentTest, SampleQueryPointsDeterministic) {
  const Dataset d = SmallClustered();
  const std::vector<Point> a = SampleQueryPoints(d, 10, 1);
  const std::vector<Point> b = SampleQueryPoints(d, 10, 1);
  ASSERT_EQ(a.size(), 10u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_TRUE(d.space.Contains(a[i]));
  }
}

TEST(ExperimentTest, FixtureBuildsAllStructures) {
  ExperimentFixture fixture(SmallClustered());
  EXPECT_EQ(fixture.tree().size(), 3000u);
  EXPECT_GT(fixture.iwp().backward_pointer_count(), 0u);
  const DensityGrid& grid = fixture.GridFor(25.0);
  EXPECT_EQ(grid.total_count(), 3000u);
  // Same cell size returns the cached grid.
  EXPECT_EQ(&fixture.GridFor(25.0), &grid);
  EXPECT_NE(&fixture.GridFor(100.0), &grid);
}

TEST(ExperimentTest, RunNwcPointProducesSaneStats) {
  ExperimentFixture fixture(SmallClustered());
  const std::vector<Point> queries = SampleQueryPoints(fixture.dataset(), 5, 2);
  for (const Scheme& scheme : AllSchemes()) {
    const RunStats stats = RunNwcPoint(fixture, scheme, queries, /*n=*/4, 50, 50);
    EXPECT_EQ(stats.queries, 5u);
    EXPECT_GT(stats.avg_io, 0.0) << scheme.name;
    EXPECT_EQ(stats.found, 5u) << scheme.name;  // clusters guarantee answers
  }
}

TEST(ExperimentTest, AllSchemesAgreeOnDistances) {
  ExperimentFixture fixture(SmallClustered());
  const std::vector<Point> queries = SampleQueryPoints(fixture.dataset(), 5, 3);
  double reference = -1.0;
  for (const Scheme& scheme : AllSchemes()) {
    const RunStats stats = RunNwcPoint(fixture, scheme, queries, 4, 60, 60);
    if (reference < 0.0) {
      reference = stats.avg_distance;
    } else {
      EXPECT_NEAR(stats.avg_distance, reference, 1e-6) << scheme.name;
    }
  }
}

TEST(ExperimentTest, RunKnwcPointProducesSaneStats) {
  ExperimentFixture fixture(SmallClustered());
  const std::vector<Point> queries = SampleQueryPoints(fixture.dataset(), 4, 4);
  const Scheme star{"NWC*", NwcOptions::Star()};
  const RunStats stats = RunKnwcPoint(fixture, star, queries, 3, 60, 60, /*k=*/3, /*m=*/1);
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_GT(stats.avg_io, 0.0);
  EXPECT_GT(stats.found, 0u);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter table("Demo", {"a", "b"});
  table.AddRow({"1", "2"});
  table.AddRow({"3", "4"});
  const std::string path = std::string(::testing::TempDir()) + "/table.csv";
  table.WriteCsv(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buffer[64];
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), f), nullptr);
  EXPECT_STREQ(buffer, "a,b\n");
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), f), nullptr);
  EXPECT_STREQ(buffer, "1,2\n");
  std::fclose(f);
}

}  // namespace
}  // namespace nwc
