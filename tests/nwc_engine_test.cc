#include "core/nwc_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/brute_force.h"
#include "datasets/dataset.h"
#include "rtree/bulk_load.h"

namespace nwc {
namespace {

struct Fixture {
  std::vector<DataObject> objects;
  RStarTree tree;
  IwpIndex iwp;
  DensityGrid grid;
};

Fixture MakeFixture(std::vector<DataObject> objects, const Rect& space, double cell = 10.0,
                    int max_entries = 8) {
  RTreeOptions options;
  options.max_entries = max_entries;
  options.min_entries = max_entries * 2 / 5;
  RStarTree tree = BulkLoadStr(objects, options);
  IwpIndex iwp = IwpIndex::Build(tree);
  DensityGrid grid(space, cell, objects);
  return Fixture{std::move(objects), std::move(tree), std::move(iwp), std::move(grid)};
}

std::vector<DataObject> UniformObjects(size_t count, uint64_t seed, double extent) {
  Rng rng(seed);
  std::vector<DataObject> objects;
  for (size_t i = 0; i < count; ++i) {
    objects.push_back(DataObject{static_cast<ObjectId>(i),
                                 Point{rng.NextDouble(0, extent), rng.NextDouble(0, extent)}});
  }
  return objects;
}

std::vector<DataObject> ClusteredObjects(size_t count, uint64_t seed, double extent,
                                         int clusters) {
  Rng rng(seed);
  std::vector<Point> centers;
  for (int c = 0; c < clusters; ++c) {
    centers.push_back(Point{rng.NextDouble(0, extent), rng.NextDouble(0, extent)});
  }
  std::vector<DataObject> objects;
  for (size_t i = 0; i < count; ++i) {
    const Point& c = centers[rng.NextUint64(centers.size())];
    objects.push_back(DataObject{static_cast<ObjectId>(i),
                                 Point{c.x + rng.NextGaussian(0, extent / 50),
                                       c.y + rng.NextGaussian(0, extent / 50)}});
  }
  return objects;
}

const std::vector<NwcOptions>& AllOptionPresets() {
  static const std::vector<NwcOptions> kPresets = {
      NwcOptions::Plain(), NwcOptions::Srr(), NwcOptions::Dip(),  NwcOptions::Dep(),
      NwcOptions::Iwp(),   NwcOptions::Plus(), NwcOptions::Star(),
  };
  return kPresets;
}

TEST(NwcEngineTest, RejectsInvalidQueries) {
  Fixture f = MakeFixture(UniformObjects(50, 1, 100), Rect{0, 0, 100, 100});
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  EXPECT_EQ(engine.Execute(NwcQuery{Point{0, 0}, 0.0, 5.0, 3}, NwcOptions::Plain(), nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Execute(NwcQuery{Point{0, 0}, 5.0, 5.0, 0}, NwcOptions::Plain(), nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(NwcEngineTest, RequiresStructuresForDepAndIwp) {
  Fixture f = MakeFixture(UniformObjects(50, 2, 100), Rect{0, 0, 100, 100});
  NwcEngine bare(f.tree);
  const NwcQuery query{Point{50, 50}, 10, 10, 2};
  EXPECT_EQ(bare.Execute(query, NwcOptions::Dep(), nullptr).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(bare.Execute(query, NwcOptions::Iwp(), nullptr).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(bare.Execute(query, NwcOptions::Plus(), nullptr).ok());
}

TEST(NwcEngineTest, NotFoundWhenNoQualifiedWindowExists) {
  // 3 far-apart objects, n = 2, tiny window: nothing qualifies.
  std::vector<DataObject> objects = {DataObject{0, Point{10, 10}},
                                     DataObject{1, Point{50, 50}},
                                     DataObject{2, Point{90, 90}}};
  Fixture f = MakeFixture(objects, Rect{0, 0, 100, 100});
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  for (const NwcOptions& options : AllOptionPresets()) {
    const Result<NwcResult> result =
        engine.Execute(NwcQuery{Point{0, 0}, 1, 1, 2}, options, nullptr);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->found);
  }
}

TEST(NwcEngineTest, SingleObjectQuery) {
  // n = 1 degenerates to (window-relaxed) nearest neighbor.
  Fixture f = MakeFixture(UniformObjects(200, 3, 100), Rect{0, 0, 100, 100});
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  const Point q{37, 61};
  double nearest = std::numeric_limits<double>::infinity();
  for (const DataObject& obj : f.objects) nearest = std::min(nearest, Distance(q, obj.pos));
  NwcOptions options = NwcOptions::Star();
  options.measure = DistanceMeasure::kMax;
  const Result<NwcResult> result = engine.Execute(NwcQuery{q, 5, 5, 1}, options, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found);
  EXPECT_NEAR(result->distance, nearest, 1e-9);
}

// Property suite: every scheme returns the brute-force-optimal distance for
// every measure, on uniform and clustered data.
class NwcEngineMeasureTest : public ::testing::TestWithParam<DistanceMeasure> {};

TEST_P(NwcEngineMeasureTest, AllSchemesMatchBruteForceUniform) {
  const DistanceMeasure measure = GetParam();
  Rng rng(100 + static_cast<int>(measure));
  for (int round = 0; round < 6; ++round) {
    Fixture f = MakeFixture(UniformObjects(120, 200 + round, 100), Rect{0, 0, 100, 100},
                            /*cell=*/8.0);
    NwcEngine engine(f.tree, &f.iwp, &f.grid);
    for (int trial = 0; trial < 4; ++trial) {
      NwcQuery query;
      query.q = Point{rng.NextDouble(-10, 110), rng.NextDouble(-10, 110)};
      query.length = rng.NextDouble(5, 25);
      query.width = rng.NextDouble(5, 25);
      query.n = 1 + static_cast<size_t>(rng.NextUint64(5));

      const NwcResult expected = BruteForceNwc(f.objects, query, measure);
      for (const NwcOptions& preset : AllOptionPresets()) {
        NwcOptions options = preset;
        options.measure = measure;
        const Result<NwcResult> result = engine.Execute(query, options, nullptr);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(result->found, expected.found);
        if (expected.found) {
          EXPECT_NEAR(result->distance, expected.distance, 1e-9)
              << "measure=" << DistanceMeasureName(measure) << " srr=" << options.use_srr
              << " dip=" << options.use_dip << " dep=" << options.use_dep
              << " iwp=" << options.use_iwp;
          EXPECT_TRUE(
              CheckNwcResultConsistency(*result, f.objects, query, measure).ok());
        }
      }
    }
  }
}

TEST_P(NwcEngineMeasureTest, AllSchemesMatchBruteForceClustered) {
  const DistanceMeasure measure = GetParam();
  Rng rng(300 + static_cast<int>(measure));
  for (int round = 0; round < 4; ++round) {
    Fixture f = MakeFixture(ClusteredObjects(150, 400 + round, 100, 4), Rect{0, 0, 100, 100},
                            /*cell=*/8.0);
    NwcEngine engine(f.tree, &f.iwp, &f.grid);
    for (int trial = 0; trial < 4; ++trial) {
      NwcQuery query;
      query.q = Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
      query.length = rng.NextDouble(3, 15);
      query.width = rng.NextDouble(3, 15);
      query.n = 2 + static_cast<size_t>(rng.NextUint64(6));

      const NwcResult expected = BruteForceNwc(f.objects, query, measure);
      for (const NwcOptions& preset : AllOptionPresets()) {
        NwcOptions options = preset;
        options.measure = measure;
        const Result<NwcResult> result = engine.Execute(query, options, nullptr);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(result->found, expected.found);
        if (expected.found) {
          EXPECT_NEAR(result->distance, expected.distance, 1e-9)
              << "measure=" << DistanceMeasureName(measure) << " srr=" << options.use_srr
              << " dip=" << options.use_dip << " dep=" << options.use_dep
              << " iwp=" << options.use_iwp;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, NwcEngineMeasureTest,
                         ::testing::Values(DistanceMeasure::kMin, DistanceMeasure::kMax,
                                           DistanceMeasure::kAvg,
                                           DistanceMeasure::kNearestWindow),
                         [](const ::testing::TestParamInfo<DistanceMeasure>& info) {
                           return DistanceMeasureName(info.param);
                         });

TEST(NwcEngineTest, OptimizationsNeverIncreaseResultDistance) {
  // Scheme invariance at a larger scale (no brute force): all schemes
  // agree on the optimal distance among themselves.
  Fixture f = MakeFixture(ClusteredObjects(5000, 7, 1000, 10), Rect{0, 0, 1000, 1000},
                          /*cell=*/25.0, /*max_entries=*/16);
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const NwcQuery query{Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)},
                         rng.NextDouble(5, 40), rng.NextDouble(5, 40),
                         2 + static_cast<size_t>(rng.NextUint64(8))};
    double reference = -1.0;
    bool reference_found = false;
    for (const NwcOptions& options : AllOptionPresets()) {
      const Result<NwcResult> result = engine.Execute(query, options, nullptr);
      ASSERT_TRUE(result.ok());
      if (reference < 0.0) {
        reference = result->found ? result->distance : 0.0;
        reference_found = result->found;
      } else {
        ASSERT_EQ(result->found, reference_found);
        if (result->found) {
          EXPECT_NEAR(result->distance, reference, 1e-9);
        }
      }
    }
  }
}

TEST(NwcEngineTest, OptimizedSchemesSaveIo) {
  Fixture f = MakeFixture(ClusteredObjects(8000, 9, 1000, 12), Rect{0, 0, 1000, 1000},
                          /*cell=*/25.0, /*max_entries=*/16);
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  const NwcQuery query{Point{500, 500}, 20, 20, 4};

  const auto io_for = [&](const NwcOptions& options) {
    IoCounter io;
    CheckOk(engine.Execute(query, options, &io).status());
    return io.query_total();
  };
  const uint64_t plain = io_for(NwcOptions::Plain());
  EXPECT_LT(io_for(NwcOptions::Plus()), plain);
  EXPECT_LT(io_for(NwcOptions::Star()), plain);
  EXPECT_LE(io_for(NwcOptions::Star()), io_for(NwcOptions::Plus()));
}

TEST(NwcEngineTest, QueryOutsideDataSpaceStillCorrect) {
  Fixture f = MakeFixture(UniformObjects(150, 10, 100), Rect{0, 0, 100, 100});
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  const NwcQuery query{Point{-500, 1200}, 15, 15, 3};
  const NwcResult expected =
      BruteForceNwc(f.objects, query, DistanceMeasure::kNearestWindow);
  for (const NwcOptions& options : AllOptionPresets()) {
    const Result<NwcResult> result = engine.Execute(query, options, nullptr);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->found, expected.found);
    if (expected.found) {
      EXPECT_NEAR(result->distance, expected.distance, 1e-9);
    }
  }
}

TEST(NwcEngineTest, NEqualsDatasetSize) {
  // The only qualified window must contain every object.
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 5; ++i) {
    objects.push_back(DataObject{i, Point{10.0 + i, 20.0 + (i % 2)}});
  }
  Fixture f = MakeFixture(objects, Rect{0, 0, 100, 100});
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  const Result<NwcResult> result =
      engine.Execute(NwcQuery{Point{0, 0}, 10, 10, 5}, NwcOptions::Star(), nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found);
  EXPECT_EQ(result->objects.size(), 5u);
}

// A tree whose nodes hold more entries than its max_entries (FromParts
// performs no validation) must still search exactly: the traversal queue
// sizes its run blocks by max_entries and has to grow them. The leaves
// overlap and grow in size with their id (3, 5, ..., 15 objects), so the
// blocks grow while earlier leaves' runs are still queued.
TEST(NwcEngineTest, OverfullNodesSearchLikeABulkLoadedTree) {
  const std::vector<DataObject> objects = UniformObjects(63, 91, 100.0);
  std::vector<std::unique_ptr<RTreeNode>> nodes;
  nodes.push_back(std::make_unique<RTreeNode>());
  nodes[0]->id = 0;
  nodes[0]->level = 1;
  size_t next = 0;
  for (NodeId leaf = 1; leaf <= 7; ++leaf) {
    auto node = std::make_unique<RTreeNode>();
    node->id = leaf;
    node->parent = 0;
    for (size_t i = 0; i < 2 * leaf + 1; ++i) node->objects.push_back(objects[next++]);
    nodes[0]->children.push_back(ChildEntry{node->ComputeMbr(), leaf});
    nodes.push_back(std::move(node));
  }
  RTreeOptions options;
  options.max_entries = 4;
  options.min_entries = 2;
  const RStarTree overfull = RStarTree::FromParts(options, std::move(nodes), 0, objects.size());
  const IwpIndex iwp = IwpIndex::Build(overfull);
  const DensityGrid grid(Rect{0, 0, 100, 100}, 10.0, objects);
  const Fixture reference = MakeFixture(objects, Rect{0, 0, 100, 100});

  const NwcEngine engine(overfull, &iwp, &grid);
  const NwcEngine reference_engine(reference.tree, &reference.iwp, &reference.grid);
  Rng rng(92);
  for (int trial = 0; trial < 20; ++trial) {
    const NwcQuery query{Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)},
                         rng.NextDouble(5, 30), rng.NextDouble(5, 30), 2 + rng.NextUint64(4)};
    for (const NwcOptions& options :
         {NwcOptions::Plain(), NwcOptions::Plus(), NwcOptions::Star()}) {
      const Result<NwcResult> result = engine.Execute(query, options, nullptr);
      const Result<NwcResult> expected = reference_engine.Execute(query, options, nullptr);
      ASSERT_TRUE(result.ok());
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(result->found, expected->found);
      if (result->found) {
        EXPECT_NEAR(result->distance, expected->distance, 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace nwc
