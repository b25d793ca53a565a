// Edge-case behaviors of the NWC/kNWC engines: degenerate geometry,
// coincident objects, axis-aligned configurations, extreme windows, and
// invariance under index construction order.

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/brute_force.h"
#include "core/knwc_engine.h"
#include "core/nwc_engine.h"
#include "rtree/bulk_load.h"

namespace nwc {
namespace {

struct Fixture {
  std::vector<DataObject> objects;
  RStarTree tree;
  IwpIndex iwp;
  DensityGrid grid;
};

Fixture MakeFixture(std::vector<DataObject> objects, const Rect& space, double cell = 10.0) {
  RTreeOptions options;
  options.max_entries = 8;
  options.min_entries = 3;
  RStarTree tree = BulkLoadStr(objects, options);
  IwpIndex iwp = IwpIndex::Build(tree);
  DensityGrid grid(space, cell, objects);
  return Fixture{std::move(objects), std::move(tree), std::move(iwp), std::move(grid)};
}

const std::vector<NwcOptions>& AllOptionPresets() {
  static const std::vector<NwcOptions> kPresets = {
      NwcOptions::Plain(), NwcOptions::Srr(), NwcOptions::Dip(),  NwcOptions::Dep(),
      NwcOptions::Iwp(),   NwcOptions::Plus(), NwcOptions::Star(),
  };
  return kPresets;
}

TEST(EngineEdgeCaseTest, CoincidentObjects) {
  // Ten objects at exactly the same point: any n of them form a zero-size
  // group; every scheme must find them.
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 10; ++i) objects.push_back(DataObject{i, Point{40, 60}});
  Fixture f = MakeFixture(objects, Rect{0, 0, 100, 100});
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  for (const NwcOptions& preset : AllOptionPresets()) {
    NwcOptions options = preset;
    options.measure = DistanceMeasure::kMax;
    const Result<NwcResult> result =
        engine.Execute(NwcQuery{Point{0, 0}, 5, 5, 5}, options, nullptr);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->found);
    EXPECT_NEAR(result->distance, Distance(Point{0, 0}, Point{40, 60}), 1e-9);
    EXPECT_EQ(result->objects.size(), 5u);
  }
}

TEST(EngineEdgeCaseTest, QueryExactlyOnAnObject) {
  Rng rng(201);
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 100; ++i) {
    objects.push_back(DataObject{i, Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)}});
  }
  Fixture f = MakeFixture(objects, Rect{0, 0, 100, 100});
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  const NwcQuery query{f.objects[17].pos, 10, 10, 3};
  const NwcResult expected = BruteForceNwc(f.objects, query, DistanceMeasure::kNearestWindow);
  for (const NwcOptions& options : AllOptionPresets()) {
    const Result<NwcResult> result = engine.Execute(query, options, nullptr);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->found, expected.found);
    if (expected.found) {
      EXPECT_NEAR(result->distance, expected.distance, 1e-9);
    }
  }
}

TEST(EngineEdgeCaseTest, CollinearHorizontalObjects) {
  // All objects on one horizontal line: windows degenerate in y.
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 30; ++i) {
    objects.push_back(DataObject{i, Point{10.0 + 3.0 * i, 50.0}});
  }
  Fixture f = MakeFixture(objects, Rect{0, 0, 100, 100});
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  const NwcQuery query{Point{0, 50}, 7, 1, 3};  // fits 3 consecutive (spacing 3)
  const NwcResult expected = BruteForceNwc(f.objects, query, DistanceMeasure::kMax);
  ASSERT_TRUE(expected.found);
  for (const NwcOptions& preset : AllOptionPresets()) {
    NwcOptions options = preset;
    options.measure = DistanceMeasure::kMax;
    const Result<NwcResult> result = engine.Execute(query, options, nullptr);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->found);
    EXPECT_NEAR(result->distance, expected.distance, 1e-9);
  }
}

TEST(EngineEdgeCaseTest, CollinearVerticalObjects) {
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 30; ++i) {
    objects.push_back(DataObject{i, Point{50.0, 10.0 + 3.0 * i}});
  }
  Fixture f = MakeFixture(objects, Rect{0, 0, 100, 100});
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  const NwcQuery query{Point{50, 0}, 1, 7, 3};
  const NwcResult expected = BruteForceNwc(f.objects, query, DistanceMeasure::kMax);
  ASSERT_TRUE(expected.found);
  for (const NwcOptions& preset : AllOptionPresets()) {
    NwcOptions options = preset;
    options.measure = DistanceMeasure::kMax;
    const Result<NwcResult> result = engine.Execute(query, options, nullptr);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->found);
    EXPECT_NEAR(result->distance, expected.distance, 1e-9);
  }
}

TEST(EngineEdgeCaseTest, ObjectsOnQueryAxes) {
  // Objects exactly on the vertical/horizontal lines through q exercise
  // the quadrant boundary convention.
  const Point q{50, 50};
  std::vector<DataObject> objects = {
      DataObject{0, Point{50, 60}}, DataObject{1, Point{50, 62}},  // on x = q.x
      DataObject{2, Point{60, 50}}, DataObject{3, Point{62, 50}},  // on y = q.y
      DataObject{4, Point{50, 50}},                                // at q itself
      DataObject{5, Point{30, 30}}, DataObject{6, Point{28, 32}},
  };
  Fixture f = MakeFixture(objects, Rect{0, 0, 100, 100});
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  for (const size_t n : {size_t{2}, size_t{3}}) {
    const NwcQuery query{q, 5, 5, n};
    const NwcResult expected = BruteForceNwc(f.objects, query, DistanceMeasure::kMax);
    for (const NwcOptions& preset : AllOptionPresets()) {
      NwcOptions options = preset;
      options.measure = DistanceMeasure::kMax;
      const Result<NwcResult> result = engine.Execute(query, options, nullptr);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->found, expected.found) << "n=" << n;
      if (expected.found) {
        EXPECT_NEAR(result->distance, expected.distance, 1e-9) << "n=" << n;
      }
    }
  }
}

TEST(EngineEdgeCaseTest, WindowCoveringWholeSpaceReturnsNearestN) {
  // A window larger than the data space makes every n-subset qualify; the
  // result under the max measure must be the n nearest neighbors.
  Rng rng(202);
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 300; ++i) {
    objects.push_back(DataObject{i, Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)}});
  }
  Fixture f = MakeFixture(objects, Rect{0, 0, 100, 100});
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  const Point q{37, 81};
  const size_t n = 7;
  // The n nearest objects, by (distance, id).
  std::vector<std::pair<double, ObjectId>> by_distance;
  for (const DataObject& object : objects) {
    by_distance.emplace_back(Distance(q, object.pos), object.id);
  }
  std::sort(by_distance.begin(), by_distance.end());
  NwcOptions options = NwcOptions::Star();
  options.measure = DistanceMeasure::kMax;
  const Result<NwcResult> result =
      engine.Execute(NwcQuery{q, 1000, 1000, n}, options, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found);
  EXPECT_NEAR(result->distance, by_distance[n - 1].first, 1e-9);
}

TEST(EngineEdgeCaseTest, TinyWindowRequiresCoincidence) {
  std::vector<DataObject> objects = {
      DataObject{0, Point{10, 10}}, DataObject{1, Point{10.0001, 10}},
      DataObject{2, Point{20, 20}},
  };
  Fixture f = MakeFixture(objects, Rect{0, 0, 100, 100});
  NwcEngine engine(f.tree, &f.iwp, &f.grid);
  // Window 1e-5 is smaller than the pair's spacing.
  Result<NwcResult> result =
      engine.Execute(NwcQuery{Point{0, 0}, 1e-5, 1e-5, 2}, NwcOptions::Star(), nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->found);
  // Window 1e-3 covers it.
  result = engine.Execute(NwcQuery{Point{0, 0}, 1e-3, 1e-3, 2}, NwcOptions::Star(), nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->found);
}

TEST(EngineEdgeCaseTest, ResultInvariantUnderTreeConstruction) {
  // The answer is a property of the data, not of the index: STR-packed and
  // incrementally built trees must give identical distances (I/O differs).
  Rng rng(203);
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 2000; ++i) {
    objects.push_back(DataObject{i, Point{rng.NextGaussian(50, 20), rng.NextGaussian(50, 20)}});
  }
  RTreeOptions tree_options;
  tree_options.max_entries = 10;
  tree_options.min_entries = 4;
  const RStarTree bulk = BulkLoadStr(objects, tree_options);
  RStarTree incremental(tree_options);
  std::vector<DataObject> shuffled = objects;
  rng.Shuffle(shuffled);
  for (const DataObject& obj : shuffled) incremental.Insert(obj);

  NwcEngine engine_a(bulk);
  NwcEngine engine_b(incremental);
  for (int trial = 0; trial < 10; ++trial) {
    const NwcQuery query{Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)},
                         rng.NextDouble(2, 10), rng.NextDouble(2, 10),
                         2 + static_cast<size_t>(rng.NextUint64(4))};
    const Result<NwcResult> a = engine_a.Execute(query, NwcOptions::Plus(), nullptr);
    const Result<NwcResult> b = engine_b.Execute(query, NwcOptions::Plus(), nullptr);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->found, b->found);
    if (a->found) {
      EXPECT_NEAR(a->distance, b->distance, 1e-9);
    }
  }
}

TEST(EngineEdgeCaseTest, AsymmetricWindows) {
  // l != w exercises the x/y roles of the search region independently.
  Rng rng(204);
  for (int round = 0; round < 5; ++round) {
    std::vector<DataObject> objects;
    for (ObjectId i = 0; i < 120; ++i) {
      objects.push_back(
          DataObject{i, Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)}});
    }
    Fixture f = MakeFixture(objects, Rect{0, 0, 100, 100});
    NwcEngine engine(f.tree, &f.iwp, &f.grid);
    const NwcQuery query{Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)},
                         rng.NextDouble(2, 6), rng.NextDouble(15, 30), 3};
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
}

TEST(EngineEdgeCaseTest, KnwcWithCoincidentClusters) {
  // Two coincident stacks of objects: with m=0 and n=2, the two stacks are
  // the only disjoint groups.
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 4; ++i) objects.push_back(DataObject{i, Point{10, 10}});
  for (ObjectId i = 4; i < 8; ++i) objects.push_back(DataObject{i, Point{30, 30}});
  Fixture f = MakeFixture(objects, Rect{0, 0, 100, 100});
  KnwcEngine engine(f.tree, &f.iwp, &f.grid);
  NwcOptions options = NwcOptions::Star();
  options.measure = DistanceMeasure::kMax;
  const Result<KnwcResult> result = engine.Execute(
      KnwcQuery{NwcQuery{Point{0, 0}, 1, 1, 2}, 3, 0}, options, nullptr);
  ASSERT_TRUE(result.ok());
  // Each window around a stack holds all four coincident objects, and the
  // algorithm always forms "the n nearest" subset — with fully tied
  // distances that is one deterministic pair per stack, so the candidate
  // universe holds exactly one group per stack and m=0 admits both.
  ASSERT_EQ(result->groups.size(), 2u);
  EXPECT_NEAR(result->groups[0].distance, Distance(Point{0, 0}, Point{10, 10}), 1e-9);
  EXPECT_NEAR(result->groups[1].distance, Distance(Point{0, 0}, Point{30, 30}), 1e-9);
}

}  // namespace
}  // namespace nwc
