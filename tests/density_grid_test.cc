#include "grid/density_grid.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/dataset.h"

namespace nwc {
namespace {

TEST(DensityGridTest, CellsPerAxisFromCellSize) {
  const Rect space{0, 0, 10000, 10000};
  EXPECT_EQ(DensityGrid(space, 25.0, {}).cells_per_axis(), 400u);
  EXPECT_EQ(DensityGrid(space, 100.0, {}).cells_per_axis(), 100u);
  EXPECT_EQ(DensityGrid(space, 400.0, {}).cells_per_axis(), 25u);
  EXPECT_EQ(DensityGrid(space, 10001.0, {}).cells_per_axis(), 1u);
}

TEST(DensityGridTest, StorageAccountingMatchesPaper) {
  // Paper Sec. 5.2: grid size 25 over the 10,000 space -> 160,000 cells of
  // a short integer each, ~312 KiB.
  const DensityGrid grid(Rect{0, 0, 10000, 10000}, 25.0, {});
  EXPECT_EQ(grid.cells_per_axis() * grid.cells_per_axis(), 160000u);
  EXPECT_EQ(grid.StorageBytes(), 320000u);
}

TEST(DensityGridTest, CountsEveryObjectOnce) {
  Rng rng(61);
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 5000; ++i) {
    objects.push_back(DataObject{i, Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)}});
  }
  const DensityGrid grid(Rect{0, 0, 100, 100}, 10.0, objects);
  EXPECT_EQ(grid.total_count(), 5000u);
  EXPECT_EQ(grid.CountUpperBound(Rect{0, 0, 100, 100}), 5000u);
}

TEST(DensityGridTest, UpperBoundIsSound) {
  Rng rng(62);
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 2000; ++i) {
    objects.push_back(DataObject{i, Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)}});
  }
  const DensityGrid grid(Rect{0, 0, 100, 100}, 7.0, objects);
  for (int trial = 0; trial < 300; ++trial) {
    const Rect rect = Rect::FromCorners(
        Point{rng.NextDouble(-10, 110), rng.NextDouble(-10, 110)},
        Point{rng.NextDouble(-10, 110), rng.NextDouble(-10, 110)});
    size_t exact = 0;
    for (const DataObject& obj : objects) {
      if (rect.Contains(obj.pos)) ++exact;
    }
    EXPECT_GE(grid.CountUpperBound(rect), exact) << "rect " << rect;
  }
}

TEST(DensityGridTest, BoundTightForCellAlignedRects) {
  std::vector<DataObject> objects;
  // One object per cell center of a 10x10 grid over [0,100]^2.
  ObjectId id = 0;
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      objects.push_back(DataObject{id++, Point{x * 10.0 + 5.0, y * 10.0 + 5.0}});
    }
  }
  const DensityGrid grid(Rect{0, 0, 100, 100}, 10.0, objects);
  // Interior-aligned rect covering exactly 4 cells (not touching others).
  EXPECT_EQ(grid.CountUpperBound(Rect{11, 11, 29, 29}), 4u);
  // Single interior cell.
  EXPECT_EQ(grid.CountUpperBound(Rect{41, 41, 49, 49}), 1u);
}

TEST(DensityGridTest, BoundaryTouchingRectIncludesNeighborCells) {
  std::vector<DataObject> objects = {DataObject{0, Point{5, 5}}, DataObject{1, Point{15, 5}}};
  const DensityGrid grid(Rect{0, 0, 100, 100}, 10.0, objects);
  // A rect ending exactly on the cell boundary x=10 touches both cells.
  EXPECT_EQ(grid.CountUpperBound(Rect{0, 0, 10, 10}), 2u);
  // Strictly inside the first cell: only that cell.
  EXPECT_EQ(grid.CountUpperBound(Rect{0, 0, 9.5, 9.5}), 1u);
}

TEST(DensityGridTest, ObjectsOutsideSpaceClampToEdgeCells) {
  std::vector<DataObject> objects = {DataObject{0, Point{-5, 50}},
                                     DataObject{1, Point{105, 50}}};
  const DensityGrid grid(Rect{0, 0, 100, 100}, 10.0, objects);
  EXPECT_EQ(grid.total_count(), 2u);
  EXPECT_EQ(grid.CountUpperBound(Rect{-10, 0, 110, 100}), 2u);
}

// A finite far-out coordinate's cell offset exceeds every size_t: it must
// clamp to the edge cell rather than overflow the index cast (an abort
// under -fsanitize=float-cast-overflow).
TEST(DensityGridTest, FarOutPointsAndRegionsClampToEdgeCells) {
  DensityGrid grid(Rect{0, 0, 10000, 10000}, 100.0, {DataObject{0, Point{1e300, 50}}});
  grid.OnInsert(Point{50, 1e300});
  grid.OnInsert(Point{-1e300, -1e300});
  EXPECT_EQ(grid.total_count(), 3u);
  EXPECT_EQ(grid.CellCount(Point{9999, 50}), 1u);
  EXPECT_EQ(grid.CellCount(Point{50, 9999}), 1u);
  EXPECT_EQ(grid.CellCount(Point{0, 0}), 1u);
  EXPECT_EQ(grid.CellCount(Point{1e300, 1e300}), 0u);
  EXPECT_EQ(grid.CountUpperBound(Rect{1e300, 1e300, 2e300, 2e300}), 0u);
  EXPECT_EQ(grid.CountUpperBound(Rect{1e300, 0, 2e300, 100}), 1u);
  EXPECT_EQ(grid.CountUpperBound(Rect{-2e300, -2e300, 2e300, 2e300}), 3u);
  grid.OnRemove(Point{1e300, 50});
  EXPECT_EQ(grid.CountUpperBound(Rect{1e300, 0, 2e300, 100}), 0u);
  EXPECT_EQ(grid.total_count(), 2u);
}

TEST(DensityGridTest, DisjointRectGivesZero) {
  std::vector<DataObject> objects = {DataObject{0, Point{50, 50}}};
  const DensityGrid grid(Rect{0, 0, 100, 100}, 10.0, objects);
  EXPECT_EQ(grid.CountUpperBound(Rect{61, 61, 70, 70}), 0u);
  EXPECT_EQ(grid.CountUpperBound(Rect::Empty()), 0u);
  // A rect touching the object's cell boundary conservatively counts that
  // cell (the bound is closed-intersection).
  EXPECT_EQ(grid.CountUpperBound(Rect{60, 60, 70, 70}), 1u);
}

TEST(DensityGridTest, CellCountAccessor) {
  std::vector<DataObject> objects = {DataObject{0, Point{5, 5}}, DataObject{1, Point{5.5, 5.5}},
                                     DataObject{2, Point{95, 95}}};
  const DensityGrid grid(Rect{0, 0, 100, 100}, 10.0, objects);
  EXPECT_EQ(grid.CellCount(Point{5, 5}), 2u);
  EXPECT_EQ(grid.CellCount(Point{95, 95}), 1u);
  EXPECT_EQ(grid.CellCount(Point{50, 50}), 0u);
}

TEST(DensityGridTest, FinerGridGivesTighterBounds) {
  Rng rng(63);
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 3000; ++i) {
    objects.push_back(
        DataObject{i, Point{rng.NextGaussian(50, 15), rng.NextGaussian(50, 15)}});
  }
  const DensityGrid fine(Rect{0, 0, 100, 100}, 2.0, objects);
  const DensityGrid coarse(Rect{0, 0, 100, 100}, 25.0, objects);
  double fine_sum = 0.0;
  double coarse_sum = 0.0;
  for (int trial = 0; trial < 100; ++trial) {
    const Rect rect = Rect::FromCorners(
        Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)},
        Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)});
    fine_sum += static_cast<double>(fine.CountUpperBound(rect));
    coarse_sum += static_cast<double>(coarse.CountUpperBound(rect));
  }
  EXPECT_LE(fine_sum, coarse_sum);
}


TEST(DensityGridTest, DynamicInsertAndRemove) {
  std::vector<DataObject> objects = {DataObject{0, Point{5, 5}}};
  DensityGrid grid(Rect{0, 0, 100, 100}, 10.0, objects);
  EXPECT_EQ(grid.CountUpperBound(Rect{0, 0, 9, 9}), 1u);

  grid.OnInsert(Point{5.5, 5.5});
  grid.OnInsert(Point{55, 55});
  EXPECT_EQ(grid.total_count(), 3u);
  EXPECT_EQ(grid.CountUpperBound(Rect{0, 0, 9, 9}), 2u);
  EXPECT_EQ(grid.CountUpperBound(Rect{51, 51, 59, 59}), 1u);

  grid.OnRemove(Point{5, 5});
  EXPECT_EQ(grid.total_count(), 2u);
  EXPECT_EQ(grid.CountUpperBound(Rect{0, 0, 9, 9}), 1u);
}

TEST(DensityGridTest, DynamicUpdatesMatchRebuiltGrid) {
  Rng rng(64);
  std::vector<DataObject> objects;
  for (ObjectId i = 0; i < 500; ++i) {
    objects.push_back(DataObject{i, Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)}});
  }
  DensityGrid dynamic(Rect{0, 0, 100, 100}, 7.0, objects);

  // Apply a random churn of inserts/removes to both the dynamic grid and
  // the object list, then compare against a freshly built grid.
  ObjectId next_id = 500;
  for (int step = 0; step < 300; ++step) {
    if (objects.empty() || rng.NextBernoulli(0.55)) {
      const Point p{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
      objects.push_back(DataObject{next_id++, p});
      dynamic.OnInsert(p);
    } else {
      const size_t victim = static_cast<size_t>(rng.NextUint64(objects.size()));
      dynamic.OnRemove(objects[victim].pos);
      objects[victim] = objects.back();
      objects.pop_back();
    }
  }
  const DensityGrid rebuilt(Rect{0, 0, 100, 100}, 7.0, objects);
  EXPECT_EQ(dynamic.total_count(), rebuilt.total_count());
  for (int trial = 0; trial < 100; ++trial) {
    const Rect rect = Rect::FromCorners(
        Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)},
        Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)});
    ASSERT_EQ(dynamic.CountUpperBound(rect), rebuilt.CountUpperBound(rect));
  }
}

}  // namespace
}  // namespace nwc
