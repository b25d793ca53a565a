#include "simd/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/float_bits.h"
#include "common/rng.h"
#include "rtree/node.h"

namespace nwc {
namespace {

// Differential sweep: every kernel of the AVX2 set must return bit-exact
// results against the scalar oracle, across span lengths that cover empty
// input, pure tails, exact multiples of the vector width, and long mixed
// spans, and across inputs engineered to hit the FP edge cases (signed
// zeros, boundary-equal coordinates, empty rects).

struct TestData {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<DataObject> objects;
};

TestData MakeData(size_t count, uint64_t seed) {
  TestData data;
  Rng rng(seed);
  data.xs.reserve(count);
  data.ys.reserve(count);
  data.objects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    double x = rng.NextDouble(-100.0, 100.0);
    double y = rng.NextDouble(-100.0, 100.0);
    // Sprinkle exact zeros of both signs and values equal to the window
    // boundaries used below, so the comparisons see genuine ties.
    switch (i % 11) {
      case 3: x = 0.0; break;
      case 5: x = -0.0; break;
      case 7: y = -0.0; break;
      case 9: x = 25.0; y = -25.0; break;  // on the boundary of the test window
      default: break;
    }
    data.xs.push_back(x);
    data.ys.push_back(y);
    data.objects.push_back(DataObject{static_cast<ObjectId>(i), Point{x, y}});
  }
  return data;
}

const std::vector<size_t>& SpanLengths() {
  static const std::vector<size_t> lengths = {0, 1, 2, 3, 4, 5, 7, 8, 12, 13, 31, 64, 100, 203};
  return lengths;
}

class SimdKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    avx2_ = simd::Avx2OpsOrNull();
    if (avx2_ == nullptr) {
      GTEST_SKIP() << "AVX2 not available on this host; differential sweep skipped";
    }
  }
  const simd::KernelOps* avx2_ = nullptr;
};

TEST_F(SimdKernelsTest, CountAndCollectMatchScalarBitExact) {
  const simd::KernelOps& scalar = simd::ScalarOps();
  const Rect windows[] = {
      Rect{-25.0, -25.0, 25.0, 25.0},
      Rect{0.0, 0.0, 50.0, 50.0},
      Rect{-0.0, -0.0, 0.0, 0.0},        // signed-zero boundary
      Rect{10.0, 10.0, 5.0, 5.0},        // empty (inverted) window
      Rect{-1000.0, -1000.0, 1000.0, 1000.0},  // everything
  };
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const TestData data = MakeData(256, seed);
    for (const size_t count : SpanLengths()) {
      for (const Rect& window : windows) {
        ASSERT_EQ(scalar.count_in_window(data.xs.data(), data.ys.data(), count, window),
                  avx2_->count_in_window(data.xs.data(), data.ys.data(), count, window))
            << "seed=" << seed << " count=" << count;
        std::vector<uint32_t> scalar_idx(count + 1, 0xDEADBEEF);
        std::vector<uint32_t> avx2_idx(count + 1, 0xDEADBEEF);
        const size_t scalar_hits = scalar.collect_in_window(
            data.xs.data(), data.ys.data(), count, window, scalar_idx.data());
        const size_t avx2_hits = avx2_->collect_in_window(data.xs.data(), data.ys.data(), count,
                                                          window, avx2_idx.data());
        ASSERT_EQ(scalar_hits, avx2_hits) << "seed=" << seed << " count=" << count;
        for (size_t i = 0; i < scalar_hits; ++i) {
          ASSERT_EQ(scalar_idx[i], avx2_idx[i]) << "seed=" << seed << " count=" << count;
        }
      }
    }
  }
}

TEST_F(SimdKernelsTest, BatchDistanceMatchesScalarBitExact) {
  const simd::KernelOps& scalar = simd::ScalarOps();
  const Point queries[] = {{0.0, 0.0}, {-0.0, -0.0}, {37.5, -12.25}, {1e6, -1e6}};
  for (uint64_t seed = 11; seed <= 15; ++seed) {
    const TestData data = MakeData(256, seed);
    for (const size_t count : SpanLengths()) {
      for (const Point& q : queries) {
        std::vector<double> scalar_out(count + 1, -1.0);
        std::vector<double> avx2_out(count + 1, -1.0);
        scalar.batch_distance(q, data.xs.data(), data.ys.data(), count, scalar_out.data());
        avx2_->batch_distance(q, data.xs.data(), data.ys.data(), count, avx2_out.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(DoubleBits(scalar_out[i]), DoubleBits(avx2_out[i]))
              << "seed=" << seed << " count=" << count << " i=" << i;
        }
        scalar.batch_distance_points(q, data.objects.data(), count, scalar_out.data());
        avx2_->batch_distance_points(q, data.objects.data(), count, avx2_out.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(DoubleBits(scalar_out[i]), DoubleBits(avx2_out[i]))
              << "seed=" << seed << " count=" << count << " i=" << i;
        }
      }
    }
  }
}

TEST_F(SimdKernelsTest, BatchMinDistMatchesScalarBitExactOverStridedEntries) {
  const simd::KernelOps& scalar = simd::ScalarOps();
  for (uint64_t seed = 21; seed <= 25; ++seed) {
    Rng rng(seed);
    std::vector<ChildEntry> entries;
    for (size_t i = 0; i < 203; ++i) {
      const Point a{rng.NextDouble(-100.0, 100.0), rng.NextDouble(-100.0, 100.0)};
      const Point b{rng.NextDouble(-100.0, 100.0), rng.NextDouble(-100.0, 100.0)};
      Rect mbr = Rect::FromCorners(a, b);
      if (i % 13 == 0) mbr = Rect::Empty();  // inverted rect -> MinDist inf
      if (i % 17 == 0) mbr = Rect{-0.0, -0.0, 0.0, 0.0};
      entries.push_back(ChildEntry{mbr, static_cast<NodeId>(i)});
    }
    const Point queries[] = {{0.0, 0.0}, {-0.0, 0.0}, {-250.0, 31.0}, {12.5, 12.5}};
    for (const size_t count : SpanLengths()) {
      for (const Point& q : queries) {
        std::vector<double> scalar_out(count + 1, -1.0);
        std::vector<double> avx2_out(count + 1, -1.0);
        scalar.batch_min_dist(q, &entries.data()->mbr, sizeof(ChildEntry), count,
                              scalar_out.data());
        avx2_->batch_min_dist(q, &entries.data()->mbr, sizeof(ChildEntry), count,
                              avx2_out.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(DoubleBits(scalar_out[i]), DoubleBits(avx2_out[i]))
              << "seed=" << seed << " count=" << count << " i=" << i;
        }
      }
    }
  }
}

// A coordinate on a 5-unit lattice, so child edges land exactly on the
// test windows' edges.
double LatticeCoord(Rng& rng) { return 5.0 * (static_cast<double>(rng.NextUint64(21)) - 10.0); }

TEST_F(SimdKernelsTest, CollectIntersectingMatchesScalarIndexExactOverStridedEntries) {
  const simd::KernelOps& scalar = simd::ScalarOps();
  const Rect windows[] = {
      Rect{-25.0, -25.0, 25.0, 25.0},
      Rect{0.0, 0.0, 0.0, 0.0},                // a point on lattice corners
      Rect{10.0, -30.0, 10.0, 30.0},           // a segment on a lattice line
      Rect{-0.0, -0.0, 0.0, 0.0},              // signed-zero boundary
      Rect{10.0, 10.0, 5.0, 5.0},              // inverted window
      Rect::Empty(),                           // empty window
      Rect{-1000.0, -1000.0, 1000.0, 1000.0},  // everything
  };
  for (uint64_t seed = 31; seed <= 35; ++seed) {
    Rng rng(seed);
    std::vector<ChildEntry> entries;
    for (size_t i = 0; i < 68; ++i) {
      const Point a{LatticeCoord(rng), LatticeCoord(rng)};
      Rect mbr = Rect::FromCorners(a, Point{LatticeCoord(rng), LatticeCoord(rng)});
      switch (i % 9) {
        case 2: mbr = Rect::Empty(); break;
        case 4: mbr = Rect{5.0, 0.0, -5.0, 10.0}; break;   // inverted in x only
        case 6: mbr = Rect{0.0, 5.0, 10.0, -5.0}; break;   // inverted in y only
        case 7: mbr = Rect{25.0, 25.0, 40.0, 40.0}; break;  // touches a corner
        case 8: mbr = Rect{-40.0, -10.0, -25.0, 10.0}; break;  // touches an edge
        default: break;
      }
      entries.push_back(ChildEntry{mbr, static_cast<NodeId>(i)});
    }
    for (size_t count = 0; count <= entries.size(); ++count) {
      for (const Rect& window : windows) {
        std::vector<uint32_t> expected;
        for (size_t i = 0; i < count; ++i) {
          if (entries[i].mbr.Intersects(window)) expected.push_back(static_cast<uint32_t>(i));
        }
        std::vector<uint32_t> scalar_idx(count + 1, 0xDEADBEEF);
        std::vector<uint32_t> avx2_idx(count + 1, 0xDEADBEEF);
        const size_t scalar_hits = scalar.collect_intersecting(
            &entries.data()->mbr, sizeof(ChildEntry), count, window, scalar_idx.data());
        const size_t avx2_hits = avx2_->collect_intersecting(
            &entries.data()->mbr, sizeof(ChildEntry), count, window, avx2_idx.data());
        scalar_idx.resize(scalar_hits);
        avx2_idx.resize(avx2_hits);
        ASSERT_EQ(scalar_idx, expected) << "seed=" << seed << " count=" << count;
        ASSERT_EQ(avx2_idx, expected) << "seed=" << seed << " count=" << count;
      }
    }
  }
}

TEST(SimdDispatchTest, ForceScalarSelectsTheOracle) {
  const simd::DispatchMode saved = simd::GetDispatchMode();
  simd::SetDispatchMode(simd::DispatchMode::kForceScalar);
  EXPECT_STREQ(simd::ActiveKernelName(), "scalar");
  EXPECT_EQ(&simd::Ops(), &simd::ScalarOps());
  simd::SetDispatchMode(saved);
}

TEST(SimdDispatchTest, AutoSelectsAvx2WhenSupported) {
  // NWC_DISABLE_AVX2 may legitimately force scalar (the CI fallback leg
  // runs the whole suite that way), so only pin the expectation when the
  // escape hatch is off.
  const char* disabled = std::getenv("NWC_DISABLE_AVX2");
  if (disabled != nullptr && disabled[0] != '\0' && std::string(disabled) != "0") {
    EXPECT_STREQ(simd::ActiveKernelName(), "scalar");
    return;
  }
  const simd::DispatchMode saved = simd::GetDispatchMode();
  simd::SetDispatchMode(simd::DispatchMode::kAuto);
  if (simd::Avx2Supported()) {
    EXPECT_STREQ(simd::ActiveKernelName(), "avx2");
  } else {
    EXPECT_STREQ(simd::ActiveKernelName(), "scalar");
  }
  simd::SetDispatchMode(saved);
}

TEST(CanonicalDoubleBitsTest, FoldsSignedZeroOnly) {
  EXPECT_EQ(CanonicalDoubleBits(-0.0), CanonicalDoubleBits(0.0));
  EXPECT_EQ(CanonicalDoubleBits(0.0), DoubleBits(0.0));
  EXPECT_NE(DoubleBits(-0.0), DoubleBits(0.0));
  EXPECT_EQ(CanonicalDoubleBits(1.5), DoubleBits(1.5));
  EXPECT_EQ(CanonicalDoubleBits(-1.5), DoubleBits(-1.5));
}

}  // namespace
}  // namespace nwc
