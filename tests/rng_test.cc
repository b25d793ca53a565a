#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace nwc {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleRangeRespected) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble(-3.0, 7.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 7.0);
  }
}

TEST(RngTest, BoundedUniformCoversRangeWithoutBias) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t v = rng.NextUint64(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / 10, kSamples / 100);  // within 10% relative
  }
}

TEST(RngTest, BoundedUniformEdgeCases) {
  Rng rng(8);
  EXPECT_EQ(rng.NextUint64(0), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextUint64(1), 0u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(9);
  constexpr int kSamples = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(10);
  constexpr int kSamples = 100000;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) sum += rng.NextGaussian(50.0, 5.0);
  EXPECT_NEAR(sum / kSamples, 50.0, 0.2);
}

TEST(RngTest, BernoulliProbabilities) {
  Rng rng(11);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  int heads = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.NextBernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(heads, 0.3 * kSamples, kSamples / 50);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, items);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(14);
  std::vector<int> items(100);
  for (int i = 0; i < 100; ++i) items[i] = i;
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, items);
}

}  // namespace
}  // namespace nwc
