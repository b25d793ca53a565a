#include "service/latency_histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace nwc {
namespace {

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.Quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(hist.Mean(), 0.0);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram hist;
  for (uint64_t v = 0; v < 64; ++v) hist.Record(v);
  EXPECT_EQ(hist.count(), 64u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 63u);
  // Values below 64 live in exact buckets: every quantile is exact.
  EXPECT_EQ(hist.Quantile(0.5), 31u);
  EXPECT_EQ(hist.Quantile(1.0), 63u);
  EXPECT_EQ(hist.Quantile(0.0), 0u);
}

TEST(LatencyHistogramTest, QuantilesOnUniformDistributionWithinResolution) {
  LatencyHistogram hist;
  // 1..100000 each once: the q-quantile is q * 100000.
  for (uint64_t v = 1; v <= 100000; ++v) hist.Record(v);
  for (const double q : {0.50, 0.95, 0.99}) {
    const double expected = q * 100000.0;
    const double got = static_cast<double>(hist.Quantile(q));
    // Bucket resolution is 1/32 (~3.2%); the reported value is an upper
    // bound of the true quantile's bucket.
    EXPECT_GE(got, expected * 0.999) << "q=" << q;
    EXPECT_LE(got, expected * 1.035) << "q=" << q;
  }
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), 100000u);
  EXPECT_NEAR(hist.Mean(), 50000.5, 1e-6);
}

TEST(LatencyHistogramTest, QuantilesOnBimodalDistribution) {
  LatencyHistogram hist;
  // 90% fast (100us), 10% slow (10000us): p50 ~ 100, p95/p99 ~ 10000.
  for (int i = 0; i < 900; ++i) hist.Record(100);
  for (int i = 0; i < 100; ++i) hist.Record(10000);
  EXPECT_NEAR(static_cast<double>(hist.Quantile(0.50)), 100.0, 100.0 / 32.0 + 1.0);
  EXPECT_NEAR(static_cast<double>(hist.Quantile(0.95)), 10000.0, 10000.0 / 32.0 + 1.0);
  EXPECT_NEAR(static_cast<double>(hist.Quantile(0.99)), 10000.0, 10000.0 / 32.0 + 1.0);
}

TEST(LatencyHistogramTest, QuantileUpperBoundNeverBelowTrueQuantile) {
  Rng rng(0xFEED);
  LatencyHistogram hist;
  std::vector<uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform spread over 6 decades, the shape of real latency tails.
    const double exponent = rng.NextDouble(0.0, 6.0);
    const uint64_t v = static_cast<uint64_t>(std::pow(10.0, exponent));
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
    const uint64_t exact = values[rank == 0 ? 0 : rank - 1];
    EXPECT_GE(hist.Quantile(q), exact) << "q=" << q;
  }
  EXPECT_LE(hist.Quantile(1.0), hist.max());
}

TEST(LatencyHistogramTest, MergeMatchesRecordingEverythingInOne) {
  Rng rng(0xAB);
  LatencyHistogram a, b, all;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.NextUint64(1000000);
    all.Record(v);
    (i % 2 == 0 ? a : b).Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.Mean(), all.Mean());
  for (const double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
    EXPECT_EQ(a.Quantile(q), all.Quantile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, MergeWithEmptyKeepsStats) {
  LatencyHistogram a, empty;
  a.Record(42);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42u);
  EXPECT_EQ(a.max(), 42u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.min(), 42u);
}

TEST(LatencyHistogramTest, BucketIterationCoversEveryRecordedValue) {
  LatencyHistogram hist;
  Rng rng(0xB0C4E7);
  uint64_t expected_sum = 0;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t value = rng.NextUint64(1u << 20);
    hist.Record(value);
    expected_sum += value;
  }

  uint64_t bucket_total = 0;
  uint64_t previous_bound = 0;
  for (size_t i = 0; i < hist.num_buckets(); ++i) {
    const LatencyHistogram::Bucket bucket = hist.bucket(i);
    if (i > 0) {
      EXPECT_GT(bucket.upper_bound, previous_bound) << "bounds must ascend at bucket " << i;
    }
    previous_bound = bucket.upper_bound;
    bucket_total += bucket.count;
  }
  EXPECT_EQ(bucket_total, hist.count());
  EXPECT_EQ(hist.sum(), expected_sum);
}

TEST(LatencyHistogramTest, BucketBoundsContainTheirValues) {
  // One value per regime: exact range, first log-linear range, far out.
  for (const uint64_t value : {7ull, 100ull, 1000000ull}) {
    LatencyHistogram hist;
    hist.Record(value);
    uint64_t lower = 0;
    bool found = false;
    for (size_t i = 0; i < hist.num_buckets() && !found; ++i) {
      const LatencyHistogram::Bucket bucket = hist.bucket(i);
      if (bucket.count > 0 && value > lower && value <= bucket.upper_bound) found = true;
      lower = bucket.upper_bound;
    }
    EXPECT_TRUE(found) << "value " << value << " not inside its bucket's bounds";
  }
}

TEST(LatencyHistogramTest, SumSurvivesMerge) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(10);
  a.Record(20);
  b.Record(5);
  a.Merge(b);
  EXPECT_EQ(a.sum(), 35u);
  EXPECT_EQ(a.count(), 3u);
}

TEST(LatencyHistogramTest, ZeroAndSubMicrosecondSamplesLandInBucketZero) {
  // Latencies are recorded in whole microseconds, so every sub-microsecond
  // sample arrives as 0 and must land in bucket 0 (upper bound 0) rather
  // than underflowing the log-linear index computation.
  LatencyHistogram hist;
  hist.Record(0);
  hist.Record(0);
  EXPECT_EQ(hist.bucket(0).upper_bound, 0u);
  EXPECT_EQ(hist.bucket(0).count, 2u);
  for (size_t i = 1; i < hist.num_buckets(); ++i) {
    ASSERT_EQ(hist.bucket(i).count, 0u) << "zero sample leaked into bucket " << i;
  }
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.Quantile(0.5), 0u);
  EXPECT_EQ(hist.Quantile(1.0), 0u);
}

TEST(LatencyHistogramTest, EveryBucketEdgeLandsInItsOwnBucket) {
  // Boundary sweep over all buckets: a bucket's upper bound must be
  // counted in that bucket, and the value one past the previous bound
  // (the bucket's lowest value) must land there too. This pins the
  // half-open bucket convention at every edge of the log-linear layout,
  // where off-by-one index math would go wrong first.
  LatencyHistogram bounds;  // only used to read the bucket layout
  for (size_t i = 0; i < bounds.num_buckets(); ++i) {
    const uint64_t upper = bounds.bucket(i).upper_bound;
    LatencyHistogram at_upper;
    at_upper.Record(upper);
    ASSERT_EQ(at_upper.bucket(i).count, 1u) << "upper bound " << upper << " missed bucket " << i;

    const uint64_t lowest = i == 0 ? 0 : bounds.bucket(i - 1).upper_bound + 1;
    LatencyHistogram at_lowest;
    at_lowest.Record(lowest);
    ASSERT_EQ(at_lowest.bucket(i).count, 1u)
        << "lowest value " << lowest << " missed bucket " << i;
  }
}

TEST(LatencyHistogramTest, MaxRepresentableValueLandsInLastBucket) {
  LatencyHistogram hist;
  hist.Record(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(hist.bucket(hist.num_buckets() - 1).count, 1u);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.max(), std::numeric_limits<uint64_t>::max());
}

TEST(LatencyHistogramTest, HandlesHugeValues) {
  LatencyHistogram hist;
  const uint64_t huge = uint64_t{1} << 62;
  hist.Record(huge);
  hist.Record(1);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(hist.max(), huge);
  EXPECT_EQ(hist.Quantile(1.0), huge);  // capped at the observed max
  const double got = static_cast<double>(hist.Quantile(0.99));
  EXPECT_GE(got, static_cast<double>(huge) * 0.96);
}

}  // namespace
}  // namespace nwc
