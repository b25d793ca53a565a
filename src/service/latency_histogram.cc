#include "service/latency_histogram.h"

#include <algorithm>
#include <bit>

namespace nwc {
namespace {

// Values below 2^6 get one bucket each; each power-of-two range above is
// split into 2^5 sub-buckets (relative resolution 1/32).
constexpr int kExactBits = 6;
constexpr int kSubBucketBits = 5;
constexpr size_t kExactBuckets = size_t{1} << kExactBits;          // 64
constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;        // 32
constexpr size_t kRanges = 64 - kExactBits;                        // 58
constexpr size_t kBucketCount = kExactBuckets + kRanges * kSubBuckets;

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBucketCount, 0) {}

size_t LatencyHistogram::BucketIndex(uint64_t value) {
  if (value < kExactBuckets) return static_cast<size_t>(value);
  const int msb = 63 - std::countl_zero(value);
  const size_t range = static_cast<size_t>(msb) - (kExactBits - 1);  // >= 1
  const size_t sub = static_cast<size_t>(value >> range) - kSubBuckets;
  return kExactBuckets + (range - 1) * kSubBuckets + sub;
}

uint64_t LatencyHistogram::BucketUpperBound(size_t index) {
  if (index < kExactBuckets) return static_cast<uint64_t>(index);
  const size_t range = (index - kExactBuckets) / kSubBuckets + 1;
  const uint64_t sub = (index - kExactBuckets) % kSubBuckets + kSubBuckets;
  return ((sub + 1) << range) - 1;
}

void LatencyHistogram::Record(uint64_t value) {
  ++buckets_[BucketIndex(value)];
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  ++count_;
  sum_ += value;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

uint64_t LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample, 1-based: ceil(q * count), at least 1.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(count_) + 0.9999999999));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return std::min(BucketUpperBound(i), max_);
  }
  return max_;
}

double LatencyHistogram::Mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

}  // namespace nwc
