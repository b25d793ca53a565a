#ifndef NWC_SERVICE_LATENCY_HISTOGRAM_H_
#define NWC_SERVICE_LATENCY_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nwc {

/// Fixed-memory log-linear histogram for latency values (microseconds).
///
/// Values 0..63 are recorded exactly; above that each power-of-two range
/// is divided into 32 sub-buckets, bounding the relative quantile error at
/// 1/32 (~3%) regardless of magnitude — the HdrHistogram layout at low
/// precision. Recording is O(1) with no allocation after construction, so
/// a per-query Record() never perturbs the latency it measures.
///
/// ThreadSafety: NOT thread-safe; ServiceMetrics serializes access behind
/// its mutex (a query's work is thousands of node visits, so one
/// uncontended lock per query is noise).
class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records one value (microseconds, by service convention).
  void Record(uint64_t value);

  /// Merges another histogram into this one (counts add bucket-wise).
  void Merge(const LatencyHistogram& other);

  /// The value at quantile `q` in [0, 1]: an upper bound of the bucket
  /// containing the q-th sample, so Quantile(0.5) >= the true median by at
  /// most one bucket width. Returns 0 when empty.
  uint64_t Quantile(double q) const;

  /// Number of recorded values.
  uint64_t count() const { return count_; }

  /// Smallest / largest recorded value (0 when empty).
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }

  /// Exact sum of every recorded value (pairs with count() for Prometheus
  /// histogram exposition).
  uint64_t sum() const { return sum_; }

  /// Exact running mean (the sum is kept outside the buckets).
  double Mean() const;

  /// One bucket of the layout: all recorded values v with
  /// bucket(i-1).upper_bound < v <= upper_bound land in count.
  struct Bucket {
    uint64_t upper_bound = 0;  ///< inclusive upper bound of the bucket
    uint64_t count = 0;
  };

  /// Number of buckets in the (fixed) layout.
  size_t num_buckets() const { return buckets_.size(); }

  /// The i-th bucket, ascending by upper bound. Exposed so exporters (the
  /// Prometheus text format needs cumulative `le` buckets) can walk the raw
  /// distribution instead of settling for three pre-picked quantiles.
  Bucket bucket(size_t i) const { return Bucket{BucketUpperBound(i), buckets_[i]}; }

 private:
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketUpperBound(size_t index);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

}  // namespace nwc

#endif  // NWC_SERVICE_LATENCY_HISTOGRAM_H_
