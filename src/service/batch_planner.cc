#include "service/batch_planner.h"

#include <algorithm>
#include <cmath>

#include "geometry/morton.h"

namespace nwc {
namespace {

// Normalizes `value` within [lo, hi] onto the 16-bit grid, clamping
// out-of-range and non-finite inputs.
uint32_t GridCoord(double value, double lo, double hi) {
  const double extent = hi - lo;
  if (!(extent > 0.0)) return 0;  // degenerate or inverted axis
  double t = (value - lo) / extent;
  if (!(t > 0.0)) t = 0.0;  // also catches NaN
  if (t > 1.0) t = 1.0;
  return static_cast<uint32_t>(t * 65535.0);
}

uint32_t OptionsSignature(const NwcOptions& options) {
  return static_cast<uint32_t>((options.use_srr ? 1u : 0u) | (options.use_dip ? 2u : 0u) |
                               (options.use_dep ? 4u : 0u) | (options.use_iwp ? 8u : 0u) |
                               (static_cast<uint32_t>(options.measure) << 4));
}

}  // namespace

uint64_t ZOrderKey(const Point& q, const Rect& space) {
  return MortonKey16(GridCoord(q.x, space.min_x, space.max_x),
                     GridCoord(q.y, space.min_y, space.max_y));
}

std::vector<std::vector<size_t>> PlanBatchGroups(const std::vector<BatchItem>& items,
                                                 const Rect& space, size_t max_group_size) {
  // Bucket indices by options signature, preserving first-seen order.
  std::vector<uint32_t> signatures;
  std::vector<std::vector<size_t>> buckets;
  for (size_t i = 0; i < items.size(); ++i) {
    const uint32_t sig = OptionsSignature(items[i].options);
    size_t bucket = signatures.size();
    for (size_t b = 0; b < signatures.size(); ++b) {
      if (signatures[b] == sig) {
        bucket = b;
        break;
      }
    }
    if (bucket == signatures.size()) {
      signatures.push_back(sig);
      buckets.emplace_back();
    }
    buckets[bucket].push_back(i);
  }

  std::vector<std::vector<size_t>> groups;
  for (auto& bucket : buckets) {
    // stable_sort: equal Z-order keys keep submission order, so the plan
    // is a deterministic function of the input.
    std::stable_sort(bucket.begin(), bucket.end(), [&](size_t a, size_t b) {
      return ZOrderKey(items[a].q, space) < ZOrderKey(items[b].q, space);
    });
    if (max_group_size == 0 || bucket.size() <= max_group_size) {
      groups.push_back(std::move(bucket));
      continue;
    }
    for (size_t start = 0; start < bucket.size(); start += max_group_size) {
      const size_t end = std::min(start + max_group_size, bucket.size());
      groups.emplace_back(bucket.begin() + static_cast<std::ptrdiff_t>(start),
                          bucket.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  return groups;
}

}  // namespace nwc
