#include "core/nwc_types.h"

#include <cmath>

#include "common/string_util.h"

namespace nwc {

const char* DistanceMeasureName(DistanceMeasure measure) {
  switch (measure) {
    case DistanceMeasure::kMin:
      return "min";
    case DistanceMeasure::kMax:
      return "max";
    case DistanceMeasure::kAvg:
      return "avg";
    case DistanceMeasure::kNearestWindow:
      return "nearest";
  }
  return "unknown";
}

Status NwcQuery::Validate() const {
  if (!std::isfinite(q.x) || !std::isfinite(q.y) || !(std::isfinite(length) && length > 0.0) ||
      !(std::isfinite(width) && width > 0.0)) {
    return Status::InvalidArgument(
        StrFormat("query needs a finite point and positive finite window extents, got "
                  "q=(%f, %f) l=%f w=%f", q.x, q.y, length, width));
  }
  if (n == 0) {
    return Status::InvalidArgument("n must be at least 1");
  }
  return Status::Ok();
}

Status KnwcQuery::Validate() const {
  const Status base_ok = base.Validate();
  if (!base_ok.ok()) return base_ok;
  if (k == 0) {
    return Status::InvalidArgument("k must be at least 1");
  }
  if (m >= base.n) {
    return Status::InvalidArgument(
        StrFormat("m must be smaller than n (got m=%zu, n=%zu)", m, base.n));
  }
  return Status::Ok();
}

}  // namespace nwc
