#ifndef NWC_PERF_REPORT_PERF_SPANS_H_
#define NWC_PERF_REPORT_PERF_SPANS_H_

// Bench-side spans: the traced run stamps each layer boundary it can see
// from outside (submit, queue, execute, wire, engine call, publish) and
// keeps the spans in memory until exit, when they are written as a Chrome
// trace-event file and summarized as self time per span name.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace nwc::perf {

/// Parent of a root span.
inline constexpr uint32_t kNoParent = 0xFFFFFFFFu;

/// One span on the steady-clock nanosecond axis (see NowNs()). `lane` is
/// the Chrome trace thread the span is drawn on — spans of one lane never
/// overlap unless one nests inside the other. `reads` is the node-read
/// count recorded on the span, or -1 when the layer has none.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t parent = kNoParent;
  uint64_t request = 0;
  uint32_t lane = 0;
  int64_t reads = -1;
};

/// Self time of every span carrying one name: its duration minus the part
/// its direct children cover.
struct SelfTime {
  std::string name;
  uint64_t count = 0;
  double self_us = 0.0;   ///< summed over the spans
  double total_us = 0.0;  ///< summed durations
};

/// In-memory span store. Not thread-safe: the bench adds spans from one
/// thread, after the stamps they are built from have been collected.
class SpanRecorder {
 public:
  /// A fresh request id shared by the spans of one request.
  uint64_t NewRequest() { return next_request_++; }

  /// Appends a span and returns its id (the parent handle for children).
  uint32_t Add(const char* name, uint64_t start_ns, uint64_t end_ns, uint32_t parent,
               uint64_t request, uint32_t lane, int64_t reads = -1);

  size_t size() const { return spans_.size(); }

  /// Self time per span name, in first-seen order.
  std::vector<SelfTime> SelfTimes() const;

  /// Writes every span as a Chrome trace-event "X" event (loadable in
  /// Perfetto); timestamps are microseconds from the earliest span.
  Status WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint64_t next_request_ = 0;
};

}  // namespace nwc::perf

#endif  // NWC_PERF_REPORT_PERF_SPANS_H_
