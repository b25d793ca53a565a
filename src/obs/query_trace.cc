#include "obs/query_trace.h"

#include <cassert>
#include <utility>

namespace nwc {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kBrowseNode:
      return "browse_node";
    case SpanKind::kCandidate:
      return "candidate";
    case SpanKind::kSrrCheck:
      return "srr_check";
    case SpanKind::kDipCheck:
      return "dip_check";
    case SpanKind::kDepCheck:
      return "dep_check";
    case SpanKind::kWindowQuery:
      return "window_query";
    case SpanKind::kIwpProbe:
      return "iwp_probe";
    case SpanKind::kOverlapFilter:
      return "overlap_filter";
    case SpanKind::kAbort:
      return "abort";
  }
  return "unknown";
}

const char* TraceCounterName(TraceCounter counter) {
  switch (counter) {
    case TraceCounter::kObjectsBrowsed:
      return "objects_browsed";
    case TraceCounter::kNodesExpanded:
      return "nodes_expanded";
    case TraceCounter::kPrunedSrr:
      return "pruned_srr";
    case TraceCounter::kPrunedDip:
      return "pruned_dip";
    case TraceCounter::kPrunedDepNode:
      return "pruned_dep_node";
    case TraceCounter::kPrunedDepWindow:
      return "pruned_dep_window";
    case TraceCounter::kWindowQueries:
      return "window_queries";
    case TraceCounter::kWindowsEvaluated:
      return "windows_evaluated";
    case TraceCounter::kGroupsOffered:
      return "groups_offered";
    case TraceCounter::kGroupsDroppedOverlap:
      return "groups_dropped_overlap";
    case TraceCounter::kFaultsInjected:
      return "faults_injected";
    case TraceCounter::kAborted:
      return "aborted";
    case TraceCounter::kResultCacheHits:
      return "result_cache_hits";
  }
  return "unknown";
}

QueryTrace QueryTrace::Enabled() {
  QueryTrace trace;
  trace.enabled_ = true;
  trace.epoch_ = std::chrono::steady_clock::now();
  return trace;
}

QueryTrace QueryTrace::EnabledWithClock(std::function<uint64_t()> clock_ns) {
  QueryTrace trace;
  trace.enabled_ = true;
  trace.clock_ns_ = std::move(clock_ns);
  return trace;
}

uint64_t QueryTrace::NowNs() const {
  if (clock_ns_) return clock_ns_();
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - epoch_)
                                   .count());
}

SpanId QueryTrace::BeginArmed(SpanKind kind, const IoCounter* io, int64_t detail) {
  TraceSpan span;
  span.kind = kind;
  span.parent = open_.empty() ? kNoSpan : open_.back();
  span.start_ns = NowNs();
  span.detail = detail;
  if (io != nullptr) {
    // Stash the Begin snapshot in the delta fields; End() subtracts it.
    span.traversal_reads = io->traversal_reads();
    span.window_reads = io->window_query_reads();
  }
  const SpanId id = static_cast<SpanId>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  return id;
}

void QueryTrace::EndArmed(SpanId id, const IoCounter* io) {
  assert(!open_.empty() && open_.back() == id && "trace spans must end LIFO");
  open_.pop_back();
  TraceSpan& span = spans_[id];
  span.dur_ns = NowNs() - span.start_ns;
  if (io != nullptr) {
    span.traversal_reads = io->traversal_reads() - span.traversal_reads;
    span.window_reads = io->window_query_reads() - span.window_reads;
  } else {
    span.traversal_reads = 0;
    span.window_reads = 0;
  }
  if (span.parent != kNoSpan) {
    TraceSpan& parent = spans_[span.parent];
    parent.child_traversal_reads += span.traversal_reads;
    parent.child_window_reads += span.window_reads;
  }
}

void QueryTrace::set_label(std::string label) {
  if (!enabled_) return;
  label_ = std::move(label);
}

QueryTrace& NullTrace() {
  // Disabled mutators never write, so one shared instance is safe for any
  // number of concurrent queries.
  static QueryTrace null_trace;
  return null_trace;
}

}  // namespace nwc
