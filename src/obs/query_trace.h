#ifndef NWC_OBS_QUERY_TRACE_H_
#define NWC_OBS_QUERY_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/io_stats.h"

namespace nwc {

/// What a trace span measures. The kinds mirror the phases of the NWC
/// search (Algorithm 1) and its optimizations (Sec. 3.3), so a trace of one
/// query decomposes its cost exactly the way the paper's evaluation does:
/// traversal vs. per-object window queries, with each pruning technique's
/// checks visible as (cheap) child spans.
enum class SpanKind : uint8_t {
  kQuery = 0,      ///< whole engine execution (root span)
  kBrowseNode,     ///< one node expansion of the best-first traversal
  kCandidate,      ///< one data object popped (window generation, Sec. 3.2)
  kSrrCheck,       ///< SRR search-region reduction test (Sec. 3.3.1)
  kDipCheck,       ///< DIP node pruning test (Sec. 3.3.2)
  kDepCheck,       ///< DEP density test, node or search region (Sec. 3.3.3)
  kWindowQuery,    ///< root-based window query for SR'_p
  kIwpProbe,       ///< IWP start-node resolution + window query (Algorithm 3)
  kOverlapFilter,  ///< kNWC group-list maintenance, Steps 2-5 (Sec. 3.4)
  kAbort,          ///< search stopped early (deadline/cancel/fault); detail
                   ///< carries the StatusCode that stopped it
};

/// Stable display name ("query", "browse_node", ...), used by exporters.
const char* SpanKindName(SpanKind kind);

/// Structured per-query counters recorded next to the span tree. These are
/// the "how often" companions to the spans' "how long / how much I/O":
/// candidates generated, candidates/nodes pruned per technique, windows
/// evaluated, and kNWC maintenance outcomes.
enum class TraceCounter : uint8_t {
  kObjectsBrowsed = 0,    ///< data objects popped from the traversal heap
  kNodesExpanded,         ///< index/leaf nodes expanded (paid a read)
  kPrunedSrr,             ///< objects skipped entirely by SRR
  kPrunedDip,             ///< nodes pruned by DIP
  kPrunedDepNode,         ///< nodes pruned by DEP's extended-MBR test
  kPrunedDepWindow,       ///< window queries cancelled by DEP (Algorithm 2)
  kWindowQueries,         ///< window queries actually issued
  kWindowsEvaluated,      ///< candidate windows scanned for a group
  kGroupsOffered,         ///< qualified groups offered to the sink
  kGroupsDroppedOverlap,  ///< kNWC groups rejected/evicted by the m-overlap rule
  kFaultsInjected,        ///< injected I/O faults observed by this query
  kAborted,               ///< 1 when the search stopped before completion
  kResultCacheHits,       ///< 1 when the whole query was a result-cache hit
};
inline constexpr size_t kTraceCounterCount = 13;

/// Stable snake_case name ("objects_browsed", ...), used by exporters.
const char* TraceCounterName(TraceCounter counter);

/// Index of a span within QueryTrace::spans().
using SpanId = uint32_t;

/// Returned by Begin() when the trace is disabled; End/SetDetail ignore it.
inline constexpr SpanId kNoSpan = 0xFFFFFFFFu;

/// One recorded span: a kind, its position in the hierarchy, monotonic
/// start/duration, and the per-phase node reads that happened while it was
/// open (inclusive of child spans; self_*() subtracts the children).
struct TraceSpan {
  SpanKind kind = SpanKind::kQuery;
  SpanId parent = kNoSpan;  ///< kNoSpan for the root span
  uint64_t start_ns = 0;    ///< monotonic, relative to the trace epoch
  uint64_t dur_ns = 0;
  /// IoCounter deltas between Begin and End, including child spans.
  uint64_t traversal_reads = 0;
  uint64_t window_reads = 0;
  /// Sums over *direct* children (filled as children end).
  uint64_t child_traversal_reads = 0;
  uint64_t child_window_reads = 0;
  /// Kind-specific payload: node id for kBrowseNode, object id for
  /// kCandidate, hit count for window queries, -1 when unset.
  int64_t detail = -1;

  /// Reads attributed to this span alone (total minus direct children).
  uint64_t self_traversal_reads() const { return traversal_reads - child_traversal_reads; }
  uint64_t self_window_reads() const { return window_reads - child_window_reads; }
  uint64_t self_reads() const { return self_traversal_reads() + self_window_reads(); }
};

/// Low-overhead per-query trace recorder.
///
/// A default-constructed QueryTrace is the *null object*: every mutator
/// tests one flag and returns, so threading a disabled recorder through the
/// engines costs a single predictable branch per call site — the hot path
/// pays nothing else. QueryTrace::Enabled() arms the recorder: spans get
/// monotonic timestamps (std::chrono::steady_clock) and snapshot the
/// query's IoCounter at Begin/End so each span knows the node reads it
/// covers, per phase.
///
/// Spans are strictly nested (Begin/End is LIFO, like call frames); the
/// recorder maintains the open-span stack itself, so deep call sites — the
/// kNWC sink, the IWP probe — parent correctly without plumbing span ids.
///
/// ThreadSafety: NOT thread-safe; one recorder per in-flight query, exactly
/// like IoCounter. The shared NullTrace() instance is safe to use from any
/// number of threads because disabled mutators never write.
class QueryTrace {
 public:
  /// Disabled recorder (records nothing, allocates nothing).
  QueryTrace() = default;

  /// An armed recorder whose epoch is "now".
  static QueryTrace Enabled();

  /// An armed recorder reading time from `clock_ns` (nanoseconds since the
  /// trace epoch) — deterministic timestamps for golden tests.
  static QueryTrace EnabledWithClock(std::function<uint64_t()> clock_ns);

  QueryTrace(QueryTrace&&) = default;
  QueryTrace& operator=(QueryTrace&&) = default;
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  bool enabled() const { return enabled_; }

  // The record calls below test enabled_ inline, so a disabled recorder
  // costs one branch at the call site and no call; the armed bodies of
  // Begin and End live in query_trace.cc.

  /// Opens a span as a child of the innermost open span. `io` (nullable)
  /// is snapshotted so the span can report the reads it covers.
  SpanId Begin(SpanKind kind, const IoCounter* io, int64_t detail = -1) {
    return enabled_ ? BeginArmed(kind, io, detail) : kNoSpan;
  }

  /// Closes the innermost open span, which must be `id` (LIFO).
  void End(SpanId id, const IoCounter* io) {
    if (enabled_ && id != kNoSpan) EndArmed(id, io);
  }

  /// Sets the kind-specific payload of an open or closed span.
  void SetDetail(SpanId id, int64_t detail) {
    if (enabled_ && id != kNoSpan) spans_[id].detail = detail;
  }

  /// Bumps a structured counter.
  void Count(TraceCounter counter, uint64_t delta = 1) {
    if (enabled_) counters_[static_cast<size_t>(counter)] += delta;
  }

  /// Observes the traversal heap size; keeps the high-water mark.
  void NoteHeapSize(size_t size) {
    if (enabled_ && size > heap_high_water_) heap_high_water_ = size;
  }

  /// Free-form query description carried into the exporters.
  void set_label(std::string label);
  const std::string& label() const { return label_; }

  const std::vector<TraceSpan>& spans() const { return spans_; }
  uint64_t counter(TraceCounter counter) const {
    return counters_[static_cast<size_t>(counter)];
  }
  uint64_t heap_high_water() const { return heap_high_water_; }

  /// True when every Begin has been matched by an End.
  bool complete() const { return open_.empty(); }

 private:
  SpanId BeginArmed(SpanKind kind, const IoCounter* io, int64_t detail);
  void EndArmed(SpanId id, const IoCounter* io);
  uint64_t NowNs() const;

  bool enabled_ = false;
  std::function<uint64_t()> clock_ns_;  // test clock; empty -> steady_clock
  std::chrono::steady_clock::time_point epoch_{};
  std::vector<TraceSpan> spans_;
  std::vector<SpanId> open_;  // stack of open span ids
  std::array<uint64_t, kTraceCounterCount> counters_{};
  uint64_t heap_high_water_ = 0;
  std::string label_;
};

/// The shared disabled recorder. Code that receives a nullable QueryTrace*
/// rebinds it to this null object once (`QueryTrace& t = trace ? *trace :
/// NullTrace();`) so every subsequent record call is a plain call on a
/// disabled instance — one branch, no pointer tests sprinkled around.
QueryTrace& NullTrace();

/// RAII Begin/End pair for spans that close on every exit path.
class TraceSpanScope {
 public:
  TraceSpanScope(QueryTrace& trace, SpanKind kind, const IoCounter* io, int64_t detail = -1)
      : trace_(trace), io_(io), id_(trace.Begin(kind, io, detail)) {}
  ~TraceSpanScope() { trace_.End(id_, io_); }

  TraceSpanScope(const TraceSpanScope&) = delete;
  TraceSpanScope& operator=(const TraceSpanScope&) = delete;

  SpanId id() const { return id_; }

 private:
  QueryTrace& trace_;
  const IoCounter* io_;
  SpanId id_;
};

}  // namespace nwc

#endif  // NWC_OBS_QUERY_TRACE_H_
