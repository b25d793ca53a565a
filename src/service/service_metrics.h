#ifndef NWC_SERVICE_SERVICE_METRICS_H_
#define NWC_SERVICE_SERVICE_METRICS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/io_stats.h"
#include "common/status.h"
#include "service/latency_histogram.h"

namespace nwc {

/// Point-in-time copy of a ServiceMetrics, safe to read without locks.
struct MetricsSnapshot {
  uint64_t queries = 0;       ///< completed queries (ok or failed)
  uint64_t failures = 0;      ///< queries that returned a non-OK status
  uint64_t not_found = 0;     ///< OK queries with no qualified window / 0 groups
  uint64_t slow_queries = 0;  ///< queries at/over the slow-trace threshold
  /// Failure breakdown by cause (each failed query increments exactly one
  /// of these, or none for other codes; cancelled + deadline_exceeded +
  /// io_errors <= failures always holds).
  uint64_t cancelled = 0;          ///< queries stopped by CancelAll
  uint64_t deadline_exceeded = 0;  ///< queries stopped by their deadline
  uint64_t io_errors = 0;          ///< queries failed by (injected) I/O faults
  /// Queries shed at submit time because the queue was past the
  /// shed watermark (these never ran).
  uint64_t shed = 0;
  /// Transient-fault retry attempts (each retried execution adds one; the
  /// query itself still counts once in `queries`).
  uint64_t retries = 0;
  /// High-water mark, observed both when a request enters the queue and
  /// when a worker dequeues it (so bursts that arrive while every submit
  /// blocks still register).
  uint64_t max_queue_depth = 0;

  /// Wall-clock seconds covered by this snapshot (since construction or
  /// the last Reset).
  double wall_seconds = 0.0;

  uint64_t latency_p50_us = 0;
  uint64_t latency_p95_us = 0;
  uint64_t latency_p99_us = 0;
  uint64_t latency_min_us = 0;
  uint64_t latency_max_us = 0;
  double latency_mean_us = 0.0;

  /// Per-phase I/O totals merged from every completed query's IoCounter.
  uint64_t traversal_reads = 0;
  uint64_t window_query_reads = 0;

  /// Result-cache roll-up (all zero when the service runs uncached).
  /// hits/misses/evictions are monotonic counters; entries/bytes are
  /// point-in-time gauges.
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t result_cache_evictions = 0;
  uint64_t result_cache_entries = 0;
  uint64_t result_cache_bytes = 0;

  uint64_t total_reads() const { return traversal_reads + window_query_reads; }

  /// Queries that completed with an OK status.
  uint64_t ok() const { return queries - failures; }

  /// Wall-clock throughput over the snapshot window. Guarded: a snapshot
  /// taken with no elapsed time (hand-built, or taken immediately after
  /// Reset on a coarse clock) reports 0 instead of inf, and a non-finite
  /// or negative wall_seconds also yields 0 rather than NaN — the ordered
  /// comparison is false for NaN, so every emitter (ToString, ToJson,
  /// Prometheus) prints a plain 0.
  double Qps() const {
    return wall_seconds > 0.0 ? static_cast<double>(queries) / wall_seconds : 0.0;
  }

  /// Multi-line human-readable report (the serve-batch output).
  std::string ToString() const;

  /// One-object JSON rendering of every field plus the derived QPS — the
  /// machine-readable counterpart of ToString() (serve-batch
  /// --metrics-json).
  std::string ToJson() const;
};

/// Aggregated observability for a QueryService: a latency histogram with
/// p50/p95/p99, per-phase I/O roll-ups merged from the per-query
/// IoCounters, queue-depth high-water mark, and rejection counts.
///
/// ThreadSafety: all members are safe to call concurrently; state is
/// guarded by one mutex. Workers touch it once per completed query, so
/// contention is negligible next to query cost.
class ServiceMetrics {
 public:
  ServiceMetrics() = default;

  /// Records one completed query: its wall latency, its per-query I/O
  /// counter (merged into the roll-up), and its outcome. `code` is the
  /// final status code (after any retries); kCancelled /
  /// kDeadlineExceeded / kIoError additionally bump the per-cause
  /// breakdown. `found` is whether a result was produced (ignored for
  /// non-OK codes).
  void RecordQuery(uint64_t latency_micros, const IoCounter& io, StatusCode code, bool found);

  /// Records one request shed at submit time (queue past the watermark).
  void RecordShed();

  /// Records one transient-fault retry attempt.
  void RecordRetry();

  /// Records an observed queue depth; keeps the high-water mark. Called at
  /// submit time *and* at dequeue time: sampling only at submit
  /// under-reports bursts, because the submitters that would observe the
  /// peak are exactly the ones blocked on the full queue.
  void RecordQueueDepth(size_t depth);

  /// Records one query retained by the slow-trace machinery.
  void RecordSlowQuery();

  /// Consistent point-in-time copy of everything above.
  MetricsSnapshot Snapshot() const;

  /// Copy of the raw latency histogram (for bucket-level exporters).
  LatencyHistogram LatencySnapshot() const;

  /// Zeroes every counter and the histogram; restarts the wall clock.
  void Reset();

 private:
  mutable std::mutex mu_;
  LatencyHistogram latency_;
  IoCounter io_;
  uint64_t queries_ = 0;
  uint64_t failures_ = 0;
  uint64_t not_found_ = 0;
  uint64_t slow_queries_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t deadline_exceeded_ = 0;
  uint64_t io_errors_ = 0;
  uint64_t shed_ = 0;
  uint64_t retries_ = 0;
  uint64_t max_queue_depth_ = 0;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

}  // namespace nwc

#endif  // NWC_SERVICE_SERVICE_METRICS_H_
