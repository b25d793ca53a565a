#include "service/service_metrics.h"

#include "common/string_util.h"

namespace nwc {

std::string MetricsSnapshot::ToString() const {
  std::string out;
  out += StrFormat("queries:    %llu (%llu failed, %llu without result)\n",
                   static_cast<unsigned long long>(queries),
                   static_cast<unsigned long long>(failures),
                   static_cast<unsigned long long>(not_found));
  out += StrFormat("queue:      max depth %llu, slow queries %llu\n",
                   static_cast<unsigned long long>(max_queue_depth),
                   static_cast<unsigned long long>(slow_queries));
  out += StrFormat(
      "robustness: %llu cancelled, %llu deadline, %llu io errors, %llu shed, %llu retries\n",
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(io_errors), static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(retries));
  out += StrFormat("wall:       %.3f s (%.1f queries/sec)\n", wall_seconds, Qps());
  out += StrFormat("latency:    p50 %llu us, p95 %llu us, p99 %llu us (min %llu, mean %.1f, max %llu)\n",
                   static_cast<unsigned long long>(latency_p50_us),
                   static_cast<unsigned long long>(latency_p95_us),
                   static_cast<unsigned long long>(latency_p99_us),
                   static_cast<unsigned long long>(latency_min_us), latency_mean_us,
                   static_cast<unsigned long long>(latency_max_us));
  out += StrFormat("node reads: %llu (traversal %llu, window %llu)\n",
                   static_cast<unsigned long long>(total_reads()),
                   static_cast<unsigned long long>(traversal_reads),
                   static_cast<unsigned long long>(window_query_reads));
  out += StrFormat(
      "caching:    result cache %llu hits / %llu misses / %llu evictions "
      "(%llu entries, %llu bytes)\n",
      static_cast<unsigned long long>(result_cache_hits),
      static_cast<unsigned long long>(result_cache_misses),
      static_cast<unsigned long long>(result_cache_evictions),
      static_cast<unsigned long long>(result_cache_entries),
      static_cast<unsigned long long>(result_cache_bytes));
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  out += StrFormat("\"queries\":%llu,\"failures\":%llu,\"not_found\":%llu,",
                   static_cast<unsigned long long>(queries),
                   static_cast<unsigned long long>(failures),
                   static_cast<unsigned long long>(not_found));
  out += StrFormat("\"slow_queries\":%llu,\"max_queue_depth\":%llu,",
                   static_cast<unsigned long long>(slow_queries),
                   static_cast<unsigned long long>(max_queue_depth));
  out += StrFormat(
      "\"cancelled\":%llu,\"deadline_exceeded\":%llu,\"io_errors\":%llu,"
      "\"shed\":%llu,\"retries\":%llu,",
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(io_errors), static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(retries));
  out += StrFormat("\"wall_seconds\":%.6f,\"qps\":%.3f,", wall_seconds, Qps());
  out += StrFormat(
      "\"latency_us\":{\"p50\":%llu,\"p95\":%llu,\"p99\":%llu,"
      "\"min\":%llu,\"mean\":%.3f,\"max\":%llu},",
      static_cast<unsigned long long>(latency_p50_us),
      static_cast<unsigned long long>(latency_p95_us),
      static_cast<unsigned long long>(latency_p99_us),
      static_cast<unsigned long long>(latency_min_us), latency_mean_us,
      static_cast<unsigned long long>(latency_max_us));
  out += StrFormat("\"node_reads\":{\"total\":%llu,\"traversal\":%llu,\"window\":%llu},",
                   static_cast<unsigned long long>(total_reads()),
                   static_cast<unsigned long long>(traversal_reads),
                   static_cast<unsigned long long>(window_query_reads));
  out += StrFormat(
      "\"result_cache\":{\"hits\":%llu,\"misses\":%llu,\"evictions\":%llu,"
      "\"entries\":%llu,\"bytes\":%llu}}",
      static_cast<unsigned long long>(result_cache_hits),
      static_cast<unsigned long long>(result_cache_misses),
      static_cast<unsigned long long>(result_cache_evictions),
      static_cast<unsigned long long>(result_cache_entries),
      static_cast<unsigned long long>(result_cache_bytes));
  return out;
}

void ServiceMetrics::RecordQuery(uint64_t latency_micros, const IoCounter& io, StatusCode code,
                                 bool found) {
  std::lock_guard<std::mutex> lock(mu_);
  latency_.Record(latency_micros);
  io_.Add(io);
  ++queries_;
  if (code != StatusCode::kOk) {
    ++failures_;
    switch (code) {
      case StatusCode::kCancelled:
        ++cancelled_;
        break;
      case StatusCode::kDeadlineExceeded:
        ++deadline_exceeded_;
        break;
      case StatusCode::kIoError:
        ++io_errors_;
        break;
      default:
        break;
    }
  } else if (!found) {
    ++not_found_;
  }
}

void ServiceMetrics::RecordShed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++shed_;
}

void ServiceMetrics::RecordRetry() {
  std::lock_guard<std::mutex> lock(mu_);
  ++retries_;
}

void ServiceMetrics::RecordQueueDepth(size_t depth) {
  std::lock_guard<std::mutex> lock(mu_);
  if (depth > max_queue_depth_) max_queue_depth_ = depth;
}

void ServiceMetrics::RecordSlowQuery() {
  std::lock_guard<std::mutex> lock(mu_);
  ++slow_queries_;
}

MetricsSnapshot ServiceMetrics::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.queries = queries_;
  snapshot.failures = failures_;
  snapshot.not_found = not_found_;
  snapshot.slow_queries = slow_queries_;
  snapshot.cancelled = cancelled_;
  snapshot.deadline_exceeded = deadline_exceeded_;
  snapshot.io_errors = io_errors_;
  snapshot.shed = shed_;
  snapshot.retries = retries_;
  snapshot.max_queue_depth = max_queue_depth_;
  snapshot.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  snapshot.latency_p50_us = latency_.Quantile(0.50);
  snapshot.latency_p95_us = latency_.Quantile(0.95);
  snapshot.latency_p99_us = latency_.Quantile(0.99);
  snapshot.latency_min_us = latency_.min();
  snapshot.latency_max_us = latency_.max();
  snapshot.latency_mean_us = latency_.Mean();
  snapshot.traversal_reads = io_.traversal_reads();
  snapshot.window_query_reads = io_.window_query_reads();
  // result_cache_* stay zero here; QueryService::SnapshotMetrics overlays
  // them from the ResultCache (the cache is its own source of truth).
  return snapshot;
}

LatencyHistogram ServiceMetrics::LatencySnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latency_;
}

void ServiceMetrics::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  latency_.Reset();
  io_.Reset();
  queries_ = 0;
  failures_ = 0;
  not_found_ = 0;
  slow_queries_ = 0;
  cancelled_ = 0;
  deadline_exceeded_ = 0;
  io_errors_ = 0;
  shed_ = 0;
  retries_ = 0;
  max_queue_depth_ = 0;
  epoch_ = std::chrono::steady_clock::now();
}

}  // namespace nwc
