#include "obs/prometheus.h"

#include "common/string_util.h"

namespace nwc {

namespace {

void Counter(std::string& out, const char* name, const char* help, uint64_t value) {
  out += StrFormat("# HELP %s %s\n# TYPE %s counter\n%s %llu\n", name, help, name, name,
                   static_cast<unsigned long long>(value));
}

void Gauge(std::string& out, const char* name, const char* help, double value) {
  out += StrFormat("# HELP %s %s\n# TYPE %s gauge\n%s %.6g\n", name, help, name, name, value);
}

void Histogram(std::string& out, const char* name, const char* help,
               const LatencyHistogram& hist) {
  out += StrFormat("# HELP %s %s\n# TYPE %s histogram\n", name, help, name);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < hist.num_buckets(); ++i) {
    const LatencyHistogram::Bucket bucket = hist.bucket(i);
    if (bucket.count == 0) continue;  // elide empty buckets; counts stay cumulative
    cumulative += bucket.count;
    out += StrFormat("%s_bucket{le=\"%llu\"} %llu\n", name,
                     static_cast<unsigned long long>(bucket.upper_bound),
                     static_cast<unsigned long long>(cumulative));
  }
  out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", name,
                   static_cast<unsigned long long>(hist.count()));
  out += StrFormat("%s_sum %llu\n", name, static_cast<unsigned long long>(hist.sum()));
  out += StrFormat("%s_count %llu\n", name, static_cast<unsigned long long>(hist.count()));
}

}  // namespace

std::string PromEscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot, const LatencyHistogram& latency) {
  std::string out;
  Counter(out, "nwc_queries_total", "Completed queries (ok or failed).", snapshot.queries);
  Counter(out, "nwc_query_failures_total", "Queries that returned a non-OK status.",
          snapshot.failures);
  Counter(out, "nwc_query_not_found_total", "OK queries without a qualified window.",
          snapshot.not_found);
  Counter(out, "nwc_slow_queries_total", "Queries at or over the slow-trace threshold.",
          snapshot.slow_queries);
  Counter(out, "nwc_query_cancelled_total", "Queries stopped by cancellation.",
          snapshot.cancelled);
  Counter(out, "nwc_query_deadline_exceeded_total", "Queries stopped by their deadline.",
          snapshot.deadline_exceeded);
  Counter(out, "nwc_query_io_errors_total", "Queries failed by (injected) I/O faults.",
          snapshot.io_errors);
  Counter(out, "nwc_load_shed_total", "Requests shed at submit past the queue watermark.",
          snapshot.shed);
  out +=
      "# HELP nwc_node_reads_total R*-tree node reads by query phase.\n"
      "# TYPE nwc_node_reads_total counter\n";
  // The phase names are constants today, but routing them through the
  // escaper keeps the exposition well-formed if they ever stop being so.
  out += StrFormat("nwc_node_reads_total{phase=\"%s\"} %llu\n",
                   PromEscapeLabelValue("traversal").c_str(),
                   static_cast<unsigned long long>(snapshot.traversal_reads));
  out += StrFormat("nwc_node_reads_total{phase=\"%s\"} %llu\n",
                   PromEscapeLabelValue("window_query").c_str(),
                   static_cast<unsigned long long>(snapshot.window_query_reads));
  Counter(out, "nwc_result_cache_hits_total", "Queries answered from the result cache.",
          snapshot.result_cache_hits);
  Counter(out, "nwc_result_cache_misses_total", "Result-cache probes that missed.",
          snapshot.result_cache_misses);
  Counter(out, "nwc_result_cache_evictions_total",
          "Result-cache entries evicted under byte pressure.", snapshot.result_cache_evictions);
  Gauge(out, "nwc_result_cache_entries", "Results currently held by the result cache.",
        static_cast<double>(snapshot.result_cache_entries));
  Gauge(out, "nwc_result_cache_bytes", "Approximate bytes held by the result cache.",
        static_cast<double>(snapshot.result_cache_bytes));
  Gauge(out, "nwc_max_queue_depth", "Queue-depth high-water mark (submit and dequeue sampled).",
        static_cast<double>(snapshot.max_queue_depth));
  Gauge(out, "nwc_wall_seconds", "Wall-clock seconds covered by the snapshot.",
        snapshot.wall_seconds);
  Gauge(out, "nwc_queries_per_second", "Wall-clock throughput over the snapshot window.",
        snapshot.Qps());

  Histogram(out, "nwc_query_latency_microseconds", "Per-query wall latency.", latency);
  return out;
}

void AppendNetMetricsText(const NetMetricsSnapshot& snapshot, std::string* out) {
  std::string& text = *out;
  Counter(text, "nwc_net_connections_accepted_total", "TCP connections accepted.",
          snapshot.connections_accepted);
  Counter(text, "nwc_net_connections_closed_total", "TCP connections closed (any reason).",
          snapshot.connections_closed);
  Counter(text, "nwc_net_connections_reaped_total",
          "Connections torn down by the deferred reaper.", snapshot.connections_reaped);
  Counter(text, "nwc_net_bytes_read_total", "Bytes read off client sockets.",
          snapshot.bytes_read);
  Counter(text, "nwc_net_bytes_written_total", "Bytes written to client sockets.",
          snapshot.bytes_written);
  Counter(text, "nwc_net_frames_received_total", "Binary request frames decoded.",
          snapshot.frames_received);
  Counter(text, "nwc_net_frames_sent_total", "Binary response frames written.",
          snapshot.frames_sent);
  Counter(text, "nwc_net_frames_traced_total", "Received frames carrying the trace bit.",
          snapshot.frames_traced);
  Counter(text, "nwc_net_http_requests_total", "HTTP requests served by the admin surface.",
          snapshot.http_requests);
  text +=
      "# HELP nwc_net_protocol_errors_total Undecodable inputs by kind.\n"
      "# TYPE nwc_net_protocol_errors_total counter\n";
  for (size_t i = 0; i < kNetErrorKindCount; ++i) {
    text += StrFormat("nwc_net_protocol_errors_total{kind=\"%s\"} %llu\n",
                      PromEscapeLabelValue(NetErrorKindName(static_cast<NetErrorKind>(i))).c_str(),
                      static_cast<unsigned long long>(snapshot.protocol_errors[i]));
  }
  Counter(text, "nwc_net_backpressure_pauses_total",
          "Reads paused at the write-buffer high watermark.", snapshot.backpressure_pauses);
  Counter(text, "nwc_net_backpressure_paused_microseconds_total",
          "Total time connections spent read-paused.", snapshot.backpressure_paused_micros);
  Counter(text, "nwc_net_eventfd_wakeups_total",
          "Event-loop wakeups via the completion eventfd.", snapshot.eventfd_wakeups);
  Gauge(text, "nwc_net_write_queue_high_water_bytes",
        "Largest pending write buffer seen on any connection.",
        static_cast<double>(snapshot.write_queue_high_water));
  Histogram(text, "nwc_net_socket_wait_microseconds",
            "Time between a frame's delivering read() and its decode.", snapshot.socket_wait);
}

}  // namespace nwc
