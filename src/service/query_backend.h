#ifndef NWC_SERVICE_QUERY_BACKEND_H_
#define NWC_SERVICE_QUERY_BACKEND_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/nwc_types.h"
#include "obs/query_trace.h"
#include "service/latency_histogram.h"
#include "service/service_metrics.h"
#include "service/snapshot.h"

namespace nwc {

/// One request: the query plus an optional per-request option override
/// (scheme + measure); absent means the service default.
/// `deadline_micros` bounds the request's total time from submit (queue
/// wait included); 0 applies the service's default_deadline_micros.
template <typename Query>
struct QueryRequest {
  Query query;
  std::optional<NwcOptions> options;
  uint64_t deadline_micros = 0;
};
using NwcRequest = QueryRequest<NwcQuery>;
using KnwcRequest = QueryRequest<KnwcQuery>;

/// Outcome of one request. `result` is meaningful only when status.ok();
/// the read counters are the query's private IoCounter (also merged into
/// the service metrics), `latency_micros` the wall time inside the worker.
template <typename Result>
struct QueryResponse {
  Status status;
  Result result;
  uint64_t latency_micros = 0;
  uint64_t traversal_reads = 0;
  uint64_t window_query_reads = 0;
  /// True when the response was served from the result cache (all read
  /// counters are then 0 — a hit performs no tree I/O).
  bool result_cache_hit = false;
};
using NwcResponse = QueryResponse<NwcResult>;
using KnwcResponse = QueryResponse<KnwcResult>;

/// Whether `response` carries an answer: a qualified NWC window, or at
/// least one kNWC group (what the metrics' `not_found` counts the absence
/// of, among OK responses).
inline bool HasAnswer(const NwcResponse& response) { return response.result.found; }
inline bool HasAnswer(const KnwcResponse& response) { return !response.result.groups.empty(); }

/// Outcome of one ApplyUpdate call. `epoch` is the epoch the mutations
/// were published under (for a router, the max over the shards it
/// touched). A NotFound status reports delete misses — the other mutations
/// in the batch were still applied and published. An InvalidArgument
/// status reports a batch CheckMutationBatch rejected: nothing of it was
/// applied and no epoch was published.
struct UpdateResponse {
  Status status;
  uint64_t epoch = 0;
  uint64_t applied_inserts = 0;
  uint64_t applied_deletes = 0;
  uint64_t delete_misses = 0;
  uint64_t latency_micros = 0;
};

/// Worker-side timestamps for one request on the stamped submit path:
/// absolute microseconds on the steady clock (SteadyNowMicros()), so a
/// caller on the same host subtracts them from its own marks directly. On
/// the synchronous failure paths (shed, shutdown) all three carry the same
/// instant — the request never reached the queue.
struct AsyncTiming {
  uint64_t enqueue_us = 0;  ///< accepted into the pool queue
  uint64_t dequeue_us = 0;  ///< a worker picked the job up
  uint64_t finish_us = 0;   ///< response populated, handed to `done`
};

/// Completion callback of the stamped submit path: the response plus the
/// request's worker-side timestamps.
template <typename Response>
using StampedDone = std::function<void(Response, const AsyncTiming&)>;

/// What the serving layer needs from a query execution engine — the
/// interface NetServer is written against, implemented by the single-tree
/// QueryService and by the spatially sharded ShardRouter. Each backend
/// implements exactly one submit path per query kind, the stamped
/// Submit*AsyncTraced; the untraced callback and future submits are
/// non-virtual adapters over it that drop the stamps. The metrics
/// accessors feed the /metrics, /varz and /debug/slow admin endpoints.
///
/// ThreadSafety: every member may be called from any thread; `done`
/// callbacks must tolerate any calling context.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  /// The stamped submit: `done` is invoked exactly once with the response
  /// and its AsyncTiming — possibly synchronously inside this call when
  /// the request is rejected up front (typed response statuses, never
  /// exceptions), otherwise on an executor thread. Blocks the caller while
  /// the backend's queue is full.
  virtual void SubmitNwcAsyncTraced(NwcRequest request, StampedDone<NwcResponse> done) = 0;
  virtual void SubmitKnwcAsyncTraced(KnwcRequest request, StampedDone<KnwcResponse> done) = 0;

  /// Adapters over the stamped submit that drop the stamps.
  void SubmitNwcAsync(NwcRequest request, std::function<void(NwcResponse)> done) {
    SubmitNwcAsyncTraced(std::move(request), DropStamps(std::move(done)));
  }
  void SubmitKnwcAsync(KnwcRequest request, std::function<void(KnwcResponse)> done) {
    SubmitKnwcAsyncTraced(std::move(request), DropStamps(std::move(done)));
  }

  /// Future adapters: the future is always valid, and a backend-level
  /// failure (shutdown, shed) surfaces as a non-OK response status.
  std::future<NwcResponse> SubmitNwc(NwcRequest request) {
    auto promise = std::make_shared<std::promise<NwcResponse>>();
    SubmitNwcAsyncTraced(std::move(request), FulfillPromise(promise));
    return promise->get_future();
  }
  std::future<KnwcResponse> SubmitKnwc(KnwcRequest request) {
    auto promise = std::make_shared<std::promise<KnwcResponse>>();
    SubmitKnwcAsyncTraced(std::move(request), FulfillPromise(promise));
    return promise->get_future();
  }

  /// Applies a mutation batch and publishes the next epoch (synchronous).
  /// Every backend accepts updates; a NotFound status reports delete
  /// misses, an InvalidArgument one a rejected batch (see UpdateResponse).
  virtual UpdateResponse ApplyUpdate(const MutationBatch& mutations) = 0;

  /// Aggregated service metrics (a sharded backend sums its shards).
  virtual MetricsSnapshot SnapshotMetrics() const = 0;

  /// The raw latency histogram backing the snapshot's quantiles (a sharded
  /// backend merges its shards bucket-wise).
  virtual LatencyHistogram SnapshotLatencyHistogram() const = 0;

  /// Traces retained by the slow-query machinery, oldest first.
  virtual std::vector<std::shared_ptr<const QueryTrace>> SlowTraces() const = 0;

  /// Hook for backend-specific Prometheus series, appended after the
  /// aggregate families the serving layer renders from SnapshotMetrics()/
  /// SnapshotLatencyHistogram() (the exposition renderer lives above this
  /// library in the dependency graph, so the base text is composed there).
  /// Sharded backends override to emit per-shard series carrying a
  /// `shard` label; the default appends nothing.
  virtual void AppendPrometheusText(std::string* out) const { (void)out; }

 private:
  template <typename Response>
  static StampedDone<Response> DropStamps(std::function<void(Response)> done) {
    return [done = std::move(done)](Response response, const AsyncTiming&) {
      done(std::move(response));
    };
  }

  template <typename Response>
  static StampedDone<Response> FulfillPromise(std::shared_ptr<std::promise<Response>> promise) {
    return [promise = std::move(promise)](Response response, const AsyncTiming&) {
      promise->set_value(std::move(response));
    };
  }
};

}  // namespace nwc

#endif  // NWC_SERVICE_QUERY_BACKEND_H_
