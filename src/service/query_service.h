#ifndef NWC_SERVICE_QUERY_SERVICE_H_
#define NWC_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/io_stats.h"
#include "common/status.h"
#include "core/nwc_types.h"
#include "grid/density_grid.h"
#include "obs/query_trace.h"
#include "obs/trace_ring.h"
#include "rtree/iwp_index.h"
#include "rtree/rstar_tree.h"
#include "service/query_backend.h"
#include "service/result_cache.h"
#include "service/service_metrics.h"
#include "service/session.h"
#include "service/snapshot.h"
#include "service/thread_pool.h"
#include "storage/fault_injector.h"

namespace nwc {

/// Sizing and defaults for a QueryService.
struct ServiceConfig {
  size_t num_threads = 4;      ///< worker threads sharing the session
  size_t queue_capacity = 256; ///< bounded job queue (backpressure point)
  /// Options applied when a request carries no override.
  NwcOptions default_options = NwcOptions::Star();

  /// Master switch for per-query tracing. When true, every worker records
  /// its query into a QueryTrace (per-query recorder, never shared), and
  /// queries whose wall latency reaches slow_trace_us are retained in the
  /// service's bounded trace ring for post-hoc inspection. When false (the
  /// default), engines run against the null recorder — one branch per
  /// record site, nothing else.
  bool trace_slow_queries = false;
  /// Latency threshold (microseconds) for retaining a trace; 0 retains
  /// every traced query (useful for short diagnostic runs).
  uint64_t slow_trace_us = 0;
  /// Capacity of the slow-trace ring (oldest evicted first).
  size_t trace_ring_capacity = 32;

  /// Deadline applied to requests that carry none, measured from *submit*
  /// time so queue wait counts against it; 0 means no default deadline.
  uint64_t default_deadline_micros = 0;
  /// Load shedding: submits observing a queue at or past this depth fail
  /// immediately with Unavailable instead of blocking; 0 disables
  /// shedding.
  size_t shed_queue_depth = 0;
  /// Deterministic fault-injection schedule (tests / resilience drills):
  /// each worker gets a private FaultInjector running this plan (Bernoulli
  /// seeds are decorrelated per worker by adding the worker index). An
  /// injected fault fails the query it hits with IoError. The default
  /// (kNone) leaves the read path untouched.
  FaultPlan fault_plan = FaultPlan::None();

  /// Byte budget of the sharded result cache serving exact repeat queries;
  /// 0 (the default) runs uncached. Only OK responses are ever inserted.
  size_t result_cache_bytes = 0;

  Status Validate() const;
};

// NwcRequest / KnwcRequest / NwcResponse / KnwcResponse / UpdateResponse /
// AsyncTiming live in service/query_backend.h (re-exported here): they are
// the vocabulary of the QueryBackend interface this service implements.

/// Concurrent query execution over a SnapshotStore's published index
/// stacks.
///
/// Every query pins the currently-published snapshot (and its epoch) for
/// exactly its own execution, and ApplyUpdate() applies a MutationBatch
/// and publishes the next epoch while in-flight readers keep serving the
/// old one. A service built over a Session serves it through a store of
/// its own whose epoch 1 is that Session: until the first update (which
/// clones it) this costs nothing over reading the Session directly — the
/// paper's static setting is simply a store that is never updated.
///
/// The service owns a fixed ThreadPool; each worker runs queries against
/// the shared read-only index stack with strictly per-query mutable state
/// (IoCounter, engine locals), so execution is concurrency-correct by
/// construction.
///
/// Every single request takes one path, Submit<Response>: shed admission,
/// option resolution, deadline capture, the enqueue stamp, the pool
/// hand-off, then the dequeue and finish stamps around Execute. The stamped
/// Submit*AsyncTraced overrides forward to it; the future (SubmitNwc) and
/// plain callback (SubmitNwcAsync) submits are QueryBackend adapters over
/// those. Sheds and per-query latency/I/O are visible in SnapshotMetrics().
///
/// Shutdown (or destruction) drains accepted requests before returning,
/// so every accepted request's `done` runs (every future becomes ready).
///
/// ThreadSafety: the submits, ApplyUpdate and the metrics accessors may be
/// called from any thread. The Session / SnapshotStore must outlive the
/// service.
class QueryService : public QueryBackend {
 public:
  /// Serves `session` (not owned, must outlive the service, never mutated)
  /// through a SnapshotStore the service owns, and starts the workers.
  /// `config` must already be validated.
  QueryService(const Session& session, const ServiceConfig& config);

  /// Serves `store` (not owned, must outlive the service): each query
  /// acquires the store's current snapshot.
  QueryService(SnapshotStore& store, const ServiceConfig& config);

  ~QueryService() override;

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// The stamped submit (QueryBackend): shed admission and the enqueue
  /// are synchronous, so a request shed past the watermark or submitted to
  /// a shut-down service calls `done` inside this call with a typed
  /// Unavailable / FailedPrecondition status and three equal stamps.
  /// Otherwise `done` runs once on a worker thread.
  /// The stamps are three SteadyNowMicros() reads — deliberately NOT a
  /// full QueryTrace, whose per-span recording costs real throughput; deep
  /// span traces remain the slow-query machinery's job
  /// (trace_slow_queries arms every query). SubmitNwc/SubmitNwcAsync and
  /// their kNWC twins are QueryBackend adapters over these.
  void SubmitNwcAsyncTraced(NwcRequest request, StampedDone<NwcResponse> done) override;
  void SubmitKnwcAsyncTraced(KnwcRequest request, StampedDone<KnwcResponse> done) override;

  /// Applies `mutations` to the backing SnapshotStore and publishes the
  /// next epoch (synchronously — callers wanting async apply wrap it in
  /// their own executor; the serving layer applies inline in its event
  /// loop, which also serializes updates arriving on one connection).
  /// After this returns, no future query can observe a pre-publish cached
  /// answer: cache keys carry the data epoch. A batch that publishes
  /// nothing (empty, or only deletes that miss) keeps the epoch and so
  /// keeps every cached answer. Mutations already applied to the store
  /// but not yet published (SnapshotStore::Apply) are published by the
  /// same call.
  UpdateResponse ApplyUpdate(const MutationBatch& mutations) override;

  /// Cancels every request currently queued or executing: each observes
  /// the epoch bump at its next checkpoint and completes with a Cancelled
  /// response (queued requests cancel when a worker picks them up — no
  /// future is ever abandoned). Requests submitted *after* this call run
  /// normally.
  void CancelAll() { cancel_epoch_.fetch_add(1, std::memory_order_relaxed); }

  /// Aggregated per-query metrics since construction, with the
  /// result-cache counters/gauges overlaid from the cache itself.
  MetricsSnapshot SnapshotMetrics() const override;

  /// The result cache, or nullptr when result_cache_bytes == 0.
  const ResultCache* result_cache() const { return result_cache_.get(); }

  /// Copy of the raw latency histogram (bucket-level export; see
  /// obs/prometheus.h).
  LatencyHistogram SnapshotLatencyHistogram() const override { return metrics_.LatencySnapshot(); }

  /// Traces retained by the slow-query machinery, oldest first (empty when
  /// config().trace_slow_queries is false).
  std::vector<std::shared_ptr<const QueryTrace>> SlowTraces() const override {
    return slow_traces_ == nullptr
               ? std::vector<std::shared_ptr<const QueryTrace>>{}
               : slow_traces_->Snapshot();
  }

  /// Drains accepted requests and stops the workers. Idempotent; called
  /// by the destructor. Submits after shutdown fail with
  /// FailedPrecondition responses.
  void Shutdown();

  size_t num_workers() const { return pool_.num_threads(); }
  const ServiceConfig& config() const { return config_; }

 private:
  /// Deadline and cancel context captured at submit time, so queue wait
  /// counts against the deadline and CancelAll reaches queued requests.
  struct RequestTiming {
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    uint64_t epoch = 0;
  };

  /// The Session constructor's path: serves `*owned_store` and keeps it.
  QueryService(std::unique_ptr<SnapshotStore> owned_store, const ServiceConfig& config);

  /// Captures the request's absolute deadline (request override or service
  /// default) and the current cancel epoch.
  RequestTiming MakeTiming(uint64_t request_deadline_micros) const;

  /// Atomic shed admission for one pool job (one request). The
  /// admitted-job counter (jobs accepted but not yet picked up by a
  /// worker) is compared against the shed watermark and incremented in
  /// ONE compare-exchange, so concurrent submitters cannot all pass a
  /// stale check and overshoot the watermark — the race the old
  /// copy-pasted `QueueDepth() >= shed_queue_depth` checks had. On
  /// admission the post-increment depth is recorded as the queue-depth
  /// sample (the old code re-read QueueDepth() and added 1, double-counting
  /// racing submitters). On shed, records the shed and returns false.
  bool AdmitJob();

  /// Reverts AdmitJob's slot: called by the worker the moment it picks the
  /// job up, and by submit paths unwinding a job the pool refused. Every
  /// admitted job releases exactly once.
  void ReleaseJobSlot() { admitted_depth_.fetch_sub(1, std::memory_order_relaxed); }

  /// The one single-request submit path behind both query kinds (see the
  /// class comment); always delivers AsyncTiming.
  template <typename Response, typename Request>
  void Submit(Request request, StampedDone<Response> done);

  /// Runs one query on a worker: binds the per-worker fault injector (if
  /// any) to a fresh IoCounter, arms a QueryControl from `timing`, probes
  /// the result cache (deadline/cancel checked first, so an expired
  /// request is never served from cache), executes on a miss and fills the
  /// response fields common to both query kinds. The first stop (injected
  /// fault, cancel or deadline) ends the query with its typed status. Only
  /// OK responses populate the cache. `done` receives the finished response exactly once (promise
  /// fulfilment or the network layer's completion callback). Every query
  /// pins its own snapshot.
  template <typename Response, typename Query, typename Done>
  void Execute(size_t worker_index, const Query& query, const NwcOptions& options,
               const RequestTiming& timing, Done done);

  // The store queries acquire epochs from, and its owner when the service
  // was built over a Session (declared first: it outlives every worker).
  std::unique_ptr<SnapshotStore> owned_store_;
  SnapshotStore& store_;
  ServiceConfig config_;
  ServiceMetrics metrics_;
  // One fault injector per worker (empty when fault_plan is kNone),
  // indexed by the worker id ThreadPool hands to each job: an injector's
  // schedule state is never shared across threads.
  std::vector<std::unique_ptr<FaultInjector>> worker_injectors_;
  // Slow-query traces (null when tracing is off).
  std::unique_ptr<TraceRing> slow_traces_;
  // Sharded result cache (null when result_cache_bytes == 0). Shared by
  // all workers; ResultCache is internally synchronized.
  std::unique_ptr<ResultCache> result_cache_;
  // CancelAll's epoch cell: requests capture the value at submit and stop
  // once it moves on.
  std::atomic<uint64_t> cancel_epoch_{0};
  // Jobs admitted to the pool queue and not yet picked up by a worker —
  // the shed watermark's authoritative depth. Kept >= the instantaneous
  // queue length (a job leaves the queue before its worker releases the
  // slot), so admission against it is conservative: with shedding enabled,
  // blocking-submit traffic can never push the queue past the watermark.
  std::atomic<size_t> admitted_depth_{0};
  ThreadPool pool_;
};

}  // namespace nwc

#endif  // NWC_SERVICE_QUERY_SERVICE_H_
