#include "service/query_service.h"

#include <chrono>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/knwc_engine.h"
#include "core/nwc_engine.h"

namespace nwc {

Status ServiceConfig::Validate() const {
  if (num_threads == 0) return Status::InvalidArgument("num_threads must be >= 1");
  if (queue_capacity == 0) return Status::InvalidArgument("queue_capacity must be >= 1");
  if (trace_slow_queries && trace_ring_capacity == 0) {
    return Status::InvalidArgument("trace_ring_capacity must be >= 1 when tracing is enabled");
  }
  if (shed_queue_depth > queue_capacity) {
    return Status::InvalidArgument("shed_queue_depth cannot exceed queue_capacity");
  }
  const Status plan_ok = fault_plan.Validate();
  if (!plan_ok.ok()) return plan_ok;
  return Status::Ok();
}

QueryService::QueryService(const Session& session, const ServiceConfig& config)
    : QueryService(std::make_unique<SnapshotStore>(session), config) {}

QueryService::QueryService(std::unique_ptr<SnapshotStore> owned_store,
                           const ServiceConfig& config)
    : QueryService(*owned_store, config) {
  owned_store_ = std::move(owned_store);
}

QueryService::QueryService(SnapshotStore& store, const ServiceConfig& config)
    : store_(store),
      config_(config),
      pool_(config.num_threads, config.queue_capacity) {
  if (config_.fault_plan.enabled()) {
    worker_injectors_.resize(pool_.num_threads());
    for (size_t i = 0; i < worker_injectors_.size(); ++i) {
      FaultPlan plan = config_.fault_plan;
      plan.seed += i;  // decorrelate Bernoulli streams across workers
      worker_injectors_[i] = std::make_unique<FaultInjector>(plan);
    }
  }
  if (config_.trace_slow_queries) {
    slow_traces_ = std::make_unique<TraceRing>(config_.trace_ring_capacity);
  }
  if (config_.result_cache_bytes > 0) {
    result_cache_ = std::make_unique<ResultCache>(config_.result_cache_bytes);
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() { pool_.Shutdown(); }

UpdateResponse QueryService::ApplyUpdate(const MutationBatch& mutations) {
  UpdateResponse response;
  Stopwatch timer;
  SnapshotStore::ApplyStats stats;
  SnapshotStore::SnapshotRef ref;
  response.status = store_.ApplyAndPublish(mutations, &stats, &ref);
  response.epoch = ref.epoch;
  response.applied_inserts = stats.inserts;
  response.applied_deletes = stats.deletes;
  response.delete_misses = stats.delete_misses;
  response.latency_micros = timer.ElapsedMicros();
  return response;
}

bool QueryService::AdmitJob() {
  size_t depth = admitted_depth_.load(std::memory_order_relaxed);
  while (true) {
    if (config_.shed_queue_depth > 0 && depth >= config_.shed_queue_depth) {
      metrics_.RecordShed();
      return false;
    }
    // One CAS decides check AND increment: a racing submitter either sees
    // this slot (and sheds / retries at the new depth) or lost the race
    // and re-reads. No interleaving admits past the watermark.
    if (admitted_depth_.compare_exchange_weak(depth, depth + 1, std::memory_order_relaxed)) {
      metrics_.RecordQueueDepth(depth + 1);
      return true;
    }
  }
}

QueryService::RequestTiming QueryService::MakeTiming(uint64_t request_deadline_micros) const {
  RequestTiming timing;
  const uint64_t micros =
      request_deadline_micros != 0 ? request_deadline_micros : config_.default_deadline_micros;
  if (micros != 0) {
    timing.has_deadline = true;
    timing.deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(micros);
  }
  timing.epoch = cancel_epoch_.load(std::memory_order_relaxed);
  return timing;
}

namespace {

/// Human-readable query description stamped on retained slow traces.
std::string DescribeQuery(const NwcQuery& query, const NwcOptions& options) {
  std::string scheme;
  if (options.use_srr) scheme += "+srr";
  if (options.use_dip) scheme += "+dip";
  if (options.use_dep) scheme += "+dep";
  if (options.use_iwp) scheme += "+iwp";
  if (scheme.empty()) scheme = "plain"; else scheme.erase(0, 1);
  return StrFormat("nwc q=(%.3f,%.3f) l=%g w=%g n=%zu scheme=%s measure=%s", query.q.x,
                   query.q.y, query.length, query.width, query.n, scheme.c_str(),
                   DistanceMeasureName(options.measure));
}

std::string DescribeQuery(const KnwcQuery& query, const NwcOptions& options) {
  return StrFormat("k%s k=%zu m=%zu", DescribeQuery(query.base, options).c_str(), query.k,
                   query.m);
}

// Kind dispatch for the result cache: one Execute template serves both
// query kinds, these overloads route to the matching cache methods.
bool CacheLookup(ResultCache& cache, const NwcQuery& query, const NwcOptions& options,
                 NwcResult* out, uint64_t data_epoch) {
  return cache.LookupNwc(query, options, out, data_epoch);
}
bool CacheLookup(ResultCache& cache, const KnwcQuery& query, const NwcOptions& options,
                 KnwcResult* out, uint64_t data_epoch) {
  return cache.LookupKnwc(query, options, out, data_epoch);
}
void CacheInsert(ResultCache& cache, const NwcQuery& query, const NwcOptions& options,
                 const NwcResult& result, uint64_t data_epoch) {
  cache.InsertNwc(query, options, result, data_epoch);
}
void CacheInsert(ResultCache& cache, const KnwcQuery& query, const NwcOptions& options,
                 const KnwcResult& result, uint64_t data_epoch) {
  cache.InsertKnwc(query, options, result, data_epoch);
}

}  // namespace

template <typename Response, typename Query, typename Done>
void QueryService::Execute(size_t worker_index, const Query& query, const NwcOptions& options,
                           const RequestTiming& timing, Done done) {
  // Dequeue-time queue-depth observation: the submit-side sample alone
  // under-reports bursts, because submitters that would see the peak are
  // the ones blocked on the full queue.
  metrics_.RecordQueueDepth(pool_.QueueDepth());

  // Pin one epoch for the whole query: queries never observe a publish
  // mid-flight.
  const SnapshotStore::SnapshotRef snapshot = store_.Acquire();
  const Session& session = *snapshot.session;

  Response response;
  Stopwatch timer;
  IoCounter io;
  const bool tracing = slow_traces_ != nullptr;
  QueryTrace trace = tracing ? QueryTrace::Enabled() : QueryTrace();
  QueryTrace* trace_ptr = tracing ? &trace : nullptr;
  QueryControl control;
  if (timing.has_deadline) control.SetDeadline(timing.deadline);
  control.SetCancelCell(&cancel_epoch_, timing.epoch);
  FaultInjector* injector =
      worker_injectors_.empty() ? nullptr : worker_injectors_[worker_index].get();
  if (injector != nullptr) {
    io.SetReadProbe([injector, &control, &trace](uint32_t page) {
      Status fault = injector->OnRead(page);
      if (!fault.ok()) {
        trace.Count(TraceCounter::kFaultsInjected);
        control.ReportFault(std::move(fault));
      }
    });
  }

  // Result-cache probe — strictly after the control is armed, so a request
  // that is already past its deadline (or cancelled) takes the engine's
  // early-stop path below instead of being served from cache: deadline
  // accounting always wins over a hit.
  bool cache_hit = false;
  if (result_cache_ != nullptr && !control.ShouldStop() &&
      CacheLookup(*result_cache_, query, options, &response.result, snapshot.epoch)) {
    cache_hit = true;
    response.status = Status::Ok();
    response.result_cache_hit = true;
    trace.Count(TraceCounter::kResultCacheHits);
    // An (instant) root span keeps retained hit traces well-formed.
    TraceSpanScope root_span(trace, SpanKind::kQuery, &io);
  }

  if (!cache_hit) {
    if constexpr (std::is_same_v<Response, NwcResponse>) {
      NwcEngine engine(session.tree(), session.iwp(), session.grid());
      Result<NwcResult> result = engine.Execute(query, options, &io, trace_ptr, &control);
      response.status = result.status();
      if (result.ok()) response.result = std::move(result).value();
    } else {
      KnwcEngine engine(session.tree(), session.iwp(), session.grid());
      Result<KnwcResult> result = engine.Execute(query, options, &io, trace_ptr, &control);
      response.status = result.status();
      if (result.ok()) response.result = std::move(result).value();
    }
    // Completed queries (and only they) populate the cache: a stopped or
    // faulted query would poison it with partial answers, and re-inserting
    // on a hit would churn the LRU for nothing.
    if (result_cache_ != nullptr && response.status.ok()) {
      CacheInsert(*result_cache_, query, options, response.result, snapshot.epoch);
    }
  }

  response.latency_micros = timer.ElapsedMicros();
  response.traversal_reads = io.traversal_reads();
  response.window_query_reads = io.window_query_reads();

  metrics_.RecordQuery(response.latency_micros, response.traversal_reads,
                       response.window_query_reads, response.status.code(),
                       HasAnswer(response));
  if (slow_traces_ != nullptr && response.latency_micros >= config_.slow_trace_us) {
    metrics_.RecordSlowQuery();
    trace.set_label(StrFormat("%s latency_us=%llu", DescribeQuery(query, options).c_str(),
                              static_cast<unsigned long long>(response.latency_micros)));
    slow_traces_->Add(std::move(trace));
  }
  done(std::move(response));
}

namespace {

/// A response that never reached a worker (service-level failure).
template <typename Response>
Response FailedResponse(Status status) {
  Response response;
  response.status = std::move(status);
  return response;
}

}  // namespace

template <typename Response, typename Request>
void QueryService::Submit(Request request, StampedDone<Response> done) {
  // Load shedding: past the watermark, failing fast beats blocking the
  // caller on a queue that is already drowning. AdmitJob decides and
  // reserves the slot in one atomic step.
  if (!AdmitJob()) {
    const uint64_t now = SteadyNowMicros();
    done(FailedResponse<Response>(
             Status::Unavailable("request shed: queue past the shed watermark")),
         AsyncTiming{now, now, now});
    return;
  }
  const NwcOptions options = request.options.value_or(config_.default_options);
  const RequestTiming timing = MakeTiming(request.deadline_micros);
  // shared_ptr keeps the callback alive for the copyable ThreadPool::Job
  // and for the shutdown path below.
  auto shared_done = std::make_shared<StampedDone<Response>>(std::move(done));
  const uint64_t enqueue_us = SteadyNowMicros();
  const bool accepted = pool_.Submit(
      [this, query = std::move(request.query), options, timing, enqueue_us,
       shared_done](size_t worker) {
        ReleaseJobSlot();
        AsyncTiming stamps{enqueue_us, SteadyNowMicros(), 0};
        Execute<Response>(worker, query, options, timing,
                          [&shared_done, &stamps](Response response) {
                            stamps.finish_us = SteadyNowMicros();
                            (*shared_done)(std::move(response), stamps);
                          });
      });
  if (!accepted) {
    ReleaseJobSlot();
    const uint64_t now = SteadyNowMicros();
    (*shared_done)(
        FailedResponse<Response>(Status::FailedPrecondition("query service is shut down")),
        AsyncTiming{now, now, now});
  }
}

void QueryService::SubmitNwcAsyncTraced(NwcRequest request, StampedDone<NwcResponse> done) {
  Submit<NwcResponse>(std::move(request), std::move(done));
}

void QueryService::SubmitKnwcAsyncTraced(KnwcRequest request, StampedDone<KnwcResponse> done) {
  Submit<KnwcResponse>(std::move(request), std::move(done));
}

std::vector<NwcResponse> QueryService::RunNwcBatch(const std::vector<NwcRequest>& requests) {
  std::vector<std::future<NwcResponse>> futures;
  futures.reserve(requests.size());
  for (const NwcRequest& request : requests) futures.push_back(SubmitNwc(request));
  std::vector<NwcResponse> responses;
  responses.reserve(requests.size());
  for (auto& future : futures) responses.push_back(future.get());
  return responses;
}

std::vector<KnwcResponse> QueryService::RunKnwcBatch(const std::vector<KnwcRequest>& requests) {
  std::vector<std::future<KnwcResponse>> futures;
  futures.reserve(requests.size());
  for (const KnwcRequest& request : requests) futures.push_back(SubmitKnwc(request));
  std::vector<KnwcResponse> responses;
  responses.reserve(requests.size());
  for (auto& future : futures) responses.push_back(future.get());
  return responses;
}

MetricsSnapshot QueryService::SnapshotMetrics() const {
  MetricsSnapshot snapshot = metrics_.Snapshot();
  if (result_cache_ != nullptr) {
    const ResultCache::Stats stats = result_cache_->GetStats();
    snapshot.result_cache_hits = stats.hits;
    snapshot.result_cache_misses = stats.misses;
    snapshot.result_cache_evictions = stats.evictions;
    snapshot.result_cache_entries = stats.entries;
    snapshot.result_cache_bytes = stats.bytes;
  }
  return snapshot;
}

}  // namespace nwc
