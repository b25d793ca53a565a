// QueryService robustness under concurrency: 8 workers fed a mix of tight
// deadlines, injected I/O faults, and a mid-flight CancelAll. The pool
// must drain every accepted request (every future becomes ready — nothing
// is dropped silently), every response must carry one of the expected
// typed statuses, and the metrics breakdown must account for every
// submitted query exactly: ok + cancelled + deadline + io_error == queries.
//
// Plus deterministic single-knob tests: a transient once-at fault failing
// exactly the query it hits, load shedding at the queue watermark, CancelAll reaching
// queued work, and config validation of the robustness knobs.

#include "service/query_service.h"

#include <chrono>
#include <cstdint>
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "datasets/generators.h"
#include "rtree/bulk_load.h"

namespace nwc {
namespace {

constexpr uint64_t kSeed = 20160316;

Session OpenTestSession(size_t cardinality = 4000) {
  Dataset dataset = MakeCaLike(kSeed, cardinality);
  SessionConfig config;
  config.grid_space = dataset.space;
  Result<Session> session =
      Session::Open(BulkLoadStr(dataset.objects, RTreeOptions{}), config);
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session).value();
}

// An expensive request: plain scheme, wide window, large n — keeps workers
// busy so backlog, deadlines, and cancellation all genuinely bite.
NwcRequest HeavyRequest(uint64_t deadline_micros = 0) {
  NwcRequest request;
  request.query = NwcQuery{Point{5000, 5000}, 500, 500, 16};
  request.options = NwcOptions::Plain();
  request.deadline_micros = deadline_micros;
  return request;
}

TEST(QueryServiceRobustnessTest, StressDrainsEveryRequestAndCountersSumExactly) {
  const Session session = OpenTestSession();
  ServiceConfig config;
  config.num_threads = 8;
  config.queue_capacity = 16;  // small: submissions block, backlog is real
  config.default_options = NwcOptions::Plain();
  // One transient fault per worker (at its 1000th cumulative read): every
  // worker surfaces exactly one IoError without drowning the ok path —
  // heavy plain queries read thousands of pages each, so a periodic plan
  // would fault every single query.
  config.fault_plan = FaultPlan::OnceAt(1000);
  QueryService service(session, config);

  constexpr size_t kFirstWave = 150;
  constexpr size_t kSecondWave = 150;
  std::vector<std::future<NwcResponse>> futures;
  futures.reserve(kFirstWave + kSecondWave);

  // First wave: every 4th request carries a 50us deadline that queue wait
  // alone will blow through; the rest are unconstrained heavy queries.
  for (size_t i = 0; i < kFirstWave; ++i) {
    futures.push_back(service.SubmitNwc(HeavyRequest(i % 4 == 3 ? 50 : 0)));
  }
  // Mid-flight: cancel everything queued or executing right now.
  service.CancelAll();
  // Second wave: submitted after the epoch bump, runs normally.
  for (size_t i = 0; i < kSecondWave; ++i) {
    futures.push_back(service.SubmitNwc(HeavyRequest(i % 4 == 3 ? 50 : 0)));
  }

  // Nothing dropped silently: every accepted future becomes ready.
  size_t ok = 0, cancelled = 0, deadline = 0, io_error = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const NwcResponse response = futures[i].get();
    switch (response.status.code()) {
      case StatusCode::kOk:
        ++ok;
        EXPECT_TRUE(response.result.found) << "request " << i;
        break;
      case StatusCode::kCancelled:
        ++cancelled;
        break;
      case StatusCode::kDeadlineExceeded:
        ++deadline;
        break;
      case StatusCode::kIoError:
        ++io_error;
        break;
      default:
        ADD_FAILURE() << "request " << i << ": unexpected status " << response.status;
    }
  }
  service.Shutdown();

  // Every outcome class must have occurred, or the stress proved nothing.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(cancelled, 0u) << "CancelAll should catch queued/in-flight work";
  EXPECT_GT(deadline, 0u) << "50us deadlines on heavy queries should fire";
  EXPECT_GT(io_error, 0u) << "per-worker once-at faults should surface";
  EXPECT_LE(io_error, config.num_threads) << "once-at fires at most once per worker";

  // Exact conservation: the metrics breakdown accounts for every submit.
  const MetricsSnapshot metrics = service.SnapshotMetrics();
  EXPECT_EQ(metrics.queries, futures.size());
  EXPECT_EQ(metrics.ok(), ok);
  EXPECT_EQ(metrics.cancelled, cancelled);
  EXPECT_EQ(metrics.deadline_exceeded, deadline);
  EXPECT_EQ(metrics.io_errors, io_error);
  EXPECT_EQ(metrics.failures, cancelled + deadline + io_error);
  EXPECT_EQ(metrics.ok() + metrics.failures, metrics.queries);
  EXPECT_EQ(metrics.shed, 0u);
}

TEST(QueryServiceRobustnessTest, TransientFaultFailsOnlyTheQueryItHits) {
  const Session session = OpenTestSession(1000);
  ServiceConfig config;
  config.num_threads = 1;  // one worker, one injector: deterministic
  config.fault_plan = FaultPlan::OnceAt(10);  // transient: fires once, ever
  QueryService service(session, config);

  const NwcResponse failed = service.SubmitNwc(HeavyRequest()).get();
  EXPECT_EQ(failed.status.code(), StatusCode::kIoError)
      << "the fault ends the query it hits: " << failed.status;
  const MetricsSnapshot after_fault = service.SnapshotMetrics();
  EXPECT_EQ(after_fault.queries, 1u);
  EXPECT_EQ(after_fault.failures, 1u);
  EXPECT_EQ(after_fault.io_errors, 1u);

  const NwcResponse next = service.SubmitNwc(HeavyRequest()).get();
  EXPECT_TRUE(next.status.ok()) << "a once-only fault leaves later queries alone: "
                                << next.status;
  EXPECT_TRUE(next.result.found);
  const MetricsSnapshot metrics = service.SnapshotMetrics();
  EXPECT_EQ(metrics.queries, 2u);
  EXPECT_EQ(metrics.failures, 1u);
  EXPECT_EQ(metrics.io_errors, 1u);
}

TEST(QueryServiceRobustnessTest, PersistentFaultExhaustsRetriesAndSurfacesIoError) {
  const Session session = OpenTestSession(1000);
  ServiceConfig config;
  config.num_threads = 1;
  config.fault_plan = FaultPlan::EveryNth(5);  // persistent: every query faults
  QueryService service(session, config);

  const NwcResponse response = service.SubmitNwc(HeavyRequest()).get();
  EXPECT_EQ(response.status.code(), StatusCode::kIoError) << response.status;

  const MetricsSnapshot metrics = service.SnapshotMetrics();
  EXPECT_EQ(metrics.queries, 1u);
  EXPECT_EQ(metrics.failures, 1u);
  EXPECT_EQ(metrics.io_errors, 1u);
}

TEST(QueryServiceRobustnessTest, BlockingSubmitShedsLoadAtWatermark) {
  const Session session = OpenTestSession();
  ServiceConfig config;
  config.num_threads = 1;
  config.queue_capacity = 8;
  config.shed_queue_depth = 2;  // shed long before the queue would block
  QueryService service(session, config);

  std::vector<std::future<NwcResponse>> accepted;
  size_t shed = 0;
  for (int i = 0; i < 200 && shed == 0; ++i) {
    std::future<NwcResponse> future = service.SubmitNwc(HeavyRequest());
    // Shed responses are ready immediately with Unavailable; accepted ones
    // resolve later. Peek without blocking the submission loop.
    if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      const NwcResponse response = future.get();
      if (response.status.code() == StatusCode::kUnavailable) {
        ++shed;
        continue;
      }
      EXPECT_TRUE(response.status.ok()) << response.status;  // already-done work
    } else {
      accepted.push_back(std::move(future));
    }
  }
  EXPECT_EQ(shed, 1u) << "a slow worker behind a low watermark must shed";
  for (auto& future : accepted) {
    EXPECT_TRUE(future.get().status.ok());
  }
  const MetricsSnapshot metrics = service.SnapshotMetrics();
  EXPECT_EQ(metrics.shed, 1u);
  // Shed requests never execute: they are not part of the query count.
  EXPECT_EQ(metrics.queries, metrics.ok());
}

TEST(QueryServiceRobustnessTest, CancelAllReachesQueuedWorkAndSparesLaterSubmits) {
  const Session session = OpenTestSession();
  ServiceConfig config;
  config.num_threads = 2;
  config.queue_capacity = 64;
  QueryService service(session, config);

  std::vector<std::future<NwcResponse>> futures;
  for (int i = 0; i < 48; ++i) {
    futures.push_back(service.SubmitNwc(HeavyRequest()));
  }
  service.CancelAll();

  size_t cancelled = 0;
  for (auto& future : futures) {
    const NwcResponse response = future.get();
    if (response.status.code() == StatusCode::kCancelled) {
      ++cancelled;
    } else {
      EXPECT_TRUE(response.status.ok()) << response.status;  // finished first
    }
  }
  EXPECT_GT(cancelled, 0u) << "48 heavy queries on 2 workers must leave backlog";
  EXPECT_EQ(service.SnapshotMetrics().cancelled, cancelled);

  // The epoch moved once; requests submitted now observe the new value.
  const NwcResponse after = service.SubmitNwc(HeavyRequest()).get();
  EXPECT_TRUE(after.status.ok()) << after.status;
}

TEST(QueryServiceRobustnessTest, MixedKindStressKeepsKnwcAccountable) {
  const Session session = OpenTestSession(2000);
  ServiceConfig config;
  config.num_threads = 8;
  config.queue_capacity = 32;
  QueryService service(session, config);

  std::vector<std::future<NwcResponse>> nwc_futures;
  std::vector<std::future<KnwcResponse>> knwc_futures;
  for (int i = 0; i < 40; ++i) {
    nwc_futures.push_back(service.SubmitNwc(HeavyRequest(i % 2 == 0 ? 0 : 100)));
    KnwcRequest knwc;
    knwc.query.base = NwcQuery{Point{5000, 5000}, 400, 400, 8};
    knwc.query.k = 3;
    knwc.query.m = 2;
    knwc.deadline_micros = i % 2 == 0 ? 0 : 100;
    knwc_futures.push_back(service.SubmitKnwc(knwc));
  }

  size_t ok = 0, deadline = 0;
  for (auto& future : nwc_futures) {
    const NwcResponse response = future.get();
    if (response.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded) << response.status;
      ++deadline;
    }
  }
  for (auto& future : knwc_futures) {
    const KnwcResponse response = future.get();
    if (response.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded) << response.status;
      ++deadline;
    }
  }
  const MetricsSnapshot metrics = service.SnapshotMetrics();
  EXPECT_EQ(metrics.queries, nwc_futures.size() + knwc_futures.size());
  EXPECT_EQ(metrics.ok(), ok);
  EXPECT_EQ(metrics.deadline_exceeded, deadline);
  EXPECT_EQ(metrics.failures, deadline);
}

TEST(QueryServiceRobustnessTest, ConfigValidationCoversRobustnessKnobs) {
  ServiceConfig config;
  EXPECT_TRUE(config.Validate().ok());

  config.shed_queue_depth = config.queue_capacity + 1;
  EXPECT_FALSE(config.Validate().ok()) << "watermark beyond capacity can never shed";
  config.shed_queue_depth = config.queue_capacity;
  EXPECT_TRUE(config.Validate().ok());

  config.fault_plan = FaultPlan::EveryNth(0);
  EXPECT_FALSE(config.Validate().ok()) << "fault plans are validated at the service";
  config.fault_plan = FaultPlan::EveryNth(100);
  EXPECT_TRUE(config.Validate().ok());
}

}  // namespace
}  // namespace nwc
