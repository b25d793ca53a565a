// QueryService correctness: the multi-threaded differential test required
// by the service design — batch results across 4 workers must be
// *identical* (bit-for-bit: distances, ids, positions) to single-threaded
// NwcEngine/KnwcEngine runs over the same session — plus session/option
// plumbing, shutdown semantics, shed admission, and metrics.

#include "service/query_service.h"

#include <atomic>
#include <future>
#include <iterator>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/knwc_engine.h"
#include "core/nwc_engine.h"
#include "datasets/generators.h"
#include "response_compare.h"
#include "rtree/bulk_load.h"
#include "submit_all.h"

namespace nwc {
namespace {

constexpr uint64_t kSeed = 20160315;

Session OpenTestSession(size_t cardinality = 4000) {
  Dataset dataset = MakeCaLike(kSeed, cardinality);
  SessionConfig config;
  config.grid_space = dataset.space;
  Result<Session> session =
      Session::Open(BulkLoadStr(dataset.objects, RTreeOptions{}), config);
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session).value();
}

std::vector<NwcRequest> SeededNwcRequests(size_t count) {
  Rng rng(kSeed ^ 0x5E1);
  std::vector<NwcRequest> requests;
  const NwcOptions overrides[] = {NwcOptions::Plain(), NwcOptions::Plus(), NwcOptions::Star()};
  for (size_t i = 0; i < count; ++i) {
    NwcRequest request;
    request.query.q = Point{rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)};
    request.query.length = rng.NextDouble(80, 400);
    request.query.width = rng.NextDouble(80, 400);
    request.query.n = 3 + rng.NextUint64(8);
    if (i % 3 != 0) {  // mix service defaults with per-request overrides
      NwcOptions options = overrides[i % std::size(overrides)];
      options.measure = static_cast<DistanceMeasure>(i % 4);
      request.options = options;
    }
    requests.push_back(request);
  }
  return requests;
}

std::vector<KnwcRequest> SeededKnwcRequests(size_t count) {
  Rng rng(kSeed ^ 0xA3);
  std::vector<KnwcRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    KnwcRequest request;
    request.query.base.q = Point{rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)};
    request.query.base.length = rng.NextDouble(100, 400);
    request.query.base.width = rng.NextDouble(100, 400);
    request.query.base.n = 4 + rng.NextUint64(5);
    request.query.k = 2 + rng.NextUint64(3);
    request.query.m = rng.NextUint64(request.query.base.n - 1);
    if (i % 2 == 0) request.options = NwcOptions::Plus();
    requests.push_back(request);
  }
  return requests;
}

TEST(QueryServiceDifferentialTest, FourWorkerBatchMatchesSequentialEngines) {
  const Session session = OpenTestSession();
  ServiceConfig config;
  config.num_threads = 4;
  config.queue_capacity = 64;
  config.default_options = NwcOptions::Star();
  QueryService service(session, config);

  // >= 200 seeded queries across both query kinds (acceptance criterion).
  const std::vector<NwcRequest> nwc_requests = SeededNwcRequests(160);
  const std::vector<KnwcRequest> knwc_requests = SeededKnwcRequests(80);

  const std::vector<NwcResponse> nwc_responses = SubmitAll(service, nwc_requests);
  const std::vector<KnwcResponse> knwc_responses = SubmitAll(service, knwc_requests);
  ASSERT_EQ(nwc_responses.size(), nwc_requests.size());
  ASSERT_EQ(knwc_responses.size(), knwc_requests.size());

  // Sequential reference over the *same* session structures.
  NwcEngine nwc_engine(session.tree(), session.iwp(), session.grid());
  size_t found = 0;
  for (size_t i = 0; i < nwc_requests.size(); ++i) {
    const NwcOptions options = nwc_requests[i].options.value_or(config.default_options);
    const Result<NwcResult> expected =
        nwc_engine.Execute(nwc_requests[i].query, options, nullptr);
    ASSERT_TRUE(expected.ok()) << "request " << i;
    ASSERT_TRUE(nwc_responses[i].status.ok()) << "request " << i << ": "
                                              << nwc_responses[i].status;
    ExpectSameResponse(nwc_responses[i], NwcResponse{Status::Ok(), *expected}, i);
    if (expected->found) ++found;
  }
  EXPECT_GT(found, nwc_requests.size() / 2) << "dataset/query mix should mostly find windows";

  KnwcEngine knwc_engine(session.tree(), session.iwp(), session.grid());
  for (size_t i = 0; i < knwc_requests.size(); ++i) {
    const NwcOptions options = knwc_requests[i].options.value_or(config.default_options);
    const Result<KnwcResult> expected =
        knwc_engine.Execute(knwc_requests[i].query, options, nullptr);
    ASSERT_TRUE(expected.ok()) << "request " << i;
    ASSERT_TRUE(knwc_responses[i].status.ok()) << "request " << i;
    ExpectSameResponse(knwc_responses[i], KnwcResponse{Status::Ok(), *expected}, i);
  }

  const MetricsSnapshot metrics = service.SnapshotMetrics();
  EXPECT_EQ(metrics.queries, nwc_requests.size() + knwc_requests.size());
  EXPECT_EQ(metrics.failures, 0u);
  EXPECT_GT(metrics.total_reads(), 0u);
  EXPECT_LE(metrics.latency_p50_us, metrics.latency_p95_us);
  EXPECT_LE(metrics.latency_p95_us, metrics.latency_p99_us);
  EXPECT_LE(metrics.latency_p99_us, metrics.latency_max_us);
}

TEST(QueryServiceTest, InvalidQueryYieldsInvalidArgumentResponse) {
  const Session session = OpenTestSession(500);
  QueryService service(session, ServiceConfig{.num_threads = 2});
  NwcRequest request;  // n == 0, zero window: invalid
  const NwcResponse response = service.SubmitNwc(request).get();
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  const MetricsSnapshot metrics = service.SnapshotMetrics();
  EXPECT_EQ(metrics.queries, 1u);
  EXPECT_EQ(metrics.failures, 1u);
}

TEST(QueryServiceTest, SubmitAfterShutdownFailsGracefully) {
  const Session session = OpenTestSession(500);
  QueryService service(session, ServiceConfig{.num_threads = 2});
  NwcRequest request;
  request.query = NwcQuery{Point{5000, 5000}, 200, 200, 4};
  EXPECT_TRUE(service.SubmitNwc(request).get().status.ok());

  service.Shutdown();
  const NwcResponse after = service.SubmitNwc(request).get();
  EXPECT_EQ(after.status.code(), StatusCode::kFailedPrecondition);
}

TEST(QueryServiceTest, ConcurrentSubmittersNeverAdmitPastTheShedWatermark) {
  // Regression: the shed check used to be a read-then-enqueue in six
  // copy-pasted sites, so racing submitters could all observe depth just
  // under the watermark and push the queue past it. AdmitJob's CAS makes
  // check-and-increment atomic: the recorded admitted depth can never
  // exceed the watermark, no matter how many threads hammer submit.
  const Session session = OpenTestSession(500);
  ServiceConfig config;
  config.num_threads = 2;
  config.queue_capacity = 64;
  config.shed_queue_depth = 4;
  // Every read sleeps: workers drain slowly, so submitters outpace them
  // and the queue rides the watermark for the whole test.
  config.fault_plan = FaultPlan::LatencySpike(1, 100);
  QueryService service(session, config);

  NwcRequest request;
  request.query = NwcQuery{Point{5000, 5000}, 200, 200, 3};
  request.options = NwcOptions::Plain();

  constexpr int kSubmitters = 8;
  constexpr int kPerThread = 10;
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> shed_count{0};
  std::atomic<uint64_t> other_count{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const NwcResponse response = service.SubmitNwc(request).get();
        if (response.status.ok()) {
          ok_count.fetch_add(1);
        } else if (response.status.code() == StatusCode::kUnavailable) {
          shed_count.fetch_add(1);
        } else {
          other_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();

  const MetricsSnapshot metrics = service.SnapshotMetrics();
  EXPECT_EQ(other_count.load(), 0u);
  EXPECT_EQ(ok_count.load() + shed_count.load(),
            static_cast<uint64_t>(kSubmitters) * kPerThread);
  EXPECT_GT(ok_count.load(), 0u) << "some requests must get through";
  EXPECT_GT(metrics.shed, 0u) << "slow workers + 8 submitters must shed";
  EXPECT_EQ(metrics.shed, shed_count.load());
  // The regression signal: the old racy checks let the admitted depth
  // overshoot; the CAS caps it at the watermark exactly.
  EXPECT_LE(metrics.max_queue_depth, config.shed_queue_depth);
}

TEST(QueryServiceTest, RunBatchPreservesRequestOrder) {
  const Session session = OpenTestSession(1000);
  QueryService service(session, ServiceConfig{.num_threads = 4});

  // Queries with distinct n values; response i must answer request i.
  std::vector<NwcRequest> requests;
  for (size_t n = 2; n <= 11; ++n) {
    requests.push_back(NwcRequest{NwcQuery{Point{5000, 5000}, 300, 300, n}, {}});
  }
  const std::vector<NwcResponse> responses = SubmitAll(service, requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok());
    if (responses[i].result.found) {
      EXPECT_EQ(responses[i].result.objects.size(), requests[i].query.n) << "request " << i;
    }
  }
}

TEST(QueryServiceTest, SlowTraceRingRetainsEveryQueryAtZeroThreshold) {
  const Session session = OpenTestSession(1000);
  ServiceConfig config;
  config.num_threads = 2;
  config.trace_slow_queries = true;
  config.slow_trace_us = 0;  // retain everything
  config.trace_ring_capacity = 8;
  QueryService service(session, config);

  std::vector<NwcRequest> requests;
  for (size_t i = 0; i < 5; ++i) {
    requests.push_back(NwcRequest{NwcQuery{Point{4000 + 500.0 * i, 5000}, 300, 300, 4}, {}});
  }
  const std::vector<NwcResponse> responses = SubmitAll(service, requests);
  for (const NwcResponse& response : responses) ASSERT_TRUE(response.status.ok());

  const auto traces = service.SlowTraces();
  ASSERT_EQ(traces.size(), 5u);
  EXPECT_EQ(service.SnapshotMetrics().slow_queries, 5u);
  for (const auto& trace : traces) {
    ASSERT_NE(trace, nullptr);
    EXPECT_TRUE(trace->complete());
    ASSERT_FALSE(trace->spans().empty());
    EXPECT_EQ(trace->spans().front().kind, SpanKind::kQuery);
    // The retained label names the query and its latency.
    EXPECT_NE(trace->label().find("nwc q=("), std::string::npos) << trace->label();
    EXPECT_NE(trace->label().find("latency_us="), std::string::npos) << trace->label();
    // Span accounting survived the trip through the service: root
    // inclusive reads match the response-level totals the worker reported.
    uint64_t self_total = 0;
    for (const TraceSpan& span : trace->spans()) self_total += span.self_reads();
    EXPECT_EQ(self_total,
              trace->spans().front().traversal_reads + trace->spans().front().window_reads);
  }
}

TEST(QueryServiceTest, SlowTraceRingIsBoundedAndKeepsNewest) {
  const Session session = OpenTestSession(1000);
  ServiceConfig config;
  config.num_threads = 1;  // deterministic retention order
  config.trace_slow_queries = true;
  config.slow_trace_us = 0;
  config.trace_ring_capacity = 3;
  QueryService service(session, config);

  for (size_t i = 0; i < 7; ++i) {
    const NwcResponse response =
        service.SubmitNwc(NwcRequest{NwcQuery{Point{5000, 5000}, 200, 200, 3}, {}}).get();
    ASSERT_TRUE(response.status.ok());
  }
  EXPECT_EQ(service.SlowTraces().size(), 3u);
  EXPECT_EQ(service.SnapshotMetrics().slow_queries, 7u);
}

TEST(QueryServiceTest, HighThresholdRetainsNothingButServesNormally) {
  const Session session = OpenTestSession(1000);
  ServiceConfig config;
  config.num_threads = 2;
  config.trace_slow_queries = true;
  config.slow_trace_us = 60UL * 1000 * 1000;  // a minute: nothing qualifies
  QueryService service(session, config);

  const NwcResponse response =
      service.SubmitNwc(NwcRequest{NwcQuery{Point{5000, 5000}, 300, 300, 4}, {}}).get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(service.SlowTraces().empty());
  EXPECT_EQ(service.SnapshotMetrics().slow_queries, 0u);
}

TEST(QueryServiceTest, TracingDisabledByDefaultAndSlowTracesEmpty) {
  const Session session = OpenTestSession(1000);
  QueryService service(session, ServiceConfig{.num_threads = 2});
  EXPECT_FALSE(service.config().trace_slow_queries);
  const NwcResponse response =
      service.SubmitNwc(NwcRequest{NwcQuery{Point{5000, 5000}, 300, 300, 4}, {}}).get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(service.SlowTraces().empty());
}

TEST(QueryServiceTest, TracingConfigValidationRejectsZeroRing) {
  ServiceConfig config;
  config.trace_slow_queries = true;
  config.trace_ring_capacity = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.trace_ring_capacity = 1;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(QueryServiceTest, ConcurrentClientsWithCacheStayExact) {
  // TSan-facing stress: several client threads submit overlapping query
  // streams through a cached service — the shared result cache and the
  // metrics both take concurrent traffic. Results are checked against a
  // sequential engine.
  const Session session = OpenTestSession(2000);
  ServiceConfig config;
  config.num_threads = 4;
  config.result_cache_bytes = 4 << 20;
  QueryService service(session, config);

  const std::vector<NwcRequest> requests = SeededNwcRequests(48);
  NwcEngine engine(session.tree(), session.iwp(), session.grid());
  std::vector<Result<NwcResult>> expected;
  for (const NwcRequest& request : requests) {
    expected.push_back(engine.Execute(
        request.query, request.options.value_or(config.default_options), nullptr));
    ASSERT_TRUE(expected.back().ok());
  }

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        std::vector<std::future<NwcResponse>> futures;
        futures.reserve(requests.size());
        for (const NwcRequest& request : requests) futures.push_back(service.SubmitNwc(request));
        for (size_t i = 0; i < futures.size(); ++i) {
          const NwcResponse response = futures[i].get();
          if (!response.status.ok() || response.result.found != (*expected[i]).found ||
              (response.result.found &&
               response.result.distance != (*expected[i]).distance)) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(mismatches.load(), 0);
  const MetricsSnapshot metrics = service.SnapshotMetrics();
  EXPECT_EQ(metrics.queries, static_cast<uint64_t>(kClients) * 3 * requests.size());
  EXPECT_GT(metrics.result_cache_hits, 0u) << "repeated queries must hit the shared cache";
}

TEST(QueryServiceTest, SubmittersRacingTheFirstUpdateSeeEpochOneOrEpochTwo) {
  // A Session-built service builds its store's writer on the first
  // ApplyUpdate. Four submitters query throughout: every `done` must fire
  // exactly once and every answer must be one of the two epochs' answers.
  Dataset dataset = MakeCaLike(kSeed, 1500);
  SessionConfig session_config;
  session_config.grid_space = dataset.space;
  Result<Session> session =
      Session::Open(BulkLoadStr(dataset.objects, RTreeOptions{}), session_config);
  ASSERT_TRUE(session.ok()) << session.status();

  std::vector<NwcQuery> probes;
  MutationBatch batch;
  for (int i = 0; i < 8; ++i) {
    const Point q{1000.0 + 1100.0 * i, 9000.0 - 1000.0 * i};
    probes.push_back(NwcQuery{q, 40, 40, 4});
    // Epoch 2 puts a qualifying group right at every other probe point.
    if (i % 2 == 0) {
      for (int j = 0; j < 4; ++j) {
        batch.push_back(Mutation::Insert(DataObject{static_cast<ObjectId>(800000 + 10 * i + j),
                                                    Point{q.x + 0.5 * j, q.y + 0.5}}));
      }
    }
  }
  std::vector<DataObject> mutated = dataset.objects;
  for (const Mutation& m : batch) mutated.push_back(m.object);
  Result<Session> oracle_two =
      Session::Open(BulkLoadStr(mutated, RTreeOptions{}), session_config);
  ASSERT_TRUE(oracle_two.ok()) << oracle_two.status();
  std::vector<NwcResult> epoch_one;
  std::vector<NwcResult> epoch_two;
  size_t changed = 0;
  for (const NwcQuery& probe : probes) {
    NwcEngine one(session->tree(), session->iwp(), session->grid());
    NwcEngine two(oracle_two->tree(), oracle_two->iwp(), oracle_two->grid());
    epoch_one.push_back(*one.Execute(probe, NwcOptions::Star(), nullptr));
    epoch_two.push_back(*two.Execute(probe, NwcOptions::Star(), nullptr));
    if (epoch_one.back() != epoch_two.back()) ++changed;
  }
  ASSERT_GE(changed, 4u) << "the update must change the answers it races";

  ServiceConfig config;
  config.num_threads = 2;
  config.queue_capacity = 64;
  QueryService service(*session, config);

  constexpr size_t kSubmitters = 4;
  constexpr size_t kRounds = 12;
  const size_t per_thread = kRounds * probes.size();
  std::vector<NwcResponse> responses(kSubmitters * per_thread);
  std::vector<std::atomic<int>> calls(responses.size());
  std::atomic<size_t> submitted{0};
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < per_thread; ++i) {
        const size_t slot = t * per_thread + i;
        service.SubmitNwcAsync(NwcRequest{probes[i % probes.size()], {}},
                               [&responses, &calls, slot](NwcResponse response) {
                                 responses[slot] = std::move(response);
                                 calls[slot].fetch_add(1);
                               });
        submitted.fetch_add(1);
      }
    });
  }
  // Update once the submitters are well under way.
  while (submitted.load() < responses.size() / 4) std::this_thread::yield();
  const UpdateResponse update = service.ApplyUpdate(batch);
  for (std::thread& submitter : submitters) submitter.join();
  service.Shutdown();  // drains: every accepted request has completed

  ASSERT_TRUE(update.status.ok()) << update.status;
  EXPECT_EQ(update.epoch, 2u);
  EXPECT_EQ(update.applied_inserts, batch.size());
  for (size_t slot = 0; slot < responses.size(); ++slot) {
    ASSERT_EQ(calls[slot].load(), 1) << "slot " << slot;
    const NwcResponse& response = responses[slot];
    ASSERT_TRUE(response.status.ok()) << "slot " << slot << ": " << response.status;
    const size_t p = (slot % per_thread) % probes.size();
    EXPECT_TRUE(response.result == epoch_one[p] || response.result == epoch_two[p])
        << "slot " << slot << " probe " << p;
  }
  // The caller's Session still holds epoch 1.
  EXPECT_EQ(session->tree().size(), dataset.objects.size());
}

TEST(QueryServiceTest, EmptyTreeSessionServesNotFound) {
  Result<Session> session = Session::Open(RStarTree(RTreeOptions{}), SessionConfig{});
  ASSERT_TRUE(session.ok()) << session.status();
  QueryService service(*session, ServiceConfig{.num_threads = 2});
  NwcRequest request;
  request.query = NwcQuery{Point{0, 0}, 10, 10, 2};
  const NwcResponse response = service.SubmitNwc(request).get();
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_FALSE(response.result.found);
}

}  // namespace
}  // namespace nwc
