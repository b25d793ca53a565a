#include "service/service_metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/io_stats.h"

namespace nwc {
namespace {

// noinline sidesteps a GCC aggressive-loop-optimization false positive
// when the constant trip counts are propagated into the inlined body.
__attribute__((noinline)) IoCounter CounterWith(size_t traversal, size_t window) {
  IoCounter io;
  for (size_t i = 0; i < traversal; ++i) io.OnNodeAccess(IoPhase::kTraversal);
  for (size_t i = 0; i < window; ++i) io.OnNodeAccess(IoPhase::kWindowQuery);
  return io;
}

TEST(ServiceMetricsTest, RollsUpPhaseCountsAcrossQueries) {
  ServiceMetrics metrics;
  metrics.RecordQuery(100, CounterWith(3, 5), StatusCode::kOk, /*found=*/true);
  metrics.RecordQuery(200, CounterWith(2, 7), StatusCode::kOk, /*found=*/false);
  metrics.RecordQuery(300, CounterWith(1, 1), StatusCode::kInternal, /*found=*/false);

  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.queries, 3u);
  EXPECT_EQ(snapshot.failures, 1u);
  EXPECT_EQ(snapshot.not_found, 1u);
  EXPECT_EQ(snapshot.traversal_reads, 6u);
  EXPECT_EQ(snapshot.window_query_reads, 13u);
  EXPECT_EQ(snapshot.total_reads(), 19u);
  EXPECT_EQ(snapshot.latency_min_us, 100u);
  EXPECT_EQ(snapshot.latency_max_us, 300u);
  EXPECT_NEAR(snapshot.latency_mean_us, 200.0, 1e-9);
}

TEST(ServiceMetricsTest, TracksQueueHighWaterMark) {
  ServiceMetrics metrics;
  metrics.RecordQueueDepth(3);
  metrics.RecordQueueDepth(9);
  metrics.RecordQueueDepth(5);

  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.max_queue_depth, 9u);
}

TEST(ServiceMetricsTest, ResetZeroesEverything) {
  ServiceMetrics metrics;
  metrics.RecordQuery(123, CounterWith(4, 4), StatusCode::kOk, true);
  metrics.RecordShed();
  metrics.RecordQueueDepth(7);
  metrics.Reset();

  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.queries, 0u);
  EXPECT_EQ(snapshot.shed, 0u);
  EXPECT_EQ(snapshot.max_queue_depth, 0u);
  EXPECT_EQ(snapshot.total_reads(), 0u);
  EXPECT_EQ(snapshot.latency_p99_us, 0u);
}

TEST(ServiceMetricsTest, QuantilesComeFromTheHistogram) {
  ServiceMetrics metrics;
  for (int i = 0; i < 99; ++i) metrics.RecordQuery(10, CounterWith(0, 0), StatusCode::kOk, true);
  metrics.RecordQuery(100000, CounterWith(0, 0), StatusCode::kOk, true);
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.latency_p50_us, 10u);
  EXPECT_EQ(snapshot.latency_p95_us, 10u);
  EXPECT_GE(snapshot.latency_p99_us, 10u);
  EXPECT_GE(snapshot.latency_max_us, 100000u);
}

TEST(ServiceMetricsTest, ConcurrentRecordingLosesNothing) {
  ServiceMetrics metrics;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        metrics.RecordQuery(50, CounterWith(1, 2), StatusCode::kOk, true);
        metrics.RecordQueueDepth(static_cast<size_t>(i % 17));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.queries, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snapshot.traversal_reads, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snapshot.window_query_reads, static_cast<uint64_t>(2 * kThreads * kPerThread));
  EXPECT_EQ(snapshot.max_queue_depth, 16u);
}

TEST(ServiceMetricsTest, ToStringMentionsEverySection) {
  ServiceMetrics metrics;
  metrics.RecordQuery(42, CounterWith(2, 3), StatusCode::kOk, true);
  const std::string report = metrics.Snapshot().ToString();
  EXPECT_NE(report.find("queries:"), std::string::npos);
  EXPECT_NE(report.find("latency:"), std::string::npos);
  EXPECT_NE(report.find("node reads:"), std::string::npos);
  EXPECT_NE(report.find("queue:"), std::string::npos);
  EXPECT_NE(report.find("slow queries"), std::string::npos);
  EXPECT_NE(report.find("wall:"), std::string::npos);
}

TEST(ServiceMetricsTest, SlowQueriesCountAndResetWithEverythingElse) {
  ServiceMetrics metrics;
  metrics.RecordSlowQuery();
  metrics.RecordSlowQuery();
  EXPECT_EQ(metrics.Snapshot().slow_queries, 2u);
  metrics.Reset();
  EXPECT_EQ(metrics.Snapshot().slow_queries, 0u);
}

TEST(ServiceMetricsTest, SnapshotCarriesWallClockAndQps) {
  ServiceMetrics metrics;
  metrics.RecordQuery(10, CounterWith(0, 0), StatusCode::kOk, true);
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_GT(snapshot.wall_seconds, 0.0);
  EXPECT_GT(snapshot.Qps(), 0.0);
  // QPS is derived: queries / wall_seconds.
  EXPECT_NEAR(snapshot.Qps(), static_cast<double>(snapshot.queries) / snapshot.wall_seconds,
              1e-9);
  // A hand-built snapshot with no elapsed time reports zero, not NaN/inf.
  MetricsSnapshot zero;
  zero.queries = 5;
  EXPECT_DOUBLE_EQ(zero.Qps(), 0.0);
}

TEST(ServiceMetricsTest, ZeroElapsedSnapshotRendersZeroQpsEverywhere) {
  // A snapshot taken before any wall time elapses (or one built by hand,
  // as the exporters' tests do) must render 0 qps, never "inf" or "nan",
  // in every text emitter.
  MetricsSnapshot zero;
  zero.queries = 5;
  zero.wall_seconds = 0.0;
  ASSERT_DOUBLE_EQ(zero.Qps(), 0.0);

  const std::string text = zero.ToString();
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_NE(text.find("(0.0 queries/sec)"), std::string::npos) << text;

  const std::string json = zero.ToJson();
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_NE(json.find("\"qps\":0.000"), std::string::npos) << json;
}

TEST(ServiceMetricsTest, CachingSectionRendersInTextAndJson) {
  MetricsSnapshot snapshot;
  snapshot.queries = 4;
  snapshot.wall_seconds = 1.0;
  snapshot.result_cache_hits = 3;
  snapshot.result_cache_misses = 1;
  snapshot.result_cache_evictions = 2;
  snapshot.result_cache_entries = 7;
  snapshot.result_cache_bytes = 4096;

  const std::string text = snapshot.ToString();
  EXPECT_NE(text.find("caching:"), std::string::npos) << text;
  EXPECT_NE(text.find("3 hits / 1 misses / 2 evictions"), std::string::npos) << text;

  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"result_cache\":{\"hits\":3,\"misses\":1,\"evictions\":2,"
                      "\"entries\":7,\"bytes\":4096}"),
            std::string::npos)
      << json;
}

TEST(ServiceMetricsTest, LatencySnapshotMatchesAggregates) {
  ServiceMetrics metrics;
  metrics.RecordQuery(10, CounterWith(0, 0), StatusCode::kOk, true);
  metrics.RecordQuery(30, CounterWith(0, 0), StatusCode::kOk, true);
  const LatencyHistogram latency = metrics.LatencySnapshot();
  EXPECT_EQ(latency.count(), 2u);
  EXPECT_EQ(latency.sum(), 40u);
  EXPECT_EQ(latency.min(), 10u);
  EXPECT_EQ(latency.max(), 30u);
}

TEST(ServiceMetricsTest, RobustnessBreakdownCountsByFinalStatus) {
  ServiceMetrics metrics;
  metrics.RecordQuery(10, CounterWith(1, 0), StatusCode::kOk, /*found=*/true);
  metrics.RecordQuery(10, CounterWith(1, 0), StatusCode::kCancelled, /*found=*/false);
  metrics.RecordQuery(10, CounterWith(1, 0), StatusCode::kCancelled, /*found=*/false);
  metrics.RecordQuery(10, CounterWith(1, 0), StatusCode::kDeadlineExceeded, /*found=*/false);
  metrics.RecordQuery(10, CounterWith(1, 0), StatusCode::kIoError, /*found=*/false);
  metrics.RecordShed();
  metrics.RecordRetry();
  metrics.RecordRetry();
  metrics.RecordRetry();

  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.queries, 5u);
  EXPECT_EQ(snapshot.ok(), 1u);
  EXPECT_EQ(snapshot.cancelled, 2u);
  EXPECT_EQ(snapshot.deadline_exceeded, 1u);
  EXPECT_EQ(snapshot.io_errors, 1u);
  EXPECT_EQ(snapshot.failures, snapshot.cancelled + snapshot.deadline_exceeded +
                                   snapshot.io_errors);
  EXPECT_EQ(snapshot.shed, 1u);
  EXPECT_EQ(snapshot.retries, 3u);
  // Shed requests never execute, so they are outside the query count.
  EXPECT_EQ(snapshot.ok() + snapshot.failures, snapshot.queries);

  const std::string report = snapshot.ToString();
  EXPECT_NE(report.find("robustness:"), std::string::npos) << report;

  metrics.Reset();
  const MetricsSnapshot zero = metrics.Snapshot();
  EXPECT_EQ(zero.cancelled, 0u);
  EXPECT_EQ(zero.deadline_exceeded, 0u);
  EXPECT_EQ(zero.io_errors, 0u);
  EXPECT_EQ(zero.shed, 0u);
  EXPECT_EQ(zero.retries, 0u);
}

TEST(ServiceMetricsTest, ToJsonRendersEverySectionAsValidKeyValues) {
  ServiceMetrics metrics;
  metrics.RecordQuery(100, CounterWith(3, 5), StatusCode::kOk, /*found=*/true);
  metrics.RecordQuery(200, CounterWith(2, 7), StatusCode::kOk, /*found=*/false);
  metrics.RecordSlowQuery();
  metrics.RecordQueueDepth(4);
  const std::string json = metrics.Snapshot().ToJson();

  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"queries\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"failures\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"not_found\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"slow_queries\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_queue_depth\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cancelled\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"deadline_exceeded\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"io_errors\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shed\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"retries\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_seconds\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"qps\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"traversal\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"window\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total\":17"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
}

}  // namespace
}  // namespace nwc
