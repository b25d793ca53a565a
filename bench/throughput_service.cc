// Service throughput trajectory: queries/sec vs worker-thread count.
//
// This is the repo's first serving-scale benchmark (no paper counterpart):
// it replays a fixed set of NWC queries through the concurrent
// QueryService at thread counts 1, 2, 4 and 8 for every optimization
// preset of Table 3, reporting throughput, aggregate latency quantiles
// (p50/p95/p99 from the service histogram) and merged per-phase I/O.
// Because the index stack is immutable and all mutable state is
// per-query, throughput should scale near-linearly until the machine's
// cores saturate — deviations localize contention.
//
// Honors NWC_SCALE / NWC_QUERIES like every other driver; the query count
// per configuration is 8x NWC_QUERIES (default 200 = 8 * 25) so the
// histogram quantiles rest on a meaningful sample.
//
// A final section measures the observability tax: NWC* at 4 threads with
// per-query tracing off vs armed (spans recorded, every trace retained in
// the ring). Disabled tracing is one branch per record site and must not
// move throughput measurably; the armed figure bounds what "trace every
// slow query" costs in the worst case (threshold 0 = every query is slow).
//
// A robustness-overhead section does the same for the query control: no
// deadline (disarmed control, one branch per checkpoint) vs a 1-second
// deadline no query ever hits (armed control: a steady_clock read per
// checkpoint). The disarmed figure must stay within noise of the tracing
// baseline; the armed figure is the price of "every query has a deadline".
//
// A caching section replays an 80/20-skewed workload (20% of a query pool
// receives 80% of the draws — the shape of real repeat traffic) uncached
// and through a 64 MiB result cache, reporting qps, speedup over uncached,
// and the cache hit rate.
//
// `--smoke` runs a small fixed gate instead (used by CI): best-of-3 qps
// uncached vs cached-all-miss on distinct queries. An all-miss workload
// pays the cache's full probe+insert overhead with zero benefit, so it
// bounds the regression the cache can inflict on uncached-style traffic;
// the gate fails (exit 1) when that overhead exceeds 10%. One untimed
// pass of each arm warms the process first, the uncached and cached reps
// then alternate (so drift on the host hits both arms alike), and each rep
// runs for at least one second.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>

#include "bench/bench_common.h"
#include "bench_util/table_printer.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "rtree/bulk_load.h"
#include "service/query_service.h"

namespace {

using namespace nwc;
using namespace nwc::bench;

// Seconds to run all of `requests` once through a fresh service (fresh so
// a result cache starts cold every time and an all-miss workload stays
// all-miss; starting the workers is not timed).
double TimedPass(const Session& session, const ServiceConfig& config,
                 const std::vector<NwcRequest>& requests) {
  QueryService service(session, config);
  Stopwatch wall;
  const std::vector<NwcResponse> responses = service.RunNwcBatch(requests);
  const double seconds = wall.ElapsedSeconds();
  for (const NwcResponse& response : responses) {
    CheckOk(response.status, "throughput_service smoke query");
  }
  return seconds;
}

// One timed rep: passes over `requests` until at least `min_seconds` of
// query time has accumulated; returns the rep's qps.
double RepQps(const Session& session, const ServiceConfig& config,
              const std::vector<NwcRequest>& requests, double min_seconds) {
  double seconds = 0.0;
  size_t queries = 0;
  while (seconds < min_seconds) {
    seconds += TimedPass(session, config, requests);
    queries += requests.size();
  }
  return static_cast<double>(queries) / seconds;
}

// CI gate: the result-cache code path must not tax uncached-style traffic.
int RunSmoke() {
  std::printf("throughput_service --smoke: uncached vs cached-all-miss gate\n");
  Dataset dataset = MakeCaLike(kDatasetSeed, 20000);
  Result<Session> session =
      Session::Open(BulkLoadStr(dataset.objects, RTreeOptions{}),
                    SessionConfig{.grid_cell_size = 25.0, .grid_space = dataset.space});
  CheckOk(session.status(), "Session::Open");

  // 200 distinct queries: through a cache every one is a probe + miss +
  // insert, the cache's worst case.
  const std::vector<Point> points = SampleQueryPoints(dataset, 200, kQuerySeed);
  std::vector<NwcRequest> requests;
  requests.reserve(points.size());
  for (const Point& q : points) {
    requests.push_back(NwcRequest{NwcQuery{q, kDefaultWindow, kDefaultWindow, kDefaultN}, {}});
  }

  ServiceConfig config;
  config.num_threads = 2;
  config.queue_capacity = 2 * requests.size() + 1;
  config.default_options = NwcOptions::Star();

  ServiceConfig cached_config = config;
  cached_config.result_cache_bytes = 64u << 20;

  TimedPass(*session, config, requests);  // untimed warm pass, both arms
  TimedPass(*session, cached_config, requests);
  double uncached = 0.0;
  double cached = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    uncached = std::max(uncached, RepQps(*session, config, requests, 1.0));
    cached = std::max(cached, RepQps(*session, cached_config, requests, 1.0));
  }

  const double ratio = uncached > 0.0 ? cached / uncached : 1.0;
  std::printf("uncached:        %.1f q/s\ncached all-miss: %.1f q/s\nratio:           %.3f\n",
              uncached, cached, ratio);
  if (ratio < 0.9) {
    std::fprintf(stderr,
                 "FAIL: result-cache overhead regressed uncached qps by %.1f%% (>10%%)\n",
                 (1.0 - ratio) * 100.0);
    return 1;
  }
  std::printf("PASS: cache overhead within the 10%% budget\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
    std::fprintf(stderr, "unknown flag %s (supported: --smoke)\n", argv[i]);
    return 2;
  }

  PrintRunConfig("Service throughput: NWC queries/sec vs worker threads (CA-like)");
  const size_t query_count = QueryCountFromEnv() * 8;
  const size_t kThreadCounts[] = {1, 2, 4, 8};

  Dataset dataset = MakeCaLike(kDatasetSeed, ScaledCardinality(62556));
  Progress("building %s (%zu objects)", dataset.name.c_str(), dataset.size());
  const std::vector<Point> points = SampleQueryPoints(dataset, query_count, kQuerySeed);
  const Rect space = dataset.space;

  Result<Session> session =
      Session::Open(BulkLoadStr(dataset.objects, RTreeOptions{}),
                    SessionConfig{.grid_cell_size = 25.0, .grid_space = space});
  CheckOk(session.status(), "Session::Open");

  std::vector<NwcRequest> requests;
  requests.reserve(points.size());
  for (const Point& q : points) {
    requests.push_back(NwcRequest{NwcQuery{q, kDefaultWindow, kDefaultWindow, kDefaultN}, {}});
  }

  TablePrinter table("Service throughput - queries/sec | p95 latency (us)",
                     {"scheme", "1 thread", "2 threads", "4 threads", "8 threads"});
  TablePrinter csv("Service throughput (CSV series)",
                   {"scheme", "threads", "queries", "qps", "p50_us", "p95_us", "p99_us",
                    "traversal_reads", "window_reads"});

  for (const Scheme& scheme : AllSchemes()) {
    std::vector<std::string> row{scheme.name};
    for (const size_t threads : kThreadCounts) {
      ServiceConfig config;
      config.num_threads = threads;
      config.queue_capacity = 2 * query_count + 1;  // no backpressure: measure workers
      config.default_options = scheme.options;
      QueryService service(*session, config);

      Stopwatch wall;
      const std::vector<NwcResponse> responses = service.RunNwcBatch(requests);
      const double seconds = wall.ElapsedSeconds();
      for (const NwcResponse& response : responses) {
        CheckOk(response.status, "throughput_service query");
      }
      const MetricsSnapshot metrics = service.SnapshotMetrics();
      const double qps =
          seconds > 0.0 ? static_cast<double>(responses.size()) / seconds : 0.0;
      Progress("%s threads=%zu: %.1f q/s, p50=%llu p95=%llu p99=%llu us, %llu reads",
               scheme.name.c_str(), threads, qps,
               static_cast<unsigned long long>(metrics.latency_p50_us),
               static_cast<unsigned long long>(metrics.latency_p95_us),
               static_cast<unsigned long long>(metrics.latency_p99_us),
               static_cast<unsigned long long>(metrics.total_reads()));
      row.push_back(StrFormat("%.0f | %llu", qps,
                              static_cast<unsigned long long>(metrics.latency_p95_us)));
      csv.AddRow({scheme.name, StrFormat("%zu", threads), StrFormat("%zu", responses.size()),
                  StrFormat("%.1f", qps),
                  StrFormat("%llu", static_cast<unsigned long long>(metrics.latency_p50_us)),
                  StrFormat("%llu", static_cast<unsigned long long>(metrics.latency_p95_us)),
                  StrFormat("%llu", static_cast<unsigned long long>(metrics.latency_p99_us)),
                  StrFormat("%llu", static_cast<unsigned long long>(metrics.traversal_reads)),
                  StrFormat("%llu", static_cast<unsigned long long>(metrics.window_query_reads))});
    }
    table.AddRow(std::move(row));
  }

  table.Print();
  csv.WriteCsv(CsvPath("throughput_service.csv"));

  // Tracing overhead: NWC* at 4 threads, tracing disabled vs armed.
  TablePrinter overhead("Tracing overhead - NWC*, 4 threads",
                        {"tracing", "qps", "p50_us", "p95_us", "retained traces"});
  for (const bool traced : {false, true}) {
    ServiceConfig config;
    config.num_threads = 4;
    config.queue_capacity = 2 * query_count + 1;
    config.default_options = NwcOptions::Star();
    config.trace_slow_queries = traced;
    config.slow_trace_us = 0;  // worst case: retain every trace
    config.trace_ring_capacity = 64;
    QueryService service(*session, config);

    Stopwatch wall;
    const std::vector<NwcResponse> responses = service.RunNwcBatch(requests);
    const double seconds = wall.ElapsedSeconds();
    for (const NwcResponse& response : responses) {
      CheckOk(response.status, "throughput_service traced query");
    }
    const MetricsSnapshot metrics = service.SnapshotMetrics();
    const double qps = seconds > 0.0 ? static_cast<double>(responses.size()) / seconds : 0.0;
    Progress("tracing=%s: %.1f q/s, p50=%llu p95=%llu us", traced ? "on" : "off", qps,
             static_cast<unsigned long long>(metrics.latency_p50_us),
             static_cast<unsigned long long>(metrics.latency_p95_us));
    overhead.AddRow({traced ? "armed (slow-us=0)" : "off", StrFormat("%.1f", qps),
                     StrFormat("%llu", static_cast<unsigned long long>(metrics.latency_p50_us)),
                     StrFormat("%llu", static_cast<unsigned long long>(metrics.latency_p95_us)),
                     StrFormat("%zu", service.SlowTraces().size())});
  }
  overhead.Print();

  // Robustness overhead: NWC* at 4 threads, no deadline (disarmed
  // controls) vs a 1-second deadline that no query reaches (armed
  // controls paying a clock read per checkpoint).
  TablePrinter robustness("Robustness overhead - NWC*, 4 threads",
                          {"deadline", "qps", "p50_us", "p95_us", "deadline_exceeded"});
  for (const bool armed : {false, true}) {
    ServiceConfig config;
    config.num_threads = 4;
    config.queue_capacity = 2 * query_count + 1;
    config.default_options = NwcOptions::Star();
    config.default_deadline_micros = armed ? 1000000 : 0;
    QueryService service(*session, config);

    Stopwatch wall;
    const std::vector<NwcResponse> responses = service.RunNwcBatch(requests);
    const double seconds = wall.ElapsedSeconds();
    for (const NwcResponse& response : responses) {
      CheckOk(response.status, "throughput_service deadline query");
    }
    const MetricsSnapshot metrics = service.SnapshotMetrics();
    const double qps = seconds > 0.0 ? static_cast<double>(responses.size()) / seconds : 0.0;
    Progress("deadline=%s: %.1f q/s, p50=%llu p95=%llu us", armed ? "1s" : "off", qps,
             static_cast<unsigned long long>(metrics.latency_p50_us),
             static_cast<unsigned long long>(metrics.latency_p95_us));
    robustness.AddRow(
        {armed ? "1 s (armed, never hit)" : "off", StrFormat("%.1f", qps),
         StrFormat("%llu", static_cast<unsigned long long>(metrics.latency_p50_us)),
         StrFormat("%llu", static_cast<unsigned long long>(metrics.latency_p95_us)),
         StrFormat("%llu", static_cast<unsigned long long>(metrics.deadline_exceeded))});
  }
  robustness.Print();

  // Caching under skew: an 80/20 workload (80% of draws from a hot 20% of
  // the pool) replayed uncached and cached. The cache serves repeats with
  // zero tree reads, so qps should multiply with the hit rate.
  const size_t pool_size = 50;
  const size_t hot_size = pool_size / 5;  // hot 20%
  const std::vector<Point> pool_points = SampleQueryPoints(dataset, pool_size, kQuerySeed + 7);
  std::vector<NwcRequest> pool;
  pool.reserve(pool_points.size());
  for (const Point& q : pool_points) {
    pool.push_back(NwcRequest{NwcQuery{q, kDefaultWindow, kDefaultWindow, kDefaultN}, {}});
  }
  std::vector<NwcRequest> skewed;
  Rng skew_rng(kQuerySeed + 11);
  const size_t draws = 4 * query_count;  // several passes over the pool
  for (size_t i = 0; i < draws; ++i) {
    const bool hot = skew_rng.NextDouble(0.0, 1.0) < 0.8;
    const size_t index = hot ? skew_rng.NextUint64(hot_size)
                             : hot_size + skew_rng.NextUint64(pool_size - hot_size);
    skewed.push_back(pool[index]);
  }

  TablePrinter caching("Result cache on 80/20 skew - NWC*, 4 threads",
                       {"mode", "qps", "speedup", "hit rate"});
  double uncached_qps = 0.0;
  for (const bool cached : {false, true}) {
    ServiceConfig config;
    config.num_threads = 4;
    config.queue_capacity = 2 * skewed.size() + 1;
    config.default_options = NwcOptions::Star();
    if (cached) config.result_cache_bytes = 64u << 20;
    QueryService service(*session, config);

    Stopwatch wall;
    const std::vector<NwcResponse> responses = service.RunNwcBatch(skewed);
    for (const NwcResponse& response : responses) {
      CheckOk(response.status, "throughput_service skew query");
    }
    const double seconds = wall.ElapsedSeconds();

    const MetricsSnapshot metrics = service.SnapshotMetrics();
    const double qps = seconds > 0.0 ? static_cast<double>(skewed.size()) / seconds : 0.0;
    if (!cached) uncached_qps = qps;
    const uint64_t probes = metrics.result_cache_hits + metrics.result_cache_misses;
    const double hit_rate =
        probes > 0 ? static_cast<double>(metrics.result_cache_hits) / probes : 0.0;
    const char* label = cached ? "cached 64MB" : "uncached";
    Progress("%s: %.1f q/s (%.2fx), hit rate %.0f%%", label, qps,
             uncached_qps > 0.0 ? qps / uncached_qps : 0.0, hit_rate * 100.0);
    caching.AddRow({label, StrFormat("%.1f", qps),
                    StrFormat("%.2fx", uncached_qps > 0.0 ? qps / uncached_qps : 0.0),
                    StrFormat("%.0f%%", hit_rate * 100.0)});
  }
  caching.Print();
  return 0;
}
