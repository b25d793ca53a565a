// Shard scaling: routed NWC throughput vs shard count x per-shard workers.
//
// The sharded deployment model is one QueryService (own worker pool, own
// tree) per Z-order range shard behind a routing coordinator — ROADMAP
// item 4's answer to the one-process-one-tree ceiling. This driver sweeps
// 1/2/4/8 shards x 1/2/4 workers per shard over an 80/20-skewed NWC
// stream in two regimes:
//
//   cpu-bound      raw in-memory traversal. Scaling here tracks spare
//                  cores: on a single-core host the sweep mostly measures
//                  the router's dispatch overhead (expect ~flat).
//   storage-bound  every node read pays a fixed modeled I/O stall,
//                  injected through the storage fault hook
//                  (FaultPlan::LatencySpike — latency only, no failures).
//                  Throughput is then bounded by in-flight I/O, which is
//                  exactly what adding shards multiplies: near-linear
//                  scaling even on one core, matching the disk/network
//                  backed deployments sharding exists for.
//
// A kNWC section reports the scatter-gather tax: kNWC fans out to every
// shard, so per-query work grows with shard count while added workers pull
// the other way — worth seeing plainly rather than inferring.
//
// Every routed stream is spot-checked bit-exact against an unsharded
// single-tree oracle on the distinct query pool before any timing is
// trusted.
//
// `--smoke` runs the CI gate instead: best-of-3 storage-bound qps for
// 4 shards x 2 workers vs 1 shard x 2 workers on the skew workload
// (routers identical except shard count, same modeled stall, same router
// thread budget). The gate fails (exit 1) unless the 4-shard router
// reaches >= 2x the single-shard throughput or any probe diverges from
// the oracle.

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#include "bench/bench_common.h"
#include "bench_util/table_printer.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "rtree/bulk_load.h"
#include "service/query_service.h"
#include "service/session.h"
#include "service/shard_router.h"

namespace {

using namespace nwc;
using namespace nwc::bench;

constexpr double kWindow = 120.0;
constexpr size_t kGroupSize = 5;
constexpr double kMaxWindowBound = 400.0;
constexpr uint64_t kStallMicros = 300;  // modeled I/O stall per node read

std::vector<NwcRequest> DistinctPool(const Dataset& dataset, size_t size) {
  const std::vector<Point> points = SampleQueryPointsNearData(dataset, size, kQuerySeed + 3);
  std::vector<NwcRequest> pool;
  pool.reserve(points.size());
  for (const Point& q : points) {
    pool.push_back(NwcRequest{NwcQuery{q, kWindow, kWindow, kGroupSize}, {}});
  }
  return pool;
}

/// 80/20 skew: 80% of draws hit the hot 20% of the pool — the shape of
/// repeat traffic; there is no result cache in this bench, so repeats
/// still pay their reads (cold storage-bound serving).
std::vector<NwcRequest> SkewedDraws(const std::vector<NwcRequest>& pool, size_t draws,
                                    uint64_t seed) {
  const size_t hot = pool.size() / 5;
  Rng rng(seed);
  std::vector<NwcRequest> stream;
  stream.reserve(draws);
  for (size_t i = 0; i < draws; ++i) {
    const bool is_hot = rng.NextDouble(0.0, 1.0) < 0.8 && hot > 0;
    const size_t index =
        is_hot ? rng.NextUint64(hot) : hot + rng.NextUint64(pool.size() - hot);
    stream.push_back(pool[index]);
  }
  return stream;
}

ShardRouterConfig MakeRouterConfig(size_t shards, size_t workers, bool storage_bound,
                                   size_t stream_size) {
  ShardRouterConfig config;
  config.num_shards = shards;
  config.max_window_length = kMaxWindowBound;
  config.max_window_width = kMaxWindowBound;
  config.service.num_threads = workers;
  config.service.queue_capacity = 1024;
  if (storage_bound) config.service.fault_plan = FaultPlan::LatencySpike(1, kStallMicros);
  config.router_threads = 16;  // dispatch must never be the bottleneck
  config.router_queue_capacity = 2 * stream_size + 1;
  return config;
}

/// Closed-loop replay of `stream` through the router's async submit path;
/// returns wall seconds for the whole stream (all responses OK-checked).
double ReplayRouted(ShardRouter& router, const std::vector<NwcRequest>& stream) {
  std::atomic<size_t> remaining{stream.size()};
  std::mutex mu;
  std::condition_variable cv;
  Stopwatch wall;
  for (const NwcRequest& request : stream) {
    router.SubmitNwcAsync(request, [&](NwcResponse response) {
      CheckOk(response.status, "shard_scaling routed query");
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining.load(std::memory_order_acquire) == 0; });
  return wall.ElapsedSeconds();
}

double BestQps(ShardRouter& router, const std::vector<NwcRequest>& stream, int reps) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double seconds = ReplayRouted(router, stream);
    const double qps = seconds > 0.0 ? static_cast<double>(stream.size()) / seconds : 0.0;
    if (qps > best) best = qps;
  }
  return best;
}

/// Every distinct pool query routed through `router` must answer exactly
/// what the unsharded single-tree oracle answers. Returns the number of
/// divergent probes (0 == bit-exact).
size_t ProbeBitExact(ShardRouter& router, QueryService& oracle,
                     const std::vector<NwcRequest>& pool) {
  size_t divergent = 0;
  for (const NwcRequest& request : pool) {
    const NwcResponse routed = router.RouteNwc(request);
    const NwcResponse expected = oracle.SubmitNwc(request).get();
    bool same = routed.status.code() == expected.status.code() &&
                routed.result.found == expected.result.found;
    if (same && expected.result.found) {
      same = routed.result.distance == expected.result.distance &&
             routed.result.objects.size() == expected.result.objects.size();
      for (size_t i = 0; same && i < expected.result.objects.size(); ++i) {
        same = routed.result.objects[i].id == expected.result.objects[i].id &&
               routed.result.objects[i].pos.x == expected.result.objects[i].pos.x &&
               routed.result.objects[i].pos.y == expected.result.objects[i].pos.y;
      }
    }
    if (!same) ++divergent;
  }
  return divergent;
}

int RunSmoke() {
  std::printf("shard_scaling --smoke: storage-bound 4-shard vs single-shard gate\n");
  Dataset dataset = MakeCaLike(kDatasetSeed, 20000);

  // The 4-shard router is built first so the query pool can be
  // shard-stratified: equal owner-shard representation, hot set included
  // (round-robin interleave). Partition-balanced traffic is the operating
  // point sharding targets; the per-shard load line below keeps the
  // balance honest in the output.
  Result<std::unique_ptr<ShardRouter>> router4 = ShardRouter::Open(
      dataset.objects, MakeRouterConfig(4, /*workers=*/2, /*storage_bound=*/true, 721));
  CheckOk(router4.status(), "ShardRouter::Open");
  const std::vector<Point> candidates = SampleQueryPointsNearData(dataset, 400, kQuerySeed + 3);
  constexpr size_t kPerShard = 16;
  std::vector<std::vector<Point>> buckets(4);
  for (const Point& p : candidates) {
    std::vector<Point>& bucket = buckets[(*router4)->OwnerShard(p)];
    if (bucket.size() < kPerShard) bucket.push_back(p);
  }
  std::vector<NwcRequest> pool;
  for (size_t i = 0; i < kPerShard; ++i) {
    for (size_t s = 0; s < buckets.size(); ++s) {
      if (i < buckets[s].size()) {
        pool.push_back(NwcRequest{NwcQuery{buckets[s][i], kWindow, kWindow, kGroupSize}, {}});
      }
    }
  }
  const std::vector<NwcRequest> stream = SkewedDraws(pool, 360, kQuerySeed + 11);

  Result<Session> oracle_session =
      Session::Open(BulkLoadStr(dataset.objects, RTreeOptions{}),
                    SessionConfig{.grid_space = dataset.space});
  CheckOk(oracle_session.status(), "Session::Open");
  ServiceConfig oracle_config;
  oracle_config.num_threads = 2;
  QueryService oracle(*oracle_session, oracle_config);

  Result<std::unique_ptr<ShardRouter>> router1 = ShardRouter::Open(
      dataset.objects,
      MakeRouterConfig(1, /*workers=*/2, /*storage_bound=*/true, stream.size()));
  CheckOk(router1.status(), "ShardRouter::Open");

  double qps[2] = {0.0, 0.0};
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    std::unique_ptr<ShardRouter>& router = shards == 4 ? *router4 : *router1;
    const size_t divergent = ProbeBitExact(*router, oracle, pool);
    if (divergent > 0) {
      std::fprintf(stderr, "FAIL: %zu of %zu probes diverged from the single-tree oracle\n",
                   divergent, pool.size());
      return 1;
    }
    const double best = BestQps(*router, stream, 3);
    const MetricsSnapshot metrics = router->SnapshotMetrics();
    std::vector<uint64_t> executions(shards);
    uint64_t total_executions = 0;
    for (size_t s = 0; s < shards; ++s) {
      executions[s] = router->ShardMetrics(s).queries;
      total_executions += executions[s];
    }
    std::printf("%zu shard(s) x 2 workers: %.1f q/s (stall %lluus/read, %zu queries)\n",
                shards, best, static_cast<unsigned long long>(kStallMicros), stream.size());
    std::printf("  shard executions/query: %.2f, node reads/query: %.1f, per-shard load:",
                static_cast<double>(total_executions) / static_cast<double>(metrics.queries),
                static_cast<double>(metrics.total_reads()) /
                    static_cast<double>(metrics.queries));
    for (const uint64_t count : executions) {
      std::printf(" %llu", static_cast<unsigned long long>(count));
    }
    std::printf("\n");
    qps[shards == 1 ? 0 : 1] = best;
  }

  const double speedup = qps[0] > 0.0 ? qps[1] / qps[0] : 0.0;
  std::printf("speedup: %.2fx (gate: >= 2.00x)\n", speedup);
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: 4-shard speedup %.2fx under the 2x gate\n", speedup);
    return 1;
  }
  std::printf("PASS: 4-shard routing clears the 2x storage-bound gate, probes bit-exact\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
    std::fprintf(stderr, "unknown flag %s (supported: --smoke)\n", argv[i]);
    return 2;
  }

  PrintRunConfig("Shard scaling: routed NWC qps vs shards x workers (CA-like)");
  const size_t draws = QueryCountFromEnv() * 8;
  Dataset dataset = MakeCaLike(kDatasetSeed, ScaledCardinality(62556));
  Progress("building %s (%zu objects)", dataset.name.c_str(), dataset.size());
  const std::vector<NwcRequest> pool = DistinctPool(dataset, 60);
  const std::vector<NwcRequest> stream = SkewedDraws(pool, draws, kQuerySeed + 11);

  Result<Session> oracle_session =
      Session::Open(BulkLoadStr(dataset.objects, RTreeOptions{}),
                    SessionConfig{.grid_space = dataset.space});
  CheckOk(oracle_session.status(), "Session::Open");
  ServiceConfig oracle_config;
  oracle_config.num_threads = 2;
  QueryService oracle(*oracle_session, oracle_config);

  TablePrinter table("Shard scaling - routed NWC queries/sec",
                     {"regime", "shards", "workers/shard", "qps", "p50_us", "p95_us"});
  TablePrinter csv("Shard scaling (CSV series)",
                   {"regime", "shards", "workers_per_shard", "queries", "qps", "p50_us",
                    "p95_us", "node_reads", "resident_objects"});

  for (const bool storage_bound : {false, true}) {
    const char* regime = storage_bound ? "storage-bound" : "cpu-bound";
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
        Result<std::unique_ptr<ShardRouter>> router = ShardRouter::Open(
            dataset.objects, MakeRouterConfig(shards, workers, storage_bound, stream.size()));
        CheckOk(router.status(), "ShardRouter::Open");
        const size_t divergent = ProbeBitExact(**router, oracle, pool);
        if (divergent > 0) {
          std::fprintf(stderr, "FAIL: %zu probes diverged at %zu shards\n", divergent, shards);
          return 1;
        }
        const double seconds = ReplayRouted(**router, stream);
        const double qps =
            seconds > 0.0 ? static_cast<double>(stream.size()) / seconds : 0.0;
        const MetricsSnapshot metrics = (*router)->SnapshotMetrics();
        size_t resident = 0;
        for (size_t s = 0; s < shards; ++s) resident += (*router)->shard_resident_count(s);
        Progress("%s shards=%zu workers=%zu: %.1f q/s, p95=%llu us", regime, shards, workers,
                 qps, static_cast<unsigned long long>(metrics.latency_p95_us));
        table.AddRow({regime, StrFormat("%zu", shards), StrFormat("%zu", workers),
                      StrFormat("%.1f", qps),
                      StrFormat("%llu", static_cast<unsigned long long>(metrics.latency_p50_us)),
                      StrFormat("%llu", static_cast<unsigned long long>(metrics.latency_p95_us))});
        csv.AddRow({regime, StrFormat("%zu", shards), StrFormat("%zu", workers),
                    StrFormat("%zu", stream.size()), StrFormat("%.1f", qps),
                    StrFormat("%llu", static_cast<unsigned long long>(metrics.latency_p50_us)),
                    StrFormat("%llu", static_cast<unsigned long long>(metrics.latency_p95_us)),
                    StrFormat("%llu", static_cast<unsigned long long>(metrics.total_reads())),
                    StrFormat("%zu", resident)});
      }
    }
  }
  table.Print();
  csv.WriteCsv(CsvPath("shard_scaling.csv"));

  // kNWC scatter tax: every kNWC fans out to all shards, so shard count
  // raises per-query work while the added workers absorb it — report the
  // net rather than letting the NWC numbers imply it.
  TablePrinter knwc_table("kNWC scatter-gather - storage-bound, 2 workers/shard",
                          {"shards", "qps", "p95_us"});
  std::vector<KnwcRequest> knwc_stream;
  for (size_t i = 0; i < pool.size(); ++i) {
    KnwcRequest request;
    request.query.base = pool[i].query;
    request.query.k = 3;
    request.query.m = 2;
    knwc_stream.push_back(request);
  }
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Result<std::unique_ptr<ShardRouter>> router = ShardRouter::Open(
        dataset.objects,
        MakeRouterConfig(shards, /*workers=*/2, /*storage_bound=*/true, knwc_stream.size()));
    CheckOk(router.status(), "ShardRouter::Open");
    Stopwatch wall;
    for (const KnwcRequest& request : knwc_stream) {
      CheckOk((*router)->RouteKnwc(request).status, "shard_scaling kNWC query");
    }
    const double seconds = wall.ElapsedSeconds();
    const double qps =
        seconds > 0.0 ? static_cast<double>(knwc_stream.size()) / seconds : 0.0;
    const MetricsSnapshot metrics = (*router)->SnapshotMetrics();
    Progress("kNWC shards=%zu: %.1f q/s", shards, qps);
    knwc_table.AddRow({StrFormat("%zu", shards), StrFormat("%.1f", qps),
                       StrFormat("%llu",
                                 static_cast<unsigned long long>(metrics.latency_p95_us))});
  }
  knwc_table.Print();
  return 0;
}
