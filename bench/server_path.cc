// Server-path cost: loopback TCP serving vs in-process execution.
//
// The epoll serving layer (src/net/) adds framing, two socket hops, and
// an event-loop handoff around every query. This driver prices that
// path: for worker counts 1, 2, 4 and 8 it first replays a fixed NWC
// workload in-process through QueryService::RunNwcBatch (the serve-batch
// path: no sockets, futures harvested inline), then serves the same
// session over loopback TCP and drives it with the open-loop load
// generator at a rate below the in-process capacity, reporting achieved
// q/s, client-observed p50/p95/p99, and the per-query overhead (server
// p50 minus in-process p50 at the same worker count).
//
// Open-loop discipline means latencies include any queueing the server
// causes; the offered rate is deliberately set to ~60% of the measured
// in-process capacity (capped) so the numbers characterize the serving
// layer, not a saturated queue.
//
// Honors NWC_SCALE / NWC_QUERIES; the workload is 8x NWC_QUERIES queries
// (default 200) so the in-process quantiles rest on a real sample.
//
// `--smoke` runs the trace-overhead gate instead of the full sweep:
// best-of-3 loopback runs with the trace bit off and on, failing (exit 1)
// when the traced path loses more than 10% throughput against untraced —
// the CI guard for "tracing is free when off, cheap when on".

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "bench/bench_common.h"
#include "bench_util/table_printer.h"
#include "common/string_util.h"
#include "net/load_gen.h"
#include "net/server.h"
#include "rtree/bulk_load.h"
#include "service/query_service.h"

namespace {

using namespace nwc;
using namespace nwc::bench;

// The generator's poll loop is single-threaded; past a few thousand q/s
// on one core it would itself become the bottleneck and understate the
// server. Cap the offered rate where the generator stays honest.
constexpr double kMaxOfferedQps = 4000.0;

// --smoke: traced throughput must stay within this fraction of untraced.
constexpr double kSmokeTolerance = 0.10;

// One loopback run against a fresh server, returning the report.
LoadGenReport RunServedOnce(const Session& session, const ServiceConfig& config,
                            const std::vector<WorkloadEntry>& workload, double offered_qps,
                            double duration_seconds, bool trace) {
  QueryService service(session, config);
  Result<std::unique_ptr<NetServer>> server = NetServer::Start(service, NetServerConfig());
  CheckOk(server.status(), "NetServer::Start");
  LoadGenConfig load;
  load.port = (*server)->port();
  load.target_qps = offered_qps;
  load.connections = 4;
  load.pipeline_depth = 32;
  load.duration_seconds = duration_seconds;
  load.trace = trace;
  const Result<LoadGenReport> report = RunLoadGen(load, workload);
  CheckOk(report.status(), "RunLoadGen");
  (*server)->RequestDrain();
  (*server)->Wait();
  return *report;
}

int RunSmoke() {
  PrintRunConfig("Server path --smoke: trace-bit overhead gate (best of 3, 10% tolerance)");
  Dataset dataset = MakeCaLike(kDatasetSeed, ScaledCardinality(20000));
  Result<Session> session =
      Session::Open(BulkLoadStr(dataset.objects, RTreeOptions{}),
                    SessionConfig{.grid_cell_size = 25.0, .grid_space = dataset.space});
  CheckOk(session.status(), "Session::Open");

  const std::vector<Point> points = SampleQueryPoints(dataset, 256, kQuerySeed);
  std::vector<WorkloadEntry> workload;
  workload.reserve(points.size());
  for (const Point& q : points) {
    WorkloadEntry entry;
    entry.is_knwc = false;
    entry.nwc = NwcQuery{q, kDefaultWindow, kDefaultWindow, kDefaultN};
    workload.push_back(entry);
  }

  ServiceConfig config;
  config.num_threads = 2;
  config.queue_capacity = 1024;
  config.default_options = NwcOptions::Star();

  // Best-of-3 each way: the max damps scheduler noise the same way the
  // throughput_service smoke gate does.
  double untraced_qps = 0.0;
  double traced_qps = 0.0;
  LoadGenReport traced_report;
  for (int round = 0; round < 3; ++round) {
    const LoadGenReport untraced =
        RunServedOnce(*session, config, workload, kMaxOfferedQps, 1.0, /*trace=*/false);
    const LoadGenReport traced =
        RunServedOnce(*session, config, workload, kMaxOfferedQps, 1.0, /*trace=*/true);
    Progress("round %d: untraced %.0f q/s p50=%llu us; traced %.0f q/s p50=%llu us", round,
             untraced.achieved_qps, static_cast<unsigned long long>(untraced.p50_micros),
             traced.achieved_qps, static_cast<unsigned long long>(traced.p50_micros));
    untraced_qps = std::max(untraced_qps, untraced.achieved_qps);
    if (traced.achieved_qps > traced_qps) {
      traced_qps = traced.achieved_qps;
      traced_report = traced;
    }
  }

  std::printf("untraced %.0f q/s, traced %.0f q/s (%.1f%%); traced split: network p50 %llu us, "
              "queue p50 %llu us, execute p50 %llu us\n",
              untraced_qps, traced_qps,
              untraced_qps > 0.0 ? 100.0 * traced_qps / untraced_qps : 0.0,
              static_cast<unsigned long long>(traced_report.net_p50_micros),
              static_cast<unsigned long long>(traced_report.queue_p50_micros),
              static_cast<unsigned long long>(traced_report.exec_p50_micros));
  if (traced_report.traced == 0) {
    std::printf("FAIL: traced run returned no ServerTiming annotations\n");
    return 1;
  }
  if (traced_qps < (1.0 - kSmokeTolerance) * untraced_qps) {
    std::printf("FAIL: tracing costs more than %.0f%% throughput\n", 100.0 * kSmokeTolerance);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return RunSmoke();
  PrintRunConfig("Server path: loopback TCP vs in-process serve-batch (CA-like, NWC*)");
  const size_t query_count = QueryCountFromEnv() * 8;
  const size_t kWorkerCounts[] = {1, 2, 4, 8};

  Dataset dataset = MakeCaLike(kDatasetSeed, ScaledCardinality(62556));
  Progress("building %s (%zu objects)", dataset.name.c_str(), dataset.size());
  Result<Session> session =
      Session::Open(BulkLoadStr(dataset.objects, RTreeOptions{}),
                    SessionConfig{.grid_cell_size = 25.0, .grid_space = dataset.space});
  CheckOk(session.status(), "Session::Open");

  const std::vector<Point> points = SampleQueryPoints(dataset, query_count, kQuerySeed);
  std::vector<NwcRequest> requests;
  std::vector<WorkloadEntry> workload;
  requests.reserve(points.size());
  workload.reserve(points.size());
  for (const Point& q : points) {
    const NwcQuery query{q, kDefaultWindow, kDefaultWindow, kDefaultN};
    requests.push_back(NwcRequest{query, {}});
    WorkloadEntry entry;
    entry.is_knwc = false;
    entry.nwc = query;
    workload.push_back(entry);
  }

  TablePrinter table("Server path - in-process vs loopback TCP",
                     {"workers", "direct q/s", "direct p50", "served q/s", "p50_us", "p95_us",
                      "p99_us", "overhead p50"});
  TablePrinter csv("Server path (CSV series)",
                   {"workers", "direct_qps", "direct_p50_us", "offered_qps", "served_qps",
                    "p50_us", "p95_us", "p99_us", "errors", "lost"});

  for (const size_t workers : kWorkerCounts) {
    ServiceConfig config;
    config.num_threads = workers;
    config.queue_capacity = 2 * query_count + 1;
    config.default_options = NwcOptions::Star();

    // In-process baseline: the serve-batch path, no sockets.
    double direct_qps = 0.0;
    uint64_t direct_p50 = 0;
    {
      QueryService service(*session, config);
      Stopwatch wall;
      const std::vector<NwcResponse> responses = service.RunNwcBatch(requests);
      const double seconds = wall.ElapsedSeconds();
      for (const NwcResponse& response : responses) {
        CheckOk(response.status, "server_path direct query");
      }
      const MetricsSnapshot metrics = service.SnapshotMetrics();
      direct_qps = seconds > 0.0 ? static_cast<double>(responses.size()) / seconds : 0.0;
      direct_p50 = metrics.latency_p50_us;
    }

    // Served: same session and config behind the epoll server, driven
    // open-loop from this process over loopback.
    QueryService service(*session, config);
    // Deep queue: the load generator's pipelining should meet the write
    // watermarks and the shed gate only when a test asks for them.
    Result<std::unique_ptr<NetServer>> server = NetServer::Start(service, NetServerConfig());
    CheckOk(server.status(), "NetServer::Start");

    LoadGenConfig load;
    load.port = (*server)->port();
    load.target_qps = std::min(kMaxOfferedQps, 0.6 * direct_qps);
    if (load.target_qps < 1.0) load.target_qps = 1.0;
    load.connections = 4;
    load.pipeline_depth = 32;
    load.duration_seconds = 1.5;
    const Result<LoadGenReport> report = RunLoadGen(load, workload);
    CheckOk(report.status(), "RunLoadGen");
    (*server)->RequestDrain();
    (*server)->Wait();

    const double overhead =
        static_cast<double>(report->p50_micros) - static_cast<double>(direct_p50);
    Progress("workers=%zu: direct %.0f q/s p50=%llu us; served %.0f q/s (offered %.0f) "
             "p50=%llu p95=%llu p99=%llu us, overhead %+.0f us",
             workers, direct_qps, static_cast<unsigned long long>(direct_p50),
             report->achieved_qps, load.target_qps,
             static_cast<unsigned long long>(report->p50_micros),
             static_cast<unsigned long long>(report->p95_micros),
             static_cast<unsigned long long>(report->p99_micros), overhead);

    table.AddRow({StrFormat("%zu", workers), StrFormat("%.0f", direct_qps),
                  StrFormat("%llu us", static_cast<unsigned long long>(direct_p50)),
                  StrFormat("%.0f", report->achieved_qps),
                  StrFormat("%llu", static_cast<unsigned long long>(report->p50_micros)),
                  StrFormat("%llu", static_cast<unsigned long long>(report->p95_micros)),
                  StrFormat("%llu", static_cast<unsigned long long>(report->p99_micros)),
                  StrFormat("%+.0f us", overhead)});
    csv.AddRow({StrFormat("%zu", workers), StrFormat("%.1f", direct_qps),
                StrFormat("%llu", static_cast<unsigned long long>(direct_p50)),
                StrFormat("%.1f", load.target_qps), StrFormat("%.1f", report->achieved_qps),
                StrFormat("%llu", static_cast<unsigned long long>(report->p50_micros)),
                StrFormat("%llu", static_cast<unsigned long long>(report->p95_micros)),
                StrFormat("%llu", static_cast<unsigned long long>(report->p99_micros)),
                StrFormat("%llu", static_cast<unsigned long long>(report->errors)),
                StrFormat("%llu", static_cast<unsigned long long>(report->lost))});
  }

  table.Print();
  csv.WriteCsv(CsvPath("server_path.csv"));
  return 0;
}
