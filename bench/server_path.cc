// Trace-bit overhead gate over loopback TCP (CI's bench-smoke job).
//
// `--smoke` serves a CA-like session of 20,000 x NWC_SCALE objects (NWC*,
// 2 workers) through
// the epoll server and drives 256 distinct NWC queries at it with the
// open-loop load generator, best-of-3 runs with the trace bit off and on.
// It fails (exit 1) when the traced path loses more than 10% throughput
// against untraced, or when the traced run returns no ServerTiming
// annotations: the guard for "tracing is free when off, cheap when on".
// Any other command line prints the usage line and exits 2.
//
// The serving layer's costs (wire latency, decode/dispatch/encode, flush
// wait, bytes per request) are perf_report's `net.*` metrics.

#include <algorithm>
#include <cstddef>

#include "bench/bench_common.h"
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

int main(int argc, char** argv) { return RunGate(argc, argv, RunSmoke); }
