// Result-cache overhead gate (CI's bench-smoke job; no paper counterpart).
//
// `--smoke` compares best-of-3 qps uncached vs cached-all-miss on 200
// distinct NWC* queries over a 20k-object CA-like tree, 2 workers. An
// all-miss workload pays the cache's full probe+insert overhead with zero
// benefit, so it bounds the regression the cache can inflict on
// uncached-style traffic; the gate fails (exit 1) when that overhead
// exceeds 10%. One untimed pass of each arm warms the process first, the
// uncached and cached reps then alternate (so drift on the host hits both
// arms alike), and each rep runs for at least one second. Any other
// command line prints the usage line and exits 2.
//
// The service layer's timings (queue vs execute, cache hit/miss cost)
// are perf_report's `service.*` metrics.

#include <algorithm>
#include <cstddef>
#include <future>

#include "bench/bench_common.h"
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
  std::vector<std::future<NwcResponse>> futures;
  futures.reserve(requests.size());
  for (const NwcRequest& request : requests) futures.push_back(service.SubmitNwc(request));
  for (std::future<NwcResponse>& future : futures) {
    CheckOk(future.get().status, "throughput_service smoke query");
  }
  return wall.ElapsedSeconds();
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

int main(int argc, char** argv) { return RunGate(argc, argv, RunSmoke); }
