#ifndef NWC_PERF_REPORT_WORKLOADS_H_
#define NWC_PERF_REPORT_WORKLOADS_H_

// The four perf_report workloads. Each owns its seeded inputs, builds one
// serving stack per Setup() call, drives load through the stack's public
// calls for a pass, and checks answers against an oracle it builds itself.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/nwc_types.h"
#include "datasets/dataset.h"
#include "net/server.h"
#include "net/wire.h"
#include "perf/spans.h"
#include "service/query_backend.h"
#include "service/session.h"
#include "service/shard_router.h"
#include "service/workload.h"

namespace nwc::perf {

/// Run-wide knobs from the command line.
struct RunOptions {
  uint64_t seed = 1;
  /// Shrinks datasets, query lists and probes so a traced run finishes in
  /// a few seconds (the ctest smoke mode); timings are then meaningless.
  bool quick = false;
};

/// What one pass produced. Latencies are per request, in nanoseconds:
/// submit -> response for closed loops, due time -> response for the open
/// loop. Traced passes also carry the server-side queue and execute times
/// (microsecond stamps, so the samples are whole microseconds).
struct Pass {
  double seconds = 0.0;
  uint64_t ok = 0;
  uint64_t failed = 0;  ///< non-OK responses plus requests never answered
  std::vector<uint64_t> nwc_ns;
  std::vector<uint64_t> knwc_ns;
  std::vector<uint64_t> queue_us;
  std::vector<uint64_t> exec_us;

  double Qps() const { return seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0; }
};

/// What the layer probes run against, borrowed from a set-up workload.
struct LayerTargets {
  const Dataset* dataset = nullptr;
  /// The workload's own query list; probes take a prefix of it.
  const std::vector<WorkloadEntry>* queries = nullptr;
  /// A single-tree NWC* index over `dataset`.
  const Session* session = nullptr;
  /// The backend the workload serves from.
  QueryBackend* backend = nullptr;
  /// The workload's router, or null (the router probe then builds one).
  ShardRouter* router = nullptr;
  /// The workload's server, or null (the net probe then starts one).
  NetServer* server = nullptr;
  /// Result-cache hits per lookup over the service's life (0 uncached).
  double cache_hit_ratio = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the serving stack from the inputs; perf_report times this call
  /// as setup_s. Called again only after Teardown().
  virtual void Setup() = 0;
  virtual void Teardown() = 0;

  /// Untimed warm-up before the first measured pass.
  virtual void Warm(double seconds) { Run(seconds, nullptr); }

  /// Drives load for `seconds`. A traced pass (non-null `spans`) collects
  /// the server-side stamps and records a span tree per request.
  virtual Pass Run(double seconds, SpanRecorder* spans) = 0;

  /// Compares answers against the oracle; returns the mismatch count.
  /// Called once, after the last pass.
  virtual size_t Verify() = 0;

  virtual LayerTargets Targets() = 0;
};

/// Builds the named workload's inputs (not timed): ca_batch,
/// ca_hot_served, ca_churn or ny_sharded; null for any other name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, const RunOptions& options);

// ---- Shared with the layer probes -------------------------------------

/// The single-tree NWC* stack every workload and oracle uses: STR bulk
/// load, IWP and a grid over the dataset's normalized space.
Session OpenSingleTree(const std::vector<DataObject>& objects, const Rect& space);

/// ny_sharded's router: 4 shards x 1 worker, 4 router threads, windows up
/// to 64 x 64.
ShardRouterConfig RouterConfig();

/// A response a closed loop kept for the oracle, with the index of the
/// query it answers (only the member matching the query kind is set).
struct KeptResponse {
  size_t index = 0;
  NwcResponse nwc;
  KnwcResponse knwc;
};

/// Closed-loop load: `outstanding` requests always in flight, cycling
/// through `queries` from `*cursor` for `seconds`, from one submitting
/// thread. With `traced` the traced submits deliver AsyncTiming, and
/// `spans`, when non-null, gets a request -> service.queue -> `exec_span`
/// tree per request. Responses to queries whose index is a multiple of
/// `keep_every` go to `kept`; `on_response` runs after every response.
struct ClosedLoop {
  size_t outstanding = 4;
  bool traced = false;
  const char* exec_span = "service.execute";
  size_t keep_every = 0;
  std::function<void()> on_response;
};
Pass RunClosedLoop(QueryBackend& backend, const std::vector<WorkloadEntry>& queries,
                   size_t* cursor, double seconds, const ClosedLoop& loop, SpanRecorder* spans,
                   std::vector<KeptResponse>* kept = nullptr);

/// Records one served request's spans: request [send, receive] with the
/// server's pipeline (decode, queue, execute, encode, flush wait) placed
/// at the midpoint of the wire time, which becomes two net.wire spans.
void AddServedSpans(SpanRecorder* spans, uint64_t sent_ns, uint64_t done_ns,
                    const ServerTiming& timing, uint32_t lane);

/// How a routed answer compares with the single-tree oracle's.
enum class RoutedMatch {
  kExact,
  /// Equally optimal but with other members: an exact distance tie, or a
  /// kNWC overlap chain past group 0 (the carve-outs shard_router.h
  /// documents). The routed groups are still checked to be honest.
  kTied,
  kMismatch,
};
RoutedMatch CompareRouted(const NwcQuery& query, const NwcResult& routed,
                          const NwcResult& single);
RoutedMatch CompareRouted(const KnwcQuery& query, const KnwcResult& routed,
                          const KnwcResult& single);

}  // namespace nwc::perf

#endif  // NWC_PERF_REPORT_WORKLOADS_H_
