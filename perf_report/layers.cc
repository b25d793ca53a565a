#include "layers.h"

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/knwc_engine.h"
#include "core/nwc_engine.h"
#include "net/client.h"
#include "obs/query_trace.h"
#include "perf/inputs.h"
#include "perf/stats.h"
#include "rtree/bulk_load.h"
#include "service/query_service.h"
#include "service/snapshot.h"
#include "simd/kernels.h"

namespace nwc::perf {
namespace {

// Chrome-trace lanes of the probes (the traced passes use lanes 0..31).
constexpr uint32_t kCoreLane = 100;
constexpr uint32_t kSnapshotLane = 101;
constexpr uint32_t kRouterLane = 102;
constexpr uint32_t kNetLane = 103;

// Points per kernel call: the size of a leaf-sized run of coordinates.
constexpr size_t kSpan = 64;

// Keeps kernel outputs observable so the timed loops cannot be elided.
volatile double g_sink = 0.0;

double Us(double ns) { return ns / 1e3; }

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// The first `count` NWC (or kNWC) entries of `queries`.
std::vector<const WorkloadEntry*> Prefix(const std::vector<WorkloadEntry>& queries, size_t count,
                                         bool knwc) {
  std::vector<const WorkloadEntry*> out;
  for (const WorkloadEntry& entry : queries) {
    if (out.size() == count) break;
    if (entry.is_knwc == knwc) out.push_back(&entry);
  }
  return out;
}

// ---- simd: ns per element of each kernel over the dataset's coordinates ----

// Median over three sweeps of ns per element; each sweep repeats `pass`
// (which returns the elements it processed) for at least `min_ns`.
template <typename PassFn>
double NsPerElement(PassFn pass, uint64_t min_ns) {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t elements = 0;
    const uint64_t start = NowNs();
    uint64_t elapsed = 0;
    do {
      elements += pass();
      elapsed = NowNs() - start;
    } while (elapsed < min_ns);
    samples.push_back(static_cast<double>(elapsed) / static_cast<double>(elements));
  }
  return Median(samples);
}

void ProbeSimd(const Dataset& dataset, bool quick) {
  const size_t n = dataset.objects.size() / kSpan * kSpan;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  std::vector<Rect> mbrs(n);
  for (size_t i = 0; i < n; ++i) {
    const Point& p = dataset.objects[i].pos;
    xs[i] = p.x;
    ys[i] = p.y;
    mbrs[i] = Rect::FromPoint(p).Inflated(kWindow / 2, kWindow / 2);
  }
  std::vector<uint32_t> hits(kSpan);
  std::vector<double> out(kSpan);
  const simd::KernelOps& ops = simd::Ops();
  const uint64_t min_ns = quick ? 2'000'000 : 50'000'000;
  // Each call's window / query point sits at its span's first point, as
  // a window query or a distance browse anchored there would.
  const auto sweep = [&](auto call) {
    for (size_t i = 0; i < n; i += kSpan) call(i, Point{xs[i], ys[i]});
    return static_cast<uint64_t>(n);
  };
  const auto window = [](const Point& p) { return Rect::FromPoint(p).Inflated(kWindow, kWindow); };

  EmitMetric("simd.count_in_window_ns", NsPerElement([&] {
               return sweep([&](size_t i, const Point& p) {
                 g_sink = g_sink + ops.count_in_window(&xs[i], &ys[i], kSpan, window(p));
               });
             }, min_ns), "ns");
  EmitMetric("simd.collect_in_window_ns", NsPerElement([&] {
               return sweep([&](size_t i, const Point& p) {
                 g_sink = g_sink + ops.collect_in_window(&xs[i], &ys[i], kSpan, window(p),
                                                         hits.data());
               });
             }, min_ns), "ns");
  EmitMetric("simd.batch_distance_ns", NsPerElement([&] {
               return sweep([&](size_t i, const Point& p) {
                 ops.batch_distance(p, &xs[i], &ys[i], kSpan, out.data());
                 g_sink = g_sink + out[kSpan - 1];
               });
             }, min_ns), "ns");
  EmitMetric("simd.batch_min_dist_ns", NsPerElement([&] {
               return sweep([&](size_t i, const Point& p) {
                 ops.batch_min_dist(p, &mbrs[i], sizeof(Rect), kSpan, out.data());
                 g_sink = g_sink + out[kSpan - 1];
               });
             }, min_ns), "ns");
}

// ---- core: the engines alone, single-threaded ----------------------------

double MeanReads(const NwcEngine& engine, const std::vector<const WorkloadEntry*>& entries,
                 const NwcOptions& options) {
  uint64_t reads = 0;
  for (const WorkloadEntry* entry : entries) {
    IoCounter io;
    CheckOk(engine.Execute(entry->nwc, options, &io).status(), "core reads probe");
    reads += io.query_total();
  }
  return Ratio(static_cast<double>(reads), static_cast<double>(entries.size()));
}

void ProbeCore(const LayerTargets& targets, bool quick, SpanRecorder* spans) {
  const Session& session = *targets.session;
  const NwcEngine nwc(session.tree(), session.iwp(), session.grid());
  const KnwcEngine knwc(session.tree(), session.iwp(), session.grid());
  const NwcOptions star = NwcOptions::Star();

  std::vector<uint64_t> nwc_ns;
  std::vector<uint64_t> knwc_ns;
  IoCounter nwc_io;
  IoCounter knwc_io;
  const size_t count = std::min<size_t>(targets.queries->size(), quick ? 200 : 2000);
  for (size_t i = 0; i < count; ++i) {
    const WorkloadEntry& entry = (*targets.queries)[i];
    IoCounter io;
    const uint64_t start = NowNs();
    const Status status = entry.is_knwc ? knwc.Execute(entry.knwc, star, &io).status()
                                        : nwc.Execute(entry.nwc, star, &io).status();
    const uint64_t end = NowNs();
    CheckOk(status, "core probe");
    (entry.is_knwc ? knwc_ns : nwc_ns).push_back(end - start);
    (entry.is_knwc ? knwc_io : nwc_io).Add(io);
    spans->Add(entry.is_knwc ? "core.knwc" : "core.nwc", start, end, kNoParent,
               spans->NewRequest(), kCoreLane, static_cast<int64_t>(io.query_total()));
  }
  const double nwc_count = static_cast<double>(nwc_ns.size());
  const double knwc_count = static_cast<double>(knwc_ns.size());
  EmitMetric("core.nwc_us_p50", Us(Quantile(nwc_ns, 0.50)), "us", nwc_ns.size());
  EmitMetric("core.nwc_us_p99", Us(Quantile(nwc_ns, 0.99)), "us", nwc_ns.size());
  EmitMetric("core.knwc_us_p50", Us(Quantile(knwc_ns, 0.50)), "us", knwc_ns.size());
  EmitMetric("core.knwc_us_p99", Us(Quantile(knwc_ns, 0.99)), "us", knwc_ns.size());
  EmitMetric("core.nwc_reads", Ratio(nwc_io.query_total(), nwc_count), "count");
  EmitMetric("core.nwc_window_reads", Ratio(nwc_io.window_query_reads(), nwc_count), "count");
  EmitMetric("core.nwc_traversal_reads", Ratio(nwc_io.traversal_reads(), nwc_count), "count");
  EmitMetric("core.knwc_reads", Ratio(knwc_io.query_total(), knwc_count), "count");

  // Search-shape counters from a second pass recording a QueryTrace.
  uint64_t window_queries = 0;
  uint64_t windows_evaluated = 0;
  const std::vector<const WorkloadEntry*> traced =
      Prefix(*targets.queries, quick ? 50 : 500, false);
  for (const WorkloadEntry* entry : traced) {
    QueryTrace trace = QueryTrace::Enabled();
    CheckOk(nwc.Execute(entry->nwc, star, nullptr, &trace).status(), "core trace probe");
    window_queries += trace.counter(TraceCounter::kWindowQueries);
    windows_evaluated += trace.counter(TraceCounter::kWindowsEvaluated);
  }
  EmitMetric("core.window_queries_per_nwc",
             Ratio(static_cast<double>(window_queries), static_cast<double>(traced.size())),
             "count");
  EmitMetric("core.groups_per_window_query",
             Ratio(static_cast<double>(windows_evaluated), static_cast<double>(window_queries)),
             "1");

  // The paper's metric per preset: node reads per NWC query. The three
  // presets without SRR/DIP visit nearly the whole tree (0.5 s per NY
  // query), so they average over fewer queries.
  const std::vector<const WorkloadEntry*> few = Prefix(*targets.queries, 3, false);
  const std::vector<const WorkloadEntry*> many = Prefix(*targets.queries, 25, false);
  EmitMetric("core.reads.plain", MeanReads(nwc, few, NwcOptions::Plain()), "count");
  EmitMetric("core.reads.dep", MeanReads(nwc, few, NwcOptions::Dep()), "count");
  EmitMetric("core.reads.iwp", MeanReads(nwc, few, NwcOptions::Iwp()), "count");
  EmitMetric("core.reads.plus", MeanReads(nwc, many, NwcOptions::Plus()), "count");
  EmitMetric("core.reads.star", MeanReads(nwc, many, star), "count");
}

// ---- service: result-cache hit and miss cost, callback handoff ------------

// A 1-worker QueryService with a 64 MiB cache over the workload's index
// answers the first NWC queries twice, one at a time: first as misses,
// then as hits.
void ProbeService(const LayerTargets& targets, bool quick) {
  ServiceConfig config;
  config.num_threads = 1;
  config.result_cache_bytes = size_t{64} << 20;
  QueryService service(*targets.session, config);
  const std::vector<const WorkloadEntry*> entries =
      Prefix(*targets.queries, quick ? 30 : 300, false);

  std::vector<uint64_t> handoff_ns;
  std::vector<uint64_t> miss_us;
  std::vector<uint64_t> hit_us;
  for (int round = 0; round < 2; ++round) {
    for (const WorkloadEntry* entry : entries) {
      std::promise<void> done;
      uint64_t callback_ns = 0;
      AsyncTiming timing;
      NwcResponse response;
      service.SubmitNwcAsyncTraced(NwcRequest{entry->nwc, {}, 0},
                                   [&](NwcResponse r, const AsyncTiming& t) {
                                     callback_ns = NowNs();
                                     timing = t;
                                     response = std::move(r);
                                     done.set_value();
                                   });
      done.get_future().wait();
      CheckOk(response.status, "service probe");
      handoff_ns.push_back(callback_ns - std::min(callback_ns, timing.finish_us * 1000));
      const uint64_t exec = timing.finish_us - std::min(timing.finish_us, timing.dequeue_us);
      (response.result_cache_hit ? hit_us : miss_us).push_back(exec);
    }
  }
  EmitMetric("service.handoff_us_mean", Us(Mean(handoff_ns)), "us", handoff_ns.size());
  EmitMetric("service.hit_exec_us_mean", Mean(hit_us), "us", hit_us.size());
  EmitMetric("service.miss_exec_us_p50", static_cast<double>(Quantile(miss_us, 0.50)), "us",
             miss_us.size());
  EmitMetric("service.cache_hit_ratio", targets.cache_hit_ratio, "1");
}

// ---- snapshot: apply and publish cost on a twin store ---------------------

// A twin SnapshotStore over the workload's data replays the churn writer's
// batches (the same seeded stream ca_churn applies) through separate
// Apply() and Publish() calls.
void ProbeSnapshot(const LayerTargets& targets, const RunOptions& options, SpanRecorder* spans) {
  const Dataset& dataset = *targets.dataset;
  SnapshotStore::Config config;
  config.session.grid_space = dataset.space;
  Result<std::unique_ptr<SnapshotStore>> store =
      SnapshotStore::Open(BulkLoadStr(dataset.objects, RTreeOptions{}), config);
  CheckOk(store.status(), "snapshot probe SnapshotStore::Open");
  ChurnStream churn(dataset.objects, StreamSeed(options.seed, Stream::kChurn));

  std::vector<uint64_t> apply_ns;
  std::vector<uint64_t> publish_ns;
  for (size_t b = 0; b < (options.quick ? 10u : 100u); ++b) {
    const MutationBatch batch = churn.Next(32);
    const uint64_t start = NowNs();
    CheckOk((*store)->Apply(batch), "snapshot probe Apply");
    const uint64_t applied = NowNs();
    (*store)->Publish();
    const uint64_t published = NowNs();
    apply_ns.push_back(applied - start);
    publish_ns.push_back(published - applied);
    const uint64_t request = spans->NewRequest();
    spans->Add("snapshot.apply", start, applied, kNoParent, request, kSnapshotLane);
    spans->Add("snapshot.publish", applied, published, kNoParent, request, kSnapshotLane);
  }
  EmitMetric("snapshot.apply_us_p50", Us(Quantile(apply_ns, 0.50)), "us", apply_ns.size());
  EmitMetric("snapshot.publish_us_p50", Us(Quantile(publish_ns, 0.50)), "us", publish_ns.size());
  EmitMetric("snapshot.publish_us_p95", Us(Quantile(publish_ns, 0.95)), "us", publish_ns.size());
}

// ---- shard_router: fan-out, balance and the cost over one tree -------------

// Routes the first queries blocking through the workload's router (or a
// ny_sharded-shaped router over the workload's data), timing each against
// the same query on the single tree and counting shard executions from the
// per-shard metrics. Returns the routed answers that are neither exact nor
// an equally-optimal carve-out.
size_t ProbeRouter(const LayerTargets& targets, bool quick, SpanRecorder* spans) {
  std::unique_ptr<ShardRouter> owned;
  ShardRouter* router = targets.router;
  if (router == nullptr) {
    Result<std::unique_ptr<ShardRouter>> opened =
        ShardRouter::Open(targets.dataset->objects, RouterConfig());
    CheckOk(opened.status(), "router probe ShardRouter::Open");
    owned = std::move(opened).value();
    router = owned.get();
  }
  const Session& session = *targets.session;
  const NwcEngine nwc(session.tree(), session.iwp(), session.grid());
  const KnwcEngine knwc(session.tree(), session.iwp(), session.grid());
  const size_t shards = router->num_shards();
  const auto executions = [&] {
    std::vector<uint64_t> queries(shards);
    for (size_t s = 0; s < shards; ++s) queries[s] = router->ShardMetrics(s).queries;
    return queries;
  };

  size_t mismatches = 0;
  size_t divergences = 0;
  double routed_ns[2] = {0.0, 0.0};  // [nwc, knwc]
  double single_ns[2] = {0.0, 0.0};
  double execs[2] = {0.0, 0.0};
  size_t counts[2] = {0, 0};
  const std::vector<uint64_t> before = executions();
  std::vector<uint64_t> phase_start = before;
  const size_t prefix = quick ? 100 : 500;
  for (const bool is_knwc : {false, true}) {
    const int k = is_knwc ? 1 : 0;
    const std::vector<const WorkloadEntry*> entries =
        Prefix(*targets.queries, is_knwc ? prefix / 4 : prefix, is_knwc);
    for (const WorkloadEntry* entry : entries) {
      const uint64_t start = NowNs();
      RoutedMatch match = RoutedMatch::kMismatch;
      uint64_t routed_end = 0;
      uint64_t single_end = 0;
      if (is_knwc) {
        const KnwcResponse routed = router->RouteKnwc(KnwcRequest{entry->knwc, {}, 0});
        routed_end = NowNs();
        const Result<KnwcResult> single = knwc.Execute(entry->knwc, NwcOptions::Star(), nullptr);
        single_end = NowNs();
        if (routed.status.ok() && single.ok()) {
          match = CompareRouted(entry->knwc, routed.result, *single);
        }
      } else {
        const NwcResponse routed = router->RouteNwc(NwcRequest{entry->nwc, {}, 0});
        routed_end = NowNs();
        const Result<NwcResult> single = nwc.Execute(entry->nwc, NwcOptions::Star(), nullptr);
        single_end = NowNs();
        if (routed.status.ok() && single.ok()) {
          match = CompareRouted(entry->nwc, routed.result, *single);
        }
      }
      mismatches += match == RoutedMatch::kMismatch ? 1 : 0;
      divergences += match == RoutedMatch::kTied ? 1 : 0;
      routed_ns[k] += static_cast<double>(routed_end - start);
      single_ns[k] += static_cast<double>(single_end - routed_end);
      spans->Add("shard_router.route", start, routed_end, kNoParent, spans->NewRequest(),
                 kRouterLane);
    }
    const std::vector<uint64_t> phase_end = executions();
    for (size_t s = 0; s < shards; ++s) {
      execs[k] += static_cast<double>(phase_end[s] - phase_start[s]);
    }
    counts[k] = entries.size();
    phase_start = phase_end;
  }
  double busiest = 0.0;
  double total = 0.0;
  for (size_t s = 0; s < shards; ++s) {
    const double shard_execs = static_cast<double>(phase_start[s] - before[s]);
    busiest = std::max(busiest, shard_execs);
    total += shard_execs;
  }
  size_t resident = 0;
  for (size_t s = 0; s < shards; ++s) resident += router->shard_resident_count(s);

  // Router-executor wait: the same queries through the async path with 8
  // outstanding.
  size_t cursor = 0;
  ClosedLoop loop;
  loop.outstanding = 8;
  loop.traced = true;
  const Pass pass = RunClosedLoop(*router, *targets.queries, &cursor, quick ? 0.2 : 1.0, loop,
                                  nullptr);
  mismatches += pass.failed;

  EmitMetric("shard_router.execs_per_nwc", Ratio(execs[0], counts[0]), "count");
  EmitMetric("shard_router.execs_per_knwc", Ratio(execs[1], counts[1]), "count");
  EmitMetric("shard_router.queue_us_mean", Mean(pass.queue_us), "us", pass.queue_us.size());
  EmitMetric("shard_router.load_imbalance", Ratio(busiest, total / static_cast<double>(shards)),
             "1");
  EmitMetric("shard_router.nwc_overhead_us",
             Us(Ratio(routed_ns[0] - single_ns[0], static_cast<double>(counts[0]))), "us");
  EmitMetric("shard_router.knwc_scatter_tax", Ratio(routed_ns[1], single_ns[1]), "1");
  EmitMetric("shard_router.replication",
             Ratio(static_cast<double>(resident), static_cast<double>(targets.dataset->size())),
             "1");
  EmitMetric("shard_router.member_divergences", static_cast<double>(divergences), "count");
  return mismatches;
}

// ---- net: where a served request's time goes -------------------------------

// Sequential traced requests over one connection to the workload's server
// (or a NetServer started in front of its backend): the ServerTiming
// offsets split each request, and the server's counters give wakeups and
// bytes per request. Returns the requests that failed.
size_t ProbeNet(const LayerTargets& targets, bool quick, SpanRecorder* spans) {
  std::unique_ptr<NetServer> owned;
  NetServer* server = targets.server;
  if (server == nullptr) {
    Result<std::unique_ptr<NetServer>> started =
        NetServer::Start(*targets.backend, NetServerConfig());
    CheckOk(started.status(), "net probe NetServer::Start");
    owned = std::move(started).value();
    server = owned.get();
  }
  Result<NetClient> client = NetClient::Connect("127.0.0.1", server->port());
  CheckOk(client.status(), "net probe connect");

  size_t failed = 0;
  std::vector<uint64_t> wire_ns;
  std::vector<uint64_t> decode_us;
  std::vector<uint64_t> dispatch_us;
  std::vector<uint64_t> encode_us;
  std::vector<uint64_t> flush_wait_us;
  const NetMetricsSnapshot before = server->SnapshotNetMetrics();
  const size_t count = std::min<size_t>(targets.queries->size(), quick ? 100 : 1000);
  for (size_t i = 0; i < count; ++i) {
    const WorkloadEntry& entry = (*targets.queries)[i];
    const uint64_t sent = NowNs();
    const Status status = entry.is_knwc
                              ? client->SendKnwc(i, KnwcRequest{entry.knwc, {}, 0}, true)
                              : client->SendNwc(i, NwcRequest{entry.nwc, {}, 0}, true);
    NetReply reply;
    const bool received = status.ok() && client->Receive(&reply).ok();
    const uint64_t done = NowNs();
    if (!received || !reply.traced ||
        !(entry.is_knwc ? reply.knwc.status : reply.nwc.status).ok()) {
      ++failed;
      continue;
    }
    const ServerTiming& t = reply.timing;
    wire_ns.push_back((done - sent) - std::min(done - sent, t.flush_us * 1000));
    decode_us.push_back(t.decode_us);
    dispatch_us.push_back(t.enqueue_us - std::min(t.enqueue_us, t.decode_us));
    encode_us.push_back(t.encode_us - std::min(t.encode_us, t.execute_us));
    flush_wait_us.push_back(t.flush_us - std::min(t.flush_us, t.encode_us));
    AddServedSpans(spans, sent, done, t, kNetLane);
  }
  const NetMetricsSnapshot after = server->SnapshotNetMetrics();
  if (owned != nullptr) {
    owned->RequestDrain();
    owned->Wait();
  }

  EmitMetric("net.wire_us_p50", Us(Quantile(wire_ns, 0.50)), "us", wire_ns.size());
  EmitMetric("net.wire_us_p99", Us(Quantile(wire_ns, 0.99)), "us", wire_ns.size());
  EmitMetric("net.decode_us_mean", Mean(decode_us), "us", decode_us.size());
  EmitMetric("net.dispatch_us_mean", Mean(dispatch_us), "us", dispatch_us.size());
  EmitMetric("net.encode_us_mean", Mean(encode_us), "us", encode_us.size());
  EmitMetric("net.flush_wait_us_mean", Mean(flush_wait_us), "us", flush_wait_us.size());
  EmitMetric("net.wakeups_per_response",
             Ratio(static_cast<double>(after.eventfd_wakeups - before.eventfd_wakeups),
                   static_cast<double>(after.frames_sent - before.frames_sent)),
             "count");
  EmitMetric("net.bytes_per_request",
             Ratio(static_cast<double>(after.bytes_read - before.bytes_read +
                                       after.bytes_written - before.bytes_written),
                   static_cast<double>(after.frames_received - before.frames_received)),
             "B");
  return failed;
}

}  // namespace

size_t RunLayerProbes(const LayerTargets& targets, const RunOptions& options,
                      SpanRecorder* spans) {
  ProbeSimd(*targets.dataset, options.quick);
  ProbeCore(targets, options.quick, spans);
  ProbeService(targets, options.quick);
  ProbeSnapshot(targets, options, spans);
  size_t failures = ProbeRouter(targets, options.quick, spans);
  failures += ProbeNet(targets, options.quick, spans);
  return failures;
}

}  // namespace nwc::perf
